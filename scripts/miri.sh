#!/usr/bin/env bash
# Run the Miri-compatible test subset for the core crate.
#
# Miri interprets every load and store, so it is ~3 orders of magnitude
# slower than a native run. The core test suite is kept Miri-sized:
#   - statistical sweeps (hash distribution, compression ratios) carry
#     `#[cfg_attr(miri, ignore)]` — they measure space/balance, not
#     memory safety, and contribute nothing under an interpreter;
#   - the persist round-trip corpus shrinks under `cfg(miri)`;
#   - everything else — delta overlay, tombstone filtering, persist
#     round-trips, matching — runs in full.
#
# -Zmiri-disable-isolation: the optimizer reads Instant::now() for its
# telemetry; isolation would reject that. No other host access happens.
#
# Requires a nightly toolchain with the `miri` component:
#   rustup +nightly component add miri
set -euo pipefail
cd "$(dirname "$0")/.."
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}"
exec cargo +nightly miri test -p broadmatch "$@"
