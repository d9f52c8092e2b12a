//! Poison-recovering lock helpers for the serve hot path.
//!
//! The runtime's locks guard state that stays consistent across panics
//! (admission counts, an op log, plain timestamps): every critical
//! section either completes its in-place mutation or leaves the value
//! usable. So a poisoned lock carries no integrity signal here — it only
//! says *some* thread panicked while holding the guard — and unwinding
//! the whole serving process over it (the old `.expect("lock poisoned")`
//! pattern) turned one query's panic into total unavailability. The
//! serve hot-path lint rule (`tools/lint`) bans `unwrap`/`expect` in
//! these modules; these helpers are the sanctioned replacement: recover
//! the guard and keep serving.
//!
//! Public because the `broadmatch-net` cluster layer sits under the same
//! hot-path lint rule and guards the same kind of panic-tolerant state
//! (connection pools, replication logs).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Lock, recovering the guard from a poisoned mutex.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait`, recovering the guard from poison.
pub fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout`, recovering the guard from poison.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(g, dur)
        .unwrap_or_else(PoisonError::into_inner)
}
