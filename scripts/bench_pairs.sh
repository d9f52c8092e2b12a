#!/usr/bin/env bash
# Paired parent-vs-change runs of the serving benchmark (servebench).
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <seed>...
#
# Each seed argument is one pair: the BENCHMARK.json command runs once on
# <parent-rev> and once on the working tree, with `--workload <workload>
# --seed <seed> --seconds 20 --trace 0`. Odd pairs run the parent first,
# even pairs the change first. Repeat a seed to get more pairs of it, e.g.
# `scripts/bench_pairs.sh HEAD~1 serve-read 3 3 3 3 3 3 3 3 3 3`.
#
# The parent is exported with `git archive` into target/bench-pairs/<sha>
# and builds its servebench from its own sources there; servebench/ itself
# is never edited. Prints every run's end-to-end metrics, then per side the
# median and quartiles of each end-to-end metric and how many pairs the
# change won (ties count for neither side), and a verdict per metric:
#
#   gain        the change won at least 9 of every 10 pairs and its median
#               beats the parent's by more than the parent's q3 - q1;
#   regression  the change's median is worse than the parent's by more than
#               the metric's BENCHMARK.json `bound`, read as a fraction;
#   no change   neither.
#
# Last, each side's failed-operation share (failed / attempted over all its
# runs). Raw result lines are kept in target/bench-pairs/<sha>-<workload>.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ]; then
  echo "usage: $0 <parent-rev> <workload> <seed>..." >&2
  exit 2
fi
parent_rev=$1
workload=$2
shift 2

root=$(pwd)
sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_dir=$root/target/bench-pairs/$sha
results=$root/target/bench-pairs/$sha-$workload.jsonl
# Each side builds into its own tree's servebench/target.
unset CARGO_TARGET_DIR

if [ ! -d "$parent_dir" ]; then
  mkdir -p "$parent_dir.tmp"
  git archive "$sha" | tar -x -C "$parent_dir.tmp"
  mv "$parent_dir.tmp" "$parent_dir"
fi

mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
metrics=$(jq -c '[.end_to_end[] | {name, better, bound}]' BENCHMARK.json)

# Build both sides before timing anything.
for dir in "$parent_dir" "$root"; do
  (cd "$dir" && cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml)
done

# run <side> <pair> <seed>: one benchmark run, appended to $results.
run() {
  local side=$1 pair=$2 seed=$3 dir=$root line
  [ "$side" = parent ] && dir=$parent_dir
  line=$(cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
    --seconds 20 --trace 0 | tail -n 1)
  jq -c --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
    '{pair: $pair, side: $side, seed: $seed, correct, attempted, failed,
      metrics: (.metrics | map_values(.value))}' <<<"$line" | tee -a "$results"
}

: >"$results"
pair=0
for seed in "$@"; do
  pair=$((pair + 1))
  if [ $((pair % 2)) -eq 1 ]; then
    run parent "$pair" "$seed"
    run change "$pair" "$seed"
  else
    run change "$pair" "$seed"
    run parent "$pair" "$seed"
  fi
done

jq -rs --argjson metrics "$metrics" --arg workload "$workload" --arg sha "$sha" '
  # Quantile with linear interpolation between closest ranks.
  def quantile(p): sort as $s | ($s | length) as $n
    | (($n - 1) * p) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
  def fmt: . * 10000 | round / 10000;
  . as $runs
  | ($runs | map(.pair) | unique) as $pairs
  | "workload \($workload), parent \($sha), \($pairs | length) pairs",
    (if all($runs[]; .correct and .failed == 0) then "all runs correct, 0 failed operations"
     else "WARNING: some run was incorrect or had failed operations" end),
    ($metrics[] as $m
     | [$runs[] | select(.side == "parent") | .metrics[$m.name]] as $p
     | [$runs[] | select(.side == "change") | .metrics[$m.name]] as $c
     | [$pairs[] as $i
        | ($runs[] | select(.pair == $i and .side == "parent") | .metrics[$m.name]) as $pv
        | ($runs[] | select(.pair == $i and .side == "change") | .metrics[$m.name]) as $cv
        | if $m.better == "lower" then $cv < $pv else $cv > $pv end
        | select(.)] as $wins
     | ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
     | (($p | quantile(0.75)) - ($p | quantile(0.25))) as $spread
     # Signed so that positive is better for the change.
     | (if $m.better == "lower" then $pm - $cm else $cm - $pm end) as $gap
     | (if ($wins | length) * 10 >= 9 * ($pairs | length) and $gap > $spread then "gain"
        elif -$gap > $m.bound * ($pm | fabs) then "regression"
        else "no change" end) as $verdict
     | "\($m.name) (\($m.better) is better): "
       + "parent median \($pm | fmt) [q1 \($p | quantile(0.25) | fmt), q3 \($p | quantile(0.75) | fmt)]; "
       + "change median \($cm | fmt) [q1 \($c | quantile(0.25) | fmt), q3 \($c | quantile(0.75) | fmt)]; "
       + "change wins \($wins | length)/\($pairs | length); "
       + "verdict: \($verdict) (gap \($gap | fmt), parent q3-q1 \($spread | fmt), bound \($m.bound))"),
    ("parent", "change") as $side
    | [$runs[] | select(.side == $side)] as $r
    | ([$r[].failed] | add) as $failed | ([$r[].attempted] | add) as $attempted
    | "failed share, \($side): \($failed)/\($attempted)"
      + " = \(if $attempted > 0 then $failed / $attempted else 0 end)"
' "$results"
