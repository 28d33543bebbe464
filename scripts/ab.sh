#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark (perfbench) between two
# commits, by the rule for small hosts: alternating pairs, each side's
# median and quartiles, and the share of pairs the change won.
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload> <pairs> [seconds] [trace]
#
# Each rev is checked out into its own git worktree and perfbench is built
# there under its own CARGO_TARGET_DIR. Pair i runs both sides with seed i,
# the parent first in odd pairs and the change first in even ones. Run
# length defaults to BENCHMARK.json's run_seconds. Per end-to-end metric it
# prints both sides' median [q1, q3], the change/parent ratio of medians,
# the pairs the change won (ties count for neither) and whether that is a
# gain: at least 9/10 of the pairs won and a median gap wider than the
# parent's interquartile range. With the word `trace` both sides run with
# `--trace 1`, and the table also lists the per-layer loop-job counts and
# the empty-loop floor (median [q1, q3] and ratio; lower is better for
# each). Every run's result line is kept under the work directory printed
# at the start; worktrees and builds are removed at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <parent-rev> <change-rev> <workload> <pairs> [seconds] [trace]" >&2
  exit 2
}
[ "$#" -ge 4 ] && [ "$#" -le 6 ] || usage
PARENT_REV=$1 CHANGE_REV=$2 WORKLOAD=$3 PAIRS=$4
TRACE=0 SECONDS_ARG=
for arg in "${@:5}"; do
  if [ "$arg" = trace ]; then TRACE=1; elif [ -z "$SECONDS_ARG" ]; then SECONDS_ARG=$arg; else usage; fi
done
SECONDS_ARG=${SECONDS_ARG:-$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')}
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: pairs must be a positive integer" >&2; exit 2; }
[[ "$SECONDS_ARG" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: seconds must be a positive integer" >&2; exit 2; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab.sh: work directory $WORK"
cleanup() {
  for side in parent change; do
    [ -d "$WORK/$side" ] && git worktree remove --force "$WORK/$side" >/dev/null 2>&1
    rm -rf "$WORK/target-$side"
  done
  git worktree prune
}
trap cleanup EXIT

for side in parent change; do
  rev=$PARENT_REV
  [ "$side" = change ] && rev=$CHANGE_REV
  git worktree add --quiet --detach "$WORK/$side" "$rev"
  echo "== build $side ($(git rev-parse --short "$rev")) =="
  CARGO_TARGET_DIR="$WORK/target-$side" \
    cargo build --release --offline --quiet --manifest-path "$WORK/$side/perfbench/Cargo.toml"
done

# One run of one side; its result line (the last line of stdout) is
# appended to $WORK/<side>.jsonl, its stderr replaces $WORK/<side>.stderr.
run() {
  local side=$1 seed=$2 line
  line=$(cd "$WORK/$side" && "$WORK/target-$side/release/parloop-perfbench" \
    --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_ARG" --trace "$TRACE" \
    2>"$WORK/$side.stderr" | tail -n 1) \
    || { echo "ab.sh: $side run failed (seed $seed), see $WORK/$side.stderr" >&2; exit 1; }
  echo "$line" >>"$WORK/$side.jsonl"
}

for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  echo "== pair $i/$PAIRS ($order) =="
  for side in $order; do run "$side" "$i"; done
done

# Flatten every result line to "<run> <metric> <value>" rows; failed
# operation counts ride along as the pseudo-metric `failed`.
flatten() {
  awk '{
    s = $0
    while (match(s, /"[a-z_0-9.]+": \{"value": [^,}]+/)) {
      item = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      name = item; sub(/^"/, "", name); sub(/".*/, "", name)
      value = item; sub(/.*"value": /, "", value)
      print NR, name, value
    }
    if (match($0, /"failed": [0-9]+/)) print NR, "failed", substr($0, RSTART + 10, RLENGTH - 10)
  }' "$1"
}

# "<metric> lower|higher" for every end-to-end metric BENCHMARK.json lists.
sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json \
  | grep -o '{"name": "[^"]*", "unit": "[^"]*", "better": "[^"]*"' \
  | awk -F'"' '{ print $4, $12 }' >"$WORK/better.txt"
if [ "$TRACE" = 1 ]; then
  # The traced run's per-layer view of the loop jobs and the floor.
  for m in runtime.pushes_per_loop runtime.steals_per_loop core.loop_floor_us \
    core.hybrid.adoptions_per_loop core.lazy.assists_per_loop; do
    echo "$m lower"
  done >>"$WORK/better.txt"
fi

{
  flatten "$WORK/parent.jsonl" | sed 's/^/parent /'
  flatten "$WORK/change.jsonl" | sed 's/^/change /'
} | awk -v pairs="$PAIRS" -v better_file="$WORK/better.txt" '
  # Quantile p of the sorted a[1..n], linearly interpolated.
  function q(a, n, p,   idx, lo) {
    idx = (n - 1) * p + 1
    lo = int(idx)
    return lo < n ? a[lo] + (idx - lo) * (a[lo + 1] - a[lo]) : a[lo]
  }
  function isort(a, n,   i, j, t) {
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
  }
  BEGIN {
    while ((getline line < better_file) > 0) { split(line, f, " "); better[f[1]] = f[2]; order[++nm] = f[1] }
    better["failed"] = "lower"; order[++nm] = "failed"
  }
  { val[$1, $3, $2] = $4 + 0 }
  END {
    printf "%-18s %29s %29s %7s %6s %5s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won", "gain"
    for (k = 1; k <= nm; k++) {
      m = order[k]
      if (!(("parent", m, 1) in val)) continue
      wins = 0
      for (i = 1; i <= pairs; i++) {
        ps[i] = val["parent", m, i]; cs[i] = val["change", m, i]
        if (better[m] == "lower" ? cs[i] < ps[i] : cs[i] > ps[i]) wins++
      }
      isort(ps, pairs); isort(cs, pairs)
      pm = q(ps, pairs, 0.5); cm = q(cs, pairs, 0.5)
      gap = better[m] == "lower" ? pm - cm : cm - pm
      gain = (wins * 10 >= pairs * 9 && gap > q(ps, pairs, 0.75) - q(ps, pairs, 0.25)) ? "yes" : "no"
      printf "%-18s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %7.3f %3d/%-2d %5s\n", m,
        pm, q(ps, pairs, 0.25), q(ps, pairs, 0.75), cm, q(cs, pairs, 0.25), q(cs, pairs, 0.75),
        pm != 0 ? cm / pm : 1, wins, pairs, gain
    }
  }'
