#!/usr/bin/env bash
# Serial-vs-sharded smoke: runs one scenario through example_scenario_sweep
# serially and again at each requested --ranks count, then diffs the
# scenario rows.  The row carries the run digest and the message/round
# totals, so a zero diff is a bit-identity certificate for the
# multi-process wire path (sim::Engine over a rank window, the frame
# format and transport in src/sim/shard_comm.hpp) at this size.
#
# Usage: tools/rank_smoke.sh [scenario] [n] [rank counts...]
#   tools/rank_smoke.sh                              # global/min/rand/ring @ 65536, ranks 2 4
#   tools/rank_smoke.sh global/min/det/random 4096 2 # one scenario, one rank count
#
# SWEEP overrides the sweep binary (default ./build/example_scenario_sweep).
set -euo pipefail

SWEEP="${SWEEP:-./build/example_scenario_sweep}"
scenario="${1:-global/min/rand/ring}"
n="${2:-65536}"
if [ "$#" -gt 2 ]; then
  shift 2
  ranks=("$@")
else
  ranks=(2 4)
fi

# Scenario rows only (name, topology, discipline, numeric n, rounds, msgs,
# digest, optional fault tail).  @async rows are excluded from the diff:
# scenario::run shards only the synchronous engine, so the sweep skips them
# under --ranks.
rows() { awk 'NF>=7 && $4 ~ /^[0-9]+$/ && $0 !~ /@async/' "$1"; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$SWEEP" --n="$n" --scenario="$scenario" > "$tmp/serial.txt"
if [ "$(rows "$tmp/serial.txt" | wc -l)" -lt 1 ]; then
  echo "rank_smoke: no scenario row for $scenario in serial output" >&2
  cat "$tmp/serial.txt" >&2
  exit 1
fi

for k in "${ranks[@]}"; do
  "$SWEEP" --ranks="$k" --n="$n" --scenario="$scenario" > "$tmp/r$k.txt"
  if ! diff <(rows "$tmp/serial.txt") <(rows "$tmp/r$k.txt"); then
    echo "rank_smoke: $scenario @ n=$n diverged at --ranks=$k" >&2
    exit 1
  fi
  echo "rank_smoke: $scenario @ n=$n bit-identical at --ranks=$k"
done
