#!/bin/sh
# Runs the gated experiment counts N times (default 5) in release while
# two busy-loop child processes compete for the CPU, and prints how many
# runs failed. Exits non-zero if any did. It starts only its own child
# processes and changes no machine setting; the loops are killed on exit.
#
#   sh scripts/loaded_gate.sh 20
set -u
cd "$(dirname "$0")/.."
n=${1:-5}

cargo test --release --test gated_experiments --no-run -q || exit 1

( while :; do :; done ) &
spin1=$!
( while :; do :; done ) &
spin2=$!
trap 'kill $spin1 $spin2 2>/dev/null' EXIT INT TERM

failures=0
i=1
while [ "$i" -le "$n" ]; do
    if ! out=$(cargo test --release --test gated_experiments -q 2>&1); then
        failures=$((failures + 1))
        echo "run $i failed:"
        echo "$out" | grep -A4 'panicked'
    fi
    i=$((i + 1))
done
echo "loaded gate: $failures of $n runs failed"
[ "$failures" -eq 0 ]
