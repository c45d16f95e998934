#!/bin/sh
# Simulator byte-identity check. Every figure `bench/main.exe --fast` prints
# is computed in the simulator's virtual time, so apart from its wall-clock
# lines ("done in", "completed in") the output must equal the committed
# bench/golden/main_fast.txt byte for byte. A change that moves any virtual
# timestamp or reorders any simulated event fails here.
#
# Run from the repository root: sh bench/sim_identity.sh
#
# A change meant to alter simulated results regenerates the golden file
# with the same filter and commits it with the change:
#
#   ./_build/default/bench/main.exe --fast \
#     | grep -v -e 'done in' -e 'completed in' > bench/golden/main_fast.txt
set -e

GOLDEN=bench/golden/main_fast.txt
dune build bench/main.exe
out=$(mktemp)
trap 'rm -f "$out"' EXIT
./_build/default/bench/main.exe --fast \
  | grep -v -e 'done in' -e 'completed in' > "$out"
if diff -u "$GOLDEN" "$out"; then
  echo "sim identity: output matches $GOLDEN"
else
  echo "sim identity: bench/main.exe --fast differs from $GOLDEN" >&2
  exit 1
fi
