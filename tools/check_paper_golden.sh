#!/bin/sh
# check_paper_golden.sh — a paper-figure binary still prints the numbers
# recorded in its golden file.
#
# Runs BIN at scale 1 and checks that every line of GOLDEN, read as a
# whole-line extended regex, matches some line of its stdout. Goldens
# spell the deterministic numbers (profile sizes, MDF histograms, stride
# scores, capture shares) literally and the timing fields as patterns,
# so a golden pins everything but the clock.
#
# Usage: check_paper_golden.sh <bench-binary> <golden-file>

set -u

BIN=${1:?usage: check_paper_golden.sh <bench-binary> <golden-file>}
GOLDEN=${2:?usage: check_paper_golden.sh <bench-binary> <golden-file>}

OUT=$("$BIN" 1)
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL: $BIN exited with status $STATUS"
  exit 1
fi

FAIL=0
while IFS= read -r PATTERN; do
  if ! printf '%s\n' "$OUT" | grep -qxE -- "$PATTERN"; then
    echo "FAIL: no output line matches: $PATTERN"
    FAIL=1
  fi
done < "$GOLDEN"

if [ "$FAIL" -ne 0 ]; then
  echo "--- output of $BIN ---"
  printf '%s\n' "$OUT"
  exit 1
fi
echo "OK: $(basename "$BIN") matches $(basename "$GOLDEN")"
