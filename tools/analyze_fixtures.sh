#!/bin/sh
# analyze_fixtures.sh — orp-analyze must still *detect* every violation
# class it exists to catch.
#
# Runs the analyzer against tests/analysis_fixtures (a mini-tree with
# one seeded violation per rule) and asserts the pinned diagnostics:
# the clean-tree ctest entry proves the real tree passes; this one
# proves a passing analyzer is not a lobotomized analyzer.
#
# Usage: analyze_fixtures.sh <orp-analyze-binary> <fixture-root>

set -u

ANALYZE=${1:?usage: analyze_fixtures.sh <orp-analyze-binary> <fixture-root>}
ROOT=${2:?usage: analyze_fixtures.sh <orp-analyze-binary> <fixture-root>}

FAIL=0

OUT=$("$ANALYZE" --root="$ROOT" 2>&1)
STATUS=$?

if [ "$STATUS" -ne 1 ]; then
  echo "FAIL: expected exit 1 on the seeded tree, got $STATUS"
  echo "$OUT"
  FAIL=1
fi

# Pinned diagnostics, one per rule. Full `rule: file:line` prefixes so
# a finding that drifts to the wrong site fails loudly.
expect() {
  if ! printf '%s\n' "$OUT" | grep -qF "$1"; then
    echo "FAIL: missing expected diagnostic: $1"
    FAIL=1
  fi
}

expect "orp-analyze: layering: src/support/BackEdge.h:11: module 'support' (rank 0) may not include 'core' (rank 4): layering back-edge"
expect "orp-analyze: unordered-serialize: src/core/Serializer.cpp:29:"
expect "src/core/Serializer.cpp:40 (iteration order leaks into the byte stream"
expect "[GroupSerializer::serialize -> GroupSerializer::flushGroups -> GroupSerializer::emitGroups]"
expect "orp-analyze: atomics: src/trace/Publish.cpp:14: non-relaxed ordering 'memory_order_seq_cst' outside the sanctioned set"
expect "orp-analyze: raw-thread: src/core/Spawn.cpp:13: std::thread outside src/support"
expect "orp-analyze: iostream: src/core/Print.cpp:3: #include <iostream> is banned in src/"
expect "orp-analyze: raw-new-delete: src/core/RawNew.cpp:19: new expression outside the B+-tree node arena"
expect "orp-analyze: raw-new-delete: src/core/RawNew.cpp:20: delete expression outside the B+-tree node arena"
expect "orp-analyze: endian-io: src/core/RawIo.cpp:15: fwrite in a file without support/Endian.h"
expect "orp-analyze: no-asan-include: src/core/Poison.cpp:14: __asan_poison_memory_region outside src/check/Check.h"
expect "orp-analyze: log-sink: tools/Shout.cpp:13: fprintf(stderr ...) outside src/support"
expect "orp-analyze: log-sink: tools/Shout.cpp:14: fprintf(stderr ...) outside src/support"
expect "orp-analyze: static-counter: src/core/Counter.cpp:13: static std::atomic outside src/support and src/telemetry"
expect "orp-analyze: static-counter: src/core/Counter.cpp:14: static int Calls outside src/support and src/telemetry"
expect "orp-analyze: raw-socket: src/core/Socket.cpp:8: #include <sys/socket.h> outside src/session and tools/"

# Look-alikes that are not violations: `= delete`, placement `::new`,
# a constexpr constant, and endian-io's one finding per file.
reject() {
  if printf '%s\n' "$OUT" | grep -qF "$1"; then
    echo "FAIL: unexpected diagnostic: $1"
    FAIL=1
  fi
}

reject "src/core/RawNew.cpp:15:"
reject "src/core/RawNew.cpp:22:"
reject "src/core/Counter.cpp:15:"
reject "src/core/RawIo.cpp:16:"

# The allow() escapes must suppress: nothing from Allowed.cpp or from
# IoAllowed.cpp (endian-io's per-file escape).
if printf '%s\n' "$OUT" | grep -q "Allowed.cpp"; then
  echo "FAIL: allow() escape did not suppress a finding:"
  printf '%s\n' "$OUT" | grep "Allowed.cpp"
  FAIL=1
fi

# --json emits the same findings as a machine-parseable array, with a
# finding for every rule the analyzer lists: a rule without a seeded
# violation fails here.
JSON=$("$ANALYZE" --root="$ROOT" --json 2>&1)
RULES=$("$ANALYZE" --list-rules)
if [ -z "$RULES" ]; then
  echo "FAIL: --list-rules printed no rules"
  FAIL=1
fi
for RULE in $RULES; do
  if ! printf '%s\n' "$JSON" | grep -qF "\"rule\": \"$RULE\""; then
    echo "FAIL: --json output missing rule '$RULE'"
    FAIL=1
  fi
done

if [ "$FAIL" -ne 0 ]; then
  echo "--- analyzer output ---"
  printf '%s\n' "$OUT"
  exit 1
fi

echo "orp-analyze fixtures: all seeded violations detected, escapes honored"
exit 0
