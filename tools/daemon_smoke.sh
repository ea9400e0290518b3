#!/usr/bin/env bash
#===- tools/daemon_smoke.sh - orp-traced end-to-end smoke ----------------===#
#
# The daemon's acceptance scenario as a shell check (run by the CI
# daemon-smoke job, plain and under ASan):
#
#   1. record two traces,
#   2. start orp-traced,
#   3. submit both concurrently through `orp-trace submit`,
#   4. scrape the Prometheus snapshot mid-flight,
#   5. diff every resulting profile against a single-session CLI replay
#      (byte-identical, per DESIGN.md section 12),
#   6. shut the daemon down cleanly (SIGTERM, zero exit).
#
# Usage: tools/daemon_smoke.sh <build-dir>
#
#===----------------------------------------------------------------------===#

set -eu

BUILD="${1:?usage: daemon_smoke.sh <build-dir>}"
ORP_TRACE="$BUILD/tools/orp-trace"
ORP_TRACED="$BUILD/tools/orp-traced"
WORK="$(mktemp -d)"
DAEMON_PID=

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== record two traces (scales 1 and 2)"
"$ORP_TRACE" record list-traversal -o "$WORK/a.orpt" --scale=1
"$ORP_TRACE" record list-traversal -o "$WORK/b.orpt" --scale=2

echo "== single-session CLI replay references"
"$ORP_TRACE" replay "$WORK/a.orpt" --profiler=whomp \
  --dump-omsg="$WORK/a.cli.omsg" >/dev/null
"$ORP_TRACE" replay "$WORK/b.orpt" --profiler=whomp \
  --dump-omsg="$WORK/b.cli.omsg" >/dev/null

echo "== start orp-traced"
"$ORP_TRACED" --socket="$WORK/orp.sock" --outdir="$WORK" --threads=2 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$WORK/orp.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/orp.sock" ] || { echo "FAIL: daemon never bound its socket"; exit 1; }

echo "== submit both traces concurrently"
"$ORP_TRACE" submit "$WORK/a.orpt" --socket="$WORK/orp.sock" --name=a \
  --dump-omsg="$WORK/a.daemon.omsg" &
SUBMIT_A=$!
"$ORP_TRACE" submit "$WORK/b.orpt" --socket="$WORK/orp.sock" --name=b \
  --dump-omsg="$WORK/b.daemon.omsg" \
  --print-snapshot=prometheus > "$WORK/snapshot.prom"
wait "$SUBMIT_A"

echo "== scrape is well-formed per-session Prometheus text"
grep -q '^# TYPE orp_session_b_events gauge$' "$WORK/snapshot.prom"
grep -q '^orp_session_b_mem_estimate_bytes ' "$WORK/snapshot.prom"
grep -q '^orp_session_b_ingest_capacity ' "$WORK/snapshot.prom"

echo "== daemon profiles are byte-identical to the CLI replays"
cmp "$WORK/a.cli.omsg" "$WORK/a.daemon.omsg"
cmp "$WORK/b.cli.omsg" "$WORK/b.daemon.omsg"
echo "== outdir artifacts match too"
cmp "$WORK/a.cli.omsg" "$WORK/a.omsg"
cmp "$WORK/b.cli.omsg" "$WORK/b.omsg"

echo "== clean shutdown on SIGTERM"
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=
[ "$STATUS" = 0 ] || { echo "FAIL: daemon exited with status $STATUS"; exit 1; }
[ -S "$WORK/orp.sock" ] && { echo "FAIL: socket not unlinked on shutdown"; exit 1; }

echo "daemon_smoke: OK"
