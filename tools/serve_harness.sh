#!/usr/bin/env bash
# Out-of-process acceptance for loom_serve: drive a real server over its
# unix socket with loom_ctl and require the served result to be
# bit-identical to an offline loom_partition run over the same stream —
# then SIGKILL the server mid-service and require --resume plus a client
# re-send from the STATS cursor to land on the same answer.
#
# Leg 1:
#   loom_serve <- loom_ctl ingest-file -> FINALIZE -> SNAPSHOT-QUALITY,
#   SIGTERM drain (exit 0), sorted assignment TSV diffed against the
#   offline reference, served cut checked against --evaluate's cut.
# Leg 2: serve with checkpoints, SIGKILL while ingesting, restart with
#   --resume, re-send from the cursor, FINALIZE — same TSV, same quality.
#
# This is the in-process serve_server_test.cc story re-proven across real
# process boundaries, real signals and a real socket.
#
# Usage: tools/serve_harness.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

BIN_DIR="${1:-build}"
GEN="$BIN_DIR/loom_generate"
PART="$BIN_DIR/loom_partition"
SERVE="$BIN_DIR/loom_serve"
CTL="$BIN_DIR/loom_ctl"
for bin in "$GEN" "$PART" "$SERVE" "$CTL"; do
  if [ ! -x "$bin" ]; then
    echo "serve_harness: missing binary $bin (build the repo first)" >&2
    exit 2
  fi
done

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

SEED=20260808  # fixed: every leg sees one stream
SOCK="$WORKDIR/loom.sock"

wait_for_socket() {
  for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && return 0
    sleep 0.05
  done
  echo "serve_harness: server never bound $SOCK" >&2
  cat "$WORKDIR/serve.log" >&2 || true
  exit 1
}

echo "== generating fixed-seed stream + workload (seed $SEED)"
"$GEN" --dataset musicbrainz --scale 0.5 \
  --workload-out "$WORKDIR/q.lw" \
  --write-stream "$WORKDIR/s.les" --order bfs --seed "$SEED" >/dev/null 2>&1

SYSTEM="loom"
COMMON=(--workload "$WORKDIR/q.lw" --system "$SYSTEM" --k 8 --window 2000)
echo "== [$SYSTEM] offline reference"
"$PART" --input "$WORKDIR/s.les" "${COMMON[@]}" \
  --out "$WORKDIR/ref.tsv" --evaluate 2> "$WORKDIR/ref.log"
REF_CUT=$(sed -n 's/^edge cut: \([0-9]*\) .*/\1/p' "$WORKDIR/ref.log")
sort -n "$WORKDIR/ref.tsv" > "$WORKDIR/ref.sorted"
echo "   cut=$REF_CUT"

echo "== [$SYSTEM] leg 1: serve + ingest over socket + SIGTERM drain"
rm -f "$SOCK"
"$SERVE" --socket "$SOCK" --like "$WORKDIR/s.les" "${COMMON[@]}" \
  --out "$WORKDIR/srv.tsv" 2> "$WORKDIR/serve.log" &
SERVER_PID=$!
wait_for_socket
"$CTL" --socket "$SOCK" ingest-file "$WORKDIR/s.les" >/dev/null
"$CTL" --socket "$SOCK" finalize >/dev/null
QUALITY=$("$CTL" --socket "$SOCK" quality)
SRV_CUT=$(sed -n 's/.* cut=\([0-9]*\) .*/\1/p' <<<"$QUALITY")
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" && status=0 || status=$?
SERVER_PID=""
if [ "$status" -ne 0 ]; then
  echo "serve_harness: SIGTERM drain exited $status" >&2
  cat "$WORKDIR/serve.log" >&2
  exit 1
fi
sort -n "$WORKDIR/srv.tsv" | cmp -s - "$WORKDIR/ref.sorted" || {
  echo "serve_harness: [$SYSTEM] served assignments differ from offline" >&2
  exit 1
}
if [ "$SRV_CUT" != "$REF_CUT" ]; then
  echo "serve_harness: [$SYSTEM] served cut $SRV_CUT != offline $REF_CUT" >&2
  exit 1
fi
echo "   served == offline (cut=$SRV_CUT, assignments identical), drained clean"

echo "== leg 2: SIGKILL mid-ingest, --resume, re-send from STATS cursor"
killed=0
for attempt in $(seq 1 20); do
  rm -f "$SOCK" "$WORKDIR"/ck.loomck "$WORKDIR"/ck.loomck.prev
  "$SERVE" --socket "$SOCK" --like "$WORKDIR/s.les" "${COMMON[@]}" \
    --checkpoint "$WORKDIR/ck.loomck" --checkpoint-every 10000 \
    2> "$WORKDIR/serve2.log" &
  SERVER_PID=$!
  wait_for_socket
  "$CTL" --socket "$SOCK" ingest-file "$WORKDIR/s.les" >/dev/null 2>&1 &
  CTL_PID=$!
  # Kill as soon as the first checkpoint lands; if the ingest finished
  # first the attempt proves nothing — retry.
  while kill -0 "$SERVER_PID" 2>/dev/null && [ ! -f "$WORKDIR/ck.loomck" ]; do
    sleep 0.005
  done
  kill -9 "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  wait "$CTL_PID" 2>/dev/null || true
  if [ -f "$WORKDIR/ck.loomck" ]; then
    killed=1
    echo "   attempt $attempt: SIGKILL landed with a checkpoint on disk"
    break
  fi
done
if [ "$killed" -ne 1 ]; then
  echo "serve_harness: could not land a SIGKILL mid-ingest in 20 tries" >&2
  exit 1
fi

rm -f "$SOCK"
"$SERVE" --socket "$SOCK" --like "$WORKDIR/s.les" "${COMMON[@]}" \
  --resume "$WORKDIR/ck.loomck" --checkpoint "$WORKDIR/ck.loomck" \
  --out "$WORKDIR/resumed.tsv" 2> "$WORKDIR/serve3.log" &
SERVER_PID=$!
wait_for_socket
CURSOR=$("$CTL" --socket "$SOCK" stats | sed -n 's/^OK edges=\([0-9]*\) .*/\1/p')
echo "   resumed at edge $CURSOR; re-sending the suffix"
"$CTL" --socket "$SOCK" ingest-file "$WORKDIR/s.les" --from "$CURSOR" >/dev/null
"$CTL" --socket "$SOCK" finalize >/dev/null
QUALITY=$("$CTL" --socket "$SOCK" quality)
SRV_CUT=$(sed -n 's/.* cut=\([0-9]*\) .*/\1/p' <<<"$QUALITY")
"$CTL" --socket "$SOCK" shutdown >/dev/null
wait "$SERVER_PID" && status=0 || status=$?
SERVER_PID=""
if [ "$status" -ne 0 ]; then
  echo "serve_harness: resumed server exited $status" >&2
  cat "$WORKDIR/serve3.log" >&2
  exit 1
fi
sort -n "$WORKDIR/resumed.tsv" | cmp -s - "$WORKDIR/ref.sorted" || {
  echo "serve_harness: resumed assignments differ from offline reference" >&2
  exit 1
}
if [ "$SRV_CUT" != "$REF_CUT" ]; then
  echo "serve_harness: resumed cut $SRV_CUT != offline $REF_CUT" >&2
  exit 1
fi
echo "   resumed == offline (cut=$SRV_CUT, assignments identical)"
echo "== serve_harness: PASS"
