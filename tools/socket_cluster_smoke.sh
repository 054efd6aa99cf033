#!/usr/bin/env bash
# Multi-process fault-tolerance smoke test.
#
# Launches a 4-worker Unix-socket cluster (four real `linview worker`
# processes), then runs two drills against it:
#
#  1. SIGKILL drill — a paced `--backend socket` engine run streams against
#     the fleet while this script `kill -9`s one worker mid-stream and
#     restarts a fresh, empty process on the same address. The engine must
#     recover (checkpoint restore + delta-log replay over the reconnect)
#     and report exactly one recovery.
#
#  2. Identical-recovery drill — `--backend all --connect` runs every
#     backend from the same seed with `--kill-worker-after` injecting a
#     worker death into the threaded leg and a torn connection into the
#     socket leg. The engine itself exits nonzero if any backend's
#     recovered view diverges from the undisturbed local reference by even
#     one bit, and this run doubles as proof that the SIGKILLed-and-
#     restarted fleet is fully healthy.
#
# Usage: tools/socket_cluster_smoke.sh [path-to-linview-binary]

set -euo pipefail

BIN="${1:-${LINVIEW_BIN:-target/release/linview}}"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/lv-smoke.XXXXXX")"
declare -a PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

if [ ! -x "$BIN" ]; then
    echo "error: $BIN not found or not executable (run: cargo build --release)" >&2
    exit 1
fi

start_worker() { # start_worker IDX
    local sock="$DIR/w$1.sock"
    "$BIN" worker --listen "unix:$sock" >"$DIR/worker$1.log" 2>&1 &
    PIDS[$1]=$!
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        sleep 0.05
    done
    echo "error: worker $1 never bound $sock" >&2
    exit 1
}

for i in 0 1 2 3; do start_worker "$i"; done
CONNECT="unix:$DIR/w0.sock,unix:$DIR/w1.sock,unix:$DIR/w2.sock,unix:$DIR/w3.sock"
echo "== 4-worker Unix-socket cluster up in $DIR"

# --- Drill 1: SIGKILL a worker process mid-stream -------------------------
LOG1="$DIR/sigkill.log"
"$BIN" engine --n 16 --events 40 --batch 2 --workers 4 \
    --backend socket --connect "$CONNECT" \
    --checkpoint-every 2 --pace-ms 50 >"$LOG1" 2>&1 &
ENGINE=$!

sleep 0.8
echo "== SIGKILLing worker 2 (pid ${PIDS[2]}) mid-stream"
kill -9 "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
start_worker 2 # fresh empty process, same socket path

if ! wait "$ENGINE"; then
    echo "error: engine did not survive the worker SIGKILL" >&2
    cat "$LOG1" >&2
    exit 1
fi
cat "$LOG1"
if ! grep -q " 1 recoveries" "$LOG1"; then
    echo "error: no recovery recorded — the SIGKILL landed outside the stream" >&2
    exit 1
fi
echo "== drill 1 OK: SIGKILLed worker recovered via checkpoint/replay"

# --- Drill 2: every backend, injected kills, bit-identity enforced --------
LOG2="$DIR/identity.log"
if ! "$BIN" engine --n 16 --events 40 --batch 2 --workers 4 \
    --backend all --connect "$CONNECT" \
    --checkpoint-every 2 --kill-worker-after 20 >"$LOG2" 2>&1; then
    echo "error: kill-and-recover run is not identical to the reference" >&2
    cat "$LOG2" >&2
    exit 1
fi
cat "$LOG2"
for pair in "local vs threaded" "local vs socket"; do
    if ! grep -q "backend divergence on D ($pair): 0.00e0" "$LOG2"; then
        echo "error: missing zero-divergence line for $pair" >&2
        exit 1
    fi
done
if [ "$(grep -c " 1 recoveries" "$LOG2")" -lt 2 ]; then
    echo "error: expected recoveries on both the threaded and socket legs" >&2
    exit 1
fi
echo "== drill 2 OK: recovered backends bit-identical to the local reference"
echo "socket cluster smoke: PASS"
