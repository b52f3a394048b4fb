#!/usr/bin/env bash
# Chaos drill for the distributed suite engine (CI `chaos` job).
#
# Launches two `repro worker` processes, starts a distributed sweep
# against them, then SIGKILLs one worker mid-grid and — once the run has
# made further progress on the survivor — SIGKILLs the coordinator too.
# A replacement worker joins, a fresh coordinator resumes the same
# journal, and the merged output must be bit-identical to a clean serial
# run.  Exercises every recovery layer at once: worker-lost requeue,
# lease expiry bookkeeping, torn journal tails and `--resume`.
#
# Act two repeats the discipline for the shared-service layer: a grid
# submitted through `repro serve` (backed by `repro cache-serve`) must
# stream digests bit-identical to a serial cache-off run even when the
# cache server is SIGKILLed mid-grid and restarted.
#
# Requires PYTHONPATH to reach the repro package (CI exports it).
set -euo pipefail

WORKDIR=$(mktemp -d)
JOURNALS="$WORKDIR/journals"
# Pids of every worker start_worker launched.  A worker starts inside a
# $(...) subshell, so it is no job of this shell: `jobs -p` never lists
# it, and only this record lets cleanup stop it.
WORKER_PIDS="$WORKDIR/worker.pids"
UOPS=${CHAOS_UOPS:-60000}
GRID=(--benchmarks exchange2 lbm perlbench1 mcf xalancbmk gcc1)

alive() { # $1: pid; true while it runs (a zombie has exited)
    local state
    state=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    [ -n "$state" ] && [ "${state#Z}" = "$state" ]
}

cleanup() {
    local status=$? workers survivors="" pid
    workers=$(cat "$WORKER_PIDS" 2>/dev/null || true)
    # shellcheck disable=SC2046,SC2086
    kill $(jobs -p) $workers 2>/dev/null || true
    for pid in $workers; do
        for _ in $(seq 1 50); do
            alive "$pid" || continue 2
            sleep 0.1
        done
        survivors="$survivors $pid"
    done
    rm -rf "$WORKDIR"
    if [ -n "$survivors" ]; then
        echo "chaos drill: workers still running at exit:$survivors" >&2
        # shellcheck disable=SC2086
        kill -9 $survivors 2>/dev/null || true
        exit 1
    fi
    exit "$status"
}
trap cleanup EXIT

start_worker() { # $1: ready file, then worker options; prints the pid
    local ready=$1
    shift
    python -m repro worker --ready-file "$ready" "$@" >/dev/null 2>&1 &
    echo $! >>"$WORKER_PIDS"
    echo $!
}

wait_ready() { # $1: ready file
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.05
    done
    echo "chaos drill: worker never wrote $1" >&2
    exit 1
}

wait_oks() { # $1: minimum journaled ok records
    for _ in $(seq 1 1200); do
        n=$(cat "$JOURNALS"/*.jsonl 2>/dev/null \
            | grep -c '"event": "ok"' || true)
        [ "${n:-0}" -ge "$1" ] && return 0
        sleep 0.1
    done
    echo "chaos drill: timed out waiting for $1 journaled cells" >&2
    exit 1
}

W1_PID=$(start_worker "$WORKDIR/w1.ready")
W2_PID=$(start_worker "$WORKDIR/w2.ready")
wait_ready "$WORKDIR/w1.ready"
wait_ready "$WORKDIR/w2.ready"
ENDPOINTS="$(cat "$WORKDIR/w1.ready"),$(cat "$WORKDIR/w2.ready")"

# Preflight: both endpoints must answer the protocol handshake.
python -m repro doctor --workers "$ENDPOINTS"

python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --retries 3 --journal-dir "$JOURNALS" \
    --workers "$ENDPOINTS" >"$WORKDIR/first.out" 2>"$WORKDIR/first.err" &
COORD_PID=$!

wait_oks 1
kill -9 "$W1_PID"               # one worker dies mid-grid
echo "chaos drill: killed worker 1 (pid $W1_PID)"
wait_oks 3                      # progress continues on the survivor
kill -9 "$COORD_PID"            # ... then the coordinator dies too
echo "chaos drill: killed coordinator (pid $COORD_PID)"
wait "$COORD_PID" 2>/dev/null || true

RUN_FILE=$(ls "$JOURNALS"/*.jsonl | head -n1)
RUN_ID=$(basename "$RUN_FILE" .jsonl)
echo "chaos drill: resuming $RUN_ID"

# A replacement worker joins the survivor; a fresh coordinator resumes.
W3_PID=$(start_worker "$WORKDIR/w3.ready")
wait_ready "$WORKDIR/w3.ready"
ENDPOINTS2="$(cat "$WORKDIR/w2.ready"),$(cat "$WORKDIR/w3.ready")"
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --retries 3 --journal-dir "$JOURNALS" \
    --workers "$ENDPOINTS2" --resume "$RUN_ID" >"$WORKDIR/resumed.out"

# Bit-identical to a clean serial run with no journal and no workers.
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --no-journal >"$WORKDIR/clean.out"
diff "$WORKDIR/resumed.out" "$WORKDIR/clean.out"
echo "chaos drill: merged results bit-identical after worker kill" \
     "and coordinator restart"

########################################################################
# Act two: shared cache service + async submit API.
#
# Starts a `repro cache-serve` result-cache server (with torn-once and
# corrupt-once protocol faults injected into its replies) and a
# `repro serve` HTTP coordinator backed by two `--sessions 2` workers,
# streams a grid submission as NDJSON, SIGKILLs the cache server
# mid-grid (the client degrades to its read-only local fallback),
# restarts it on the same port (the client reconnects), and requires
# the streamed digests to be bit-identical to a serial cache-off run
# of the same submission.

echo "chaos drill: act two — cache service + async submit"

CACHE_DIR="$WORKDIR/cache"
REPRO_FAULT_INJECT="torn-once=cache/serve@$WORKDIR/torn.latch;corrupt-once=cache/serve@$WORKDIR/corrupt.latch" \
python -m repro cache-serve --cache-dir "$CACHE_DIR" \
    --ready-file "$WORKDIR/cs.ready" >/dev/null 2>&1 &
CS_PID=$!
wait_ready "$WORKDIR/cs.ready"
CS_ADDR=$(cat "$WORKDIR/cs.ready")
CS_PORT="${CS_ADDR##*:}"

# Preflight: the cache server answers the protocol handshake too.
python -m repro doctor --cache-url "tcp://$CS_ADDR"

start_worker "$WORKDIR/w4.ready" --sessions 2 >/dev/null
start_worker "$WORKDIR/w5.ready" --sessions 2 >/dev/null
wait_ready "$WORKDIR/w4.ready"
wait_ready "$WORKDIR/w5.ready"

python -m repro serve \
    --workers "$(cat "$WORKDIR/w4.ready"),$(cat "$WORKDIR/w5.ready")" \
    --cache-url "tcp://$CS_ADDR" --ready-file "$WORKDIR/serve.ready" \
    >/dev/null 2>&1 &
wait_ready "$WORKDIR/serve.ready"
SERVE_ADDR=$(cat "$WORKDIR/serve.ready")

cat >"$WORKDIR/grid.json" <<EOF
{"mode": "accuracy", "predictors": ["mascot", "phast"],
 "benchmarks": ["exchange2", "lbm", "perlbench1", "mcf"],
 "num_uops": $UOPS}
EOF

cat >"$WORKDIR/submit.py" <<'EOF'
"""Stream one NDJSON grid submission to stdout as records settle."""
import sys
import urllib.request

addr, grid = sys.argv[1], sys.argv[2]
request = urllib.request.Request(
    f"http://{addr}/submit", data=open(grid, "rb").read(),
    headers={"Content-Type": "application/json"})
with urllib.request.urlopen(request, timeout=900) as response:
    for line in response:
        text = line.decode().strip()
        if text:
            print(text, flush=True)
EOF

python "$WORKDIR/submit.py" "$SERVE_ADDR" "$WORKDIR/grid.json" \
    >"$WORKDIR/stream.ndjson" &
SUBMIT_PID=$!

wait_cells() { # $1: minimum streamed cell records
    for _ in $(seq 1 1200); do
        n=$(grep -c '"event": "cell"' "$WORKDIR/stream.ndjson" \
            2>/dev/null || true)
        [ "${n:-0}" -ge "$1" ] && return 0
        sleep 0.1
    done
    echo "chaos drill: timed out waiting for $1 streamed cells" >&2
    exit 1
}

wait_cells 1
kill -9 "$CS_PID"               # the cache server dies mid-grid ...
echo "chaos drill: killed cache server (pid $CS_PID)"
wait_cells 3                    # ... and the grid keeps settling without it
python -m repro cache-serve --cache-dir "$CACHE_DIR" --port "$CS_PORT" \
    --ready-file "$WORKDIR/cs2.ready" >/dev/null 2>&1 &
wait_ready "$WORKDIR/cs2.ready"
echo "chaos drill: restarted cache server on port $CS_PORT"

wait "$SUBMIT_PID"

# The injected protocol fault really fired (its latch file exists);
# the client absorbed it with a reconnect retry.
if [ ! -f "$WORKDIR/torn.latch" ]; then
    echo "chaos drill: injected torn fault never fired" >&2
    exit 1
fi

# Bit-identical to a serial cache-off run of the same submission.
python - "$WORKDIR" <<'EOF'
import json
import sys

from repro.experiments.parallel import execute_cells
from repro.experiments.serve import SubmissionSpec, submission_summary

workdir = sys.argv[1]
with open(f"{workdir}/grid.json") as handle:
    spec = SubmissionSpec(json.load(handle))
results = execute_cells(spec.cells, cache=None, journal=None)
reference = submission_summary(spec.mode, spec.cells, results)["digests"]

records = [json.loads(line)
           for line in open(f"{workdir}/stream.ndjson") if line.strip()]
done = records[-1]
assert done["event"] == "done", done
assert done["failed"] == 0, done
streamed = done["summary"]["digests"]
assert streamed == reference, (streamed, reference)
print(f"chaos drill: {len(streamed)} streamed digests bit-identical "
      "to the serial cache-off reference")
EOF
echo "chaos drill: submission survived a cache-server kill + restart"
