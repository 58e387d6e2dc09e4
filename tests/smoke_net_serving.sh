#!/bin/bash -e
# Integration smoke test for the networked serving stack: boots a real
# radix-served daemon on an ephemeral loopback port, drives every
# radix-ctl verb against it, and asserts on the tool output -- the
# process-boundary path (fork, sockets, signal-free shutdown verb) that
# the in-process gtest suites cannot cover.
#
# Usage: smoke_net_serving.sh <radix-served> <radix-ctl>
# (CTest passes the built binaries; see tests/CMakeLists.txt.)

# CTest runs "bash <script>", which ignores the -e on the shebang line;
# without this, a failing radix-ctl | grep line would not stop the test.
set -e

SERVED="$1"
CTL="$2"
[ -x "$SERVED" ] || { echo "FAIL: radix-served binary not found: $SERVED"; exit 1; }
[ -x "$CTL" ] || { echo "FAIL: radix-ctl binary not found: $CTL"; exit 1; }

WORKDIR="$(mktemp -d)"
SERVED_LOG="$WORKDIR/served.log"
SERVED_PID=""

cleanup() {
    # The happy path shuts the daemon down via the wire verb; anything
    # still running here is a test failure being cleaned up.
    if [ -n "$SERVED_PID" ] && kill -0 "$SERVED_PID" 2>/dev/null; then
        kill "$SERVED_PID" 2>/dev/null || true
        wait "$SERVED_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Boot on an ephemeral port; the LISTENING line is the only way to
# learn which one the kernel picked.  The log exists before the daemon
# starts, so the first awk never races the background redirection.
: >"$SERVED_LOG"
"$SERVED" --port 0 --shards 2 --workers 1 --models 2 >"$SERVED_LOG" 2>&1 &
SERVED_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT="$(awk '/^LISTENING/ { print $2; exit }' "$SERVED_LOG")"
    [ -n "$PORT" ] && break
    kill -0 "$SERVED_PID" || { cat "$SERVED_LOG"; echo "FAIL: radix-served exited before listening"; exit 1; }
    sleep 0.1
done
[ -n "$PORT" ] || { cat "$SERVED_LOG"; echo "FAIL: no LISTENING line after 10s"; exit 1; }
echo "radix-served up on port $PORT (pid $SERVED_PID)"

# The start-up line naming the structured gather form: 8 lanes on an
# AVX2 host, else 4.
grep -Eq "^radix-served: structured gather lanes (4|8)$" "$SERVED_LOG" || { cat "$SERVED_LOG"; echo "FAIL: no structured gather lanes line"; exit 1; }

# Liveness round trip.
"$CTL" --port "$PORT" ping | grep -q pong

# The registry: two auto-named models, model-0 interactive, model-1 batch.
MODELS="$("$CTL" --port "$PORT" models)"
echo "$MODELS" | grep "\<model-0\>" | grep -q interactive
echo "$MODELS" | grep "\<model-1\>" | grep -q batch
echo "$MODELS" | grep "\<model-0\>" | grep -q live

# Per-model verbs resolve names and numeric ids to the same model.
"$CTL" --port "$PORT" stats model-0 | grep -q requests
"$CTL" --port "$PORT" stats 0 | grep -q requests
[ "$("$CTL" --port "$PORT" pending model-1)" = "0" ]
"$CTL" --port "$PORT" class-stats interactive | grep -q "class interactive"

# A bogus model name must fail the invocation, not the daemon.
if "$CTL" --port "$PORT" stats no-such-model 2>/dev/null; then
    echo "FAIL: stats on an unknown model must exit nonzero"
    exit 1
fi
"$CTL" --port "$PORT" ping | grep -q pong

# The metrics scrape renders the Prometheus exposition with per-shard
# labels for the 2-shard fleet.
METRICS="$("$CTL" --port "$PORT" metrics)"
echo "$METRICS" | grep -q "^# HELP radix_serve_requests_total"
echo "$METRICS" | grep -q 'radix_serve_shard_health{shard="0"}'
echo "$METRICS" | grep -q 'radix_serve_shard_health{shard="1"}'

# Shard lifecycle over the wire: drain -> out of rotation, restart ->
# back up, kill -> down, restart -> replaced.
"$CTL" --port "$PORT" health | grep -q "shard 0: up"
"$CTL" --port "$PORT" drain 1 | grep -q "shard 1: draining"
"$CTL" --port "$PORT" restart 1 | grep -q "shard 1: up"
"$CTL" --port "$PORT" kill 1 | grep -q "shard 1: down"
"$CTL" --port "$PORT" restart 1 | grep -q "shard 1: up"

# The registry verbs answer from the router, not from shard 0: a model
# loaded while shard 0 is down is listed, served and counted, and the
# restarted shard 0 picks it up.
"$CTL" --port "$PORT" save model-1 "$WORKDIR/model-1.radixart" | grep -q "saved"
"$CTL" --port "$PORT" kill 0 | grep -q "shard 0: down"
"$CTL" --port "$PORT" load "$WORKDIR/model-1.radixart" extra | grep -q "loaded"
"$CTL" --port "$PORT" models | grep "\<extra\>" | grep -q live
"$CTL" --port "$PORT" infer-hash extra | grep -q "^[0-9a-f]\{16\}$"
"$CTL" --port "$PORT" stats extra | grep -q requests
"$CTL" --port "$PORT" restart 0 | grep -q "shard 0: up"

# Wire shutdown: the daemon must drain and exit 0 on its own -- no
# signal involved -- and report its connection ledger on the way out.
"$CTL" --port "$PORT" shutdown | grep -q "shutdown requested"
for _ in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVED_PID" 2>/dev/null; then
    cat "$SERVED_LOG"
    echo "FAIL: radix-served still running 10s after the shutdown verb"
    exit 1
fi
wait "$SERVED_PID"
SERVED_PID=""
grep -q "radix-served: drained" "$SERVED_LOG"

# A dead daemon means connection errors (exit 1), not hangs.
if "$CTL" --port "$PORT" ping 2>/dev/null; then
    echo "FAIL: ping against a stopped daemon must exit nonzero"
    exit 1
fi

echo "smoke_net_serving OK"
