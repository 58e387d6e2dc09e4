#!/bin/bash -e
# Warm-restart integration smoke for the model store: boots radix-served
# with --store-dir, records a deterministic output hash per model,
# kill -9s the daemon mid-flight, restarts it on the same store, and
# asserts the journal replay brings back the same model set serving
# bit-identical outputs.  Also covers the save/load wire verbs and
# radix-pack end to end (pack a spec, load the artifact, see it survive
# the crash), and kill/restart of the one-shard fleet's only shard (a
# model loaded while it is down must still be journaled).
#
# Usage: smoke_net_store.sh <radix-served> <radix-ctl> <radix-pack>

# CTest runs "bash <script>", which ignores the -e on the shebang line;
# without this, a failing radix-ctl | grep line would not stop the test.
set -e

SERVED="$1"
CTL="$2"
PACK="$3"
[ -x "$SERVED" ] || { echo "FAIL: radix-served binary not found: $SERVED"; exit 1; }
[ -x "$CTL" ] || { echo "FAIL: radix-ctl binary not found: $CTL"; exit 1; }
[ -x "$PACK" ] || { echo "FAIL: radix-pack binary not found: $PACK"; exit 1; }

WORKDIR="$(mktemp -d)"
STORE="$WORKDIR/store"
SERVED_LOG="$WORKDIR/served.log"
SERVED_PID=""

cleanup() {
    if [ -n "$SERVED_PID" ] && kill -0 "$SERVED_PID" 2>/dev/null; then
        kill -9 "$SERVED_PID" 2>/dev/null || true
        wait "$SERVED_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

boot() {
    : >"$SERVED_LOG"
    "$SERVED" --port 0 --shards 1 --models 2 --layers 4 \
              --store-dir "$STORE" >"$SERVED_LOG" 2>&1 &
    SERVED_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
        PORT="$(awk '/^LISTENING/ { print $2; exit }' "$SERVED_LOG")"
        [ -n "$PORT" ] && break
        kill -0 "$SERVED_PID" || { cat "$SERVED_LOG"; echo "FAIL: radix-served exited before listening"; exit 1; }
        sleep 0.1
    done
    [ -n "$PORT" ] || { cat "$SERVED_LOG"; echo "FAIL: no LISTENING line after 10s"; exit 1; }
}

# --- Cold boot: the daemon seeds the store with its default fleet. ----
boot
grep -q "seeded store" "$SERVED_LOG"
[ -f "$STORE/journal" ] || { echo "FAIL: no journal after cold boot"; exit 1; }
[ -f "$STORE/model-0.radixart" ] || { echo "FAIL: model-0 artifact not saved"; exit 1; }

# A third model arrives at runtime: pack a spec into an artifact and
# load it over the wire (this also covers radix-pack + the load verb).
printf 'radixnet-spec v1\nsystems: 32,32 | 32,32\nD: 1,1,1,1,1\n' >"$WORKDIR/extra.spec"
"$PACK" --spec "$WORKDIR/extra.spec" --spec-only --name extra \
        --out "$WORKDIR/extra.radixart" | grep -q "packed"
"$CTL" --port "$PORT" load "$WORKDIR/extra.radixart" | grep -q "loaded"

# The save verb round-trips a registered model back out as an artifact.
"$CTL" --port "$PORT" save model-0 "$WORKDIR/copy.radixart" | grep -q "saved"
[ -s "$WORKDIR/copy.radixart" ] || { echo "FAIL: save verb wrote nothing"; exit 1; }

# --shards 1 is a one-shard fleet: its shard can be killed and restarted.
# A model loaded while it is down is copied into the store and journaled
# all the same, and the restarted shard serves it.
"$CTL" --port "$PORT" kill 0 | grep -q "shard 0: down"
"$CTL" --port "$PORT" load "$WORKDIR/extra.radixart" late | grep -q "loaded"
grep -q "^add[[:space:]]late[[:space:]]late\.radixart[[:space:]]" "$STORE/journal" \
    || { cat "$STORE/journal"; echo "FAIL: model loaded while shard 0 was down was not journaled"; exit 1; }
[ -f "$STORE/late.radixart" ] || { echo "FAIL: late artifact not copied into the store"; exit 1; }
"$CTL" --port "$PORT" restart 0 | grep -q "shard 0: up"

# Deterministic per-model output hashes: the pre-crash ground truth.
H0="$("$CTL" --port "$PORT" infer-hash model-0)"
H1="$("$CTL" --port "$PORT" infer-hash model-1)"
HX="$("$CTL" --port "$PORT" infer-hash extra)"
HL="$("$CTL" --port "$PORT" infer-hash late)"
[ -n "$H0" ] && [ -n "$H1" ] && [ -n "$HX" ] && [ -n "$HL" ]
echo "pre-crash hashes: model-0=$H0 model-1=$H1 extra=$HX late=$HL"

# --- Crash: no drain, no shutdown verb -- the journal must carry it. --
kill -9 "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=""

# --- Warm restart on the same store. ---------------------------------
boot
grep -q "warm restart" "$SERVED_LOG"

MODELS="$("$CTL" --port "$PORT" models)"
echo "$MODELS" | grep "\<model-0\>" | grep -q interactive
echo "$MODELS" | grep "\<model-1\>" | grep -q batch
echo "$MODELS" | grep -q "\<extra\>"
echo "$MODELS" | grep "\<late\>" | grep -q live

R0="$("$CTL" --port "$PORT" infer-hash model-0)"
R1="$("$CTL" --port "$PORT" infer-hash model-1)"
RX="$("$CTL" --port "$PORT" infer-hash extra)"
RL="$("$CTL" --port "$PORT" infer-hash late)"
echo "post-restart hashes: model-0=$R0 model-1=$R1 extra=$RX late=$RL"
[ "$H0" = "$R0" ] || { echo "FAIL: model-0 output changed across restart"; exit 1; }
[ "$H1" = "$R1" ] || { echo "FAIL: model-1 output changed across restart"; exit 1; }
[ "$HX" = "$RX" ] || { echo "FAIL: extra output changed across restart"; exit 1; }
[ "$HL" = "$RL" ] || { echo "FAIL: late output changed across restart"; exit 1; }

# A corrupt artifact must fail the boot loudly, not serve garbage:
# flip one payload byte in model-0's artifact and expect the restart to
# die with a checksum error.
"$CTL" --port "$PORT" shutdown >/dev/null
for _ in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
done
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=""

SIZE=$(wc -c <"$STORE/model-0.radixart")
printf '\xff' | dd of="$STORE/model-0.radixart" bs=1 seek=$((SIZE - 5)) conv=notrunc 2>/dev/null
if "$SERVED" --port 0 --shards 1 --models 2 --layers 4 \
             --store-dir "$STORE" >"$SERVED_LOG" 2>&1; then
    echo "FAIL: daemon booted from a corrupt artifact"
    exit 1
fi
grep -q "checksum" "$SERVED_LOG" || { cat "$SERVED_LOG"; echo "FAIL: corrupt artifact not reported as a checksum error"; exit 1; }

echo "smoke_net_store OK"
