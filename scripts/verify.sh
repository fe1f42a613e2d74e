#!/usr/bin/env sh
# Full offline verification gate: formatting, lints, release build, docs,
# tests, and a quick-bench smoke pass. Every step works with no network
# access (the workspace has zero external dependencies). Fails fast on the
# first broken step.
#
# The quick-bench step runs the throughput bench binaries in quick
# (1-iteration) mode: their bit-identity assertions (planner vs naive
# extraction, batched vs single-query k-NN) execute on every verify.
# The smoke corpora further down are six images, far under the row count
# from which the sequential scan filters L1 exactly, so the quick F8, F9
# and F15 legs are what exercises that path here: their corpora are over
# it (20,000 / 20,000 / 6,000 rows), F8 asserts the filtered replies equal
# a plain scan's, and F9 and F15 assert `subtrees_pruned > 0` on the
# servers they drive.
# Skip it with SKIP_QUICK_BENCH=1 when iterating on unrelated changes.
#
# The benchmark crate (e2e/, its own workspace) calls the public API from
# outside, so it is always built here: a signature change that breaks it
# fails verify, not the benchmark pipeline. Its own smoke (e2e/check.sh:
# unit tests plus a --quick run of all four workloads in both modes) rides
# the same SKIP_QUICK_BENCH switch.
#
# The checked-in results/BENCH_*.json files are checked by
# `cargo test -p cbir-bench --test results` (part of the workspace test
# step): each parses, names its experiment, and none came from --quick.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release (benchmark crate, e2e/)"
cargo build --release --offline --manifest-path e2e/Cargo.toml

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

if [ "${SKIP_QUICK_BENCH:-0}" != 1 ]; then
    echo "==> quick-bench smoke (equivalence assertions in bench binaries)"
    cargo run --release -q -p cbir-bench --bin exp_extraction_throughput -- --quick
    cargo run --release -q -p cbir-bench --bin exp_batch_throughput -- --quick
    cargo run --release -q -p cbir-bench --bin exp_serve_throughput -- --quick
    cargo run --release -q -p cbir-bench --bin exp_obs_overhead -- --quick
    cargo run --release -q -p cbir-bench --bin exp_mmap_ingest -- --quick
    cargo run --release -q -p cbir-bench --bin exp_approx_search -- --quick
    cargo run --release -q -p cbir-bench --bin exp_router_scaling -- --quick
    cargo run --release -q -p cbir-bench --bin exp_chaos_serving -- --quick
    echo "==> benchmark smoke (e2e/check.sh)"
    e2e/check.sh
fi

echo "==> server smoke test (generate -> index -> serve -> rpc-query -> shutdown)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CBIR=target/release/cbir
"$CBIR" generate "$SMOKE_DIR/photos" --classes 2 --per-class 3 --size 32 >/dev/null
"$CBIR" index "$SMOKE_DIR/photos" --db "$SMOKE_DIR/photos.cbir" >/dev/null
"$CBIR" serve "$SMOKE_DIR/photos.cbir" --port 0 --addr-file "$SMOKE_DIR/addr" \
    --index linear --measure l1 >/dev/null &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr" ] || { echo "server never wrote its address"; exit 1; }
ADDR=$(cat "$SMOKE_DIR/addr")
"$CBIR" rpc-ctl "$ADDR" ping >/dev/null
QUERY_IMG=$(ls "$SMOKE_DIR"/photos/*.ppm | head -1)
KNN_OUT=$("$CBIR" rpc-query "$ADDR" "$QUERY_IMG" --db "$SMOKE_DIR/photos.cbir" -k 3)
echo "$KNN_OUT" | grep -q "class-" || { echo "rpc-query knn returned no hits"; exit 1; }
BYID_OUT=$("$CBIR" rpc-query "$ADDR" --id 0 -k 2)
echo "$BYID_OUT" | grep -q "class-" || { echo "rpc-query --id returned no hits"; exit 1; }
"$CBIR" rpc-ctl "$ADDR" stats >/dev/null

echo "==> connection-loop smoke (64-conn x 16-request pipelined storm -> every reply, loop counters)"
# rpc-storm fails unless every connection reads all 16 of its replies;
# the server's counters must then show the loop woke and saw a pipeline.
STORM_OUT=$("$CBIR" rpc-storm "$ADDR" --conns 64 --requests 16)
echo "$STORM_OUT" | grep -q "^digest [0-9a-f]" || { echo "rpc-storm printed no digest"; exit 1; }
echo "$STORM_OUT" | grep -q "^1024 replies " \
    || { echo "rpc-storm did not complete 64 x 16 replies: $STORM_OUT"; exit 1; }
LOOP_STATS=$("$CBIR" rpc-ctl "$ADDR" stats | grep "epoll wakeups")
WAKEUPS=$(echo "$LOOP_STATS" | sed 's/.*epoll wakeups \([0-9]*\).*/\1/')
DEPTH=$(echo "$LOOP_STATS" | sed 's/.*max pipeline depth \([0-9]*\).*/\1/')
[ "$WAKEUPS" -gt 0 ] || { echo "server stats show no epoll wakeups: $LOOP_STATS"; exit 1; }
[ "$DEPTH" -ge 2 ] || { echo "storm never pipelined (max depth $DEPTH): $LOOP_STATS"; exit 1; }

echo "==> approximate-search smoke (rpc-query --recall-target -> counters in stats)"
# A sub-1.0 recall target must route through the two-stage path here:
# the smoke corpus has 6 images, far under the 4,096 rows from which a
# linear scan's exact L1 filter would answer it exactly (`(answered
# exactly)`, pinned in tests/cli.rs), so the reply carries per-query
# candidate counts and the server's stats export accumulates nonzero
# coarse/rerank counters.
APPROX_OUT=$("$CBIR" rpc-query "$ADDR" "$QUERY_IMG" --db "$SMOKE_DIR/photos.cbir" \
    -k 3 --recall-target 0.9)
echo "$APPROX_OUT" | grep -q "class-" || { echo "approx rpc-query returned no hits"; exit 1; }
echo "$APPROX_OUT" | grep -q "approx:" \
    || { echo "approx rpc-query reply carried no candidate counts"; exit 1; }
"$CBIR" stats "$ADDR" | grep -q '"coarse_candidates": [1-9]' \
    || { echo "cbir stats shows no coarse candidates after approx query"; exit 1; }
"$CBIR" stats "$ADDR" | grep -q '"rerank_evaluations": [1-9]' \
    || { echo "cbir stats shows no rerank evaluations after approx query"; exit 1; }

echo "==> observability smoke (stats export, explain, traced bit-identity)"
# Both export formats must parse as non-empty text with the expected
# leading tokens.
"$CBIR" stats "$ADDR" | grep -q '"enabled"' \
    || { echo "cbir stats json missing enabled key"; exit 1; }
"$CBIR" stats "$ADDR" --format prometheus | grep -q '^cbir_queue_depth ' \
    || { echo "cbir stats prometheus missing queue gauge"; exit 1; }
"$CBIR" rpc-ctl "$ADDR" explain | grep -q '"traces"' \
    || { echo "rpc-ctl explain missing traces key"; exit 1; }
# Tracing must be bit-invisible: a query with --trace-sample-n 1 writes
# its trace to stderr and leaves stdout byte-identical to an untraced run.
"$CBIR" query "$SMOKE_DIR/photos.cbir" "$QUERY_IMG" -k 3 \
    > "$SMOKE_DIR/untraced.out"
"$CBIR" query "$SMOKE_DIR/photos.cbir" "$QUERY_IMG" -k 3 --trace-sample-n 1 \
    > "$SMOKE_DIR/traced.out" 2> "$SMOKE_DIR/traced.err"
cmp -s "$SMOKE_DIR/untraced.out" "$SMOKE_DIR/traced.out" \
    || { echo "tracing changed query stdout"; exit 1; }
grep -q "trace #" "$SMOKE_DIR/traced.err" \
    || { echo "traced query produced no trace on stderr"; exit 1; }
"$CBIR" trace "$SMOKE_DIR/photos.cbir" "$QUERY_IMG" -k 3 --format json \
    | grep -q '"spans"' || { echo "cbir trace json missing spans"; exit 1; }

echo "==> abort-mid-request smoke (torn client, server keeps serving)"
# A client that promises a payload, sends 3 bytes, and vanishes. The
# server must reap the torn connection and keep answering others.
"$CBIR" rpc-ctl "$ADDR" abort >/dev/null
AFTER_OUT=$("$CBIR" rpc-query "$ADDR" --id 1 -k 2)
echo "$AFTER_OUT" | grep -q "class-" || { echo "server stopped serving after torn client"; exit 1; }

"$CBIR" rpc-ctl "$ADDR" shutdown >/dev/null
wait "$SERVER_PID"

echo "==> persistence smoke (one format; CBIRDB02 import; fault-injected save leaves old snapshot intact)"
"$CBIR" fsck "$SMOKE_DIR/photos.cbir" | grep -q "CBIRDB03" \
    || { echo "a freshly indexed file is not a CBIRDB03 image"; exit 1; }
# What `cbir index` wrote before a saved file became a segment must
# still import: the checked-in image the persistence tests pin.
IMPORT_IMAGE=crates/core/tests/data/cbirdb02-shape.cbir
"$CBIR" info "$IMPORT_IMAGE" | grep -q "images:   4" \
    || { echo "cbir info rejected the checked-in CBIRDB02 image"; exit 1; }
"$CBIR" fsck "$IMPORT_IMAGE" | grep -q "CBIRDB02" \
    || { echo "cbir fsck rejected the checked-in CBIRDB02 image"; exit 1; }
cp "$SMOKE_DIR/photos.cbir" "$SMOKE_DIR/before-crash.cbir"
# Crash the save at fault point 2 (mid-write): re-indexing must fail...
if CBIR_FAULT_SAVE_OP=2 "$CBIR" index "$SMOKE_DIR/photos" \
    --db "$SMOKE_DIR/photos.cbir" >/dev/null 2>&1; then
    echo "fault-injected save unexpectedly succeeded"; exit 1
fi
# ...and the previous snapshot must still be on disk, bit for bit.
cmp -s "$SMOKE_DIR/photos.cbir" "$SMOKE_DIR/before-crash.cbir" \
    || { echo "interrupted save corrupted the existing snapshot"; exit 1; }
"$CBIR" fsck "$SMOKE_DIR/photos.cbir" >/dev/null
"$CBIR" info "$SMOKE_DIR/photos.cbir" >/dev/null
# A deliberately corrupted copy (truncated mid-section) must be caught
# with a nonzero exit.
DB_SIZE=$(wc -c < "$SMOKE_DIR/photos.cbir")
head -c $((DB_SIZE - 7)) "$SMOKE_DIR/photos.cbir" > "$SMOKE_DIR/corrupt.cbir"
if "$CBIR" fsck "$SMOKE_DIR/corrupt.cbir" >/dev/null 2>&1; then
    echo "fsck passed a corrupted file"; exit 1
fi

echo "==> live-store smoke (ingest -> serve -> rpc-insert -> compact -> kill -9 -> restart -> parity)"
SEG_DIR="$SMOKE_DIR/photos.seg"
"$CBIR" ingest "$SMOKE_DIR/photos" --store "$SEG_DIR" >/dev/null
"$CBIR" fsck "$SEG_DIR" >/dev/null
"$CBIR" serve "$SEG_DIR" --port 0 --addr-file "$SMOKE_DIR/addr-live" \
    --index linear --measure l1 >/dev/null &
LIVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-live" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-live" ] || { echo "live server never wrote its address"; exit 1; }
LADDR=$(cat "$SMOKE_DIR/addr-live")
# Insert a new image over RPC, make it durable with a compaction, then
# kill the server without ceremony: the store must come back from the
# committed manifest alone.
cp "$QUERY_IMG" "$SMOKE_DIR/extra.ppm"
"$CBIR" rpc-insert "$LADDR" "$SMOKE_DIR/extra.ppm" --db "$SEG_DIR" >/dev/null
"$CBIR" compact "$LADDR" >/dev/null
kill -9 "$LIVE_PID"
wait "$LIVE_PID" 2>/dev/null || true
"$CBIR" fsck "$SEG_DIR" >/dev/null
# Restart over the same directory; the serving path must agree with a
# fresh offline build over the same set of images.
"$CBIR" serve "$SEG_DIR" --port 0 --addr-file "$SMOKE_DIR/addr-live2" \
    --index linear --measure l1 >/dev/null &
LIVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-live2" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-live2" ] || { echo "restarted live server never wrote its address"; exit 1; }
LADDR=$(cat "$SMOKE_DIR/addr-live2")
LIVE_HITS=$("$CBIR" rpc-query "$LADDR" "$QUERY_IMG" --db "$SEG_DIR" -k 3 \
    | awk '/^(class-|extra)/ {print $1}')
cp "$SMOKE_DIR/extra.ppm" "$SMOKE_DIR/photos/extra.ppm"
"$CBIR" index "$SMOKE_DIR/photos" --db "$SMOKE_DIR/photos-all.cbir" >/dev/null
FRESH_HITS=$("$CBIR" query "$SMOKE_DIR/photos-all.cbir" "$QUERY_IMG" -k 3 \
    | awk '/^(class-|extra)/ {print $1}')
[ -n "$LIVE_HITS" ] || { echo "live rpc-query returned no hits"; exit 1; }
[ "$LIVE_HITS" = "$FRESH_HITS" ] || {
    echo "live store hits diverge from a fresh offline build:"
    echo "live:  $LIVE_HITS"
    echo "fresh: $FRESH_HITS"
    exit 1
}
"$CBIR" rpc-ctl "$LADDR" shutdown >/dev/null
wait "$LIVE_PID"

echo "==> router smoke (shard-plan -> 2x2 tier -> bit-identity, replica kill, stats)"
# Reference: one backend serving the union corpus.
"$CBIR" serve "$SMOKE_DIR/photos.cbir" --port 0 --addr-file "$SMOKE_DIR/addr-union" \
    --index linear --measure l1 >/dev/null &
UNION_PID=$!
# Split the same corpus into 2 shards and serve each shard twice (2
# replicas), then front the four backends with a router.
"$CBIR" shard-plan "$SMOKE_DIR/photos.cbir" --shards 2 --scheme mod \
    --out-dir "$SMOKE_DIR/shards" >/dev/null
BACKEND_PIDS=""
for S in 0 1; do
    for R in 0 1; do
        "$CBIR" serve "$SMOKE_DIR/shards/shard-$S.db" --port 0 \
            --addr-file "$SMOKE_DIR/addr-s$S-r$R" \
            --index linear --measure l1 >/dev/null &
        BACKEND_PIDS="$BACKEND_PIDS $!"
        [ "$S$R" = "00" ] && KILL_PID=$!
    done
done
for F in addr-union addr-s0-r0 addr-s0-r1 addr-s1-r0 addr-s1-r1; do
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/$F" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/$F" ] || { echo "backend $F never wrote its address"; exit 1; }
done
UADDR=$(cat "$SMOKE_DIR/addr-union")
"$CBIR" route "$SMOKE_DIR/shards/PLAN.txt" \
    "$(cat "$SMOKE_DIR/addr-s0-r0"),$(cat "$SMOKE_DIR/addr-s0-r1")" \
    "$(cat "$SMOKE_DIR/addr-s1-r0"),$(cat "$SMOKE_DIR/addr-s1-r1")" \
    --port 0 --addr-file "$SMOKE_DIR/addr-router" --cooldown-ms 200 >/dev/null &
ROUTER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-router" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-router" ] || { echo "router never wrote its address"; exit 1; }
RADDR=$(cat "$SMOKE_DIR/addr-router")
# Routed replies must match the single union node byte for byte.
"$CBIR" rpc-query "$RADDR" --id 0 -k 4 > "$SMOKE_DIR/router-knn.out"
"$CBIR" rpc-query "$UADDR" --id 0 -k 4 > "$SMOKE_DIR/union-knn.out"
grep -q "class-" "$SMOKE_DIR/router-knn.out" \
    || { echo "routed rpc-query returned no hits"; exit 1; }
cmp -s "$SMOKE_DIR/router-knn.out" "$SMOKE_DIR/union-knn.out" \
    || { echo "routed reply diverges from single-node reply"; exit 1; }
# Kill shard 0's primary without ceremony: the router must fail over to
# the surviving replica with the answer still byte-identical.
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true
"$CBIR" rpc-query "$RADDR" --id 0 -k 4 > "$SMOKE_DIR/router-knn2.out"
cmp -s "$SMOKE_DIR/router-knn2.out" "$SMOKE_DIR/union-knn.out" \
    || { echo "reply after replica kill diverges from single-node reply"; exit 1; }
# Stats aggregate across backends; prometheus export carries the
# router's per-replica series.
"$CBIR" rpc-ctl "$RADDR" stats | grep -q "requests [1-9]" \
    || { echo "routed stats show no aggregated backend requests"; exit 1; }
"$CBIR" stats "$RADDR" --format prometheus | grep -q '^cbir_router_replica_' \
    || { echo "router prometheus export missing cbir_router_replica_ series"; exit 1; }
"$CBIR" rpc-ctl "$RADDR" shutdown >/dev/null
wait "$ROUTER_PID"
for PID in $BACKEND_PIDS; do
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
done
"$CBIR" rpc-ctl "$UADDR" shutdown >/dev/null
wait "$UNION_PID"

echo "==> chaos smoke (pass-through proxy bit-identity, partial-results serving)"
# A pass-through chaos proxy must be wire-invisible: replies routed
# through it are byte-identical to replies from the backend itself.
"$CBIR" serve "$SMOKE_DIR/photos.cbir" --port 0 --addr-file "$SMOKE_DIR/addr-chaos-up" \
    --index linear --measure l1 >/dev/null &
CHAOS_UP_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-chaos-up" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-chaos-up" ] || { echo "chaos upstream never wrote its address"; exit 1; }
CUADDR=$(cat "$SMOKE_DIR/addr-chaos-up")
"$CBIR" chaos-proxy "$CUADDR" --port 0 --addr-file "$SMOKE_DIR/addr-chaos" \
    --mode pass >/dev/null &
CHAOS_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-chaos" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-chaos" ] || { echo "chaos proxy never wrote its address"; exit 1; }
CADDR=$(cat "$SMOKE_DIR/addr-chaos")
"$CBIR" rpc-query "$CADDR" --id 0 -k 3 > "$SMOKE_DIR/via-proxy.out"
"$CBIR" rpc-query "$CUADDR" --id 0 -k 3 > "$SMOKE_DIR/via-direct.out"
cmp -s "$SMOKE_DIR/via-proxy.out" "$SMOKE_DIR/via-direct.out" \
    || { echo "pass-through chaos proxy altered the reply"; exit 1; }
kill "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
"$CBIR" rpc-ctl "$CUADDR" shutdown >/dev/null
wait "$CHAOS_UP_PID"
# Partial-results serving: front the 2-shard plan with shard 1 pointing
# at a dead address. With --allow-partial the router must answer from
# the surviving shard and flag the reply as degraded 1/2.
"$CBIR" serve "$SMOKE_DIR/shards/shard-0.db" --port 0 \
    --addr-file "$SMOKE_DIR/addr-part-s0" --index linear --measure l1 >/dev/null &
PART_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-part-s0" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-part-s0" ] || { echo "partial-smoke backend never wrote its address"; exit 1; }
"$CBIR" route "$SMOKE_DIR/shards/PLAN.txt" \
    "$(cat "$SMOKE_DIR/addr-part-s0")" "127.0.0.1:1" \
    --port 0 --addr-file "$SMOKE_DIR/addr-part-router" \
    --cooldown-ms 200 --allow-partial >/dev/null &
PART_ROUTER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr-part-router" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr-part-router" ] || { echo "partial-smoke router never wrote its address"; exit 1; }
PRADDR=$(cat "$SMOKE_DIR/addr-part-router")
PART_OUT=$("$CBIR" rpc-query "$PRADDR" --id 0 -k 3)
echo "$PART_OUT" | grep -q "class-" \
    || { echo "degraded rpc-query returned no hits"; exit 1; }
echo "$PART_OUT" | grep -q "degraded: answered by 1/2 shards" \
    || { echo "degraded reply not flagged with shard coverage"; exit 1; }
"$CBIR" stats "$PRADDR" | grep -q '"degraded_replies": [1-9]' \
    || { echo "router stats show no degraded replies after partial answer"; exit 1; }
"$CBIR" rpc-ctl "$PRADDR" shutdown >/dev/null
wait "$PART_ROUTER_PID"
"$CBIR" rpc-ctl "$(cat "$SMOKE_DIR/addr-part-s0")" shutdown >/dev/null
wait "$PART_PID"

echo "==> non-test Rust lines per crate (scripts/loc.sh; diff against the parent commit)"
scripts/loc.sh

echo "verify: all checks passed"
