#!/usr/bin/env sh
# Full offline verification gate: formatting, lints, release build, docs,
# tests, and a quick-bench smoke pass. Every step works with no network
# access (the workspace has zero external dependencies). Fails fast on the
# first broken step.
#
# The quick-bench step runs the throughput bench binaries in quick
# (1-iteration) mode: their bit-identity assertions (planner vs naive
# extraction, batched vs single-query k-NN, every tree's k-NN vs the
# scan's in F1 and its range vs the scan's in F3) execute on every verify.
# Their timed ratios are printed, not asserted: the mechanisms behind
# T1b, F8, F9, F13 and F14's are count gates in the test step (see
# EXPERIMENTS.md), and F12 and F15 assert theirs in full runs only.
# F16's quick leg (exp_chaos_serving's hedged p99 cut) is the only one
# that still asserts a clock.
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

echo "==> examples (each of examples/*.rs runs to its verdict line)"
for EXAMPLE in examples/*.rs; do
    NAME=$(basename "$EXAMPLE" .rs)
    OUT=$(cargo run --release -q --example "$NAME")
    echo "$NAME: $(echo "$OUT" | tail -1)"
done

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
    # F1 fails unless every tree's k-NN equals the scan's bit for bit (at
    # d = 16 the antipole tree scores f32 rows; the one-byte rows are
    # smoked over a wide corpus below); F3 the same for every tree's range.
    cargo run --release -q -p cbir-bench --bin exp_scaling -- --quick
    cargo run --release -q -p cbir-bench --bin exp_range_pruning -- --quick
    echo "==> benchmark smoke (e2e/check.sh)"
    e2e/check.sh
fi

echo "==> server smoke test (generate -> index -> serve -> rpc-query -> shutdown)"
SMOKE_DIR=$(mktemp -d)
# On every exit, a failed check's too: stop the servers, routers and
# chaos proxies this script left in the background (each a child of this
# shell), so none keeps holding the script's output open, then remove
# the scratch directory.
trap 'pkill -P $$ 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
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
# The queries above went through the latency histogram: its p50 and p95
# come back over the wire nonzero and ordered.
LAT_STATS=$("$CBIR" rpc-ctl "$ADDR" stats | grep "latency p50")
P50=$(echo "$LAT_STATS" | sed 's/.*latency p50 \([0-9]*\)us.*/\1/')
P95=$(echo "$LAT_STATS" | sed 's/.*p95 \([0-9]*\)us.*/\1/')
[ "$P50" -gt 0 ] && [ "$P95" -gt 0 ] && [ "$P50" -le "$P95" ] \
    || { echo "stats latency not > 0 and ordered: $LAT_STATS"; exit 1; }

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

echo "==> antipole one-byte rows smoke (query --index antipole = --index linear)"
# The antipole tree keeps one-byte rows for 128 dimensions and more over
# 8 MiB of f32s: 3,680 images of 577-dim descriptors (8.5 MB) take them
# under L1 and L2, and its replies must be the scan's. The closing cost
# line names the index, so it is left out of the comparison.
"$CBIR" generate "$SMOKE_DIR/wide" --classes 8 --per-class 460 --size 32 >/dev/null
"$CBIR" index "$SMOKE_DIR/wide" --db "$SMOKE_DIR/wide.cbir" >/dev/null
WIDE_QUERIES=$(ls "$SMOKE_DIR"/wide/*.ppm | sed -n '1p;1500p;3000p')
for MEASURE in l1 l2; do
    for INDEX in antipole linear; do
        # shellcheck disable=SC2086 # three image paths
        "$CBIR" query "$SMOKE_DIR/wide.cbir" $WIDE_QUERIES -k 6 --index "$INDEX" \
            --measure "$MEASURE" | grep -v "distance computations over" \
            > "$SMOKE_DIR/$INDEX-$MEASURE.out"
    done
    grep -q "class-" "$SMOKE_DIR/antipole-$MEASURE.out" \
        || { echo "antipole query under $MEASURE returned no hits"; exit 1; }
    cmp -s "$SMOKE_DIR/antipole-$MEASURE.out" "$SMOKE_DIR/linear-$MEASURE.out" \
        || { echo "antipole replies diverge from the scan's under $MEASURE"; exit 1; }
done

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

echo "==> live-store smoke (ingest -> serve -> rpc-insert -> compact -> delete -> compact -> kill -9 -> fsck -> restart -> parity)"
SEG_DIR="$SMOKE_DIR/photos.seg"
# Twenty images: one segment large enough that a single delete stays
# under its rewrite fraction (one row in sixteen), so the compaction
# lists the row in the manifest instead of rewriting the segment.
LIVE_PHOTOS="$SMOKE_DIR/photos-live"
"$CBIR" generate "$LIVE_PHOTOS" --classes 4 --per-class 5 --size 32 >/dev/null
"$CBIR" ingest "$LIVE_PHOTOS" --store "$SEG_DIR" >/dev/null
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
# Insert a new image over RPC and make it durable with a compaction;
# delete the first image (global id 0: ingest goes in name order) and
# make that durable with another; then kill the server without ceremony:
# the store must come back from the committed manifest alone, and fsck
# must find the one deleted row in it.
cp "$QUERY_IMG" "$SMOKE_DIR/extra.ppm"
"$CBIR" rpc-insert "$LADDR" "$SMOKE_DIR/extra.ppm" --db "$SEG_DIR" >/dev/null
"$CBIR" compact "$LADDR" >/dev/null
VICTIM=$(ls "$LIVE_PHOTOS" | head -1)
"$CBIR" rpc-ctl "$LADDR" delete --id 0 >/dev/null
"$CBIR" compact "$LADDR" >/dev/null
kill -9 "$LIVE_PID"
wait "$LIVE_PID" 2>/dev/null || true
"$CBIR" fsck "$SEG_DIR" | grep -q "deleted 1 of 21 rows" \
    || { echo "fsck does not report the one deleted row"; exit 1; }
# Restart over the same directory; the serving path must agree with a
# fresh offline build over the same set of images: the twenty, less the
# deleted one, plus the inserted one.
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
cp -r "$LIVE_PHOTOS" "$SMOKE_DIR/photos-fresh"
rm "$SMOKE_DIR/photos-fresh/$VICTIM"
cp "$SMOKE_DIR/extra.ppm" "$SMOKE_DIR/photos-fresh/extra.ppm"
"$CBIR" index "$SMOKE_DIR/photos-fresh" --db "$SMOKE_DIR/photos-all.cbir" >/dev/null
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
# ... and the router's own connection loop, not a zero placeholder.
"$CBIR" stats "$RADDR" --format prometheus | grep -q '^cbir_epoll_wakeups_total [1-9]' \
    || { echo "router prometheus export shows no epoll wakeups of its own loop"; exit 1; }
# The routed JSON adds up: its `linear` queries are the three live
# backends' own documents' sum, each query counted once.
linear_queries() {
    "$CBIR" stats "$1" --format json \
        | grep -o '"index": "linear", "queries": [0-9]*' | grep -o '[0-9]*$'
}
LIVE_QUERIES=0
for F in addr-s0-r1 addr-s1-r0 addr-s1-r1; do
    LIVE_QUERIES=$((LIVE_QUERIES + $(linear_queries "$(cat "$SMOKE_DIR/$F")")))
done
ROUTED_QUERIES=$(linear_queries "$RADDR")
[ "$LIVE_QUERIES" -gt 0 ] && [ "$ROUTED_QUERIES" = "$LIVE_QUERIES" ] \
    || { echo "routed linear queries $ROUTED_QUERIES, live backends' sum $LIVE_QUERIES"; exit 1; }
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

echo "==> public functions no other file names (printed, never failed)"
# A `pub fn` whose name appears in no .rs file but the one defining it
# has no caller outside that file: delete it unless its own file's code
# or tests call it, or a reproduction experiment (T1-T7, F1-F6) needs it.
# Name-only, so a name another item shares hides here. A `pub use`
# re-export names a function without calling it, so the sweep reads a
# copy of each file without its `pub use` statements.
RS_FILES=$(find crates src tests examples e2e -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort)
SWEEP_DIR="$SMOKE_DIR/sweep"
for F in $RS_FILES; do
    mkdir -p "$SWEEP_DIR/$(dirname "$F")"
    awk '/^[[:space:]]*pub use / { skip = 1 } !skip { print } skip && /;/ { skip = 0 }' \
        "$F" > "$SWEEP_DIR/$F"
done
# shellcheck disable=SC2086 # source paths hold no spaces
PUB_FNS=$(grep -o -E 'pub fn [A-Za-z_][A-Za-z0-9_]*' $RS_FILES | sed 's/:pub fn / /')
for NAME in $(echo "$PUB_FNS" | awk '{ print $2 }' | LC_ALL=C sort -u); do
    # shellcheck disable=SC2086
    USERS=$(cd "$SWEEP_DIR" && grep -lw -- "$NAME" $RS_FILES || true)
    DEFINERS=$(echo "$PUB_FNS" | awk -v n="$NAME" '$2 == n { print $1 }' | LC_ALL=C sort -u)
    if [ "$USERS" = "$DEFINERS" ]; then
        echo "  $NAME  $(echo "$DEFINERS" | paste -s -d ' ' -)"
    fi
done

echo "==> non-test Rust lines per crate (scripts/loc.sh: HEAD, working tree, delta)"
# HEAD's table comes from HEAD's own loc.sh, run on a `git archive` copy,
# so before a commit this prints the change's line delta per crate.
if git rev-parse --verify -q HEAD >/dev/null 2>&1; then
    mkdir "$SMOKE_DIR/head"
    git archive HEAD | tar -x -C "$SMOKE_DIR/head"
    "$SMOKE_DIR/head/scripts/loc.sh" > "$SMOKE_DIR/loc-head"
    scripts/loc.sh | awk 'NR == FNR { head[$2] = $1; next }
        FNR == 1 { printf "%7s %7s %7s\n", "HEAD", "tree", "delta" }
        { printf "%7s %7d %+7d  %s\n", head[$2], $1, $1 - head[$2], $2 }' \
        "$SMOKE_DIR/loc-head" -
else
    scripts/loc.sh
fi

echo "verify: all checks passed"
