#!/usr/bin/env sh
# Smoke-check the benchmark in well under a minute: unit tests, then a
# --quick (1/20 corpus, 1 run-second) run of all four workloads in both
# modes, checking what each prints against BENCHMARK.json:
#   * the last line is one JSON object with exactly the keys
#     correct / attempted / failed / metrics;
#   * --trace 0 prints every end_to_end metric, --trace 1 every per_layer
#     metric, each with the unit BENCHMARK.json gives it and no others;
#   * correct is true, failed is 0, and the context line shows that the
#     workload's correctness checks ran and held;
#   * --trace 1 wrote e2e/out/trace_<workload>.json.
# Quick numbers mean nothing; this checks the plumbing, not the system.
set -eu
cd "$(dirname "$0")/.."

run() {
    cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- "$@"
}

echo "==> unit tests"
cargo test --release --offline --quiet --manifest-path e2e/Cargo.toml

for workload in image_pipeline serve_scan tier_approx live_rw; do
    for trace in 0 1; do
        echo "==> $workload --trace $trace"
        run --workload "$workload" --seed 7 --seconds 1 --quick --trace "$trace" |
            python3 e2e/check_output.py "$workload" "$trace"
    done
done
echo "benchmark plumbing OK"
