"""Validate one run's standard output (on stdin) against BENCHMARK.json.

usage: check_output.py <workload> <trace 0|1>
"""

import json
import pathlib
import sys

# Correctness checks each workload must have run in an end-to-end run.
EXPECTED_CHECKS = {
    "image_pipeline": 1,  # antipole replies bit-identical to a linear scan
    "serve_scan": 2,  # bit-identical to knn_batch; nothing shed
    "tier_approx": 3,  # distance bits; recall floor; no failover/hedge
    "live_rw": 4,  # final compaction; row count; final parity; nothing shed
}


def main() -> None:
    workload, trace = sys.argv[1], sys.argv[2] == "1"
    root = pathlib.Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    assert len(lines) >= 2, "expected a context line and a result line"
    context, result = json.loads(lines[-2]), json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert result["correct"] is True, "run reported incorrect"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"{result['failed']} ops failed"

    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, f"end-to-end metric {name} is not positive"

    assert workload in [w["name"] for w in bench["workloads"]]
    assert context["workload"] == workload
    checks = context["checks"]
    assert all(c["held"] for c in checks), checks
    if trace:
        assert pathlib.Path(context["trace_file"]).is_file(), "no span file"
        spans = json.loads(pathlib.Path(context["trace_file"]).read_text())["spans"]
        assert spans and {"name", "start_ns", "end_ns", "parent", "op"} <= set(spans[0])
        for name in ("obs.traced_throughput_ratio", "unattributed_share"):
            assert result["metrics"][name]["value"] != 0, f"{name} not measured"
    else:
        assert len(checks) == EXPECTED_CHECKS[workload], checks


if __name__ == "__main__":
    main()
