"""Self-check of the benchmark: ``python3 perfbench/selfcheck.py``.

For every workload, runs its last op once untraced and once traced and
checks that each metric BENCHMARK.json declares is reported, with its unit;
then runs the op against a corrupted expected output and checks that the op
counts as failed.  Exits nonzero on the first violation.
"""

import json
import sys

from run import BENCH_DIR, ROOT, measure
from workloads import WORKLOADS, expected_key, seeded_ops


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        expected = json.loads(
            (BENCH_DIR / "expected" / f"{workload}.json").read_text())
        ops = seeded_ops(workload, seed=0)[-1:]
        op_id = ops[0][0]
        for trace in (0, 1):
            result, _ = measure(workload, ops, expected, 0, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} {op_id} trace={trace}: {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == declared[trace],
                  f"{workload} trace={trace}: metrics {units} "
                  f"!= declared {declared[trace]}")
        key = expected_key(op_id)
        corrupted = dict(expected, **{key: expected[key] + " "})
        result, record = measure(workload, ops, corrupted, 0, 0)
        check(not result["correct"] and result["failed"] == 1
              and record["error_rate"] == 1.0,
              f"{workload} {op_id}: corrupted expected output not counted "
              f"as failed: {result}")
        print(f"ok {workload} ({op_id})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
