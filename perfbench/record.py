"""Record the expected stdout of every op: ``python3 perfbench/record.py``.

Runs each op of every workload once on its spec as written (no seeded
image) and writes ``perfbench/expected/<workload>.json``, a map from op id
to stdout.  Run it from the root of a checkout of the commit whose outputs
are the reference; a run that fails any op writes nothing.
"""

import json
import sys
import time

from run import BENCH_DIR, TMP, spawn
from workloads import WORKLOADS


def main():
    TMP.mkdir(exist_ok=True)
    recorded = {}
    for workload, ops in WORKLOADS.items():
        recorded[workload] = {}
        for op_id, argv, spec in ops:
            _, status, out, _ = spawn(
                [sys.executable, "-m", "hkdensity.cli", *argv],
                json.dumps(spec), time.monotonic() + 600, TMP / "stderr.txt")
            if status != 0:
                print(f"{workload} {op_id}: exit {status}", file=sys.stderr)
                return 1
            recorded[workload][op_id] = out.decode()
    out_dir = BENCH_DIR / "expected"
    out_dir.mkdir(exist_ok=True)
    for workload, expected in recorded.items():
        (out_dir / f"{workload}.json").write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(expected)} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
