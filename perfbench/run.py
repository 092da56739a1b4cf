"""hkdensity benchmark: cold CLI time-to-solution on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Load is a closed loop with one client: every op is a fresh
``python -m hkdensity.cli`` process with its spec on stdin, and only one op
process runs at a time.  A pass runs every op of the workload once, in
order; passes repeat while another one is predicted to end within
``--seconds`` (there is always at least one).  Every op's stdout must match
the recorded expected output byte for byte; a mismatch, a nonzero exit or a
timeout counts the op as failed.

Times are corrected for the speed of the host, which on a shared virtual
machine drifts by a factor of up to 1.5 over seconds to minutes: the
harness and every op are pinned to one CPU, a fixed piece of rational
arithmetic (the probe) runs before each op and after the last, and an op's
time is scaled by ``PROBE_REF_S`` over the mean of the two probes around it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by one pass in which each
op runs through ``perfbench/tracer.py``, and the last line carries the
per-layer metrics.  The line before it is a JSON record of the environment
and every raw sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, expected_key, seeded_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 160.0
OP_TIMEOUT_S = 90.0
# Probe time on the reference machine (2-CPU Xeon VM, Python 3.11.7) when
# it runs at its usual speed; corrected times are seconds at that speed.
PROBE_REF_S = 0.018

# The layer each workload was chosen to load, as the tracer's call counter
# for it; a traced pass that records no call there fails, because the
# workload no longer tests what it claims to.
DESIGN_COUNTER = {
    "surfaces": "regions.family_volume_function.calls",
    "multiples": "regions.family_volume_function.calls",
    "oracle": "oracle.calls",
    "cli_small": "cli.emit.calls",
}


def probe():
    """Seconds for a fixed piece of pure-Python rational arithmetic, the
    kind of work that dominates the engine."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 3000):
        x += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    return time.perf_counter() - start


class Op:
    """One finished op process."""

    def __init__(self, op_id, latency_s, maxrss_mb, status, ok):
        self.op_id = op_id
        self.latency_s = latency_s
        self.maxrss_mb = maxrss_mb
        self.status = status
        self.ok = ok
        self.probes_s = None  # probe times before and after the op

    @property
    def corrected_s(self):
        return self.latency_s * PROBE_REF_S / statistics.mean(self.probes_s)

    def record(self):
        return {"op": self.op_id, "latency_s": self.latency_s,
                "corrected_s": self.corrected_s, "probes_s": self.probes_s,
                "maxrss_mb": self.maxrss_mb, "status": self.status,
                "ok": self.ok}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(argv, stdin_text, deadline, stderr_path):
    """Run one process to completion; returns (seconds from spawn to exit,
    exit status, stdout bytes, max RSS in MB)."""
    timeout = max(0.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(stdin_text.encode())
                proc.stdin.close()
            except BrokenPipeError:  # the child exited without reading
                pass
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 rather than Popen.wait: it also returns the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024.0


def run_op(op_id, argv, spec, expected, deadline, traced=False, spans_path=None):
    """One CLI call; the op is ok iff it exits 0 with the expected stdout."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "hkdensity.cli", *argv]
    elapsed, status, out, rss = spawn(cmd, spec, deadline, TMP / "stderr.txt")
    ok = status == 0 and out == expected.encode()
    return Op(op_id, elapsed, rss, status, ok)


def attach_probes(ops, probes):
    """Give op i the probes taken just before and just after it."""
    for i, op in enumerate(ops):
        op.probes_s = probes[i:i + 2]


def measure_setup(deadline):
    """Corrected times from spawn to exit of ``python -c 'import
    hkdensity.cli'``.

    One unrecorded start first, so that writing the bytecode cache is not
    counted: an installed package has it already.
    """
    cmd = [sys.executable, "-c", "import hkdensity.cli"]
    samples, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        if i:
            probes.append(probe())
        elapsed, status, _, rss = spawn(cmd, "", deadline, TMP / "stderr.txt")
        if status != 0:
            raise RuntimeError("importing hkdensity.cli failed: "
                               + (TMP / "stderr.txt").read_text(errors="replace"))
        if i:
            samples.append(Op("setup", elapsed, rss, status, True))
    attach_probes(samples, probes + [probe()])
    return samples


def run_pass(ops, expected, deadline, traced=False):
    """Every op once, in order; returns ([Op], span records)."""
    done, spans, probes = [], [], []
    spans_path = TMP / "spans.json"
    for op_id, argv, spec in ops:
        if traced and spans_path.exists():
            spans_path.unlink()
        probes.append(probe())
        done.append(run_op(op_id, argv, spec, expected[expected_key(op_id)],
                           deadline, traced, spans_path))
        if traced and spans_path.exists():
            spans.append(json.loads(spans_path.read_text()))
    probes.append(probe())
    attach_probes(done, probes)
    return done, spans


def run_passes(ops, expected, seconds, deadline):
    """Passes while the next one is predicted to end within ``seconds``;
    returns a list of passes, each a list of Op."""
    start = time.perf_counter()
    passes = []
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ops, expected, deadline)[0])
        now = time.perf_counter()
        last = now - pass_start
        if now - start + last > seconds or time.monotonic() + last > deadline:
            return passes


def op_samples(passes):
    """Corrected op latencies, one per op and pass: an op and its mirror
    image count as one sample, their mean, so that the orientation the seed
    picked does not move the median."""
    samples = []
    for ops in passes:
        by_op = {}
        for op in ops:
            by_op.setdefault(expected_key(op.op_id), []).append(op.corrected_s)
        samples.extend(statistics.mean(v) for v in by_op.values())
    return samples


def layer_totals(spans):
    """Sum the per-op span records of a traced pass."""
    total = {}
    for record in spans:
        for key, value in record.items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer_metrics(totals, overhead_s):
    def s(key):
        return {"value": totals.get(key, 0.0), "unit": "s"}

    def count(key):
        return {"value": int(totals.get(key, 0)), "unit": "count"}

    metrics = {
        "cli.import_s": s("cli.import.self_s"),
        "cli.parse_s": s("cli.parse.self_s"),
        "cli.emit_s": s("cli.emit.self_s"),
    }
    for layer in ("analysis", "regions", "geometry", "piecewise",
                  "rationals", "oracle"):
        metrics[f"{layer}.self_s"] = s(f"{layer}.self_s")
    metrics["regions.calls"] = count("regions.family_volume_function.calls")
    metrics["regions.pieces"] = count("regions.pieces")
    metrics["geometry.calls"] = count("geometry.calls")
    metrics["oracle.slice_count.calls"] = count("oracle.slice_count.calls")
    metrics["trace.errors"] = {
        "value": sum(v for k, v in totals.items() if k.endswith(".errors")),
        "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def git_sha():
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    """sha256 over the package sources, which identifies the program even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hkdensity").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload, seed):
    query = ("import json, numpy; from hkdensity.rationals import Rat; "
             "print(json.dumps({'rational_backend': Rat.__module__, "
             "'numpy': numpy.__version__}))")
    out = subprocess.run([sys.executable, "-c", query], env=child_env(),
                         capture_output=True, text=True, timeout=5, check=True)
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        **json.loads(out.stdout),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def measure(workload, ops, expected, seconds, trace):
    """Set up, run the ops and return (result line, record of raw samples)."""
    TMP.mkdir(exist_ok=True)
    # one CPU for the harness and every op: the probes must run where the
    # ops run, and the CPUs of a shared host are loaded independently
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = measure_setup(deadline)
    record = {"trace": trace, "setup": [op.record() for op in setup]}
    if trace:
        plain_ops, _ = run_pass(ops, expected, deadline)
        traced_ops, spans = run_pass(ops, expected, deadline, traced=True)
        passes = [plain_ops, traced_ops]
        totals = layer_totals(spans)
        overhead = (sum(op.corrected_s for op in traced_ops)
                    - sum(op.corrected_s for op in plain_ops))
        metrics = per_layer_metrics(totals, overhead)
        design_ok = totals.get(DESIGN_COUNTER[workload], 0) > 0
        record.update(layer_totals=totals, design_layer_called=design_ok)
    else:
        passes = run_passes(ops, expected, seconds, deadline)
        metrics = {
            "wall_s": {"value": statistics.median(
                sum(op.corrected_s for op in p) for p in passes), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_samples(passes)),
                         "unit": "s"},
            "setup_s": {"value": statistics.median(
                op.corrected_s for op in setup), "unit": "s"},
            "peak_rss_mb": {"value": max(op.maxrss_mb for p in passes
                                         for op in p), "unit": "MB"},
        }
        design_ok = True
    done = [op for p in passes for op in p]
    failed = sum(not op.ok for op in done)
    record.update(error_rate=failed / len(done),
                  op_p50_samples=len(op_samples(passes)),
                  passes=[[op.record() for op in p] for p in passes])
    result = {"correct": failed == 0 and design_ok, "attempted": len(done),
              "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hkdensity" / "cli.py").is_file():
        print(f"no hkdensity sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(
        (BENCH_DIR / "expected" / f"{args.workload}.json").read_text())
    result, record = measure(args.workload, seeded_ops(args.workload, args.seed),
                             expected, args.seconds, args.trace)
    print(json.dumps({**environment(args.workload, args.seed), **record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
