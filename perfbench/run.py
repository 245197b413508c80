"""Closed-loop benchmark of the chaincodes package.

One client in one process and one thread: each op is issued after the
previous one returns.  Run from the root of a checkout:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
for the workloads and what each metric is predicted to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
ORACLE_SAMPLES_PER_AMBIENT = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer -> the workload where it is predicted to do most work.  A traced run
# of that workload fails if one of the layer's metrics reads zero, so that a
# renamed entry point shows up as an error instead of a silent zero.
LAYER_HOME = {
    "rings": "structure",
    "polys": "structure",
    "factor": "structure",
    "hensel": "structure",
    "decompose": "structure",
    "codes": "queries",
    "duality": "queries",
    "distance": "census",
    "cli": "structure",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def use_checkout_source():
    """Import ``chaincodes`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "chaincodes" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import chaincodes

    if Path(chaincodes.__file__).resolve() != init.resolve():
        raise BenchError(f"chaincodes was imported from {chaincodes.__file__}")


def metadata():
    """Facts recorded beside the metrics, never as metrics."""
    src_lines = 0
    for path in sorted((SRC / "chaincodes").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit():
    """HEAD read from ``.git`` in the checkout, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_ops(ops, latencies, tracer=None):
    """Run ops one after another; return (op, output or exception) pairs.

    Latency covers the op itself: the library or CLI call plus its JSON
    dump.  Outputs are checked afterwards, outside the clock and the trace.
    """
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.fold()
        results.append((op, out))
    return results


def count_failures(results):
    """An exception, a nonzero exit code or a failed check is a failure."""
    failed = 0
    for op, out in results:
        if isinstance(out, Exception):
            print(f"# FAILED {op.label}: {type(out).__name__}: {out}", file=sys.stderr)
            failed += 1
            continue
        try:
            ok = op.check(out) is True
        except Exception as exc:
            print(f"# CHECK RAISED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"# WRONG OUTPUT {op.label}", file=sys.stderr)
            failed += 1
    return failed


def keep_going(elapsed, round_times, seconds):
    """Whole rounds only: stop at the round boundary nearest to ``seconds``."""
    return elapsed + statistics.fmean(round_times) / 2 < seconds


def measure(workload, state, rng, seconds):
    """Untraced phase: whole seeded rounds for about ``seconds`` and at
    least MIN_OPS ops."""
    latencies = []
    failed = 0
    round_times = []
    start = time.perf_counter()
    while True:
        ops = workload.round(state, rng)
        r0 = time.perf_counter()
        failed += count_failures(run_ops(ops, latencies))
        now = time.perf_counter()
        round_times.append(now - r0)
        if len(latencies) >= MIN_OPS and not keep_going(now - start, round_times, seconds):
            return latencies, failed, now - start


def measure_traced(workload, state, rng, seconds):
    """Each op runs twice in a row, untraced and traced, the order switching
    from op to op, so the overhead compares runs made close in time."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    failed = 0
    round_times = []
    start = time.perf_counter()
    while True:
        ops = workload.round(state, rng)
        tracer.new_pass()
        r0 = time.perf_counter()
        results = []
        for i, op in enumerate(ops):
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if with_trace:
                    tracer.install()
                    try:
                        results += run_ops([op], traced, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    results += run_ops([op], untraced)
        failed += count_failures(results)
        round_times.append(time.perf_counter() - r0)
        if not keep_going(time.perf_counter() - start, round_times, seconds):
            break
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced) - 1
    return metrics, len(untraced) + len(traced), failed


PER_LAYER_UNITS = {
    "carrier_repeat_ratio": "ratio",
    "overhead_ratio": "ratio",
    "words_bound": "words/op",
}


def per_layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    if name.endswith("calls"):
        return "calls/op"
    return "s/op"


def check_layers_fire(workload, metrics):
    silent = [
        name
        for name, value in metrics.items()
        if LAYER_HOME.get(name.split(".", 1)[0]) == workload and not value > 0
    ]
    if silent:
        raise BenchError(f"traced {workload}: metrics that never fired: {', '.join(silent)}")


def setup_times(workload, seed):
    """Median set-up time of fresh processes: start, import and set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def quantile(values, q):
    """Interpolated quantile, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def oracle_cross_check(state, rng):
    """Census records against the brute-force oracle; returns failures."""
    import workloads

    wrong = workloads.census_oracle_failures(state, rng, ORACLE_SAMPLES_PER_AMBIENT)
    for label in wrong:
        print(f"# ORACLE MISMATCH {label}", file=sys.stderr)
    return len(wrong)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["structure", "census", "queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        state = wl.setup(args.seed)
        rng = random.Random(args.seed)
        print(f"# workload {args.workload}  seed {args.seed}  closed loop, 1 client, 1 thread")
        print("# meta " + json.dumps(metadata(), sort_keys=True))

        if args.trace:
            metrics, attempted, failed = measure_traced(wl, state, rng, args.seconds)
            check_layers_fire(args.workload, metrics)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            setup_s = setup_times(args.workload, args.seed)
            latencies, failed, elapsed = measure(wl, state, rng, args.seconds)
            attempted = len(latencies)
            if args.workload == "census":
                failed += oracle_cross_check(state, rng)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": attempted / elapsed,
                "op_p50_ms": 1000 * quantile(latencies, 0.50),
                "op_p90_ms": 1000 * quantile(latencies, 0.90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            print(f"# {attempted} ops in {elapsed:.2f} s; latency samples: {attempted}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    error_rate = failed / attempted
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':34s} {error_rate:14.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
