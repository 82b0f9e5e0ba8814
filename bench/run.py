"""Run one workload of the regioncc benchmark and print its metrics.

    python3 bench/run.py --workload torus_solve --seed 1 --seconds 25 --trace 0

A run does a fixed amount of work: RATE[workload] * --seconds operations,
and never fewer than 100, so the 90th percentile rests on ten samples.
The count never depends on how fast the program is: with the package's
pinned caches, a faster change running more operations would also hold
more memory.  One closed-loop client runs the operations one after
another in this process, and cli_session runs at most one child at a
time.

With --trace 0 the last line of stdout holds the end-to-end metrics.
Their latencies are in units of reference(), a fixed computation timed
right after each operation, because the host's speed drifts; set-up
time is in seconds.
With --trace 1 every second operation is traced, and the run then calls
every layer once more on fresh inputs (layer_sweep, cli_sweep) so each
per-layer metric exists on each workload; the line then holds the
per-layer metrics, including the tracing overhead.  The line before it
records the commit, the Python version, the wall-clock latencies and
the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RATE = {"torus_solve": 4.0, "genus_solve": 4.4,
        "query_session": 8.0, "cli_session": 4.0}
MIN_OPS = 100
SETUP_REPEATS = 3
SWEEP_INPUTS = 3
CLI_SWEEP_REPEATS = 5


class Tracer:
    """Span durations by layer name, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds)


class NoTrace:
    """Tracing off: spans cost one call and record nothing."""

    _null = contextlib.nullcontext()

    def __call__(self, name: str):
        return self._null

    def record(self, name: str, seconds: float) -> None:
        pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 100 values, p90 has 10 beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


_rows = random.Random(0)
REFERENCE_ROWS = [_rows.getrandbits(192) for _ in range(192)]


def reference() -> None:
    """A fixed GF(2) elimination in pure Python, the unit of the gated times.

    The host these runs share with other tenants changes speed by up to
    half within seconds, and wall-clock latencies move with it.  Timing
    this computation right after each operation and dividing by it
    cancels most of that.  It does not use regioncc, so no change to the
    package can move it.
    """
    work = list(REFERENCE_ROWS)
    top = 0
    for col in range(192):
        for k in range(top, len(work)):
            if (work[k] >> col) & 1:
                work[top], work[k] = work[k], work[top]
                break
        else:
            continue
        for k in range(len(work)):
            if k != top and (work[k] >> col) & 1:
                work[k] ^= work[top]
        top += 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    import workloads  # importing regioncc counts as set-up
    import_s = time.perf_counter() - start

    ops = max(MIN_OPS, round(RATE[name] * seconds))
    work = workloads.make_workload(name, seed, ops)
    tracer = Tracer() if trace else NoTrace()
    # Set-up runs before the first operation and again a third and two
    # thirds of the way through, so its median samples three moments of
    # the host rather than one.  Each set-up replaces the state of the last.
    setup_at = {k * ops // SETUP_REPEATS: k for k in range(SETUP_REPEATS)}
    setup_runs = []
    untraced = NoTrace()
    latency: dict[bool, list[float]] = {False: [], True: []}
    ref_time: dict[bool, list[float]] = {False: [], True: []}
    failures = []
    for i in range(ops):
        if i in setup_at:
            start = time.perf_counter()
            work.setup(setup_at[i], tracer)
            setup_runs.append(time.perf_counter() - start)
        traced = trace and i % 2 == 1
        span = tracer if traced else untraced
        item = work.prepare(i)
        start = time.perf_counter()
        try:
            result = work.op(item, span)
            error = None
        except Exception as err:  # a failed operation is counted, not fatal
            error = f"op {i}: {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        reference()
        latency[traced].append(elapsed)
        ref_time[traced].append(time.perf_counter() - start)
        if error is None:
            try:
                work.check(item, result, span)
            except Exception as err:
                error = f"op {i} check: {type(err).__name__}: {err}"
        if error:
            failures.append(error)

    problems = []
    counts: dict[str, int] = {}
    if trace:
        try:
            rng = workloads.stream(seed, name, "sweep")
            for doc in work.sweep_docs(SWEEP_INPUTS):
                workloads.layer_sweep(doc, rng, tracer, counts)
            workloads.cli_sweep(seed, CLI_SWEEP_REPEATS, tracer)
        except Exception as err:
            problems.append(f"sweep: {type(err).__name__}: {err}")

    if name == "cli_session":
        peak_kb = work.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = ops - len(failures)
    timed = latency[False]
    if trace:
        metrics = {f"{name}_ms": metric(statistics.median(spans) * 1e3, "ms")
                   for name, spans in tracer.spans.items()}
        queries = counts.pop("rcc.admissible_queries", 0)
        yes = counts.pop("rcc.admissible_yes", 0)
        metrics.update({name: metric(value, "count") for name, value in counts.items()})
        if queries:
            metrics["rcc.admissible_yes_ratio"] = metric(yes / queries, "ratio")
        metrics["trace.overhead_ms"] = metric(
            (statistics.median(latency[True]) - statistics.median(timed)) * 1e3, "ms")
    else:
        rel = [t / r for t, r in zip(timed, ref_time[False])]
        metrics = {
            "setup_s": metric(import_s + statistics.median(setup_runs), "s"),
            "ops_per_ref": metric(ok / sum(rel), "1/ref"),
            "op_p50_rel": metric(statistics.median(rel), "ref"),
            "op_p90_rel": metric(percentile(rel, 0.9), "ref"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "op_ok_ratio": metric(ok / ops, "ratio"),
        }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": ops, "timed_samples": len(timed),
        "commit": commit(), "src_sha256": src_digest(),
        "python": platform.python_version(),
        "import_s": import_s, "setup_runs_s": setup_runs,
        "ops_per_s": ok / sum(timed), "op_p50_ms": statistics.median(timed) * 1e3,
        "op_p90_ms": percentile(timed, 0.9) * 1e3,
        "reference_ms": statistics.median(ref_time[False]) * 1e3,
        "op_fail_ratio": len(failures) / ops,
        "failures": failures[:10], "problems": problems,
    }
    result = {"correct": not failures and not problems,
              "attempted": ops, "failed": len(failures), "metrics": metrics}
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
