"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 tools/pair.py --parent TREE --change TREE --workload W \\
        [--workload W ...] [--pairs 10] [--seconds S] --out BENCH_<slug>.json

Each tree is a checkout with its own ``bench/run.py`` and ``src/``.
Pair k runs ``bench/run.py --workload W --seed k --seconds S`` once in
each tree, the parent first in odd pairs and the change first in even
ones, so a drift of the host's speed falls on both trees alike.  S
defaults to ``run_seconds`` of the change tree's ``BENCHMARK.json``.  A run
that exits non-zero or whose ``correct`` is not true stops the tool
(exit 1), and so does a tree whose commit, ``src/`` digest or Python
version changes between its runs.

The output file records both trees' ``commit`` and ``src_sha256`` as
their runs' details lines report them (``commit`` is null for a tree
that is not a git checkout), and each tree's ``bench_sha256``, a digest
of its ``bench/*.py`` and ``BENCHMARK.json``.  Each tree runs its own
bench, so a bench edit could pass for a package change: a line is
printed when the two digests differ.  It also records the Python
version, every pair's metrics and, for each end-to-end metric of the
change tree's ``BENCHMARK.json``:

- the medians of both trees;
- ``worse_by``, the change's median relative to the parent's, positive
  when it is worse;
- ``wins``, the pairs in which the change did strictly better;
- the parent's interquartile range (``statistics.quantiles``, default
  method), also relative to its median;
- ``sign_p``, the exact two-sided sign-test p-value over the pairs that
  have a winner (ties dropped);
- ``gain``, true exactly when at least 10 pairs ran, the change wins
  at least 9 of every 10 of them (ties count for neither tree) and its
  median beats the parent's by more than the parent's IQR: the rule a
  claimed gain must meet;
- ``verdict``: ``unresolved`` when the parent's relative IQR exceeds the
  bound, else ``worse`` when ``worse_by`` exceeds it, else ``within``.

The file is rewritten after each workload, so a stopped session keeps
the workloads it finished.  Verdicts do not set the exit status.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path
from typing import Callable

Run = tuple[dict, dict]
Runner = Callable[[str, str, int, int], Run]


def bench_run(tree: str, workload: str, seed: int, seconds: int) -> Run:
    """The details and result lines of one ``bench/run.py`` run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"error: {tree}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def bench_digest(tree: str) -> str:
    """SHA-256 over the tree's ``bench/*.py`` and ``BENCHMARK.json``, each
    by its relative path and bytes; a missing file adds nothing."""
    root = Path(tree)
    h = hashlib.sha256()
    for path in sorted(root.glob("bench/*.py")) + [root / "BENCHMARK.json"]:
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def order(pair: int) -> tuple[str, str]:
    """Which tree runs first in pair ``pair`` (counted from 1)."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def run_pairs(trees: dict[str, str], workload: str, pairs: int, seconds: int,
              runner: Runner, identity: dict[str, dict]) -> list[dict]:
    """Every pair's metrics; ``identity`` collects each tree's details."""
    rows = []
    for k in range(1, pairs + 1):
        row: dict = {"pair": k, "seed": k, "order": list(order(k))}
        for side in order(k):
            details, result = runner(trees[side], workload, k, seconds)
            if result.get("correct") is not True:
                raise SystemExit(f"error: {side} tree: {workload} seed {k} is not "
                                 f"correct: {details.get('failures')} "
                                 f"{details.get('problems')}")
            seen = {key: details.get(key) for key in ("commit", "src_sha256", "python")}
            if identity.setdefault(side, seen) != seen:
                raise SystemExit(f"error: {side} tree changed between runs: "
                                 f"{identity[side]} then {seen}")
            row[side] = {name: m["value"] for name, m in result["metrics"].items()}
        rows.append(row)
    return rows


def iqr(values: list[float]) -> float:
    """Interquartile range; zero for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def sign_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    return min(1.0, 2 * sum(comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n)


def compare(rows: list[dict], spec: dict) -> dict:
    """Medians, wins, parent IQR, sign test, gain and verdict of one end-to-end metric."""
    name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
    parent = [row["parent"][name] for row in rows]
    change = [row["change"][name] for row in rows]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    sign = -1 if lower else 1   # > 0 where the change is better
    wins = sum((c - p) * sign > 0 for p, c in zip(parent, change))
    losses = sum((c - p) * sign < 0 for p, c in zip(parent, change))
    out = {"better": spec["better"], "bound": bound,
           "parent_median": p_med, "change_median": c_med, "wins": wins,
           "pairs": len(rows), "parent_iqr": spread, "sign_p": sign_p(wins, losses),
           "gain": (len(rows) >= 10 and 10 * wins >= 9 * len(rows)
                    and (c_med - p_med) * sign > spread)}
    if p_med == 0:
        # No relative change or spread exists against a zero median.
        return {**out, "worse_by": None, "parent_iqr_rel": None, "verdict": "unresolved"}
    worse_by = (c_med - p_med) / abs(p_med) * (1 if lower else -1)
    spread_rel = spread / abs(p_med)
    if spread_rel > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {**out, "worse_by": worse_by, "parent_iqr_rel": spread_rel, "verdict": verdict}


def report(identity: dict[str, dict], benches: dict[str, str], seconds: int, pairs: int,
           workloads: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """The ``BENCH_*.json`` document for the finished workloads."""
    pythons = {identity[side]["python"] for side in identity}
    if len(pythons) != 1:
        raise SystemExit(f"error: the trees ran under different Pythons: {sorted(pythons)}")
    return {
        "python": pythons.pop(),
        "seconds": seconds,
        "pairs": pairs,
        "trees": {side: {"commit": identity[side]["commit"],
                         "src_sha256": identity[side]["src_sha256"],
                         "bench_sha256": benches[side]}
                  for side in ("parent", "change")},
        "workloads": {
            name: {"metrics": {spec["name"]: compare(rows, spec) for spec in end_to_end},
                   "runs": rows}
            for name, rows in workloads.items()
        },
    }


def main(argv: list[str] | None = None, runner: Runner = bench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trees = {"parent": args.parent, "change": args.change}
    benches = {side: bench_digest(tree) for side, tree in trees.items()}
    if benches["parent"] != benches["change"]:
        print("note: the trees' bench/*.py or BENCHMARK.json differ: "
              "each tree's metrics come from its own bench")
    identity: dict[str, dict] = {}
    done: dict[str, list[dict]] = {}
    for workload in args.workload:
        done[workload] = run_pairs(trees, workload, args.pairs, seconds, runner, identity)
        doc = report(identity, benches, seconds, args.pairs, done, spec["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        for name, m in doc["workloads"][workload]["metrics"].items():
            print(f"{workload} {name}: {m['verdict']} (parent {m['parent_median']:.4g}, "
                  f"change {m['change_median']:.4g}, wins {m['wins']}/{m['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
