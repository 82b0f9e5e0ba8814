"""Per-layer scaling curve of regioncc on both diagram families.

    python3 bench/curve.py > bench/curve.json

For each family and each size in SIZES the layer sweep of the traced
benchmark runs on fresh inputs, at least once and then until CAP_S
seconds have passed or MAX_INPUTS inputs are done, and the median of
every span is reported.  The curve is a record, not a gate.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time

import workloads
from run import Tracer, commit, src_digest

SIZES = (256, 512, 1024)
CAP_S = 30.0
MAX_INPUTS = 3


def main() -> None:
    curve = []
    for family in ("torus", "genus"):
        for n in SIZES:
            tracer = Tracer()
            counts: dict[str, int] = {}
            rng = workloads.stream(0, "curve", family, n)
            start = time.perf_counter()
            inputs = 0
            while inputs < MAX_INPUTS and (
                    inputs == 0 or time.perf_counter() - start < CAP_S):
                doc = workloads.dumps(workloads.family_doc(family, n, rng))
                workloads.layer_sweep(doc, rng, tracer, counts)
                inputs += 1
            curve.append({
                "family": family, "crossings": n, "inputs": inputs,
                "layers_ms": {name: statistics.median(spans) * 1e3
                              for name, spans in tracer.spans.items()},
                "counts": counts,
            })
    print(json.dumps({"commit": commit(), "src_sha256": src_digest(),
                      "python": platform.python_version(),
                      "cpus": os.cpu_count(), "cap_s": CAP_S,
                      "curve": curve}, indent=1))


if __name__ == "__main__":
    main()
