"""Byte-identical CLI output against recorded golden runs.

``golden_cli.json`` holds diagram documents and, for each query command
run on them as text and as ``--json``, the exit code and the exact
stdout.  The inputs are the hand-built fixtures, small planar links,
seeded ``random_diagram`` documents with neg_prob 0, 0.5 and 1, and
cyclic torus-family codes; the crossing targets include sets that are
admissible, sets with no bi-coloring, and sets whose bi-colorings all
have nonzero class.  After the queries come the commands that write a
diagram (``apply``, ``switch``, ``move-r2``, ``random``, ``import-pd``)
on small documents, which pin the bytes of ``serialize_diagram``.
Every answer the CLI prints is a unique object (a rank, an RREF basis,
a pivot solution), so any faster algorithm must reproduce these bytes.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from golden_run import _run, _write_docs, replay

GOLDEN = Path(__file__).with_name("golden_cli.json")
RUNNER = Path(__file__).with_name("golden_run.py")
SRC = Path(__file__).resolve().parent.parent / "src"

QUERIES = ("info", "verify", "matrix", "homology", "ineffective")
TARGETED = ("admissible", "bicolor")
WRITERS = ("apply", "switch", "move-r2", "random", "import-pd")


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    data = _load_golden()
    paths = _write_docs(data["docs"], tmp_path_factory.mktemp("golden"))
    return data, paths


def test_golden_covers_every_query():
    cases = _load_golden()["cases"]
    seen = {(case["argv"][0], "--json" in case["argv"]) for case in cases}
    for command in QUERIES + TARGETED + ("equivalent",):
        assert (command, False) in seen and (command, True) in seen
    for command in WRITERS:
        assert (command, False) in seen


def test_cli_stdout_matches_golden():
    total, mismatches = replay(GOLDEN)
    assert not mismatches, (f"{len(mismatches)} of {total} "
                            f"commands differ, first: {mismatches[:5]}")


def test_runner_script_matches_every_case():
    # The stand-alone runner, as it is run under each supported Python.
    total = len(_load_golden()["cases"])
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(RUNNER),
                            str(SRC), str(GOLDEN)],
                           capture_output=True, encoding="utf-8")
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith(f"{total}/{total} golden cases match on Python ")
    assert child.stdout.count("\n") == 1


def test_text_rows_build_no_json_lists(golden, monkeypatch):
    import regioncc.cli

    def refuse(mask, length):
        raise AssertionError("text output built a JSON bit list")

    monkeypatch.setattr(regioncc.cli, "bit_flags", refuse)
    data, paths = golden
    cases = [case for case in data["cases"]
             if case["argv"][0] in ("matrix", "homology") and "--json" not in case["argv"]]
    assert len(cases) > 20
    for case in cases:
        assert _run(case["argv"], paths) == (case["exit"], case["stdout"])


# ---------------------------------------------------------------------------
# Recording.

def _record_docs():
    from conftest import CHAIN3_PD, FIXTURE_MAKERS, HOPF_PD, cyclic_pd
    from regioncc import (apply_rcc, import_pd, random_diagram,
                          switch_crossing)
    diagrams = {name: make() for name, make in FIXTURE_MAKERS.items()}
    diagrams["hopf"] = import_pd(HOPF_PD)
    diagrams["chain3"] = import_pd(CHAIN3_PD)
    rng = random.Random(20261018)
    for p in (0.0, 0.5, 1.0):
        for k in range(3):
            n = rng.randrange(10, 41)
            diagrams[f"rand_p{p}_{k}"] = random_diagram(n, p, seed=rng.randrange(1 << 30))
    for n in (10, 17, 24):
        diagrams[f"cyclic{n}"] = import_pd(cyclic_pd(n))
    partners = {}
    for name, d in list(diagrams.items()):
        r = d.shadow.faces.region_count
        regions = [i for i in range(r) if rng.random() < 0.5]
        partners[name] = (f"{name}_moved", apply_rcc(d, regions),
                          f"{name}_switched",
                          switch_crossing(d, rng.randrange(d.crossing_count)))
    return diagrams, partners, rng


def _targets(d, rng: random.Random) -> list[list[int]]:
    """An admissible set, a random set and, when one turns up, a set with
    bi-colorings that all have nonzero class."""
    from regioncc import (admissible, admissible_by_bicoloring, bicoloring,
                          incidence_matrix)
    c = d.crossing_count
    m = incidence_matrix(d)
    effect = 0
    for bits in m.row_bits:
        if rng.random() < 0.5:
            effect ^= bits
    out = [[i for i in range(c) if (effect >> i) & 1]]
    out.append(sorted(rng.sample(range(c), rng.randrange(1, c + 1))))
    for _ in range(60):
        chosen = sorted(i for i in range(c) if rng.random() < 0.5)
        if (bicoloring(d, chosen) is not None
                and not admissible_by_bicoloring(d, chosen)[0]):
            out.append(chosen)
            break
    for _ in range(60):
        chosen = sorted(i for i in range(c) if rng.random() < 0.5)
        if admissible(d, chosen) is None:
            out.append(chosen)
            break
    unique = []
    for t in out:
        if t not in unique:
            unique.append(t)
    return unique


def _writer_argvs(diagrams, docs: dict[str, str]) -> list[list[str]]:
    """Diagram-writing commands on small documents.  Their arguments come
    from an RNG of their own, so the query cases recorded before them do
    not change; the pd codes for import-pd are added to ``docs``."""
    from conftest import CHAIN3_PD, HOPF_PD, TREFOIL_PD
    from regioncc import poke_sites
    rng = random.Random(20261019)
    argvs = []
    for name in ("curl", "torus11", "rp2curl", "trefoil", "hopf", "chain3"):
        d = diagrams[name]
        regions = [i for i in range(d.shadow.faces.region_count)
                   if rng.random() < 0.5]
        argvs.append(["apply", "@" + name, "-r", ",".join(map(str, regions))])
        argvs.append(["switch", "@" + name, "-i", str(rng.randrange(d.crossing_count))])
        a, b = rng.choice(poke_sites(d))
        argvs.append(["move-r2", "@" + name, "-d", f"{a},{b}",
                      "--over", rng.choice("ab")])
    for p in ("0", "0.5", "1"):
        for _ in range(2):
            argvs.append(["random", "-n", "6", "--neg-prob", p,
                          "--seed", str(rng.randrange(1 << 30))])
    for name, code in (("trefoil", TREFOIL_PD), ("hopf", HOPF_PD),
                       ("chain3", CHAIN3_PD)):
        docs[f"{name}_pd"] = json.dumps(code, separators=(",", ":"))
        argvs.append(["import-pd", f"@{name}_pd"])
    return argvs


def record() -> None:
    from regioncc import serialize_diagram
    diagrams, partners, rng = _record_docs()
    compact = lambda d: json.dumps(json.loads(serialize_diagram(d)),
                                   separators=(",", ":"))
    docs = {}
    argvs = []
    for name, d in diagrams.items():
        moved, d_moved, switched, d_switched = partners[name]
        docs[name] = compact(d)
        docs[moved] = compact(d_moved)
        docs[switched] = compact(d_switched)
        for flag in ([], ["--json"]):
            for command in QUERIES:
                argvs.append([command, *flag, "@" + name])
            for target in _targets(d, rng):
                for command in TARGETED:
                    argvs.append([command, *flag, "@" + name,
                                  "-c", ",".join(map(str, target))])
            for other in (moved, switched, "trefoil" if name != "trefoil" else "curl"):
                argvs.append(["equivalent", *flag, "@" + name, "@" + other])
    argvs += _writer_argvs(diagrams, docs)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_docs(docs, Path(tmp))
        cases = []
        for argv in argvs:
            code, out = _run(argv, paths)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    # One document and one case per line keeps the file small and its diffs legible.
    lines = ['{"docs": {']
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in docs.items()))
    lines.append('}, "cases": [')
    lines.append(",\n".join(json.dumps(case) for case in cases))
    lines.append("]}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases on {len(docs)} documents to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    record()
