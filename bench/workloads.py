"""Inputs, operations and output checks of the regioncc benchmark.

Diagrams and crossing targets are made here from a seed without calling
regioncc, so a change to the package cannot change what it is measured
on.  Operations call only public functions of regioncc, and every
operation has a check that runs outside the timed region.

Importing this module imports regioncc from the ``src/`` next to the
benchmark's directory and fails if Python would take it from anywhere
else: the parent commit and a change must each be measured from their
own tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "regioncc" / "__init__.py").is_file():
    raise SystemExit(f"error: no regioncc package under {SRC}")
sys.path.insert(0, str(SRC))

import regioncc  # noqa: E402
from regioncc import (R2Spec, admissible, admissible_by_bicoloring,  # noqa: E402
                      apply_rcc, components, count_classes, faces,
                      homology_context, homology_matrix, incidence_matrix,
                      ineffective_basis, orientation_double_cover,
                      parse_diagram, phi_class, rcc_equivalent,
                      reidemeister_two, serialize_diagram, surface_info,
                      switch_crossing, verify_rank_formula)
from regioncc import cli  # noqa: E402

if Path(regioncc.__file__).resolve().parent != SRC / "regioncc":
    raise SystemExit(f"error: regioncc was imported from {regioncc.__file__}, "
                     f"not from {SRC}")

SOLVE_CROSSINGS = 256
SESSION_CROSSINGS = 512
CLI_CROSSINGS = (64, 128)
CLI_FAMILIES = ("torus", "genus")
GENUS_NEG_PROB = 0.5
CLI_KINDS = ("info", "verify", "admissible", "bicolor", "homology",
             "switch", "apply", "move-r2", "import-pd")
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def stream(seed: int, *names: object) -> random.Random:
    """An independent random stream for one purpose of one seed."""
    return random.Random(":".join(map(str, (seed,) + names)))


# ---------------------------------------------------------------------------
# Input generators.  They never call regioncc.

def cyclic_pd(n: int, rng: random.Random) -> list[list[int]]:
    """Torus-family planar-diagram code with shuffled crossings and labels.

    Crossing i is (i, n+i+1, i+1, n+i) with labels taken mod 2n in 1..2n.
    It embeds on the torus with n regions; for even n the incidence rank
    is n - 1 and, since every region touches an even number of
    crossings an odd number of times, a crossing set is admissible
    exactly when it has even size.
    """
    names = list(range(1, 2 * n + 1))
    rng.shuffle(names)

    def label(x: int) -> int:
        return names[(x - 1) % (2 * n)]

    code = [[label(i), label(n + i + 1), label(i + 1), label(n + i)]
            for i in range(1, n + 1)]
    rng.shuffle(code)
    return code


def pd_shadow(code: list[list[int]]) -> tuple[tuple[int, int], ...]:
    """Dart pairs of a PD code: what import_pd turns into edges."""
    first: dict[int, int] = {}
    pairs = []
    for i, crossing in enumerate(code):
        for k, label in enumerate(crossing):
            if label in first:
                pairs.append((first.pop(label), 4 * i + k))
            else:
                first[label] = 4 * i + k
    return tuple(sorted(pairs))


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a >> 2].append(b >> 2)
        adj[b >> 2].append(a >> 2)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def random_pairing(n: int, neg_prob: float, rng: random.Random) -> dict:
    """Diagram document drawn like regioncc.random_diagram(n, neg_prob).

    A uniform pairing of the 4n darts, redrawn until connected, then
    edge signs (-1 with probability neg_prob) and fair over flags.
    """
    darts = list(range(4 * n))
    while True:
        rng.shuffle(darts)
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(darts[::2], darts[1::2]))
        if _connected(n, pairs):
            break
    signs = [-1 if rng.random() < neg_prob else 1 for _ in pairs]
    overs = [rng.randrange(2) for _ in range(n)]
    return {
        "crossings": [{"rotation": [4 * i + k for k in range(4)], "over": o}
                      for i, o in enumerate(overs)],
        "edges": [{"darts": list(p), "sign": s} for p, s in zip(pairs, signs)],
    }


def doc_shadow(doc: dict) -> tuple:
    """The shadow of a document: its edges, over flags ignored."""
    if "pd" in doc:
        return pd_shadow(doc["pd"])
    return tuple((tuple(e["darts"]), e["sign"]) for e in doc["edges"])


def family_doc(family: str, n: int, rng: random.Random) -> dict:
    if family == "torus":
        return {"pd": cyclic_pd(n, rng)}
    return random_pairing(n, GENUS_NEG_PROB, rng)


def dumps(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Small helpers shared by operations and checks.

def region_effect(d, regions) -> list[int]:
    """Crossings switched by the regions, read off the face corners.

    This never touches the incidence matrix, so it checks apply_rcc,
    admissible and rcc_equivalent from outside.
    """
    fs = faces(d)
    effect = [0] * d.crossing_count
    for rid in set(regions):
        for v, count in enumerate(fs.regions[rid].corner_counts):
            effect[v] ^= count & 1
    return effect


def switched_by(d, other) -> list[int]:
    return [i for i, (a, b) in enumerate(zip(d.overs, other.overs)) if a != b]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_certificate(d, cert, target) -> None:
    expect(switched_by(d, apply_rcc(d, cert)) == sorted(target),
           "certificate does not switch exactly its target")


def check_witness(d, witness, target) -> None:
    expect(witness.switched(d) == tuple(sorted(target)),
           "bi-coloring witness switches other crossings")
    expect(phi_class(d, witness).bits == 0, "witness class is not zero")


def poke_site(d, rng: random.Random) -> tuple[int, int]:
    """A dart pair that reidemeister_two accepts, found in O(darts)."""
    fs = faces(d)
    for _ in range(1000):
        da = rng.randrange(d.dart_count)
        f = fs.plus_face[da]
        sides = (f, fs.face_partner[f])
        options = [db for db in range(d.dart_count)
                   if fs.plus_face[db] in sides and d.edge_of(db) != d.edge_of(da)]
        if options:
            return da, rng.choice(options)
    raise RuntimeError("no poke site found")


def build_tables(doc: str, span):
    """Parse a document and build every derived table in dependency order.

    The package caches each table per shadow, so every span holds only
    its own layer's work.
    """
    with span("scheme.parse"):
        d = parse_diagram(doc)
    with span("scheme.cover"):
        orientation_double_cover(d)
    with span("scheme.faces"):
        faces(d)
    with span("scheme.components"):
        components(d)
    with span("homology.context"):
        homology_context(d)
    with span("homology.matrix"):
        homology_matrix(d)
    with span("rcc.incidence"):
        incidence_matrix(d)
    # Everything verify_rank_formula reads is cached by now except the
    # elimination of the incidence matrix.
    with span("gf2.rank"):
        report = verify_rank_formula(d)
    return d, report


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(rep, span), then per operation prepare(i),
# op(item, span) and check(item, result, span); only op is timed.  Setup
# runs again at fixed points of a run and replaces the state it made.

class SolveWorkload:
    """Cold solves: a fresh, never seen shadow per operation.

    An operation parses the document, runs the ``info`` analysis
    (surface, components, verify_rank_formula, count_classes) and answers
    one 3-crossing admissible query by both routes.
    """

    def __init__(self, family: str, seed: int, ops: int):
        self.family = family
        self.seed = seed
        self.ops = ops
        self.n = SOLVE_CROSSINGS

    def make_input(self, rng: random.Random) -> tuple[str, list[int], tuple]:
        doc = family_doc(self.family, self.n, rng)
        return dumps(doc), rng.sample(range(self.n), 3), doc_shadow(doc)

    def inputs(self) -> list[tuple[str, list[int], tuple]]:
        rng = stream(self.seed, self.family, "ops")
        return [self.make_input(rng) for _ in range(self.ops)]

    def setup(self, rep: int, span) -> None:
        self.items = self.inputs()
        shadows = {shadow for _, _, shadow in self.items}
        expect(len(shadows) == len(self.items), "two operations share a shadow")
        doc, target, shadow = self.make_input(stream(self.seed, self.family, "warm", rep))
        expect(shadow not in shadows, "warm-up shadow repeats an operation's")
        self.check_result(self.solve(doc, target, span), target)

    def sweep_docs(self, count: int) -> list[str]:
        rng = stream(self.seed, self.family, "sweep")
        return [self.make_input(rng)[0] for _ in range(count)]

    def solve(self, doc: str, target: list[int], span):
        d, report = build_tables(doc, span)
        info = surface_info(d)
        classes = count_classes(d)
        with span("rcc.admissible"):
            cert = admissible(d, target)
        with span("bicolor.admissible"):
            ok, witness = admissible_by_bicoloring(d, target)
        return d, report, info, classes, cert, ok, witness

    def prepare(self, i: int):
        return self.items[i]

    def op(self, item, span):
        doc, target, _ = item
        return self.solve(doc, target, span)

    def check(self, item, result, span) -> None:
        self.check_result(result, item[1])

    def check_result(self, result, target) -> None:
        d, report, info, classes, cert, ok, witness = result
        n = self.n
        expect(report.holds, "rank identity fails")
        expect(classes == n - report.incidence_rank, "class exponent is not n - rank")
        expect((cert is not None) == ok, "the two admissibility routes disagree")
        expect(homology_context(d).h1_dim == info.h1_dim,
               "h1 from the homology quotient differs from 2 - chi")
        if self.family == "torus":
            expect(report.region_count == n, "torus diagram does not have n regions")
            expect(report.incidence_rank == n - 1, "torus incidence rank is not n - 1")
            expect(info.h1_dim == 2, "torus h1 is not 2")
            expect(ok == (len(target) % 2 == 0), "torus admissibility is not target parity")
        if cert is not None:
            check_certificate(d, cert, target)
            check_witness(d, witness, target)


QUERY_KINDS = ("admissible_image", "admissible_random", "equivalent",
               "bicolor", "ineffective", "apply")


class QueryWorkload:
    """Warm queries on a 512-crossing torus-family diagram.

    Each setup builds a fresh diagram with its face trace and homology,
    and the operations after it query that diagram.  Each operation is one
    query from a mix with a fixed count of every kind, in seeded order.
    """

    def __init__(self, seed: int, ops: int):
        self.seed = seed
        self.ops = ops
        self.n = SESSION_CROSSINGS

    def setup(self, rep: int, span) -> None:
        rng = stream(self.seed, "session", rep)
        self.d, report = build_tables(dumps({"pd": cyclic_pd(self.n, rng)}), span)
        count_classes(self.d)
        expect(report.incidence_rank == self.n - 1, "session incidence rank is not n - 1")
        r = report.region_count
        kinds = [QUERY_KINDS[i % len(QUERY_KINDS)] for i in range(self.ops)]
        rng.shuffle(kinds)
        self.items = []
        # Half the bi-coloring targets are images, and random targets
        # alternate between even (admissible) and odd size, so every seed
        # has the same share of yes and no answers.
        seen = {kind: 0 for kind in QUERY_KINDS}
        for kind in kinds:
            seen[kind] += 1
            regions = rng.sample(range(r), rng.randint(1, 8))
            effect = region_effect(self.d, regions)
            image = [v for v, bit in enumerate(effect) if bit]
            if kind == "admissible_image" or (kind == "bicolor" and seen[kind] % 2):
                arg = image
            elif kind in ("admissible_random", "bicolor"):
                size = 2 * rng.randint(1, 4) - seen[kind] // 2 % 2
                arg = rng.sample(range(self.n), size)
            elif kind == "equivalent":
                arg = self.d.with_overs(o ^ e for o, e in zip(self.d.overs, effect))
            elif kind == "apply":
                arg = (regions, image)
            else:
                arg = None
            self.items.append((kind, arg))

    def prepare(self, i: int):
        return self.items[i]

    def op(self, item, span):
        kind, arg = item
        d = self.d
        if kind in ("admissible_image", "admissible_random"):
            with span("rcc.admissible"):
                return admissible(d, arg)
        if kind == "bicolor":
            with span("bicolor.admissible"):
                return admissible_by_bicoloring(d, arg)
        if kind == "equivalent":
            with span("rcc.equivalent"):
                return rcc_equivalent(d, arg)
        if kind == "ineffective":
            with span("rcc.ineffective"):
                return ineffective_basis(d)
        with span("rcc.apply"):
            return apply_rcc(d, arg[0])

    def check(self, item, result, span) -> None:
        kind, arg = item
        d = self.d
        if kind in ("admissible_image", "admissible_random"):
            expect((result is not None) == (len(arg) % 2 == 0),
                   "admissibility is not target parity")
            if result is not None:
                check_certificate(d, result, arg)
        elif kind == "bicolor":
            ok, witness = result
            expect(ok == (len(arg) % 2 == 0), "bi-coloring admissibility is not target parity")
            if ok:
                check_witness(d, witness, arg)
        elif kind == "equivalent":
            expect(result is not None, "switched copy is not equivalent")
            expect(apply_rcc(d, result).overs == arg.overs,
                   "equivalence certificate does not reach the copy")
        elif kind == "ineffective":
            expect(len(result) == 1, "ineffective basis size is not regions - rank")
            for v in result:
                expect(v.bits != 0 and apply_rcc(d, v.support()).overs == d.overs,
                       "ineffective region set switches a crossing")
        else:
            expect(switched_by(d, result) == sorted(arg[1]),
                   "apply_rcc switched other crossings than the face corners say")

    def sweep_docs(self, count: int) -> list[str]:
        rng = stream(self.seed, "session", "sweep")
        return [dumps({"pd": cyclic_pd(self.n, rng)}) for _ in range(count)]


def run_in_process(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Run cli.main as the regioncc command would, capturing stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# Runs regioncc.cli the way `python -m regioncc.cli` does and writes the
# child's own peak resident set (VmHWM) to stderr at exit.  The child's
# ru_maxrss cannot serve: Linux carries the parent's resident set at fork
# over into it, so it would measure this harness.
CLI_LAUNCHER = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(l for l in status if l.startswith("VmHWM:")))
atexit.register(peak)
runpy.run_module("regioncc.cli", run_name="__main__", alter_sys=True)
"""


def child_peak_kb(stderr: bytes) -> int:
    field, value, unit = stderr.decode().splitlines()[-1].split()
    expect(field == "VmHWM:" and unit == "kB", "child did not report its peak memory")
    return int(value)


def run_child(args: list[str], stdin_text: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], input=stdin_text.encode(),
                          capture_output=True, env=CHILD_ENV, cwd=ROOT,
                          timeout=120, check=False)


class CliChain:
    """A seeded chain of regioncc commands over a few document slots.

    Slots 0 and 1 start as torus-family PD documents and slots 2 and 3
    as random-pairing documents, of 64 and 128 crossings.  The sizes are
    fixed, and each command kind visits the slots in turn, so every seed
    runs the same mix of kinds, families and sizes.  Every command reads
    its document from stdin; the stdout of a write replaces the document
    of its slot, so a later read consumes it.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.slots = [dumps(family_doc(family, n, rng))
                      for family in CLI_FAMILIES for n in CLI_CROSSINGS]
        self.turns = dict.fromkeys(CLI_KINDS, 0)

    def step(self, kind: str) -> tuple[list[str], str, int | None]:
        """argv, stdin and the slot the output replaces (None for reads)."""
        rng = self.rng
        turn = self.turns[kind]
        self.turns[kind] += 1
        if kind == "import-pd":
            slot = turn % len(CLI_CROSSINGS)
            return [kind, "-"], dumps(cyclic_pd(CLI_CROSSINGS[slot], rng)), slot
        slot = turn % len(self.slots)
        doc = self.slots[slot]
        raw = json.loads(doc)
        c = len(raw["pd"] if "pd" in raw else raw["crossings"])
        if kind in ("info", "verify", "homology"):
            return [kind, "-"], doc, None
        if kind in ("admissible", "bicolor"):
            crossings = ",".join(map(str, rng.sample(range(c), 3)))
            return [kind, "-", "-c", crossings], doc, None
        if kind == "switch":
            return [kind, "-", "-i", str(rng.randrange(c))], doc, slot
        d = parse_diagram(doc)
        if kind == "apply":
            r = faces(d).region_count
            regions = rng.sample(range(r), rng.randint(1, min(4, r)))
            return [kind, "-", "-r", ",".join(map(str, regions))], doc, slot
        if kind == "move-r2":
            da, db = poke_site(d, rng)
            return [kind, "-", "-d", f"{da},{db}"], doc, slot
        raise ValueError(f"unknown command kind {kind}")

    def accept(self, slot: int | None, stdout: str) -> None:
        if slot is not None:
            self.slots[slot] = stdout


class CliWorkload:
    """Each operation runs one regioncc command as its own interpreter."""

    def __init__(self, seed: int, ops: int):
        self.seed = seed
        self.ops = ops
        self.peak_kb = 0

    def setup(self, rep: int, span) -> None:
        self.chain = CliChain(stream(self.seed, "cli", "chain"))
        kinds = [CLI_KINDS[i % len(CLI_KINDS)] for i in range(self.ops)]
        stream(self.seed, "cli", "order").shuffle(kinds)
        self.kinds = kinds
        probe = run_child(["-c", "import regioncc; print(regioncc.__file__)"])
        expect(probe.returncode == 0, "child interpreter cannot import regioncc")
        expect(Path(probe.stdout.decode().strip()).resolve().parent == SRC / "regioncc",
               "child interpreter imports regioncc from outside src/")

    def prepare(self, i: int):
        return self.chain.step(self.kinds[i])

    def op(self, item, span):
        argv, stdin_text, _ = item
        return run_child(["-c", CLI_LAUNCHER, *argv], stdin_text)

    def check(self, item, result, span) -> None:
        argv, stdin_text, slot = item
        with span(f"cli.main.{argv[0]}"):
            code, stdout = run_in_process(argv, stdin_text)
        expect(result.returncode == 0, f"regioncc {argv[0]} exited {result.returncode}")
        expect(code == 0, f"in-process regioncc {argv[0]} returned {code}")
        expect(result.stdout == stdout.encode() and stdout,
               f"regioncc {argv[0]} stdout differs from in-process cli.main")
        self.peak_kb = max(self.peak_kb, child_peak_kb(result.stderr))
        self.chain.accept(slot, stdout)

    def sweep_docs(self, count: int) -> list[str]:
        rng = stream(self.seed, "cli", "sweep")
        return [dumps(family_doc(CLI_FAMILIES[k % 2], CLI_CROSSINGS[1], rng))
                for k in range(count)]


def make_workload(name: str, seed: int, ops: int):
    if name == "torus_solve":
        return SolveWorkload("torus", seed, ops)
    if name == "genus_solve":
        return SolveWorkload("genus", seed, ops)
    if name == "query_session":
        return QueryWorkload(seed, ops)
    if name == "cli_session":
        return CliWorkload(seed, ops)
    raise ValueError(f"unknown workload {name}")


# ---------------------------------------------------------------------------
# The traced sweeps: every layer once, for the per-layer metrics.

def layer_sweep(doc: str, rng: random.Random, span, counts: dict) -> None:
    """Call every library layer once on a fresh shadow and check the answers."""
    d, report = build_tables(doc, span)
    r = report.region_count
    regions = rng.sample(range(r), rng.randint(1, min(8, r)))
    effect = region_effect(d, regions)
    image = [v for v, bit in enumerate(effect) if bit]
    probe = rng.sample(range(d.crossing_count), min(3, d.crossing_count))
    answers = []
    for target in (image, probe):
        with span("rcc.admissible"):
            cert = admissible(d, target)
        with span("bicolor.admissible"):
            ok, _ = admissible_by_bicoloring(d, target)
        expect((cert is not None) == ok, "the two admissibility routes disagree")
        answers.append(ok)
    expect(answers[0], "an image of a region set is not admissible")
    copy = d.with_overs(o ^ e for o, e in zip(d.overs, effect))
    with span("rcc.equivalent"):
        cert = rcc_equivalent(d, copy)
    expect(cert is not None, "switched copy is not equivalent")
    with span("rcc.ineffective"):
        basis = ineffective_basis(d)
    expect(len(basis) == r - report.incidence_rank, "ineffective basis size is not regions - rank")
    with span("rcc.apply"):
        switched = apply_rcc(d, regions)
    expect(switched.overs == copy.overs, "apply_rcc disagrees with the face corners")
    with span("scheme.serialize"):
        serialize_diagram(d)
    site = poke_site(d, rng)
    with span("moves.r2"):
        reidemeister_two(d, R2Spec(*site))
    with span("moves.switch"):
        switch_crossing(d, rng.randrange(d.crossing_count))
    for name, value in (("scheme.regions", r),
                        ("scheme.components", report.component_count),
                        ("homology.h1_dim", homology_context(d).h1_dim),
                        ("homology.rank", report.homology_rank),
                        ("rcc.incidence_rank", report.incidence_rank),
                        ("rcc.admissible_yes", sum(answers)),
                        ("rcc.admissible_queries", len(answers))):
        counts[name] = counts.get(name, 0) + value


IMPORT_PROBE = ("import time; t = time.perf_counter(); import regioncc.cli; "
                "print(time.perf_counter() - t)")


def cli_sweep(seed: int, repeats: int, span) -> None:
    """Interpreter start, package import and one in-process run per command."""
    for _ in range(repeats):
        with span("cli.interp"):
            expect(run_child(["-c", "pass"]).returncode == 0, "bare interpreter failed")
        probe = run_child(["-c", IMPORT_PROBE])
        expect(probe.returncode == 0, "child interpreter cannot import regioncc.cli")
        span.record("cli.import", float(probe.stdout))
    chain = CliChain(stream(seed, "cli", "sweep-chain"))
    for kind in CLI_KINDS:
        argv, stdin_text, slot = chain.step(kind)
        with span(f"cli.main.{kind}"):
            code, stdout = run_in_process(argv, stdin_text)
        expect(code == 0, f"in-process regioncc {kind} returned {code}")
        chain.accept(slot, stdout)
