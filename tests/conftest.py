"""Shared fixtures, frozen expectations, and independent oracles.

The oracles recompute answers by brute force or by a structurally
different route, so the tests never check the package against itself.
Frozen values were derived by hand before the implementation existed.
"""

from __future__ import annotations

import json
import random
import warnings
from operator import itemgetter

import pytest

from regioncc import (DiagramFormatError, Edge, EmbeddingScheme,
                      InvalidDiagramError, Shadow, class_of, components, faces,
                      homology_matrix, incidence_matrix, import_pd,
                      orientation_double_cover, random_diagram, surface_info,
                      verify_rank_formula)
from regioncc.gf2 import BitMatrix, BitVector
from regioncc.scheme import _decode_json, _on_shadow

# Hypothesis reports a failing example through hypothesis.extra._patching,
# which imports libcst where it is installed, and that import warns.  Under
# filterwarnings = error the warning would end the run as an internal
# error; imported once here, quietly, the module is cached and a failing
# property test is reported like any other failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


# ---------------------------------------------------------------------------
# Hand-built one-crossing diagrams and a classic knot.

def make_curl() -> EmbeddingScheme:
    """Kink on the sphere: both edges are untwisted loops."""
    return EmbeddingScheme((0,), (Edge((0, 1), 1), Edge((2, 3), 1)))


def make_torus11() -> EmbeddingScheme:
    """Two curves crossing once on the torus."""
    return EmbeddingScheme((0,), (Edge((0, 2), 1), Edge((1, 3), 1)))


def make_rp2curl() -> EmbeddingScheme:
    """Kink on the projective plane: one loop runs through the cross-cap."""
    return EmbeddingScheme((0,), (Edge((0, 1), -1), Edge((2, 3), 1)))


TREFOIL_PD = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]

# Two circles clasped twice, read off counterclockwise circles side by
# side; crossings 0 and 1 are the two inter-component points.
HOPF_PD = [(2, 4, 1, 3), (1, 4, 2, 3)]

# Three circles in a row, each clasping the next: crossings 0,1 join
# the left pair, 2,3 the right pair, and the end circles never meet.
CHAIN3_PD = [(2, 3, 1, 4), (1, 5, 2, 4), (6, 8, 3, 7), (5, 8, 6, 7)]


def make_trefoil() -> EmbeddingScheme:
    return import_pd(TREFOIL_PD)


@pytest.fixture
def curl() -> EmbeddingScheme:
    return make_curl()


@pytest.fixture
def torus11() -> EmbeddingScheme:
    return make_torus11()


@pytest.fixture
def rp2curl() -> EmbeddingScheme:
    return make_rp2curl()


@pytest.fixture
def trefoil() -> EmbeddingScheme:
    return make_trefoil()


# Hand-derived profiles: (regions, euler char, orientable, components,
# incidence rank, homology rank, class exponent).
FIXTURE_PROFILES = {
    "curl": (3, 2, True, 1, 1, 0, 0),
    "torus11": (1, 0, True, 2, 0, 2, 1),
    "rp2curl": (2, 1, False, 1, 1, 1, 0),
    "trefoil": (5, 2, True, 1, 3, 0, 0),
}

FIXTURE_MAKERS = {
    "curl": make_curl,
    "torus11": make_torus11,
    "rp2curl": make_rp2curl,
    "trefoil": make_trefoil,
}


# ---------------------------------------------------------------------------
# Worked 6-crossing examples: a 3-component diagram on the torus and a
# 2-component diagram on the Klein bottle.  Ranks were checked by hand
# with row reduction before being frozen here.

TORUS_3COMP_INCIDENCE = [
    (1, 1, 0, 1, 1, 0),
    (1, 1, 0, 0, 0, 1),
    (1, 1, 0, 1, 1, 0),
    (1, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 1),
]
TORUS_3COMP_CLASSES = [(1, 0), (1, 0), (1, 0)]
TORUS_3COMP_RANKS = (3, 1)
TORUS_3COMP_SHAPE = (6, 3)  # regions, components

KLEIN_2COMP_INCIDENCE = [
    (1, 1, 0, 1, 1, 0),
    (1, 1, 0, 0, 0, 1),
    (1, 0, 1, 1, 1, 0),
    (1, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 1, 0),
    (0, 1, 1, 1, 1, 1),
]
KLEIN_2COMP_CLASSES = [(1, 0), (0, 0)]
KLEIN_2COMP_RANKS = (4, 1)
KLEIN_2COMP_SHAPE = (6, 2)


def as_matrix(rows) -> BitMatrix:
    """A matrix from rows of 0/1 entries; entry j of a row is bit j."""
    rows = [tuple(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged rows"
    return BitMatrix.from_bitrows(
        [sum(bit << j for j, bit in enumerate(row)) for row in rows], cols)


# ---------------------------------------------------------------------------
# Frozen violation lists, recorded before validation was merged into one
# pass.  Each entry is (raw crossings, raw edges, violations) for
# ``validate``; the CLI must print the same list, joined by "; ".

VALIDATE_VIOLATIONS = {
    "many-faults": (
        [([0, 2, 1, 3], 2), ([4, 5, 6, 7], 0)],
        [((0, 1), 1), ((1, 9), 0), ((3, 3), 1), ((4, 5), 1), ((6, 7), -1)],
        ["crossing 0: rotation must be [0, 1, 2, 3]",
         "crossing 0: over flag must be 0 or 1",
         "edge 1: sign must be +1 or -1",
         "dart 1 appears in edges 0 and 1",
         "edge 1: dart 9 out of range",
         "edge 2: self-paired dart 3",
         "expected 4 edges for 2 crossings, got 5"]),
    "rotation-and-disconnected": (
        [([0, 2, 1, 3], 0), ([4, 5, 6, 7], 0)],
        [((0, 1), 1), ((2, 3), 1), ((4, 5), 1), ((6, 7), -1)],
        ["crossing 0: rotation must be [0, 1, 2, 3]",
         "diagram is disconnected"]),
    "disconnected": (
        [([0, 1, 2, 3], 0), ([4, 5, 6, 7], 1)],
        [((0, 1), 1), ((2, 3), 1), ((4, 5), 1), ((6, 7), -1)],
        ["diagram is disconnected"]),
    "zero-crossings": ([], [], ["diagram must have at least one crossing"]),
    "zero-crossings-with-edges": (
        [], [((0, 1), 1)], ["diagram must have at least one crossing"]),
}

# The same for EmbeddingScheme: (overs, edges as (darts, sign), violations).
SCHEME_VIOLATIONS = {
    "many-faults": (
        (0, 3, -1),
        [((0, 1), 1), ((2, 2), 5), ((1, 5), 1), ((6, 17), 1)],
        ["crossing 1: over flag must be 0 or 1",
         "crossing 2: over flag must be 0 or 1",
         "edge 1: sign must be +1 or -1",
         "edge 1: self-paired dart 2",
         "dart 1 appears in edges 0 and 2",
         "edge 3: dart 17 out of range",
         "expected 6 edges for 3 crossings, got 4"]),
    "over-and-sign": (
        (0, 3),
        [((0, 1), 1), ((2, 3), 5), ((4, 5), 1), ((6, 7), 1)],
        ["crossing 1: over flag must be 0 or 1",
         "edge 1: sign must be +1 or -1"]),
    "disconnected": (
        (0, 0),
        [((0, 1), 1), ((2, 3), 1), ((4, 5), 1), ((6, 7), 1)],
        ["diagram is disconnected"]),
    "zero-crossings": ((), [], ["diagram must have at least one crossing"]),
    "zero-crossings-with-edges": (
        (), [((0, 1), 1)], ["diagram must have at least one crossing"]),
}

# Entries that do not unpack as (rotation, over) or ((dart, dart), sign)
# are violations too, named by their crossing or edge.  The CLI never
# passes them on, because parse_diagram checks shapes first.
MALFORMED_VALIDATE_VIOLATIONS = {
    "three-darts": (
        [([0, 1, 2, 3], 0)], [((0, 1, 2), 1), ((2, 3), 1)],
        ["edge 0: must be ((dart, dart), sign)"]),
    "none-edge": (
        [([0, 1, 2, 3], 0)], [None, ((2, 3), 1)],
        ["edge 0: must be ((dart, dart), sign)"]),
    "none-rotation": (
        [(None, 1)], [((0, 1), 1), ((2, 3), 1)],
        ["crossing 0: rotation must be [0, 1, 2, 3]"]),
    "bare-crossing": (
        [5], [((0, 1), 1), ((2, 3), 1)],
        ["crossing 0: rotation must be [0, 1, 2, 3]",
         "crossing 0: over flag must be 0 or 1"]),
    "beside-others": (
        [(None, 2), ([4, 5, 6, 7], 0)],
        [((0, 1, 2), 1), ((3, 3), 5), 7, ((4, 5), 1), ((6, 7), 1)],
        ["crossing 0: rotation must be [0, 1, 2, 3]",
         "crossing 0: over flag must be 0 or 1",
         "edge 0: must be ((dart, dart), sign)",
         "edge 1: sign must be +1 or -1",
         "edge 1: self-paired dart 3",
         "edge 2: must be ((dart, dart), sign)",
         "expected 4 edges for 2 crossings, got 5"]),
}

MALFORMED_SCHEME_VIOLATIONS = {
    "three-darts": (
        (0,), [((0, 1, 2), 1), ((2, 3), 1)],
        ["edge 0: must be ((dart, dart), sign)"]),
    "int-darts": (
        (0,), [(5, 1), ((2, 3), 1)],
        ["edge 0: must be ((dart, dart), sign)"]),
    "beside-others": (
        (0, 2), [((0, 1), 1), ((1, 2, 3), 1), (5, -1), ((1, 9), 0)],
        ["crossing 1: over flag must be 0 or 1",
         "edge 1: must be ((dart, dart), sign)",
         "edge 2: must be ((dart, dart), sign)",
         "edge 3: sign must be +1 or -1",
         "dart 1 appears in edges 0 and 3",
         "edge 3: dart 9 out of range"]),
}


def violation_document(crossings, edges) -> dict:
    """The diagram document holding ``validate``'s raw data."""
    return {"crossings": [{"rotation": rot, "over": over} for rot, over in crossings],
            "edges": [{"darts": list(darts), "sign": sign} for darts, sign in edges]}


# ---------------------------------------------------------------------------
# Document oracles.  The reference parser checks each entry's keys and
# types, then hands raw tuples to ``reference_validate``, a frozen copy
# of the structural check, so the oracle shares no validation code with
# the package; the reference writer is the standard library's indented
# encoder.  ``parse_diagram`` and ``serialize_diagram`` must
# match them exactly: result, exception class and message, and bytes.

def reference_validate(crossings, edges) -> EmbeddingScheme:
    """``validate`` as frozen: the same violations, in the same order.

    Whole lists in, every entry checked in one pass over each; the tables
    it fills become the diagram's shadow, built without the package's
    structural pass.
    """
    problems, overs = [], []
    for i, crossing in enumerate(crossings):
        over = None
        try:
            rotation, over = crossing
            fits = (list(rotation) == [4 * i + k for k in range(4)]
                    and all(type(x) is int for x in rotation))
        except (TypeError, ValueError):
            fits = False
        if not fits:
            problems.append(f"crossing {i}: rotation must be {[4 * i + k for k in range(4)]}")
        overs.append(over)
    overs, edges = tuple(overs), tuple(edges)
    c = len(overs)
    if c == 0:
        raise InvalidDiagramError(problems + ["diagram must have at least one crossing"])
    found = [f"crossing {i}: over flag must be 0 or 1"
             for i, o in enumerate(overs) if o not in (0, 1) or type(o) is not int]
    n_darts = 4 * c
    edge_of, cover = [-1] * n_darts, [0] * (2 * n_darts)
    checked = []
    for j, edge in enumerate(edges):
        try:
            (a, b), sign = edge
        except (TypeError, ValueError):
            found.append(f"edge {j}: must be ((dart, dart), sign)")
            continue
        checked.append(Edge((a, b), sign))
        sound = len(found)
        if sign not in (1, -1) or type(sign) is not int:
            found.append(f"edge {j}: sign must be +1 or -1")
        if a == b:
            found.append(f"edge {j}: self-paired dart {a}")
        for d in ((a,) if a == b else (a, b)):
            if type(d) is not int:
                found.append(f"edge {j}: dart {d!r} must be an integer")
            elif not 0 <= d < n_darts:
                found.append(f"edge {j}: dart {d} out of range")
            elif edge_of[d] >= 0:
                found.append(f"dart {d} appears in edges {edge_of[d]} and {j}")
            else:
                edge_of[d] = j
        if len(found) == sound:   # no fault named: lift the edge
            x, y = 2 * a, 2 * b + (sign < 0)
            cover[x], cover[y], cover[x + 1], cover[y ^ 1] = y, x, y ^ 1, x + 1
    if len(edges) != 2 * c:
        found.append(f"expected {2 * c} edges for {c} crossings, got {len(edges)}")
    if found:
        raise InvalidDiagramError(problems + found)
    # A sheet per crossing, searched over the sheet-0 lifts of its darts.
    sheet = [-1] * c
    sheet[0] = 0
    seen, orientable = [0], True
    for v in seen:
        for y in cover[8 * v:8 * v + 8:2]:
            w, s = y >> 3, sheet[v] ^ (y & 1)
            if sheet[w] < 0:
                sheet[w] = s
                seen.append(w)
            elif sheet[w] != s:
                orientable = False
    if problems or len(seen) != c:
        raise InvalidDiagramError(problems + ([] if len(seen) == c
                                              else ["diagram is disconnected"]))
    return _on_shadow(overs, Shadow(tuple(checked), orientable, tuple(edge_of),
                                    tuple(cover)))


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if set(obj) != keys:
        raise DiagramFormatError(
            f"{what} must have exactly the keys {sorted(keys)}, got {sorted(obj)}")


def reference_import_pd(code) -> EmbeddingScheme:
    """A planar-diagram code in two steps: pair the labels, then ``reference_validate``.

    Edges are numbered by the first sighting of their label and every
    over flag is 1; the structural check runs on the pairs as on any
    crossings-and-edges data.
    """
    if not isinstance(code, (list, tuple)):
        raise DiagramFormatError("pd must be a list of 4-label crossings")
    if len(code) == 0:
        raise DiagramFormatError("pd code must list at least one crossing")
    for i, labels in enumerate(code):
        if not isinstance(labels, (list, tuple)) or len(labels) != 4:
            raise DiagramFormatError(f"pd crossing {i} must list exactly 4 labels")
    kinds = {type(label) for labels in code for label in labels}
    if kinds - {int, str}:
        bad = next(label for labels in code for label in labels
                   if type(label) not in (int, str))
        raise DiagramFormatError(f"pd label {bad!r} must be an integer or a string")
    if len(kinds) > 1:
        raise DiagramFormatError("pd labels must be all integers or all strings")
    first_seen: dict[object, int] = {}
    pairs: dict[object, tuple[int, int]] = {}
    order: list[object] = []
    for i, labels in enumerate(code):
        for k, label in enumerate(labels):
            dart = 4 * i + k
            if label in pairs:
                raise DiagramFormatError(f"pd label {label!r} occurs more than twice")
            if label in first_seen:
                pairs[label] = (first_seen.pop(label), dart)
            else:
                first_seen[label] = dart
                order.append(label)
    if first_seen:
        missing = ", ".join(repr(l) for l in sorted(first_seen, key=repr))
        raise DiagramFormatError(f"pd labels occurring once: {missing}")
    crossings = [([4 * i + k for k in range(4)], 1) for i in range(len(code))]
    return reference_validate(crossings, [(pairs[label], 1) for label in order])


def reference_parse_diagram(text: str) -> EmbeddingScheme:
    """Parse a diagram document (strict; unknown keys are rejected).

    Two top-level shapes are accepted:
      {"crossings": [{"rotation": [...], "over": 0|1}, ...],
       "edges": [{"darts": [a, b], "sign": 1|-1}, ...]}
    or {"pd": [[a, b, c, d], ...]}.
    """
    doc = _decode_json(text)
    if not isinstance(doc, dict):
        raise DiagramFormatError("top-level document must be an object")
    if set(doc) == {"pd"}:
        return reference_import_pd(doc["pd"])
    _require_keys(doc, {"crossings", "edges"}, "diagram document")
    if not isinstance(doc["crossings"], list) or not isinstance(doc["edges"], list):
        raise DiagramFormatError("crossings and edges must be lists")
    raw_crossings = []
    for i, entry in enumerate(doc["crossings"]):
        if not isinstance(entry, dict):
            raise DiagramFormatError(f"crossing {i} must be an object")
        _require_keys(entry, {"rotation", "over"}, f"crossing {i}")
        rot = entry["rotation"]
        if (not isinstance(rot, list) or len(rot) != 4
                or not all(type(x) is int for x in rot)):
            raise DiagramFormatError(f"crossing {i}: rotation must be a list of 4 dart ids")
        if type(entry["over"]) is not int:
            raise DiagramFormatError(f"crossing {i}: over must be an integer")
        raw_crossings.append((rot, entry["over"]))
    raw_edges = []
    for j, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise DiagramFormatError(f"edge {j} must be an object")
        _require_keys(entry, {"darts", "sign"}, f"edge {j}")
        darts = entry["darts"]
        if (not isinstance(darts, list) or len(darts) != 2
                or not all(type(x) is int for x in darts)):
            raise DiagramFormatError(f"edge {j}: darts must be a list of 2 dart ids")
        if type(entry["sign"]) is not int:
            raise DiagramFormatError(f"edge {j}: sign must be an integer")
        raw_edges.append(((darts[0], darts[1]), entry["sign"]))
    return reference_validate(raw_crossings, raw_edges)


def reference_serialize_diagram(d: EmbeddingScheme) -> str:
    """Serialize a scheme; the output parses back to an equal scheme."""
    doc = {
        "crossings": [
            {"rotation": [4 * i + k for k in range(4)], "over": d.overs[i]}
            for i in range(d.crossing_count)
        ],
        "edges": [
            {"darts": [e.darts[0], e.darts[1]], "sign": e.sign}
            for e in d.edges
        ],
    }
    return json.dumps(doc, indent=2)


def parse_outcome(parse, text: str):
    """What a parser makes of a document: the checked diagram's fields, or
    the exception's class and message."""
    try:
        d = parse(text)
    except Exception as err:  # the class is part of the outcome
        return type(err), str(err), getattr(err, "violations", None)
    shadow = d.shadow
    return (d.overs, tuple(map(type, d.edges)), d.edges,
            tuple(map(d.theta, range(d.dart_count))),
            shadow.edge_of, shadow.cover, shadow.orientable)


def json_shaped(table) -> dict:
    """The entries of a violation table that make a diagram document."""
    docs = {}
    for name, (crossings, edges, _) in table.items():
        try:
            docs[name] = violation_document(crossings, edges)
        except (TypeError, ValueError):
            continue
    return docs


def shift_switched(d: EmbeddingScheme, regions) -> int:
    """Crossing bits switched by the regions, one shifted bit per corner."""
    all_regions = d.shadow.faces.regions
    effect = 0
    for rid in regions:
        for v in all_regions[rid].corners:
            effect ^= 1 << v
    return effect


# ---------------------------------------------------------------------------
# Planar knot codes: the twisted two-strand family plus a handful of
# small knots from standard tables.

def twisted_pair_pd(n: int) -> list[tuple[int, int, int, int]]:
    """Alternating two-strand braid closure with n crossings (n odd)."""
    wrap = lambda x: ((x - 1) % (2 * n)) + 1
    return [(wrap(2 * j), wrap(2 * j + n + 1), wrap(2 * j + 1), wrap(2 * j + n))
            for j in range(1, n + 1)]


def mirror_pd(code):
    return [(a, d, c, b) for a, b, c, d in code]


SMALL_KNOT_PDS = {
    "3_1": [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
    "4_1": [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)],
    "5_1": [(1, 6, 2, 7), (3, 8, 4, 9), (5, 10, 6, 1), (7, 2, 8, 3),
            (9, 4, 10, 5)],
    "5_2": [(1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1), (9, 6, 10, 7),
            (7, 2, 8, 3)],
    "6_1": [(1, 4, 2, 5), (7, 10, 8, 11), (3, 9, 4, 8), (9, 3, 10, 2),
            (5, 12, 6, 1), (11, 6, 12, 7)],
    "6_2": [(1, 4, 2, 5), (5, 10, 6, 11), (3, 9, 4, 8), (9, 3, 10, 2),
            (7, 12, 8, 1), (11, 6, 12, 7)],
    "6_3": [(4, 2, 5, 1), (8, 4, 9, 3), (12, 9, 1, 10), (10, 5, 11, 6),
            (6, 11, 7, 12), (2, 8, 3, 7)],
}


def cyclic_pd(n: int) -> list[tuple[int, int, int, int]]:
    """Crossing i is (i, n+i+1, i+1, n+i), labels mod 2n in 1..2n: a torus diagram."""
    label = lambda k: (k - 1) % (2 * n) + 1
    return [(label(i), label(n + i + 1), label(i + 1), label(n + i))
            for i in range(1, n + 1)]


def closure_pd(strands: int, word: list[int]) -> list[tuple[int, int, int, int]]:
    """The closure of a braid word: a planar diagram with regions = crossings + 2.

    Letter i takes the labels a = pos[i] and b = pos[i + 1] to two fresh
    labels and adds the crossing (b, new(i + 1), new(i), a); the final
    labels are then renamed to the starting ones.  The closure is
    connected when every letter in range(strands - 1) occurs.
    """
    pos = list(range(1, strands + 1))
    fresh = strands
    code = []
    for i in word:
        a, b = pos[i], pos[i + 1]
        pos[i], pos[i + 1] = fresh + 1, fresh + 2
        fresh += 2
        code.append((b, pos[i + 1], pos[i], a))
    rename = dict(zip(pos, range(1, strands + 1)))
    return [tuple(rename.get(label, label) for label in x) for x in code]


def braid_pd(strands: int, length: int, seed: int) -> list[tuple[int, int, int, int]]:
    """The closure of a random braid word of the given length."""
    rng = random.Random(seed)
    return closure_pd(strands, [rng.randrange(strands - 1) for _ in range(length)])


def chain_pd(strands: int) -> list[tuple[int, int, int, int]]:
    """The closure of sigma_1^2 ... sigma_{strands-1}^2: a chain of `strands`
    unknotted components, each linked to the next, on 2 * (strands - 1) crossings."""
    return closure_pd(strands, [i for i in range(strands - 1) for _ in range(2)])


def twisted_chain(n: int, seed: int) -> EmbeddingScheme:
    """The chain on n crossings with each edge, in edge order, signed -1 by a
    coin flip: a nonorientable diagram with many components."""
    d = import_pd(chain_pd(n // 2 + 1))
    rng = random.Random(seed)
    edges = tuple(Edge(e.darts, -1 if rng.random() < 0.5 else 1) for e in d.edges)
    return EmbeddingScheme(d.overs, edges)


def planar_knot_pds() -> list[list[tuple[int, int, int, int]]]:
    codes = []
    for n in range(3, 23, 2):
        codes.append(twisted_pair_pd(n))
        codes.append(mirror_pd(twisted_pair_pd(n)))
    codes.extend(SMALL_KNOT_PDS.values())
    return codes


# ---------------------------------------------------------------------------
# Independent oracles.

def row_span(masks) -> set[int]:
    """Every XOR combination of the given bit rows."""
    sums = {0}
    for bits in masks:
        sums |= {s ^ bits for s in sums}
    return sums


def brute_admissible(m: BitMatrix, target_bits: int) -> bool:
    return target_bits in row_span(m.row_bits)


def brute_rank(m: BitMatrix) -> int:
    return len(row_span(m.row_bits)).bit_length() - 1


def monodromy_orientable(d: EmbeddingScheme) -> bool:
    """Orientability by propagating local orientations over a spanning tree.

    The rotation at every crossing is the canonical one, so a cycle
    reverses orientation exactly when its sign product is negative.
    """
    c = d.crossing_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(c)]
    for e in d.edges:
        u, v = e.darts[0] // 4, e.darts[1] // 4
        adj[u].append((v, e.sign))
        adj[v].append((u, e.sign))
    eps = [0] * c
    eps[0] = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v, s in adj[u]:
            if eps[v] == 0:
                eps[v] = eps[u] * s
                stack.append(v)
    return all(e.sign * eps[e.darts[0] // 4] * eps[e.darts[1] // 4] == 1
               for e in d.edges)


def base_region_count(d: EmbeddingScheme) -> int:
    """Face count traced directly in the base surface.

    Only meaningful when every sign is positive, where faces are plain
    rotation-system orbits.
    """
    assert all(e.sign > 0 for e in d.edges)
    theta = {}
    for e in d.edges:
        a, b = e.darts
        theta[a] = b
        theta[b] = a
    nxt = lambda x: (theta[x] & ~3) | ((theta[x] + 1) & 3)
    seen: set[int] = set()
    count = 0
    for start in range(d.dart_count):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = nxt(x)
    return count


def rotation_step(x: int) -> int:
    """The next cover dart around a cover vertex, by the rotation rule.

    Cover dart x is 2 * dart + sheet, as in the package.  On sheet 0 the
    rotation runs through a crossing's darts in ascending order, on
    sheet 1 in descending order: the step of ``region_walks``.
    """
    dart, sheet = x >> 1, x & 1
    turn = -1 if sheet else 1
    return 2 * (dart - dart % 4 + (dart + turn) % 4) + sheet


def reference_cover(edges) -> tuple[int, ...]:
    """Theta lifted to cover darts 2 * d + sheet, edge by edge from the edge list.

    Edge (a, b) joins (a, sheet) to (b, sheet) when its sign is +1 and to
    (b, 1 - sheet) when it is -1.
    """
    theta = {}
    for (a, b), sign in edges:
        for sheet in (0, 1):
            x, y = 2 * a + sheet, 2 * b + (sheet ^ (sign < 0))
            theta[x], theta[y] = y, x
    return tuple(theta[x] for x in range(len(theta)))


def cover_face_count(d: EmbeddingScheme) -> int:
    """Number of orbits of x -> sigma(theta(x)), with the package's theta only."""
    theta = orientation_double_cover(d)
    seen = [False] * len(theta)
    count = 0
    for start in range(len(theta)):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = rotation_step(theta[x])
    return count


def mirror_fault(cover):
    """The cover with theta(0) = 1 and theta(y) = y ^ 1 for y = theta(0).

    Both theta laws still hold, but dart 0 is its own mirror theta(0 ^ 1),
    so the face trace must stop at face 0.
    """
    theta = list(cover)
    y = theta[0]
    theta[0], theta[1], theta[y], theta[y ^ 1] = 1, 0, y ^ 1, y
    return tuple(theta)


def region_walks(d: EmbeddingScheme) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each region's corners and edges, traced on a double cover built here.

    A cover dart is a (dart, sheet) pair.  On sheet 0 the rotation at a
    crossing runs through its darts in ascending order, on sheet 1 in
    descending order, and a -1 edge joins its two ends across the sheets.
    A cover face is an orbit of "cross the edge, then rotate", and the
    two faces over one region are exchanged by "change sheet, then cross
    the edge".  Regions are numbered by their least cover dart in
    (dart, sheet) order and walked from it: the k-th corner is at the
    crossing of the walk's k-th cover dart, and the walk then runs along
    that dart's edge.  Reads only ``d.edges`` and ``d.crossing_count``.
    """
    across = {}
    edge_index = {}
    for j, ((a, b), sign) in enumerate(d.edges):
        for sheet in (0, 1):
            other = sheet ^ (sign < 0)
            across[a, sheet] = (b, other)
            across[b, other] = (a, sheet)
        edge_index[a] = edge_index[b] = j

    def step(x):
        dart, sheet = across[x]
        turn = -1 if sheet else 1
        return dart - dart % 4 + (dart + turn) % 4, sheet

    region_of: dict[tuple[int, int], int] = {}
    walks = []
    for start in ((dart, sheet) for dart in range(4 * d.crossing_count)
                  for sheet in (0, 1)):
        if start in region_of:
            continue
        rid = len(walks)
        walk = []
        x = start
        while x not in region_of:
            region_of[x] = rid
            walk.append(x)
            x = step(x)
        assert x == start, "cover face walk did not close"
        mirror = y = across[start[0], start[1] ^ 1]
        assert y not in region_of, "cover face meets its own mirror"
        while y not in region_of:
            region_of[y] = rid
            y = step(y)
        assert y == mirror, "mirror face walk did not close"
        walks.append((tuple(dart >> 2 for dart, _ in walk),
                      tuple(edge_index[dart] for dart, _ in walk)))
    return walks


def reference_components(d: EmbeddingScheme):
    """Each link component as (edges, passages), traced from the edge list here.

    A passage is a (crossing, through_pair) pair.  A strand entering
    crossing i at dart x takes through-pair x % 2 and leaves by the dart
    two steps further around the crossing, onto that dart's edge.  Each
    walk starts at the least dart of a through-pair not yet taken, its
    k-th passage comes just before its k-th edge, and the walks are
    ordered by their least edge.  Reads only ``d.edges`` and
    ``d.crossing_count``.
    """
    far = {}
    edge_index = {}
    for j, ((a, b), _) in enumerate(d.edges):
        far[a], far[b] = b, a
        edge_index[a] = edge_index[b] = j
    taken = set()
    walks = []
    for start in range(4 * d.crossing_count):
        if (start // 4, start % 2) in taken:
            continue
        edges, passages = [], []
        x = start
        while (x // 4, x % 2) not in taken:
            taken.add((x // 4, x % 2))
            passages.append((x // 4, x % 2))
            leave = x - x % 4 + (x + 2) % 4
            edges.append(edge_index[leave])
            x = far[leave]
        assert x == start, "component walk did not close"
        walks.append((tuple(edges), tuple(passages)))
    walks.sort(key=lambda walk: min(walk[0]))
    return walks


def region_parities(d: EmbeddingScheme) -> list[int]:
    """Each region's boundary as an edge mask: bit e is the parity of its walk's visits."""
    masks = []
    for _, edges in region_walks(d):
        bits = 0
        for e in edges:
            bits ^= 1 << e
        masks.append(bits)
    return masks


def brute_poke_sites(d: EmbeddingScheme) -> tuple[tuple[int, int], ...]:
    """Every dart pair on distinct edges whose sides share a region.

    Compares every dart with every dart, reading the two cover faces of
    dart_a's region from ``plus_face`` and ``face_partner``.
    """
    structure = faces(d)
    out = []
    for da in range(d.dart_count):
        f = structure.plus_face[da]
        mate = structure.face_partner[f]
        for db in range(d.dart_count):
            if d.edge_of(da) == d.edge_of(db):
                continue
            if structure.plus_face[db] in (f, mate):
                out.append((da, db))
    return tuple(out)


def reference_poke(d: EmbeddingScheme, da: int, db: int, over: str) -> EmbeddingScheme:
    """The poke at a listed site, its new darts named layout by layout.

    The new crossings c and c + 1 have darts x0 = 4c .. x0 + 3 and
    y0 = 4c + 4 .. y0 + 3.  The poking strand takes the a-darts; the
    pierced strand's n-side and s-side darts swap with phi's sign, and
    it enters through y or x as dart_b sees dart_a's cover face or its
    mirror.  This is the reference for ``reidemeister_two``'s one rule;
    it checks nothing beyond the shared region, so pass a listed site.
    """
    structure = faces(d)
    f = structure.plus_face[da]
    fb = structure.plus_face[db]
    if fb == f:
        delta_b = 1
    elif fb == structure.face_partner[f]:
        delta_b = -1
    else:
        raise ValueError("darts do not border a common region")
    ea, eb = d.edge_of(da), d.edge_of(db)
    sa = d.edges[ea].sign
    sb = d.edges[eb].sign
    phi = sa if da < d.theta(da) else 1
    c = d.crossing_count
    x0, y0 = 4 * c, 4 * c + 4
    if phi > 0:
        x_a1, x_bs, x_a2, x_bn = x0, x0 + 1, x0 + 2, x0 + 3
        y_a1, y_bn, y_a2, y_bs = y0, y0 + 1, y0 + 2, y0 + 3
    else:
        x_a1, x_bn, x_a2, x_bs = x0, x0 + 1, x0 + 2, x0 + 3
        y_a1, y_bs, y_a2, y_bn = y0, y0 + 1, y0 + 2, y0 + 3
    kept = [e for j, e in enumerate(d.edges) if j not in (ea, eb)]
    grown = [
        Edge((da, x_a1), phi),
        Edge((x_a2, y_a1), 1),
        Edge((y_a2, d.theta(da)), phi * sa),
    ]
    if delta_b > 0:
        grown += [
            Edge((db, y_bn), phi),
            Edge((x_bn, y_bs), 1),
            Edge((x_bs, d.theta(db)), phi * sb),
        ]
    else:
        grown += [
            Edge((db, x_bs), -phi),
            Edge((x_bn, y_bs), 1),
            Edge((y_bn, d.theta(db)), -phi * sb),
        ]
    flag = 0 if over == "a" else 1
    return EmbeddingScheme(d.overs + (flag, flag), tuple(kept) + tuple(grown))


def invariant_profile(d: EmbeddingScheme):
    """Index-free summary used to test relabeling invariance."""
    s = surface_info(d)
    rep = verify_rank_formula(d)
    return (rep.region_count, s.euler_characteristic, s.orientable,
            rep.component_count, rep.incidence_rank, rep.homology_rank,
            d.crossing_count - rep.incidence_rank)


def relabeled(d: EmbeddingScheme, rng: random.Random) -> EmbeddingScheme:
    """Same diagram with crossings renumbered and edges reshuffled."""
    perm = list(range(d.crossing_count))
    rng.shuffle(perm)
    move = lambda dart: 4 * perm[dart >> 2] | (dart & 3)
    edges = []
    for e in d.edges:
        a, b = (move(x) for x in e.darts)
        edges.append(Edge((min(a, b), max(a, b)), e.sign))
    rng.shuffle(edges)
    overs = [0] * d.crossing_count
    for i, o in enumerate(d.overs):
        overs[perm[i]] = o
    return EmbeddingScheme(tuple(overs), tuple(edges))


def local_switch(d: EmbeddingScheme, i: int) -> EmbeddingScheme:
    """Same diagram with the rotation at crossing i reversed.

    Dart 4i + k becomes 4i + (-k mod 4), and each edge with exactly one
    end at crossing i flips its sign.  The strand pairs {0, 2} and
    {1, 3} keep their positions, so the over flags stay as they are.
    """
    move = lambda dart: dart & ~3 | -dart & 3 if dart >> 2 == i else dart
    edges = []
    for (a, b), sign in d.edges:
        flip = (a >> 2 == i) != (b >> 2 == i)
        a, b = move(a), move(b)
        edges.append(Edge((min(a, b), max(a, b)), -sign if flip else sign))
    return EmbeddingScheme(d.overs, tuple(edges))


def random_suite(count: int, cmin: int, cmax: int, probs, seed: int):
    """Deterministic list of random diagrams spanning the given sizes."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = rng.randrange(cmin, cmax + 1)
        p = rng.choice(list(probs))
        out.append(random_diagram(c, p, seed=rng.randrange(1 << 30)))
    return out


def even_target(d: EmbeddingScheme, rng: random.Random) -> list[int]:
    """A crossing set every component passes an even number of times.

    Crossings are grouped by the components of their two passages, and
    an even number is taken from each group.
    """
    owners: dict[int, list[int]] = {}
    for k, comp in enumerate(components(d)):
        for crossing in comp.crossings:
            owners.setdefault(crossing, []).append(k)
    groups: dict[frozenset, list[int]] = {}
    for i in range(d.crossing_count):
        groups.setdefault(frozenset(owners[i]), []).append(i)
    chosen = []
    for members in groups.values():
        picked = [i for i in members if rng.random() < 0.5]
        chosen += picked[:len(picked) & ~1]
    return sorted(chosen)


# ---------------------------------------------------------------------------
# The element-at-a-time loops that the package's whole-int queries
# replaced: a bi-coloring walked passage by passage, its class read by
# class_of, region effects toggled corner by corner, and set bits read
# off the binary text one digit at a time.

def reference_set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def reference_index_set(indices, count: int, what: str) -> set[int]:
    """The index rule, one check per index in input order: TypeError for a
    non-int (True included), IndexError for an int outside range(count)."""
    found = set()
    for i in indices:
        if type(i) is not int:
            raise TypeError(f"{what} index {i!r} is not an int")
        if not 0 <= i < count:
            raise IndexError(f"{what} index {i} out of range")
        found.add(i)
    return found


def reference_switched(d: EmbeddingScheme, regions) -> bytearray:
    """Byte i is the parity of the regions' corners at crossing i."""
    flags = bytearray(d.crossing_count)
    all_regions = faces(d).regions
    for rid in regions:
        for v in all_regions[rid].corners:
            flags[v] ^= 1
    return flags


def reference_bicoloring(d: EmbeddingScheme, crossings) -> tuple[int, ...] | None:
    """Pivot bi-coloring colors, walked passage by passage, or None.

    Each component is walked from just after its largest edge, colored
    0, and the color flips at every passage through a chosen crossing;
    an odd number of flips around a component leaves no bi-coloring.
    """
    chosen = set(crossings)
    colors = [0] * d.edge_count
    for comp in components(d):
        edges, crossings = comp.edges, comp.crossings
        k = len(edges)
        start = edges.index(max(edges))
        color = 0
        for j in range(start + 1, start + k + 1):
            color ^= crossings[j % k] in chosen
            colors[edges[j % k]] = color
        if color:
            return None
    return tuple(colors)


def reference_admissible_by_bicoloring(d: EmbeddingScheme, crossings):
    """(verdict, witness colors): the pivot bi-coloring plus the component
    flips that the component-class basis says cancel its class."""
    base = reference_bicoloring(d, crossings)
    if base is None:
        return False, None
    phi = class_of(d, [e for e, color in enumerate(base) if color]).bits
    coeffs = homology_matrix(d).basis.expression(phi, ones(phi))
    if coeffs is None:
        return False, None
    colors = list(base)
    comps = components(d)
    for k in ones(coeffs):
        for e in comps[k].edges:
            colors[e] ^= 1
    assert class_of(d, [e for e, color in enumerate(colors) if color]).bits == 0
    return True, tuple(colors)


# Faults for a shadow's walk table (regioncc.bicolor.WalkTable), keyed
# by the field each one corrupts.

def swap_crossings(table):
    p = list(table.crossing_positions)
    p[0], p[2] = p[2], p[0]
    return table._replace(crossing_positions=tuple(p))


def swap_edges(table):
    order = list(table.to_edges(range(table.bounds[-1])))
    order[0], order[-1] = order[-1], order[0]
    return table._replace(to_edges=itemgetter(*order))


def drop_ends(table):
    return table._replace(ends=0)


def shift_bounds(table):
    return table._replace(bounds=(0,) + tuple(b - 1 for b in table.bounds[1:-1])
                          + table.bounds[-1:])


WALK_FAULTS = {"crossing_positions": swap_crossings, "to_edges": swap_edges,
               "ends": drop_ends, "bounds": shift_bounds}


def reference_checkerboard(d: EmbeddingScheme) -> tuple[int, ...] | None:
    """Two-coloring of the regions across every edge, by a search of its own.

    Adjacency lists over the reference walks' edge sides, then a
    depth-first search from every uncolored region; a loop edge or an
    edge with equal colors on both sides means no coloring.
    """
    sides = dense_edge_sides(d)
    r = 1 + max(v for _, v in sides)   # every region borders some edge
    adjacency: list[list[int]] = [[] for _ in range(r)]
    for u, v in sides:
        if u == v:
            return None
        adjacency[u].append(v)
        adjacency[v].append(u)
    colors = [-1] * r
    for start in range(r):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if colors[v] < 0:
                    colors[v] = colors[u] ^ 1
                    stack.append(v)
                elif colors[v] == colors[u]:
                    return None
    return tuple(colors)


# ---------------------------------------------------------------------------
# The dense reference: GF(2) elimination by scanning columns, sharing no
# code with regioncc.gf2, and the dense oracles built on it.

def bicolor_system(d: EmbeddingScheme) -> BitMatrix:
    """The bi-coloring system: 2c equations over the 2c edge colors.

    Row 2i + p is the equation of the strand through darts 4i + p and
    4i + p + 2: the sum of the colors of its two edges.
    """
    rows = []
    for i in range(d.crossing_count):
        for p in (0, 1):
            rows.append((1 << d.edge_of(4 * i + p)) ^ (1 << d.edge_of(4 * i + p + 2)))
    return BitMatrix.from_bitrows(rows, d.edge_count)


def dense_bicoloring(d: EmbeddingScheme, crossings) -> tuple[int, ...] | None:
    """Edge colors of the pivot solution of the bi-coloring system, or None."""
    system = bicolor_system(d)
    rhs = 0
    for i in set(crossings):
        rhs |= 0b11 << (2 * i)
    x = dense_solve(system, BitVector(system.rows, rhs))
    return None if x is None else tuple((x.bits >> e) & 1 for e in range(x.length))


def dense_admissible(d: EmbeddingScheme, crossings) -> tuple[int, ...] | None:
    """Pivot solution of transpose(M) x = target, as a region tuple, or None."""
    target = BitVector(d.crossing_count, sum(1 << i for i in set(crossings)))
    coeffs = dense_in_rowspace(incidence_matrix(d), target)
    return None if coeffs is None else coeffs.support()


def dense_ineffective(d: EmbeddingScheme) -> list[BitVector]:
    return dense_nullspace(transpose(incidence_matrix(d)))


def dense_rref(masks, cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """RREF by scanning columns left to right, taking the lowest usable row.

    Returns (pivot_columns, nonzero_reduced_rows), the reduced rows in
    pivot order, as gf2.RowBasis.of finds them under its tags; bits at or
    above ``cols`` ride along with their rows.
    """
    work = list(masks)
    pivots = []
    top = 0
    for col in range(cols):
        sel = None
        for k in range(top, len(work)):
            if (work[k] >> col) & 1:
                sel = k
                break
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        for k in range(len(work)):
            if k != top and (work[k] >> col) & 1:
                work[k] ^= work[top]
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return tuple(pivots), tuple(work[:top])


def ones(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def transpose(m: BitMatrix) -> BitMatrix:
    out = [0] * m.cols
    for i, row in enumerate(m.row_bits):
        for j in ones(row):
            out[j] |= 1 << i
    return BitMatrix.from_bitrows(out, m.rows)


def mul_vector(m: BitMatrix, v: BitVector) -> BitVector:
    """The product m v."""
    assert v.length == m.cols, "dimension mismatch"
    bits = 0
    for i, row in enumerate(m.row_bits):
        bits |= ((row & v.bits).bit_count() & 1) << i
    return BitVector(m.rows, bits)


def dense_rank(m: BitMatrix) -> int:
    return len(dense_rref(m.row_bits, m.cols)[0])


def dense_solve(a: BitMatrix, b: BitVector) -> BitVector | None:
    """The pivot solution of a x = b (free variables zero), or None.

    b rides as column ``a.cols`` of the augmented rows; it is a pivot
    exactly when some row reduces to 0 = 1.
    """
    assert b.length == a.rows, "dimension mismatch"
    aug = a.cols
    pivots, rows = dense_rref(
        [row | ((b.bits >> i) & 1) << aug for i, row in enumerate(a.row_bits)],
        aug + 1)
    if aug in pivots:
        return None
    x = 0
    for p, row in zip(pivots, rows):
        x |= ((row >> aug) & 1) << p
    return BitVector(a.cols, x)


def dense_nullspace(a: BitMatrix) -> list[BitVector]:
    """The basis of {x : a x = 0} with one vector per free column, ascending."""
    pivots, rows = dense_rref(a.row_bits, a.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for p, row in zip(pivots, rows):
            bits |= ((row >> free) & 1) << p
        basis.append(BitVector(a.cols, bits))
    return basis


def dense_in_rowspace(m: BitMatrix, v: BitVector) -> BitVector | None:
    """Coefficients c over the rows of m with sum(c_i * row_i) = v, or None:
    the pivot solution of transpose(m) c = v."""
    return dense_solve(transpose(m), v)


def reduce_mask(mask: int, pivots, rows) -> int:
    """Reduce a row mask against an RREF basis; the result has no pivot bits."""
    for p, row in zip(pivots, rows):
        if (mask >> p) & 1:
            mask ^= row
    return mask


def dense_edge_sides(d: EmbeddingScheme) -> list[tuple[int, int]]:
    """The two regions flanking each edge, read off the reference walks.

    A region's walk runs once along each side of its boundary, so every
    edge is walked twice: by the regions on its two sides, or twice by
    the one region on both.
    """
    sides: list[list[int]] = [[] for _ in range(d.edge_count)]
    for rid, (_, edges) in enumerate(region_walks(d)):
        for e in edges:
            sides[e].append(rid)
    for e, found in enumerate(sides):
        assert len(found) == 2, f"edge {e} has sides {found}"
    return [tuple(sorted(found)) for found in sides]


def dense_context(d: EmbeddingScheme):
    """Quotient pivots and a class function, by eliminating the cycle space.

    The cycle space is the nullspace of the crossing-by-edge boundary
    matrix.  Cycles are reduced by the RREF of the region boundary
    masks, and the RREF of what is left is the quotient basis.  The
    class function returns the class bits of a cycle mask and raises
    ValueError on a mask that is not a cycle.
    """
    m = d.edge_count
    boundary = [0] * d.crossing_count
    for j, e in enumerate(d.edges):
        for x in e.darts:
            boundary[x >> 2] ^= 1 << j
    cycles = dense_nullspace(BitMatrix.from_bitrows(boundary, m))
    face_pivots, face_rows = dense_rref(region_parities(d), m)
    reduced = [reduce_mask(v.bits, face_pivots, face_rows) for v in cycles]
    quotient_pivots, quotient_rows = dense_rref(reduced, m)

    def class_bits(mask: int) -> int:
        rest = reduce_mask(mask, face_pivots, face_rows)
        bits = 0
        for k, (p, row) in enumerate(zip(quotient_pivots, quotient_rows)):
            if (rest >> p) & 1:
                rest ^= row
                bits |= 1 << k
        if rest:
            raise ValueError("edge set is not a cycle")
        return bits

    return quotient_pivots, class_bits
