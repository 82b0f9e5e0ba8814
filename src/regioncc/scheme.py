"""Link diagrams on closed surfaces as signed rotation systems.

Conventions used throughout the package:

- Crossing i carries the four darts 4i, 4i+1, 4i+2, 4i+3, and that is
  their cyclic order around the crossing.  Dart names are canonical, so
  a diagram is fully described by its edge pairing, edge signs, and one
  over flag per crossing.
- The two strands passing through a crossing occupy dart positions
  {0, 2} and {1, 3}.  Over flag 0 means the {0, 2} strand is on top.
- An edge sign of -1 means the local orientations at its two endpoints
  disagree when transported along the edge.
- Regions of the complement are read off the orientation double cover.
  Cover darts are encoded as 2 * d + sheet with sheet 0 the untwisted
  lift, so the deck involution is x ^ 1.  Faces of the cover are orbits
  of next(x) = sigma(theta(x)); a region of the base surface is a pair
  of cover faces exchanged by x -> theta(deck(x)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .gf2 import BitMatrix
from .homology import (HomologyContext, HomologyMatrix, build_context,
                       build_homology_matrix)
from .rcc import IncidenceFactor, build_factor, build_incidence

__all__ = [
    "DiagramFormatError",
    "InvalidDiagramError",
    "Edge",
    "Shadow",
    "EmbeddingScheme",
    "CoverScheme",
    "Region",
    "FaceStructure",
    "SurfaceInfo",
    "Component",
    "validate",
    "orientation_double_cover",
    "faces",
    "surface_info",
    "components",
    "import_pd",
    "parse_diagram",
    "serialize_diagram",
]


class DiagramFormatError(ValueError):
    """A diagram document does not match the expected shape."""


class InvalidDiagramError(ValueError):
    """Diagram data violates a structural invariant."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Edge(NamedTuple):
    """An edge of the diagram: a pair of distinct darts and a sign."""

    darts: tuple[int, int]
    sign: int


# Ids, signs and flags must be exactly int: True == 1 and 1.0 == 1, but
# they would serialize as true and 1.0.
def _over_violations(overs: Sequence[int]) -> list[str]:
    if {*map(type, overs)} <= {int} and {*overs} <= {0, 1}:
        return []
    return [f"crossing {i}: over flag must be 0 or 1"
            for i, o in enumerate(overs) if o not in (0, 1) or type(o) is not int]


def _structural_violations(overs: tuple[int, ...], edges: tuple[Edge, ...],
                           problems: list[str]) -> Shadow:
    """The checked shadow of a diagram; InvalidDiagramError lists every violation.

    ``problems`` holds the caller's own findings; they come first.  The
    pass over the edges fills the dart tables.  The connectivity search
    over them carries a sheet bit per crossing, flipped along -1 edges,
    so it walks the orientation double cover.  The cover is connected,
    and the surface nonorientable, exactly when some cycle has an odd
    number of -1 edges: then an edge contradicts the sheets of its ends.
    """
    c = len(overs)
    if c == 0:
        raise InvalidDiagramError(problems + ["diagram must have at least one crossing"])
    found = _over_violations(overs)
    n_darts = 4 * c
    theta = [-1] * n_darts
    edge_of = [-1] * n_darts
    for j, ((a, b), sign) in enumerate(edges):
        if sign not in (1, -1) or type(sign) is not int:
            found.append(f"edge {j}: sign must be +1 or -1")
        if a == b:
            found.append(f"edge {j}: self-paired dart {a}")
        for d, other in (((a, b),) if a == b else ((a, b), (b, a))):
            if type(d) is not int:
                found.append(f"edge {j}: dart {d!r} must be an integer")
            elif not 0 <= d < n_darts:
                found.append(f"edge {j}: dart {d} out of range")
            elif edge_of[d] >= 0:
                found.append(f"dart {d} appears in edges {edge_of[d]} and {j}")
            else:
                edge_of[d] = j
                theta[d] = other
    if len(edges) != 2 * c:
        found.append(f"expected {2 * c} edges for {c} crossings, got {len(edges)}")
    orientable = True
    if not found:
        flips = [sign < 0 for _, sign in edges]
        sheet = [-1] * c
        sheet[0] = 0
        stack = [0]
        while stack:
            v = stack.pop()
            for d in range(4 * v, 4 * v + 4):
                w = theta[d] >> 2
                s = sheet[v] ^ flips[edge_of[d]]
                if sheet[w] < 0:
                    sheet[w] = s
                    stack.append(w)
                elif sheet[w] != s:
                    orientable = False
        if -1 in sheet:
            found.append("diagram is disconnected")
    if problems or found:
        raise InvalidDiagramError(problems + found)
    return Shadow(edges, orientable, tuple(theta), tuple(edge_of))


class CoverScheme(NamedTuple):
    """Orientation double cover of a diagram's embedded graph.

    Cover darts are 2 * d + sheet.  ``sigma`` rotates around cover
    vertices (the rotation on sheet 1 runs backwards), ``theta`` is the
    lifted edge involution, and the deck involution is x ^ 1.  The cover
    is connected exactly when the base surface is nonorientable.
    """

    base_crossings: int
    sigma: tuple[int, ...]
    theta: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    connected: bool

    @property
    def vertex_count(self) -> int:
        return 2 * self.base_crossings

    @property
    def dart_count(self) -> int:
        return 8 * self.base_crossings

    def deck(self, x: int) -> int:
        return x ^ 1


class Region(NamedTuple):
    """One region of the surface complement, as the walk of its first cover face.

    The walk's k-th corner sits at crossing ``corners[k]`` and the walk
    then runs along edge ``edges[k]``; ``crossing_count`` is the
    diagram's, for the dense views below.
    """

    corners: tuple[int, ...]
    edges: tuple[int, ...]
    crossing_count: int

    @property
    def corner_counts(self) -> tuple[int, ...]:
        """How many corners sit at each crossing; they sum to 4 over all regions."""
        counts = [0] * self.crossing_count
        for v in self.corners:
            counts[v] += 1
        return tuple(counts)

    @property
    def parity_bits(self) -> int:
        """Bit e is the mod-2 number of times the walk runs along edge e."""
        bits = 0
        for e in self.edges:
            bits ^= 1 << e
        return bits


class FaceStructure(NamedTuple):
    """Cover faces, their pairing, and the resulting base regions.

    Regions are ordered by the least cover dart they touch, which sorts
    by base dart first and untwisted sheet first.  ``edge_sides[e]``
    holds the two regions flanking edge e, sorted (equal when the edge
    has one region on both sides).
    """

    regions: tuple[Region, ...]
    face_darts: tuple[tuple[int, ...], ...]
    face_region: tuple[int, ...]
    face_partner: tuple[int, ...]
    plus_face: tuple[int, ...]
    edge_sides: tuple[tuple[int, int], ...]

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def region_of_side(self, dart: int) -> int:
        """Region bordering the side of dart's edge named by the dart."""
        return self.face_region[self.plus_face[dart]]


class Component(NamedTuple):
    """A link component: the edges it traverses and its crossing passages.

    ``passages`` lists (crossing, through_pair) in traversal order; each
    through-pair of the diagram is consumed by exactly one passage.
    """

    edges: tuple[int, ...]
    passages: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Shadow:
    """A diagram with its over flags forgotten: its edges and their signs.

    Only validation (``_structural_violations``) builds shadows, so every
    shadow is checked: its darts and signs are exactly int (not bool or
    float) and in range.  The same pass gives ``orientable`` and the dart
    tables: ``theta[d]`` is the other dart of d's edge and ``edge_of[d]``
    that edge's index.  Diagrams that differ only in over flags share
    one shadow.  Every other derived table is a cached property: built
    on first use, shared by those diagrams, and freed with the shadow.
    """

    edges: tuple[Edge, ...]
    orientable: bool = field(compare=False, repr=False)
    theta: tuple[int, ...] = field(compare=False, repr=False)
    edge_of: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.edges) // 2

    @cached_property
    def cover(self) -> CoverScheme:
        c = self.crossing_count
        n = 8 * c
        sigma = [0] * n
        for d in range(4 * c):
            base = d & ~3
            sigma[2 * d] = 2 * (base | ((d + 1) & 3))
            sigma[2 * d + 1] = 2 * (base | ((d - 1) & 3)) + 1
        theta = [0] * n
        cover_edges = []
        for (a, b), sign in self.edges:
            if sign > 0:
                lifts = ((2 * a, 2 * b), (2 * a + 1, 2 * b + 1))
            else:
                lifts = ((2 * a, 2 * b + 1), (2 * a + 1, 2 * b))
            for x, y in lifts:
                theta[x] = y
                theta[y] = x
                cover_edges.append((x, y))
        return CoverScheme(c, tuple(sigma), tuple(theta), tuple(cover_edges),
                           not self.orientable)

    @cached_property
    def faces(self) -> FaceStructure:
        cover = self.cover
        sigma, theta, edge_of = cover.sigma, cover.theta, self.edge_of
        c = cover.base_crossings
        n = cover.dart_count
        nxt = [sigma[theta[x]] for x in range(n)]
        face_of = [-1] * n
        face_darts: list[tuple[int, ...]] = []
        for start in range(n):
            if face_of[start] >= 0:
                continue
            fid = len(face_darts)
            orbit = []
            x = start
            while face_of[x] < 0:
                face_of[x] = fid
                orbit.append(x)
                x = nxt[x]
            if x != start:
                raise RuntimeError("face walk did not close at its starting dart")
            face_darts.append(tuple(orbit))
        # Pair each cover face with its mirror; the answer must not depend on
        # the representative dart.
        partner = []
        for fid, orbit in enumerate(face_darts):
            images = {face_of[theta[x ^ 1]] for x in orbit}
            if len(images) != 1:
                raise RuntimeError(f"face pairing is not well defined for face {fid}")
            mate = images.pop()
            if mate == fid:
                raise RuntimeError(f"face {fid} is paired with itself")
            partner.append(mate)
        for fid, mate in enumerate(partner):
            if partner[mate] != fid:
                raise RuntimeError("face pairing is not an involution")

        regions = []
        face_region = [-1] * len(face_darts)
        for fid, orbit in enumerate(face_darts):
            if face_region[fid] >= 0:
                continue
            face_region[fid] = face_region[partner[fid]] = len(regions)
            regions.append(Region(tuple(x >> 3 for x in orbit),
                                  tuple(edge_of[x >> 1] for x in orbit), c))
        # An edge's sides are the faces of one cover edge's two darts.  The
        # plus faces of its two base darts would not do: on a -1 edge they
        # name the same side.
        edge_sides = []
        for (a, _), _ in self.edges:
            x = 2 * a
            u, v = face_region[face_of[x]], face_region[face_of[theta[x]]]
            edge_sides.append((u, v) if u <= v else (v, u))
        plus_face = tuple(face_of[2 * d] for d in range(4 * c))
        return FaceStructure(tuple(regions), tuple(face_darts), tuple(face_region),
                             tuple(partner), plus_face, tuple(edge_sides))

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Link components, ordered by their least edge index."""
        theta, edge_of = self.theta, self.edge_of
        visited = [False] * len(theta)
        out = []
        for start in range(len(theta)):
            if visited[start]:
                continue
            walk = []
            passages = []
            d = start
            while not visited[d]:
                across = (d & ~3) | ((d + 2) & 3)
                visited[d] = True
                visited[across] = True
                passages.append((d >> 2, d & 1))
                walk.append(edge_of[across])
                d = theta[across]
            if d != start:
                raise RuntimeError("component walk did not close at its starting dart")
            out.append(Component(tuple(walk), tuple(passages)))
        out.sort(key=lambda comp: min(comp.edges))
        return tuple(out)

    @cached_property
    def homology_context(self) -> HomologyContext:
        return build_context(self)

    @cached_property
    def homology_matrix(self) -> HomologyMatrix:
        return build_homology_matrix(self)

    @cached_property
    def incidence(self) -> BitMatrix:
        return build_incidence(self)

    @cached_property
    def incidence_factor(self) -> IncidenceFactor:
        return build_factor(self)


@dataclass(frozen=True, init=False)
class EmbeddingScheme:
    """A connected link diagram on a closed surface: a shadow and over flags.

    ``EmbeddingScheme(overs, edges)``: ``overs[i]`` is the over flag of
    crossing i and ``edges`` pair up all 4 * len(overs) darts.
    Construction validates the structure once and raises
    InvalidDiagramError on any violation.
    """

    overs: tuple[int, ...]
    shadow: Shadow

    def __init__(self, overs: Iterable[int], edges: Iterable[Edge]) -> None:
        overs = tuple(overs)
        shadow = _structural_violations(overs, tuple(edges), [])
        object.__setattr__(self, "overs", overs)
        object.__setattr__(self, "shadow", shadow)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.shadow.edges

    @property
    def crossing_count(self) -> int:
        return len(self.overs)

    @property
    def edge_count(self) -> int:
        return len(self.shadow.edges)

    @property
    def dart_count(self) -> int:
        return 4 * len(self.overs)

    def theta(self, d: int) -> int:
        """The other dart of d's edge."""
        return self.shadow.theta[d]

    def edge_of(self, d: int) -> int:
        """Index of the edge containing dart d."""
        return self.shadow.edge_of[d]

    def sigma(self, d: int) -> int:
        """Next dart counterclockwise around d's crossing."""
        return (d & ~3) | ((d + 1) & 3)

    def through(self, d: int) -> int:
        """The opposite dart of the strand passing through d's crossing."""
        return (d & ~3) | ((d + 2) & 3)

    def crossing_of(self, d: int) -> int:
        return d >> 2

    def pair_of(self, d: int) -> int:
        """Through-pair index of dart d at its crossing: 0 for {0,2}, 1 for {1,3}."""
        return d & 1

    def with_overs(self, overs: Iterable[int]) -> "EmbeddingScheme":
        """The same shadow under other over flags; only the flags are checked."""
        overs = tuple(overs)
        problems = _over_violations(overs)
        c = self.crossing_count
        if len(overs) != c:
            problems.append(f"expected {c} over flags, got {len(overs)}")
        if problems:
            raise InvalidDiagramError(problems)
        return _on_shadow(overs, self.shadow)


def _on_shadow(overs: tuple[int, ...], shadow: Shadow) -> EmbeddingScheme:
    """A diagram on an already checked shadow, built without validation."""
    d = object.__new__(EmbeddingScheme)
    object.__setattr__(d, "overs", overs)
    object.__setattr__(d, "shadow", shadow)
    return d


def validate(crossings: Sequence, edges: Sequence) -> EmbeddingScheme:
    """Check raw diagram data and build a scheme.

    ``crossings`` holds (rotation, over) pairs and ``edges`` holds
    ((dart, dart), sign) pairs.  Rotations must list the canonical dart
    names 4i..4i+3 in order; everything else is a violation.  Raises
    InvalidDiagramError carrying the full list of problems.
    """
    problems = []
    overs = []
    for i, (rotation, over) in enumerate(crossings):
        expected = [4 * i + k for k in range(4)]
        if list(rotation) != expected or not all(type(x) is int for x in rotation):
            problems.append(f"crossing {i}: rotation must be {expected}")
        overs.append(over)
    overs = tuple(overs)
    edge_objs = tuple(Edge((a, b), s) for (a, b), s in edges)
    return _on_shadow(overs, _structural_violations(overs, edge_objs, problems))


def orientation_double_cover(d: EmbeddingScheme) -> CoverScheme:
    """Orientation double cover of the diagram's surface."""
    return d.shadow.cover


def faces(d: EmbeddingScheme) -> FaceStructure:
    """Regions of the diagram's complement, with corners and edge parities."""
    return d.shadow.faces


class SurfaceInfo(NamedTuple):
    euler_characteristic: int
    orientable: bool
    genus: int
    h1_dim: int


def surface_info(d: EmbeddingScheme) -> SurfaceInfo:
    """Euler characteristic, orientability, genus and dim H_1 over GF(2)."""
    r = d.shadow.faces.region_count
    chi = r - d.crossing_count
    orientable = d.shadow.orientable
    if orientable:
        if chi % 2:
            raise RuntimeError("orientable surface with odd Euler characteristic")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return SurfaceInfo(chi, orientable, genus, 2 - chi)


def components(d: EmbeddingScheme) -> tuple[Component, ...]:
    """Link components, ordered by their least edge index."""
    return d.shadow.components


def import_pd(code: Sequence[Sequence]) -> EmbeddingScheme:
    """Build a scheme from a planar-diagram code.

    Crossing i binds darts 4i..4i+3 to the four labels in listed order;
    equal labels are joined into sign +1 edges.  The first listed strand
    goes under, so every over flag is 1.  Labels are all integers or all
    strings, and each must occur exactly twice.
    """
    if not isinstance(code, (list, tuple)):
        raise DiagramFormatError("pd must be a list of 4-label crossings")
    if len(code) == 0:
        raise DiagramFormatError("pd code must list at least one crossing")
    for i, labels in enumerate(code):
        if not isinstance(labels, (list, tuple)) or len(labels) != 4:
            raise DiagramFormatError(f"pd crossing {i} must list exactly 4 labels")
    # Exact types: true == 1 and 1.0 == 1 would merge two labels.
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
    edges = tuple(Edge(pairs[label], 1) for label in order)
    return EmbeddingScheme((1,) * len(code), edges)


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if set(obj) != keys:
        raise DiagramFormatError(
            f"{what} must have exactly the keys {sorted(keys)}, got {sorted(obj)}")


def _decode_json(text: str):
    """The JSON value of a document; DiagramFormatError if it is not JSON."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise DiagramFormatError(f"invalid JSON: {err}") from None


def parse_diagram(text: str) -> EmbeddingScheme:
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
        return import_pd(doc["pd"])
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
    return validate(raw_crossings, raw_edges)


def serialize_diagram(d: EmbeddingScheme) -> str:
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
