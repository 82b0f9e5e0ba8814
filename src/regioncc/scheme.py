"""Link diagrams on closed surfaces as signed rotation systems.

Conventions used throughout the package:

- Crossing i carries the four darts 4i, 4i+1, 4i+2, 4i+3, and that is
  their cyclic order around the crossing.  Dart names are canonical, so
  a diagram is fully described by its edge pairing, edge signs, and one
  over flag per crossing.
  So dart d sits at crossing d >> 2, and the next dart counterclockwise
  is (d & ~3) | ((d + 1) & 3).
- The two strands passing through a crossing occupy dart positions
  {0, 2} and {1, 3}: dart d's strand leaves through d ^ 2, two
  positions on, and d & 1 names its through-pair.  Over flag 0 means
  the {0, 2} strand is on top.
- An edge sign of -1 means the local orientations at its two endpoints
  disagree when transported along the edge.
- Regions of the complement are read off the orientation double cover.
  Cover darts are encoded as 2 * d + sheet with sheet 0 the untwisted
  lift, so the deck involution is x ^ 1.  Faces of the cover are orbits of
  next(x) = sigma(theta(x)), where the rotation sigma(x) = (x & ~7) |
  ((x + 2 - 4 * (x & 1)) & 7) runs backwards on sheet 1; a region of the
  base surface is a pair of cover faces exchanged by x -> theta(deck(x)).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, xor
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .gf2 import BitMatrix, Frozen

if TYPE_CHECKING:
    from .bicolor import WalkTable
    from .homology import Homology

__all__ = _EXPORTS["scheme"]


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


def _index(i: int, count: int, what: str) -> int:
    """i, if it is exactly an int in range(count); else TypeError or IndexError."""
    if type(i) is not int:
        raise TypeError(f"{what} index {i!r} is not an int")
    if not 0 <= i < count:
        raise IndexError(f"{what} index {i} out of range")
    return i


def _index_list(indices: Iterable[int], count: int, what: str) -> list[int]:
    """The indices as a list, in input order, each checked as ``_index`` checks it.

    One lazy pass reads any iterable: each index is tested in line, and
    ``_index`` is called only to raise for the first bad one, so an
    endless iterable stops there.  TypeError if indices is no iterable.
    """
    try:
        items = iter(indices)
    except TypeError:
        raise TypeError(f"{what} set {indices!r} is not an iterable") from None
    found = []
    for i in items:
        if type(i) is not int or not 0 <= i < count:
            _index(i, count, what)
        found.append(i)
    return found


def _index_set(indices: Iterable[int], count: int, what: str) -> set[int]:
    """The indices as a set: ``_index_list`` checks each one before repeats merge."""
    return set(_index_list(indices, count, what))


def _cover_search(cover: list[int]) -> tuple[bool, bool]:
    """(connected, orientable), from a search of the orientation double cover.

    A sheet bit per crossing flips along an edge whose lift changes
    sheet: cover dart 2 * d maps to an odd cover dart.  The surface is
    nonorientable exactly when some edge then contradicts the sheets of
    its ends: a cycle with an odd number of -1 edges.
    """
    sheet = [-1] * (len(cover) >> 3)
    sheet[0] = 0
    found = [0]
    orientable = True
    for v in found:   # the list grows as the search reaches crossings
        sv = sheet[v]
        for y in cover[8 * v:8 * v + 8:2]:   # the sheet-0 lifts of v's darts
            w = y >> 3
            s = sv ^ (y & 1)
            sw = sheet[w]
            if sw < 0:
                sheet[w] = s
                found.append(w)
            elif sw != s:
                orientable = False
    return len(found) == len(sheet), orientable


def _shadow(edges: list[Edge], edge_of: list[int], cover: list[int],
            problems: list[str]) -> Shadow:
    """The shadow of edges pairing all darts; InvalidDiagramError: problems, disconnection."""
    connected, orientable = _cover_search(cover)
    if problems or not connected:
        raise InvalidDiagramError(problems + ([] if connected else ["diagram is disconnected"]))
    return Shadow(tuple(edges), orientable, tuple(edge_of), tuple(cover))


def _structural_violations(overs: tuple[int, ...], edges: Iterable,
                           problems: list[str]) -> Shadow:
    """The checked shadow of a diagram; InvalidDiagramError lists every violation.

    ``problems`` holds the caller's own findings; they come first.  The
    one pass over the ((dart, dart), sign) pairs makes each an Edge and
    fills the dart tables; ``_shadow`` then checks connectivity.  A
    diagram with no crossings is named alone.
    """
    c = len(overs)
    if c == 0:
        raise InvalidDiagramError(problems + ["diagram must have at least one crossing"])
    found = _over_violations(overs)
    n_darts = 4 * c
    edge_of = [-1] * n_darts
    cover = [0] * (2 * n_darts)
    checked = []
    j = -1
    for j, edge in enumerate(edges):
        try:
            (a, b), sign = edge
        except (TypeError, ValueError):
            found.append(f"edge {j}: must be ((dart, dart), sign)")
            continue
        # Edge.__new__ does just this, in one more Python call.
        checked.append(tuple.__new__(Edge, ((a, b), sign)))
        if (type(a) is int and type(b) is int and type(sign) is int
                and (sign == 1 or sign == -1) and a != b
                and 0 <= a < n_darts and 0 <= b < n_darts
                and edge_of[a] < 0 and edge_of[b] < 0):
            edge_of[a] = edge_of[b] = j
            # The lifts are (2a, y) and (2a + 1, y ^ 1); a -1 edge changes sheet.
            x, y = 2 * a, 2 * b + (sign < 0)
            cover[x], cover[y], cover[x + 1], cover[y ^ 1] = y, x, y ^ 1, x + 1
            continue
        # Some check fails: name each fault of the edge, in order.
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
    if j + 1 != 2 * c:
        found.append(f"expected {2 * c} edges for {c} crossings, got {j + 1}")
    if found:
        raise InvalidDiagramError(problems + found)
    return _shadow(checked, edge_of, cover, problems)


class Region(NamedTuple):
    """One region of the surface complement, as the walk of its first cover face.

    The walk's k-th corner sits at crossing ``corners[k]``;
    ``crossing_count`` is the diagram's, for the dense view below.
    """

    corners: tuple[int, ...]
    crossing_count: int

    @property
    def corner_counts(self) -> tuple[int, ...]:
        """How many corners sit at each crossing; they sum to 4 over all regions."""
        counts = [0] * self.crossing_count
        for v in self.corners:
            counts[v] += 1
        return tuple(counts)


class FaceStructure(NamedTuple):
    """Cover faces, their pairing, and the resulting base regions.

    Regions are ordered by the least cover dart they touch, which sorts
    by base dart first and untwisted sheet first.  Region k's two lifts
    are cover faces 2k and 2k + 1, so cover face f lies over region
    f >> 1 and ``face_partner[f] == f ^ 1``; ``plus_face[d]`` is the
    cover face of base dart d's sheet-0 lift.  ``edge_sides[e]`` holds
    the two regions flanking edge e, sorted (equal when the edge has one
    region on both sides).
    """

    regions: tuple[Region, ...]
    face_partner: tuple[int, ...]
    plus_face: tuple[int, ...]
    edge_sides: tuple[tuple[int, int], ...]

    @property
    def region_count(self) -> int:
        return len(self.regions)


class Component(NamedTuple):
    """A link component: the edges it traverses and the crossings it passes.

    ``crossings[k]`` is the crossing passed just before ``edges[k]``.
    """

    edges: tuple[int, ...]
    crossings: tuple[int, ...]


class Shadow(Frozen):
    """A diagram with its over flags forgotten: its edges and their signs.

    Only validation (``_structural_violations``, which checks every
    document, ``validate`` and ``EmbeddingScheme``, and ``import_pd``,
    whose codes are valid by construction) builds shadows, so every
    shadow is checked: its darts and signs are exactly int (not bool or
    float) and in range.  The same pass gives ``orientable`` and the dart
    tables: ``edge_of[d]`` is the index of d's edge, and ``cover`` the
    one pairing table, the edge involution lifted to cover darts 2 * d +
    sheet, where a -1 edge changes sheet; so the other dart of d's edge
    is ``cover[2 * d] >> 1``.  Diagrams that differ only in
    over flags share one shadow.  Every other derived table but the dual
    tree is a cached property: built on first use, shared by those
    diagrams, and freed with the shadow.  The dual tree is not kept:
    ``dual_tree`` builds it where it is read, by the homology context and
    ``checkerboard``.  Shadows compare, hash and print by their edges alone.
    """

    _fields = ("edges",)

    def __init__(self, edges: tuple[Edge, ...], orientable: bool,
                 edge_of: tuple[int, ...], cover: tuple[int, ...]) -> None:
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "orientable", orientable)
        object.__setattr__(self, "edge_of", edge_of)
        object.__setattr__(self, "cover", cover)

    @property
    def crossing_count(self) -> int:
        return len(self.edges) // 2

    @cached_property
    def faces(self) -> FaceStructure:
        theta = self.cover
        c = self.crossing_count
        n = 8 * c
        # theta(theta(x)) == x and theta(x ^ 1) == theta(x) ^ 1 close every walk of
        # sigma(theta(x)) and make the mirror x -> theta(x ^ 1) map faces to faces.
        sigma = list(range(n))
        try:
            broken = (itemgetter(*theta)(theta) != tuple(sigma)
                      or tuple(map(xor, theta[::2], repeat(1))) != theta[1::2])
        except (IndexError, TypeError):   # an entry that is no cover dart
            broken = True
        if broken:
            raise RuntimeError("cover breaks the deck laws")
        for k in range(8):   # sigma on the cover darts x with x & 7 == k
            sigma[k::8] = range((k + 2 - 4 * (k & 1)) & 7, n, 8)
        nxt = itemgetter(*theta)(sigma)   # sigma(theta(x))
        face_of = [-1] * n
        regions = []
        start, unseen = 0, n
        while unseen:
            start = face_of.index(-1, start)
            fid = 2 * len(regions)
            mirror = fid + 1
            corners = []
            x = start
            while face_of[x] < 0:
                face_of[x] = fid
                # The other lift is the mirror image: fresh, unless it is this face.
                y = theta[x ^ 1]
                if face_of[y] >= 0:
                    break
                face_of[y] = mirror
                corners.append(x >> 3)
                x = nxt[x]
            # A walk that met its mirror stopped at a marked dart, or on a
            # mirror dart that was not fresh.
            if x != start or face_of[y] != mirror:
                raise RuntimeError(f"face {fid} meets its own mirror")
            unseen -= 2 * len(corners)
            # Region.__new__ does just this, in one more Python call.
            regions.append(tuple.__new__(Region, (tuple(corners), c)))
        # An edge's sides are the faces of one cover edge's two darts.  The
        # plus faces of its two base darts would not do: on a -1 edge they
        # name the same side.
        edge_sides = []
        for (a, _), _ in self.edges:
            u, v = face_of[2 * a] >> 1, face_of[theta[2 * a]] >> 1
            edge_sides.append((u, v) if u <= v else (v, u))
        return FaceStructure(tuple(regions),
                             tuple(map(xor, range(2 * len(regions)), repeat(1))),
                             tuple(face_of[::2]), tuple(edge_sides))

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Link components, ordered by their least edge index."""
        # The sheet-0 lifts: dart d's edge partner is lift[d] >> 1.
        lift, edge_of = self.cover[::2], self.edge_of
        visited = [False] * len(lift)
        out = []
        for start in range(len(lift)):
            if visited[start]:
                continue
            walk = []
            crossings = []
            d = start
            while not visited[d]:
                across = d ^ 2
                visited[d] = True
                visited[across] = True
                crossings.append(d >> 2)
                walk.append(edge_of[across])
                d = lift[across] >> 1
            if d != start:
                raise RuntimeError("component walk did not close at its starting dart")
            out.append(Component(tuple(walk), tuple(crossings)))
        out.sort(key=lambda comp: min(comp.edges))
        return tuple(out)

    @cached_property
    def homology(self) -> Homology:
        """H_1 and the components' classes in it, from one build."""
        # Imported here, so commands that never ask for homology skip it.
        from .homology import build_homology
        return build_homology(self)

    @cached_property
    def walk_table(self) -> WalkTable:
        """The components laid end to end in bi-coloring order."""
        from .bicolor import build_walk_table
        return build_walk_table(self)

    @cached_property
    def incidence_matrix(self) -> BitMatrix:
        """Row k, bit v: region k's corner parity at v; BitMatrix checks the width once."""
        c = self.crossing_count
        masks = []
        for k, reg in enumerate(self.faces.regions):
            bits = 0
            try:
                for v in reg.corners:
                    if v >= c:   # before the shift: 1 << 10**18 would not fit
                        raise ValueError
                    bits ^= 1 << v   # ValueError when v < 0
            except (TypeError, ValueError):
                raise RuntimeError(f"region {k} has a corner at no crossing") from None
            masks.append(bits)
        return BitMatrix(c, masks)


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the classes of a and b, halving both find paths; False if already one."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a == b:
        return False
    parent[a] = b
    return True


def dual_tree(shadow: Shadow) -> tuple[tuple[int, int, int], ...]:
    """The regions' spanning tree F: (region, parent, edge) from (0, 0, -1).

    Kruskal over the regions in ascending edge order, listed breadth-first:
    the package's one search of the dual graph, built where it is read.
    The forest spans once it has r - 1 edges; the entries after that are
    only checked.  RuntimeError names the first edge whose ``edge_sides``
    entry is not a sorted pair of regions, or says that F misses a region.
    """
    sides, r = shadow.faces.edge_sides, shadow.faces.region_count
    parent = list(range(r))
    tree: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    missing = r - 1
    try:
        # j is bound before its entry is unpacked.
        for j, (a, b) in enumerate(sides):
            if not 0 <= a <= b < r:
                raise ValueError
            if a != b and missing and _union(parent, a, b):
                tree[a].append((b, j))
                tree[b].append((a, j))
                missing -= 1
    except (TypeError, ValueError, IndexError):
        raise RuntimeError(f"edge {j} has sides {sides[j]!r}, "
                           "not a sorted pair of regions") from None
    # F has no loops or parallel edges: a region's children are its other neighbors.
    order = [(0, 0, -1)]
    for u, p, _ in order:
        for v, j in tree[u]:
            if v != p:
                order.append((v, u, j))
    if len(order) != r:
        raise RuntimeError("dual tree does not list every region")
    return tuple(order)


class EmbeddingScheme(Frozen):
    """A connected link diagram on a closed surface: a shadow and over flags.

    ``EmbeddingScheme(overs, edges)``: ``overs[i]`` is the over flag of
    crossing i and ``edges`` pair up all 4 * len(overs) darts.
    Construction validates the structure once and raises
    InvalidDiagramError on any violation.
    """

    _fields = ("overs", "shadow")

    def __init__(self, overs: Iterable[int], edges: Iterable[Edge]) -> None:
        overs = tuple(overs)
        shadow = _structural_violations(overs, edges, [])
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
        return self.shadow.cover[2 * _index(d, 4 * len(self.overs), "dart")] >> 1

    def edge_of(self, d: int) -> int:
        """Index of the edge containing dart d."""
        return self.shadow.edge_of[_index(d, 4 * len(self.overs), "dart")]

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


def _rotation_violation(i: int) -> str:
    return f"crossing {i}: rotation must be {[4 * i + k for k in range(4)]}"


def validate(crossings: Iterable, edges: Iterable) -> EmbeddingScheme:
    """Check raw diagram data and build a scheme: the package's one crossing rule.

    ``crossings`` yields (rotation, over) pairs and ``edges`` yields
    ((dart, dart), sign) pairs; any iterables will do.  Rotation i must
    unpack to exactly the ints 4i..4i+3, in order; everything else is a
    violation.  Raises InvalidDiagramError carrying the full list of
    problems.
    """
    problems = []
    overs = []
    for i, crossing in enumerate(crossings):
        over = None
        try:
            rotation, over = crossing
            r0, r1, r2, r3 = rotation
        except (TypeError, ValueError):
            problems.append(_rotation_violation(i))
        else:
            base = 4 * i
            if not (type(r0) is int and type(r1) is int and type(r2) is int
                    and type(r3) is int and r0 == base and r1 == base + 1
                    and r2 == base + 2 and r3 == base + 3):
                problems.append(_rotation_violation(i))
        overs.append(over)
    overs = tuple(overs)
    return _on_shadow(overs, _structural_violations(overs, edges, problems))


def orientation_double_cover(d: EmbeddingScheme) -> tuple[int, ...]:
    """Orientation double cover of the diagram's surface, as ``Shadow.cover``."""
    return d.shadow.cover


def faces(d: EmbeddingScheme) -> FaceStructure:
    """Regions of the diagram's complement, with their corners."""
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
    # One pass pairs the labels and fills the dart tables, numbering edges by
    # first sighting.  Each int is held once: all tables take theirs from
    # the cover, which starts as the identity and has each edge's lifts
    # swapped into place, so a label is paired once its first dart's lift moved.
    n_darts = 4 * len(code)
    cover = [*range(2 * n_darts)]
    darts = cover[:n_darts]
    edge_of = [-1] * n_darts
    edges: list = []
    first_dart: dict[object, int] = {}
    setdefault = first_dart.setdefault
    for dart, label in zip(darts, chain.from_iterable(code)):
        first = setdefault(label, dart)
        if first == dart:
            edge_of[dart] = darts[len(edges)]
            edges.append(None)
        elif cover[2 * first] == 2 * first:
            k = edge_of[dart] = edge_of[first]
            x, y = 2 * first, 2 * dart
            cover[x], cover[y], cover[x + 1], cover[y + 1] = (
                cover[y], cover[x], cover[y + 1], cover[x + 1])
            edges[k] = tuple.__new__(Edge, ((first, dart), 1))
        else:
            raise DiagramFormatError(f"pd label {label!r} occurs more than twice")
    if 2 * len(edges) != n_darts:
        missing = ", ".join(sorted(repr(l) for l, d in first_dart.items()
                                if cover[2 * d] == 2 * d))
        raise DiagramFormatError(f"pd labels occurring once: {missing}")
    del darts, first_dart, setdefault   # not to sit beside the cover's tuple
    cover = tuple(cover)
    # Distinct darts, each in one +1 edge: only connectivity is left to check.
    return _on_shadow((1,) * len(code), _shadow(edges, edge_of, cover, []))


_DOCUMENT_KEYS = {"crossings", "edges"}
_CROSSING_KEYS = {"rotation", "over"}
_EDGE_KEYS = {"darts", "sign"}


def _key_error(obj: dict, keys: set[str], what: str) -> DiagramFormatError:
    return DiagramFormatError(
        f"{what} must have exactly the keys {sorted(keys)}, got {sorted(obj)}")


def _decode_json(text: str):
    """The JSON value of a document; DiagramFormatError if it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError covers JSONDecodeError and an integer longer than
        # the interpreter's int-string limit.
        raise DiagramFormatError(f"invalid JSON: {err}") from None


def parse_diagram(text: str) -> EmbeddingScheme:
    """Parse a diagram document (strict; unknown keys are rejected).

    Two top-level shapes are accepted:
      {"crossings": [{"rotation": [...], "over": 0|1}, ...],
       "edges": [{"darts": [a, b], "sign": 1|-1}, ...]}
    or {"pd": [[a, b, c, d], ...]}.
    A wrong shape, key set or value type raises DiagramFormatError at
    the first entry that has one: the crossings are checked, then the
    edges.  Only then are the entries handed to ``validate``, whose
    InvalidDiagramError lists every violation.
    """
    doc = _decode_json(text)
    if not isinstance(doc, dict):
        raise DiagramFormatError("top-level document must be an object")
    if doc.keys() == {"pd"}:
        return import_pd(doc["pd"])
    if doc.keys() != _DOCUMENT_KEYS:
        raise _key_error(doc, _DOCUMENT_KEYS, "diagram document")
    crossings, edges = doc["crossings"], doc["edges"]
    if not isinstance(crossings, list) or not isinstance(edges, list):
        raise DiagramFormatError("crossings and edges must be lists")
    for i, entry in enumerate(crossings):
        if not isinstance(entry, dict):
            raise DiagramFormatError(f"crossing {i} must be an object")
        if entry.keys() != _CROSSING_KEYS:
            raise _key_error(entry, _CROSSING_KEYS, f"crossing {i}")
        rot = entry["rotation"]
        if (not isinstance(rot, list) or len(rot) != 4 or type(rot[0]) is not int
                or type(rot[1]) is not int or type(rot[2]) is not int
                or type(rot[3]) is not int):
            raise DiagramFormatError(f"crossing {i}: rotation must be a list of 4 dart ids")
        if type(entry["over"]) is not int:
            raise DiagramFormatError(f"crossing {i}: over must be an integer")
    for j, entry in enumerate(edges):
        if not isinstance(entry, dict):
            raise DiagramFormatError(f"edge {j} must be an object")
        if entry.keys() != _EDGE_KEYS:
            raise _key_error(entry, _EDGE_KEYS, f"edge {j}")
        darts = entry["darts"]
        if (not isinstance(darts, list) or len(darts) != 2
                or type(darts[0]) is not int or type(darts[1]) is not int):
            raise DiagramFormatError(f"edge {j}: darts must be a list of 2 dart ids")
        if type(entry["sign"]) is not int:
            raise DiagramFormatError(f"edge {j}: sign must be an integer")
    return validate(
        zip(map(itemgetter("rotation"), crossings), map(itemgetter("over"), crossings)),
        zip(map(itemgetter("darts"), edges), map(itemgetter("sign"), edges)))


# The layout json.dumps(doc, indent=2) gives, written directly: with an
# indent the standard library runs its pure-Python encoder.
_CROSSING_TEXT = ('    {\n      "rotation": [\n        %d,\n        %d,\n        %d,\n'
                  '        %d\n      ],\n      "over": %d\n    }')
_EDGE_TEXT = '    {\n      "darts": [\n        %d,\n        %d\n      ],\n      "sign": %d\n    }'


def serialize_diagram(d: EmbeddingScheme) -> str:
    """Serialize a scheme; the output parses back to an equal scheme.

    The text is that of ``json.dumps(doc, indent=2)``, with ``doc`` the
    crossings-and-edges document.
    """
    crossings = ",\n".join([_CROSSING_TEXT % (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3, over)
                            for i, over in enumerate(d.overs)])
    edges = ",\n".join([_EDGE_TEXT % (a, b, sign) for (a, b), sign in d.edges])
    return ('{\n  "crossings": [\n' + crossings + '\n  ],\n  "edges": [\n'
            + edges + '\n  ]\n}')
