"""Region crossing changes and the questions they answer.

Switching a region switches each crossing once per corner the region
has there, so over GF(2) only corner parities matter.  The incidence
matrix has one row per region and one column per crossing; every
question below is linear algebra on it: which crossing sets are
reachable (admissibility), which region sets do nothing (ineffective
sets), how many genuinely different effects exist (class counting),
and whether its rank matches the value predicted from the region
count, component count, and the homology rank of the components.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .gf2 import BitMatrix, BitVector, rref_masks, rref_nullspace

if TYPE_CHECKING:
    from .scheme import EmbeddingScheme, Shadow

__all__ = [
    "IncidenceFactor",
    "incidence_matrix",
    "RankReport",
    "verify_rank_formula",
    "count_classes",
    "admissible",
    "ineffective_basis",
    "apply_rcc",
    "rcc_equivalent",
    "checkerboard",
]


def build_incidence(shadow: Shadow) -> BitMatrix:
    """The incidence matrix of a shadow; Shadow.incidence caches it."""
    rows = []
    for region in shadow.faces.regions:
        bits = 0
        for v in region.corners:
            bits ^= 1 << v
        rows.append(bits)
    return BitMatrix.from_bitrows(rows, shadow.crossing_count)


class IncidenceFactor(NamedTuple):
    """The reduced row echelon form of the transposed incidence matrix.

    Row k of the RREF of Mᵀ has its pivot at region ``pivots[k]``;
    ``rows[k]`` holds its region bits and ``transforms[k]`` the crossings
    whose rows of Mᵀ were added up to make it.  Elimination looks only
    at region bits, so eliminating [Mᵀ | b] would leave the bit
    parity(transforms[k] & b) beside row k: the pivot solution of
    Mᵀ x = b, and so every admissibility query, needs no new elimination.

    The pivots and region bits are the unique RREF, but the transforms
    depend on which row operations elimination happened to take.  That
    does not reach the answers: when b = Mᵀ y is admissible, every valid
    transform T, one with T Mᵀ = R for the rows R, gives
    T b = T Mᵀ y = R y, the same bits, so the certificate is the one
    pivot solution.  For any other b the candidate fails the switching
    check in ``admissible``, whatever it is.
    """

    region_count: int
    pivots: tuple[int, ...]
    rows: tuple[int, ...]
    transforms: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def build_factor(shadow: Shadow) -> IncidenceFactor:
    """One elimination of Mᵀ; Shadow.incidence_factor caches it.

    Crossing row i carries an identity bit at position r + i, beyond
    the r region columns, which tracks the row operations.
    """
    regions = shadow.faces.regions
    r = len(regions)
    columns = [1 << (r + i) for i in range(shadow.crossing_count)]
    for rid, region in enumerate(regions):
        for v in region.corners:
            columns[v] ^= 1 << rid
    pivots, reduced = rref_masks(columns, r)
    low = (1 << r) - 1
    return IncidenceFactor(r, pivots, tuple(row & low for row in reduced),
                           tuple(row >> r for row in reduced))


def incidence_matrix(d: EmbeddingScheme) -> BitMatrix:
    """Region-by-crossing matrix of corner parities over GF(2)."""
    return d.shadow.incidence


class RankReport(NamedTuple):
    """Measured incidence rank against its predicted value.

    The prediction is regions - components - 1 + homology rank.
    """

    incidence_rank: int
    region_count: int
    component_count: int
    homology_rank: int

    @property
    def predicted_rank(self) -> int:
        return (self.region_count - self.component_count - 1
                + self.homology_rank)

    @property
    def holds(self) -> bool:
        return self.incidence_rank == self.predicted_rank


def verify_rank_formula(d: EmbeddingScheme) -> RankReport:
    shadow = d.shadow
    return RankReport(
        incidence_rank=shadow.incidence_factor.rank,
        region_count=shadow.faces.region_count,
        component_count=len(shadow.components),
        homology_rank=shadow.homology_matrix.rank,
    )


def count_classes(d: EmbeddingScheme) -> int:
    """Exponent k such that the shadow has 2**k equivalence classes.

    Over-assignments of one shadow fall into classes reachable from one
    another by region switches; there are 2**(crossings - rank) of them.
    The count is reported as an exponent so it never overflows a reader
    or a log line for large diagrams.
    """
    return d.crossing_count - d.shadow.incidence_factor.rank


def _crossing_set(d: EmbeddingScheme, crossings: Iterable[int]) -> set[int]:
    chosen = set(crossings)
    for i in chosen:
        if not 0 <= i < d.crossing_count:
            raise IndexError(f"crossing index {i} out of range")
    return chosen


def _switched(d: EmbeddingScheme, regions: Iterable[int]) -> int:
    """Crossing bits switched by the regions: the XOR of their incidence rows."""
    rows = d.shadow.incidence.row_bits
    effect = 0
    for rid in regions:
        if not 0 <= rid < len(rows):
            raise IndexError(f"region index {rid} out of range")
        effect ^= rows[rid]
    return effect


def admissible(d: EmbeddingScheme, crossings: Iterable[int]) -> tuple[int, ...] | None:
    """Region set switching exactly the given crossings, or None.

    The returned tuple is a sorted certificate: switching those regions
    flips precisely the requested crossings.  It is the pivot solution
    read off the shadow's factorisation, and is checked by switching.
    """
    target = 0
    for i in _crossing_set(d, crossings):
        target |= 1 << i
    factor = d.shadow.incidence_factor
    cert = tuple(p for p, t in zip(factor.pivots, factor.transforms)
                 if (t & target).bit_count() & 1)
    return cert if _switched(d, cert) == target else None


def ineffective_basis(d: EmbeddingScheme) -> list[BitVector]:
    """Basis of the region sets whose combined switching does nothing."""
    factor = d.shadow.incidence_factor
    return rref_nullspace(factor.pivots, factor.rows, factor.region_count)


def apply_rcc(d: EmbeddingScheme, regions: Iterable[int]) -> EmbeddingScheme:
    """Switch every crossing an odd number of the given regions touches."""
    effect = _switched(d, set(regions))
    overs = tuple(o ^ ((effect >> i) & 1) for i, o in enumerate(d.overs))
    return d.with_overs(overs)


def rcc_equivalent(d1: EmbeddingScheme, d2: EmbeddingScheme) -> tuple[int, ...] | None:
    """Region certificate transforming d1 into d2, or None.

    Both diagrams must share the same shadow (identical edge lists);
    otherwise the question is not well posed and ValueError is raised.
    """
    if d1.edges != d2.edges:
        raise ValueError("diagrams have different shadows")
    diff = [i for i, (a, b) in enumerate(zip(d1.overs, d2.overs)) if a != b]
    return admissible(d1, diff)


def checkerboard(d: EmbeddingScheme) -> tuple[int, ...] | None:
    """Two-coloring of the regions with opposite colors across every edge.

    Returns one color per region (region 0 gets color 0), or None when
    the regions cannot be two-colored.  When a coloring exists, both
    color classes are ineffective region sets; that is rechecked here
    before returning.
    """
    structure = d.shadow.faces
    r = structure.region_count
    adjacency: list[list[int]] = [[] for _ in range(r)]
    for u, v in structure.edge_sides:
        if u == v:
            return None
        adjacency[u].append(v)
        adjacency[v].append(u)
    colors = [-1] * r
    for start in range(r):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adjacency[u]:
                if colors[v] < 0:
                    colors[v] = colors[u] ^ 1
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return None
    for color in (0, 1):
        if _switched(d, [rid for rid, c in enumerate(colors) if c == color]):
            raise RuntimeError("checkerboard color class is not ineffective")
    return tuple(colors)
