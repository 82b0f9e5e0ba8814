"""Region crossing changes and the questions they answer.

Switching a region switches each crossing once per corner the region
has there, so over GF(2) only corner parities matter.  The incidence
matrix, cached on the shadow, has one row per region and one column
per crossing, so the crossings a region set switches are the XOR of
its rows.  The matrix's elimination, kept on it after first use,
answers which crossing sets are reachable (admissibility, the
expression of a target in the rows), which region sets do nothing
(ineffective sets, the dependent rows), how many genuinely different
effects exist (class counting), and whether its rank matches the value
predicted from the region, component and homology ranks.
``checkerboard`` needs no elimination: it colors down the dual tree.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import xor
from typing import Iterable, NamedTuple

from . import _EXPORTS
from .gf2 import BitMatrix, BitVector, mask_of, set_bits
from .scheme import EmbeddingScheme, _index_set, _on_shadow, dual_tree

__all__ = _EXPORTS["rcc"]


def incidence_matrix(d: EmbeddingScheme) -> BitMatrix:
    """Region-by-crossing matrix of corner parities over GF(2), cached on the shadow."""
    return d.shadow.incidence_matrix


def _switched(d: EmbeddingScheme, regions: Iterable[int]) -> int:
    """Mask of the crossings a region set switches: the XOR of its rows."""
    return reduce(xor, map(d.shadow.incidence_matrix.row_bits.__getitem__, regions), 0)


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
        incidence_rank=shadow.incidence_matrix.rank,
        region_count=shadow.faces.region_count,
        component_count=len(shadow.components),
        homology_rank=shadow.homology.rank,
    )


def count_classes(d: EmbeddingScheme) -> int:
    """Exponent k such that the shadow has 2**k equivalence classes.

    Over-assignments of one shadow fall into classes reachable from one
    another by region switches; there are 2**(crossings - rank) of them.
    The count is reported as an exponent so it never overflows a reader
    or a log line for large diagrams.
    """
    return d.crossing_count - d.shadow.incidence_matrix.rank


def admissible(d: EmbeddingScheme, crossings: Iterable[int]) -> tuple[int, ...] | None:
    """Region set switching exactly the given crossings, or None.

    The returned tuple is a sorted certificate: switching those regions
    flips precisely the requested crossings.  It is the pivot solution
    read off the incidence matrix's elimination; a certificate that fails the
    switching check raises RuntimeError.
    """
    c = d.crossing_count
    chosen = _index_set(crossings, c, "crossing")
    target = mask_of(chosen, c)
    regions = d.shadow.incidence_matrix.expression(target, chosen)
    if regions is None:
        return None
    cert = tuple(set_bits(regions))
    if _switched(d, cert) != target:
        raise RuntimeError("region certificate does not switch the target crossings")
    return cert


def ineffective_basis(d: EmbeddingScheme) -> list[BitVector]:
    """Basis of the region sets whose switching does nothing: the matrix's kernel."""
    r = d.shadow.faces.region_count
    return [BitVector(r, bits) for bits in d.shadow.incidence_matrix.kernel]


def apply_rcc(d: EmbeddingScheme, regions: Iterable[int]) -> EmbeddingScheme:
    """Switch every crossing an odd number of the given regions touches."""
    chosen = _index_set(regions, d.shadow.faces.region_count, "region")
    overs = list(d.overs)
    # Matrix rows set no bit at or above c, and a checked 0/1 flag
    # XOR 1 is a 0/1 flag: no second check.
    for i in set_bits(_switched(d, chosen)):
        overs[i] ^= 1
    return _on_shadow(tuple(overs), d.shadow)


def rcc_equivalent(d1: EmbeddingScheme, d2: EmbeddingScheme) -> tuple[int, ...] | None:
    """Region certificate transforming d1 into d2, or None.

    Both diagrams must share the same shadow (equal edge lists);
    otherwise the question is not well posed and ValueError is raised.
    """
    if d1.shadow != d2.shadow:
        raise ValueError("diagrams have different shadows")
    return admissible(d1, compress(range(d1.crossing_count), map(xor, d1.overs, d2.overs)))


def checkerboard(d: EmbeddingScheme) -> tuple[int, ...] | None:
    """Two-coloring of the regions with opposite colors across every edge.

    Returns one color per region, alternating down the dual tree from
    color 0 at region 0, or None when some edge (a loop, say) then
    has one color on both sides.  Both color classes of a coloring are
    ineffective region sets; that is rechecked here before returning.
    """
    tree = dual_tree(d.shadow)
    colors = [0] * len(tree)
    for v, u, _ in tree[1:]:
        colors[v] = colors[u] ^ 1
    if any(colors[u] == colors[v] for u, v in d.shadow.faces.edge_sides):
        return None
    regions = range(len(colors))
    if _switched(d, regions) or _switched(d, compress(regions, colors)):
        raise RuntimeError("checkerboard color class is not ineffective")
    return tuple(colors)
