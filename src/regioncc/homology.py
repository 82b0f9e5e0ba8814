"""Mod-2 homology of the surface carrying a diagram.

The embedded 4-valent graph gives a chain complex over GF(2): edges
span the 1-chains, crossings the 0-chains, and region boundaries the
image of the 2-chains.  First homology is the cycle space of the graph
modulo the span of the region boundary masks; its dimension equals
2 minus the Euler characteristic.  Edge sets are passed around as bit
masks (bit e = edge e), matching the gf2 row convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .gf2 import BitMatrix, BitVector, rank, reduce_mask, rref_masks

if TYPE_CHECKING:
    from .scheme import EmbeddingScheme, Shadow

__all__ = [
    "HomologyContext",
    "HomologyMatrix",
    "homology_context",
    "class_of",
    "homology_matrix",
]


@dataclass(frozen=True)
class HomologyContext:
    """Reduction data for computing homology classes of edge cycles.

    ``face_pivots``/``face_rows`` reduce modulo region boundaries, and
    ``quotient_pivots``/``quotient_rows`` are an echelon basis of the
    quotient; its length is the dimension of H_1.  ``boundary[i]``
    marks the edges with an odd number of ends at crossing i, which is
    what the cycle check tests against.
    """

    edge_count: int
    boundary: tuple[int, ...]
    face_pivots: tuple[int, ...]
    face_rows: tuple[int, ...]
    quotient_pivots: tuple[int, ...]
    quotient_rows: tuple[int, ...]

    @property
    def h1_dim(self) -> int:
        return len(self.quotient_rows)


def _tree_cycles(shadow: Shadow) -> list[int]:
    """A basis of the cycle space: the fundamental cycles of a spanning tree.

    path[v] is the edge mask of the tree path from crossing 0 to v; each
    edge outside the tree closes the cycle path[u] ^ path[v] ^ edge.
    """
    theta, edge_of = shadow.theta, shadow.edge_of
    path = [-1] * shadow.crossing_count
    path[0] = 0
    in_tree = bytearray(len(shadow.edges))
    stack = [0]
    while stack:
        u = stack.pop()
        for x in range(4 * u, 4 * u + 4):
            v = theta[x] >> 2
            if path[v] < 0:
                j = edge_of[x]
                path[v] = path[u] | (1 << j)
                in_tree[j] = 1
                stack.append(v)
    cycles = []
    for j, e in enumerate(shadow.edges):
        if not in_tree[j]:
            a, b = e.darts
            cycles.append(path[a >> 2] ^ path[b >> 2] ^ (1 << j))
    return cycles


def build_context(shadow: Shadow) -> HomologyContext:
    """The homology context of a shadow; Shadow.homology_context caches it."""
    edges = shadow.edges
    c = len(edges) // 2
    m = len(edges)
    # Boundary of each edge, accumulated per crossing; a loop cancels.
    boundary = [0] * c
    for j, e in enumerate(edges):
        for d in e.darts:
            boundary[d >> 2] ^= 1 << j
    cycles = _tree_cycles(shadow)

    region_masks = [reg.parity_bits for reg in shadow.faces.regions]
    face_pivots, face_rows = rref_masks(region_masks, m)

    # The quotient RREF depends only on the span of the reduced cycles.
    reduced = [reduce_mask(z, face_pivots, face_rows) for z in cycles]
    quotient_pivots, quotient_rows = rref_masks([z for z in reduced if z], m)
    return HomologyContext(m, tuple(boundary),
                           tuple(face_pivots), tuple(face_rows),
                           tuple(quotient_pivots), tuple(quotient_rows))


def homology_context(d: EmbeddingScheme) -> HomologyContext:
    return d.shadow.homology_context


def _as_mask(edge_set: Iterable[int] | int, edge_count: int) -> int:
    if isinstance(edge_set, int):
        mask = edge_set
    else:
        mask = 0
        for e in edge_set:
            if not 0 <= e < edge_count:
                raise IndexError(f"edge index {e} out of range")
            mask ^= 1 << e
    if mask >> edge_count:
        raise IndexError("edge mask wider than the edge count")
    return mask


def _quotient_bits(ctx: HomologyContext, mask: int) -> tuple[int, int]:
    """Reduce an edge mask; return (class bits, unreducible remainder)."""
    reduced = reduce_mask(mask, ctx.face_pivots, ctx.face_rows)
    bits = 0
    for k, (p, row) in enumerate(zip(ctx.quotient_pivots, ctx.quotient_rows)):
        if (reduced >> p) & 1:
            reduced ^= row
            bits |= 1 << k
    return bits, reduced


def class_of(source: EmbeddingScheme | HomologyContext,
             edge_set: Iterable[int] | int) -> BitVector:
    """Homology class of an edge cycle, in the context's quotient basis.

    ``source`` may be the scheme itself or a context obtained from
    homology_context.  ``edge_set`` is a bit mask or an iterable of
    edge indices (taken mod 2).  Raises ValueError naming the crossings
    with odd incidence if the set is not a cycle of the graph.
    """
    if isinstance(source, HomologyContext):
        ctx = source
    else:
        ctx = homology_context(source)
    mask = _as_mask(edge_set, ctx.edge_count)
    bits, remainder = _quotient_bits(ctx, mask)
    if remainder:
        odd = [i for i, b in enumerate(ctx.boundary)
               if (mask & b).bit_count() & 1]
        raise ValueError("edge set is not a cycle: odd incidence at "
                         f"crossing {', '.join(map(str, odd))}")
    return BitVector(ctx.h1_dim, bits)


@dataclass(frozen=True)
class HomologyMatrix:
    """Rows are the homology classes of the link components."""

    matrix: BitMatrix
    rank: int


def build_homology_matrix(shadow: Shadow) -> HomologyMatrix:
    """The component-class matrix of a shadow; Shadow.homology_matrix caches it."""
    ctx = shadow.homology_context
    rows = []
    for comp in shadow.components:
        mask = 0
        for e in comp.edges:
            mask ^= 1 << e
        bits, remainder = _quotient_bits(ctx, mask)
        if remainder:
            raise RuntimeError("component trace is not a cycle")
        rows.append(bits)
    matrix = BitMatrix.from_bitrows(rows, ctx.h1_dim)
    return HomologyMatrix(matrix, rank(matrix))


def homology_matrix(d: EmbeddingScheme) -> HomologyMatrix:
    """Component-class matrix of the diagram (n rows, dim H_1 columns)."""
    return d.shadow.homology_matrix
