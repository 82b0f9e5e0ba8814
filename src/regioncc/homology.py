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

from .gf2 import BitMatrix, BitVector, rank

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
    """Class masks that read the homology class of an edge cycle.

    H_1 has one basis element per edge in ``quotient_pivots``: the pivots
    of the reduced row echelon form of the cycle space modulo region
    boundaries, with edges as columns.  Bit k of the class of a cycle z
    is the parity of z & ``class_masks[k]``, which is bit
    quotient_pivots[k] of z reduced by the RREF of the region boundary
    masks.  ``boundary[i]`` marks the edges with an odd number of ends
    at crossing i, which is what the cycle check tests against.
    """

    edge_count: int
    boundary: tuple[int, ...]
    quotient_pivots: tuple[int, ...]
    class_masks: tuple[int, ...]

    @property
    def h1_dim(self) -> int:
        return len(self.quotient_pivots)


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the classes of a and b; False when they were one class already."""
    a, b = _find(parent, a), _find(parent, b)
    if a == b:
        return False
    parent[a] = b
    return True


def build_context(shadow: Shadow) -> HomologyContext:
    """The homology context of a shadow; Shadow.homology_context caches it.

    A tree-cotree decomposition (Eppstein, SODA 2003) with greedy edge
    orders (Erickson and Whittlesey, SODA 2005) picks the pivots of the
    unique RREFs without eliminating:

    - F, Kruskal over regions in ascending edge order, is the min-index
      basis of the dual graph's graphic matroid, which the region masks
      represent: the pivots of their RREF.  The RREF row with pivot f is
      the fundamental cut of f in F.
    - Kruskal over crossings on the other edges in descending order
      keeps a max-index spanning tree of G minus F.  The edges it
      rejects, L, form the min-index basis of its dual, the cycle
      matroid contracted by F: the pivots of the quotient RREF.
    - For l in L, the mask of l and the F-path between its two regions
      meets exactly the fundamental cuts containing l, so its parity
      against a cycle is bit l of the cycle reduced by the face RREF.
    """
    edges = shadow.edges
    c = shadow.crossing_count
    m = len(edges)
    regions = shadow.faces.regions
    r = len(regions)
    # Boundary of each edge, accumulated per crossing; a loop cancels.
    boundary = [0] * c
    for j, e in enumerate(edges):
        for d in e.darts:
            boundary[d >> 2] ^= 1 << j

    # The two sides of each edge; an edge with one region on both sides
    # is in no region mask, a loop of the dual graph.
    sides: list[list[int]] = [[] for _ in range(m)]
    for rid, reg in enumerate(regions):
        bits = reg.parity_bits
        while bits:
            low = bits & -bits
            sides[low.bit_length() - 1].append(rid)
            bits ^= low

    parent = list(range(r))
    tree: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    in_f = bytearray(m)
    for j, ends in enumerate(sides):
        if ends and _union(parent, *ends):
            a, b = ends
            tree[a].append((b, j))
            tree[b].append((a, j))
            in_f[j] = 1

    parent = list(range(c))
    cotree = []
    for j in range(m - 1, -1, -1):
        if not in_f[j]:
            a, b = edges[j].darts
            if not _union(parent, a >> 2, b >> 2):
                cotree.append(j)
    cotree.reverse()
    if len(cotree) != 2 - (r - c):
        raise RuntimeError(f"tree-cotree leaves {len(cotree)} edges, "
                           f"expected 2 - chi = {2 - (r - c)}")

    # path[v] is the edge mask of the F-path from region 0 to region v.
    path = [-1] * r
    path[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v, j in tree[u]:
            if path[v] < 0:
                path[v] = path[u] | (1 << j)
                stack.append(v)
    class_masks = []
    for j in cotree:
        mask = 1 << j
        if sides[j]:
            a, b = sides[j]
            mask ^= path[a] ^ path[b]
        class_masks.append(mask)
    return HomologyContext(m, tuple(boundary), tuple(cotree), tuple(class_masks))


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


def _odd_crossings(ctx: HomologyContext, mask: int) -> list[int]:
    """The crossings where the edge set has an odd number of ends."""
    return [i for i, b in enumerate(ctx.boundary) if (mask & b).bit_count() & 1]


def _class_bits(ctx: HomologyContext, mask: int) -> int:
    """Class bits of a cycle mask: one parity per class mask."""
    bits = 0
    for k, phi in enumerate(ctx.class_masks):
        if (mask & phi).bit_count() & 1:
            bits |= 1 << k
    return bits


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
    odd = _odd_crossings(ctx, mask)
    if odd:
        raise ValueError("edge set is not a cycle: odd incidence at "
                         f"crossing {', '.join(map(str, odd))}")
    return BitVector(ctx.h1_dim, _class_bits(ctx, mask))


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
        if _odd_crossings(ctx, mask):
            raise RuntimeError("component trace is not a cycle")
        rows.append(_class_bits(ctx, mask))
    matrix = BitMatrix.from_bitrows(rows, ctx.h1_dim)
    return HomologyMatrix(matrix, rank(matrix))


def homology_matrix(d: EmbeddingScheme) -> HomologyMatrix:
    """Component-class matrix of the diagram (n rows, dim H_1 columns)."""
    return d.shadow.homology_matrix
