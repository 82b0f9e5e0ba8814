"""Mod-2 homology of the surface carrying a diagram.

The embedded 4-valent graph gives a chain complex over GF(2): edges
span the 1-chains, crossings the 0-chains, and region boundaries the
image of the 2-chains.  First homology is the cycle space of the graph
modulo the span of the region boundary masks; its dimension equals
2 minus the Euler characteristic.  Classes are bit masks (bit k =
basis element k), matching the gf2 row convention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _EXPORTS
from .gf2 import BitMatrix, BitVector, RowBasis

if TYPE_CHECKING:
    from .scheme import EmbeddingScheme, Shadow

__all__ = _EXPORTS["homology"]


class HomologyContext(NamedTuple):
    """Per-edge tables that read the homology class of an edge cycle.

    H_1 has one basis element per edge in ``quotient_pivots``: the pivots
    of the reduced row echelon form of the cycle space modulo region
    boundaries, with edges as columns.  The class of a cycle z is the
    XOR of ``edge_classes[e]`` over its edges; its bit k is bit
    quotient_pivots[k] of z reduced by the RREF of the region boundary
    masks.  ``edge_ends[e]`` holds the end crossings of edge e, which
    the cycle check counts.
    """

    edge_ends: tuple[tuple[int, int], ...]
    quotient_pivots: tuple[int, ...]
    edge_classes: tuple[int, ...]

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
    - For l_k in L, the edge l_k and the F-path between its two regions
      meet exactly the fundamental cuts containing l_k, so a cycle's
      parity against them is bit l_k of the cycle reduced by the face
      RREF.  So l_k gets class bit k, and an edge of F gets bit k when
      exactly one of l_k's regions lies below it in F.
    """
    edges = shadow.edges
    c = shadow.crossing_count
    m = len(edges)
    structure = shadow.faces
    sides = structure.edge_sides
    r = structure.region_count
    ends = tuple((a >> 2, b >> 2) for (a, b), _ in edges)

    # An edge with one region on both sides is a loop of the dual graph
    # and never joins F.
    parent = list(range(r))
    tree: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    in_f = bytearray(m)
    for j, (a, b) in enumerate(sides):
        if _union(parent, a, b):
            tree[a].append((b, j))
            tree[b].append((a, j))
            in_f[j] = 1

    parent = list(range(c))
    cotree = []
    for j in range(m - 1, -1, -1):
        if not in_f[j] and not _union(parent, *ends[j]):
            cotree.append(j)
    cotree.reverse()
    if len(cotree) != 2 - (r - c):
        raise RuntimeError(f"tree-cotree leaves {len(cotree)} edges, "
                           f"expected 2 - chi = {2 - (r - c)}")

    classes = [0] * m
    below = [0] * r
    for k, j in enumerate(cotree):
        classes[j] = 1 << k
        a, b = sides[j]
        below[a] ^= 1 << k
        below[b] ^= 1 << k
    # (region, parent, edge to parent) in breadth-first order from region
    # 0.  Read backwards, every region comes before its parent, so
    # below[v] has gathered v's whole subtree when v's edge is reached.
    seen = bytearray(r)
    seen[0] = 1
    order = [(0, 0, -1)]
    for u, _, _ in order:
        for v, j in tree[u]:
            if not seen[v]:
                seen[v] = 1
                order.append((v, u, j))
    for v, u, j in reversed(order[1:]):
        classes[j] = below[v]
        below[u] ^= below[v]
    return HomologyContext(ends, tuple(cotree), tuple(classes))


def homology_context(d: EmbeddingScheme) -> HomologyContext:
    return d.shadow.homology_context


def _cycle_class(ctx: HomologyContext, edges: Iterable[int]) -> int:
    """Class bits of an edge cycle, read in one pass over its edge indices.

    Each index is checked, its class XORed in and its end crossings
    toggled (a loop's two ends cancel); indices are taken mod 2.  ValueError names the crossings
    with odd incidence if the edges do not form a cycle of the graph.
    """
    try:
        edges = iter(edges)
    except TypeError:
        raise TypeError(f"edge set {edges!r} is not an iterable") from None
    edge_ends, edge_classes = ctx.edge_ends, ctx.edge_classes
    m = len(edge_ends)
    bits = 0
    odd: set[int] = set()
    for e in edges:
        if type(e) is not int:
            raise TypeError(f"edge index {e!r} is not an int")
        if not 0 <= e < m:
            raise IndexError(f"edge index {e} out of range")
        bits ^= edge_classes[e]
        u, v = edge_ends[e]
        if u != v:
            odd ^= {u, v}
    if odd:
        raise ValueError("edge set is not a cycle: odd incidence at "
                         f"crossing {', '.join(map(str, sorted(odd)))}")
    return bits


def class_of(d: EmbeddingScheme, edges: Iterable[int]) -> BitVector:
    """Homology class of an edge cycle, in the context's quotient basis.

    ``edges`` is an iterable of int edge indices, taken mod 2.  Raises
    ValueError naming the crossings with odd incidence if they do not
    form a cycle of the graph.
    """
    ctx = d.shadow.homology_context
    return BitVector(ctx.h1_dim, _cycle_class(ctx, edges))


class HomologyMatrix(NamedTuple):
    """Rows are the homology classes of the link components, with their row basis."""

    matrix: BitMatrix
    basis: RowBasis

    @property
    def rank(self) -> int:
        return self.basis.rank


def build_homology_matrix(shadow: Shadow) -> HomologyMatrix:
    """The component-class matrix of a shadow; Shadow.homology_matrix caches it."""
    ctx = shadow.homology_context
    try:
        rows = [_cycle_class(ctx, comp.edges) for comp in shadow.components]
    except ValueError:
        raise RuntimeError("component trace is not a cycle") from None
    return HomologyMatrix(BitMatrix.from_bitrows(rows, ctx.h1_dim),
                          RowBasis.of(rows, ctx.h1_dim))


def homology_matrix(d: EmbeddingScheme) -> HomologyMatrix:
    """Component-class matrix of the diagram (n rows, dim H_1 columns)."""
    return d.shadow.homology_matrix
