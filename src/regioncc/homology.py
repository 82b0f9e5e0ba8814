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


def build_dual_tree(shadow: Shadow) -> tuple[tuple[int, int, int], ...]:
    """F as (region, parent, edge) from (0, 0, -1); Shadow.dual_tree caches it.

    Kruskal over the regions in ascending edge order, listed breadth-first:
    the package's one search of the dual graph.
    """
    r = shadow.faces.region_count
    parent = list(range(r))
    tree: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for j, (a, b) in enumerate(shadow.faces.edge_sides):
        if _union(parent, a, b):
            tree[a].append((b, j))
            tree[b].append((a, j))
    # F has no loops or parallel edges: a region's children are its other neighbors.
    order = [(0, 0, -1)]
    for u, p, _ in order:
        for v, j in tree[u]:
            if v != p:
                order.append((v, u, j))
    return tuple(order)


def checked_dual_tree(shadow: Shadow) -> tuple[tuple[int, int, int], ...]:
    """Shadow.dual_tree, checked: RuntimeError unless it spans the regions.

    Entry 0 is (0, 0, -1); each later entry joins a region not listed
    before to a listed parent by an edge whose ``edge_sides`` entry is
    exactly that pair; every region is listed.
    """
    tree, sides, m = shadow.dual_tree, shadow.faces.edge_sides, len(shadow.edges)
    listed = bytearray(shadow.faces.region_count)
    listed[0] = tree[:1] == ((0, 0, -1),)
    for v, u, j in tree[1:]:
        if not (0 <= j < m and sides[j] == ((u, v) if u < v else (v, u))
                and listed[u] and not listed[v]):
            raise RuntimeError(f"dual tree entry {(v, u, j)} hangs no new region "
                               "on a listed one")
        listed[v] = 1
    if 0 in listed:
        raise RuntimeError("dual tree does not list every region")
    return tree


def build_context(shadow: Shadow) -> HomologyContext:
    """The homology context of a shadow; Shadow.homology_context caches it.

    A tree-cotree decomposition (Eppstein, SODA 2003) with greedy edge
    orders (Erickson and Whittlesey, SODA 2005) picks the pivots of the
    unique RREFs without eliminating:

    - F, the shadow's dual tree (Kruskal over regions in ascending edge
      order), is the min-index basis of the dual graph's graphic
      matroid, which the region masks represent: the pivots of their
      RREF.  The RREF row with pivot f is the fundamental cut of f in F.
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
    c, m = shadow.crossing_count, len(shadow.edges)
    sides, r = shadow.faces.edge_sides, shadow.faces.region_count
    ends = tuple((a >> 2, b >> 2) for (a, b), _ in shadow.edges)

    # The root's -1 names no edge.  The count check comes before the tree
    # check: edge sides that cut the dual graph apart show there first.
    in_f = {j for _, _, j in shadow.dual_tree}
    parent = list(range(c))
    cotree = []
    for j in range(m - 1, -1, -1):
        if j not in in_f and not _union(parent, *ends[j]):
            cotree.append(j)
    cotree.reverse()
    if len(cotree) != 2 - (r - c):
        raise RuntimeError(f"tree-cotree leaves {len(cotree)} edges, "
                           f"expected 2 - chi = {2 - (r - c)}")

    classes, below = [0] * m, [0] * r
    for k, j in enumerate(cotree):
        classes[j] = 1 << k
        a, b = sides[j]
        below[a] ^= 1 << k
        below[b] ^= 1 << k
    # Read backwards, F's breadth-first order puts every region before its
    # parent, so below[v] has gathered v's subtree when v's edge is reached.
    for v, u, j in reversed(checked_dual_tree(shadow)[1:]):
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
