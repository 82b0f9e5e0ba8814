"""Mod-2 homology of the surface carrying a diagram.

The embedded 4-valent graph gives a chain complex over GF(2): edges
span the 1-chains, crossings the 0-chains, and region boundaries the
image of the 2-chains.  First homology is the cycle space of the graph
modulo the span of the region boundary masks; its dimension equals
2 minus the Euler characteristic.  Classes are bit masks (bit k =
basis element k), matching the gf2 row convention.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, NamedTuple

from . import _EXPORTS
from .gf2 import BitMatrix, BitVector, RowBasis
from .scheme import EmbeddingScheme, Shadow, _index_list, _union, checked_dual_tree

__all__ = _EXPORTS["homology"]


class HomologyContext(NamedTuple):
    """Per-edge tables that read the homology class of an edge cycle.

    H_1 has one basis element per edge in ``quotient_pivots``: the pivots
    of the reduced row echelon form of the cycle space modulo region
    boundaries, with edges as columns.  The class of a cycle z is the
    XOR of ``edge_classes[e]`` over its edges; its bit k is bit
    quotient_pivots[k] of z reduced by the RREF of the region boundary
    masks.
    """

    quotient_pivots: tuple[int, ...]
    edge_classes: tuple[int, ...]

    @property
    def h1_dim(self) -> int:
        return len(self.quotient_pivots)


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
    edges = shadow.edges
    c, m = shadow.crossing_count, len(edges)
    sides, r = shadow.faces.edge_sides, shadow.faces.region_count

    # The root's -1 names no edge.  The count check comes before the tree
    # check: edge sides that cut the dual graph apart show there first.
    try:
        in_f = {j for _, _, j in shadow.dual_tree}
    except (TypeError, ValueError):
        checked_dual_tree(shadow)   # names the entry that is no triple
        raise
    parent = list(range(c))
    cotree = []
    for j in range(m - 1, -1, -1):
        (a, b), _ = edges[j]
        if j not in in_f and not _union(parent, a >> 2, b >> 2):
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
    return HomologyContext(tuple(cotree), tuple(classes))


def homology_context(d: EmbeddingScheme) -> HomologyContext:
    return d.shadow.homology_context


def _cycle_class(shadow: Shadow, edges: Iterable[int]) -> int:
    """Class bits of an edge cycle, read off its edge indices.

    The indices are checked by ``_index_list``, which also rejects a
    non-iterable; then each one's class is XORed in and the parities of
    its end crossings toggled (a loop's two ends cancel); indices are
    taken mod 2.  ValueError names the crossings with odd incidence if
    the edges do not form a cycle of the graph.
    """
    shadow_edges, edge_classes = shadow.edges, shadow.homology_context.edge_classes
    m = len(shadow_edges)
    bits = 0
    odd = bytearray(shadow.crossing_count)
    for e in _index_list(edges, m, "edge"):
        bits ^= edge_classes[e]
        (a, b), _ = shadow_edges[e]
        odd[a >> 2] ^= 1
        odd[b >> 2] ^= 1
    if 1 in odd:
        raise ValueError("edge set is not a cycle: odd incidence at "
                         f"crossing {', '.join(map(str, compress(count(), odd)))}")
    return bits


def class_of(d: EmbeddingScheme, edges: Iterable[int]) -> BitVector:
    """Homology class of an edge cycle, in the context's quotient basis.

    ``edges`` is an iterable of int edge indices, taken mod 2.  Raises
    ValueError naming the crossings with odd incidence if they do not
    form a cycle of the graph.
    """
    return BitVector(d.shadow.homology_context.h1_dim, _cycle_class(d.shadow, edges))


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
        rows = [_cycle_class(shadow, comp.edges) for comp in shadow.components]
    except (IndexError, TypeError, ValueError):
        raise RuntimeError("component trace is not a cycle") from None
    return HomologyMatrix(BitMatrix.from_bitrows(rows, ctx.h1_dim),
                          RowBasis.of(rows, ctx.h1_dim))


def homology_matrix(d: EmbeddingScheme) -> HomologyMatrix:
    """Component-class matrix of the diagram (n rows, dim H_1 columns)."""
    return d.shadow.homology_matrix
