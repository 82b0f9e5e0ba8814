"""Mod-2 homology of the surface carrying a diagram.

The embedded 4-valent graph gives a chain complex over GF(2): edges
span the 1-chains, crossings the 0-chains, and region boundaries the
image of the 2-chains.  First homology is the cycle space of the graph
modulo the span of the region boundary masks; its dimension equals
2 minus the Euler characteristic.  Classes are bit masks (bit k =
basis element k), matching the gf2 row convention.

The cycle rule of ``class_of`` and the bi-coloring route lives here: a
0/1 edge coloring is a cycle exactly when both strands agree at every
crossing, and its class XORs its edges' classes.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import itemgetter, xor
from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .gf2 import BitMatrix, BitVector
from .scheme import EmbeddingScheme, Shadow, _index_list, _union, dual_tree

__all__ = _EXPORTS["homology"]


class Homology(NamedTuple):
    """H_1 of the surface and the link components' classes in it.

    H_1 has one basis element per edge in ``quotient_pivots``: the pivots
    of the reduced row echelon form of the cycle space modulo region
    boundaries, with edges as columns.  The class of a cycle z is the
    XOR of ``edge_classes[e]`` over its edges; its bit k is bit
    quotient_pivots[k] of z reduced by the RREF of the region boundary
    masks.  Row i of ``matrix`` is component i's class; the matrix
    eliminates its rows on first use.
    """

    quotient_pivots: tuple[int, ...]
    edge_classes: tuple[int, ...]
    matrix: BitMatrix

    @property
    def h1_dim(self) -> int:
        return len(self.quotient_pivots)

    @property
    def rank(self) -> int:
        return self.matrix.rank


def build_homology(shadow: Shadow) -> Homology:
    """The homology table of a shadow; Shadow.homology caches it.

    A tree-cotree decomposition (Eppstein, SODA 2003) with greedy edge
    orders (Erickson and Whittlesey, SODA 2005) picks the pivots of the
    unique RREFs without eliminating:

    - F, the dual tree (``scheme.dual_tree``: Kruskal over regions in
      ascending edge order), is the min-index basis of the dual graph's
      graphic matroid, which the region masks represent: the pivots of
      their RREF.  The RREF row with pivot f is the fundamental cut of f in F.
    - Kruskal over crossings on the other edges in descending order
      keeps a max-index spanning tree of G minus F.  The edges it
      rejects, L, form the min-index basis of its dual, the cycle
      matroid contracted by F: the pivots of the quotient RREF.
    - For l_k in L, the edge l_k and the F-path between its two regions
      meet exactly the fundamental cuts containing l_k, so a cycle's
      parity against them is bit l_k of the cycle reduced by the face
      RREF.  So l_k gets class bit k, and an edge of F gets bit k when
      exactly one of l_k's regions lies below it in F.

    Each component's class is then read off the edge classes just built.
    """
    edges = shadow.edges
    c, m = shadow.crossing_count, len(edges)
    sides, r = shadow.faces.edge_sides, shadow.faces.region_count
    tree = dual_tree(shadow)
    in_f = {j for _, _, j in tree}   # the root's -1 names no edge
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
    for v, u, j in reversed(tree[1:]):
        classes[j] = below[v]
        below[u] ^= below[v]
    classes = tuple(classes)
    # The component table's own invariant, checked once: laid end to end
    # its edge lists are range(m), each index an exact int, and one gather
    # of the edges' component labels through edge_of gives both edges of
    # every strand one label, so each list is a union of strands: a cycle.
    label = [-1] * m
    try:
        for k, comp in enumerate(shadow.components):
            for e in comp.edges:
                if type(e) is not int or not 0 <= e < m or label[e] >= 0:
                    raise ValueError
                label[e] = k
        at = itemgetter(*shadow.edge_of)(label)
        if -1 in label or at[0::4] != at[2::4] or at[1::4] != at[3::4]:
            raise ValueError
    except (TypeError, ValueError):   # TypeError: an edge list that is no iterable
        raise RuntimeError("component trace is not a cycle") from None
    rows = [reduce(xor, map(classes.__getitem__, comp.edges), 0)
            for comp in shadow.components]
    return Homology(tuple(cotree), classes, BitMatrix(len(cotree), rows))


def homology_matrix(d: EmbeddingScheme) -> Homology:
    """The diagram's homology table: H_1 and its component-class matrix."""
    return d.shadow.homology


homology_context = homology_matrix   # one table, both public names


def class_of(d: EmbeddingScheme, edges: Iterable[int]) -> BitVector:
    """Homology class of an edge cycle, in the table's quotient basis.

    ``edges``, int edge indices checked by ``_index_list``, are taken mod
    2 into the 0/1 coloring whose class ``_cycle_class`` reads, as for
    ``phi_class``: ValueError names the lowest crossing where the strands
    disagree if the edges do not form a cycle of the graph.
    """
    m = d.edge_count
    parity = [0] * m
    for e in _index_list(edges, m, "edge"):
        parity[e] ^= 1
    return _cycle_class(d, parity)


def _cycle_changes(d: EmbeddingScheme, colors: Sequence[int]) -> int:
    """Byte i is 1 where crossing i's strands change color, for 0/1 colors,
    read by one gather through ``edge_of``.  ValueError names the lowest
    crossing whose two strands disagree: the colors are no cycle there."""
    at = bytes(itemgetter(*d.shadow.edge_of)(colors))
    d0, d1, d2, d3 = (int.from_bytes(at[k::4], "little") for k in range(4))
    first, odd = d0 ^ d2, d0 ^ d1 ^ d2 ^ d3   # odd: nonzero where strands disagree
    if odd:
        raise ValueError(f"strands disagree at crossing {(odd & -odd).bit_length() - 1 >> 3}")
    return first


def _class_bits(edge_classes: Sequence[int], colors: Sequence[int]) -> int:
    """The class bits of the 1-colored edges: their edge classes XORed."""
    return reduce(xor, compress(edge_classes, colors), 0)


def _cycle_class(d: EmbeddingScheme, colors: Sequence[int]) -> BitVector:
    """The class rule for 0/1 colors: ``_cycle_changes``, then ``_class_bits``."""
    _cycle_changes(d, colors)
    hom = d.shadow.homology
    return BitVector(hom.h1_dim, _class_bits(hom.edge_classes, colors))
