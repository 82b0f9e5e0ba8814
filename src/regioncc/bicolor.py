"""Edge bi-colorings and the admissibility test they provide.

A bi-coloring for a crossing set P colors every edge 0 or 1 so that at
each crossing the two edges of either through strand agree in color
exactly when the crossing is outside P.  The 1-colored edges always
form a cycle of the graph, so they carry a homology class.  A crossing
set is switchable by regions precisely when some bi-coloring for it
has class zero; since the homogeneous solutions are spanned by the
component indicator vectors, that holds exactly when one particular
solution's class lies in the row space of the component-class matrix.
This route never looks at the incidence matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .gf2 import BitVector, in_rowspace
from .homology import class_of
from .rcc import _crossing_set

if TYPE_CHECKING:
    from .scheme import EmbeddingScheme

__all__ = [
    "Bicoloring",
    "bicoloring",
    "phi_class",
    "admissible_by_bicoloring",
]


class Bicoloring(NamedTuple):
    """One color (0 or 1) per edge of the diagram."""

    colors: tuple[int, ...]

    def ones_mask(self) -> int:
        bits = 0
        for e, color in enumerate(self.colors):
            bits |= (color & 1) << e
        return bits

    def switched(self, d: EmbeddingScheme) -> tuple[int, ...]:
        """Crossings whose through strands change color, sorted.

        For a valid bi-coloring both strands of a crossing agree on
        whether they change; RuntimeError flags a mismatch.
        """
        out = []
        for i in range(d.crossing_count):
            verdicts = set()
            for p in (0, 1):
                e1 = d.edge_of(4 * i + p)
                e2 = d.edge_of(4 * i + p + 2)
                verdicts.add(self.colors[e1] ^ self.colors[e2])
            if len(verdicts) != 1:
                raise RuntimeError(f"strands disagree at crossing {i}")
            out.extend([i] if verdicts.pop() else [])
        return tuple(out)


def bicoloring(d: EmbeddingScheme, crossings: Iterable[int]) -> Bicoloring | None:
    """A bi-coloring for the given crossing set, or None if none exists.

    Each component is walked once from its largest edge, colored 0, and
    the color flips at every passage through a chosen crossing; the
    walk must close with an even number of flips.  A strand that
    enters and leaves a chosen crossing along one edge closes after one
    flip, so that set has no bi-coloring.  The equations, one per
    passage, form one cycle per component, whose largest edge is its
    only free unknown, so this is the pivot solution of the system.
    """
    chosen = _crossing_set(d, crossings)
    colors = [0] * d.edge_count
    for comp in d.shadow.components:
        # Passage j joins edges[j - 1] to edges[j].
        edges, passages = comp.edges, comp.passages
        k = len(edges)
        start = edges.index(max(edges))
        color = 0
        for j in range(start + 1, start + k + 1):
            color ^= passages[j % k][0] in chosen
            colors[edges[j % k]] = color
        if color:
            return None
    return Bicoloring(tuple(colors))


def phi_class(d: EmbeddingScheme, coloring: Bicoloring) -> BitVector:
    """Homology class of the 1-colored edge set."""
    if len(coloring.colors) != d.edge_count:
        raise ValueError("coloring length does not match the edge count")
    return class_of(d, coloring.ones_mask())


def admissible_by_bicoloring(
    d: EmbeddingScheme, crossings: Iterable[int]
) -> tuple[bool, Bicoloring | None]:
    """Admissibility via bi-colorings, with a class-zero witness.

    Returns (True, witness) where the witness is a bi-coloring for the
    crossing set whose 1-colored edges bound, or (False, None).
    """
    base = bicoloring(d, crossings)
    if base is None:
        return False, None
    hm = d.shadow.homology_matrix
    coeffs = in_rowspace(hm.matrix, phi_class(d, base))
    if coeffs is None:
        return False, None
    mask = base.ones_mask()
    comps = d.shadow.components
    for k in coeffs.support():
        for e in comps[k].edges:
            mask ^= 1 << e
    witness = Bicoloring(tuple((mask >> e) & 1 for e in range(d.edge_count)))
    if phi_class(d, witness).bits:
        raise RuntimeError("component flips did not cancel the class")
    return True, witness
