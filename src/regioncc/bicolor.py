"""Edge bi-colorings and the admissibility test they provide.

A bi-coloring for a crossing set P colors every edge 0 or 1 so that at
each crossing the two edges of either through strand agree in color
exactly when the crossing is outside P.  The 1-colored edges always
form a cycle of the graph, so they carry a homology class.  A crossing
set is switchable by regions precisely when some bi-coloring for it
has class zero; since the homogeneous solutions are spanned by the
component indicator vectors, that holds exactly when one particular
solution's class is a sum of component classes, which the row basis of
the component-class matrix reads off.  This route never looks at the
incidence matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _EXPORTS
from .gf2 import BitVector, set_bits
from .homology import class_of
from .rcc import _index_set

if TYPE_CHECKING:
    from .scheme import EmbeddingScheme

__all__ = _EXPORTS["bicolor"]


class Bicoloring(NamedTuple):
    """One color (0 or 1) per edge of the diagram."""

    colors: tuple[int, ...]

    def switched(self, d: EmbeddingScheme) -> tuple[int, ...]:
        """Crossings whose through strands change color, sorted.

        For a valid bi-coloring both strands of a crossing agree on
        whether they change; ValueError flags a mismatch.
        """
        colors, edge_of = _checked_colors(d, self), d.shadow.edge_of
        out = []
        for i in range(d.crossing_count):
            flip = colors[edge_of[4 * i]] ^ colors[edge_of[4 * i + 2]]
            if flip != colors[edge_of[4 * i + 1]] ^ colors[edge_of[4 * i + 3]]:
                raise ValueError(f"strands disagree at crossing {i}")
            if flip:
                out.append(i)
        return tuple(out)


def _checked_colors(d: EmbeddingScheme, coloring: Bicoloring) -> tuple[int, ...]:
    """The colors, one per edge of d and each exactly the int 0 or 1."""
    colors = coloring.colors
    if len(colors) != d.edge_count:
        raise ValueError("coloring length does not match the edge count")
    # Set tests run in C: True == 1 and 1.0 == 1, so types are tested too.
    if not ({*map(type, colors)} <= {int} and {*colors} <= {0, 1}):
        raise ValueError("coloring colors must be 0 or 1")
    return colors


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
    chosen = _index_set(crossings, d.crossing_count, "crossing")
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
    colors = _checked_colors(d, coloring)
    return class_of(d, [e for e, color in enumerate(colors) if color])


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
    # Colors built here are 0 or 1, so class_of reads them without phi_class's check.
    ones = [e for e, color in enumerate(base.colors) if color]
    coeffs = d.shadow.homology_matrix.basis.expression(class_of(d, ones).bits)
    if coeffs is None:
        return False, None
    colors = list(base.colors)
    comps = d.shadow.components
    for k in set_bits(coeffs):
        for e in comps[k].edges:
            colors[e] ^= 1
    if class_of(d, [e for e, color in enumerate(colors) if color]).bits:
        raise RuntimeError("component flips did not cancel the class")
    return True, Bicoloring(tuple(colors))
