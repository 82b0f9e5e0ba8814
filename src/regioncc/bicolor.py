"""Edge bi-colorings and the admissibility test they provide.

A bi-coloring for a crossing set P colors every edge 0 or 1 so that at
each crossing the two edges of either through strand agree in color
exactly when the crossing is outside P.  The 1-colored edges always
form a cycle of the graph, so they carry a homology class.  A crossing
set is switchable by regions precisely when some bi-coloring for it
has class zero; since the homogeneous solutions are spanned by the
component indicator vectors, that holds exactly when one particular
solution's class is a sum of component classes, which the elimination
of the component-class matrix reads off.  This route never looks at the
incidence matrix; its cycle rule is ``homology``'s, shared with ``class_of``.

Queries work on whole ints.  The shadow's walk table lays the link
components end to end, each from just after its largest edge, so walk
position p holds a passage and then an edge.  A query sets the bits of
the chosen crossings' passages and takes their prefix XOR by doubling
shifts (``x ^= x << s`` for s = 1, 2, 4, ...): bit p becomes the parity
of the chosen passages up to p, the color of the edge there.  A set bit
at a component's last position means that component closes after an
odd number of flips, so no bi-coloring exists.  Flipping a component is
one XOR with the mask of its positions, and one ``itemgetter`` puts the
walk's colors in edge order.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import _EXPORTS
from .gf2 import BitVector, bit_flags, mask_of, set_bits
from .homology import _class_bits, _cycle_changes, _cycle_class
from .scheme import EmbeddingScheme, Shadow, _index_set

__all__ = _EXPORTS["bicolor"]


class Bicoloring(NamedTuple):
    """One color (0 or 1) per edge of the diagram."""

    colors: tuple[int, ...]

    def switched(self, d: EmbeddingScheme) -> tuple[int, ...]:
        """Crossings whose through strands change color, sorted; ValueError
        unless ``_checked_colors`` and ``_cycle_changes`` pass the colors."""
        c = d.crossing_count
        changes = _cycle_changes(d, _checked_colors(d, self.colors))
        return tuple(compress(range(c), changes.to_bytes(c, "little")))


def _checked_colors(d: EmbeddingScheme, colors: tuple[int, ...]) -> tuple[int, ...]:
    """The colors, if they are one int 0 or 1 per edge; else ValueError."""
    if len(colors) != d.edge_count:
        raise ValueError("coloring length does not match the edge count")
    # Set tests run in C: True == 1 and 1.0 == 1, so types are tested too.
    if not ({*map(type, colors)} <= {int} and {*colors} <= {0, 1}):
        raise ValueError("coloring colors must be 0 or 1")
    return colors


def _check_switching(d: EmbeddingScheme, colors: tuple[int, ...], chosen: set[int]) -> None:
    """RuntimeError unless the colors are a bi-coloring for exactly the chosen crossings."""
    target = bytearray(d.crossing_count)
    for i in chosen:
        target[i] = 1
    try:
        if _cycle_changes(d, colors) == int.from_bytes(target, "little"):
            return
    except ValueError:   # the strands disagree: no cycle at all
        pass
    raise RuntimeError("bi-coloring does not switch exactly the target crossings")


class WalkTable(NamedTuple):
    """The link components laid end to end in color order.

    Component k runs over walk positions ``bounds[k]`` up to
    ``bounds[k + 1]``, starting just after its largest edge; position p
    holds the crossing passed just before the edge there.
    ``crossing_positions[2 * i]`` and ``crossing_positions[2 * i + 1]``
    are the positions of crossing i's two passages, ``ends`` has the bit
    of each component's last position, and ``to_edges`` maps a sequence
    in walk order to a tuple in edge order.  Positions take a few words
    per edge: a mask of positions per crossing would grow with the
    square of the crossing count.
    """

    bounds: tuple[int, ...]
    ends: int
    crossing_positions: tuple[int, ...]
    to_edges: itemgetter


def build_walk_table(shadow: Shadow) -> WalkTable:
    """The walk table of a shadow; Shadow.walk_table caches it.

    Slices rotate each component's edges and crossings to start after
    its largest edge; two C-level sorts then group the positions by
    crossing and invert the walk order.
    """
    order: list[int] = []
    crossing_at: list[int] = []
    bounds = [0]
    for edges, crossings in shadow.components:
        start = edges.index(max(edges)) + 1
        order += edges[start:] + edges[:start]
        crossing_at += crossings[start:] + crossings[:start]
        bounds.append(len(order))
    # One list, so both sorted results share its int objects.
    positions = list(range(len(order)))
    return WalkTable(tuple(bounds), mask_of([b - 1 for b in bounds[1:]], len(order)),
                     tuple(sorted(positions, key=crossing_at.__getitem__)),
                     itemgetter(*sorted(positions, key=order.__getitem__)))


def _walk_bits(d: EmbeddingScheme, chosen: set[int]) -> int | None:
    """The pivot bi-coloring's colors in walk order as bits, or None.

    None means a component closes odd, which is checked on the
    components themselves: one of them must pass the chosen crossings an
    odd number of times, or RuntimeError is raised.
    """
    table = d.shadow.walk_table
    positions = table.crossing_positions
    m = table.bounds[-1]
    bits = mask_of([p for i in chosen for p in positions[2 * i:2 * i + 2]], m)
    shift = 1
    while shift < m:
        bits ^= bits << shift
        shift <<= 1
    bits &= (1 << m) - 1
    if not bits & table.ends:
        return bits
    passed = chosen.__contains__
    if any(sum(map(passed, comp.crossings)) & 1 for comp in d.shadow.components):
        return None
    raise RuntimeError("bi-coloring walk closes odd on no component")


def bicoloring(d: EmbeddingScheme, crossings: Iterable[int]) -> Bicoloring | None:
    """A bi-coloring for the given crossing set, or None if none exists.

    Each component is walked from just after its largest edge, which
    gets color 0, and the color flips at every passage through a chosen
    crossing; the walk must close with an even number of flips.  A
    strand that enters and leaves a chosen crossing along one edge
    closes after one flip, so that set has no bi-coloring.  The
    equations, one per passage, form one cycle per component, whose
    largest edge is its only free unknown, so this is the pivot solution
    of the system.  Either answer is checked without the walk table: a
    coloring must switch exactly the given crossings, and None needs a
    component passing them an odd number of times, or RuntimeError is
    raised.
    """
    chosen = _index_set(crossings, d.crossing_count, "crossing")
    bits = _walk_bits(d, chosen)
    if bits is None:
        return None
    colors = d.shadow.walk_table.to_edges(bit_flags(bits, d.edge_count))
    _check_switching(d, colors, chosen)
    return Bicoloring(colors)


def phi_class(d: EmbeddingScheme, coloring: Bicoloring) -> BitVector:
    """Homology class of the 1-colored edge set: ``_checked_colors``
    passes the colors, then ``homology._cycle_class``, shared with
    ``class_of``."""
    return _cycle_class(d, _checked_colors(d, coloring.colors))


def admissible_by_bicoloring(
    d: EmbeddingScheme, crossings: Iterable[int]
) -> tuple[bool, Bicoloring | None]:
    """Admissibility via bi-colorings, with the coloring that shows it.

    Returns (True, w) with w a bi-coloring whose 1-colored edges bound;
    (False, w) with w the pivot ``bicoloring``, whose class lies outside
    the component classes; or (False, None) if no bi-coloring exists.
    Either w is checked from its own colors, in edge order: it must
    switch exactly the given crossings, which makes it a cycle, and a
    yes must have class zero, or RuntimeError is raised.  None needs a
    component passing the crossings an odd number of times.
    """
    chosen = _index_set(crossings, d.crossing_count, "crossing")
    shadow = d.shadow
    table = shadow.walk_table
    bits = _walk_bits(d, chosen)
    if bits is None:
        return False, None
    m = d.edge_count
    hom = shadow.homology
    colors = table.to_edges(bit_flags(bits, m))
    phi = _class_bits(hom.edge_classes, colors)
    coeffs = hom.matrix.expression(phi, set_bits(phi))
    if coeffs:
        bounds = table.bounds
        for k in set_bits(coeffs):
            bits ^= (1 << bounds[k + 1]) - (1 << bounds[k])
        colors = table.to_edges(bit_flags(bits, m))
        phi = _class_bits(hom.edge_classes, colors)
    if coeffs is not None and phi:
        raise RuntimeError("component flips did not cancel the class")
    _check_switching(d, colors, chosen)
    return coeffs is not None, Bicoloring(colors)
