"""Diagram surgeries and random generation.

The second Reidemeister move here pokes a finger of one strand across
another strand through a region both border.  It appends two crossings,
indexed c and c + 1, and replaces the two pierced edges by six: the
other edges keep their order, and the six new edges follow them.  Signs on
the replacement edges are chosen to transport local orientations
consistently, which keeps the surface (and so the Euler characteristic
and orientability) fixed while adding two regions.
"""

from __future__ import annotations

import random
import sys
from typing import NamedTuple

from . import _EXPORTS
from .scheme import (Edge, EmbeddingScheme, InvalidDiagramError, _index,
                     _on_shadow, faces)

__all__ = _EXPORTS["moves"]


class R2Spec(NamedTuple):
    """Poke request: dart_a's strand crosses dart_b's strand.

    The finger leaves dart_a's edge on the side named by dart_a and
    pierces dart_b's edge; both darts must border the same region.
    ``over`` says which strand ends on top at both new crossings:
    "a" for the poking strand, "b" for the pierced one.
    """

    dart_a: int
    dart_b: int
    over: str = "a"


def reidemeister_two(d: EmbeddingScheme, spec: R2Spec) -> EmbeddingScheme:
    """Perform the poke described by spec.

    Raises ValueError when the request names no valid site: darts on a
    shared edge, or darts not bordering a common region; TypeError when
    a dart is not exactly an int.
    """
    if spec.over not in ("a", "b"):
        raise ValueError("over must be 'a' or 'b'")
    da, db = spec.dart_a, spec.dart_b
    for dart in (da, db):
        if type(dart) is not int:
            raise TypeError(f"dart {dart!r} is not an int")
        if not 0 <= dart < d.dart_count:
            raise ValueError(f"dart {dart} out of range")
    ea, eb = d.edge_of(da), d.edge_of(db)
    if ea == eb:
        raise ValueError("darts lie on the same edge")
    structure = faces(d)
    f, fb = structure.plus_face[da], structure.plus_face[db]
    if fb >> 1 != f >> 1:
        raise ValueError("darts do not border a common region")

    ta, tb = d.theta(da), d.theta(db)
    sa, sb = d.edges[ea].sign, d.edges[eb].sign
    # Orientation transported from dart_a's end of its edge; the pierced
    # strand keeps it when dart_b sees dart_a's cover face, else reverses it.
    phi = sa if da < ta else 1
    s = phi if fb == f else -phi
    x, y = 4 * d.crossing_count, 4 * d.crossing_count + 4
    near, far = (y + 2 - phi, x + 2 - phi) if fb == f else (x + 2 - phi, y + 2 - phi)
    kept = [e for j, e in enumerate(d.edges) if j not in (ea, eb)]
    grown = [
        Edge((da, x), phi), Edge((x + 2, y), 1), Edge((y + 2, ta), phi * sa),
        Edge((db, near), s), Edge((x + 2 + phi, y + 2 + phi), 1),
        Edge((far, tb), s * sb),
    ]
    over_flag = 0 if spec.over == "a" else 1
    result = EmbeddingScheme(d.overs + (over_flag, over_flag),
                             tuple(kept) + tuple(grown))
    # Adding two crossings and two regions keeps r - c, hence the surface.
    if faces(result).region_count != structure.region_count + 2:
        raise RuntimeError("poke did not add exactly two regions")
    return result


def poke_sites(d: EmbeddingScheme) -> tuple[tuple[int, int], ...]:
    """All (dart_a, dart_b) pairs reidemeister_two accepts, in ascending order.

    dart_b is on another edge, with its side in dart_a's region, so each
    dart pairs with the darts of one region: grouping the darts by region
    takes time linear in the number of sites.  Every pair is listed, so
    the output is quadratic in region size: ``random_diagram(8000, 0.5,
    seed=1)`` spreads its 32000 darts over 4 regions, nearly 10**9 sites.
    """
    structure = faces(d)
    edge_of = d.shadow.edge_of
    side = [f >> 1 for f in structure.plus_face]
    groups: list[list[int]] = [[] for _ in range(structure.region_count)]
    for x, rid in enumerate(side):
        groups[rid].append(x)
    return tuple((da, db) for da, rid in enumerate(side)
                 for db in groups[rid] if edge_of[db] != edge_of[da])


def switch_crossing(d: EmbeddingScheme, i: int) -> EmbeddingScheme:
    """Swap which strand is on top at crossing i, on the same shadow."""
    _index(i, d.crossing_count, "crossing")
    overs = d.overs
    return _on_shadow(overs[:i] + (overs[i] ^ 1,) + overs[i + 1:], d.shadow)


def random_diagram(crossings: int, neg_prob: float = 0.0,
                   seed: int | None = None) -> EmbeddingScheme:
    """Uniform random pairing of darts, resampled until connected.

    Edge signs are -1 with probability neg_prob and over flags are fair
    coin flips, both drawn after a connected shadow is found, so equal
    seeds give equal diagrams.
    """
    if type(crossings) is not int:
        raise TypeError(f"crossing count {crossings!r} is not an int")
    if crossings < 1:
        raise ValueError("need at least one crossing")
    # Dart ids index lists, so 4 * crossings must fit in a Py_ssize_t.
    if crossings > sys.maxsize // 4:
        raise ValueError(f"need at most {sys.maxsize // 4} crossings")
    if not 0.0 <= neg_prob <= 1.0:
        raise ValueError("neg_prob must lie in [0, 1]")
    rng = random.Random(seed)
    darts = list(range(4 * crossings))
    for _ in range(10000):
        rng.shuffle(darts)
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(darts[::2], darts[1::2])
        )
        try:
            shadow = EmbeddingScheme(
                (0,) * crossings, tuple(Edge(p, 1) for p in pairs))
        except InvalidDiagramError:
            continue
        break
    else:
        raise RuntimeError("no connected pairing found")
    edges = tuple(
        Edge(e.darts, -1 if rng.random() < neg_prob else 1)
        for e in shadow.edges
    )
    overs = tuple(rng.randrange(2) for _ in range(crossings))
    return EmbeddingScheme(overs, edges)
