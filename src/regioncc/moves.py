"""Diagram surgeries and random generation.

The second Reidemeister move here pokes a finger of one strand across
another strand through a region both border.  It appends two crossings
and replaces the two pierced edges by six, leaving every other edge
index untouched; the new crossings are indexed c and c + 1.  Signs on
the replacement edges are chosen to transport local orientations
consistently, which keeps the surface (and so the Euler characteristic
and orientability) fixed while adding two regions.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .scheme import Edge, EmbeddingScheme, InvalidDiagramError, faces

__all__ = [
    "R2Spec",
    "reidemeister_two",
    "poke_sites",
    "switch_crossing",
    "random_diagram",
]


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
    shared edge, or darts not bordering a common region.
    """
    if spec.over not in ("a", "b"):
        raise ValueError("over must be 'a' or 'b'")
    da, db = spec.dart_a, spec.dart_b
    for x in (da, db):
        if not 0 <= x < d.dart_count:
            raise ValueError(f"dart {x} out of range")
    ea, eb = d.edge_of(da), d.edge_of(db)
    if ea == eb:
        raise ValueError("darts lie on the same edge")
    structure = faces(d)
    f = structure.plus_face[da]
    fb = structure.plus_face[db]
    if fb == f:
        delta_b = 1
    elif fb == structure.face_partner[f]:
        delta_b = -1
    else:
        raise ValueError("darts do not border a common region")

    sa = d.edges[ea].sign
    sb = d.edges[eb].sign
    # Orientation transported from dart_a's end of its edge.
    phi = sa if da < d.theta(da) else 1
    c = d.crossing_count
    x0, y0 = 4 * c, 4 * c + 4
    if phi > 0:
        x_a1, x_bs, x_a2, x_bn = x0, x0 + 1, x0 + 2, x0 + 3
        y_a1, y_bn, y_a2, y_bs = y0, y0 + 1, y0 + 2, y0 + 3
    else:
        x_a1, x_bn, x_a2, x_bs = x0, x0 + 1, x0 + 2, x0 + 3
        y_a1, y_bs, y_a2, y_bn = y0, y0 + 1, y0 + 2, y0 + 3

    kept = [e for j, e in enumerate(d.edges) if j not in (ea, eb)]
    grown = [
        Edge((da, x_a1), phi),
        Edge((x_a2, y_a1), 1),
        Edge((y_a2, d.theta(da)), phi * sa),
    ]
    if delta_b > 0:
        grown += [
            Edge((db, y_bn), phi),
            Edge((x_bn, y_bs), 1),
            Edge((x_bs, d.theta(db)), phi * sb),
        ]
    else:
        grown += [
            Edge((db, x_bs), -phi),
            Edge((x_bn, y_bs), 1),
            Edge((y_bn, d.theta(db)), -phi * sb),
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
    takes time linear in the number of sites.
    """
    structure = faces(d)
    edge_of = d.shadow.edge_of
    side = [structure.region_of_side(x) for x in range(d.dart_count)]
    groups: list[list[int]] = [[] for _ in range(structure.region_count)]
    for x, rid in enumerate(side):
        groups[rid].append(x)
    return tuple((da, db) for da, rid in enumerate(side)
                 for db in groups[rid] if edge_of[db] != edge_of[da])


def switch_crossing(d: EmbeddingScheme, i: int) -> EmbeddingScheme:
    """Swap which strand is on top at crossing i."""
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    overs = list(d.overs)
    overs[i] ^= 1
    return d.with_overs(overs)


def random_diagram(crossings: int, neg_prob: float = 0.0,
                   seed: int | None = None) -> EmbeddingScheme:
    """Uniform random pairing of darts, resampled until connected.

    Edge signs are -1 with probability neg_prob and over flags are fair
    coin flips, both drawn after a connected shadow is found, so equal
    seeds give equal diagrams.
    """
    if crossings < 1:
        raise ValueError("need at least one crossing")
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
