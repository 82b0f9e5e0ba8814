"""Every labeled shadow with at most two crossings, counted by surface and class exponent.

A labeled shadow on c crossings is a pairing of the 4c darts into
edges with a sign on each edge: 3 * 2**2 = 12 of them at c = 1 and
105 * 2**4 = 1680 at c = 2.  Each one is built through
``EmbeddingScheme``, so every pairing runs through the structural pass.
The class exponent k is read off the span of the region-corner
parities, traced here, never from ``count_classes``.
"""

from collections import Counter
from itertools import product

import pytest

from conftest import monodromy_orientable, region_walks, row_span
from regioncc import (Edge, EmbeddingScheme, InvalidDiagramError, admissible,
                      admissible_by_bicoloring, count_classes, verify_rank_formula)

# (orientable, k) -> connected labeled shadows, and the disconnected count.
CENSUS = {
    1: ({(True, 0): 2, (True, 1): 1, (False, 0): 4, (False, 1): 5}, 0),
    2: ({(True, 0): 64, (True, 1): 104, (True, 2): 24,
         (False, 0): 192, (False, 1): 592, (False, 2): 560}, 144),
}


def pairings(darts: tuple[int, ...]):
    """Every pairing of the darts, each pair led by its least dart."""
    if not darts:
        yield ()
        return
    first, rest = darts[0], darts[1:]
    for i, other in enumerate(rest):
        for tail in pairings(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + tail


def corner_parities(d: EmbeddingScheme) -> list[int]:
    """Each region's incidence row from walks traced here: bit v is the
    parity of its corners at crossing v."""
    masks = []
    for corners, _ in region_walks(d):
        bits = 0
        for v in corners:
            bits ^= 1 << v
        masks.append(bits)
    return masks


@pytest.mark.parametrize("c", sorted(CENSUS))
def test_labeled_census(c):
    counts, disconnected = Counter(), 0
    for pairs in pairings(tuple(range(4 * c))):
        for signs in product((1, -1), repeat=2 * c):
            edges = [Edge(pair, sign) for pair, sign in zip(pairs, signs)]
            try:
                d = EmbeddingScheme((0,) * c, edges)
            except InvalidDiagramError as err:
                assert err.violations == ["diagram is disconnected"]
                disconnected += 1
                continue
            assert d.shadow.orientable == monodromy_orientable(d)
            span = row_span(corner_parities(d))
            k = c - (len(span).bit_length() - 1)
            counts[d.shadow.orientable, k] += 1
            assert count_classes(d) == k
            assert verify_rank_formula(d).holds
            for target in range(1 << c):
                crossings = [v for v in range(c) if target >> v & 1]
                expected = target in span
                assert (admissible(d, crossings) is not None) == expected
                assert admissible_by_bicoloring(d, crossings)[0] == expected
    assert (dict(counts), disconnected) == CENSUS[c]
