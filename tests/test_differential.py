"""Graph walks and the shared factorisation against dense eliminations.

The strand-walk bi-coloring, the spanning-tree cycle basis and the
per-shadow factorisation of the incidence matrix each claim to return
the same unique object as a dense GF(2) elimination: the pivot
solution, the RREF quotient basis, the nullspace basis.  The dense
routes live in conftest and are compared here on random diagrams of
every sign mix, on the torus family and on the one-crossing fixtures.
"""

import random
import time

import pytest

from conftest import (cyclic_pd, dense_admissible, dense_bicoloring,
                      dense_context, dense_ineffective, make_curl,
                      make_rp2curl, make_torus11, random_suite)
from regioncc import (admissible, bicoloring, components, count_classes,
                      homology_context, import_pd, incidence_matrix,
                      ineffective_basis, random_diagram, rcc_equivalent,
                      verify_rank_formula)
from regioncc.gf2 import rank


def suite():
    out = [make_curl(), make_torus11(), make_rp2curl()]
    for p in (0.0, 0.5, 1.0):
        out += random_suite(12, 1, 10, (p,), seed=int(70 + 10 * p))
        out += random_suite(4, 20, 60, (p,), seed=int(71 + 10 * p))
    out += [import_pd(cyclic_pd(n)) for n in (4, 7, 12, 31)]
    return out


SUITE = suite()


def targets(d, rng):
    """Random crossing sets, every single crossing, and region-set images."""
    c = d.crossing_count
    out = [[], list(range(c))]
    out += [[i] for i in range(min(c, 6))]
    out += [[i for i in range(c) if rng.random() < 0.5] for _ in range(4)]
    rows = incidence_matrix(d).row_bits
    for _ in range(3):
        effect = 0
        for bits in rows:
            if rng.random() < 0.5:
                effect ^= bits
        out.append([i for i in range(c) if (effect >> i) & 1])
    return out


def test_suite_covers_every_kind():
    assert sum(1 for d in SUITE if d.shadow.orientable) > 5
    assert sum(1 for d in SUITE if not d.shadow.orientable) > 5
    assert any(len(components(d)) > 1 for d in SUITE)
    assert any(len(c.edges) == 1 for d in SUITE for c in components(d))


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_strand_walk_is_the_pivot_solution(index):
    d = SUITE[index]
    rng = random.Random(index)
    for target in targets(d, rng):
        phi = bicoloring(d, target)
        expected = dense_bicoloring(d, target)
        assert (None if phi is None else phi.colors) == expected
        if phi is not None:
            assert phi.switched(d) == tuple(sorted(set(target)))


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_factorisation_matches_dense_eliminations(index):
    d = SUITE[index]
    rng = random.Random(100 + index)
    m = incidence_matrix(d)
    assert d.shadow.incidence_factor.rank == rank(m)
    assert verify_rank_formula(d).incidence_rank == rank(m)
    assert count_classes(d) == d.crossing_count - rank(m)
    for target in targets(d, rng):
        assert admissible(d, target) == dense_admissible(d, target)
    assert ineffective_basis(d) == dense_ineffective(d)
    moved = d.with_overs(o ^ rng.randrange(2) for o in d.overs)
    diff = [i for i, (a, b) in enumerate(zip(d.overs, moved.overs)) if a != b]
    assert rcc_equivalent(d, moved) == dense_admissible(d, diff)


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_tree_cycle_context_matches_nullspace_context(index):
    d = SUITE[index]
    assert homology_context(d) == dense_context(d)


def even_target(d, rng):
    """A crossing set every component passes an even number of times.

    Crossings are grouped by the components of their two passages, and
    an even number is taken from each group.
    """
    owner = {}
    for k, comp in enumerate(components(d)):
        for crossing, pair in comp.passages:
            owner[crossing, pair] = k
    groups = {}
    for i in range(d.crossing_count):
        key = frozenset((owner[i, 0], owner[i, 1]))
        groups.setdefault(key, []).append(i)
    chosen = []
    for members in groups.values():
        picked = [i for i in members if rng.random() < 0.5]
        chosen += picked[:len(picked) & ~1]
    return sorted(chosen)


@pytest.mark.parametrize("family", ["torus", "genus"])
def test_bicoloring_at_2000_crossings(family):
    n = 2000
    if family == "torus":
        d = import_pd(cyclic_pd(n))
    else:
        d = random_diagram(n, 0.5, seed=5)
    rng = random.Random(6)
    target = even_target(d, rng)
    assert len(target) > n // 4
    start = time.perf_counter()
    phi = bicoloring(d, target)
    elapsed = time.perf_counter() - start
    assert phi is not None
    assert phi.switched(d) == tuple(target)
    # A dense solve of the 2c x 2c system takes seconds here.
    assert elapsed < 1.0
