"""Graph walks and the shared factorisation against dense eliminations.

The strand-walk bi-coloring, the tree-cotree homology context and the
per-shadow factorisation of the incidence matrix each claim to return
the same unique object as a dense GF(2) elimination: the pivot
solution, the RREF quotient basis and its class bits, the nullspace
basis.  The dense routes live in conftest and are compared here on
random diagrams of every sign mix, on the torus family and on the
one-crossing fixtures.
"""

import random
import time

import pytest

from conftest import (braid_pd, cyclic_pd, dense_admissible, dense_bicoloring,
                      dense_context, dense_ineffective, dense_rank,
                      even_target, make_curl, make_rp2curl, make_torus11,
                      matches_dense_oracles, ones, random_suite, region_parities)
from regioncc import (admissible, bicoloring, class_of, components,
                      count_classes, faces, homology_context, import_pd,
                      incidence_matrix, ineffective_basis, random_diagram,
                      rcc_equivalent, verify_rank_formula)


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
    assert d.shadow.incidence_matrix.rank == dense_rank(m)
    assert verify_rank_formula(d).incidence_rank == dense_rank(m)
    assert count_classes(d) == d.crossing_count - dense_rank(m)
    for target in targets(d, rng):
        assert admissible(d, target) == dense_admissible(d, target)
    assert ineffective_basis(d) == dense_ineffective(d)
    moved = d.with_overs(o ^ rng.randrange(2) for o in d.overs)
    diff = [i for i, (a, b) in enumerate(zip(d.overs, moved.overs)) if a != b]
    assert rcc_equivalent(d, moved) == dense_admissible(d, diff)


def test_both_eliminations_match_the_dense_oracles():
    # M and N each keep one elimination; rank, kernel and expressions read it.
    rng = random.Random(99)
    for d in SUITE:
        for m in (incidence_matrix(d), homology_context(d).matrix):
            matches_dense_oracles(m, rng)


BRAIDS = [import_pd(braid_pd(8, n, seed)) for seed, n in enumerate((50, 100, 150, 200))]


@pytest.mark.parametrize("index", range(len(BRAIDS)))
def test_factorisation_matches_dense_eliminations_on_braids(index):
    d = BRAIDS[index]
    # Every crossing meets four distinct regions, which the random and
    # torus families above do not guarantee.
    meets = [set() for _ in range(d.crossing_count)]
    for rid, region in enumerate(faces(d).regions):
        for v in region.corners:
            meets[v].add(rid)
    assert all(len(m) == 4 for m in meets)
    rng = random.Random(300 + index)
    m = incidence_matrix(d)
    assert d.shadow.incidence_matrix.rank == dense_rank(m)
    for target in targets(d, rng):
        assert admissible(d, target) == dense_admissible(d, target)
    assert ineffective_basis(d) == dense_ineffective(d)


def tree_cycles(d) -> list[int]:
    """The fundamental cycles of a spanning tree grown from crossing 0.

    path[v] is the edge mask of the tree path from crossing 0 to v; each
    edge outside the tree closes the cycle path[u] ^ path[v] ^ edge.
    """
    path = [-1] * d.crossing_count
    path[0] = 0
    in_tree = set()
    stack = [0]
    while stack:
        u = stack.pop()
        for x in range(4 * u, 4 * u + 4):
            v = d.theta(x) >> 2
            if path[v] < 0:
                path[v] = path[u] | (1 << d.edge_of(x))
                in_tree.add(d.edge_of(x))
                stack.append(v)
    return [path[e.darts[0] >> 2] ^ path[e.darts[1] >> 2] ^ (1 << j)
            for j, e in enumerate(d.edges) if j not in in_tree]


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_tree_cycle_context_matches_nullspace_context(index):
    d = SUITE[index]
    ctx = homology_context(d)
    pivots, dense_class = dense_context(d)
    assert ctx.quotient_pivots == pivots
    rng = random.Random(200 + index)
    cycles = tree_cycles(d)
    masks = list(cycles)
    for comp in components(d):
        mask = 0
        for e in comp.edges:
            mask ^= 1 << e
        masks.append(mask)
    masks += region_parities(d)
    for _ in range(20):
        mask = 0
        for z in cycles:
            if rng.random() < 0.5:
                mask ^= z
        masks.append(mask)
    for mask in masks:
        assert class_of(d, ones(mask)).bits == dense_class(mask)
    # A lone edge between two crossings has odd ends at both; class_of
    # names the lower one, where the strands first disagree.
    for j, e in enumerate(d.edges):
        low, high = sorted(x >> 2 for x in e.darts)
        if low != high:
            with pytest.raises(ValueError, match="not a cycle"):
                dense_class(1 << j)
            with pytest.raises(ValueError, match=f"^strands disagree at crossing {low}$"):
                class_of(d, [j])
            break


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
