"""The acceptance properties on diagrams of thousands of crossings.

One diagram of each family: the cyclic PD torus code (many regions,
h1 = 2), a random pairing with neg_prob 0.5 (few regions, h1 near the
crossing count), a closed random braid on 200 strands (planar, with
r = c + 2 and many components) and the chain, the closure of
sigma_1^2 ... sigma_{S-1}^2 (planar, with S = c / 2 + 1 short
components, so the kernel has dimension S + 1), and the twisted chain,
the chain with random edge signs (nonorientable, with as many
components).  Each property is checked end to end from a cold shadow,
within a time bound far above what the graph walks and the one
factorisation need; every ineffective set must switch no crossing, and
a renumbered presentation of each diagram must give the mapped
answers.  At 8000 crossings the face trace and the homology tables must
stay linear in size, and the warm routes must agree on targets of every
kind.
"""

import random
import time
import tracemalloc
from functools import reduce
from operator import xor

import pytest

from conftest import (braid_pd, chain_pd, cyclic_pd, even_target, matches_dense_oracles,
                      phi_class_matches_class_of, presentation, reference_cycle_class,
                      reference_switched, same_answers, shift_switched, twisted_chain)
from regioncc import (R2Spec, admissible, admissible_by_bicoloring, apply_rcc,
                      components, count_classes, faces, homology_context, import_pd,
                      incidence_matrix, ineffective_basis, parse_diagram, poke_sites,
                      random_diagram, reidemeister_two, serialize_diagram,
                      surface_info, verify_rank_formula)

N = 2000
FAMILIES = ["torus", "genus", "braid", "chain", "twisted"]
# Measured dimensions of the ineffective region sets at N crossings.
KERNEL_SIZES = {"torus": 1, "genus": 1, "braid": 45, "chain": N // 2 + 2, "twisted": 130}


def make(family: str, n: int):
    if family == "torus":
        return import_pd(cyclic_pd(n))
    if family == "braid":
        return import_pd(braid_pd(200, n, 1))
    if family == "chain":
        return import_pd(chain_pd(n // 2 + 1))
    if family == "twisted":
        return twisted_chain(n, 1)
    return random_diagram(n, 0.5, seed=5)


def switched(d, cert) -> list[int]:
    after = apply_rcc(d, cert)
    return [i for i, (a, b) in enumerate(zip(d.overs, after.overs)) if a != b]


@pytest.mark.parametrize("family", FAMILIES)
def test_acceptance_properties_at_2000_crossings(family):
    start = time.perf_counter()
    d = make(family, N)
    report = verify_rank_formula(d)
    assert report.holds
    if family == "torus":
        assert report.incidence_rank == N - 1
        assert homology_context(d).h1_dim == 2
    elif family in ("braid", "chain"):
        assert report.region_count == N + 2
        assert homology_context(d).h1_dim == 0
    if family == "chain":
        assert report.component_count == N // 2 + 1
        assert report.incidence_rank == N // 2
    if family == "twisted":
        # Measured: r = 605, n = 1001, h1 = 1397 and rank N = 872.
        assert not surface_info(d).orientable
        assert (report.region_count, report.component_count, report.homology_rank,
                report.incidence_rank) == (605, 1001, 872, 475)
        assert homology_context(d).h1_dim == 1397
    # Each ineffective set switches no crossing: its incidence rows XOR
    # to 0.  The kernel has dimension n + 1 - rank N (chain: S + 1).
    basis = ineffective_basis(d)
    assert len(basis) == report.component_count + 1 - report.homology_rank
    assert len(basis) == KERNEL_SIZES[family]
    rows = incidence_matrix(d).row_bits
    for v in basis:
        assert reduce(xor, map(rows.__getitem__, v.support()), 0) == 0

    rng = random.Random(7)
    even = even_target(d, rng)
    odd = sorted(set(even) ^ {rng.randrange(N)})
    image = 0
    for bits in incidence_matrix(d).row_bits:
        if rng.random() < 0.5:
            image ^= bits
    reachable = [i for i in range(N) if (image >> i) & 1]
    assert len(odd) % 2 == 1
    verdicts = []
    for target in (even, odd, reachable):
        cert = admissible(d, target)
        by_colors, witness = admissible_by_bicoloring(d, target)
        assert (cert is not None) == by_colors
        if cert is not None:
            assert switched(d, cert) == target
            assert witness.switched(d) == tuple(target)
        verdicts.append(by_colors)
    assert verdicts[2]
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("family", FAMILIES)
def test_phi_class_reads_the_route_class_at_2000_crossings(family):
    d = make(family, N)
    rng = random.Random(8)
    even = even_target(d, rng)
    targets = [even, sorted(set(even) ^ {rng.randrange(N)}),
               [i for i in range(N) if rng.random() < 0.5]]
    nonzero = phi_class_matches_class_of([(d, target) for target in targets])
    # Only the planar families, with h1 = 0, give every coloring class zero.
    assert (nonzero > 0) == (family not in ("braid", "chain"))


@pytest.mark.parametrize("family", FAMILIES)
def test_both_eliminations_match_the_dense_oracles_at_2000_crossings(family):
    d = make(family, N)
    rng = random.Random(9)
    for m in (incidence_matrix(d), homology_context(d).matrix):
        matches_dense_oracles(m, rng)


@pytest.mark.parametrize("family", FAMILIES)
def test_component_rows_match_the_edge_walk_at_2000_crossings(family):
    d = make(family, N)
    rows = [reference_cycle_class(d, comp.edges) for comp in components(d)]
    assert list(homology_context(d).matrix.row_bits) == rows


@pytest.mark.parametrize("family", FAMILIES)
def test_incidence_rows_match_the_shift_loop_at_2000_crossings(family):
    d = make(family, N)
    rows = d.shadow.incidence_matrix.row_bits
    assert rows == tuple(shift_switched(d, [k]) for k in range(faces(d).region_count))


@pytest.mark.parametrize("family", FAMILIES)
def test_renumbering_maps_every_answer_at_2000_crossings(family):
    d = make(family, N)
    rng = random.Random(13)
    perm, copy = presentation(d, rng)
    same_answers(d, copy, rng, perm)


@pytest.mark.parametrize("family", ["torus", "genus", "braid"])
def test_poke_invariance_at_2000_crossings(family):
    d = make(family, N)
    exponent = count_classes(d)
    fs = faces(d)
    rng = random.Random(11)
    # A dart, then the darts bordering one of its face's two lifts: the
    # sites reidemeister_two accepts, found in O(darts).
    options = []
    while not options:
        da = rng.randrange(d.dart_count)
        f = fs.plus_face[da]
        sides = (f, fs.face_partner[f])
        options = [db for db in range(d.dart_count)
                   if fs.plus_face[db] in sides and d.edge_of(db) != d.edge_of(da)]
    poked = reidemeister_two(d, R2Spec(da, rng.choice(options)))
    assert faces(poked).region_count == fs.region_count + 2
    assert verify_rank_formula(poked).holds
    assert count_classes(poked) == exponent


def test_poke_sites_at_2000_crossings():
    # Torus only: its regions are small, so the site list is linear in
    # the darts.  On the genus family a few regions hold every dart and
    # the list itself is quadratic.
    d = make("torus", N)
    faces(d)
    start = time.perf_counter()
    sites = poke_sites(d)
    elapsed = time.perf_counter() - start
    # Every dart pairs with the other darts of its region, less its edge mate.
    fs = faces(d)
    region = [f >> 1 for f in fs.plus_face]
    sizes = [0] * fs.region_count
    for x in range(d.dart_count):
        sizes[region[x]] += 1
    assert len(sites) == sum(
        sizes[region[da]] - 1 - (region[d.theta(da)] == region[da])
        for da in range(d.dart_count))
    assert all(a < b for a, b in zip(sites, sites[1:]))
    # Comparing every dart with every dart takes tens of seconds here.
    assert elapsed < 2.0


@pytest.mark.parametrize("family", ["torus", "genus"])
def test_tables_linear_at_8000_crossings(family):
    d = make(family, 8000)
    shadow = d.shadow
    shadow.cover
    tracemalloc.start()
    try:
        shadow.faces
        shadow.homology
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A length-c tuple or a c-bit mask per region would take 500 MB here.
    assert peak <= 64 * 2**20
    assert verify_rank_formula(d).holds


def test_pd_import_memory_at_8000_crossings():
    code = cyclic_pd(8000)
    tracemalloc.start()
    try:
        d = import_pd(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One label pass fills edge_of and the cover, all their ints drawn
    # from one pool: about 5.45 MiB here.  Pairing the labels first and
    # checking the pairs in a second pass took 7.2 without the cover.
    assert peak <= 6 * 2**20
    assert d.edge_count == 16000


def test_document_parse_memory_at_8000_crossings():
    text = serialize_diagram(make("genus", 8000))
    tracemalloc.start()
    try:
        d = parse_diagram(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 14.1 MiB here, most of it the decoded JSON objects; the
    # structural pass adds edge_of and the cover, whose ints are its own.
    assert peak <= 16 * 2**20
    assert d.edge_count == 16000 and not d.shadow.orientable


@pytest.mark.parametrize("family, bound_mib", [("torus", 40), ("genus", 1)])
def test_incidence_elimination_memory_at_8000_crossings(family, bound_mib):
    d = make(family, 8000)
    shadow = d.shadow
    shadow.faces
    shadow.homology
    tracemalloc.start()
    try:
        shadow.incidence_matrix.elimination
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The tagged rows are c + r bits wide; a dense transform per pivot
    # beside them would take more than the torus bound.
    assert peak <= bound_mib * 2**20


@pytest.mark.parametrize("family", FAMILIES)
def test_warm_routes_agree_at_8000_crossings(family):
    n = 8000
    d = make(family, n)
    shadow = d.shadow
    shadow.components
    tracemalloc.start()
    try:
        shadow.walk_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Positions, two sorts and one itemgetter: a few words per edge.  A
    # mask of walk positions per crossing would take about 10 MiB here.
    assert peak <= 4 * 2**20
    rng = random.Random(13)
    even = even_target(d, rng)
    odd = sorted(set(even) ^ {rng.randrange(n)})
    regions = [rid for rid in range(faces(d).region_count) if rng.random() < 0.5]
    reachable = [i for i, flip in enumerate(reference_switched(d, regions)) if flip]
    verdicts = []
    for target in (even, odd, reachable):
        cert = admissible(d, target)
        by_colors, witness = admissible_by_bicoloring(d, target)
        assert (cert is not None) == by_colors
        if cert is not None:
            assert switched(d, cert) == target
            assert witness.switched(d) == tuple(target)
        verdicts.append(by_colors)
    assert verdicts[2]
    if family == "torus":
        assert verdicts == [True, False, True]
    start = time.perf_counter()
    for target in (even, odd, reachable):
        admissible_by_bicoloring(d, target)
    assert time.perf_counter() - start < 1.0
