"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL verdict line
(visible with -s) and fails its assertion when the criterion does not
hold.  Oracles come from conftest: brute-force subset enumeration,
sign-monodromy orientability, base-surface face tracing, and values
frozen from hand derivations.
"""

import random

import pytest

from conftest import (FIXTURE_MAKERS, FIXTURE_PROFILES, KLEIN_2COMP_CLASSES,
                      KLEIN_2COMP_INCIDENCE, KLEIN_2COMP_RANKS,
                      KLEIN_2COMP_SHAPE, TORUS_3COMP_CLASSES,
                      TORUS_3COMP_INCIDENCE, TORUS_3COMP_RANKS,
                      TORUS_3COMP_SHAPE, as_matrix, base_region_count,
                      bicolor_system, cover_face_count, dense_nullspace,
                      dense_rank, monodromy_orientable, planar_knot_pds,
                      random_suite)
from regioncc import (admissible, admissible_by_bicoloring, checkerboard,
                      components, count_classes, faces, import_pd,
                      incidence_matrix, ineffective_basis,
                      orientation_double_cover, poke_sites, random_diagram,
                      rcc_equivalent, reidemeister_two, surface_info,
                      verify_rank_formula, R2Spec)


def verdict(tag: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {tag}")
    assert ok, tag


def all_subset_sums(masks) -> set[int]:
    """Every one of the 2^len(masks) subset sums, walked in Gray order."""
    seen = {0}
    acc = 0
    for g in range(1, 1 << len(masks)):
        acc ^= masks[(g & -g).bit_length() - 1]
        seen.add(acc)
    return seen


@pytest.fixture(scope="module")
def big_suite():
    suite = random_suite(1000, 1, 12, (0.0, 0.5, 1.0), seed=2026)
    assert len(suite) >= 1000
    return suite


def test_criterion_1_worked_example_ranks():
    got = (dense_rank(as_matrix(TORUS_3COMP_INCIDENCE)),
           dense_rank(as_matrix(TORUS_3COMP_CLASSES)),
           dense_rank(as_matrix(KLEIN_2COMP_INCIDENCE)),
           dense_rank(as_matrix(KLEIN_2COMP_CLASSES)))
    want = TORUS_3COMP_RANKS + KLEIN_2COMP_RANKS
    verdict(f"criterion 1: worked-example matrix ranks {got} == {want}",
            got == want)


def test_criterion_2_worked_example_formula():
    ok = True
    for incidence, classes, (r, n) in (
            (TORUS_3COMP_INCIDENCE, TORUS_3COMP_CLASSES, TORUS_3COMP_SHAPE),
            (KLEIN_2COMP_INCIDENCE, KLEIN_2COMP_CLASSES, KLEIN_2COMP_SHAPE)):
        predicted = r - n - 1 + dense_rank(as_matrix(classes))
        ok = ok and predicted == dense_rank(as_matrix(incidence))
    verdict("criterion 2: r - n - 1 + rank(N) reproduces both worked ranks",
            ok)


def test_criterion_3_fixture_pipeline():
    ok = True
    for name, maker in sorted(FIXTURE_MAKERS.items()):
        d = maker()
        r, chi, orientable, n, rank_m, rank_n, exponent = FIXTURE_PROFILES[name]
        # independent oracles first
        span = all_subset_sums(incidence_matrix(d).row_bits)
        oracle_rank = len(span).bit_length() - 1
        ok = ok and oracle_rank == rank_m
        ok = ok and monodromy_orientable(d) == orientable
        if all(e.sign > 0 for e in d.edges):
            ok = ok and base_region_count(d) == r
        # package answers against the frozen hand profile
        rep = verify_rank_formula(d)
        s = surface_info(d)
        got = (rep.region_count, s.euler_characteristic, s.orientable,
               rep.component_count, rep.incidence_rank, rep.homology_rank,
               count_classes(d))
        ok = ok and got == FIXTURE_PROFILES[name]
        ok = ok and rep.holds
    verdict("criterion 3: fixture pipeline matches hand-derived profiles "
            "and brute-force oracles", ok)


def test_criterion_4_rank_formula_suite(big_suite):
    orientable_seen = nonorientable_seen = 0
    holds_everywhere = True
    for d in big_suite:
        rep = verify_rank_formula(d)
        holds_everywhere = holds_everywhere and rep.holds
        if surface_info(d).orientable:
            orientable_seen += 1
        else:
            nonorientable_seen += 1
    ok = (holds_everywhere and orientable_seen > 0 and nonorientable_seen > 0
          and len(big_suite) >= 1000)
    verdict(f"criterion 4: rank formula holds on {len(big_suite)} random "
            f"diagrams ({orientable_seen} orientable, "
            f"{nonorientable_seen} nonorientable)", ok)


def test_criterion_5_planar_knots_full_rank():
    codes = planar_knot_pds()
    ok = len(codes) >= 20
    for code in codes:
        d = import_pd(code)
        s = surface_info(d)
        ok = ok and s.euler_characteristic == 2 and len(components(d)) == 1
        ok = ok and dense_rank(incidence_matrix(d)) == d.crossing_count
        ok = ok and count_classes(d) == 0
    verdict(f"criterion 5: {len(codes)} planar knot codes all have "
            "full-rank incidence matrices", ok)


def test_criterion_6_poke_invariance():
    rng = random.Random(606)
    performed = 0
    ok = True
    for d in random_suite(240, 1, 7, (0.0, 0.5, 1.0), seed=607):
        sites = poke_sites(d)
        if not sites:
            continue
        da, db = sites[rng.randrange(len(sites))]
        grown = reidemeister_two(d, R2Spec(da, db, rng.choice("ab")))
        before, after = verify_rank_formula(d), verify_rank_formula(grown)
        ok = ok and (after.region_count - after.incidence_rank
                     == before.region_count - before.incidence_rank)
        ok = ok and after.component_count == before.component_count
        ok = ok and after.homology_rank == before.homology_rank
        performed += 1
    ok = ok and performed >= 200
    verdict(f"criterion 6: {performed} pokes preserved r - rank(M), "
            "components, and homology rank", ok)


def test_criterion_7_three_admissibility_routes_agree():
    rng = random.Random(707)
    pairs = 0
    ok = True
    for d in random_suite(75, 1, 12, (0.0, 0.5, 1.0), seed=708):
        m = incidence_matrix(d)
        ok = ok and m.rows <= 14
        span = all_subset_sums(m.row_bits)
        for _ in range(4):
            chosen = [i for i in range(d.crossing_count)
                      if rng.random() < 0.5]
            target = 0
            for i in chosen:
                target |= 1 << i
            by_solver = admissible(d, chosen) is not None
            by_brute = target in span
            by_coloring = admissible_by_bicoloring(d, chosen)[0]
            ok = ok and by_solver == by_brute == by_coloring
            pairs += 1
    ok = ok and pairs >= 300
    verdict(f"criterion 7: solver, bi-coloring, and 2^r enumeration agree "
            f"on {pairs} diagram/crossing-set pairs", ok)


def test_criterion_8_class_count_census():
    shadows = [FIXTURE_MAKERS[name]() for name in sorted(FIXTURE_MAKERS)]
    rng = random.Random(808)
    for c, p in ((5, 0.5), (6, 0.0), (8, 0.5), (10, 0.5)):
        shadows.append(random_diagram(c, p, seed=rng.randrange(1 << 30)))
    ok = True
    reports = []
    for d in shadows:
        c = d.crossing_count
        assert c <= 10
        leaders = []
        for bits in range(1 << c):
            candidate = d.with_overs(tuple((bits >> i) & 1 for i in range(c)))
            if not any(rcc_equivalent(leader, candidate) is not None
                       for leader in leaders):
                leaders.append(candidate)
        ok = ok and len(leaders) == 1 << count_classes(d)
        reports.append(f"c={c}:{len(leaders)}")
    verdict("criterion 8: census over all over-assignments gives "
            f"2^(c - rank) classes ({', '.join(reports)})", ok)


def test_criterion_9_ineffective_sets(big_suite):
    ok = True
    colorable = 0
    for d in big_suite:
        m = incidence_matrix(d)
        basis = ineffective_basis(d)
        ok = ok and len(basis) == m.rows - dense_rank(m)
        colors = checkerboard(d)
        if colors is None:
            continue
        colorable += 1
        for side in (0, 1):
            effect = 0
            for rid, color in enumerate(colors):
                if color == side:
                    effect ^= m.row_bits[rid]
            ok = ok and effect == 0
    ok = ok and colorable >= 20
    verdict(f"criterion 9: null-space dimension r - rank(M) everywhere; "
            f"both color classes ineffective on {colorable} "
            "checkerboard-colorable diagrams", ok)


def test_criterion_10_structural_invariants(big_suite):
    ok = True
    for d in big_suite:
        fs = faces(d)
        c, r = d.crossing_count, fs.region_count
        cover_faces = cover_face_count(d)
        ok = ok and cover_faces == 2 * r
        # cover Euler characteristic doubles the base one
        ok = ok and (2 * c - 4 * c + cover_faces
                     == 2 * (r - c))
        for fid, mate in enumerate(fs.face_partner):
            ok = ok and mate != fid and fs.face_partner[mate] == fid
        acc = 0
        for bits in incidence_matrix(d).row_bits:
            acc ^= bits
        ok = ok and acc == 0
        homogeneous = dense_nullspace(bicolor_system(d))
        ok = ok and len(homogeneous) == len(components(d))
    verdict("criterion 10: cover face counts, face pairing, zero row sums, "
            "and 2^n bi-coloring solution spaces hold across the suite", ok)
