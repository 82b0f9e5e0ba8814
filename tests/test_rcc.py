"""The incidence matrix and everything asked of it."""

import itertools
import random

import pytest

from conftest import (CHAIN3_PD, FIXTURE_MAKERS, FIXTURE_PROFILES, HOPF_PD,
                      KLEIN_2COMP_CLASSES, KLEIN_2COMP_INCIDENCE,
                      KLEIN_2COMP_SHAPE, TORUS_3COMP_CLASSES,
                      TORUS_3COMP_INCIDENCE, TORUS_3COMP_SHAPE, as_matrix,
                      braid_pd, brute_admissible, brute_rank, cyclic_pd,
                      dense_edge_sides, dense_rank, ones, planar_knot_pds,
                      random_suite, reference_checkerboard, row_span,
                      shift_switched)
from regioncc import (Edge, EmbeddingScheme, R2Spec, admissible, apply_rcc,
                      checkerboard, class_of, components, count_classes, faces,
                      import_pd, incidence_matrix, ineffective_basis,
                      parse_diagram, poke_sites, random_diagram, rcc_equivalent,
                      reidemeister_two, serialize_diagram, surface_info,
                      switch_crossing, verify_rank_formula)
from regioncc.gf2 import BitMatrix, BitVector


class TestIncidenceMatrix:
    def test_curl(self, curl):
        m = incidence_matrix(curl)
        assert (m.rows, m.cols) == (3, 1)
        assert m.row_bits == (0, 1, 1)

    def test_torus11(self, torus11):
        m = incidence_matrix(torus11)
        assert (m.rows, m.cols) == (1, 1)
        assert m.row_bits == (0,)

    def test_rp2curl(self, rp2curl):
        m = incidence_matrix(rp2curl)
        assert (m.rows, m.cols) == (2, 1)
        assert m.row_bits == (1, 1)

    def test_rows_sum_to_zero(self):
        for d in random_suite(80, 1, 9, (0.0, 0.5, 1.0), seed=31):
            acc = 0
            for bits in incidence_matrix(d).row_bits:
                acc ^= bits
            assert acc == 0

    def test_entries_are_corner_parities(self, trefoil):
        m = incidence_matrix(trefoil)
        for rid, reg in enumerate(faces(trefoil).regions):
            for v, count in enumerate(reg.corner_counts):
                assert (m.row_bits[rid] >> v) & 1 == count % 2

    def test_one_matrix_per_shadow(self, trefoil):
        # The matrix is cached on the shadow: every call returns that table.
        m = incidence_matrix(trefoil)
        assert m is trefoil.shadow.incidence_matrix
        assert incidence_matrix(trefoil) is m
        assert incidence_matrix(trefoil.with_overs((0, 0, 0))) is m

    def test_rows_are_shifted_corners(self):
        for d in random_suite(80, 1, 12, (0.0, 0.5, 1.0), seed=32):
            rows = d.shadow.incidence_matrix.row_bits
            assert rows == tuple(shift_switched(d, [k])
                                 for k in range(faces(d).region_count))


class TestRankFormula:
    def test_worked_example_arithmetic(self):
        r, n = TORUS_3COMP_SHAPE
        assert dense_rank(as_matrix(TORUS_3COMP_INCIDENCE)) \
            == r - n - 1 + dense_rank(as_matrix(TORUS_3COMP_CLASSES))
        r, n = KLEIN_2COMP_SHAPE
        assert dense_rank(as_matrix(KLEIN_2COMP_INCIDENCE)) \
            == r - n - 1 + dense_rank(as_matrix(KLEIN_2COMP_CLASSES))

    @pytest.mark.parametrize("name", sorted(FIXTURE_PROFILES))
    def test_fixture_reports(self, name):
        d = FIXTURE_MAKERS[name]()
        r, _, _, n, rank_m, rank_n, exponent = FIXTURE_PROFILES[name]
        rep = verify_rank_formula(d)
        assert rep.incidence_rank == rank_m
        assert rep.region_count == r
        assert rep.component_count == n
        assert rep.homology_rank == rank_n
        assert rep.predicted_rank == r - n - 1 + rank_n
        assert rep.holds
        assert count_classes(d) == exponent

    def test_random_suite_formula(self):
        for d in random_suite(150, 1, 9, (0.0, 0.5, 1.0), seed=32):
            assert verify_rank_formula(d).holds


class TestClassCounting:
    def test_fixture_exponents(self, curl, torus11, trefoil):
        assert count_classes(curl) == 0
        assert count_classes(torus11) == 1
        assert count_classes(trefoil) == 0

    def test_exponent_matches_brute_rank(self):
        for d in random_suite(40, 1, 7, (0.0, 0.5), seed=33):
            m = incidence_matrix(d)
            assert count_classes(d) == d.crossing_count - brute_rank(m)


class TestAdmissible:
    def test_empty_set(self, trefoil):
        cert = admissible(trefoil, ())
        assert cert is not None
        effect = 0
        m = incidence_matrix(trefoil)
        for rid in cert:
            effect ^= m.row_bits[rid]
        assert effect == 0

    def test_curl_single_crossing(self, curl):
        cert = admissible(curl, [0])
        assert cert is not None
        assert set(cert) <= {1, 2}
        assert len(cert) % 2 == 1

    def test_torus11_infeasible(self, torus11):
        assert admissible(torus11, [0]) is None

    def test_out_of_range(self, curl):
        with pytest.raises(IndexError):
            admissible(curl, [4])

    @pytest.mark.parametrize("index", [1.5, True])
    def test_index_must_be_an_int(self, trefoil, index):
        with pytest.raises(TypeError, match=f"crossing index {index!r}"):
            admissible(trefoil, [index])

    def test_certificates_verify(self):
        rng = random.Random(34)
        for d in random_suite(60, 1, 9, (0.0, 0.5, 1.0), seed=35):
            chosen = [i for i in range(d.crossing_count) if rng.random() < 0.5]
            cert = admissible(d, chosen)
            m = incidence_matrix(d)
            target = 0
            for i in chosen:
                target |= 1 << i
            if cert is None:
                assert not brute_admissible(m, target)
            else:
                effect = 0
                for rid in cert:
                    effect ^= m.row_bits[rid]
                assert effect == target

    def test_exhaustive_small(self):
        for d in random_suite(25, 1, 5, (0.0, 0.5, 1.0), seed=36):
            m = incidence_matrix(d)
            span = row_span(m.row_bits)
            for bits in range(1 << d.crossing_count):
                chosen = [i for i in range(d.crossing_count)
                          if (bits >> i) & 1]
                assert (admissible(d, chosen) is not None) == (bits in span)


def _crossing_pairs(d):
    """Component pair meeting at each crossing, and the inter-component
    crossing sets keyed by those pairs."""
    owners = {}
    for k, comp in enumerate(components(d)):
        for crossing in comp.crossings:
            owners.setdefault(crossing, []).append(k)
    inter = {}
    for i, ks in owners.items():
        a, b = sorted(ks)
        if a != b:
            inter.setdefault((a, b), set()).add(i)
    return inter


class TestCyclicallyChosen:
    """Crossing sets walking a cycle of components, one crossing per
    consecutive pair, are admissible on planar diagrams."""

    def test_clasped_pair_census(self):
        d = import_pd(HOPF_PD)
        assert surface_info(d).euler_characteristic == 2
        assert len(components(d)) == 2
        assert _crossing_pairs(d) == {(0, 1): {0, 1}}
        assert admissible(d, (0, 1)) is not None
        assert admissible(d, (0,)) is None
        assert admissible(d, (1,)) is None

    def test_chain_census(self):
        d = import_pd(CHAIN3_PD)
        assert surface_info(d).euler_characteristic == 2
        assert len(components(d)) == 3
        assert _crossing_pairs(d) == {(0, 1): {0, 1}, (1, 2): {2, 3}}
        feasible = {frozenset(), frozenset({0, 1}), frozenset({2, 3}),
                    frozenset({0, 1, 2, 3})}
        for bits in range(16):
            chosen = frozenset(i for i in range(4) if (bits >> i) & 1)
            assert (admissible(d, chosen) is not None) == (chosen in feasible)

    def test_pair_cycles_survive_pokes(self):
        rng = random.Random(97)
        for base in (HOPF_PD, CHAIN3_PD):
            d = import_pd(base)
            for _ in range(3):
                sites = poke_sites(d)
                da, db = sites[rng.randrange(len(sites))]
                d = reidemeister_two(d, R2Spec(da, db, rng.choice("ab")))
            assert surface_info(d).euler_characteristic == 2
            for crossings in _crossing_pairs(d).values():
                for pair in itertools.combinations(sorted(crossings), 2):
                    assert admissible(d, pair) is not None
                for i in crossings:
                    assert admissible(d, (i,)) is None

    def test_three_cycle_after_bridging_poke(self):
        # poking an end circle's strand across the other end circle
        # closes the chain into a necklace, so length-3 cycles appear
        d = import_pd(CHAIN3_PD)
        comp_of_edge = {}
        for k, comp in enumerate(components(d)):
            for e in comp.edges:
                comp_of_edge[e] = k
        site = min(
            (da, db) for da, db in poke_sites(d)
            if {comp_of_edge[d.edge_of(da)], comp_of_edge[d.edge_of(db)]}
            == {0, 2})
        grown = reidemeister_two(d, R2Spec(*site))
        assert surface_info(grown).euler_characteristic == 2
        inter = _crossing_pairs(grown)
        assert sorted(len(v) for v in inter.values()) == [2, 2, 2]
        (ab, bc, ca) = (inter[key] for key in sorted(inter))
        for c1 in ab:
            for c2 in bc:
                # one crossing from each clasp: only the full cycle works
                assert admissible(grown, (c1, c2)) is None
                for c3 in ca:
                    assert admissible(grown, (c1, c2, c3)) is not None


class TestIneffective:
    def test_torus11_single_region(self, torus11):
        basis = ineffective_basis(torus11)
        assert [v.support() for v in basis] == [(0,)]

    def test_curl_dimension(self, curl):
        basis = ineffective_basis(curl)
        assert len(basis) == 2

    def test_dimension_and_membership(self):
        for d in random_suite(60, 1, 9, (0.0, 0.5, 1.0), seed=37):
            m = incidence_matrix(d)
            basis = ineffective_basis(d)
            assert len(basis) == m.rows - dense_rank(m)
            for v in basis:
                effect = 0
                for rid in v.support():
                    effect ^= m.row_bits[rid]
                assert effect == 0

    def test_all_regions_vector_in_span(self):
        # rows sum to zero, so the full region set never does anything
        for d in random_suite(30, 1, 7, (0.0, 0.5), seed=38):
            basis = ineffective_basis(d)
            full = (1 << incidence_matrix(d).rows) - 1
            assert full in row_span(v.bits for v in basis)


class TestApply:
    def test_empty_and_full(self, trefoil):
        assert apply_rcc(trefoil, ()).overs == trefoil.overs
        all_regions = range(faces(trefoil).region_count)
        assert apply_rcc(trefoil, all_regions).overs == trefoil.overs

    def test_curl_monogon_toggles(self, curl):
        assert apply_rcc(curl, [1]).overs == (1,)
        assert apply_rcc(curl, [2]).overs == (1,)
        assert apply_rcc(curl, [0]).overs == (0,)

    def test_out_of_range(self, curl):
        with pytest.raises(IndexError):
            apply_rcc(curl, [9])

    # [1, True]: True == 1, so a set built first would fold True into 1.
    @pytest.mark.parametrize("regions", [[1.5], [True], [1, True]],
                             ids=lambda regions: "-".join(map(repr, regions)))
    def test_index_must_be_an_int(self, trefoil, regions):
        with pytest.raises(TypeError, match=f"region index {regions[-1]!r}"):
            apply_rcc(trefoil, regions)

    def test_negative_region_index(self, curl):
        # Python indexing would wrap -1 to the last region.
        with pytest.raises(IndexError, match="region index -1"):
            apply_rcc(curl, [-1])

    def test_certificates_take_effect(self):
        rng = random.Random(39)
        for d in random_suite(50, 1, 8, (0.0, 0.5), seed=40):
            chosen = {i for i in range(d.crossing_count) if rng.random() < 0.5}
            cert = admissible(d, chosen)
            if cert is None:
                continue
            flipped = apply_rcc(d, cert)
            want = tuple(o ^ (i in chosen) for i, o in enumerate(d.overs))
            assert flipped.overs == want

    def test_involution_per_region_set(self):
        rng = random.Random(43)
        for d in random_suite(40, 1, 8, (0.0, 0.5, 1.0), seed=44):
            regions = [rid for rid in range(faces(d).region_count)
                       if rng.random() < 0.5]
            assert apply_rcc(apply_rcc(d, regions), regions) == d


class TestLargeSets:
    """Switch effects and targets on thousands of crossings, against
    rows built by shifting one bit per corner."""

    @pytest.mark.parametrize("make", [lambda: random_diagram(2400, 0.5, seed=1),
                                      lambda: random_diagram(2000, 0.5, seed=2),
                                      lambda: import_pd(cyclic_pd(2000))],
                             ids=["genus2400", "genus2000", "torus2000"])
    def test_effects_and_targets_match_the_shift_loop(self, make):
        d = make()
        rng = random.Random(d.crossing_count)
        c, r = d.crossing_count, faces(d).region_count
        for share in (0.5, 0.9):
            regions = [rid for rid in range(r) if rng.random() < share]
            effect = shift_switched(d, regions)
            assert apply_rcc(d, regions).overs == tuple(
                o ^ ((effect >> i) & 1) for i, o in enumerate(d.overs))
            cert = admissible(d, ones(effect))
            assert cert is not None and shift_switched(d, cert) == effect
            target = [i for i in range(c) if rng.random() < share]
            want = sum(1 << i for i in target)
            cert = admissible(d, target)
            if cert is None:
                assert d.shadow.incidence_matrix.expression(want, target) is None
            else:
                assert shift_switched(d, cert) == want


class TestEquivalent:
    def test_reflexive(self, trefoil):
        cert = rcc_equivalent(trefoil, trefoil)
        assert cert is not None
        assert apply_rcc(trefoil, cert).overs == trefoil.overs

    def test_curl_switch_is_reachable(self, curl):
        cert = rcc_equivalent(curl, switch_crossing(curl, 0))
        assert cert is not None
        assert apply_rcc(curl, cert).overs == (1,)

    def test_torus11_switch_is_not(self, torus11):
        assert rcc_equivalent(torus11, switch_crossing(torus11, 0)) is None

    def test_shadow_mismatch(self, curl, rp2curl):
        with pytest.raises(ValueError, match="shadow"):
            rcc_equivalent(curl, rp2curl)

    def test_equal_shadows_need_not_be_one_object(self, trefoil):
        # A parsed copy holds its own, equal shadow; one flipped edge sign
        # makes the shadows differ.
        moved = switch_crossing(trefoil, 0)
        copy = parse_diagram(serialize_diagram(moved))
        assert copy.shadow is not trefoil.shadow
        cert = rcc_equivalent(trefoil, copy)
        assert cert is not None and cert == rcc_equivalent(trefoil, moved)
        edges = list(trefoil.edges)
        edges[0] = Edge(edges[0].darts, -edges[0].sign)
        with pytest.raises(ValueError, match="^diagrams have different shadows$"):
            rcc_equivalent(trefoil, EmbeddingScheme(trefoil.overs, edges))

    def test_symmetric_on_random_pairs(self):
        rng = random.Random(41)
        for d in random_suite(40, 1, 8, (0.0, 0.5), seed=42):
            other = d.with_overs(tuple(rng.randrange(2)
                                       for _ in range(d.crossing_count)))
            forward = rcc_equivalent(d, other)
            backward = rcc_equivalent(other, d)
            assert (forward is None) == (backward is None)


CHECKERBOARD_FAMILIES = {
    "fixtures": lambda: [make() for make in FIXTURE_MAKERS.values()],
    "random": lambda: random_suite(240, 1, 10, (0.0, 0.5, 1.0), seed=71),
    "cyclic": lambda: [import_pd(cyclic_pd(n)) for n in (3, 4, 8, 9, 64, 65)],
    "braid": lambda: [import_pd(braid_pd(s, n, seed))
                      for s, n, seed in ((3, 20, 1), (5, 60, 2), (30, 300, 1))],
    "knots": lambda: [import_pd(code) for code in planar_knot_pds()],
    "large": lambda: [random_diagram(300, p, seed=3) for p in (0.0, 0.5, 1.0)],
}
# Planar diagrams always two-color; these random 300-crossing pairings
# never do.
CHECKERBOARD_VERDICTS = {"braid": {True}, "knots": {True}, "large": {False}}


class TestCheckerboard:
    def test_trefoil_colorable_and_ineffective(self, trefoil):
        colors = checkerboard(trefoil)
        assert colors is not None
        m = incidence_matrix(trefoil)
        for side in (0, 1):
            effect = 0
            for rid, color in enumerate(colors):
                if color == side:
                    effect ^= m.row_bits[rid]
            assert effect == 0

    def test_color_class_check_fires(self, trefoil):
        # One flipped matrix bit: the regions together now switch a crossing.
        rows = incidence_matrix(trefoil).row_bits
        trefoil.shadow.__dict__["incidence_matrix"] = BitMatrix(
            trefoil.crossing_count, (rows[0] ^ 1,) + rows[1:])
        with pytest.raises(RuntimeError) as caught:
            checkerboard(trefoil)
        assert str(caught.value) == "checkerboard color class is not ineffective"

    def test_torus11_not_colorable(self, torus11):
        assert checkerboard(torus11) is None

    def test_curl_colorable(self, curl):
        colors = checkerboard(curl)
        assert colors is not None
        for u, v in faces(curl).edge_sides:
            assert colors[u] != colors[v]

    @pytest.mark.parametrize("family", sorted(CHECKERBOARD_FAMILIES))
    def test_matches_reference_and_homology(self, family):
        # All edges together bound a region set, so have class zero,
        # exactly when the regions two-color.
        verdicts = set()
        for d in CHECKERBOARD_FAMILIES[family]():
            colors = checkerboard(d)
            assert colors == reference_checkerboard(d)
            assert (colors is not None) == (class_of(d, range(d.edge_count)).bits == 0)
            verdicts.add(colors is not None)
        assert verdicts == CHECKERBOARD_VERDICTS.get(family, {False, True})

    def test_colorings_separate_edge_sides(self):
        found = 0
        for d in random_suite(60, 1, 8, (0.0, 0.5, 1.0), seed=43):
            colors = checkerboard(d)
            if colors is None:
                continue
            found += 1
            for u, v in dense_edge_sides(d):
                assert colors[u] != colors[v]
        assert found > 0


def regauged(d: EmbeddingScheme, i: int) -> EmbeddingScheme:
    """The same diagram with the local orientation at crossing i reversed.

    Darts 4i+1 and 4i+3 swap places, which keeps both through-pairs and
    the over flag, and every edge with exactly one end at i changes sign.
    """
    swap = {4 * i + 1: 4 * i + 3, 4 * i + 3: 4 * i + 1}
    edges = []
    for e in d.edges:
        a, b = e.darts
        flip = (a >> 2 == i) != (b >> 2 == i)
        edges.append(Edge((swap.get(a, a), swap.get(b, b)),
                          -e.sign if flip else e.sign))
    return EmbeddingScheme(d.overs, edges)


REGAUGE_SUITE = random_suite(400, 1, 8, (0.0, 0.5, 1.0), seed=47)


class TestRegauge:
    """Reversing one crossing's local orientation changes no answer."""

    def profile(self, d, target):
        report = verify_rank_formula(d)
        return (checkerboard(d) is None, surface_info(d), report.incidence_rank,
                report.homology_rank, count_classes(d),
                admissible(d, target) is None)

    def test_answers_survive_regauging(self):
        rng = random.Random(48)
        colorable = 0
        for d in REGAUGE_SUITE:
            c = d.crossing_count
            target = [i for i in range(c) if rng.random() < 0.5]
            before = self.profile(d, target)
            assert self.profile(regauged(d, rng.randrange(c)), target) == before
            colorable += not before[0]
        assert colorable > 0

    def test_edge_sides_match_parity_oracle(self):
        checked = 0
        for d in REGAUGE_SUITE:
            assert list(faces(d).edge_sides) == dense_edge_sides(d)
            checked += d.edge_count
        assert checked > 3000
