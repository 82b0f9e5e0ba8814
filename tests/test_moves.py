"""Crossing switches, pokes, and random generation."""

import random

import pytest

from conftest import (FIXTURE_MAKERS, braid_pd, brute_poke_sites, cyclic_pd,
                      invariant_profile, random_suite, reference_poke)
from regioncc import (R2Spec, Edge, EmbeddingScheme, components, faces,
                      import_pd, incidence_matrix, poke_sites, random_diagram,
                      rcc_equivalent, reidemeister_two, surface_info,
                      switch_crossing, verify_rank_formula)


class TestSwitch:
    def test_involution(self, trefoil):
        assert switch_crossing(switch_crossing(trefoil, 1), 1) == trefoil

    def test_curl_switch_stays_in_class(self, curl):
        assert rcc_equivalent(curl, switch_crossing(curl, 0)) is not None

    def test_out_of_range(self, curl):
        with pytest.raises(IndexError):
            switch_crossing(curl, 1)

    @pytest.mark.parametrize("index", [1.5, True])
    def test_index_must_be_an_int(self, trefoil, index):
        with pytest.raises(TypeError, match=f"crossing index {index!r}"):
            switch_crossing(trefoil, index)


class TestPoke:
    def test_curl_bigon_side(self, curl):
        grown = reidemeister_two(curl, R2Spec(0, 2))
        assert grown.crossing_count == 3
        fs = faces(grown)
        assert fs.region_count == 5
        before = verify_rank_formula(curl)
        after = verify_rank_formula(grown)
        assert before.region_count - before.incidence_rank == 2
        assert after.region_count - after.incidence_rank == 2

    def test_torus11_poke(self, torus11):
        grown = reidemeister_two(torus11, R2Spec(0, 1))
        assert grown.crossing_count == 3
        assert len(components(grown)) == 2
        assert surface_info(grown).euler_characteristic == 0
        assert surface_info(grown).orientable

    def test_crosscap_poke(self, rp2curl):
        grown = reidemeister_two(rp2curl, R2Spec(1, 2))
        s = surface_info(grown)
        assert s.euler_characteristic == 1
        assert not s.orientable
        assert len(components(grown)) == 1

    def test_same_edge_rejected(self, curl):
        with pytest.raises(ValueError, match="same edge"):
            reidemeister_two(curl, R2Spec(0, 1))

    def test_disjoint_regions_rejected(self, curl):
        # darts 1 and 3 sit in the two different monogons
        with pytest.raises(ValueError, match="common region"):
            reidemeister_two(curl, R2Spec(1, 3))

    def test_over_choice_validated(self, curl):
        with pytest.raises(ValueError, match="over"):
            reidemeister_two(curl, R2Spec(0, 2, "c"))

    def test_dart_range(self, curl):
        with pytest.raises(ValueError, match="range"):
            reidemeister_two(curl, R2Spec(0, 11))

    @pytest.mark.parametrize("dart", [False, 0.0])
    def test_dart_must_be_an_int(self, trefoil, dart):
        with pytest.raises(TypeError, match=f"dart {dart!r} is not an int"):
            reidemeister_two(trefoil, R2Spec(dart, 4))

    def test_over_flag_placement(self, curl):
        top_a = reidemeister_two(curl, R2Spec(0, 2, "a"))
        top_b = reidemeister_two(curl, R2Spec(0, 2, "b"))
        assert top_a.overs[-2:] == (0, 0)
        assert top_b.overs[-2:] == (1, 1)
        assert top_a.edges == top_b.edges

    @pytest.mark.parametrize("neg_prob", [0.0, 0.5, 1.0])
    def test_poke_sites_match_the_double_loop(self, neg_prob):
        for d in random_suite(40, 1, 12, (neg_prob,), seed=65):
            assert poke_sites(d) == brute_poke_sites(d)

    def test_bigon_appears(self):
        rng = random.Random(61)
        for d in random_suite(30, 1, 6, (0.0, 0.5), seed=62):
            sites = poke_sites(d)
            if not sites:
                continue
            da, db = sites[rng.randrange(len(sites))]
            grown = reidemeister_two(d, R2Spec(da, db))
            c = d.crossing_count
            assert any(
                sum(reg.corner_counts) == 2
                and reg.corner_counts[c] == 1
                and reg.corner_counts[c + 1] == 1
                for reg in faces(grown).regions)

    def test_preserves_the_surface_and_ranks(self):
        rng = random.Random(63)
        for d in random_suite(60, 1, 7, (0.0, 0.5, 1.0), seed=64):
            sites = poke_sites(d)
            if not sites:
                continue
            da, db = sites[rng.randrange(len(sites))]
            grown = reidemeister_two(d, R2Spec(da, db, rng.choice("ab")))
            before, after = verify_rank_formula(d), verify_rank_formula(grown)
            assert after.region_count == before.region_count + 2
            assert after.component_count == before.component_count
            assert after.homology_rank == before.homology_rank
            assert (after.region_count - after.incidence_rank
                    == before.region_count - before.incidence_rank)
            sb, sa = surface_info(d), surface_info(grown)
            assert sa.euler_characteristic == sb.euler_characteristic
            assert sa.orientable == sb.orientable

    def test_one_rule_matches_the_layout_reference(self):
        diagrams = [make() for make in FIXTURE_MAKERS.values()]
        diagrams += random_suite(24, 1, 7, (0.0, 0.5, 1.0), seed=68)
        diagrams += [import_pd(cyclic_pd(n)) for n in (3, 6)]
        diagrams += [import_pd(braid_pd(3, 6, 1)), import_pd(braid_pd(4, 8, 3))]
        pokes = mirror = negative_phi = twisted_b = reversed_a = 0
        for d in diagrams:
            plus_face = faces(d).plus_face
            sign = lambda dart: d.edges[d.edge_of(dart)].sign
            for da, db in poke_sites(d):
                for over in "ab":
                    assert (reidemeister_two(d, R2Spec(da, db, over))
                            == reference_poke(d, da, db, over)), (d, da, db, over)
                    pokes += 1
                mirror += plus_face[da] != plus_face[db]
                negative_phi += sign(da) < 0 and da < d.theta(da)
                twisted_b += sign(db) < 0
                reversed_a += da > d.theta(da)
        # Every layout of the reference is reached: both signs of phi, both
        # faces for dart_b, and -1 edges on the pierced strand too.
        assert pokes > 5000
        assert min(mirror, negative_phi, twisted_b, reversed_a) > 500

    def test_every_listed_site_works(self):
        for d in random_suite(10, 1, 4, (0.0, 0.5), seed=65):
            for da, db in poke_sites(d):
                grown = reidemeister_two(d, R2Spec(da, db))
                assert grown.crossing_count == d.crossing_count + 2

    def test_unlisted_sites_fail(self):
        rng = random.Random(66)
        for d in random_suite(15, 2, 5, (0.0, 0.5), seed=67):
            listed = set(poke_sites(d))
            for _ in range(10):
                da = rng.randrange(d.dart_count)
                db = rng.randrange(d.dart_count)
                if (da, db) in listed:
                    continue
                with pytest.raises(ValueError):
                    reidemeister_two(d, R2Spec(da, db))


class TestRandomDiagram:
    def test_seed_determinism(self):
        a = random_diagram(6, 0.5, seed=99)
        b = random_diagram(6, 0.5, seed=99)
        assert a == b
        assert a != random_diagram(6, 0.5, seed=100)

    def test_shapes_and_signs(self):
        d = random_diagram(5, 0.0, seed=1)
        assert d.crossing_count == 5
        assert all(e.sign == 1 for e in d.edges)
        d = random_diagram(5, 1.0, seed=1)
        assert all(e.sign == -1 for e in d.edges)

    def test_edges_are_normalized(self):
        d = random_diagram(7, 0.5, seed=2)
        darts = [e.darts for e in d.edges]
        assert darts == sorted(darts)
        assert all(a < b for a, b in darts)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            random_diagram(0)
        with pytest.raises(ValueError):
            random_diagram(3, neg_prob=1.5)
        with pytest.raises(ValueError, match="at most"):
            random_diagram(10 ** 20)

    @pytest.mark.parametrize("count", [True, 2.0, "3", None])
    def test_count_must_be_an_int(self, count):
        # True == 1 and 2.0 == 2, but neither is a crossing count.
        with pytest.raises(TypeError, match=f"crossing count {count!r} is not an int"):
            random_diagram(count)

    def test_profiles_vary(self):
        profiles = {invariant_profile(random_diagram(5, 0.5, seed=s))
                    for s in range(30)}
        assert len(profiles) > 3
