"""Edge bi-colorings and the matrix-free admissibility route."""

import random

import pytest

from conftest import (bicolor_system, dense_in_rowspace, dense_nullspace,
                      even_target, phi_class_matches_class_of, random_suite)
from regioncc import (Bicoloring, admissible, admissible_by_bicoloring,
                      bicoloring, class_of, components, homology_matrix, phi_class)
from regioncc.gf2 import BitMatrix, BitVector


class TestBicoloring:
    def test_empty_set_gets_zero_coloring(self, trefoil):
        phi = bicoloring(trefoil, ())
        assert phi is not None
        assert phi.colors == (0,) * 6
        assert phi.switched(trefoil) == ()

    def test_curl_forces_disagreement(self, curl):
        phi = bicoloring(curl, [0])
        assert phi is not None
        assert phi.colors[0] ^ phi.colors[1] == 1
        assert phi.switched(curl) == (0,)

    def test_torus11_degenerate_equation(self, torus11):
        # each strand enters and leaves the crossing on a single edge
        assert bicoloring(torus11, [0]) is None

    def test_out_of_range(self, curl):
        with pytest.raises(IndexError):
            bicoloring(curl, [2])

    @pytest.mark.parametrize("index", [1.5, True])
    def test_index_must_be_an_int(self, trefoil, index):
        with pytest.raises(TypeError, match=f"crossing index {index!r}"):
            bicoloring(trefoil, [index])

    def test_strands_must_agree(self, trefoil):
        # Edge 0 alone changes color only along the strand it lies on.
        with pytest.raises(ValueError, match="strands disagree at crossing 0"):
            Bicoloring((1, 0, 0, 0, 0, 0)).switched(trefoil)

    def test_colors_must_be_0_or_1(self, trefoil, rp2curl):
        # Read bit by bit, (0, 2, 2, 0, 2, 0) switched crossing 0 on the
        # trefoil while phi_class, reading parities, gave the zero class.
        for d, colors in [(trefoil, (0, 2, 2, 0, 2, 0)), (trefoil, (2, 0, 0, 0, 0, 0)),
                          (rp2curl, (3, 2)), (rp2curl, (-1, 0)), (rp2curl, (1, True)),
                          (rp2curl, (1.0, 0)), (rp2curl, (None, 0))]:
            coloring = Bicoloring(colors)
            for query in (coloring.switched, lambda d: phi_class(d, coloring)):
                with pytest.raises(ValueError, match="coloring colors must be 0 or 1"):
                    query(d)

    @pytest.mark.parametrize("length", [5, 7, 20])
    def test_coloring_length_must_match(self, trefoil, length):
        coloring = Bicoloring((0,) * length)
        for query in (coloring.switched, lambda d: phi_class(d, coloring)):
            with pytest.raises(ValueError, match="coloring length does not "
                               "match the edge count"):
                query(trefoil)

    def test_phi_class_builds_no_switched_tuple(self, monkeypatch):
        # phi_class makes the checks of Bicoloring.switched without it, so
        # it never builds the tuple it would discard.
        rng = random.Random(53)
        cases = []
        for d in random_suite(30, 1, 8, (0.0, 0.5), seed=54):
            phi = bicoloring(d, even_target(d, rng))
            if phi is not None:
                cases.append((d, phi, phi_class(d, phi)))
        assert cases

        def refuse(self, d):
            raise AssertionError("switched was called")

        monkeypatch.setattr(Bicoloring, "switched", refuse)
        for d, phi, phi_class_before in cases:
            assert phi_class(d, phi) == phi_class_before
            edges = [e for e, color in enumerate(phi.colors) if color]
            assert class_of(d, edges) == phi_class_before

    def test_class_of_does_not_retest_its_own_colors(self, monkeypatch):
        # class_of builds its 0/1 colors itself, so only the strand check
        # and the class read run; phi_class still checks a caller's colors.
        rng = random.Random(55)
        cases = []
        for d in random_suite(30, 1, 8, (0.0, 0.5), seed=56):
            phi = bicoloring(d, even_target(d, rng))
            if phi is not None:
                cases.append((d, phi, phi_class(d, phi)))
        assert cases

        def refuse(d, colors):
            raise AssertionError("the 0/1 check was run")

        monkeypatch.setattr("regioncc.bicolor._checked_colors", refuse)
        for d, phi, want in cases:
            edges = [e for e, color in enumerate(phi.colors) if color]
            assert class_of(d, edges) == want
            with pytest.raises(AssertionError, match="0/1 check"):
                phi_class(d, phi)
            # One more edge that is no loop leaves its two ends odd.
            for e, ((a, b), _) in enumerate(d.edges):
                if a >> 2 != b >> 2:
                    with pytest.raises(ValueError, match="strands disagree"):
                        class_of(d, edges + [e])
                    break

    def test_solutions_satisfy_their_set(self):
        rng = random.Random(51)
        for d in random_suite(50, 1, 8, (0.0, 0.5), seed=52):
            chosen = sorted(i for i in range(d.crossing_count)
                            if rng.random() < 0.5)
            phi = bicoloring(d, chosen)
            if phi is not None:
                assert phi.switched(d) == tuple(chosen)

    def test_homogeneous_space_is_component_span(self):
        for d in random_suite(50, 1, 8, (0.0, 0.5, 1.0), seed=53):
            system = bicolor_system(d)
            basis = dense_nullspace(system)
            comps = components(d)
            assert len(basis) == len(comps)
            if not basis:
                continue
            stacked = BitMatrix(d.edge_count, [v.bits for v in basis])
            for comp in comps:
                mask = 0
                for e in comp.edges:
                    mask ^= 1 << e
                assert dense_in_rowspace(stacked,
                                         BitVector(d.edge_count, mask)) is not None

    def test_knots_color_every_crossing_set(self):
        # a single component passes through each crossing twice, so the
        # consistency condition around the component is always met
        rng = random.Random(56)
        seen = 0
        for d in random_suite(120, 1, 8, (0.0, 0.5, 1.0), seed=57):
            if len(components(d)) != 1:
                continue
            chosen = [i for i in range(d.crossing_count)
                      if rng.random() < 0.5]
            assert bicoloring(d, chosen) is not None
            seen += 1
        assert seen >= 20


class TestPhiClass:
    def test_zero_coloring(self, rp2curl):
        assert phi_class(rp2curl, Bicoloring((0, 0))).bits == 0

    def test_sphere_everything_bounds(self, curl):
        assert phi_class(curl, Bicoloring((1, 0))).bits == 0

    def test_crosscap_coloring(self, rp2curl):
        assert phi_class(rp2curl, Bicoloring((1, 0))).bits == 1
        assert phi_class(rp2curl, Bicoloring((0, 1))).bits == 0

    def test_length_check(self, curl):
        with pytest.raises(ValueError, match="length"):
            phi_class(curl, Bicoloring((1, 0, 0)))

    def test_class_is_read_as_the_route_reads_it(self):
        rng = random.Random(47)
        cases = []
        for d in random_suite(150, 1, 14, (0.0, 0.5, 1.0), seed=47):
            c = d.crossing_count
            cases.append((d, even_target(d, rng)))
            cases += [(d, [i for i in range(c) if rng.random() < 0.5]) for _ in range(2)]
        assert phi_class_matches_class_of(cases) >= 50

    def test_a_flipped_edge_fails_as_switched_fails(self):
        # A loop's two darts sit at one crossing, so flipping it keeps
        # every incidence even; an edge between two crossings makes both odd.
        rng = random.Random(48)
        seen = 0
        for d in random_suite(60, 1, 14, (0.0, 0.5, 1.0), seed=48):
            links = [j for j, e in enumerate(d.edges) if e.darts[0] >> 2 != e.darts[1] >> 2]
            if not links:
                continue
            colors = list(bicoloring(d, even_target(d, rng)).colors)
            colors[rng.choice(links)] ^= 1
            flipped = Bicoloring(tuple(colors))
            with pytest.raises(ValueError, match="strands disagree at crossing") as by_switched:
                flipped.switched(d)
            with pytest.raises(ValueError) as by_class:
                phi_class(d, flipped)
            assert str(by_class.value) == str(by_switched.value)
            seen += 1
        assert seen >= 40


class TestAdmissibleByBicoloring:
    def test_empty_set(self, trefoil):
        ok, phi = admissible_by_bicoloring(trefoil, ())
        assert ok
        assert phi.colors == (0,) * 6

    def test_crosscap_kink_witness(self, rp2curl):
        ok, phi = admissible_by_bicoloring(rp2curl, [0])
        assert ok
        assert phi.colors == (0, 1)
        assert phi_class(rp2curl, phi).bits == 0
        assert phi.switched(rp2curl) == (0,)

    def test_torus11_negative(self, torus11):
        assert admissible_by_bicoloring(torus11, [0]) == (False, None)

    @pytest.mark.parametrize("index", [1.5, True])
    def test_index_must_be_an_int(self, trefoil, index):
        with pytest.raises(TypeError, match=f"crossing index {index!r}"):
            admissible_by_bicoloring(trefoil, [index])

    def test_agrees_with_matrix_route(self):
        rng = random.Random(54)
        for d in random_suite(60, 1, 8, (0.0, 0.5, 1.0), seed=55):
            chosen = [i for i in range(d.crossing_count)
                      if rng.random() < 0.5]
            by_matrix = admissible(d, chosen) is not None
            ok, phi = admissible_by_bicoloring(d, chosen)
            assert ok == by_matrix
            if ok:
                assert phi_class(d, phi).bits == 0
                assert phi.switched(d) == tuple(sorted(chosen))

    def test_a_homology_no_returns_the_pivot_coloring(self):
        rng = random.Random(43)
        seen = {"yes": 0, "odd": 0, "nonzero": 0}
        for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=43):
            c = d.crossing_count
            chosen = [even_target(d, rng)]
            chosen += [[i for i in range(c) if rng.random() < 0.5] for _ in range(3)]
            for target in chosen:
                ok, witness = admissible_by_bicoloring(d, target)
                pivot = bicoloring(d, target)
                assert (witness is None) == (pivot is None)
                if ok:
                    seen["yes"] += 1
                elif witness is None:
                    seen["odd"] += 1
                else:
                    seen["nonzero"] += 1
                    assert witness == pivot
                    assert witness.switched(d) == tuple(target)
                    phi = phi_class(d, witness)
                    assert phi.bits
                    assert dense_in_rowspace(homology_matrix(d).matrix, phi) is None
        assert min(seen.values()) >= 100, seen
