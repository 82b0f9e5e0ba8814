"""Mod-2 homology of the carrier surface."""

import random

import pytest

from conftest import dense_rank, random_suite, relabeled
from regioncc import (class_of, components, faces, homology_context,
                      homology_matrix, surface_info)


class TestContext:
    def test_fixture_dimensions(self, curl, torus11, rp2curl):
        assert homology_context(curl).h1_dim == 0
        assert homology_context(torus11).h1_dim == 2
        assert homology_context(rp2curl).h1_dim == 1

    def test_dimension_matches_euler_characteristic(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=21):
            assert homology_context(d).h1_dim \
                == 2 - surface_info(d).euler_characteristic


class TestClassOf:
    def test_crosscap_generator(self, rp2curl):
        assert class_of(rp2curl, [0]).bits == 1
        assert class_of(rp2curl, [1]).bits == 0

    def test_sphere_cycles_bound(self, trefoil):
        for comp in components(trefoil):
            assert class_of(trefoil, comp.edges).bits == 0

    def test_non_cycle_rejected_naming_crossings(self, trefoil):
        with pytest.raises(ValueError, match="cycle.*crossing"):
            class_of(trefoil, [0])

    def test_bad_edge_index(self, curl):
        with pytest.raises(IndexError):
            class_of(curl, [5])

    @pytest.mark.parametrize("edge_set, named", [([1.5], "edge index 1.5"),
                                                 ([True], "edge index True"),
                                                 (True, "edge set True")])
    def test_edges_must_be_ints(self, trefoil, edge_set, named):
        with pytest.raises(TypeError, match=named):
            class_of(trefoil, edge_set)

    def test_accepts_prebuilt_context(self, rp2curl):
        ctx = homology_context(rp2curl)
        assert class_of(ctx, [0]).bits == 1
        assert class_of(ctx, [1]).bits == 0

    def test_region_boundaries_bound(self):
        for d in random_suite(60, 1, 8, (0.0, 0.5), seed=22):
            for reg in faces(d).regions:
                assert class_of(d, reg.parity_bits).bits == 0

    def test_linearity_on_component_sums(self):
        rng = random.Random(23)
        for d in random_suite(40, 2, 8, (0.0, 0.5), seed=24):
            comps = components(d)
            picks = [c for c in comps if rng.random() < 0.5]
            mask = 0
            acc = 0
            for comp in picks:
                one = 0
                for e in comp.edges:
                    one ^= 1 << e
                mask ^= one
                acc ^= class_of(d, one).bits
            assert class_of(d, mask).bits == acc


class TestHomologyMatrix:
    def test_curl(self, curl):
        hm = homology_matrix(curl)
        assert (hm.matrix.rows, hm.matrix.cols) == (1, 0)
        assert hm.rank == 0

    def test_torus11(self, torus11):
        hm = homology_matrix(torus11)
        assert (hm.matrix.rows, hm.matrix.cols) == (2, 2)
        assert hm.rank == 2

    def test_rp2curl(self, rp2curl):
        hm = homology_matrix(rp2curl)
        assert (hm.matrix.rows, hm.matrix.cols) == (1, 1)
        assert hm.matrix.row_bits == (1,)
        assert hm.rank == 1

    def test_rows_match_class_of(self):
        for d in random_suite(50, 1, 8, (0.0, 0.5, 1.0), seed=25):
            hm = homology_matrix(d)
            for row, comp in zip(hm.matrix.row_bits, components(d)):
                mask = 0
                for e in comp.edges:
                    mask ^= 1 << e
                assert class_of(d, mask).bits == row
            assert hm.rank == dense_rank(hm.matrix)

    def test_rank_is_label_free(self):
        rng = random.Random(26)
        for d in random_suite(40, 1, 8, (0.0, 0.5, 1.0), seed=27):
            assert homology_matrix(relabeled(d, rng)).rank \
                == homology_matrix(d).rank
