"""Mod-2 homology of the carrier surface."""

import itertools
import random

import pytest

from conftest import (dense_rank, dense_rref, random_suite, region_parities,
                      region_walks, relabeled)
from regioncc import (checkerboard, class_of, components, homology_context,
                      homology_matrix, surface_info)
from regioncc.scheme import dual_tree


class TestContext:
    def test_fixture_dimensions(self, curl, torus11, rp2curl):
        assert homology_context(curl).h1_dim == 0
        assert homology_context(torus11).h1_dim == 2
        assert homology_context(rp2curl).h1_dim == 1

    def test_dimension_matches_euler_characteristic(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=21):
            assert homology_context(d).h1_dim \
                == 2 - surface_info(d).euler_characteristic


class TestDualTree:
    """The dual tree F, built where it is read: by the homology context and checkerboard."""

    def test_edges_are_the_face_rref_pivots(self):
        # Kruskal in ascending edge order keeps the min-index basis of the
        # dual graph's matroid: the pivots of the region boundary masks' RREF.
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=28):
            tree = dual_tree(d.shadow)
            assert tree[0] == (0, 0, -1)
            assert len(tree) == len(region_walks(d))
            pivots, _ = dense_rref(region_parities(d), d.edge_count)
            assert sorted(j for _, _, j in tree[1:]) == list(pivots)

    def test_no_reader_keeps_the_tree(self, trefoil):
        homology_context(trefoil)
        assert "dual_tree" not in vars(trefoil.shadow)
        checkerboard(trefoil)
        assert "dual_tree" not in vars(trefoil.shadow)


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
        # A bad index stops the one pass before the cycle check.
        with pytest.raises(IndexError, match="edge index 6 out of range"):
            class_of(trefoil, iter([0, 6]))

    def test_endless_edge_set_stops_at_the_first_bad_index(self, trefoil):
        with pytest.raises(IndexError, match="^edge index 6 out of range$"):
            class_of(trefoil, itertools.count())

    def test_bad_edge_index(self, curl):
        with pytest.raises(IndexError):
            class_of(curl, [5])
        # Python indexing would wrap -1 to the last edge.
        with pytest.raises(IndexError, match="^edge index -1 out of range$"):
            class_of(curl, [-1])

    @pytest.mark.parametrize("edge_set, named", [([1.5], "edge index 1.5"),
                                                 ([True], "edge index True"),
                                                 (True, "edge set True"),
                                                 (1, "edge set 1 is not an iterable")])
    def test_edges_must_be_ints(self, trefoil, edge_set, named):
        with pytest.raises(TypeError, match=named):
            class_of(trefoil, edge_set)

    def test_region_boundaries_bound(self):
        for d in random_suite(60, 1, 8, (0.0, 0.5), seed=22):
            for _, edges in region_walks(d):
                assert class_of(d, edges).bits == 0

    def test_linearity_on_component_sums(self):
        rng = random.Random(23)
        for d in random_suite(40, 2, 8, (0.0, 0.5), seed=24):
            comps = components(d)
            picks = [c for c in comps if rng.random() < 0.5]
            acc = 0
            for comp in picks:
                acc ^= class_of(d, comp.edges).bits
            # Indices are taken mod 2: a repeated edge cancels.
            edges = [e for comp in picks for e in comp.edges]
            assert class_of(d, edges + edges[:1] * 2).bits == acc


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
                assert class_of(d, comp.edges).bits == row
            assert hm.rank == dense_rank(hm.matrix)

    def test_broken_component_trace_is_caught(self, trefoil):
        comp = components(trefoil)[0]
        trefoil.shadow.__dict__["components"] = (comp._replace(edges=comp.edges[1:]),)
        with pytest.raises(RuntimeError, match="component trace is not a cycle"):
            homology_matrix(trefoil)

    def test_rank_is_label_free(self):
        rng = random.Random(26)
        for d in random_suite(40, 1, 8, (0.0, 0.5, 1.0), seed=27):
            assert homology_matrix(relabeled(d, rng)).rank \
                == homology_matrix(d).rank
