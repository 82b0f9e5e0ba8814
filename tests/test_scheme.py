"""Diagram structure: validation, cover, faces, components, formats."""

import gc
import json
import random
import time
import weakref

import pytest

from conftest import (FIXTURE_MAKERS, FIXTURE_PROFILES, SCHEME_VIOLATIONS,
                      VALIDATE_VIOLATIONS, base_region_count, cyclic_pd,
                      invariant_profile, monodromy_orientable, random_suite,
                      relabeled)
import regioncc.scheme
from regioncc import (DiagramFormatError, Edge, EmbeddingScheme,
                      InvalidDiagramError, apply_rcc, components, faces,
                      import_pd, orientation_double_cover, parse_diagram,
                      random_diagram, serialize_diagram, surface_info,
                      switch_crossing, validate, verify_rank_formula)


class TestValidation:
    def test_curl_is_valid(self, curl):
        assert curl.crossing_count == 1
        assert curl.edge_count == 2

    def test_over_flag_range(self):
        with pytest.raises(InvalidDiagramError, match="over flag"):
            EmbeddingScheme((2,), (Edge((0, 1), 1), Edge((2, 3), 1)))

    def test_sign_range(self):
        with pytest.raises(InvalidDiagramError, match="sign"):
            EmbeddingScheme((0,), (Edge((0, 1), 0), Edge((2, 3), 1)))

    def test_self_paired_dart(self):
        with pytest.raises(InvalidDiagramError, match="self-paired"):
            EmbeddingScheme((0,), (Edge((0, 0), 1), Edge((2, 3), 1)))

    def test_duplicate_dart(self):
        with pytest.raises(InvalidDiagramError, match="appears in edges"):
            EmbeddingScheme((0,), (Edge((0, 1), 1), Edge((1, 3), 1)))

    def test_dart_out_of_range(self):
        with pytest.raises(InvalidDiagramError, match="out of range"):
            EmbeddingScheme((0,), (Edge((0, 7), 1), Edge((2, 3), 1)))

    def test_needs_a_crossing(self):
        with pytest.raises(InvalidDiagramError, match="at least one"):
            EmbeddingScheme((), ())

    def test_disconnected_two_kinks(self):
        edges = (Edge((0, 1), 1), Edge((2, 3), 1),
                 Edge((4, 5), 1), Edge((6, 7), 1))
        with pytest.raises(InvalidDiagramError, match="disconnected"):
            EmbeddingScheme((0, 0), edges)

    def test_validate_requires_canonical_rotation(self):
        with pytest.raises(InvalidDiagramError, match="rotation"):
            validate([([0, 2, 1, 3], 0)], [((0, 1), 1), ((2, 3), 1)])

    def test_validate_accepts_raw_data(self):
        d = validate([([0, 1, 2, 3], 1)], [((0, 1), -1), ((2, 3), 1)])
        assert d.overs == (1,)
        assert d.edges[0].sign == -1

    def test_violation_list_is_kept(self):
        try:
            EmbeddingScheme((0, 3), (Edge((0, 1), 1), Edge((2, 3), 5),
                                     Edge((4, 5), 1), Edge((6, 7), 1)))
        except InvalidDiagramError as err:
            assert len(err.violations) >= 2
        else:
            pytest.fail("expected a validation error")

    def test_validate_rejects_non_integer_values(self):
        # int() used to turn dart 0.9 into 0 and accept the diagram.
        with pytest.raises(InvalidDiagramError) as info:
            validate([([0, 1, 2, 3], 1.0)], [((0.9, 1), 1), ((2, 3), True)])
        assert info.value.violations == ["crossing 0: over flag must be 0 or 1",
                                         "edge 0: dart 0.9 must be an integer",
                                         "edge 1: sign must be +1 or -1"]

    def test_validate_rejects_non_integer_rotation(self):
        with pytest.raises(InvalidDiagramError) as info:
            validate([([0.0, True, 2, 3], 1)], [((0, 1), 1), ((2, 3), 1)])
        assert info.value.violations == ["crossing 0: rotation must be [0, 1, 2, 3]"]

    def test_float_sign_is_rejected(self):
        # A stored 1.0 would serialize to a document parse_diagram rejects.
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme((0,), (Edge((0, 1), 1.0), Edge((2, 3), 1)))
        assert info.value.violations == ["edge 0: sign must be +1 or -1"]

    def test_bool_over_flag_is_rejected(self, curl):
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme((True,), curl.edges)
        assert info.value.violations == ["crossing 0: over flag must be 0 or 1"]
        with pytest.raises(InvalidDiagramError, match="over flag"):
            curl.with_overs((False,))

    def test_float_dart_is_a_violation(self):
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme((0,), (Edge((0.5, 1), 1), Edge((2, 3), 1)))
        assert info.value.violations == ["edge 0: dart 0.5 must be an integer"]

    @pytest.mark.parametrize("name", sorted(VALIDATE_VIOLATIONS))
    def test_validate_violations_exact(self, name):
        crossings, edges, expected = VALIDATE_VIOLATIONS[name]
        with pytest.raises(InvalidDiagramError) as info:
            validate(crossings, edges)
        assert info.value.violations == expected

    @pytest.mark.parametrize("name", sorted(SCHEME_VIOLATIONS))
    def test_scheme_violations_exact(self, name):
        overs, edges, expected = SCHEME_VIOLATIONS[name]
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme(overs, [Edge(darts, sign) for darts, sign in edges])
        assert info.value.violations == expected


class TestDartAlgebra:
    def test_tables(self, torus11):
        assert torus11.theta(0) == 2
        assert torus11.edge_of(3) == 1
        assert torus11.sigma(3) == 0
        assert torus11.through(1) == 3
        assert torus11.crossing_of(3) == 0
        assert torus11.pair_of(2) == 0
        assert torus11.pair_of(3) == 1


class TestCover:
    def test_positive_signs_disconnect(self, curl, torus11):
        assert not orientation_double_cover(curl).connected
        assert not orientation_double_cover(torus11).connected

    def test_crosscap_connects(self, rp2curl):
        cover = orientation_double_cover(rp2curl)
        assert cover.connected
        assert cover.vertex_count == 2
        assert len(cover.edges) == 4

    def test_deck_and_sigma_commute_right(self, rp2curl):
        cover = orientation_double_cover(rp2curl)
        for x in range(cover.dart_count):
            # the deck swap conjugates the rotation to its inverse
            y = cover.sigma[cover.deck(cover.sigma[cover.deck(x)])]
            assert y == x

    def test_orientability_matches_sign_monodromy(self):
        for d in random_suite(120, 1, 7, (0.0, 0.4, 1.0), seed=101):
            assert (not orientation_double_cover(d).connected) \
                == monodromy_orientable(d)


class TestFaces:
    def test_curl_regions(self, curl):
        fs = faces(curl)
        assert fs.region_count == 3
        assert [reg.corner_counts for reg in fs.regions] == [(2,), (1,), (1,)]
        assert [reg.parity_bits for reg in fs.regions] == [0b11, 0b01, 0b10]

    def test_torus11_single_region(self, torus11):
        fs = faces(torus11)
        assert fs.region_count == 1
        assert fs.regions[0].corner_counts == (4,)
        assert fs.regions[0].parity_bits == 0

    def test_rp2curl_regions(self, rp2curl):
        fs = faces(rp2curl)
        assert fs.region_count == 2
        assert sorted(reg.corner_counts[0] for reg in fs.regions) == [1, 3]
        assert [reg.parity_bits for reg in fs.regions] == [0b10, 0b10]

    def test_sides(self, rp2curl):
        fs = faces(rp2curl)
        assert [fs.region_of_side(d) for d in range(4)] == [0, 0, 0, 1]
        assert fs.edge_sides == ((0, 0), (0, 1))

    def test_cover_face_counts_double_regions(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=5):
            fs = faces(d)
            assert len(fs.face_darts) == 2 * fs.region_count
            # partner is a fixed-point-free involution
            for fid, mate in enumerate(fs.face_partner):
                assert mate != fid
                assert fs.face_partner[mate] == fid

    def test_corner_and_parity_bookkeeping(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=6):
            fs = faces(d)
            for v in range(d.crossing_count):
                assert sum(reg.corner_counts[v] for reg in fs.regions) == 4
            acc = 0
            for reg in fs.regions:
                acc ^= reg.parity_bits
            assert acc == 0

    def test_positive_diagrams_match_base_trace(self):
        for d in random_suite(60, 1, 8, (0.0,), seed=7):
            assert faces(d).region_count == base_region_count(d)


class TestSurface:
    @pytest.mark.parametrize("name", sorted(FIXTURE_PROFILES))
    def test_fixture_surfaces(self, name):
        d = FIXTURE_MAKERS[name]()
        r, chi, orientable, *_ = FIXTURE_PROFILES[name]
        s = surface_info(d)
        assert faces(d).region_count == r
        assert s.euler_characteristic == chi
        assert s.orientable == orientable
        assert s.h1_dim == 2 - chi

    def test_fixture_genus(self, curl, torus11, rp2curl):
        assert surface_info(curl).genus == 0
        assert surface_info(torus11).genus == 1
        assert surface_info(rp2curl).genus == 1

    def test_records_are_tuples(self, trefoil):
        chi, orientable, genus, h1_dim = surface_info(trefoil)
        assert (chi, orientable, genus, h1_dim) == (2, True, 0, 0)
        assert surface_info(trefoil) == (2, True, 0, 0)
        darts, sign = trefoil.edges[0]
        assert trefoil.edges[0] == (darts, sign) == Edge(darts, sign)


class TestComponents:
    def test_curl_single_component(self, curl):
        comps = components(curl)
        assert len(comps) == 1
        assert sorted(comps[0].edges) == [0, 1]
        assert len(comps[0].passages) == 2

    def test_torus11_two_components(self, torus11):
        comps = components(torus11)
        assert len(comps) == 2
        assert [comp.edges for comp in comps] == [(0,), (1,)]
        assert all(len(comp.passages) == 1 for comp in comps)

    def test_trefoil_component(self, trefoil):
        comps = components(trefoil)
        assert len(comps) == 1
        assert len(comps[0].passages) == 6

    def test_passages_cover_all_through_pairs(self):
        for d in random_suite(60, 1, 8, (0.0, 0.5), seed=8):
            seen = [p for comp in components(d) for p in comp.passages]
            assert sorted(seen) == [(i, p) for i in range(d.crossing_count)
                                    for p in (0, 1)]


class TestRelabeling:
    def test_profiles_are_label_free(self):
        rng = random.Random(321)
        for d in random_suite(50, 1, 8, (0.0, 0.5, 1.0), seed=9):
            assert invariant_profile(relabeled(d, rng)) == invariant_profile(d)


class TestPdImport:
    def test_trefoil_shape(self, trefoil):
        assert trefoil.crossing_count == 3
        assert trefoil.edge_count == 6
        assert faces(trefoil).region_count == 5
        assert surface_info(trefoil).euler_characteristic == 2
        assert len(components(trefoil)) == 1
        assert trefoil.overs == (1, 1, 1)

    def test_kink_code(self):
        d = import_pd([(1, 1, 2, 2)])
        assert faces(d).region_count == 3
        assert surface_info(d).euler_characteristic == 2

    def test_label_seen_once(self):
        with pytest.raises(DiagramFormatError, match="once"):
            import_pd([(1, 2, 3, 4), (1, 2, 3, 5)])

    def test_label_seen_thrice(self):
        with pytest.raises(DiagramFormatError, match="more than twice"):
            import_pd([(1, 1, 1, 2), (2, 3, 3, 4)])

    def test_wrong_arity(self):
        with pytest.raises(DiagramFormatError, match="4 labels"):
            import_pd([(1, 2, 3)])

    def test_empty(self):
        with pytest.raises(DiagramFormatError):
            import_pd([])


class TestDocuments:
    def test_round_trip(self, rp2curl):
        assert parse_diagram(serialize_diagram(rp2curl)) == rp2curl

    def test_round_trip_random(self):
        for d in random_suite(20, 1, 6, (0.0, 0.5), seed=10):
            assert parse_diagram(serialize_diagram(d)) == d

    def test_pd_document(self):
        text = json.dumps({"pd": [[1, 1, 2, 2]]})
        assert faces(parse_diagram(text)).region_count == 3

    def test_unknown_top_level_key(self):
        with pytest.raises(DiagramFormatError, match="keys"):
            parse_diagram('{"crossings": [], "edges": [], "extra": 1}')

    def test_unknown_entry_key(self, curl):
        doc = json.loads(serialize_diagram(curl))
        doc["edges"][0]["color"] = "red"
        with pytest.raises(DiagramFormatError, match="keys"):
            parse_diagram(json.dumps(doc))

    def test_shape_errors(self):
        with pytest.raises(DiagramFormatError, match="JSON"):
            parse_diagram("not json")
        with pytest.raises(DiagramFormatError, match="object"):
            parse_diagram("[1, 2]")
        bad_rotation = ('{"crossings": [{"rotation": [0, 1, 2], "over": 0}],'
                        ' "edges": []}')
        with pytest.raises(DiagramFormatError, match="rotation"):
            parse_diagram(bad_rotation)
        bool_over = ('{"crossings": [{"rotation": [0, 1, 2, 3], "over": true}],'
                     ' "edges": []}')
        with pytest.raises(DiagramFormatError, match="over"):
            parse_diagram(bool_over)

    def test_value_errors_are_diagram_level(self, curl):
        doc = json.loads(serialize_diagram(curl))
        doc["edges"][0]["sign"] = 3
        with pytest.raises(InvalidDiagramError, match="sign"):
            parse_diagram(json.dumps(doc))
        doc = json.loads(serialize_diagram(curl))
        doc["crossings"][0]["rotation"] = [0, 2, 1, 3]
        with pytest.raises(InvalidDiagramError, match="rotation"):
            parse_diagram(json.dumps(doc))


class TestShadow:
    def test_over_flag_changes_share_the_shadow(self, trefoil):
        tables = faces(trefoil)
        for other in (apply_rcc(trefoil, [0, 2]), switch_crossing(trefoil, 1),
                      trefoil.with_overs((0, 0, 0))):
            assert other.shadow is trefoil.shadow
            assert faces(other) is tables
        assert apply_rcc(trefoil, []) == trefoil

    def test_with_overs_checks_the_flags(self, trefoil):
        with pytest.raises(InvalidDiagramError, match="over flag"):
            trefoil.with_overs((0, 2, 0))
        with pytest.raises(InvalidDiagramError, match="over flags"):
            trefoil.with_overs((0, 0))

    def test_equality_ignores_the_shadow_object(self, trefoil):
        twin = import_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        assert twin.shadow is not trefoil.shadow
        assert twin == trefoil and hash(twin) == hash(trefoil)
        assert twin != trefoil.with_overs((0, 1, 1))

    def test_tables_are_freed_with_the_diagram(self):
        d = random_diagram(40, 0.5, seed=2)
        assert verify_rank_formula(d).holds
        ref = weakref.ref(d.shadow)
        del d
        gc.collect()
        assert ref() is None

    def test_documents_are_validated_once(self, monkeypatch, curl):
        calls = []
        check = regioncc.scheme._structural_violations
        monkeypatch.setattr(regioncc.scheme, "_structural_violations",
                            lambda *args: calls.append(1) or check(*args))
        assert parse_diagram(serialize_diagram(curl)) == curl
        assert len(calls) == 1

    def test_large_cyclic_pd_face_trace(self):
        n = 2000
        start = time.perf_counter()
        d = import_pd(cyclic_pd(n))
        fs = faces(d)
        elapsed = time.perf_counter() - start
        acc = 0
        for reg in fs.regions:
            acc ^= reg.parity_bits
        assert fs.region_count == n
        assert acc == 0
        assert surface_info(d).euler_characteristic == 0
        # A face trace quadratic in the darts takes seconds here.
        assert elapsed < 3.0
