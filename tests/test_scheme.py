"""Diagram structure: validation, cover, faces, components, formats."""

import gc
import itertools
import json
import random
import re
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FIXTURE_MAKERS, FIXTURE_PROFILES,
                      MALFORMED_SCHEME_VIOLATIONS, MALFORMED_VALIDATE_VIOLATIONS,
                      SCHEME_VIOLATIONS, VALIDATE_VIOLATIONS,
                      base_region_count, braid_pd, cover_face_count, cyclic_pd,
                      invariant_profile, json_shaped, make_torus11, mirror_fault,
                      monodromy_orientable, parse_outcome, random_suite,
                      reference_components, reference_cover, reference_import_pd,
                      reference_index_set, reference_parse_diagram,
                      reference_serialize_diagram, region_parities,
                      region_walks, relabeled, rotation_step,
                      shift_switched)
import regioncc.scheme
from regioncc import (DiagramFormatError, Edge, EmbeddingScheme,
                      InvalidDiagramError, R2Spec, admissible,
                      admissible_by_bicoloring, apply_rcc,
                      bicoloring, components, faces,
                      import_pd, orientation_double_cover, parse_diagram,
                      poke_sites, random_diagram, reidemeister_two,
                      serialize_diagram, surface_info, switch_crossing,
                      validate, verify_rank_formula)
from regioncc.scheme import _index_list, _index_set


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

    def test_duplicate_second_dart(self):
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme((0,), (Edge((0, 1), 1), Edge((3, 1), 1)))
        assert info.value.violations == ["dart 1 appears in edges 0 and 1"]

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

    @pytest.mark.parametrize("name", sorted(MALFORMED_VALIDATE_VIOLATIONS))
    def test_malformed_validate_entries_exact(self, name):
        crossings, edges, expected = MALFORMED_VALIDATE_VIOLATIONS[name]
        with pytest.raises(InvalidDiagramError) as info:
            validate(crossings, edges)
        assert info.value.violations == expected

    @pytest.mark.parametrize("name", sorted(MALFORMED_SCHEME_VIOLATIONS))
    def test_malformed_scheme_edges_exact(self, name):
        overs, edges, expected = MALFORMED_SCHEME_VIOLATIONS[name]
        with pytest.raises(InvalidDiagramError) as info:
            EmbeddingScheme(overs, [Edge(darts, sign) for darts, sign in edges])
        assert info.value.violations == expected


def built_by_every_builder():
    """(builder, diagram) pairs, a few from each way of building one; each is
    yielded before anything queries it."""
    for d in random_suite(9, 1, 9, (0.0, 0.5, 1.0), seed=17):
        yield "random_diagram", d
        yield "EmbeddingScheme", EmbeddingScheme(d.overs, d.edges)
        crossings = [([4 * i + k for k in range(4)], o) for i, o in enumerate(d.overs)]
        yield "validate", validate(crossings, d.edges)
        yield "parse_diagram", parse_diagram(serialize_diagram(d))
        yield "reidemeister_two", reidemeister_two(d, R2Spec(*poke_sites(d)[-1]))
    for code in (cyclic_pd(5), braid_pd(3, 7, 1), [[1, 1, 2, 2]]):
        yield "import_pd", import_pd(code)
        yield "parse_diagram", parse_diagram(json.dumps({"pd": code}))


class TestDartAlgebra:
    def test_tables(self, torus11):
        assert torus11.theta(0) == 2
        assert torus11.edge_of(3) == 1

    def test_dart_queries_follow_the_index_rule(self, trefoil):
        # A negative dart must not wrap round to the end of the tables.
        for query in (trefoil.theta, trefoil.edge_of):
            for bad in (-1, -12, 12):
                with pytest.raises(IndexError, match=f"^dart index {bad} out of range"):
                    query(bad)
            for bad in (True, 1.0, "1", None):
                with pytest.raises(TypeError, match="^dart index .* is not an int"):
                    query(bad)

    def test_theta_is_the_other_dart_of_the_edge(self):
        for _, d in built_by_every_builder():
            for x in range(d.dart_count):
                a, b = d.edges[d.edge_of(x)].darts
                assert x in (a, b) and d.theta(x) == a + b - x

    def test_shadows_store_only_the_pairing_tables(self):
        # The cover is the one pairing table; every other table is derived
        # on first use.  reidemeister_two counts its result's regions.
        stored = {"edges", "orientable", "edge_of", "cover"}
        for builder, d in built_by_every_builder():
            extra = {"faces"} if builder == "reidemeister_two" else set()
            assert vars(d.shadow).keys() == stored | extra


# One check per index, in input order: the first bad index is named,
# whatever its fault.
@pytest.mark.parametrize("query, what", [(admissible, "crossing"),
                                         (admissible_by_bicoloring, "crossing"),
                                         (bicoloring, "crossing"),
                                         (apply_rcc, "region")],
                         ids=lambda v: getattr(v, "__name__", v))
def test_index_sets_report_the_first_bad_index(trefoil, query, what):
    count = trefoil.crossing_count if what == "crossing" else trefoil.shadow.faces.region_count
    for indices, error, message in [([9, 1.5], IndexError, f"{what} index 9 out of range"),
                                    ([1.5, 9], TypeError, f"{what} index 1.5 is not an int"),
                                    (5, TypeError, f"{what} set 5 is not an iterable"),
                                    # An endless iterable is read only up to its first bad index.
                                    (itertools.count(), IndexError,
                                     f"{what} index {count} out of range")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            query(trefoil, indices)


# The index pass must answer as the per-index rule does, whatever the
# container: the same set, or the same exception for the same first bad
# index; the list keeps input order and repeats.
@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-3, 12) | st.sampled_from([True, False, 1.5, "1", 10**30, -10**30]),
                max_size=8),
       st.integers(0, 10),
       st.sampled_from([list, tuple, set, frozenset, iter, lambda items: (i for i in items)]))
def test_index_set_matches_the_per_index_rule(items, count, container):
    def outcome(check):
        try:
            return check(container(items), count, "crossing")
        except (TypeError, IndexError) as e:
            return type(e), str(e)

    expected = outcome(reference_index_set)
    assert outcome(_index_set) == expected
    if isinstance(expected, set):
        assert outcome(_index_list) == list(container(items))


def cover_is_connected(d: EmbeddingScheme) -> bool:
    """Whether the package's cover is connected, by a search along sigma and theta.

    Only theta comes from the package; sigma is the rotation rule.
    """
    theta = orientation_double_cover(d)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (rotation_step(x), theta[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(theta)


class TestCover:
    def test_positive_signs_disconnect(self, curl, torus11):
        assert not cover_is_connected(curl) and curl.shadow.orientable
        assert not cover_is_connected(torus11) and torus11.shadow.orientable

    def test_crosscap_connects(self, rp2curl):
        theta = orientation_double_cover(rp2curl)
        assert cover_is_connected(rp2curl) and not rp2curl.shadow.orientable
        # theta is a fixed-point-free involution on 8 darts: 4 cover edges
        assert len(theta) == 8
        assert all(theta[x] != x and theta[theta[x]] == x for x in range(8))

    def test_orientability_matches_sign_monodromy(self):
        for d in random_suite(120, 1, 7, (0.0, 0.4, 1.0), seed=101):
            assert (not cover_is_connected(d)) == monodromy_orientable(d) \
                == d.shadow.orientable


class TestFaces:
    def test_curl_regions(self, curl):
        fs = faces(curl)
        assert fs.region_count == 3
        assert [reg.corner_counts for reg in fs.regions] == [(2,), (1,), (1,)]
        assert region_parities(curl) == [0b11, 0b01, 0b10]

    def test_torus11_single_region(self, torus11):
        fs = faces(torus11)
        assert fs.region_count == 1
        assert fs.regions[0].corner_counts == (4,)
        assert region_parities(torus11) == [0]

    def test_rp2curl_regions(self, rp2curl):
        fs = faces(rp2curl)
        assert fs.region_count == 2
        assert sorted(reg.corner_counts[0] for reg in fs.regions) == [1, 3]
        assert region_parities(rp2curl) == [0b10, 0b10]

    def test_sides(self, rp2curl):
        fs = faces(rp2curl)
        assert [fs.plus_face[d] >> 1 for d in range(4)] == [0, 0, 0, 1]
        assert fs.edge_sides == ((0, 0), (0, 1))

    def test_cover_face_counts_double_regions(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=5):
            fs = faces(d)
            assert cover_face_count(d) == 2 * fs.region_count
            # partner is a fixed-point-free involution
            for fid, mate in enumerate(fs.face_partner):
                assert mate != fid
                assert fs.face_partner[mate] == fid

    def test_cover_faces_are_numbered_by_region(self):
        for d in random_suite(60, 1, 8, (0.0, 0.5, 1.0), seed=8):
            fs = faces(d)
            assert fs.face_partner == tuple(f ^ 1 for f in range(2 * fs.region_count))
            # The sheet-0 lifts of the darts at a crossing are one per
            # corner there: dart x's lift lies in a face over the region
            # at the corner just before x.
            named = [[0] * d.crossing_count for _ in range(fs.region_count)]
            for x in range(d.dart_count):
                named[fs.plus_face[x] >> 1][x >> 2] += 1
            counts = [[corners.count(v) for v in range(d.crossing_count)]
                      for corners, _ in region_walks(d)]
            assert named == counts

    def test_corners_match_reference_walks(self):
        for d in random_suite(120, 1, 10, (0.0, 0.5, 1.0), seed=9):
            assert [reg.corners for reg in faces(d).regions] \
                == [corners for corners, _ in region_walks(d)]

    @pytest.mark.parametrize("family", ["torus", "genus", "braid"])
    def test_corners_match_reference_walks_on_families(self, family):
        n = 300
        d = {"torus": lambda: import_pd(cyclic_pd(n)),
             "genus": lambda: random_diagram(n, 0.5, seed=3),
             "braid": lambda: import_pd(braid_pd(30, n, 1))}[family]()
        assert [reg.corners for reg in faces(d).regions] \
            == [corners for corners, _ in region_walks(d)]

    @staticmethod
    def break_deck(d: EmbeddingScheme) -> None:
        """Dart 0 takes dart 1's partner: theta(1) == theta(0) breaks both laws."""
        theta = d.shadow.cover
        d.shadow.__dict__["cover"] = theta[1:2] + theta[1:]

    # sigma is a formula, not data, so theta is the one table to corrupt.
    @pytest.mark.parametrize("kind", ["theta_breaks_deck"])
    @pytest.mark.parametrize("name", ["curl", "rp2curl", "trefoil"])
    def test_corrupted_cover_is_caught(self, name, kind):
        d = FIXTURE_MAKERS[name]()
        self.break_deck(d)
        with pytest.raises(RuntimeError) as caught:
            faces(d)
        assert str(caught.value) == "cover breaks the deck laws"

    @pytest.mark.parametrize("kind", ["theta_breaks_deck"])
    def test_cover_breaking_the_deck_laws_is_caught(self, kind):
        for d in [make_torus11()] + random_suite(60, 1, 8, (0.0, 0.5, 1.0), seed=1):
            self.break_deck(d)
            with pytest.raises(RuntimeError) as caught:
                faces(d)
            assert str(caught.value) == "cover breaks the deck laws"

    @pytest.mark.parametrize("name", ["curl", "rp2curl", "trefoil"])
    def test_face_meeting_its_own_mirror_is_caught(self, name):
        d = FIXTURE_MAKERS[name]()
        d.shadow.__dict__["cover"] = mirror_fault(d.shadow.cover)
        with pytest.raises(RuntimeError) as caught:
            faces(d)
        assert str(caught.value) == "face 0 meets its own mirror"

    def test_corner_and_parity_bookkeeping(self):
        for d in random_suite(80, 1, 8, (0.0, 0.5, 1.0), seed=6):
            fs = faces(d)
            for v in range(d.crossing_count):
                assert sum(reg.corner_counts[v] for reg in fs.regions) == 4
            acc = 0
            for bits in region_parities(d):
                acc ^= bits
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
        assert len(comps[0].crossings) == 2

    def test_torus11_two_components(self, torus11):
        comps = components(torus11)
        assert len(comps) == 2
        assert [comp.edges for comp in comps] == [(0,), (1,)]
        assert [comp.crossings for comp in comps] == [(0,), (0,)]

    def test_trefoil_component(self, trefoil):
        comps = components(trefoil)
        assert len(comps) == 1
        assert sorted(comps[0].crossings) == [0, 0, 1, 1, 2, 2]

    def test_trace_matches_the_reference(self):
        diagrams = [make() for make in FIXTURE_MAKERS.values()]
        for p in (0.0, 0.5, 1.0):
            diagrams += random_suite(30, 1, 12, (p,), seed=int(8 + 10 * p))
        diagrams += [import_pd(cyclic_pd(n)) for n in (2, 5, 12, 31)]
        diagrams += [import_pd(braid_pd(s, n, seed))
                     for s, n, seed in ((3, 9, 1), (8, 30, 3), (16, 48, 2))]
        for d in diagrams:
            walks = reference_components(d)
            seen = sorted(p for _, passages in walks for p in passages)
            assert seen == [(i, p) for i in range(d.crossing_count) for p in (0, 1)]
            assert components(d) == tuple(
                (edges, tuple(i for i, _ in passages)) for edges, passages in walks)


class TestRelabeling:
    def test_profiles_are_label_free(self):
        rng = random.Random(321)
        for d in random_suite(50, 1, 8, (0.0, 0.5, 1.0), seed=9):
            assert invariant_profile(relabeled(d, rng)[1]) == invariant_profile(d)


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

    @staticmethod
    def pd_codes():
        rng = random.Random(23)
        for code in ([cyclic_pd(n) for n in (1, 2, 5, 64)]
                     + [braid_pd(s, n, seed) for s, n, seed in ((3, 9, 1), (8, 60, 2))]):
            shuffled = list(code)
            rng.shuffle(shuffled)
            for crossings in (code, shuffled):
                yield crossings
                yield [[f"s{label}" for label in labels] for labels in crossings]

    def test_matches_the_two_step_reference(self):
        for code in self.pd_codes():
            # Overs, edge types, edges, theta, edge_of and orientable.
            assert parse_outcome(import_pd, code) == parse_outcome(reference_import_pd, code)

    @pytest.mark.parametrize("code", [
        [(1, 1, 1, 2), (2, 3, 3, 4)], [[1, 1, 1, 2]], [(1, 2, 3, 4), (1, 2, 3, 5)],
        [[1, 2, 3, 4]], [[1, 2, 3, 4], [5, 5, 6, 7]],
        [["a", "b", "a", "b"], ["c", "d", "d", "c"], ["e"]],
        [[1, 1, 2, 2], [3, 3, "a", 4]], [(1, 2, 3)], [(1, 2, 3, 4, 5)], [[1, 1.0, 2, 2]],
        [[1, 1, 2, 2], [3, 3, 4, 4]], [["a", "a", "b", "b"], ["c", "c", "d", "d"]],
        [[1, 2, 3, 3], [4, 4, 5, 5], [1, 2, 5, 6]], 7, []])
    def test_malformed_codes_match_the_reference(self, code):
        outcome = parse_outcome(import_pd, code)
        assert outcome == parse_outcome(reference_import_pd, code)
        assert issubclass(outcome[0], ValueError)


class TestDocuments:
    def test_round_trip(self, rp2curl):
        assert parse_diagram(serialize_diagram(rp2curl)) == rp2curl

    def test_round_trip_random(self):
        for d in random_suite(20, 1, 6, (0.0, 0.5), seed=10):
            assert parse_diagram(serialize_diagram(d)) == d

    def test_serialized_bytes_match_the_indented_encoder(self):
        suite = (random_suite(30, 1, 1, (0.0, 0.5, 1.0), seed=11)
                 + random_suite(30, 2, 40, (0.0, 0.5, 1.0), seed=12))
        assert any(sign < 0 for d in suite for _, sign in d.edges)
        for d in suite:
            assert serialize_diagram(d) == reference_serialize_diagram(d)

    VIOLATION_DOCUMENTS = {**json_shaped(VALIDATE_VIOLATIONS),
                           **{f"malformed-{name}": doc for name, doc in
                              json_shaped(MALFORMED_VALIDATE_VIOLATIONS).items()}}

    @pytest.mark.parametrize("name", sorted(VIOLATION_DOCUMENTS))
    def test_violation_documents_match_the_reference_parser(self, name):
        text = json.dumps(self.VIOLATION_DOCUMENTS[name])
        outcome = parse_outcome(parse_diagram, text)
        assert outcome == parse_outcome(reference_parse_diagram, text)
        if name in VALIDATE_VIOLATIONS:
            assert outcome[2] == VALIDATE_VIOLATIONS[name][2]

    @staticmethod
    def edit(doc: dict, name: str) -> None:
        """One of ``ORDERING``'s edits, in place, on a 12-crossing genus document."""
        edges, crossings = doc["edges"], doc["crossings"]
        if name == "duplicate-then-bad-darts":
            edges[2]["darts"] = list(edges[1]["darts"])
            edges[9]["darts"] = [0, "x"]
        elif name == "sign-then-float-sign":
            edges[3]["sign"] = 3
            edges[20]["sign"] = 1.0
        elif name == "range-then-missing-key":
            edges[0]["darts"] = [0, 48]
            del edges[23]["sign"]
        elif name == "rotation-and-edges":
            crossings[1]["rotation"] = [4, 6, 5, 7]
            crossings[5]["over"] = 2
            edges[4]["darts"] = [edges[4]["darts"][0]] * 2
            edges[7]["sign"] = 0
        elif name == "rotation-only":
            crossings[11]["rotation"] = [44, 45, 46, 48]
        elif name == "over-only":
            crossings[0]["over"] = -1
        elif name == "one-edge-short":
            edges.pop()
        elif name == "one-edge-over":
            edges.append({"darts": [0, 1], "sign": 1})
        elif name == "last-edge-bad":
            edges[-1]["sign"] = -2
        elif name == "no-crossings-then-bad-sign":
            crossings.clear()
            edges[6]["sign"] = 1.0
        elif name == "disconnected":
            shift = 4 * len(crossings)
            crossings += [{"rotation": [shift + k for k in range(4)], "over": 0}]
            edges += [{"darts": [shift, shift + 1], "sign": -1},
                      {"darts": [shift + 2, shift + 3], "sign": 1}]

    ORDERING = {"duplicate-then-bad-darts": DiagramFormatError,
                "sign-then-float-sign": DiagramFormatError,
                "range-then-missing-key": DiagramFormatError,
                "rotation-and-edges": InvalidDiagramError,
                "rotation-only": InvalidDiagramError,
                "over-only": InvalidDiagramError,
                "one-edge-short": InvalidDiagramError,
                "one-edge-over": InvalidDiagramError,
                "last-edge-bad": InvalidDiagramError,
                "disconnected": InvalidDiagramError,
                "no-crossings-then-bad-sign": DiagramFormatError,
                "sound": None}

    @pytest.mark.parametrize("name", sorted(ORDERING))
    def test_faults_in_any_order_match_the_reference_parser(self, name):
        d = random_diagram(12, 0.5, seed=21)
        assert not d.shadow.orientable and any(s < 0 for _, s in d.edges)
        doc = json.loads(serialize_diagram(d))
        self.edit(doc, name)
        text = json.dumps(doc)
        outcome = parse_outcome(parse_diagram, text)
        assert outcome == parse_outcome(reference_parse_diagram, text)
        if self.ORDERING[name] is None:
            assert outcome[2] == d.edges and outcome[-1] is False
        else:
            assert outcome[0] is self.ORDERING[name]
        if name == "rotation-and-edges":
            assert outcome[2] == ["crossing 1: rotation must be [4, 5, 6, 7]",
                                  "crossing 5: over flag must be 0 or 1",
                                  f"edge 4: self-paired dart {doc['edges'][4]['darts'][0]}",
                                  "edge 7: sign must be +1 or -1"]
        elif name == "duplicate-then-bad-darts":
            assert outcome[1] == "edge 9: darts must be a list of 2 dart ids"
        elif name == "no-crossings-then-bad-sign":
            assert outcome[1] == "edge 6: sign must be an integer"

    def test_documents_and_raw_entries_meet_one_rule(self):
        # Every document of a sound shape gives what validate gives on its
        # entries: the same scheme, or the same violations.
        d = random_diagram(12, 0.5, seed=21)
        docs = list(self.VIOLATION_DOCUMENTS.values())
        for name in self.ORDERING:
            doc = json.loads(serialize_diagram(d))
            self.edit(doc, name)
            docs.append(doc)
        compared = 0
        for doc in docs:
            text = json.dumps(doc)
            outcome = parse_outcome(parse_diagram, text)
            if outcome[0] is DiagramFormatError:
                continue
            crossings = [(c["rotation"], c["over"]) for c in doc["crossings"]]
            edges = [(e["darts"], e["sign"]) for e in doc["edges"]]
            assert outcome == parse_outcome(lambda _: validate(crossings, edges), text)
            compared += 1
        assert compared >= 13   # of 19: six documents have a format error

    def test_cover_is_the_lifted_theta(self):
        suite = (random_suite(40, 1, 30, (0.0, 0.5, 1.0), seed=22)
                 + [import_pd(cyclic_pd(9)), import_pd(braid_pd(4, 12, 1))])
        for d in suite:
            cover = reference_cover(d.edges)
            for built in (d, parse_diagram(serialize_diagram(d)),
                          EmbeddingScheme(d.overs, d.edges)):
                assert built.shadow.cover == cover
                assert type(built.shadow.cover) is tuple

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
        for doc in ('{"crossings": {}, "edges": []}', '{"crossings": [], "edges": 5}'):
            with pytest.raises(DiagramFormatError, match="^crossings and edges must be lists"):
                parse_diagram(doc)

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
        # The flag moves skip the flag check, so their flags are checked here.
        rng = random.Random(71)
        for d in random_suite(30, 1, 12, (0.0, 0.5, 1.0), seed=72):
            r = faces(d).region_count
            regions = rng.sample(range(r), min(r, rng.randrange(5)))
            i = rng.randrange(d.crossing_count)
            effect = shift_switched(d, regions)
            moved = [(apply_rcc(d, regions),
                      [o ^ ((effect >> k) & 1) for k, o in enumerate(d.overs)]),
                     (switch_crossing(d, i),
                      [o ^ (k == i) for k, o in enumerate(d.overs)])]
            for other, expected in moved:
                assert other.shadow is d.shadow
                assert all(type(o) is int and o in (0, 1) for o in other.overs)
                assert other == d.with_overs(expected)
                assert parse_diagram(serialize_diagram(other)) == other

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
        # Every document, sound or faulty, hands its entries to validate once,
        # and validate to the one structural pass, which builds the shadow or
        # names the violations.
        calls = []
        for name in ("validate", "_structural_violations"):
            check = getattr(regioncc.scheme, name)
            monkeypatch.setattr(regioncc.scheme, name, lambda *args, name=name, check=check:
                                calls.append(name) or check(*args))
        assert parse_diagram(serialize_diagram(curl)) == curl
        assert calls == ["validate", "_structural_violations"]
        for entry, key, value, match in (("edges", "sign", 3, "^edge 1: sign must be"),
                                         ("crossings", "rotation", [0, 2, 1, 3],
                                          "^crossing 0: rotation must be")):
            calls.clear()
            doc = json.loads(serialize_diagram(curl))
            doc[entry][-1][key] = value
            with pytest.raises(InvalidDiagramError, match=match):
                parse_diagram(json.dumps(doc))
            assert calls == ["validate", "_structural_violations"]

    def test_large_cyclic_pd_face_trace(self):
        n = 2000
        start = time.perf_counter()
        d = import_pd(cyclic_pd(n))
        fs = faces(d)
        elapsed = time.perf_counter() - start
        assert fs.region_count == n
        assert sum(len(reg.corners) for reg in fs.regions) == 4 * n
        assert surface_info(d).euler_characteristic == 0
        # A face trace quadratic in the darts takes seconds here.
        assert elapsed < 3.0
