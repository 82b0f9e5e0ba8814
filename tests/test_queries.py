"""Whole-int warm queries against the element-at-a-time loops they replaced.

``bicoloring`` and ``admissible_by_bicoloring`` read the shadow's walk
table by prefix XOR; ``admissible``, ``apply_rcc`` and
``rcc_equivalent`` switch by XOR-ing the shadow's region masks.  The
passage-by-passage walk, the ``class_of`` route and the corner-by-corner
switching live in conftest as oracles, and every answer must match them
exactly: colors, verdicts, witnesses, certificates and switched
diagrams.  A corrupted table must raise RuntimeError, never answer
wrongly.
"""

import random
from operator import xor

import pytest

from conftest import (CHAIN3_PD, HOPF_PD, WALK_FAULTS, braid_pd, cyclic_pd,
                      dense_admissible, even_target, make_curl, make_rp2curl,
                      make_torus11, make_trefoil, plant_rows, random_suite,
                      reference_admissible_by_bicoloring, reference_bicoloring,
                      reference_switched)
from regioncc import (Bicoloring, EmbeddingScheme, admissible,
                      admissible_by_bicoloring, apply_rcc, bicoloring,
                      components, faces, import_pd, rcc_equivalent)
from regioncc.bicolor import _check_switching


def suite():
    out = [make_curl(), make_torus11(), make_rp2curl(), make_trefoil(),
           import_pd(HOPF_PD), import_pd(CHAIN3_PD)]
    for p in (0.0, 0.5, 1.0):
        out += random_suite(25, 1, 12, (p,), seed=int(90 + 10 * p))
        out += random_suite(3, 20, 40, (p,), seed=int(91 + 10 * p))
    out += [import_pd(cyclic_pd(n)) for n in (4, 7, 12, 31)]
    out += [import_pd(braid_pd(s, n, seed)) for s, n, seed in ((3, 9, 1), (8, 30, 3),
                                                               (16, 48, 2))]
    return out


SUITE = suite()


def targets(d, rng):
    """The empty set, single crossings, even and random sets, and images."""
    c = d.crossing_count
    out = [[], list(range(c)), even_target(d, rng)]
    out += [[i] for i in range(min(c, 4))]
    out += [[i for i in range(c) if rng.random() < 0.5] for _ in range(3)]
    for _ in range(3):
        regions = [rid for rid in range(faces(d).region_count) if rng.random() < 0.5]
        out.append([i for i, flip in enumerate(reference_switched(d, regions)) if flip])
    return out


def test_suite_covers_many_components():
    assert max(len(components(d)) for d in SUITE) >= 8
    assert any(not d.shadow.orientable for d in SUITE)


def test_bicoloring_routes_match_the_passage_walk():
    rng = random.Random(93)
    seen = dict.fromkeys(("odd", "nonzero", "flipped", "yes"), 0)
    for d in SUITE:
        for target in targets(d, rng):
            base = reference_bicoloring(d, target)
            got = bicoloring(d, target)
            assert (got and got.colors) == base
            expected = reference_admissible_by_bicoloring(d, target)
            ok, witness = admissible_by_bicoloring(d, target)
            assert (ok, witness and witness.colors) == expected
            if base is None:
                seen["odd"] += 1
            elif not ok:
                seen["nonzero"] += 1
            else:
                seen["yes"] += 1
                seen["flipped"] += witness.colors != base
                assert witness.switched(d) == tuple(sorted(set(target)))
    assert min(seen.values()) >= 20, seen


def test_region_routes_match_the_corner_walk():
    rng = random.Random(94)
    for d in SUITE:
        r = faces(d).region_count
        for target in targets(d, rng):
            cert = admissible(d, target)
            assert cert == dense_admissible(d, target)
            if cert is not None:
                flags = reference_switched(d, cert)
                assert [i for i, flip in enumerate(flags) if flip] == sorted(set(target))
        # Random half-region sets flip densely; no region and single
        # regions flip sparsely.
        halves = [[rid for rid in range(r) if rng.random() < 0.5] for _ in range(3)]
        for regions in halves + [[]] + [[rid] for rid in range(r)]:
            moved = apply_rcc(d, regions)
            assert moved.overs == tuple(map(xor, d.overs, reference_switched(d, regions)))
            assert rcc_equivalent(d, moved) == dense_admissible(
                d, [i for i, (a, b) in enumerate(zip(d.overs, moved.overs)) if a != b])


# ---------------------------------------------------------------------------
# Corrupted tables.  Each fault in WALK_FAULTS replaces the walk table
# of a fresh shadow; a query then answers exactly as the oracles do or
# raises RuntimeError.

def fault_suite():
    return [d for d in SUITE if d.crossing_count >= 2 and len(components(d)) >= 2]


@pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
def test_corrupted_walk_table_raises_or_answers_right(fault):
    rng = random.Random(95)
    caught = 0
    for d in fault_suite():
        for target in targets(d, rng):
            expected = reference_admissible_by_bicoloring(d, target)
            base = reference_bicoloring(d, target)
            fresh = EmbeddingScheme(d.overs, d.edges)
            fresh.shadow.__dict__["walk_table"] = WALK_FAULTS[fault](d.shadow.walk_table)
            try:
                ok, witness = admissible_by_bicoloring(fresh, target)
            except RuntimeError:
                caught += 1
            else:
                assert (ok, witness and witness.colors) == expected
            try:
                got = bicoloring(fresh, target)
            except RuntimeError:
                caught += 1
            else:
                assert (got and got.colors) == base
    assert caught >= 10


def test_corrupted_region_masks_raise():
    rng = random.Random(96)
    caught = 0
    for d in SUITE:
        for target in targets(d, rng):
            cert = admissible(d, target)
            if not cert:
                continue
            fresh = EmbeddingScheme(d.overs, d.edges)
            rows = list(fresh.shadow.incidence_matrix.row_bits)
            rows[cert[0]] ^= 1 << rng.randrange(d.crossing_count)
            plant_rows(fresh.shadow, rows, d.crossing_count)
            with pytest.raises(RuntimeError, match="certificate does not switch"):
                admissible(fresh, target)
            caught += 1
    assert caught >= 50


def test_one_flipped_edge_fails_the_cycle_check():
    rng = random.Random(97)
    flipped = 0
    for d in SUITE:
        for target in targets(d, rng):
            ok, witness = admissible_by_bicoloring(d, target)
            if not ok:
                continue
            chosen = set(target)
            _check_switching(d, witness.colors, chosen)
            for e, ((a, b), _) in enumerate(d.edges):
                if a >> 2 == b >> 2:
                    continue  # a loop adds 2 at its crossing either way
                colors = list(witness.colors)
                colors[e] ^= 1
                with pytest.raises(RuntimeError):
                    _check_switching(d, tuple(colors), chosen)
                with pytest.raises(ValueError, match="strands disagree"):
                    Bicoloring(tuple(colors)).switched(d)
                flipped += 1
    assert flipped >= 1000
