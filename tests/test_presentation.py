"""Answers follow the diagram, not its presentation.

A local switch at crossing i (``local_switch``) reverses the rotation
there and flips the sign of each edge with exactly one end at i.  It
presents the same diagram on the same surface (Mohar and Thomassen,
Graphs on Surfaces, ch. 3) and keeps every crossing's number, so each
answer about crossings must come out unchanged.  So must it under a
rotation shift (``rotation_shift``), which starts crossing i's rotation
one dart later and flips its over flag, and under reversed darts
(``reversed_darts``), which lists some edges' darts the other way round.
"""

import random

from conftest import (local_switch, random_suite, reference_switched, reversed_darts,
                      rotation_shift)
from regioncc import (admissible, admissible_by_bicoloring, apply_rcc, components,
                      count_classes, faces, ineffective_basis, surface_info,
                      verify_rank_formula)


def profile(d):
    """The surface, the ranks, the class count and each region's corners."""
    return (surface_info(d), verify_rank_formula(d), count_classes(d),
            len(components(d)), len(ineffective_basis(d)),
            sorted(sorted(region.corners) for region in faces(d).regions))


def same_answers(d, copy, rng):
    """Assert the relations between d and a presentation of it; return the targets."""
    c = d.crossing_count
    assert profile(copy) == profile(d)
    # Two random crossing sets, then two that some region set of d switches.
    targets = [sorted(rng.sample(range(c), rng.randrange(c + 1))) for _ in range(2)]
    for _ in range(2):
        regions = [k for k in range(faces(d).region_count) if rng.random() < 0.5]
        targets.append([i for i, flip in enumerate(reference_switched(d, regions)) if flip])
    for target in targets:
        cert = admissible(copy, target)
        assert (cert is not None) == (admissible(d, target) is not None)
        assert admissible_by_bicoloring(copy, target)[0] == (cert is not None)
        assert admissible_by_bicoloring(d, target)[0] == (cert is not None)
        if cert is not None:
            after = apply_rcc(copy, cert)
            assert [i for i in range(c) if after.overs[i] != copy.overs[i]] == target
    return targets


def test_local_switch_changes_no_answer():
    rng = random.Random(41)
    for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=41):
        same_answers(d, local_switch(d, rng.randrange(d.crossing_count)), rng)


def test_rotation_shift_changes_no_answer():
    rng = random.Random(43)
    for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=43):
        same_answers(d, rotation_shift(d, rng.randrange(d.crossing_count)), rng)


def test_reversed_darts_change_no_answer():
    # The cover and the dart-to-edge table are the same, so every answer
    # is equal outright: certificates, witnesses, regions and basis.
    rng = random.Random(43)
    for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=43):
        copy = reversed_darts(d, rng)
        assert copy.shadow.cover == d.shadow.cover
        assert copy.shadow.edge_of == d.shadow.edge_of
        assert faces(copy) == faces(d)
        assert ineffective_basis(copy) == ineffective_basis(d)
        for target in same_answers(d, copy, rng):
            assert admissible(copy, target) == admissible(d, target)
            assert admissible_by_bicoloring(copy, target) == admissible_by_bicoloring(d, target)
