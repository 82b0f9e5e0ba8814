"""Answers follow the diagram, not its presentation.

A local switch at crossing i (``local_switch``) reverses the rotation
there and flips the sign of each edge with exactly one end at i.  It
presents the same diagram on the same surface (Mohar and Thomassen,
Graphs on Surfaces, ch. 3) and keeps every crossing's number, so each
answer about crossings must come out unchanged.  So must it under a
rotation shift (``rotation_shift``), which starts crossing i's rotation
one dart later and flips its over flag, and under reversed darts
(``reversed_darts``), which lists some edges' darts the other way round.
Renumbering the crossings (``presentation``, which also applies local
switches and rotation shifts) maps every answer through the permutation.
"""

import random

from conftest import (local_switch, presentation, random_suite, reversed_darts,
                      rotation_shift, same_answers)
from regioncc import admissible, admissible_by_bicoloring, faces, ineffective_basis


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


def test_renumbering_maps_every_answer():
    rng = random.Random(44)
    for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=44):
        perm, copy = presentation(d, rng)
        same_answers(d, copy, rng, perm)
