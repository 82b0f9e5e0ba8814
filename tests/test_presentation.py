"""Answers follow the diagram, not its presentation.

A local switch at crossing i (``local_switch``) reverses the rotation
there and flips the sign of each edge with exactly one end at i.  It
presents the same diagram on the same surface (Mohar and Thomassen,
Graphs on Surfaces, ch. 3) and keeps every crossing's number, so each
answer about crossings must come out unchanged.
"""

import random

from conftest import local_switch, random_suite, reference_switched
from regioncc import (admissible, admissible_by_bicoloring, apply_rcc, components,
                      count_classes, faces, ineffective_basis, surface_info,
                      verify_rank_formula)


def profile(d):
    """The surface, the ranks, the class count and each region's corners."""
    return (surface_info(d), verify_rank_formula(d), count_classes(d),
            len(components(d)), len(ineffective_basis(d)),
            sorted(sorted(region.corners) for region in faces(d).regions))


def test_local_switch_changes_no_answer():
    rng = random.Random(41)
    for d in random_suite(300, 1, 14, (0.0, 0.5, 1.0), seed=41):
        c = d.crossing_count
        copy = local_switch(d, rng.randrange(c))
        assert profile(copy) == profile(d)
        # Two random crossing sets, then two that some region set of d switches.
        targets = [sorted(rng.sample(range(c), rng.randrange(c + 1))) for _ in range(2)]
        for _ in range(2):
            regions = [k for k in range(faces(d).region_count) if rng.random() < 0.5]
            targets.append([i for i, flip in enumerate(reference_switched(d, regions))
                            if flip])
        for target in targets:
            cert = admissible(copy, target)
            assert (cert is not None) == (admissible(d, target) is not None)
            assert admissible_by_bicoloring(copy, target)[0] == (cert is not None)
            assert admissible_by_bicoloring(d, target)[0] == (cert is not None)
            if cert is not None:
                after = apply_rcc(copy, cert)
                assert [i for i in range(c) if after.overs[i] != copy.overs[i]] == target
