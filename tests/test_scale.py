"""The acceptance properties on diagrams of 2000 crossings.

One diagram of each family: the cyclic PD torus code (many regions,
h1 = 2) and a random pairing with neg_prob 0.5 (few regions, h1 near
2000).  Each property is checked end to end from a cold shadow, within
a time bound far above what the graph walks and the one factorisation
need.
"""

import random
import time

import pytest

from conftest import cyclic_pd, even_target
from regioncc import (admissible, admissible_by_bicoloring, apply_rcc,
                      homology_context, import_pd, incidence_matrix,
                      random_diagram, verify_rank_formula)

N = 2000


def switched(d, cert) -> list[int]:
    after = apply_rcc(d, cert)
    return [i for i, (a, b) in enumerate(zip(d.overs, after.overs)) if a != b]


@pytest.mark.parametrize("family", ["torus", "genus"])
def test_acceptance_properties_at_2000_crossings(family):
    start = time.perf_counter()
    if family == "torus":
        d = import_pd(cyclic_pd(N))
    else:
        d = random_diagram(N, 0.5, seed=5)
    report = verify_rank_formula(d)
    assert report.holds
    if family == "torus":
        assert report.incidence_rank == N - 1
        assert homology_context(d).h1_dim == 2

    rng = random.Random(7)
    even = even_target(d, rng)
    odd = sorted(set(even) ^ {rng.randrange(N)})
    image = 0
    for bits in incidence_matrix(d).row_bits:
        if rng.random() < 0.5:
            image ^= bits
    reachable = [i for i in range(N) if (image >> i) & 1]
    assert len(odd) % 2 == 1
    verdicts = []
    for target in (even, odd, reachable):
        cert = admissible(d, target)
        by_colors, witness = admissible_by_bicoloring(d, target)
        assert (cert is not None) == by_colors
        if cert is not None:
            assert switched(d, cert) == target
            assert witness.switched(d) == tuple(target)
        verdicts.append(by_colors)
    assert verdicts[2]
    assert time.perf_counter() - start < 5.0
