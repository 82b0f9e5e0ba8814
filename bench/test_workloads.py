"""Tests of the benchmark's own input generators.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import random

import pytest

import workloads
from regioncc import (faces, import_pd, incidence_matrix, parse_diagram,
                      verify_rank_formula)


@pytest.mark.parametrize("family", ["torus", "genus"])
def test_same_seed_same_inputs(family):
    first = workloads.SolveWorkload(family, 7, 6).inputs()
    again = workloads.SolveWorkload(family, 7, 6).inputs()
    other = workloads.SolveWorkload(family, 8, 6).inputs()
    assert first == again
    assert first != other


def test_same_seed_same_cli_chain():
    def steps(seed):
        chain = workloads.CliChain(workloads.stream(seed, "cli", "chain"))
        return chain.slots[:], [chain.step(kind) for kind in workloads.CLI_KINDS]

    assert steps(3) == steps(3)
    assert steps(3) != steps(4)


@pytest.mark.parametrize("family", ["torus", "genus"])
def test_distinct_ops_give_distinct_shadows(family):
    items = workloads.SolveWorkload(family, 11, 12).inputs()
    assert len({shadow for _, _, shadow in items}) == len(items)
    edges = {parse_diagram(doc).edges for doc, _, _ in items}
    assert len(edges) == len(items)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 256])
def test_relabelled_cyclic_pd_has_n_regions(n):
    rng = random.Random(n)
    for _ in range(3):
        d = import_pd(workloads.cyclic_pd(n, rng))
        assert faces(d).region_count == n


@pytest.mark.parametrize("n", [4, 64, 256])
def test_even_cyclic_pd_admits_exactly_even_targets(n):
    # The torus-family checks rely on this: rank n - 1 and even rows make
    # the image of the incidence matrix the even-weight crossing sets.
    d = import_pd(workloads.cyclic_pd(n, random.Random(n)))
    assert verify_rank_formula(d).incidence_rank == n - 1
    assert all(row.bit_count() % 2 == 0 for row in incidence_matrix(d).row_bits)


def test_random_pairing_is_a_connected_diagram():
    rng = random.Random(5)
    for n in (1, 4, 32):
        d = parse_diagram(workloads.dumps(workloads.random_pairing(n, 0.5, rng)))
        assert d.crossing_count == n and d.edge_count == 2 * n


def test_pd_shadow_matches_import_pd():
    code = workloads.cyclic_pd(16, random.Random(2))
    d = import_pd(code)
    assert workloads.pd_shadow(code) == tuple(sorted(e.darts for e in d.edges))
