"""GF(2) elimination against brute-force enumeration.

The package's one elimination, ``BitMatrix.elimination``, is checked
against the column-scan dense reference in conftest, and that reference
is checked against enumerating row spans.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (KLEIN_2COMP_CLASSES, KLEIN_2COMP_INCIDENCE,
                      KLEIN_2COMP_RANKS, TORUS_3COMP_CLASSES,
                      TORUS_3COMP_INCIDENCE, TORUS_3COMP_RANKS, as_matrix,
                      brute_rank, dense_in_rowspace, dense_nullspace,
                      dense_rank, dense_rref, dense_solve, mul_vector, ones,
                      reference_set_bits, row_span, transpose)
from regioncc.gf2 import BitMatrix, BitVector, bit_flags, mask_of, set_bits


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1),
                          min_size=rows, max_size=rows))
    return BitMatrix(cols, masks)


@st.composite
def row_masks(draw, max_rows=8, max_cols=8):
    """Rows below ``cols`` of any count, zero rows and repeated rows
    among them."""
    cols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [0] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), cols


@st.composite
def dependent_matrices(draw, max_rows=8, max_cols=8):
    """Matrices with dependent rows: sums of earlier or later rows, zero
    rows among them, inserted anywhere."""
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1,
                         max_size=max_rows))
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.integers(0, (1 << len(rows)) - 1))
        combo = 0
        for i, row in enumerate(rows):
            if (picks >> i) & 1:
                combo ^= row
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return BitMatrix(cols, rows)


class TestBitVector:
    def test_construction_and_access(self):
        v = BitVector(4, 0b1101)
        assert (v.length, v.bits) == (4, 0b1101)
        assert v.support() == (0, 2, 3)
        assert str(v) == "1011"

    def test_width_guard(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)


class TestFrozenExamples:
    def test_worked_example_ranks(self):
        assert dense_rank(as_matrix(TORUS_3COMP_INCIDENCE)) == TORUS_3COMP_RANKS[0]
        assert dense_rank(as_matrix(TORUS_3COMP_CLASSES)) == TORUS_3COMP_RANKS[1]
        assert dense_rank(as_matrix(KLEIN_2COMP_INCIDENCE)) == KLEIN_2COMP_RANKS[0]
        assert dense_rank(as_matrix(KLEIN_2COMP_CLASSES)) == KLEIN_2COMP_RANKS[1]

    def test_solve_hits_a_row_combination(self):
        m = as_matrix(TORUS_3COMP_INCIDENCE)
        a = transpose(m)
        b = BitVector(m.cols, m.row_bits[0] ^ m.row_bits[1])
        x = dense_solve(a, b)
        assert x is not None
        assert mul_vector(a, x) == b

    def test_solve_reports_absence(self):
        m = as_matrix(TORUS_3COMP_INCIDENCE)
        outside = next(bits for bits in range(1 << 6)
                       if bits not in row_span(m.row_bits))
        assert dense_solve(transpose(m), BitVector(6, outside)) is None

    def test_nullspace_dimension(self):
        m = as_matrix(TORUS_3COMP_INCIDENCE)
        basis = dense_nullspace(transpose(m))
        assert len(basis) == 6 - TORUS_3COMP_RANKS[0]
        for v in basis:
            assert mul_vector(transpose(m), v).bits == 0


@settings(max_examples=120, deadline=None)
@given(bit_matrices())
def test_rank_matches_span_size(m):
    assert dense_rank(m) == brute_rank(m)
    assert dense_rank(m) <= min(m.rows, m.cols)
    assert dense_rank(transpose(m)) == dense_rank(m)


@settings(max_examples=120, deadline=None)
@given(bit_matrices(), st.integers(0, (1 << 8) - 1))
def test_solve_agrees_with_column_span(m, seed_bits):
    b = BitVector(m.rows, seed_bits & ((1 << m.rows) - 1))
    x = dense_solve(m, b)
    feasible = b.bits in row_span(transpose(m).row_bits)
    if x is None:
        assert not feasible
    else:
        assert feasible
        assert mul_vector(m, x) == b


@settings(max_examples=120, deadline=None)
@given(bit_matrices())
def test_nullspace_properties(m):
    basis = dense_nullspace(m)
    assert len(basis) == m.cols - dense_rank(m)
    for v in basis:
        assert mul_vector(m, v).bits == 0
    if basis:
        stacked = BitMatrix(m.cols, [v.bits for v in basis])
        assert dense_rank(stacked) == len(basis)


@settings(max_examples=120, deadline=None)
@given(bit_matrices(), st.integers(0, 255))
def test_in_rowspace_recombines(m, picks):
    target = 0
    for i in range(m.rows):
        if (picks >> i) & 1:
            target ^= m.row_bits[i]
    coeffs = dense_in_rowspace(m, BitVector(m.cols, target))
    assert coeffs is not None
    rebuilt = 0
    for i in coeffs.support():
        rebuilt ^= m.row_bits[i]
    assert rebuilt == target


@settings(max_examples=120, deadline=None)
@given(bit_matrices(), st.integers(0, (1 << 8) - 1))
def test_in_rowspace_absence(m, bits):
    v = BitVector(m.cols, bits & ((1 << m.cols) - 1))
    verdict = dense_in_rowspace(m, v) is not None
    assert verdict == (v.bits in row_span(m.row_bits))


def picked(rows, tag: int) -> int:
    """The sum of the rows whose indices the tag's bits name."""
    total = 0
    for k in ones(tag):
        total ^= rows[k]
    return total


@settings(max_examples=300, deadline=None)
@given(row_masks())
def test_row_basis_matches_column_scan(case):
    masks, cols = case
    m = BitMatrix(cols, masks)
    reduced, kernel = m.elimination
    assert kernel is m.kernel and m.rank == len(reduced)
    dense_pivots, dense_rows = dense_rref(masks, cols)
    low = (1 << cols) - 1
    pivots = sorted(reduced)
    assert tuple(pivots) == dense_pivots
    assert tuple(reduced[p] & low for p in pivots) == dense_rows
    # The tags record row operations: each reduced row is the sum of the
    # input rows its tag names, and each kernel tag names rows summing to
    # zero, its own dependent row the highest of them.
    assert all(picked(masks, reduced[p] >> cols) == reduced[p] & low
               for p in pivots)
    assert len(kernel) == len(masks) - len(pivots)
    assert all(picked(masks, tag) == 0 for tag in kernel)
    highest = [tag.bit_length() for tag in kernel]
    assert 0 not in highest and highest == sorted(set(highest))


@settings(max_examples=200, deadline=None)
@given(dependent_matrices(), st.integers(0, (1 << 12) - 1))
def test_row_basis_expression_is_the_dense_pivot_solution(m, picks):
    image = 0
    for i, row in enumerate(m.row_bits):
        if (picks >> i) & 1:
            image ^= row
    for target in (image, picks & ((1 << m.cols) - 1)):
        dense = dense_in_rowspace(m, BitVector(m.cols, target))
        assert m.expression(target, ones(target)) == (None if dense is None else dense.bits)


@settings(max_examples=200, deadline=None)
@given(dependent_matrices())
def test_row_basis_kernel_is_the_dense_nullspace(m):
    assert [BitVector(m.rows, bits) for bits in m.kernel] \
        == dense_nullspace(transpose(m))


@settings(max_examples=200, deadline=None)
@given(dependent_matrices())
def test_row_basis_rank_is_the_dense_rank(m):
    assert m.rank == dense_rank(m)


def test_elimination_is_built_once():
    m = BitMatrix(3, (0b011, 0b110, 0b101))
    assert "elimination" not in vars(m)
    first = m.elimination
    assert m.elimination is first and vars(m)["elimination"] is first
    assert (m.rank, m.kernel) == (2, (0b111,))
    # The cache is no field: equality, hash and repr read the rows alone.
    fresh = BitMatrix(3, (0b011, 0b110, 0b101))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    with pytest.raises(AttributeError):
        m.elimination = None


def _masks_of_every_shape():
    """0, single bits, dense masks, masks past 10**4 bits, and masks on
    both sides of set_bits' switch from compress to the lowest-bit loop."""
    yield 0
    yield from (1 << k for k in (0, 1, 7, 8, 63, 64, 10**4, 3 * 10**4 + 5))
    yield from ((1 << k) - 1 for k in (1, 2, 9, 64, 10**4 + 1))
    rng = random.Random(61)
    for bits in (3, 40, 512, 10**4 + 3, 5 * 10**4):
        yield rng.getrandbits(bits) | 1 << (bits - 1)
        yield 1 << bits | 1  # two bits far apart
    # The loop reads masks with fewer than min(length // 8, 192) set bits.
    for bits in (40, 512, 10**4 + 3):
        limit = min(bits // 8, 192)
        for count in (limit - 1, limit, limit + 1):
            yield 1 << (bits - 1) | sum(1 << i for i in rng.sample(range(bits - 1), count - 1))


def test_set_bits_matches_the_digit_scan():
    for mask in _masks_of_every_shape():
        found = set_bits(mask)
        # A list even for one bit: no scalar slips out for a single index.
        assert type(found) is list
        assert found == reference_set_bits(mask) == ones(mask)
        length = mask.bit_length() + 3
        assert list(bit_flags(mask, length)) == [mask >> i & 1 for i in range(length)]


def test_mask_of_inverts_set_bits():
    for mask in _masks_of_every_shape():
        found = ones(mask)
        count = mask.bit_length() + 5
        assert mask_of(found, count) == mask
        assert mask_of(found + found[:3], count) == mask  # repeats merge


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 300) - 1) | st.integers(0, 255))
def test_set_bits_property(mask):
    assert set_bits(mask) == reference_set_bits(mask)
    assert list(bit_flags(mask, 300)) == [mask >> i & 1 for i in range(300)]
    assert sum(1 << i for i in set_bits(mask)) == mask
