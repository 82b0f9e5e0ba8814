"""Linear algebra over the two-element field.

Rows are bit-packed into Python integers (bit j = column j), so row
addition is XOR and elimination works on whole rows at once.  All
operations are pure: inputs are never mutated.  The reduced row
echelon form of a matrix is unique, so its pivots and its reduced rows
do not depend on the order in which elimination takes the rows; only
bits carried beyond the eliminated columns (tracked row operations)
can depend on it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "BitVector",
    "BitMatrix",
    "rank",
    "solve",
    "nullspace_basis",
    "in_rowspace",
]


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class Frozen:
    """Instances whose attributes, once set in ``__init__``, never change.

    ``__init__`` sets them with ``object.__setattr__``; assigning or
    deleting an attribute afterwards raises AttributeError.  Subclasses
    compare tuples of fields: tuple comparison skips items that are the
    same object, so comparing a value with a copy that shares its
    tables is cheap.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BitVector(Frozen):
    """Vector over GF(2); coordinate j is bit j of ``bits``."""

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise ValueError("vector length must be nonnegative")
        if bits < 0 or bits >> length:
            raise ValueError("bits set outside declared length")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.length, self.bits) == (other.length, other.bits)

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(length={self.length!r}, bits={self.bits!r})"

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for v in values:
            if v & 1:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_support(cls, indices: Iterable[int], length: int) -> "BitVector":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise IndexError(f"index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def support(self) -> tuple[int, ...]:
        return tuple(set_bits(self.bits))

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_bits(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))


class BitMatrix(Frozen):
    """Matrix over GF(2) stored as one integer mask per row."""

    def __init__(self, rows: int, cols: int, row_bits: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(row_bits) != rows:
            raise ValueError("row count does not match row data")
        for m in row_bits:
            if m < 0 or m >> cols:
                raise ValueError("row bits set outside declared width")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_bits", row_bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rows, self.cols, self.row_bits)
                == (other.rows, other.cols, other.row_bits))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r}, "
                f"row_bits={self.row_bits!r})")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitMatrix":
        masks = []
        width = None
        for row in rows:
            vec = BitVector.from_bits(row)
            if width is None:
                width = vec.length
            elif vec.length != width:
                raise ValueError("ragged rows")
            masks.append(vec.bits)
        if width is None:
            width = 0
        return cls(len(masks), width, tuple(masks))

    @classmethod
    def from_bitrows(cls, masks: Sequence[int], cols: int) -> "BitMatrix":
        return cls(len(masks), cols, tuple(masks))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_bits[i])

    def transpose(self) -> "BitMatrix":
        out = []
        for j in range(self.cols):
            mask = 0
            for i in range(self.rows):
                if (self.row_bits[i] >> j) & 1:
                    mask |= 1 << i
            out.append(mask)
        return BitMatrix(self.cols, self.rows, tuple(out))

    def mul_vector(self, v: BitVector) -> BitVector:
        if v.length != self.cols:
            raise ValueError("dimension mismatch")
        bits = 0
        for i, m in enumerate(self.row_bits):
            if (m & v.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVector(self.rows, bits)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))


def rref_masks(masks: Iterable[int], cols: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form of integer row masks.

    Returns (pivot_columns, nonzero_reduced_rows, dependent_rows): row i
    has its pivot at pivot_columns[i] and zeros in every other pivot
    column below ``cols``, and the dependent input rows, in input order,
    reduce to nothing there.  Bits at or above ``cols`` are never pivots;
    they are carried along, so they record the row operations.

    Each row is keyed by its lowest set bit below ``cols``: an incoming
    row is reduced by the row holding its low bit until that bit is new
    or nothing below ``cols`` is left, and back-substitution in
    descending pivot order then clears the bits above each pivot.  The
    work follows the nonzeros, not the column count.
    """
    low = (1 << cols) - 1
    basis: dict[int, int] = {}
    dependent = []
    for row in masks:
        key = row & low
        while key:
            p = (key & -key).bit_length() - 1
            other = basis.get(p)
            if other is None:
                basis[p] = row
                break
            row ^= other
            key = row & low
        else:
            dependent.append(row)
    pivots = sorted(basis)
    pivot_mask = 0
    for p in reversed(pivots):
        row = basis[p]
        # Rows above p are already reduced, so each XOR clears one pivot bit
        # and sets none of the others.
        hits = row & pivot_mask
        while hits:
            bit = hits & -hits
            row ^= basis[bit.bit_length() - 1]
            hits ^= bit
        basis[p] = row
        pivot_mask |= 1 << p
    return tuple(pivots), tuple(basis[p] for p in pivots), tuple(dependent)


class RowBasis(NamedTuple):
    """The RREF of a matrix's rows, row k tagged by bit ``width + k``.

    ``rows`` maps each pivot to its reduced row.  A row joins the basis
    only when independent of the rows before it, so every tag lies in
    that greedy basis, the pivot columns of the RREF of transpose(m): a
    target's one expression in it is the pivot solution of
    transpose(m) x = target.  ``kernel`` holds the dependent rows' tags:
    row f plus its expression, the nullspace vector for free column f.
    """

    width: int
    rows: dict[int, int]
    kernel: tuple[int, ...]

    @classmethod
    def of(cls, rows: Iterable[int], width: int) -> "RowBasis":
        tagged = (row | 1 << (width + k) for k, row in enumerate(rows))
        pivots, reduced, dependent = rref_masks(tagged, width)
        return cls(width, dict(zip(pivots, reduced)),
                   tuple(row >> width for row in dependent))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def expression(self, target: int) -> int | None:
        """Tag bits of the rows summing to target, or None.

        A reduced row has no pivot bit but its own, so only the target's
        own bits pick rows; what is left below ``width`` is outside.
        """
        rows = self.rows
        rest = target
        for p in set_bits(target):
            rest ^= rows.get(p, 0)
        return None if rest & ((1 << self.width) - 1) else rest >> self.width


def rank(m: BitMatrix) -> int:
    """Rank of a matrix over GF(2)."""
    return len(rref_masks(m.row_bits, m.cols)[0])


def solve(a: BitMatrix, b: BitVector) -> BitVector | None:
    """One solution x of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the returned solution is the pivot
    solution and is deterministic.
    """
    if b.length != a.rows:
        raise ValueError(f"dimension mismatch: {a.rows} equations, rhs of length {b.length}")
    aug_bit = 1 << a.cols
    work = [a.row_bits[i] | (aug_bit if (b.bits >> i) & 1 else 0) for i in range(a.rows)]
    pivots, reduced, dependent = rref_masks(work, a.cols)
    if any(dependent):  # a row reduced to 0 = 1
        return None
    x = 0
    for p, row in zip(pivots, reduced):
        if row & aug_bit:
            x |= 1 << p
    return BitVector(a.cols, x)


def nullspace_basis(a: BitMatrix) -> list[BitVector]:
    """Deterministic basis of {x : a x = 0}, one vector per free column."""
    pivots, reduced, _ = rref_masks(a.row_bits, a.cols)
    return rref_nullspace(pivots, reduced, a.cols)


def rref_nullspace(pivots: Sequence[int], rows: Sequence[int],
                   cols: int) -> list[BitVector]:
    """The nullspace basis read off an RREF of a matrix with ``cols`` columns.

    One vector per free column below ``cols``; bits of ``rows`` at or
    above ``cols`` are ignored.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for p, row in zip(pivots, rows):
            if (row >> free) & 1:
                bits |= 1 << p
        basis.append(BitVector(cols, bits))
    return basis


def in_rowspace(m: BitMatrix, v: BitVector) -> BitVector | None:
    """Coefficient vector over the rows of m expressing v, or None.

    The coefficients c satisfy sum(c_i * row_i) = v; equivalently this
    solves transpose(m) c = v.
    """
    if v.length != m.cols:
        raise ValueError(f"dimension mismatch: {m.cols} columns, vector of length {v.length}")
    return solve(m.transpose(), v)
