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

from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable

from . import _EXPORTS

__all__ = _EXPORTS["gf2"]

# Maps the digits of a mask's binary text to 0/1 bytes.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int, length: int) -> bytes:
    """Byte i is bit i of a nonnegative mask below ``1 << length``."""
    return bin(mask | 1 << length)[:2:-1].encode().translate(_BIT_VALUES)


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending.

    A dense mask's bit flags select from a range in one C-level
    compress, whose cost follows the length.  A mask with fewer set bits
    than one in eight, and fewer than 192, is read by a lowest-bit loop
    instead: its cost follows the set bits, though each step is a pass
    over the mask's digits, which is why the count is capped.
    """
    length = mask.bit_length()
    if mask.bit_count() >= min(length >> 3, 192):
        return list(compress(range(length), bit_flags(mask, length)))
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def mask_of(indices: Iterable[int], count: int) -> int:
    """set_bits inverted, for indices below count: packed bytes, made an int once."""
    packed = bytearray((count + 7) >> 3)
    for i in indices:
        packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


class Frozen:
    """Instances whose attributes, once set in ``__init__``, never change.

    ``__init__`` sets them with ``object.__setattr__``; assigning or
    deleting an attribute afterwards raises AttributeError.  Instances
    compare, hash and print by the attributes their class's ``_fields``
    names, in that order.  They compare as tuples: tuple comparison
    skips items that are the same object, so comparing a value with a
    copy that shares its tables is cheap.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BitVector(Frozen):
    """Vector over GF(2); coordinate j is bit j of ``bits``."""

    _fields = ("length", "bits")

    def __init__(self, length: int, bits: int = 0) -> None:
        if type(length) is not int:
            raise TypeError("vector length must be an int")
        if type(bits) is not int:
            raise TypeError("vector bits must be an int")
        if length < 0:
            raise ValueError("vector length must be nonnegative")
        if bits < 0 or bits >> length:
            raise ValueError("bits set outside declared length")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    def support(self) -> tuple[int, ...]:
        return tuple(set_bits(self.bits))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1] if self.length else ""


class BitMatrix(Frozen):
    """Matrix over GF(2) stored as a tuple of integer masks, one per row.

    ``elimination``, built on first read and kept, is the RREF of the
    rows, row k tagged by bit ``cols + k``: a dict mapping each pivot to
    its reduced row, and the kernel.  A row joins the basis only when
    independent of the rows before it, so every tag lies in that greedy
    basis, the pivot columns of the RREF of the transpose: a target's one
    expression in it is the pivot solution of transpose(m) x = target.
    The kernel holds the dependent rows' tags: row f plus its
    expression, the nullspace vector for free column f.

    Each row is keyed by its lowest set bit below ``cols``: an incoming
    row is reduced by the row holding its low bit until that bit is new
    or nothing below ``cols`` is left, and back-substitution in
    descending pivot order then clears the bits above each pivot.  The
    work follows the nonzeros, not the column count.
    """

    _fields = ("cols", "row_bits")

    def __init__(self, cols: int, row_bits: Iterable[int]) -> None:
        row_bits = tuple(row_bits)
        if type(cols) is not int:
            raise TypeError("matrix cols must be an int")
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        # C-level passes: a set of types (True and 1.0 are no ints), and a
        # union that is negative or too wide exactly when some row is.
        if not {*map(type, row_bits)} <= {int}:
            raise TypeError("matrix row_bits must be ints")
        if reduce(or_, row_bits, 0) >> cols:
            raise ValueError("row bits set outside declared width")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_bits", row_bits)

    @property
    def rows(self) -> int:
        return len(self.row_bits)

    @cached_property
    def elimination(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """(reduced rows by pivot, kernel tags); see the class docstring."""
        width = self.cols
        low = (1 << width) - 1
        basis: dict[int, int] = {}
        kernel = []
        for k, row in enumerate(self.row_bits):
            row |= 1 << (width + k)
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
                kernel.append(row >> width)
        pivot_mask = 0
        for p in sorted(basis, reverse=True):
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
        return basis, tuple(kernel)

    @property
    def rank(self) -> int:
        return len(self.elimination[0])

    @property
    def kernel(self) -> tuple[int, ...]:
        return self.elimination[1]

    def expression(self, target: int, columns: Iterable[int]) -> int | None:
        """Tag bits of the rows summing to target, or None.

        ``columns`` are target's set bits, each once, passed beside the
        mask by a caller that holds both.  A reduced row has no pivot bit
        but its own, so only the target's own columns pick rows; what is
        left below ``cols`` is outside.
        """
        reduced = self.elimination[0]
        rest = target
        for p in columns:
            rest ^= reduced.get(p, 0)
        return None if rest & ((1 << self.cols) - 1) else rest >> self.cols
