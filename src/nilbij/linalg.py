"""Exact dense linear algebra over a finite field.

Vectors and matrices store element codes (see :mod:`nilbij.field`) in
immutable tuples, so they hash and compare structurally; all operations
are pure.  An operator on F_q^n is an n x n matrix acting on column
vectors, ``(Tx)_i = sum_j T[i][j] * x_j``.  The 0 x 0 matrix is a valid
operator (on the zero space) and is treated as both nilpotent and
invertible.

The public constructors and ``from_json`` validate everything: shape,
entry type (integers only, never bool, float or str) and entry range,
each slot read by the readers of :mod:`nilbij.errors`; an integer slot
and its range are read together by ``_json_int``, so a size or code
past its bounds is refused without its value in the message.
Values the library derives from already-valid operands are built by
``errors._trusted(Matrix, spec, rows, cols, data)`` and
``_trusted(Vector, spec, entries)``, which skip those checks; a broken
internal invariant is never reported as a :class:`SchemaError`: it
surfaces as the ``NilbijError`` of a check that the broken value fails
downstream, or, in a census walk, as that input's failure.  Library code reads the columns of a matrix it
holds by indexing ``data``; ``Matrix.column`` is the public reader, and
checks its index.

All arithmetic on entries runs through the field's row kernel,
``FieldSpec._kernel`` (see :mod:`nilbij.field`), which the field chose
from q: products, ``apply`` (the combination of T's columns weighted
by x), ``mat_pow`` and the stable power call its ``product``, ``rref``
its ``rref``, and the nilpotency test its ``nilpotent``.  The orbit
(x, Tx, T²x, ...) that the bijection walks is one call of its
``orbit``, which reads T's columns once where ``apply`` reads them per
vector.  Two row-level steps serve both the values here and the row
cores of :mod:`nilbij.subspaces` and :mod:`nilbij.fitting`, through
which the bijection runs without building an intermediate value:
:func:`_inverse_rows`, the inversion behind ``mat_inv``, and
:func:`_null_rows`, the canonical kernel basis of an RREF behind
``kernel_basis``.

A ``Matrix`` holds its four fields and nothing else.  Each fact about
it is computed where it is asked for: ``rank``, ``kernel_basis`` and
``image_basis`` by one elimination in the row kernel, ``mat_inv`` by one
:func:`_inverse_rows` and ``is_nilpotent`` by the kernel's
``nilpotent``.  The stable power T**m, m the least power of two >= n,
is a row-level step too: :func:`_stable_power` squares T's rows in the
row kernel, for the Fitting core, ``bijection._inverse`` and the
census, which read its image; :func:`mat_pow` stays the public
square-and-multiply.  Nothing is cached, so the callers do not ask
twice: the census decides each operator's nilpotency once, by its own
walk, and the bijection proves nothing it has just built.

Nilpotency is decided by the row kernel, on the rows alone, so the
census decides it without building a ``Matrix``.  The kernel
squares, and sums each power's trace before the next product: a
nonzero trace rejects at once, which is exact because a power of a
nilpotent is nilpotent and a nilpotent has trace 0 in every
characteristic.  A zero trace never accepts; the zero power or the
bound e >= n decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NegativeExponent,
    NonSquare,
    NotInvertible,
    SchemaError,
    _json_fields,
    _json_int,
    _json_seq,
    _trusted,
)
from .field import FieldSpec

__all__ = [
    "Matrix",
    "Vector",
    "apply",
    "image_basis",
    "is_invertible",
    "is_nilpotent",
    "kernel_basis",
    "mat_inv",
    "mat_mul",
    "mat_pow",
    "rank",
    "rref",
]

# The largest size that Matrix.zero, Matrix.identity, Vector.zero, a
# census n and a vertex count (Tree, EndoFunction, all_endofunctions) are
# read with, through errors._json_int.  A larger size names nothing a
# machine could hold (an identity of that order has over 2^40 entries, and
# so many vertices have more functions than any enumeration reaches), so
# it is refused before any row or table is built; and below it the n²
# that a BudgetExceeded names stays short enough to format.  A Matrix or
# Subspace built from data takes any size its data has: a 0 x 10^12
# matrix holds no entry.
_SIZE_MAX = 1 << 20


@dataclass(frozen=True)
class Vector:
    """Column vector in F_q^n; entries are element codes."""

    spec: FieldSpec
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = _json_seq(self.entries, "vector entries")
        object.__setattr__(self, "entries", entries)
        _check_codes(entries, self.spec.q, "vector entry")

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "Vector":
        return cls(spec, (0,) * _json_int(n, "vector length", 0, _SIZE_MAX))

    def to_json(self) -> dict:
        return {"field": self.spec.to_json(), "entries": list(self.entries)}

    @classmethod
    def from_json(cls, obj: object) -> "Vector":
        field, entries = _json_fields(obj, "vector", "field", "entries")
        return cls(FieldSpec.from_json(field), entries)


@dataclass(frozen=True)
class Matrix:
    """r x c matrix of element codes, row-major."""

    spec: FieldSpec
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows, cols = _json_int(self.rows, "rows", 0), _json_int(self.cols, "cols", 0)
        data = tuple(_json_seq(row, "matrix row") for row in _json_seq(self.data, "matrix data"))
        object.__setattr__(self, "data", data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise SchemaError("matrix data shape does not match its rows and cols")
        q = self.spec.q
        for row in data:
            _check_codes(row, q, "matrix entry")

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "Matrix":
        data = tuple(_json_seq(row, "matrix row") for row in _json_seq(rows, "matrix rows"))
        return cls(spec, len(data), len(data[0]) if data else 0, data)

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> "Matrix":
        row = (0,) * _json_int(cols, "cols", 0, _SIZE_MAX)
        return cls(spec, rows, cols, (row,) * _json_int(rows, "rows", 0, _SIZE_MAX))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(spec, n, n, _identity_rows(_json_int(n, "matrix order", 0, _SIZE_MAX)))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[int, ...]:
        j = _json_int(j, "column", 0, self.cols - 1)
        return tuple(row[j] for row in self.data)

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "data": [list(row) for row in self.data],
        }

    @classmethod
    def from_json(cls, obj: object) -> "Matrix":
        field, rows, cols, data = _json_fields(obj, "matrix", "field", "rows", "cols", "data")
        return cls(FieldSpec.from_json(field), rows, cols, data)


def _check_codes(values: tuple, q: int, what: str) -> None:
    """Each value is an integer code in [0, q - 1]; see :func:`_json_int`."""
    hi = q - 1
    for x in values:
        _json_int(x, what, 0, hi)


def _unit_row(n: int, j: int) -> tuple[int, ...]:
    """The j-th standard basis vector of F^n, as a row of codes."""
    return (0,) * j + (1,) + (0,) * (n - 1 - j)


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_unit_row(n, j) for j in range(n))


def _inverse_rows(kernel, rows, n: int) -> tuple[tuple[tuple[int, ...], ...] | None, int]:
    """The inverse of the n x n matrix ``rows``, None when it is
    singular, and its rank: the pivots of [T | I] that fall among T's
    columns, by one elimination in the field's row kernel."""
    reduced, pivots = kernel.rref(
        tuple(row + irow for row, irow in zip(rows, _identity_rows(n))), 2 * n
    )
    if pivots != tuple(range(n)):
        return None, sum(1 for c in pivots if c < n)
    return tuple(row[n:] for row in reduced), n


def _null_rows(neg, rows, pivots, cols: int) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the right kernel of the RREF ``rows`` with
    these pivots, one row per free column in ascending order: the free
    coordinate is 1, the other free coordinates 0, and each pivot
    coordinate minus the RREF entry in the free column."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f not in pivot_set:
            x = [0] * cols
            x[f] = 1
            for row, p in zip(rows, pivots):
                x[p] = neg[row[f]]
            basis.append(tuple(x))
    return tuple(basis)


def _require_same_spec(a: FieldSpec, b: FieldSpec) -> None:
    if a is not b and a != b:
        raise FieldMismatch(f"operands live in different fields: {a} vs {b}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product."""
    _require_same_spec(a.spec, b.spec)
    if a.cols != b.rows:
        raise DimensionMismatch("cannot multiply: the left columns do not match the right rows")
    return _trusted(Matrix, a.spec, a.rows, b.cols, a.spec._kernel.product(a.data, b.data, b.cols))


def apply(t: Matrix, x: Vector) -> Vector:
    """The column vector T x."""
    _require_same_spec(t.spec, x.spec)
    if t.cols != x.n:
        raise DimensionMismatch("vector length does not match the matrix columns")
    # Tx as a row vector: the combination of T's columns weighted by x.
    (tx,) = t.spec._kernel.product((x.entries,), tuple(zip(*t.data)), t.rows)
    return _trusted(Vector, t.spec, tx)


def mat_pow(t: Matrix, e: int) -> Matrix:
    """T**e by repeated squaring; T**0 is the identity."""
    if not t.is_square():
        raise NonSquare("mat_pow needs a square matrix")
    _json_int(e, "exponent", 0, error=NegativeExponent)
    spec, n = t.spec, t.rows
    result = None
    base = t.data
    while e:
        if e & 1:
            result = base if result is None else spec._kernel.product(result, base, n)
        e >>= 1
        if e:
            base = spec._kernel.product(base, base, n)
    return _trusted(Matrix, spec, n, n, _identity_rows(n) if result is None else result)


def _stable_power(kernel, rows):
    """T**m for the rows of a square n x n matrix, m the least power of
    two >= n, by squaring j = ceil(log2 n) times in the row kernel.  The
    image and kernel chains of T have stabilized by step n, so
    im(T**m) = im(T**n) and ker(T**m) = ker(T**n)."""
    for _ in range(max(len(rows) - 1, 0).bit_length()):
        rows = kernel.product(rows, rows, len(rows))
    return rows


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns:
        (R, pivots): R is the unique RREF of ``a`` (leading entries 1,
        pivot columns elsewhere 0, zero rows last) and ``pivots`` lists
        the pivot column indices in ascending order.
    """
    data, pivots = a.spec._kernel.rref(a.data, a.cols)
    return _trusted(Matrix, a.spec, a.rows, a.cols, data), pivots


def rank(a: Matrix) -> int:
    return len(a.spec._kernel.rref(a.data, a.cols)[1])


def kernel_basis(a: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel {x : Ax = 0}.

    One basis vector per free column of the RREF, in ascending
    free-column order: the free coordinate is set to 1, the other free
    coordinates to 0, and each pivot coordinate to minus the RREF entry
    in the free column.
    """
    kernel = a.spec._kernel
    data, pivots = kernel.rref(a.data, a.cols)
    return [_trusted(Vector, a.spec, x) for x in _null_rows(kernel.neg, data, pivots, a.cols)]


def image_basis(a: Matrix) -> list[Vector]:
    """Columns of ``a`` at the pivot positions of its RREF, ascending."""
    pivots = a.spec._kernel.rref(a.data, a.cols)[1]
    return [_trusted(Vector, a.spec, tuple([row[c] for row in a.data])) for c in pivots]


def is_invertible(t: Matrix) -> bool:
    if not t.is_square():
        raise NonSquare("invertibility needs a square matrix")
    return rank(t) == t.rows


def is_nilpotent(t: Matrix) -> bool:
    """Whether T**n = 0; a nilpotent on dimension n has index <= n.

    A nonzero trace of T or of any power of it decides False before
    the next squaring, since a nilpotent and all its powers have trace
    0; a zero trace never decides True."""
    if not t.is_square():
        raise NonSquare("nilpotency needs a square matrix")
    return t.spec._kernel.nilpotent(t.data, t.rows)


def mat_inv(t: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on the augmented matrix [T | I]."""
    if not t.is_square():
        raise NonSquare("inverse needs a square matrix")
    inv, r = _inverse_rows(t.spec._kernel, t.data, t.rows)
    if inv is None:
        raise NotInvertible(f"matrix of rank {r} < {t.rows} has no inverse")
    return _trusted(Matrix, t.spec, t.rows, t.rows, inv)
