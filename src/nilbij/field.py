"""Exact arithmetic in finite fields GF(p^k).

Elements are plain integers ("codes") in ``[0, q)`` with ``q = p**k``.
The base-p digits ``d_0 .. d_{k-1}`` of a code, little endian, are the
coefficients of the element in the polynomial basis, so code 0 is the
additive identity and code 1 the multiplicative identity.  For prime
fields (``k == 1``) arithmetic is plain mod-p; extension fields reduce
polynomial products modulo a monic irreducible of degree ``k``.

A :class:`FieldSpec` owns the arithmetic down to whole rows: its
``_kernel``, chosen from q with no option, combines, multiplies
and eliminates the rows of :mod:`nilbij.linalg` and
:mod:`nilbij.subspaces`, walks the orbit of a vector under a square
matrix and decides whether that matrix is nilpotent, and
``add``/``mul``/``neg`` read through it.

- GF(2) packs each row into one integer, so a product row is an XOR
  of rows and elimination never scales: at n = 16 about 4 times faster
  than the tables, and level at n = 3.
- 3 <= q <= ``_TABLE_MAX`` looks each entry up in the tables
  ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and ``inv[a]``.
  ``FieldSpec.inv`` does not read ``inv``: it stays square-and-multiply,
  the oracle the table is tested against.
- Larger fields get no table: same-shaped views compute on demand,
  built again on each read of ``_kernel``, so a spec keeps nothing but
  (p, k, poly) and pickles and copies as its fields.

The kernels of the first two kinds are built once per process for each
field (p, k, poly) and shared by every equal spec, so a parsed payload
reads the tables its field already has; see :func:`_tabulated`.

Rows go in and come out as tuples of codes.  Codes do not carry their
field, so mixing fields is detected where specs travel with the data
(vectors, matrices, JSON payloads), not at the element level.

Built-in irreducibles (the standard Conway choices) cover
``q in {4, 8, 9, 16, 25, 27}``; any other extension field needs a
user-supplied polynomial, given as the coefficient list ``c_0 .. c_k``
with ``c_k == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import compress
from operator import xor

from .errors import (
    DivisionByZero,
    NegativeExponent,
    SchemaError,
    _json_fields,
    _json_int,
    _json_seq,
)

__all__ = ["FieldSpec"]

# Lookup tables are only built for fields at most this large; bigger
# fields compute each value on demand (see FieldSpec._kernel).  A table
# costs q² products on the field's first arithmetic, paid once per
# process per field (see _tabulated): GF(2^10) took 33 s on a 2-CPU
# Linux host.  The census grids and the benchmark use q <= 9; the tests
# build tables up to GF(2^6), the largest at this limit, which builds in
# about 50 ms.
_TABLE_MAX = 64

# Conway polynomials, little-endian coefficients c_0 .. c_k.
BUILTIN_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 4, 1),        # x^2 + 4x + 2
}


# Miller-Rabin with the twelve primes up to 37 as bases has no strong
# pseudoprime below _PRIME_LIMIT (Sorenson & Webster 2015), so
# _is_prime is exact there; FieldSpec refuses larger p.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318_665_857_834_031_151_167_461

# Extension fields must have q = p^k < 2^_Q_BITS.  Rabin's test costs
# about k³ digit operations, so an unbounded k lets one payload line
# stall: x^400 + x + 1 over GF(2) took 7 s on a 2-CPU Linux host.  Below
# 2^128, dense polynomials of GF(2^127), GF(3^80) and GF(5^55) take at
# most 0.2 s there, and 128 bits is far beyond any field a census can
# walk.  Prime fields never reach the cap, since _PRIME_LIMIT < 2^79.
_Q_BITS = 128


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < _PRIME_LIMIT."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _OnDemand:
    """``view[x]`` is ``op(x)``: a table-shaped view of a field operation,
    for fields too large to tabulate."""

    __slots__ = ("_op",)

    def __init__(self, op) -> None:
        self._op = op

    def __getitem__(self, x):
        return self._op(x)


class _Rows:
    """A row kernel over ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and
    ``inv[a]``, tables or on-demand views; ``inv[0]`` is never read."""

    def __init__(self, add, mul, neg, inv) -> None:
        self.add, self.mul, self.neg, self.inv = add, mul, neg, inv

    def combine(self, coeffs, rows, start) -> tuple[int, ...]:
        """start + sum of coeffs[i] * rows[i], entrywise; zero
        coefficients are skipped."""
        add, mul = self.add, self.mul
        acc = start
        for c, row in zip(coeffs, rows):
            if c:
                srow = mul[c]
                acc = [add[x][srow[y]] for x, y in zip(acc, row)]
        return tuple(acc)

    def product(self, a, b, cols: int) -> tuple[tuple[int, ...], ...]:
        """Row-major AB, B with ``cols`` columns: each row of AB is a
        combination of the rows of B."""
        zero = (0,) * cols
        return tuple(self.combine(arow, b, zero) for arow in a)

    def orbit(self, rows, x) -> tuple[tuple[int, ...], ...]:
        """(x, Tx, T²x, ...) for the n x n matrix ``rows``, up to the
        first zero and at most n vectors, so a T that is not nilpotent
        cannot make it loop.  T is transposed once, and each step
        combines its columns weighted by the last vector."""
        cols, zero = tuple(zip(*rows)), (0,) * len(rows)
        out: list[tuple[int, ...]] = []
        while any(x) and len(out) < len(rows):
            out.append(x)
            x = self.combine(x, cols, zero)
        return tuple(out)

    def nilpotent(self, rows, n: int) -> bool:
        """Whether the n x n matrix ``rows`` has T**n = 0; a nilpotent on
        dimension n has index <= n.

        Squares T until the power is zero or T**e with e >= n is not.
        Before each product it sums the diagonal of T**e and rejects a
        nonzero trace: a power of a nilpotent is nilpotent, and a
        nilpotent has trace 0 in every characteristic.  A zero trace
        never accepts (every power of I_2 over GF(2) has trace 0)."""
        add = self.add
        e = 1
        while any(map(any, rows)):
            trace = 0
            for i, row in enumerate(rows):
                trace = add[trace][row[i]]
            if trace or e >= n:
                return False
            rows = self.product(rows, rows, n)
            e *= 2
        return True

    def rref(self, rows, cols: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The RREF of ``rows`` and its pivot columns, by the row
        operation ``row + (-f) * pivot_row``."""
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        rows = list(rows)
        m = len(rows)
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == m:
                break
            pr = next((i for i in range(r, m) if rows[i][c]), None)
            if pr is None:
                continue
            prow = rows[pr]
            rows[pr] = rows[r]
            pv = prow[c]
            if pv != 1:
                srow = mul[inv[pv]]
                prow = tuple([srow[x] for x in prow])
            rows[r] = prow
            for i in range(m):
                f = rows[i][c]
                if f and i != r:
                    srow = mul[neg[f]]
                    rows[i] = tuple([add[x][srow[y]] for x, y in zip(rows[i], prow)])
            pivots.append(c)
            r += 1
        return tuple(rows), tuple(pivots)


class _PackedGF2(_Rows):
    """The GF(2) kernel: each row packs into one integer, one byte per
    0/1 entry, first entry most significant, converted in C by ``bytes``
    and ``int.from_bytes``.  Only over GF(2) is adding codes the XOR of
    their bytes.  Every pivot is 1, so elimination tests the pivot's bit
    and clears its column by XOR.  ``nilpotent`` is inherited: it squares
    through this ``product``."""

    def product(self, a, b, cols: int) -> tuple[tuple[int, ...], ...]:
        packed = [int.from_bytes(bytes(row), "big") for row in b]
        return tuple(tuple(reduce(xor, compress(packed, arow), 0).to_bytes(cols, "big"))
                     for arow in a)

    def rref(self, rows, cols: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        packed = [int.from_bytes(bytes(row), "big") for row in rows]
        m = len(packed)
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == m:
                break
            bit = 1 << 8 * (cols - 1 - c)
            for pr in range(r, m):
                if packed[pr] & bit:
                    break
            else:
                continue
            prow = packed[pr]
            packed[pr] = packed[r]
            packed[r] = prow
            for i in range(m):
                if i != r and packed[i] & bit:
                    packed[i] ^= prow
            pivots.append(c)
            r += 1
        return tuple(tuple(x.to_bytes(cols, "big")) for x in packed), tuple(pivots)


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    """Drop leading (high-degree) zero coefficients."""
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    r = list(a)
    dm = len(m) - 1
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] % p
        if c:
            for j in range(dm + 1):
                r[i - dm + j] = (r[i - dm + j] - c * m[j]) % p
    return _poly_trim(tuple(x % p for x in r[:dm]))


def _poly_sub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _poly_trim(tuple((x - y) % p for x, y in zip(a, b)))


def _poly_powmod(
    a: tuple[int, ...], e: int, m: tuple[int, ...], p: int
) -> tuple[int, ...]:
    """a**e modulo the monic polynomial m, by square-and-multiply."""
    out: tuple[int, ...] = (1,)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        e >>= 1
        if e:
            a = _poly_mod(_poly_mul(a, a, p), m, p)
    return out


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """A greatest common divisor over GF(p), by Euclid's algorithm."""
    while b:
        lead = pow(b[-1], p - 2, p)
        b = tuple(c * lead % p for c in b)  # monic, so _poly_mod applies
        a, b = b, _poly_mod(a, b, p)
    return a


def _prime_factors(k: int) -> list[int]:
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return out + [k] if k > 1 else out


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's test (1980) for a monic poly f of degree k over GF(p).

    f is irreducible iff x^(p^k) = x mod f and, for each prime d | k,
    gcd(x^(p^(k/d)) - x, f) = 1.  The powers are p-th powers taken k
    times in turn, so the cost is polynomial in k and log p.
    """
    k = len(poly) - 1
    x = _poly_mod((0, 1), poly, p)
    frobenius = [x]  # frobenius[j] = x^(p^j) mod f
    for _ in range(k):
        frobenius.append(_poly_powmod(frobenius[-1], p, poly, p))
    if frobenius[k] != x:
        return False
    return all(
        len(_poly_gcd(poly, _poly_sub(frobenius[k // d], x, p), p)) == 1
        for d in _prime_factors(k)
    )


@dataclass(frozen=True)
class FieldSpec:
    """The finite field GF(p^k).

    Parameters
    ----------
    p : prime characteristic.
    k : extension degree, >= 1.
    poly : monic irreducible of degree k over GF(p) as coefficients
        ``c_0 .. c_k``; must be None for k == 1, and may be None for
        k > 1 when ``(p, k)`` is in the built-in table.
    """

    p: int
    k: int = 1
    poly: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _json_int(self.p, "p", 2, _PRIME_LIMIT - 1)
        _json_int(self.k, "k", 1, _Q_BITS - 1)  # p >= 2, so q < 2^_Q_BITS needs k < _Q_BITS
        if not _is_prime(self.p):
            raise SchemaError(f"p = {self.p} is not prime")
        if self.k == 1:
            if self.poly is not None:
                raise SchemaError("prime fields take no reduction polynomial")
            return
        if self.p**self.k >> _Q_BITS:
            raise SchemaError(f"GF({self.p}^{self.k}) is too large; q must be < 2^{_Q_BITS}")
        poly = self.poly
        if poly is None:
            poly = BUILTIN_POLYS.get((self.p, self.k))
            if poly is None:
                raise SchemaError(
                    f"no built-in irreducible for GF({self.p}^{self.k}); supply poly"
                )
        poly = tuple(_json_int(c, "poly coefficient", 0, self.p - 1)
                     for c in _json_seq(poly, "poly"))
        if len(poly) != self.k + 1 or poly[-1] != 1:
            raise SchemaError(f"poly must be monic of degree {self.k}: {poly}")
        if not _is_irreducible(poly, self.p):
            raise SchemaError(f"poly {poly} is reducible over GF({self.p})")
        object.__setattr__(self, "poly", poly)

    @property
    def q(self) -> int:
        """Number of field elements, p**k."""
        return self.p**self.k

    # -- code <-> digit conversion ------------------------------------

    def digits(self, code: int) -> tuple[int, ...]:
        """Little-endian base-p digits of a code (length k)."""
        return self._digits(self._element(code))

    def code(self, digits: tuple[int, ...]) -> int:
        """The code of exactly k base-p digits, little endian."""
        digits = _json_seq(digits, "digits")
        if len(digits) != self.k:
            raise SchemaError(f"digits must have exactly {self.k} entries")
        return self._code(tuple(_json_int(d, "digit", 0, self.p - 1) for d in digits))

    def _element(self, a: int) -> int:
        """A code of this field, read by ``_json_int``: an integer in
        [0, q - 1]."""
        return _json_int(a, "field element", 0, self.q - 1)

    def _digits(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(code % p)
            code //= p
        return tuple(out)

    def _code(self, digits: tuple[int, ...]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    # -- arithmetic ----------------------------------------------------

    def _add_direct(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code(tuple((x + y) % self.p for x, y in zip(da, db)))

    def _mul_direct(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        rem = _poly_mod(prod, self.poly, self.p)  # type: ignore[arg-type]
        return self._code(rem + (0,) * (self.k - len(rem)))

    def _neg_direct(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._code(tuple((-d) % self.p for d in self._digits(a)))

    @property
    def _kernel(self) -> _Rows:
        """The row kernel, chosen from q on each read: packed rows for
        GF(2) and lookup tables up to ``_TABLE_MAX``, both the one kernel
        that :func:`_tabulated` keeps per field; past it, views that
        compute each value on demand, built again on each read.  The spec
        keeps nothing but its fields."""
        if self.q <= _TABLE_MAX:
            return _tabulated(self)
        return _Rows(
            _OnDemand(lambda a: _OnDemand(partial(self._add_direct, a))),
            _OnDemand(lambda a: _OnDemand(partial(self._mul_direct, a))),
            _OnDemand(self._neg_direct),
            _OnDemand(self.inv),
        )

    def add(self, a: int, b: int) -> int:
        return self._kernel.add[self._element(a)][self._element(b)]

    def mul(self, a: int, b: int) -> int:
        return self._kernel.mul[self._element(a)][self._element(b)]

    def neg(self, a: int) -> int:
        return self._kernel.neg[self._element(a)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero."""
        if self._element(a) == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; pow(a, 0) == 1 for every a."""
        base = self._element(a)
        _json_int(e, "exponent", 0, error=NegativeExponent)
        mul = self._kernel.mul
        out = 1
        while e:
            if e & 1:
                out = mul[out][base]
            base = mul[base][base]
            e >>= 1
        return out

    def elements(self) -> range:
        """All element codes, ascending: 0 .. q-1."""
        return range(self.q)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> dict:
        if self.k == 1:
            return {"p": self.p, "k": self.k}
        return {"p": self.p, "k": self.k, "poly": list(self.poly)}  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, obj: object) -> "FieldSpec":
        (p,) = _json_fields(obj, "field spec", "p")
        return cls(p, obj.get("k", 1), obj.get("poly"))  # type: ignore[union-attr]


@cache
def _tabulated(spec: FieldSpec) -> _Rows:
    """The kernel of a field with q <= ``_TABLE_MAX``, built once per
    process and shared by every spec equal to ``spec``.

    The key is the field's value (p, k, poly), so the specs of every
    parsed payload over one field read one set of tables.  No size bound
    is needed: exactly 81 fields have q <= 64 (18 primes and 63
    irreducibles), while fields past the limit, unbounded in number,
    never enter.  The inverse of a != 0 is where row a of the product
    table holds 1.  A test that patches ``_add_direct``, ``_mul_direct``
    or ``_neg_direct`` must call ``_tabulated.cache_clear()``, or fields
    already built keep their tables and the patch is silently ignored.
    """
    q = spec.q
    mul = tuple(tuple(spec._mul_direct(a, b) for b in range(q)) for a in range(q))
    return (_PackedGF2 if q == 2 else _Rows)(
        tuple(tuple(spec._add_direct(a, b) for b in range(q)) for a in range(q)),
        mul,
        tuple(spec._neg_direct(a) for a in range(q)),
        (0,) + tuple(row.index(1) for row in mul[1:]),
    )
