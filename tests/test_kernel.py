"""Differential tests for the row kernels of ``FieldSpec._kernel``.

The references below are the per-entry algorithms the kernels replaced:
every entry goes through ``FieldSpec.add``/``sub``/``mul``/``inv`` one
at a time, so they share the field's arithmetic with the kernel but
none of its row code, and ``FieldSpec.inv`` squares and multiplies
where the kernel reads its ``inv`` table; the GF(2) product sums in
integers mod 2 and shares nothing.  Each kernel must agree with them
exactly, on every small matrix and on sampled ones, including a field
too large to tabulate (GF(4099)), and with sympy's RREF over prime
fields.  GF(2) packs its rows, so it is also sampled up to 20 x 20,
where a row spans several machine words."""

import signal
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, GF4, all_matrices
from nilbij import (
    FieldSpec,
    Matrix,
    NotInvertible,
    Vector,
    apply,
    degree,
    is_nilpotent,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_pow,
    rref,
)
from nilbij.field import _PackedGF2, _Rows, _tabulated

GF9 = FieldSpec(3, 2)
GF4099 = FieldSpec(4099)  # q > _TABLE_MAX: the on-demand path
GF67 = FieldSpec(67)  # the smallest prime past _TABLE_MAX
GF128 = FieldSpec(2, 7, (1, 1, 0, 0, 0, 0, 0, 1))  # x^7 + x + 1, past _TABLE_MAX
GF64 = FieldSpec(2, 6, (1, 1, 0, 0, 0, 0, 1))  # x^6 + x + 1, the largest table


def ref_rref(spec, data, cols):
    rows = [list(row) for row in data]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            ipv = spec.inv(pv)
            rows[r] = [spec.mul(ipv, x) for x in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def ref_mul(spec, a, b, cols):
    if spec == GF2:
        # the same sums in integer arithmetic mod 2, with no field tables:
        # a cheap shrink step for the cases up to 20 x 20
        bcols = list(zip(*b)) if b else [()] * cols
        return tuple(tuple(sum(map(mul, arow, col)) % 2 for col in bcols) for arow in a)
    out = []
    for arow in a:
        orow = []
        for j in range(cols):
            s = 0
            for x, brow in zip(arow, b):
                s = spec.add(s, spec.mul(x, brow[j]))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def ref_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def ref_apply(spec, data, x):
    return tuple(row[0] for row in ref_mul(spec, data, tuple((c,) for c in x), 1))


def ref_inv(spec, data, n):
    r, pivots = ref_rref(spec, tuple(a + b for a, b in zip(data, ref_identity(n))), 2 * n)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in r)


def ref_kernel(spec, data, cols):
    r, pivots = ref_rref(spec, data, cols)
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        x = [0] * cols
        x[f] = 1
        for i, p in enumerate(pivots):
            x[p] = spec.neg(r[i][f])
        out.append(tuple(x))
    return out


def check_against_reference(m: Matrix, other: Matrix, x: Vector) -> None:
    """Every kernel entry point on m agrees with the per-entry reference;
    ``other`` has m.cols rows and ``x`` has m.cols entries."""
    spec = m.spec
    r, pivots = rref(m)
    assert (r.data, pivots) == ref_rref(spec, m.data, m.cols)
    prod = mat_mul(m, other)
    assert (prod.rows, prod.cols) == (m.rows, other.cols)
    assert prod.data == ref_mul(spec, m.data, other.data, other.cols)
    assert apply(m, x).entries == ref_apply(spec, m.data, x.entries)
    assert [k.entries for k in kernel_basis(m)] == ref_kernel(spec, m.data, m.cols)
    if m.rows != m.cols:
        return
    power = ref_identity(m.rows)
    for e in range(5):
        if e:  # T**e from T**(e-1): four reference products in all
            power = ref_mul(spec, power, m.data, m.rows)
        assert mat_pow(m, e).data == power
    expected = ref_inv(spec, m.data, m.rows)
    if expected is None:
        with pytest.raises(NotInvertible):
            mat_inv(m)
    else:
        assert mat_inv(m).data == expected


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=["q2-n3", "q3-n2"])
def test_kernel_matches_reference_exhaustive(spec, n):
    ms = all_matrices(spec, n, n)
    partners = ms[:: max(1, len(ms) // 16)]
    vectors = [Vector(spec, t) for t in product(range(spec.q), repeat=n)]
    for i, m in enumerate(ms):
        check_against_reference(m, partners[i % len(partners)], vectors[i % len(vectors)])
    if spec == GF3:  # every pair of 2x2 operators over GF(3)
        for a, b in product(ms, repeat=2):
            assert mat_mul(a, b).data == ref_mul(spec, a.data, b.data, n)


def _matrix_strategy(spec, rows, cols):
    if spec == GF2:
        # one block of bytes, an entry per low bit: a failing 16 x 16 case
        # shrinks in seconds, where one draw per entry ran into
        # hypothesis's five-minute cap
        return st.binary(min_size=rows * cols, max_size=rows * cols).map(
            lambda b: Matrix(GF2, rows, cols, tuple(
                tuple(x & 1 for x in b[i * cols:(i + 1) * cols]) for i in range(rows))))
    return st.lists(
        st.tuples(*[st.integers(0, spec.q - 1)] * cols), min_size=rows, max_size=rows
    ).map(lambda data: Matrix(spec, rows, cols, tuple(data)))


@st.composite
def kernel_cases(draw):
    spec = draw(st.sampled_from([GF2, GF3, GF4, GF9, GF4099]))
    rows, cols, other_cols = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        cols = rows  # square often enough for mat_pow and mat_inv
    m = draw(_matrix_strategy(spec, rows, cols))
    other = draw(_matrix_strategy(spec, cols, other_cols))
    x = Vector(spec, draw(st.tuples(*[st.integers(0, spec.q - 1)] * cols)))
    return m, other, x


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_matches_reference_sampled(case):
    check_against_reference(*case)


@st.composite
def gf2_cases(draw):
    """GF(2) operands up to 20 x 20: empty and non-square shapes, and
    products L R of inner width k, so low ranks, long kernels and
    singular squares come up as often as full-rank ones."""
    rows, cols, other_cols = (draw(st.integers(0, 20)) for _ in range(3))
    if draw(st.booleans()):
        cols = rows
    m = draw(_matrix_strategy(GF2, rows, cols))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        left = draw(_matrix_strategy(GF2, rows, k))
        right = draw(_matrix_strategy(GF2, k, cols))
        m = Matrix(GF2, rows, cols, ref_mul(GF2, left.data, right.data, cols))
    other = draw(_matrix_strategy(GF2, cols, other_cols))
    x = Vector(GF2, draw(st.tuples(*[st.integers(0, 1)] * cols)))
    return m, other, x


@settings(max_examples=150, deadline=None)
@given(gf2_cases())
def test_gf2_kernel_matches_reference_up_to_20(case):
    check_against_reference(*case)


def ref_is_nilpotent(spec, data, n):
    """T**n = 0, by squaring with the per-entry product: the index of a
    nilpotent is at most n, so T**(2**j) with 2**j >= n decides."""
    e = 1
    while e < n:
        data = ref_mul(spec, data, data, n)
        e *= 2
    return not any(map(any, data))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([GF2, GF3, GF9, GF67, GF128]), st.data())
def test_nilpotent_matches_reference_power(spec, data):
    """``_Rows.nilpotent`` and ``is_nilpotent``, which asks it on the
    matrix's rows, on each kind of kernel: packed GF(2), tables, and
    on-demand views over a prime and over an extension field."""
    n = data.draw(st.integers(8, 16) if spec == GF2 else st.integers(1, 6))

    def check(t_data):
        expected = ref_is_nilpotent(spec, t_data, n)
        assert spec._kernel.nilpotent(t_data, n) == expected
        assert is_nilpotent(Matrix(spec, n, n, t_data)) == expected
        return expected

    m = data.draw(_matrix_strategy(spec, n, n))
    check(m.data)
    # the same matrix with its last diagonal entry set for trace 0
    rows = [list(row) for row in m.data]
    trace = 0
    for i in range(n - 1):
        trace = spec.add(trace, rows[i][i])
    rows[-1][-1] = spec.neg(trace)
    check(tuple(map(tuple, rows)))
    # P N P⁻¹ with N strictly lower triangular is nilpotent
    p = data.draw(_matrix_strategy(spec, n, n))
    p_inv = ref_inv(spec, p.data, n)
    assume(p_inv is not None)
    strict = data.draw(_matrix_strategy(spec, n, n))
    strict = tuple(tuple(x if j < i else 0 for j, x in enumerate(row))
                   for i, row in enumerate(strict.data))
    assert check(ref_mul(spec, ref_mul(spec, p.data, strict, n), p_inv, n))


def ref_orbit(spec, data, x):
    """(x, Tx, T²x, ...) up to the first zero, one ``ref_apply`` per
    step; T must be nilpotent, or this never ends."""
    out = []
    while any(x):
        out.append(x)
        x = ref_apply(spec, data, x)
    return tuple(out)


def _unit_triangular(data, lower):
    """``data`` with 1 on the diagonal and 0 on the other side of it."""
    return tuple(tuple(1 if i == j else x if (j < i) == lower else 0
                       for j, x in enumerate(row)) for i, row in enumerate(data))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF2, GF3, GF9, GF4099, GF128]), st.data())
def test_orbit_matches_reference(spec, data):
    """``_Rows.orbit`` and ``degree`` on each kind of kernel: packed
    GF(2) up to n = 64, where a row spans several machine words, tables,
    and on-demand views over a prime and over an extension field."""
    n = data.draw(st.integers(1, 64) if spec == GF2 else st.integers(1, 6))
    code = st.integers(0, spec.q - 1)

    def draw():
        return data.draw(_matrix_strategy(spec, n, n)).data

    def check(t_data, x):
        expected = ref_orbit(spec, t_data, x)
        assert spec._kernel.orbit(t_data, x) == expected
        assert degree(Matrix(spec, n, n, t_data), Vector(spec, x)) == len(expected) <= n
        return len(expected)

    # the shift e_j -> e_(j+1) walks e_1 through every unit vector
    shift = tuple(tuple(int(i == j + 1) for j in range(n)) for i in range(n))
    assert check(shift, (1,) + (0,) * (n - 1)) == n
    # P N P⁻¹, N strictly lower triangular and P = L U invertible
    p = Matrix(spec, n, n, ref_mul(spec, _unit_triangular(draw(), True),
                                   _unit_triangular(draw(), False), n))
    strict = tuple(tuple(x if j < i else 0 for j, x in enumerate(row))
                   for i, row in enumerate(draw()))
    t = ref_mul(spec, ref_mul(spec, p.data, strict, n), mat_inv(p).data, n)
    check(t, data.draw(st.tuples(*[code] * n)))
    assert check(t, (0,) * n) == 0
    (in_kernel, *_) = kernel_basis(Matrix(spec, n, n, t))  # a nilpotent is singular
    assert check(t, in_kernel.entries) == 1


@pytest.mark.parametrize("spec", [GF2, GF3, GF9, GF4099, GF128],
                         ids=["q2", "q3", "q9", "q4099", "q128"])
def test_orbit_of_an_operator_that_is_not_nilpotent_ends_after_n_vectors(spec):
    """Given to the kernel directly, past ``degree``'s nilpotency guard,
    the identity fixes x forever; the orbit stops at n vectors.  An
    alarm turns a lost bound into a failure in seconds, not a hang."""
    def looping(signum, frame):
        pytest.fail(f"{spec}: the orbit of the identity ran past n vectors")

    previous = signal.signal(signal.SIGALRM, looping)
    signal.alarm(10)
    try:
        for n in (1, 2, 5, 64 if spec == GF2 else 6):
            identity = ref_identity(n)
            x = (1,) * n
            assert spec._kernel.orbit(identity, x) == (x,) * n
        assert spec._kernel.orbit((), ()) == ()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_kernel_is_chosen_from_q():
    """Packed rows for GF(2), tables for 3 <= q <= 64, on-demand views
    past that, for prime and extension fields alike."""
    assert type(GF2._kernel) is _PackedGF2
    for spec in (GF3, GF4, GF64):
        kernel = spec._kernel
        assert type(kernel) is _Rows
        for op in (kernel.add, kernel.mul, kernel.neg, kernel.inv):
            assert isinstance(op, tuple) and len(op) == spec.q
    for spec in (GF67, GF128):
        kernel = spec._kernel
        assert type(kernel) is _Rows
        assert not any(isinstance(op, tuple)
                       for op in (kernel.add, kernel.mul, kernel.neg, kernel.inv))


TABLE_FIELDS = [GF3, GF4, FieldSpec(5), FieldSpec(7), FieldSpec(2, 3), GF9,
                FieldSpec(2, 4), FieldSpec(5, 2), FieldSpec(3, 3), GF64]


@pytest.mark.parametrize("spec", TABLE_FIELDS, ids=[f"q{s.q}" for s in TABLE_FIELDS])
def test_inverse_table_matches_the_field_inverse(spec):
    """The kernel's ``inv`` table against ``FieldSpec.inv``, which
    stays square-and-multiply, at every nonzero code."""
    kernel = spec._kernel
    for a in range(1, spec.q):
        assert kernel.inv[a] == spec.inv(a)
        assert kernel.mul[a][kernel.inv[a]] == 1


def test_table_rref_makes_no_call_to_the_field_inverse(monkeypatch):
    """The table kernel scales each pivot by its own ``inv`` table: a
    fresh GF(9) kernel is built, and eliminates, with ``FieldSpec.inv``
    refusing every call."""
    data = ((2, 5, 7, 1), (4, 0, 3, 8), (8, 6, 1, 5))  # pivot 2 first
    expected = ref_rref(GF9, data, 4)  # the reference calls FieldSpec.inv
    assert expected[1] == (0, 1, 2)

    def refuse(self, a):
        raise AssertionError("the row kernel called FieldSpec.inv")

    monkeypatch.setattr(FieldSpec, "inv", refuse)
    _tabulated.cache_clear()
    gf9 = FieldSpec(3, 2)
    assert gf9._kernel.rref(data, 4) == expected
    r, pivots = rref(Matrix(gf9, 3, 4, data))
    assert (r.data, pivots) == expected


def test_equal_tabulated_specs_share_one_kernel():
    """A field with q <= 64 is tabulated once per process: every equal
    spec, with or without the built-in poly or parsed from JSON, reads
    the same kernel, and another modulus is another field."""
    gf9 = FieldSpec(3, 2)
    for spec in (FieldSpec(3, 2, (2, 2, 1)), FieldSpec.from_json({"p": 3, "k": 2})):
        assert spec._kernel is gf9._kernel
    assert FieldSpec(3, 2, (1, 0, 1))._kernel is not gf9._kernel  # x^2 + 1
    packed = FieldSpec(2)._kernel
    assert type(packed) is _PackedGF2 and FieldSpec(2)._kernel is packed


def test_fields_past_the_table_limit_stay_out_of_the_shared_memo():
    held = _tabulated.cache_info().currsize
    gf128 = (1, 1, 0, 0, 0, 0, 0, 1)  # x^7 + x + 1
    for a, b in ((FieldSpec(4099), FieldSpec(4099)),
                 (FieldSpec(2, 7, gf128), FieldSpec(2, 7, gf128))):
        assert a == b and a._kernel is not b._kernel
    assert _tabulated.cache_info().currsize == held


def ref_combine(spec, coeffs, rows, start):
    out = start
    for c, row in zip(coeffs, rows):
        out = tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(out, row))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([GF2, GF4, GF9, GF4099]), st.data())
def test_combine_matches_reference(spec, data):
    """``combine``, the entry point of the subspace constructions."""
    n, k = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 6))
    code = st.integers(0, spec.q - 1)
    rows = data.draw(st.lists(st.tuples(*[code] * n), min_size=k, max_size=k))
    coeffs = data.draw(st.lists(code, min_size=k, max_size=k))
    start = data.draw(st.tuples(*[code] * n))
    assert spec._kernel.combine(coeffs, rows, start) == ref_combine(spec, coeffs, rows, start)


def test_large_field_kernel_builds_no_table():
    m = Matrix(GF4099, 2, 2, ((4098, 17), (3, 4000)))
    check_against_reference(m, m, Vector(GF4099, (1, 4098)))
    kernel = GF4099._kernel
    assert not any(isinstance(op, tuple) for op in (kernel.add, kernel.mul, kernel.neg))


def test_empty_inner_dimension_product_has_the_right_shape():
    a, b = Matrix.zero(GF2, 2, 0), Matrix.zero(GF2, 0, 3)
    prod = mat_mul(a, b)
    assert prod == Matrix.zero(GF2, 2, 3)
    assert Matrix.from_json(prod.to_json()) == prod


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 4099]), st.data())
def test_prime_field_rref_matches_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    size = st.integers(0, 20 if p == 2 else 6)  # GF(2) packs its rows
    rows, cols = data.draw(size), data.draw(size)
    spec = FieldSpec(p)
    m = data.draw(_matrix_strategy(spec, rows, cols))
    field = sympy.GF(p)
    dm = DomainMatrix([[field(x) for x in row] for row in m.data], (rows, cols), field)
    expected, expected_pivots = dm.rref()
    r, pivots = rref(m)
    assert pivots == tuple(expected_pivots)
    assert [list(row) for row in r.data] == [
        [int(x) % p for x in row] for row in expected.to_list()
    ]
