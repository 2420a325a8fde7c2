"""Exact linear algebra: RREF canonicity, rank/kernel/image, nilpotency
and invertibility, against brute-force oracles on small fields."""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, GF4, GF5, all_matrices, all_vectors
from nilbij import (
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    Matrix,
    NonSquare,
    NotInvertible,
    SchemaError,
    Vector,
    apply,
    image_basis,
    is_invertible,
    is_nilpotent,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_pow,
    rank,
    rref,
)


def brute_rank(m: Matrix) -> int:
    """log_q of the row-span size, counted by direct enumeration."""
    spec = m.spec
    spanned = set()
    for coeffs in product(range(spec.q), repeat=m.rows):
        acc = [0] * m.cols
        for c, row in zip(coeffs, m.data):
            for i, x in enumerate(row):
                acc[i] = spec.add(acc[i], spec.mul(c, x))
        spanned.add(tuple(acc))
    size = len(spanned)
    r = 0
    while spec.q**r < size:
        r += 1
    assert spec.q**r == size
    return r


def row_span(m: Matrix) -> set:
    spec = m.spec
    out = set()
    for coeffs in product(range(spec.q), repeat=m.rows):
        acc = [0] * m.cols
        for c, row in zip(coeffs, m.data):
            for i, x in enumerate(row):
                acc[i] = spec.add(acc[i], spec.mul(c, x))
        out.add(tuple(acc))
    return out


def test_rref_frozen_gf2():
    m = Matrix.from_rows(GF2, [(1, 1), (1, 1)])
    r, pivots = rref(m)
    assert r.data == ((1, 1), (0, 0))
    assert pivots == (0,)


def test_rref_frozen_gf3():
    m = Matrix.from_rows(GF3, [(1, 2), (2, 1)])
    r, pivots = rref(m)
    assert r.data == ((1, 2), (0, 0))
    assert pivots == (0,)


def test_rref_scales_leading_entry():
    m = Matrix.from_rows(GF5, [(2, 1)])
    r, pivots = rref(m)
    assert r.data == ((1, 3),)  # 2^{-1} = 3 over GF(5)
    assert pivots == (0,)


@pytest.mark.parametrize("spec,shape", [
    (GF2, (2, 2)), (GF2, (2, 3)), (GF2, (3, 2)), (GF3, (2, 2)), (GF4, (2, 2)),
], ids=str)
def test_rref_exhaustive_properties(spec, shape):
    rows, cols = shape
    for m in all_matrices(spec, rows, cols):
        r, pivots = rref(m)
        again, pivots2 = rref(r)
        assert again == r and pivots2 == pivots
        assert row_span(r) == row_span(m)
        assert rank(m) == len(pivots) == brute_rank(m)
        for i, p in enumerate(pivots):
            col = tuple(r.data[j][p] for j in range(r.rows))
            assert col == tuple(1 if j == i else 0 for j in range(r.rows))
        assert list(pivots) == sorted(pivots)


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF2, 3), (GF3, 2)], ids=str)
def test_rank_nullity_and_kernel_exhaustive(spec, n):
    for m in all_matrices(spec, n, n):
        kern = kernel_basis(m)
        assert rank(m) + len(kern) == n
        for v in kern:
            assert apply(m, v).is_zero()
        if kern:
            stacked = Matrix.from_rows(spec, [v.entries for v in kern])
            assert rank(stacked) == len(kern)
        img = image_basis(m)
        assert len(img) == rank(m)
        for v in img:
            assert v.entries in {
                tuple(m.data[i][j] for i in range(n)) for j in range(n)
            }


def test_kernel_vectors_cover_kernel_gf2():
    for m in all_matrices(GF2, 3, 3):
        kern = set()
        for v in all_vectors(GF2, 3):
            if apply(m, v).is_zero():
                kern.add(v.entries)
        assert len(kern) == 2 ** len(kernel_basis(m))


def test_apply_is_column_action():
    m = Matrix.from_rows(GF3, [(1, 2), (0, 1)])
    assert apply(m, Vector(GF3, (1, 0))).entries == (1, 0)
    assert apply(m, Vector(GF3, (0, 1))).entries == (2, 1)


def test_apply_linearity_gf4():
    mats = all_matrices(GF4, 2, 2)[:32]
    vecs = all_vectors(GF4, 2)
    for m in mats:
        for v in vecs:
            for w in vecs:
                left = apply(m, Vector(GF4, tuple(
                    GF4.add(a, b) for a, b in zip(v.entries, w.entries))))
                right = Vector(GF4, tuple(
                    GF4.add(a, b)
                    for a, b in zip(apply(m, v).entries, apply(m, w).entries)))
                assert left == right


def test_mat_mul_associative_spot():
    ms = all_matrices(GF3, 2, 2)
    for a in ms[::7]:
        for b in ms[::11]:
            for c in ms[::13]:
                assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_pow_addition_law():
    for m in all_matrices(GF2, 2, 2):
        for i in range(4):
            for j in range(4):
                assert mat_pow(m, i + j) == mat_mul(mat_pow(m, i), mat_pow(m, j))
    assert mat_pow(Matrix.zero(GF2, 2, 2), 0) == Matrix.identity(GF2, 2)


GF9 = FieldSpec(3, 2)
GF67 = FieldSpec(67)  # q > 64: its kernel reads on-demand views, not tables


def trace(m: Matrix) -> int:
    t = 0
    for i in range(m.rows):
        t = m.spec.add(t, m.data[i][i])
    return t


# (GF3, 3) and (GF9, 2) are the points of the ``count`` benchmark
@pytest.mark.parametrize("spec,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2), (GF3, 3),
                                    (GF4, 2), (GF9, 2)], ids=str)
def test_nilpotent_matches_direct_power(spec, n):
    for m in all_matrices(spec, n, n):
        direct = mat_pow(m, n).is_zero()
        assert is_nilpotent(m) == direct


def test_zero_trace_never_accepts():
    # I_p over GF(p) at n = p: every power is I_p, of trace p = 0
    for spec, n in ((GF2, 2), (GF3, 3)):
        ident = Matrix.identity(spec, n)
        assert all(trace(mat_pow(ident, e)) == 0 for e in range(1, 2 * n + 1))
        assert not is_nilpotent(ident)
    # trace 0 at T, not at T² = I_2
    t = Matrix.from_rows(GF3, [(1, 0), (0, 2)])
    assert trace(t) == 0 and trace(mat_pow(t, 2)) == 2
    assert not is_nilpotent(t)


def test_conjugated_strictly_triangular_is_nilpotent():
    n_mat = Matrix.from_rows(GF3, [(0, 1, 2), (0, 0, 1), (0, 0, 0)])
    p = Matrix.from_rows(GF3, [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
    t = mat_mul(mat_mul(p, n_mat), mat_inv(p))
    assert any(t.data[i][i] for i in range(3)) and trace(t) == 0
    assert is_nilpotent(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_nilpotent_matches_direct_power_on_demand_field(n, data):
    def draw_rows(below_diagonal_only=False):
        return [[data.draw(st.integers(0, 66)) if j < i or not below_diagonal_only else 0
                 for j in range(n)] for i in range(n)]

    rows = draw_rows()
    m = Matrix.from_rows(GF67, rows)
    assert is_nilpotent(m) == mat_pow(m, n).is_zero()
    # the same matrix with its last diagonal entry set for trace 0
    rows[-1][-1] = 0
    rows[-1][-1] = GF67.neg(trace(Matrix.from_rows(GF67, rows)))
    m0 = Matrix.from_rows(GF67, rows)
    assert trace(m0) == 0
    assert is_nilpotent(m0) == mat_pow(m0, n).is_zero()
    # P N P⁻¹ with N strictly lower triangular is nilpotent
    p = Matrix.from_rows(GF67, draw_rows())
    assume(is_invertible(p))
    t = mat_mul(mat_mul(p, Matrix.from_rows(GF67, draw_rows(True))), mat_inv(p))
    assert is_nilpotent(t) and mat_pow(t, n).is_zero()


def test_nilpotent_trivial_cases():
    assert is_nilpotent(Matrix(GF2, 0, 0, ()))
    assert is_invertible(Matrix(GF2, 0, 0, ()))
    assert is_nilpotent(Matrix.zero(GF3, 3, 3))
    assert not is_nilpotent(Matrix.identity(GF3, 3))


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF3, 2), (GF4, 2)], ids=str)
def test_inverse_exhaustive(spec, n):
    ident = Matrix.identity(spec, n)
    for m in all_matrices(spec, n, n):
        if is_invertible(m):
            inv = mat_inv(m)
            assert mat_mul(m, inv) == ident
            assert mat_mul(inv, m) == ident
        else:
            with pytest.raises(NotInvertible):
                mat_inv(m)


def test_nonsquare_rejected():
    m = Matrix.from_rows(GF2, [(1, 0, 1)])
    with pytest.raises(NonSquare):
        mat_pow(m, 2)
    with pytest.raises(NonSquare):
        is_nilpotent(m)
    with pytest.raises(NonSquare):
        mat_inv(m)


def test_shape_and_field_mismatches():
    a = Matrix.from_rows(GF2, [(1, 0), (0, 1)])
    b = Matrix.from_rows(GF2, [(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        mat_mul(a, b)
    c = Matrix.from_rows(GF3, [(1, 0), (0, 1)])
    with pytest.raises(FieldMismatch):
        mat_mul(a, c)
    with pytest.raises(FieldMismatch):
        apply(a, Vector(GF3, (1, 0)))
    with pytest.raises(DimensionMismatch):
        apply(a, Vector(GF2, (1, 0, 1)))


def test_matrix_schema_validation():
    with pytest.raises(SchemaError):
        Matrix(GF2, 2, 2, ((0, 1), (1,)))
    with pytest.raises(SchemaError):
        Matrix(GF2, 1, 1, ((2,),))
    with pytest.raises(SchemaError):
        Vector(GF2, (0, 3))
    # integer slots refuse bool, float and str instead of coercing them
    for bad in [lambda: Vector(FieldSpec(2), (1.9, True)),
                lambda: Vector(GF2, (0, True)),
                lambda: Vector(GF2, "01"),
                lambda: Matrix(FieldSpec(3), 1, 1, (("2",),)),
                lambda: Matrix(GF2, 1, 1, ((1.0,),)),
                lambda: Matrix(GF2, True, 1, ((1,),)),
                lambda: Matrix(GF2, 1, 1.0, ((1,),)),
                lambda: Matrix(GF2, 0, -1, ()),
                lambda: Vector.zero(GF2, -1),
                lambda: Vector.zero(GF2, True)]:
        with pytest.raises(SchemaError):
            bad()
    assert Matrix(GF2, 1, 2, [[1, 0]]).data == ((1, 0),)
    assert Vector(GF2, [1, 0]).entries == (1, 0)


def test_json_roundtrips():
    m = Matrix.from_rows(GF4, [(0, 2), (3, 1)])
    assert Matrix.from_json(m.to_json()) == m
    v = Vector(GF5, (0, 4, 2))
    assert Vector.from_json(v.to_json()) == v
    with pytest.raises(SchemaError):
        Matrix.from_json({"field": {"p": 2}, "rows": 1, "cols": 1})
    with pytest.raises(SchemaError):
        Matrix.from_json({"field": {"p": 2}, "rows": 1, "cols": 1, "data": [["a"]]})
    for entries in ("ab", ["a"], 5, [None], [True], [1.0]):
        with pytest.raises(SchemaError):
            Vector.from_json({"field": {"p": 2}, "entries": entries})
    good = {"field": {"p": 2}, "rows": 1, "cols": 1, "data": [[1]]}
    for key, bad in [("field", {"p": 2.7}), ("field", {"p": 2, "k": 1.5}),
                     ("field", {"p": 2, "k": True}), ("field", {"p": 2, "k": "a"}),
                     ("field", {"p": 2, "k": 2, "poly": [1, 1, 1.0]}),
                     ("rows", 1.9), ("cols", True),
                     ("data", [[True]]), ("data", [[1.0]])]:
        with pytest.raises(SchemaError):
            Matrix.from_json({**good, key: bad})


@settings(max_examples=100)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_rref_idempotent_sampled(p, n, data):
    spec = FieldSpec(p)
    flat = data.draw(st.lists(
        st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    m = Matrix(spec, n, n, tuple(
        tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert (r2, pivots2) == (r, pivots)
    assert rank(m) == len(pivots)
