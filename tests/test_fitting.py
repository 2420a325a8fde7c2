"""Fitting decomposition: frozen examples, exhaustive round trips on
GF(2)^2 and GF(2)^3, chain stabilization, assembly validation, and the
one-elimination core against the route through the public lemmas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilbij.fitting
from conftest import GF2, GF3, all_matrices
from nilbij import (
    FittingPair,
    Matrix,
    NotAutomorphism,
    NotComplement,
    NotNilpotent,
    Subspace,
    SubspaceMap,
    Vector,
    block_decompose,
    fitting_assemble,
    fitting_decompose,
    image_basis,
    is_invertible,
    is_nilpotent,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_pow,
    span,
)
from test_bijection import GF4099, GF9, GF128, drawn, invertible, unit_triangular_product


def test_decompose_frozen_diag():
    q = Matrix.from_rows(GF2, [(1, 0), (0, 0)])
    pair = fitting_decompose(q)
    assert pair.V == span([Vector(GF2, (1, 0))])
    assert pair.W == span([Vector(GF2, (0, 1))])
    assert pair.R.matrix == Matrix.from_rows(GF2, [(1,)])
    assert pair.S.matrix == Matrix.zero(GF2, 1, 1)


def test_decompose_invertible_and_nilpotent_extremes():
    ident = Matrix.identity(GF3, 2)
    pair = fitting_decompose(ident)
    assert pair.V == Subspace.full(GF3, 2) and pair.W.dim == 0
    assert pair.R.matrix == ident
    nil = Matrix.from_rows(GF3, [(0, 1), (0, 0)])
    pair = fitting_decompose(nil)
    assert pair.W == Subspace.full(GF3, 2) and pair.V.dim == 0
    assert pair.S.matrix == nil


def test_singular_restriction_is_an_internal_fault(monkeypatch):
    """A wrong Q^n that keeps Q's kernel inside V makes R singular.
    ``fitting_decompose`` does not prove R again; the Fitting audit
    reassembles through ``fitting_assemble``, which refuses it."""
    q = Matrix.from_rows(GF2, [(0, 0), (1, 0)])
    # V is everything, R is Q
    monkeypatch.setattr(nilbij.fitting, "_stable_power", lambda kernel, rows: ((1, 0), (0, 1)))
    pair = fitting_decompose(q)
    assert pair.V.dim == 2 and pair.R.matrix == q
    with pytest.raises(NotAutomorphism):
        fitting_assemble(pair)


def test_assemble_frozen_examples():
    full = Subspace.full(GF2, 2)
    zero = Subspace.zero(GF2, 2)
    ident = SubspaceMap.identity(full)
    empty = SubspaceMap.identity(zero)
    assert fitting_assemble(FittingPair(full, zero, ident, empty)) == \
        Matrix.identity(GF2, 2)
    assert fitting_assemble(
        FittingPair(zero, full, empty, SubspaceMap(full, full, Matrix.zero(GF2, 2, 2)))
    ) == Matrix.zero(GF2, 2, 2)
    v = span([Vector(GF2, (1, 0))])
    w = span([Vector(GF2, (0, 1))])
    pair = FittingPair(
        v, w,
        SubspaceMap(v, v, Matrix.from_rows(GF2, [(1,)])),
        SubspaceMap(w, w, Matrix.zero(GF2, 1, 1)),
    )
    assert fitting_assemble(pair) == Matrix.from_rows(GF2, [(1, 0), (0, 0)])


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF2, 3), (GF3, 2)], ids=str)
def test_roundtrip_decompose_then_assemble_exhaustive(spec, n):
    for q in all_matrices(spec, n, n):
        pair = fitting_decompose(q)
        assert pair.V.dim + pair.W.dim == n
        assert fitting_assemble(pair) == q


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF3, 2)], ids=str)
def test_roundtrip_assemble_then_decompose_exhaustive(spec, n):
    from conftest import all_subspaces
    from nilbij import steinitz_complement

    for v in all_subspaces(spec, n):
        w = steinitz_complement(v)
        for r_mat in all_matrices(spec, v.dim, v.dim):
            if not is_invertible(r_mat):
                continue
            for s_mat in all_matrices(spec, w.dim, w.dim):
                if not is_nilpotent(s_mat):
                    continue
                pair = FittingPair(
                    v, w, SubspaceMap(v, v, r_mat), SubspaceMap(w, w, s_mat)
                )
                assert fitting_decompose(fitting_assemble(pair)) == pair


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF2, 3), (GF3, 2)], ids=str)
def test_chain_stabilization_exhaustive(spec, n):
    for q in all_matrices(spec, n, n):
        qn = mat_pow(q, n)
        qn1 = mat_pow(q, n + 1)
        assert span(kernel_basis(qn), spec=spec, ambient_dim=n) == \
            span(kernel_basis(qn1), spec=spec, ambient_dim=n)
        assert span(image_basis(qn), spec=spec, ambient_dim=n) == \
            span(image_basis(qn1), spec=spec, ambient_dim=n)


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_stable_power_splits_as_the_nth_power_exhaustive(spec, n):
    """V and W, read off Q^m with m the least power of two >= n, are
    im(Q^n) and ker(Q^n)."""
    for q in all_matrices(spec, n, n):
        pair = fitting_decompose(q)
        qn = mat_pow(q, n)
        assert pair.V == span(image_basis(qn), spec=spec, ambient_dim=n)
        assert pair.W == span(kernel_basis(qn), spec=spec, ambient_dim=n)


def lemma_route(q):
    """The Fitting data by the public lemmas: V = im(Q^n) and W = ker(Q^n)
    spanned from the bases of ``linalg``, and R and S the diagonal
    blocks of Q over the [V | W] change of basis, which inverts [V | W]
    and raises NotInvariant unless Q maps V into V."""
    n, spec = q.rows, q.spec
    qn = mat_pow(q, n)
    v = span(image_basis(qn), spec=spec, ambient_dim=n)
    w = span(kernel_basis(qn), spec=spec, ambient_dim=n)
    r, cross, s = block_decompose(q, v, w)
    assert cross.matrix.is_zero()  # Q maps W into W
    return FittingPair(v, w, r, s)


@pytest.mark.parametrize("spec,n", [(GF2, 16), (GF3, 6), (GF9, 5), (GF4099, 6), (GF128, 4)],
                         ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_decompose_matches_the_lemma_route(spec, n, data):
    # Q = P diag(R, J) P^-1 with R invertible, J strictly lower triangular
    # and P = L U unit triangular, so that 0 < dim V < n and S != 0 are common
    k = data.draw(st.integers(0, n))
    r, j = invertible(data, spec, k), drawn(data, spec, n - k, n - k, lambda a, b: a > b)
    block = Matrix(spec, n, n, tuple(row + (0,) * (n - k) for row in r.data)
                   + tuple((0,) * k + row for row in j.data))
    p = unit_triangular_product(data, spec, n)
    q = mat_mul(mat_mul(p, block), mat_inv(p))
    assert fitting_decompose(q) == lemma_route(q)


def test_nilpotent_iff_trivial_automorphism_part():
    for q in all_matrices(GF2, 2, 2):
        assert is_nilpotent(q) == (fitting_decompose(q).V.dim == 0)
        assert is_invertible(q) == (fitting_decompose(q).W.dim == 0)


def test_parts_are_invariant():
    from nilbij import apply, contains

    for q in all_matrices(GF3, 2, 2):
        pair = fitting_decompose(q)
        for b in pair.V.basis_vectors():
            assert contains(pair.V, apply(q, b))
        for b in pair.W.basis_vectors():
            assert contains(pair.W, apply(q, b))


def test_assemble_validation_errors():
    v = span([Vector(GF2, (1, 0))])
    w_bad = span([Vector(GF2, (1, 0))])
    ident1 = Matrix.identity(GF2, 1)
    with pytest.raises(NotComplement):
        fitting_assemble(FittingPair(
            v, w_bad, SubspaceMap(v, v, ident1), SubspaceMap(w_bad, w_bad, ident1)))
    w = span([Vector(GF2, (0, 1))])
    with pytest.raises(NotAutomorphism):
        fitting_assemble(FittingPair(
            v, w, SubspaceMap(v, v, Matrix.zero(GF2, 1, 1)),
            SubspaceMap(w, w, Matrix.zero(GF2, 1, 1))))
    with pytest.raises(NotNilpotent):
        fitting_assemble(FittingPair(
            v, w, SubspaceMap(v, v, ident1), SubspaceMap(w, w, ident1)))


def test_zero_dimensional_operator():
    q = Matrix(GF2, 0, 0, ())
    pair = fitting_decompose(q)
    assert pair.V.dim == 0 and pair.W.dim == 0
    assert fitting_assemble(pair) == q


def test_fitting_json_roundtrip():
    for q in all_matrices(GF3, 2, 2)[::5]:
        pair = fitting_decompose(q)
        assert FittingPair.from_json(pair.to_json()) == pair
