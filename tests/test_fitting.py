"""Fitting decomposition: frozen examples, exhaustive round trips on
GF(2)^2 and GF(2)^3, chain stabilization, and assembly validation."""

import pytest

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
    fitting_assemble,
    fitting_decompose,
    image_basis,
    is_invertible,
    is_nilpotent,
    kernel_basis,
    mat_pow,
    span,
)


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


def test_singular_restriction_is_an_internal_fault():
    """A wrong Q^n that keeps Q's kernel inside V makes R singular; the
    inversion that checks R says so at once."""
    q = Matrix.from_rows(GF2, [(0, 0), (1, 0)])
    vars(q)["_fitting_power"] = Matrix.identity(GF2, 2)  # V is everything, R is Q
    with pytest.raises(AssertionError, match="must be invertible"):
        fitting_decompose(q)


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
    from nilbij import is_complementary, steinitz_complement

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
