"""The main bijection: frozen hand-traces, degree behavior, both
directions against references composed from the public lemmas, the
output bytes of inverse at four grid points, and round trips on grids
small enough to enumerate inline (census covers the rest)."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, GF4, GF5, all_matrices, all_vectors
from nilbij import (
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    Matrix,
    NilpotentPair,
    NonSquare,
    NotNilpotent,
    OrderedBasis,
    SchemaError,
    SubspaceMap,
    Vector,
    apply,
    automorphism_to_basis,
    basis_to_automorphism,
    block_assemble,
    block_decompose,
    canonical_iso,
    complement_to_map,
    compose,
    degree,
    enumerate_operators,
    fitting_decompose,
    forward,
    inverse,
    is_nilpotent,
    map_apply,
    map_inverse,
    map_to_complement,
    mat_inv,
    mat_mul,
    span,
    steinitz_complement,
)
from nilbij.cli import canonical_dumps

GF9 = FieldSpec(3, 2)
GF4099 = FieldSpec(4099)  # too large to tabulate: the on-demand path


def nilpotents(spec, n):
    return [t for t in all_matrices(spec, n, n) if is_nilpotent(t)]


# degree

def test_degree_frozen_examples():
    t = Matrix.from_rows(GF2, [(0, 0), (1, 0)])
    assert degree(t, Vector(GF2, (0, 0))) == 0
    assert degree(t, Vector(GF2, (1, 0))) == 2
    assert degree(t, Vector(GF2, (0, 1))) == 1
    zero = Matrix.zero(GF3, 2, 2)
    for v in all_vectors(GF3, 2):
        assert degree(zero, v) == (0 if v.is_zero() else 1)


def test_degree_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        degree(Matrix.identity(GF2, 2), Vector(GF2, (1, 0)))


def test_degree_bounded_by_dimension():
    for t in nilpotents(GF2, 3):
        for v in all_vectors(GF2, 3):
            k = degree(t, v)
            assert 0 <= k <= 3
            assert (k == 0) == v.is_zero()


# forward, frozen

def test_forward_zero_pair_gives_zero():
    assert forward(Matrix.zero(GF2, 2, 2), Vector(GF2, (0, 0))) == \
        Matrix.zero(GF2, 2, 2)


def test_forward_dim_one_hand_trace():
    assert forward(Matrix.zero(GF2, 1, 1), Vector(GF2, (1,))) == \
        Matrix.identity(GF2, 1)


def test_forward_cyclic_hand_trace():
    t = Matrix.from_rows(GF2, [(0, 0), (1, 0)])
    assert forward(t, Vector(GF2, (1, 0))) == Matrix.identity(GF2, 2)


def test_forward_rejects_bad_input():
    with pytest.raises(NotNilpotent):
        forward(Matrix.identity(GF2, 2), Vector(GF2, (1, 0)))
    with pytest.raises(FieldMismatch):
        forward(Matrix.zero(GF2, 2, 2), Vector(GF3, (0, 0)))
    with pytest.raises(DimensionMismatch):
        forward(Matrix.zero(GF2, 2, 2), Vector(GF2, (0, 0, 0)))
    with pytest.raises(NonSquare):
        forward(Matrix.zero(GF2, 2, 3), Vector(GF2, (0, 0, 0)))


# inverse, frozen

def test_inverse_dim_one_hand_trace():
    t, v = inverse(Matrix.identity(GF2, 1))
    assert t == Matrix.zero(GF2, 1, 1)
    assert v == Vector(GF2, (1,))


def test_inverse_identity_hand_trace():
    t, v = inverse(Matrix.identity(GF2, 2))
    assert t == Matrix.from_rows(GF2, [(0, 0), (1, 0)])
    assert v == Vector(GF2, (1, 0))


def test_inverse_of_nilpotent_is_pair_with_zero_vector():
    for q in nilpotents(GF2, 2) + nilpotents(GF3, 2):
        t, v = inverse(q)
        assert t == q
        assert v.is_zero()


def test_inverse_rejects_non_square():
    with pytest.raises(NonSquare):
        inverse(Matrix.zero(GF2, 2, 3))


def test_zero_dimensional_roundtrip():
    q = Matrix(GF2, 0, 0, ())
    t, v = inverse(q)
    assert t == q and v.n == 0
    assert forward(t, v) == q


# inverse against the column-by-column reference

def ref_inverse(q):
    """The inverse that ``block_assemble`` replaced: T = C B^-1, with B
    the orbit basis of V (read off R) followed by the Steinitz basis of
    U, and C their images: the next orbit vector on V, f(u) + T_UU(u)
    on U.  Vector sums go entry by entry through ``FieldSpec.add``."""
    spec, n = q.spec, q.rows
    pair = fitting_decompose(q)
    basis = automorphism_to_basis(pair.R).vectors
    k = len(basis)
    v = basis[0] if k else Vector.zero(spec, n)
    u_sub = steinitz_complement(pair.V)
    f = complement_to_map(pair.W, pair.V, u_sub)
    iso = canonical_iso(pair.V, u_sub, pair.W)
    t_uu = compose(compose(map_inverse(iso), pair.S), iso)
    cols = [b.entries for b in basis]
    images = [basis[j + 1].entries if j + 1 < k else (0,) * n for j in range(k)]
    for u in u_sub.basis_vectors():
        cols.append(u.entries)
        fu, tu = map_apply(f, u).entries, map_apply(t_uu, u).entries
        images.append(tuple(spec.add(x, y) for x, y in zip(fu, tu)))

    def from_columns(cs):
        return Matrix(spec, n, len(cs), tuple(tuple(c[i] for c in cs) for i in range(n)))

    return mat_mul(from_columns(images), mat_inv(from_columns(cols))), v


@pytest.mark.parametrize(
    "spec,n", [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2)], ids=str
)
def test_inverse_matches_reference_exhaustive(spec, n):
    for q in all_matrices(spec, n, n):
        assert inverse(q) == ref_inverse(q)


@pytest.mark.parametrize(
    "spec,n", [(GF2, 8), (GF3, 6), (GF9, 5), (GF4099, 2)], ids=str
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_matches_reference_sampled(spec, n, data):
    # zeros drawn often enough to reach every degree stratum
    entry = st.just(0) | st.integers(0, spec.q - 1)
    flat = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
    q = Matrix(spec, n, n, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
    assert inverse(q) == ref_inverse(q)


# forward against the composition of the public lemmas

def ref_forward(t, v):
    """forward composed from the public lemmas alone, as its body was
    before the bijection ran on row cores: the orbit's span V, its
    Steinitz complement U, T's blocks over (V, U), the graph W of the
    U -> V block, S the U -> U block carried to W by the canonical
    isomorphism, and R the orbit basis read as an automorphism,
    assembled over (V, W)."""
    orbit, x = [], v
    while not x.is_zero():
        orbit.append(x)
        x = apply(t, x)
    v_sub = span(orbit, spec=t.spec, ambient_dim=t.rows)
    u_sub = steinitz_complement(v_sub)
    _, t_uv, t_uu = block_decompose(t, v_sub, u_sub)
    w_sub = map_to_complement(t_uv)
    iso = canonical_iso(v_sub, u_sub, w_sub)
    s = compose(compose(iso, t_uu), map_inverse(iso))
    r = basis_to_automorphism(OrderedBasis(v_sub, tuple(orbit)))
    return block_assemble(v_sub, w_sub, r, SubspaceMap.zero(w_sub, v_sub), s)


@pytest.mark.parametrize(
    "spec,n", [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2)], ids=str
)
def test_forward_matches_reference_exhaustive(spec, n):
    for t in nilpotents(spec, n):
        for v in all_vectors(spec, n):
            assert forward(t, v) == ref_forward(t, v)


@pytest.mark.parametrize(
    "spec,n", [(GF2, 8), (GF3, 6), (GF9, 5), (GF4099, 2)], ids=str
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_forward_matches_reference_sampled(spec, n, data):
    # the pairs of drawn operators, zeros drawn often enough to reach
    # every degree stratum
    entry = st.just(0) | st.integers(0, spec.q - 1)
    flat = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
    q = Matrix(spec, n, n, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
    t, v = inverse(q)
    assert forward(t, v) == ref_forward(t, v) == q


# which bijection: the output bytes of inverse, pinned

# sha256 over canonical_dumps(NilpotentPair(*inverse(Q)).to_json()) for
# every Q in enumeration order.  The census proves that the code is a
# bijection and that forward inverts inverse; these digests pin which
# bijection it is, and so forward's output too.  A different choice of
# complement, basis or isomorphism keeps the census ok but moves them.
INVERSE_DIGESTS = {
    (GF2, 2): "fc10b0a774012206159115b2e9b78521512190d76d3101622a9f72319cc20ca6",
    (GF2, 3): "d317e7ed9042142eff56639332e843757a192134dd9104b6ccb59cddd2319005",
    (GF3, 2): "e90888a01ff2fa6a2e62e39cdef728ae7e6ad92459f3c8e3e83c48d2a9c672d9",
    (GF4, 2): "8336f3fbdfbdf1f604e77aefc9f90b2b02a18e3b61186b479f146eb45a6adc8d",
}


@pytest.mark.parametrize("spec,n", INVERSE_DIGESTS, ids=str)
def test_inverse_output_bytes_are_pinned(spec, n):
    blob = "".join(canonical_dumps(NilpotentPair(*inverse(q)).to_json())
                   for q in enumerate_operators(spec, n))
    assert hashlib.sha256(blob.encode()).hexdigest() == INVERSE_DIGESTS[spec, n]


# round trips on inline grids

@pytest.mark.parametrize("spec,n", [(GF2, 1), (GF2, 2), (GF3, 1), (GF4, 1)], ids=str)
def test_roundtrips_exhaustive(spec, n):
    seen = set()
    for t in nilpotents(spec, n):
        for v in all_vectors(spec, n):
            q = forward(t, v)
            assert inverse(q) == (t, v)
            seen.add(q)
    assert len(seen) == spec.q ** (n * n)
    for q in all_matrices(spec, n, n):
        t, v = inverse(q)
        assert is_nilpotent(t)
        assert forward(t, v) == q


def test_degree_equals_automorphism_dimension():
    for t in nilpotents(GF2, 2):
        for v in all_vectors(GF2, 2):
            q = forward(t, v)
            assert fitting_decompose(q).V.dim == degree(t, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_sampled_gf5_dim3(data):
    # strictly lower triangular -> nilpotent; beyond the exhaustive grids
    entries = {}
    for i in range(3):
        for j in range(3):
            entries[(i, j)] = (
                data.draw(st.integers(0, 4)) if i > j else 0
            )
    t = Matrix(GF5, 3, 3, tuple(
        tuple(entries[(i, j)] for j in range(3)) for i in range(3)))
    v = Vector(GF5, tuple(data.draw(st.integers(0, 4)) for _ in range(3)))
    assert inverse(forward(t, v)) == (t, v)


# pair payloads

def test_pair_json_roundtrip():
    pair = NilpotentPair(
        Matrix.from_rows(GF4, [(0, 2), (0, 0)]), Vector(GF4, (1, 3)))
    assert NilpotentPair.from_json(pair.to_json()) == pair


def test_pair_json_validation():
    with pytest.raises(SchemaError):
        NilpotentPair.from_json({"T": Matrix.zero(GF2, 1, 1).to_json()})
    with pytest.raises(SchemaError):
        NilpotentPair.from_json([1, 2])
    with pytest.raises(FieldMismatch):
        NilpotentPair(Matrix.zero(GF2, 1, 1), Vector(GF3, (0,)))
