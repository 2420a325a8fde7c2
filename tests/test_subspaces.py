"""Canonical subspaces and the constructions on them, exhaustively at
the sizes the invariants call for: GF(2)^3 and GF(3)^2 throughout.  The
graph and torsor round trips are the complement and torsor audits of
acceptance criterion 6 (``conftest.audit_complements`` and
``conftest.audit_torsor``)."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, all_matrices, all_subspaces, all_vectors, subspace_elements
from nilbij import (
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    FittingPair,
    Matrix,
    NilbijError,
    NotAutomorphism,
    NotBasis,
    NotCanonical,
    NotComplement,
    NotInSubspace,
    NotInvariant,
    OrderedBasis,
    SchemaError,
    Subspace,
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
    contains,
    coords,
    fitting_assemble,
    fitting_decompose,
    from_coords,
    is_complementary,
    is_invertible,
    map_apply,
    map_inverse,
    map_to_complement,
    rank,
    rref,
    span,
    steinitz_complement,
)
from nilbij.subspaces import (
    _assemble,
    _change_of_basis,
    _decompose,
    _echelon,
    _steinitz_assemble,
    _steinitz_blocks,
)

GF9 = FieldSpec(3, 2)
GF4099 = FieldSpec(4099)  # too large to tabulate: the on-demand kernel


def complements_of(v: Subspace) -> list[Subspace]:
    return [u for u in all_subspaces(v.spec, v.ambient_dim) if is_complementary(v, u)]


# span / contains / coords

def test_span_empty_is_zero_subspace():
    z = span([], spec=GF2, ambient_dim=2)
    assert z.dim == 0 and z.rows == ()


def test_contains_and_coords_frozen():
    v = span([Vector(GF2, (1, 1))])
    assert contains(v, Vector(GF2, (1, 1)))
    assert not contains(v, Vector(GF2, (1, 0)))
    assert coords(v, Vector(GF2, (1, 1))).entries == (1,)
    with pytest.raises(NotInSubspace):
        coords(v, Vector(GF2, (0, 1)))


def test_span_is_canonical_and_order_independent():
    a = span([Vector(GF3, (1, 2)), Vector(GF3, (2, 1))])
    b = span([Vector(GF3, (2, 1)), Vector(GF3, (1, 2))])
    assert a == b
    assert a == span([Vector(GF3, t) for t in subspace_elements(a)])


def test_structural_equality_matches_element_sets():
    subs = all_subspaces(GF2, 3)
    sets = [subspace_elements(s) for s in subs]
    for i, s in enumerate(subs):
        for j, t in enumerate(subs):
            assert (s == t) == (sets[i] == sets[j])


def test_subspace_counts():
    # Gaussian binomials: 1 + 7 + 7 + 1 over GF(2)^3; 1 + 4 + 1 over GF(3)^2
    assert len(all_subspaces(GF2, 3)) == 16
    assert len(all_subspaces(GF3, 2)) == 6


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n k]_q, the number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("spec,n", [(GF2, n) for n in range(5)] + [(GF3, n) for n in range(4)]
                         + [(FieldSpec(2, 2), 2), (FieldSpec(5), 2)], ids=str)
def test_all_subspaces_is_every_subspace_once(spec, n):
    """The RREF enumeration of ``conftest`` against the spans of every set
    of at most n distinct nonzero vectors, and the count against the
    Gaussian binomials, at every point the suites enumerate."""
    subs = all_subspaces(spec, n)
    assert list(subs) == sorted(set(subs), key=lambda s: (s.dim, s.rows))
    assert len(subs) == sum(gaussian_binomial(n, k, spec.q) for k in range(n + 1))
    nonzero = [v for v in all_vectors(spec, n) if not v.is_zero()]
    spans = {span(picks, spec=spec, ambient_dim=n)
             for size in range(n + 1) for picks in combinations(nonzero, size)}
    assert set(subs) == spans


def test_coords_from_coords_roundtrip_exhaustive():
    for sub in all_subspaces(GF3, 2):
        for entries in subspace_elements(sub):
            x = Vector(GF3, entries)
            assert from_coords(sub, coords(sub, x)) == x


def test_subspace_rejects_non_rref_rows():
    with pytest.raises(NotCanonical):
        Subspace(GF2, 2, ((1, 1), (0, 1)))
    with pytest.raises(NotCanonical):
        Subspace(GF2, 2, ((0, 0),))


def outcome(build, *args):
    try:
        return build(*args)
    except NilbijError as exc:
        return exc


@pytest.mark.parametrize("spec,n,most", [(GF2, 2, 2), (GF3, 2, 2), (GF2, 3, 3)], ids=str)
def test_constructor_and_from_json_are_one_validator(spec, n, most):
    """Every tuple of at most ``most`` rows is accepted by both as the
    same value, the span of the rows with the pivots of their ``rref``, or
    refused by both with the same error class; a NotCanonical names the
    span's rows."""
    accepted = set()
    for size in range(most + 1):
        for vecs in product(all_vectors(spec, n), repeat=size):
            rows = tuple(v.entries for v in vecs)
            payload = {"field": spec.to_json(), "ambient": n, "basis": [list(r) for r in rows]}
            built = outcome(Subspace, spec, n, rows)
            loaded = outcome(Subspace.from_json, payload)
            canonical = span(vecs, spec=spec, ambient_dim=n)
            if isinstance(built, Subspace):
                assert loaded == built == canonical
                pivots = rref(Matrix(spec, size, n, rows))[1]
                assert loaded.pivots == built.pivots == canonical.pivots == pivots
                accepted.add(built)
                continue
            assert type(loaded) is type(built)
            if isinstance(built, NotCanonical):
                for exc in (built, loaded):
                    assert f"canonical form is {list(canonical.rows)}" in str(exc)
    assert accepted == set(all_subspaces(spec, n))


def test_zero_subspace_of_a_huge_ambient_is_immediate():
    """An elimination with no rows left scans no further columns."""
    huge = 10**12
    payload = {"field": {"p": 2}, "ambient": huge, "basis": []}
    for sub in (Subspace.zero(GF2, huge), Subspace(GF2, huge, ()),
                Subspace.from_json(payload)):
        assert sub.dim == 0 and sub.ambient_dim == huge
    assert rank(Matrix(GF2, 0, huge, ())) == 0


# Steinitz complements

def test_steinitz_frozen_examples():
    assert steinitz_complement(Subspace.full(GF2, 2)).dim == 0
    assert steinitz_complement(Subspace.zero(GF2, 2)) == Subspace.full(GF2, 2)
    v = span([Vector(GF2, (1, 1))])
    assert steinitz_complement(v) == span([Vector(GF2, (0, 1))])


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_complement_axioms_exhaustive(spec, n):
    for sub in all_subspaces(spec, n):
        comp = steinitz_complement(sub)
        assert sub.dim + comp.dim == n
        assert subspace_elements(sub) & subspace_elements(comp) == {(0,) * n}
        assert is_complementary(sub, comp)
        assert is_complementary(comp, sub)


def test_is_complementary_negative_cases():
    line = span([Vector(GF2, (1, 0, 0))])
    assert not is_complementary(line, line)
    assert not is_complementary(line, span([Vector(GF2, (0, 1, 0))]))
    plane_containing = span([Vector(GF2, (1, 0, 0)), Vector(GF2, (0, 1, 0))])
    assert not is_complementary(line, plane_containing)


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_is_complementary_matches_element_sets_exhaustive(spec, n):
    """The reference that every construction's NotComplement is checked
    against, checked itself against the definition on element sets."""
    subs = all_subspaces(spec, n)
    elements = {s: subspace_elements(s) for s in subs}
    zero = {(0,) * n}
    for u in subs:
        for v in subs:
            by_sets = u.dim + v.dim == n and elements[u] & elements[v] == zero
            assert is_complementary(u, v) == by_sets


# canonical isomorphism between complements

def test_canonical_iso_frozen_example():
    v = span([Vector(GF2, (1, 0))])
    u = span([Vector(GF2, (0, 1))])
    w = span([Vector(GF2, (1, 1))])
    iso = canonical_iso(v, u, w)
    assert map_apply(iso, Vector(GF2, (0, 1))) == Vector(GF2, (1, 1))


def test_canonical_iso_same_complement_is_identity():
    for sub in all_subspaces(GF3, 2):
        for u in complements_of(sub):
            iso = canonical_iso(sub, u, u)
            assert iso.matrix == Matrix.identity(GF3, u.dim)


def test_canonical_iso_difference_lands_in_v_exhaustive():
    for sub in all_subspaces(GF2, 3):
        comps = complements_of(sub)
        for u in comps:
            for w in comps:
                iso = canonical_iso(sub, u, w)
                for entries in subspace_elements(u):
                    x = Vector(GF2, entries)
                    y = map_apply(iso, x)
                    assert contains(w, y)
                    diff = Vector(GF2, tuple(
                        GF2.sub(a, b) for a, b in zip(y.entries, x.entries)))
                    assert contains(sub, diff)


def test_canonical_iso_cocycle_exhaustive_gf2_cubed():
    for sub in all_subspaces(GF2, 3):
        comps = complements_of(sub)
        for u in comps:
            for w in comps:
                uw = canonical_iso(sub, u, w)
                assert compose(canonical_iso(sub, w, u), uw).matrix == \
                    Matrix.identity(GF2, u.dim)
                for x in comps:
                    assert compose(canonical_iso(sub, w, x), uw) == \
                        canonical_iso(sub, u, x)


def test_canonical_iso_rejects_non_complement():
    v = span([Vector(GF2, (1, 0, 0))])
    u = steinitz_complement(v)
    with pytest.raises(NotComplement):
        canonical_iso(v, u, v)
    with pytest.raises(NotComplement):
        canonical_iso(v, span([Vector(GF2, (0, 1, 0))]), u)


# graph / complement correspondence

def test_graph_frozen_example():
    u = span([Vector(GF2, (0, 1))])
    v = span([Vector(GF2, (1, 0))])
    f = SubspaceMap(u, v, Matrix.from_rows(GF2, [(1,)]))
    assert map_to_complement(f) == span([Vector(GF2, (1, 1))])
    zero_map = SubspaceMap(u, v, Matrix.zero(GF2, 1, 1))
    assert map_to_complement(zero_map) == u


def test_graph_rejects_non_complement():
    v = span([Vector(GF2, (1, 0, 0))])
    not_comp = span([Vector(GF2, (0, 1, 0))])
    f = SubspaceMap(not_comp, v, Matrix.zero(GF2, 1, 1))
    with pytest.raises(NotComplement):
        map_to_complement(f)
    with pytest.raises(NotComplement):
        complement_to_map(steinitz_complement(v), v, not_comp)


# complementarity, checked by the change-of-basis inversions

def old_complement_to_map(w: Subspace, v: Subspace, u: Subspace) -> SubspaceMap:
    """f(u) = i(u) - u, read off vector by vector."""
    iso = canonical_iso(v, u, w)
    spec = v.spec
    cols = []
    for b in u.basis_vectors():
        diff = tuple(spec.sub(x, y) for x, y in zip(map_apply(iso, b).entries, b.entries))
        cols.append(coords(v, Vector(spec, diff)).entries)
    data = tuple(tuple(col[i] for col in cols) for i in range(v.dim))
    return SubspaceMap(u, v, Matrix(spec, v.dim, u.dim, data))


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_complement_checks_match_is_complementary_exhaustive(spec, n):
    subs = all_subspaces(spec, n)
    for v in subs:
        for u in subs:
            vu = is_complementary(v, u)
            blocks = (SubspaceMap.identity(v), SubspaceMap.zero(u, v),
                      SubspaceMap.zero(u, u))
            pair = FittingPair(v, u, blocks[0], blocks[2])
            if vu:
                t = block_assemble(v, u, *blocks)
                assert block_decompose(t, v, u) == blocks
                assert fitting_decompose(fitting_assemble(pair)) == pair
            else:
                with pytest.raises(NotComplement):
                    block_assemble(v, u, *blocks)
                with pytest.raises(NotComplement):
                    fitting_assemble(pair)
            for w in subs:
                if vu and is_complementary(v, w):
                    assert complement_to_map(w, v, u) == \
                        old_complement_to_map(w, v, u)
                    continue
                with pytest.raises(NotComplement):
                    canonical_iso(v, u, w)
                with pytest.raises(NotComplement):
                    complement_to_map(w, v, u)


def test_complement_checks_reject_other_fields_and_ambients():
    v = span([Vector(GF2, (1, 0))])
    u = steinitz_complement(v)
    for other in (Subspace.full(GF3, 1), Subspace.full(GF2, 2)):
        for args in ((v, u, other), (v, other, u)):
            with pytest.raises(NotComplement):
                canonical_iso(*args)
        with pytest.raises(NotComplement):
            complement_to_map(other, v, u)
        with pytest.raises(NotComplement):
            block_decompose(Matrix.identity(GF2, 2), v, other)


# block decomposition

def test_block_decompose_frozen_examples():
    v = span([Vector(GF2, (1, 0))])
    u = span([Vector(GF2, (0, 1))])
    t = Matrix.from_rows(GF2, [(0, 1), (0, 0)])
    t_vv, t_uv, t_uu = block_decompose(t, v, u)
    assert t_vv.matrix == Matrix.zero(GF2, 1, 1)
    assert t_uv.matrix == Matrix.from_rows(GF2, [(1,)])
    assert t_uu.matrix == Matrix.zero(GF2, 1, 1)
    ident = Matrix.identity(GF2, 2)
    t_vv, t_uv, t_uu = block_decompose(ident, v, u)
    assert t_vv.matrix == Matrix.identity(GF2, 1)
    assert t_uv.matrix.is_zero()
    assert t_uu.matrix == Matrix.identity(GF2, 1)


def test_block_component_reading():
    # For u in U: T(u) = T_UV(u) + T_UU(u), components in V and U
    for sub in all_subspaces(GF3, 2):
        u = steinitz_complement(sub)
        for t in all_matrices(GF3, 2, 2):
            if not all(contains(sub, apply(t, b)) for b in sub.basis_vectors()):
                continue
            t_vv, t_uv, t_uu = block_decompose(t, sub, u)
            for b in sub.basis_vectors():
                assert apply(t, b) == map_apply(t_vv, b)
            for b in u.basis_vectors():
                got = apply(t, b)
                v_part = map_apply(t_uv, b)
                u_part = map_apply(t_uu, b)
                total = Vector(GF3, tuple(
                    GF3.add(a, c) for a, c in zip(v_part.entries, u_part.entries)))
                assert got == total


def test_block_roundtrip_exhaustive_gf2_cubed():
    for sub in all_subspaces(GF2, 3):
        u = steinitz_complement(sub)
        for t in all_matrices(GF2, 3, 3):
            invariant = all(contains(sub, apply(t, b)) for b in sub.basis_vectors())
            if invariant:
                t_vv, t_uv, t_uu = block_decompose(t, sub, u)
                assert block_assemble(sub, u, t_vv, t_uv, t_uu) == t
            else:
                with pytest.raises(NotInvariant):
                    block_decompose(t, sub, u)


# the Steinitz read cores against the general cores over [V | U]

def check_steinitz_reads(v: Subspace, ts) -> None:
    """For each operator rows t: ``_steinitz_blocks`` cuts the blocks that
    ``_decompose`` cuts over B = [V | U], U the Steinitz complement, and
    ``_steinitz_assemble`` builds from them what ``_assemble`` builds: T
    itself exactly when T maps V into V, and in every case an operator
    whose blocks are the same again."""
    kernel, n, pair = v.spec._kernel, v.ambient_dim, (v.rows, v.pivots)
    b, b_inv = _change_of_basis(v, steinitz_complement(v), "the Steinitz complement")
    for t in ts:
        *blocks, invariant = _decompose(kernel, n, v.dim, t, b, b_inv)
        assert _steinitz_blocks(kernel, n, pair, t) == tuple(blocks)
        built = _steinitz_assemble(kernel, n, pair, *blocks)
        assert built == _assemble(kernel, n, b, b_inv, *blocks)
        assert (built == t) is invariant
        assert _steinitz_blocks(kernel, n, pair, built) == tuple(blocks)


@pytest.mark.parametrize("spec,n", [(GF2, n) for n in range(4)] + [(GF3, n) for n in range(3)],
                         ids=str)
def test_steinitz_reads_match_the_general_cores_exhaustive(spec, n):
    """Every V, k = 0 and k = n included, against every operator."""
    ts = [t.data for t in all_matrices(spec, n, n)]
    for v in all_subspaces(spec, n):
        check_steinitz_reads(v, ts)


def _rows_strategy(spec, rows, cols):
    if spec == GF2:  # one block of bytes, an entry per low bit, shrinks fast at n = 64
        return st.binary(min_size=rows * cols, max_size=rows * cols).map(
            lambda b: tuple(tuple(x & 1 for x in b[i * cols:(i + 1) * cols])
                            for i in range(rows)))
    return st.lists(st.tuples(*[st.integers(0, spec.q - 1)] * cols),
                    min_size=rows, max_size=rows).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(GF2, 64), (GF3, 8), (GF9, 5), (GF4099, 6)]), st.data())
def test_steinitz_reads_match_the_general_cores_sampled(field_and_most, data):
    """Packed GF(2) rows up to n = 64, where a row spans several machine
    words, tables over a prime and an extension field, and the on-demand
    views: V is the span of up to n drawn rows, so k = 0 and k = n occur."""
    spec, most = field_and_most
    n = data.draw(st.integers(0, most))
    spanning = data.draw(_rows_strategy(spec, data.draw(st.integers(0, n)), n))
    v = Subspace(spec, n, _echelon(spec._kernel, spanning, n)[0])
    check_steinitz_reads(v, [data.draw(_rows_strategy(spec, n, n))])


# basis / automorphism torsor

def test_torsor_frozen_examples():
    full = Subspace.full(GF2, 2)
    ref = OrderedBasis.reference(full)
    assert basis_to_automorphism(ref).matrix == Matrix.identity(GF2, 2)
    swapped = OrderedBasis(full, (Vector(GF2, (0, 1)), Vector(GF2, (1, 0))))
    assert basis_to_automorphism(swapped).matrix == \
        Matrix.from_rows(GF2, [(0, 1), (1, 0)])


def all_ordered_bases(sub: Subspace) -> list[OrderedBasis]:
    elements = [Vector(sub.spec, e) for e in subspace_elements(sub)]
    out = []
    for picks in product(elements, repeat=sub.dim):
        try:
            out.append(OrderedBasis(sub, picks))
        except NotBasis:
            pass
    return out


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF3, 2)], ids=str)
def test_torsor_free_and_transitive(spec, n):
    full = Subspace.full(spec, n)
    bases = all_ordered_bases(full)
    autos = [SubspaceMap(full, full, m)
             for m in all_matrices(spec, n, n) if is_invertible(m)]

    def act(g: SubspaceMap, b: OrderedBasis) -> tuple:
        return tuple(map_apply(g, x) for x in b.vectors)

    ident = Matrix.identity(spec, n)
    for g in autos:
        for b in bases:
            if act(g, b) == b.vectors:
                assert g.matrix == ident
    for b in bases:
        for b2 in bases:
            g = compose(basis_to_automorphism(b2), map_inverse(basis_to_automorphism(b)))
            assert act(g, b) == b2.vectors


def test_automorphism_to_basis_rejects_singular():
    full = Subspace.full(GF2, 2)
    singular = SubspaceMap(full, full, Matrix.from_rows(GF2, [(1, 1), (1, 1)]))
    with pytest.raises(NotAutomorphism):
        automorphism_to_basis(singular)
    line = span([Vector(GF2, (1, 0))])
    with pytest.raises(DimensionMismatch):
        automorphism_to_basis(SubspaceMap(line, full, Matrix.zero(GF2, 2, 1)))


def test_ordered_basis_validation():
    full = Subspace.full(GF2, 2)
    with pytest.raises(NotBasis):
        OrderedBasis(full, (Vector(GF2, (1, 0)),))
    with pytest.raises(NotBasis):
        OrderedBasis(full, (Vector(GF2, (1, 0)), Vector(GF2, (1, 0))))
    line = span([Vector(GF2, (1, 0))])
    with pytest.raises(NotBasis):
        OrderedBasis(line, (Vector(GF2, (0, 1)),))


# JSON

def test_subspace_json_roundtrip():
    for sub in all_subspaces(GF3, 2):
        assert Subspace.from_json(sub.to_json()) == sub


def test_subspace_json_strictness():
    payload = {"field": {"p": 2}, "ambient": 2, "basis": [[1, 1], [0, 1]]}
    with pytest.raises(NotCanonical):
        Subspace.from_json(payload)
    for key, bad in [("ambient", 2.0), ("basis", [[1, 0.0]]), ("ambient", 5),
                     ("ambient", -1), ("basis", [[1, 0, 0]]), ("basis", [[1, True]])]:
        with pytest.raises(SchemaError):
            Subspace.from_json({**payload, "basis": [[1, 0]], key: bad})
    with pytest.raises(SchemaError):
        Subspace.from_json({**payload, "basis": [], "ambient": -1})


def test_trusted_outputs_check_their_public_inputs():
    """Constructions that build their result unchecked refuse inputs that
    would make it invalid."""
    line = span([Vector(GF2, (1, 0))])
    with pytest.raises(FieldMismatch):
        span([Vector(GF2, (1, 0))], spec=GF3)
    with pytest.raises(DimensionMismatch):
        span([Vector(GF2, (1, 0))], ambient_dim=3)
    for bad_dim in (-1, 2.0, True):
        with pytest.raises(SchemaError):
            span([], spec=GF2, ambient_dim=bad_dim)
    assert span([], spec=GF2, ambient_dim=2) == Subspace.zero(GF2, 2)
    with pytest.raises(FieldMismatch):
        from_coords(line, Vector(GF3, (2,)))
    u = steinitz_complement(line)
    good = (SubspaceMap.identity(line), SubspaceMap.zero(u, line), SubspaceMap.zero(u, u))
    assert block_assemble(line, u, *good) == Matrix.from_rows(GF2, [(1, 0), (0, 0)])
    for i, wrong in enumerate((SubspaceMap.zero(u, u), SubspaceMap.zero(line, line),
                               SubspaceMap.zero(line, line))):
        blocks = list(good)
        blocks[i] = wrong
        with pytest.raises(DimensionMismatch):
            block_assemble(line, u, *blocks)
