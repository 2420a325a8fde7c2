"""Remembered facts: the process keeps one row kernel for each field
with q <= 64, shared by equal specs; every value type, the field
included, keeps nothing but its fields, so it pickles and copies as
them and the census decides each fact once by the order of its own
calls.  Giving each spec its own tables must change no result, the
facts must stay out of equality, hashing, repr and JSON, failures must
repeat, and the census must decide each nilpotency, square each stable
power and build each value as often as pinned here: validated by its
``__post_init__``, or unchecked by ``errors._trusted``, counted by
class."""

import ast
import copy
import dataclasses
import inspect
import io
import math
import pickle
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilbij
from conftest import GF2, GF3, GF4, patch_everywhere
from nilbij import (
    EndoFunction,
    FieldSpec,
    Matrix,
    NilpotentPair,
    NotComplement,
    NotInvertible,
    OrderedBasis,
    Subspace,
    Tree,
    Vector,
    automorphism_to_basis,
    contains,
    coords,
    count_nilpotents,
    degree,
    field,
    fitting_assemble,
    fitting_decompose,
    forward,
    image_basis,
    inverse,
    is_complementary,
    is_invertible,
    is_nilpotent,
    joyal_inverse,
    kernel_basis,
    linalg,
    mat_inv,
    mat_pow,
    periodic_points,
    rank,
    span,
    steinitz_complement,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)
from nilbij.census import expected_strata
from nilbij.cli import canonical_dumps, main
from nilbij.errors import _trusted
from nilbij.field import _TABLE_MAX, _tabulated
from nilbij.subspaces import _change_of_basis

GF9 = FieldSpec(3, 2)
GF128 = FieldSpec(2, 7, (1, 1, 0, 0, 0, 0, 0, 1))  # x^7 + x + 1: past the table limit


def remembered(cls) -> list[str]:
    return [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def test_no_value_type_remembers_anything():
    classes = [value for value in map(vars(nilbij).get, nilbij.__all__) if inspect.isclass(value)]
    assert FieldSpec in classes and Matrix in classes and EndoFunction in classes
    assert [cls for cls in classes if remembered(cls)] == []


def test_no_module_caches_a_property():
    for path in sorted(Path(nilbij.__file__).parent.glob("*.py")):
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None) for node in ast.walk(ast.parse(path.read_text()))}
        assert "cached_property" not in names, path.name


# every value class of the package: the dataclasses of nilbij.__all__
VALUE_CLASSES = {cls for cls in map(vars(nilbij).get, nilbij.__all__)
                 if inspect.isclass(cls) and dataclasses.is_dataclass(cls)}


def values_over(spec):
    """One value of each class in ``VALUE_CLASSES``, the linear ones over
    spec and built by arithmetic in it; the trees, functions and reports
    hold no field."""
    q = Matrix(spec, 3, 3, ((1, 1, 0), (0, 0, 0), (0, 0, 1)))
    t, v = inverse(q)
    pair = fitting_decompose(q)
    f = EndoFunction(3, (1, 2, 1))
    return [spec, v, t, pair.V, pair.R, automorphism_to_basis(pair.R), pair,
            NilpotentPair(t, v), joyal_inverse(f)[0], f, verify_theorem(GF2, 2),
            verify_degree_refinement(GF2, 2)[0], verify_joyal(3)]


def keeps_only_its_fields(value) -> bool:
    """Whether ``value``, and each value it holds, keeps nothing but its
    dataclass fields."""
    if isinstance(value, tuple):
        return all(map(keeps_only_its_fields, value))
    if not dataclasses.is_dataclass(value):
        return True
    names = [f.name for f in dataclasses.fields(value)]
    return vars(value).keys() == set(names) and all(
        keeps_only_its_fields(getattr(value, name)) for name in names)


@pytest.mark.parametrize("spec", [GF2, GF9, FieldSpec(4099), GF128], ids=lambda s: f"GF{s.q}")
def test_every_value_copies_as_its_fields(spec):
    """After arithmetic, every value pickles and copies to an equal value
    that keeps only its fields, and a copied field reads the kernel its
    field already has: the shared tables up to the limit, views that
    compute the same values past it."""
    values = values_over(spec)
    assert {type(value) for value in values} == VALUE_CLASSES
    assert vars(spec).keys() == {"p", "k", "poly"}
    for value in values:
        assert keeps_only_its_fields(value)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert copied == value and keeps_only_its_fields(copied)
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        if spec.q <= _TABLE_MAX:
            assert copied._kernel is _tabulated(spec)
        top = spec.q - 1
        assert (copied.mul(top, top), copied.inv(top)) == (spec.mul(top, top), spec.inv(top))


def memo_off(mp: pytest.MonkeyPatch) -> None:
    """Un-share the row kernels: each kernel read after this builds its
    own tables instead of reading the shared kernel."""
    mp.setattr(field, "_tabulated", field._tabulated.__wrapped__)


def own_tables(spec: FieldSpec) -> FieldSpec:
    """An equal spec that, under ``memo_off``, shares no kernel with spec."""
    fresh = FieldSpec.from_json(spec.to_json())
    assert fresh == spec and fresh._kernel is not spec._kernel
    return fresh


def census_payloads(spec, n):
    report = verify_theorem(spec, n).to_json()
    del report["elapsed_s"]
    return report, [s.to_json() for s in verify_degree_refinement(spec, n)]


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2), (GF4, 2)])
def test_census_payloads_match_with_memo_off(spec, n):
    on = census_payloads(spec, n)
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        off = census_payloads(own_tables(spec), n)
    assert off == on
    assert on[0]["ok"] and all(s["ok"] for s in on[1])


def joyal_payloads():
    payloads = [verify_joyal(n).to_json() for n in range(1, 6)]
    for payload in payloads:
        del payload["elapsed_s"]
    return payloads


def test_joyal_payloads_match_with_memo_off():
    on = joyal_payloads()
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        off = joyal_payloads()
    assert off == on
    assert all(payload["ok"] for payload in on)


def round_trip(rows, spec, n):
    t, v = inverse(Matrix(spec, n, n, rows))
    return t, v, forward(t, v)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("spec,n", [(GF2, 8), (GF3, 6), (GF9, 5)])
def test_inverse_and_forward_match_with_memo_off(spec, n, data):
    entries = st.integers(0, spec.q - 1)
    rows = data.draw(st.tuples(*[st.tuples(*[entries] * n)] * n))
    on = round_trip(rows, spec, n)
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        off = round_trip(rows, own_tables(spec), n)
    assert off == on
    assert on[2].data == rows


def test_memo_off_stores_nothing():
    q = Matrix(GF2, 3, 3, ((1, 1, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        t, _ = inverse(q)
        pair = fitting_decompose(q)
        f = EndoFunction(3, (1, 2, 1))
        joyal_inverse(f)
    assert vars(q).keys() == vars(t).keys() == {"spec", "rows", "cols", "data"}
    assert vars(pair.V).keys() == {"spec", "ambient_dim", "rows", "pivots"}
    assert vars(f).keys() == {"n", "table"}


def test_facts_stay_out_of_eq_hash_repr_and_json():
    m = Matrix(GF2, 3, 3, ((1, 1, 0), (0, 0, 0), (0, 0, 1)))
    assert rank(m) == 2 and is_invertible(m) is False
    with pytest.raises(NotInvertible):
        mat_inv(m)
    assert is_nilpotent(m) is False
    assert len(kernel_basis(m)) == 1 and len(image_basis(m)) == 2
    fitting_decompose(m)
    assert vars(m).keys() == {"spec", "rows", "cols", "data"}  # nothing kept

    v = span([Vector(GF2, (1, 1, 0))])
    for u in (steinitz_complement(v), span([Vector(GF2, (1, 0, 0)), Vector(GF2, (0, 0, 1))])):
        _change_of_basis(v, u, "not a complement")
        assert vars(v).keys() == {"spec", "ambient_dim", "rows", "pivots"}  # no split kept
    bare = Subspace(GF2, 3, v.rows)
    assert v == bare and hash(v) == hash(bare)
    assert repr(v) == repr(bare) and v.to_json() == bare.to_json()

    f, fresh_f = EndoFunction(3, (1, 2, 1)), EndoFunction(3, (1, 2, 1))
    assert periodic_points(f) == (1, 2)
    assert vars(f).keys() == {"n", "table"}  # nothing kept
    assert f == fresh_f and hash(f) == hash(fresh_f)
    assert repr(f) == repr(fresh_f) and f.to_json() == fresh_f.to_json()


def test_failures_repeat():
    singular = Matrix(GF3, 2, 2, ((1, 2), (2, 1)))
    for _ in range(2):
        with pytest.raises(NotInvertible, match=r"rank 1 < 2"):
            mat_inv(singular)
    assert is_invertible(singular) is False and rank(singular) == 1
    fresh = Matrix(GF3, 2, 2, ((1, 2), (2, 1)))
    _, seen = count_eliminations(lambda: pytest.raises(NotInvertible, mat_inv, fresh))
    assert len(seen) == 1  # the message's rank comes from the [T | I] elimination

    line = span([Vector(GF2, (1, 0, 0))])
    plane = span([Vector(GF2, (1, 0, 0)), Vector(GF2, (0, 1, 0))])
    for what in ("first call", "second call"):
        with pytest.raises(NotComplement, match=what):
            _change_of_basis(plane, line, what)


def count_eliminations(call):
    """Run ``call`` with the ``rref`` of both row kernel types recorded;
    return its result and the (rows, cols) of each elimination."""
    seen = []

    def recording(real):
        def recorded(kernel, rows, cols):
            seen.append((rows, cols))
            return real(kernel, rows, cols)
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        for kernel in (field._Rows, field._PackedGF2):
            mp.setattr(kernel, "rref", recording(kernel.rref))
        return call(), seen


def test_forward_eliminates_only_its_orbit_and_inverse_only_its_image_and_r():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    q = Matrix(GF2, 3, 3, data)
    pair = fitting_decompose(q)
    assert 0 < pair.V.dim < 3 and pair.W != steinitz_complement(pair.V)
    v_w = tuple(zip(*(pair.V.rows + pair.W.rows)))  # [V | W], row-major
    r_i = tuple(row + irow for row, irow in zip(pair.R.matrix.data, ((1, 0), (0, 1))))

    # inverse spans im(Q^m) by one RREF of Q^m's transpose and inverts R;
    # the Steinitz split [V | U] is read off V's pivots, and T's U -> V
    # block is a series in R^-1: no W and no [V | W]
    (t, v), seen = count_eliminations(lambda: inverse(q))
    assert seen == [(tuple(zip(*linalg._stable_power(GF2._kernel, data))), 3), (r_i, 4)]
    assert not any(cols == 6 and tuple(r[:3] for r in rows) == v_w for rows, cols in seen)
    # forward assembles Q over the Steinitz split [V | U]: it spans the
    # orbit and eliminates nothing else, so no W and no [V | W]
    q, seen = count_eliminations(lambda: forward(t, v))
    assert q.data == data
    assert seen == [(GF2._kernel.orbit(t.data, v.entries), 3)]


def test_fitting_decompose_eliminates_once():
    q = Matrix(GF2, 3, 3, ((1, 1, 0), (0, 0, 0), (0, 0, 1)))
    # V and W come from one RREF of [Q^m^T | I]; R is not inverted, and
    # no [V | W] is
    pair, seen = count_eliminations(lambda: fitting_decompose(q))
    assert 0 < pair.V.dim < 3 and pair.W != steinitz_complement(pair.V)
    qm_t = zip(*linalg._stable_power(GF2._kernel, q.data))
    assert seen == [(tuple(a + b for a, b in zip(qm_t, linalg._identity_rows(3))), 6)]
    v_w = tuple(zip(*(pair.V.rows + pair.W.rows)))
    assert not any(tuple(r[:3] for r in rows) == v_w for rows, _ in seen)


def count_nilpotency_decisions(call):
    """Run ``call`` with the row kernel's ``nilpotent`` counted (the
    packed GF(2) kernel inherits it); return its result and the number
    of nilpotency decisions."""
    calls = 0
    real = field._Rows.nilpotent

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field._Rows, "nilpotent", counted)
        return call(), calls


def test_inverse_decides_nilpotency_never_and_forward_once():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    (t, v), decided = count_nilpotency_decisions(lambda: inverse(Matrix(GF2, 3, 3, data)))
    assert decided == 0  # neither S nor the rebuilt T: the census decides T
    q, decided = count_nilpotency_decisions(lambda: forward(t, v))
    assert q.data == data
    assert decided == 1  # T, by the public guard; not its U -> U block


def test_census_decides_nilpotency_once_per_operator():
    assert "nilpotent" not in vars(field._PackedGF2)
    report, decided = count_nilpotency_decisions(lambda: verify_theorem(GF2, 3))
    assert report.ok
    assert decided == 512  # each T once, as in_domain; _forward and _degree decide none
    strata, decided = count_nilpotency_decisions(lambda: verify_degree_refinement(GF2, 3))
    assert all(s.ok for s in strata)
    assert decided == 0  # rank(T^m) = 0 proves each T nilpotent


# Every value class that validates in a ``__post_init__``, but the field:
# a FieldSpec is only ever read from outside data, never derived.
VALIDATING = [cls for cls in map(vars(nilbij).get, nilbij.__all__) if inspect.isclass(cls)
              and "__post_init__" in vars(cls) and cls is not FieldSpec]


def count_builds(call):
    """Run ``call`` with the values it builds counted by class: the
    validated builds of every class in ``VALIDATING`` by its
    ``__post_init__``, and the unchecked builds of every class by
    ``errors._trusted``, in every nilbij module that binds it; return its
    result, the validated counts and the trusted counts."""
    validated, trusted = Counter(), Counter()

    def post_init(real):
        def counted(self):
            validated[type(self)] += 1
            return real(self)
        return counted

    def counted_trusted(cls, *values):
        trusted[cls] += 1
        return _trusted(cls, *values)

    with pytest.MonkeyPatch.context() as mp:
        for cls in VALIDATING:
            mp.setattr(cls, "__post_init__", post_init(cls.__post_init__))
        patch_everywhere(mp, _trusted, counted_trusted)
        return call(), validated, trusted


def test_the_census_walks_build_no_value_per_element():
    """The linear walks run on row tuples and the Joyal walk on value
    tables.  The degree walk builds no value; the theorem walk builds
    only the four of ``_inverse`` per operator, for the public ``rref``
    and ``mat_inv``: Q^m's transpose, its RREF, the validated R and R's
    inverse; the Joyal walk builds no function, and one validated
    ``Tree`` per distinct tree, n^(n-2) of them."""
    strata, validated, trusted = count_builds(lambda: verify_degree_refinement(GF2, 3))
    assert all(s.ok for s in strata)
    assert validated == trusted == {}
    report, validated, trusted = count_builds(lambda: verify_theorem(GF2, 3))
    assert report.ok
    assert validated == {Matrix: 512} and trusted == {Matrix: 3 * 512}
    report, validated, trusted = count_builds(lambda: verify_joyal(5))
    assert report.ok
    assert validated == {Tree: 5 ** 3} and trusted == {}


# over GF(3), dim V = 2 and W is not V's Steinitz complement
OPERATOR = Matrix(GF3, 4, 4, ((0, 0, 1, 2), (1, 1, 0, 0), (0, 2, 0, 2), (2, 2, 0, 0)))


def test_no_public_call_revalidates_a_value_the_library_built():
    """A public call validates its operands and builds its result
    trusted: of these calls on ``OPERATOR``, only the CLI validates a
    value, its payload and the R of ``_inverse``, and ``OrderedBasis``
    validates itself alone."""
    pair = fitting_decompose(OPERATOR)
    basis = automorphism_to_basis(pair.R)
    doc = canonical_dumps(OPERATOR.to_json())
    calls = {
        "fitting_decompose": (lambda: fitting_decompose(OPERATOR), pair, {}),
        "fitting_assemble": (lambda: fitting_assemble(pair), OPERATOR, {}),
        "cli inverse": (lambda: main(["inverse"], stdin=io.StringIO(doc), stdout=io.StringIO()),
                        0, {Matrix: 2}),
        "OrderedBasis": (lambda: OrderedBasis(pair.V, basis.vectors), basis, {OrderedBasis: 1}),
    }
    for name, (call, result, builds) in calls.items():
        got, validated, _ = count_builds(call)
        assert got == result and validated == builds, name
    # one product of R's columns by V's rows: a trusted Vector per image
    got, validated, trusted = count_builds(lambda: automorphism_to_basis(pair.R))
    assert got == basis and validated == {} and trusted[Vector] == pair.V.dim == 2
    got, validated, trusted = count_builds(lambda: is_complementary(pair.V, pair.W))
    assert got is True and validated == trusted == {}


def test_each_fact_builds_only_its_result():
    """A fact that holds rows reads them: ``rank``, ``is_invertible`` and
    ``contains`` build nothing, and the others only their result, with
    no RREF ``Matrix`` or residue ``Vector`` built and thrown away."""
    pair = fitting_decompose(OPERATOR)
    basis = automorphism_to_basis(pair.R)
    x = Vector(GF3, (1, 1, 0, 2))  # the sum of V's reference basis
    calls = {
        "rank": (lambda: rank(OPERATOR), {}, {}),
        "is_invertible": (lambda: is_invertible(OPERATOR), {}, {}),
        "kernel_basis": (lambda: kernel_basis(OPERATOR), {}, {Vector: 1}),
        "image_basis": (lambda: image_basis(OPERATOR), {}, {Vector: 3}),
        "contains": (lambda: contains(pair.V, x), {}, {}),
        "coords": (lambda: coords(pair.V, x), {}, {Vector: 1}),
        "OrderedBasis": (lambda: OrderedBasis(pair.V, basis.vectors), {OrderedBasis: 1}, {}),
        "automorphism_to_basis": (lambda: automorphism_to_basis(pair.R), {},
                                  {OrderedBasis: 1, Vector: 2}),
        "fitting_assemble": (lambda: fitting_assemble(pair), {}, {Matrix: 1}),
    }
    for name, (call, validated_builds, trusted_builds) in calls.items():
        _, validated, trusted = count_builds(call)
        assert validated == validated_builds and trusted == trusted_builds, name
    assert contains(pair.V, x) and coords(pair.V, x).entries == (1, 1)


def test_each_census_verdict_is_decided_once():
    """Each linear walk calls ``expected_strata`` once, where its tallies
    are, and stores the verdict: reading ``ok`` and ``to_json`` again
    calls it no more."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return expected_strata(*args)

    with pytest.MonkeyPatch.context() as mp:
        patch_everywhere(mp, expected_strata, counted)
        report = verify_theorem(GF2, 3)
        assert calls == 1
        strata = verify_degree_refinement(GF2, 3)
        assert calls == 2
        for _ in range(3):
            assert report.ok and report.to_json()["ok"]
            assert all(s.ok and s.to_json()["ok"] for s in strata)
        assert calls == 2


def count_products(call):
    """Run ``call`` with the ``product`` of both row kernel types
    counted; return its result and the number of raw products."""
    calls = 0

    def counting(real):
        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for kernel in (field._Rows, field._PackedGF2):
            mp.setattr(kernel, "product", counting(kernel.product))
        return call(), calls


def test_stable_power_squares_ceil_log2_n_times():
    for spec in (GF2, GF3):
        for n in range(18):
            m = Matrix.identity(spec, n)
            _, seen = count_products(lambda: linalg._stable_power(spec._kernel, m.data))
            assert seen == (math.ceil(math.log2(n)) if n > 1 else 0), n
    t = Matrix.identity(GF3, 7)
    _, seen = count_products(lambda: mat_pow(t, 7))
    assert seen == 4  # square-and-multiply; the stable power of a 7x7 takes 3


@pytest.mark.parametrize("spec,n,products", [(GF3, 3, 8_642), (GF9, 2, 728)], ids=str)
def test_nilpotency_census_squarings(spec, n, products):
    # a nonzero trace of T**e rejects before the next squaring; squaring
    # every power up to e >= n takes 39,260 and 6,560 products
    count, seen = count_products(lambda: count_nilpotents(spec, n))
    assert count == spec.q ** (n * (n - 1))
    assert seen == products


def test_the_orbit_is_one_kernel_call():
    """``forward`` and ``degree`` walk the orbit in one call of the row
    kernel, not one ``apply`` per vector, and the kernel's walk
    transposes T itself: no product."""
    t = Matrix(GF2, 3, 3, ((0, 0, 0), (1, 0, 0), (1, 1, 0)))  # e_1 has degree 3
    v = Vector(GF2, (1, 0, 0))
    applied = 0
    real = linalg.apply

    def counted(*args):
        nonlocal applied
        applied += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        patch_everywhere(mp, real, counted)
        assert inverse(forward(t, v)) == (t, v)
        assert degree(t, v) == 3
    assert applied == 0
    orbit, seen = count_products(lambda: GF2._kernel.orbit(t.data, v.entries))
    assert orbit == ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    assert seen == 0
