"""Remembered facts: a Matrix keeps its RREF, inverse, nilpotency and
stable power, an EndoFunction the value table of its stable power, and
the process keeps one row kernel for each field with q <= 64, shared by
equal specs; a Subspace keeps nothing.
Turning every lookup into a miss, and giving each spec its own tables,
must change no result, the facts must stay out of equality, hashing,
repr and JSON, and failures must repeat."""

import math
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, GF4
from nilbij import (
    EndoFunction,
    FieldSpec,
    Matrix,
    NotComplement,
    NotInvertible,
    Subspace,
    Vector,
    count_nilpotents,
    degree,
    field,
    fitting_decompose,
    forward,
    inverse,
    is_invertible,
    is_nilpotent,
    joyal_inverse,
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
from nilbij.subspaces import _change_of_basis

GF9 = FieldSpec(3, 2)
MEMO_CLASSES = (Matrix, Subspace, EndoFunction)


def remembered(cls) -> list[str]:
    return [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def memo_off(mp: pytest.MonkeyPatch) -> None:
    """Make every remembered fact a plain property: each read recomputes,
    and nothing is stored on the value.  A spec made after this builds
    its own tables instead of reading the shared kernel."""
    for cls in MEMO_CLASSES:
        for name in remembered(cls):
            mp.setattr(cls, name, property(vars(cls)[name].func))
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
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    m, fresh = Matrix(GF2, 3, 3, data), Matrix(GF2, 3, 3, data)
    assert is_invertible(m) is False
    assert "_inverse" not in vars(m)  # answered by rank, not by inverting
    with pytest.raises(NotInvertible):
        mat_inv(m)
    is_nilpotent(m)
    fitting_decompose(m)
    assert {"_rref", "_inverse", "_nilpotent", "_stable_power"} <= vars(m).keys()
    assert m == fresh and hash(m) == hash(fresh)
    assert repr(m) == repr(fresh) and m.to_json() == fresh.to_json()

    v = span([Vector(GF2, (1, 1, 0))])
    for u in (steinitz_complement(v), span([Vector(GF2, (1, 0, 0)), Vector(GF2, (0, 0, 1))])):
        _change_of_basis(v, u, "not a complement")
        assert vars(v).keys() == {"spec", "ambient_dim", "rows", "pivots"}  # no split kept
    bare = Subspace(GF2, 3, v.rows)
    assert v == bare and hash(v) == hash(bare)
    assert repr(v) == repr(bare) and v.to_json() == bare.to_json()

    f, fresh_f = EndoFunction(3, (1, 2, 1)), EndoFunction(3, (1, 2, 1))
    assert periodic_points(f) == (1, 2)
    assert "_stable_power" in vars(f)
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


def test_each_direction_inverts_its_v_w_basis_once():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    pair = fitting_decompose(Matrix(GF2, 3, 3, data))
    assert 0 < pair.V.dim < 3 and pair.W != steinitz_complement(pair.V)
    v_w = tuple(zip(*(pair.V.rows + pair.W.rows)))  # [V | W], row-major

    def inverts_v_w(seen):
        return sum(1 for rows, cols in seen if cols == 6 and tuple(r[:3] for r in rows) == v_w)

    # Q^m's RREF, the spans V and W, [V | W] and R; the Steinitz split
    # [V | U] and the canonical map W -> U are read off V's pivots
    (t, v), seen = count_eliminations(lambda: inverse(Matrix(GF2, 3, 3, data)))
    assert inverts_v_w(seen) == 1
    assert len(seen) == 5
    q, seen = count_eliminations(lambda: forward(t, v))
    assert q.data == data
    assert inverts_v_w(seen) == 1
    assert len(seen) == 3  # the orbit's span, the graph W and [V | W]


def count_nilpotency_decisions(call):
    """Run ``call`` with ``Matrix._nilpotent`` counted; return its result
    and the number of nilpotency decisions actually computed."""
    calls = 0
    real = vars(Matrix)["_nilpotent"].func

    def counted(self):
        nonlocal calls
        calls += 1
        return real(self)

    fact = cached_property(counted)
    fact.__set_name__(Matrix, "_nilpotent")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "_nilpotent", fact)
        return call(), calls


def test_inverse_decides_nilpotency_never_and_forward_once():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    (t, v), decided = count_nilpotency_decisions(lambda: inverse(Matrix(GF2, 3, 3, data)))
    assert decided == 0  # neither S nor the rebuilt T: the census decides T
    fresh = Matrix(GF2, 3, 3, t.data)
    q, decided = count_nilpotency_decisions(lambda: forward(fresh, v))
    assert q.data == data
    assert decided == 1  # T, by the public guard; not its U -> U block


def test_census_decides_nilpotency_once_per_operator():
    report, decided = count_nilpotency_decisions(lambda: verify_theorem(GF2, 3))
    assert report.ok
    assert decided == 512  # each T once; forward and degree read it back
    strata, decided = count_nilpotency_decisions(lambda: verify_degree_refinement(GF2, 3))
    assert all(s.ok for s in strata)
    assert decided == 64  # each nilpotent T once, no pair


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
            _, seen = count_products(lambda: m._stable_power)
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
        for name, module in list(sys.modules.items()):
            if name.startswith("nilbij") and vars(module).get("apply") is real:
                mp.setattr(module, "apply", counted)
        assert inverse(forward(t, v)) == (t, v)
        assert degree(t, v) == 3
    assert applied == 0
    orbit, seen = count_products(lambda: GF2._kernel.orbit(t.data, v.entries))
    assert orbit == ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    assert seen == 0
