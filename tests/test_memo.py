"""Remembered facts: a Matrix keeps its RREF, inverse, nilpotency and
n-th power, a Subspace the [V | U] basis matrix of its last split.  Turning
every lookup into a miss must change no result, the facts must stay out
of equality, hashing, repr and JSON, and failures must repeat."""

from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GF2, GF3, GF4
from nilbij import (
    FieldSpec,
    Matrix,
    NotComplement,
    NotInvertible,
    Subspace,
    Vector,
    fitting_decompose,
    forward,
    inverse,
    is_invertible,
    is_nilpotent,
    linalg,
    mat_inv,
    rank,
    span,
    steinitz_complement,
    subspaces,
    verify_degree_refinement,
    verify_theorem,
)
from nilbij.subspaces import _change_of_basis

GF9 = FieldSpec(3, 2)
MEMO_CLASSES = (Matrix, Subspace)


def remembered(cls) -> list[str]:
    return [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def memo_off(mp: pytest.MonkeyPatch) -> None:
    """Make every remembered fact a plain property: each read recomputes,
    and nothing is stored on the value."""
    for cls in MEMO_CLASSES:
        for name in remembered(cls):
            mp.setattr(cls, name, property(vars(cls)[name].func))


def census_payloads(spec, n):
    report = verify_theorem(spec, n).to_json()
    del report["elapsed_s"]
    return report, [s.to_json() for s in verify_degree_refinement(spec, n)]


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2), (GF4, 2)])
def test_census_payloads_match_with_memo_off(spec, n):
    on = census_payloads(spec, n)
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        off = census_payloads(spec, n)
    assert off == on
    assert on[0]["ok"] and all(s["ok"] for s in on[1])


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
        off = round_trip(rows, spec, n)
    assert off == on
    assert on[2].data == rows


def test_memo_off_stores_nothing():
    q = Matrix(GF2, 3, 3, ((1, 1, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.MonkeyPatch.context() as mp:
        memo_off(mp)
        t, _ = inverse(q)
        pair = fitting_decompose(q)
    assert vars(q).keys() == vars(t).keys() == {"spec", "rows", "cols", "data"}
    assert vars(pair.V).keys() == {"spec", "ambient_dim", "rows", "pivots"}


def test_facts_stay_out_of_eq_hash_repr_and_json():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    m, fresh = Matrix(GF2, 3, 3, data), Matrix(GF2, 3, 3, data)
    assert is_invertible(m) is False
    assert "_inverse" not in vars(m)  # answered by rank, not by inverting
    with pytest.raises(NotInvertible):
        mat_inv(m)
    is_nilpotent(m)
    fitting_decompose(m)
    assert {"_rref", "_inverse", "_nilpotent", "_fitting_power"} <= vars(m).keys()
    assert m == fresh and hash(m) == hash(fresh)
    assert repr(m) == repr(fresh) and m.to_json() == fresh.to_json()

    v = span([Vector(GF2, (1, 1, 0))])
    u = steinitz_complement(v)
    _change_of_basis(v, u, "not a complement")
    assert u in vars(v)["_splits"]
    other = span([Vector(GF2, (1, 0, 0)), Vector(GF2, (0, 0, 1))])
    assert other != u
    _change_of_basis(v, other, "not a complement")
    assert vars(v)["_splits"].keys() == {other}  # only the last split is kept
    bare = Subspace(GF2, 3, v.rows, v.pivots)
    assert v == bare and hash(v) == hash(bare)
    assert repr(v) == repr(bare) and v.to_json() == bare.to_json()


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
    """Run ``call`` with ``rref`` recorded in every module that binds it;
    return its result and the matrices eliminated."""
    seen = []
    real = linalg.rref

    def recorded(a):
        seen.append(a)
        return real(a)

    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, subspaces):
            mp.setattr(module, "rref", recorded)
        return call(), seen


def test_each_direction_inverts_its_v_w_basis_once():
    data = ((1, 1, 0), (0, 0, 0), (0, 0, 1))
    pair = fitting_decompose(Matrix(GF2, 3, 3, data))
    assert 0 < pair.V.dim < 3 and pair.W != steinitz_complement(pair.V)
    v_w = tuple(a + b for a, b in zip(pair.V.basis_matrix().data, pair.W.basis_matrix().data))

    def inverts_v_w(seen):
        return sum(1 for a in seen if a.cols == 6 and tuple(r[:3] for r in a.data) == v_w)

    (t, v), seen = count_eliminations(lambda: inverse(Matrix(GF2, 3, 3, data)))
    assert inverts_v_w(seen) == 1
    assert len(seen) == 7  # 11 before the memo, 8 before R was checked by its inversion
    q, seen = count_eliminations(lambda: forward(t, v))
    assert q.data == data
    assert inverts_v_w(seen) == 1
    assert len(seen) == 6  # 9 before the memo
