"""The library validates at its boundary and builds its own values
trusted.  Routing the private factories back through the validating
public constructors must change no census result, nor any result of
the public Joyal calls, and raise nothing: every value the library
makes itself is one the public checks accept, already in the canonical
form those constructors would produce."""

from collections import Counter

import pytest

from conftest import AUDITS, GF2, GF3, patch_everywhere
from nilbij import (
    EndoFunction,
    Matrix,
    NilbijError,
    OrderedBasis,
    Subspace,
    SubspaceMap,
    Tree,
    Vector,
    all_endofunctions,
    joyal,
    joyal_forward,
    joyal_inverse,
    linalg,
    subspaces,
    verify_degree_refinement,
    verify_theorem,
)


FACTORIES = {
    "_matrix": (linalg._matrix, Matrix),
    "_vector": (linalg._vector, Vector),
    # the public constructor derives the pivots that the factory is given
    "_subspace": (subspaces._subspace, lambda spec, n, rows, _: Subspace(spec, n, rows)),
    "_ordered_basis": (subspaces._ordered_basis, OrderedBasis),
    "_map": (subspaces._map, SubspaceMap),
    "_endofunction": (joyal._endofunction, EndoFunction),
    "_tree": (joyal._tree, Tree),
}
JOYAL_FACTORIES = {"_endofunction", "_tree"}
LINEAR_FACTORIES = set(FACTORIES) - JOYAL_FACTORIES


def census_payloads(spec, n):
    """The census reports and the criterion-6 audits: ``forward`` and
    ``inverse`` build only matrices and vectors, and the public lemmas
    that the audits walk build the subspaces, maps and bases."""
    report = verify_theorem(spec, n).to_json()
    del report["elapsed_s"]
    strata = [s.to_json() for s in verify_degree_refinement(spec, n)]
    return report, strata, [audit(spec, n) for audit in AUDITS.values()]


def route_to_public_constructors(monkeypatch) -> Counter:
    """Patch each factory, in every nilbij module that binds it, to build
    through its public constructor; returns calls per factory."""
    calls = Counter()

    def checked(name, trusted, public):
        def build(*args):
            calls[name] += 1
            value = public(*args)
            assert vars(value) == vars(trusted(*args)), f"{name}{args} is not canonical"
            return value
        return build

    for name, (trusted, public) in FACTORIES.items():
        patch_everywhere(monkeypatch, trusted, checked(name, trusted, public))
    return calls


@pytest.mark.parametrize(
    "spec,n", [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2)],
    ids=["q2-n0", "q2-n1", "q2-n2", "q2-n3", "q3-n2"],
)
def test_trusted_values_pass_the_public_checks(monkeypatch, spec, n):
    expected = census_payloads(spec, n)
    calls = route_to_public_constructors(monkeypatch)
    try:
        got = census_payloads(spec, n)
    except NilbijError as exc:
        pytest.fail(f"a library-built value failed validation: {exc!r}")
    assert got == expected
    if n >= 2:
        assert set(calls) == LINEAR_FACTORIES


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trusted_endofunctions_pass_the_public_checks(monkeypatch, n):
    """The endofunctions and trees that ``all_endofunctions``,
    ``joyal_inverse`` and ``joyal_forward`` build trusted, over every
    function, are ones the public constructors accept unchanged.  The
    census walks tables and builds neither, so the public calls are
    driven here."""
    def round_trips():
        return [(f, marked, joyal_forward(*marked))
                for f in all_endofunctions(n) for marked in [joyal_inverse(f)]]

    expected = round_trips()
    calls = route_to_public_constructors(monkeypatch)
    try:
        got = round_trips()
    except NilbijError as exc:
        pytest.fail(f"a library-built endofunction or tree failed validation: {exc!r}")
    assert got == expected
    assert all(back == f for f, _, back in got)
    assert calls == {"_endofunction": 2 * n**n, "_tree": n**n}
