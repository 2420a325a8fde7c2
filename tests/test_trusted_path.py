"""The library validates at its boundary and builds its own values
trusted, by the one unchecked build ``errors._trusted``.  Routing it
back through the validating public constructor of each class must
change no census result, nor any result of the public Joyal calls, the
bijection or the Fitting decomposition, and raise nothing: every value
the library makes itself is one the public checks accept, already in
the canonical form those constructors would produce.  A construction
that builds a value out of canonical form must make the route raise."""

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilbij
from conftest import AUDITS, GF2, GF3, patch_everywhere
from nilbij import (
    EndoFunction,
    FieldSpec,
    FittingPair,
    Matrix,
    NilbijError,
    NilpotentPair,
    NotCanonical,
    OrderedBasis,
    Subspace,
    SubspaceMap,
    Tree,
    Vector,
    all_endofunctions,
    fitting_decompose,
    forward,
    inverse,
    joyal,
    joyal_forward,
    joyal_inverse,
    span,
    subspaces,
    verify_degree_refinement,
    verify_theorem,
)
from nilbij.errors import _trusted
from test_cli import DATA_PINS, run as run_cli

GF9 = FieldSpec(3, 2)
GF4099 = FieldSpec(4099)  # past the table limit: the on-demand kernel
GF128 = FieldSpec(2, 7, (1, 1, 0, 0, 0, 0, 0, 1))  # x^7 + x + 1, on demand too


def census_payloads(spec, n):
    """The census reports and the criterion-6 audits: ``forward`` and
    ``inverse`` build only matrices and vectors, and the public lemmas
    that the audits walk build the subspaces, maps and bases."""
    report = verify_theorem(spec, n).to_json()
    del report["elapsed_s"]
    strata = [s.to_json() for s in verify_degree_refinement(spec, n)]
    return report, strata, [audit(spec, n) for audit in AUDITS.values()]


def route_to_public_constructors(monkeypatch) -> Counter:
    """Patch ``_trusted``, in every nilbij module that binds it, to build
    through the public constructor of its class, given the same
    arguments; returns calls per class."""
    calls = Counter()

    def checked(cls, *values):
        calls[cls] += 1
        built = cls(*values)
        assert vars(built) == vars(_trusted(cls, *values)), (
            f"_trusted({cls.__name__}, {values}) is not canonical")
        return built

    patch_everywhere(monkeypatch, _trusted, checked)
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
        assert set(calls) == {Matrix, Vector, Subspace, OrderedBasis, SubspaceMap, FittingPair}


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
    assert calls == {EndoFunction: 2 * n**n, Tree: n**n}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(GF2, 16), (GF3, 6), (GF9, 5), (GF4099, 4), (GF128, 4)]), st.data())
def test_trusted_values_pass_the_public_checks_past_the_census(point, data):
    """The census points stop at n = 3; the benchmark's random operators
    (GF(2) n = 16 on the packed kernel, GF(3) n = 6 and GF(9) n = 5 on
    tables) and two fields past the table limit, on demand, run
    ``inverse``, ``forward`` on its pair and ``fitting_decompose`` to
    the same results through the public constructors."""
    spec, n = point
    row = st.tuples(*[st.integers(0, spec.q - 1)] * n)
    q = Matrix(spec, n, n, data.draw(st.tuples(*[row] * n)))

    def run():
        t, v = inverse(q)
        return t, v, forward(t, v), fitting_decompose(q)

    expected = run()
    with pytest.MonkeyPatch.context() as mp:
        calls = route_to_public_constructors(mp)
        got = run()
    assert got == expected and got[2] == q
    assert set(calls) == {Matrix, Vector, Subspace, SubspaceMap, FittingPair}


def test_cli_data_pins_hold_on_the_route(monkeypatch):
    """The data commands build their results trusted too: ``inverse``
    its ``NilpotentPair`` and ``fitting`` its ``FittingPair``.  Through
    the public constructors every pinned document gives the same bytes,
    where a refusal would exit 2."""
    calls = route_to_public_constructors(monkeypatch)
    for name, (command, doc, expected) in DATA_PINS.items():
        assert run_cli([command], doc + "\n") == (0, expected + "\n", ""), name
    assert {NilpotentPair, FittingPair} <= set(calls)


def joyal_inverse_leaves_its_edges_unsorted(real):
    def mutant(table):
        edges, v, v2 = real(table)
        return edges[::-1], v, v2
    return mutant


def echelon_reverses_its_rows(real):
    def mutant(kernel, rows, n):
        reduced, pivots = real(kernel, rows, n)
        return reduced[::-1], pivots
    return mutant


@pytest.mark.parametrize("real,mutate,call,error,message", [
    (joyal._joyal_inverse, joyal_inverse_leaves_its_edges_unsorted,
     lambda: joyal_inverse(EndoFunction(3, (0, 0, 0))), AssertionError, "is not canonical"),
    (subspaces._echelon, echelon_reverses_its_rows,
     lambda: span([Vector(GF2, (1, 0)), Vector(GF2, (0, 1))]), NotCanonical, "is not RREF"),
], ids=["joyal_inverse_leaves_its_edges_unsorted", "echelon_reverses_its_rows"])
def test_the_route_rejects_a_value_out_of_canonical_form(
    monkeypatch, real, mutate, call, error, message
):
    """A core that returns a value's fields out of canonical form builds
    it unchecked, and the route refuses it: the tree with edges
    ((0, 2), (0, 1)), and the span of e1 and e2 with its rows reversed."""
    patch_everywhere(monkeypatch, real, mutate(real))
    call()
    route_to_public_constructors(monkeypatch)
    with pytest.raises(error, match=message):
        call()


def test_trusted_is_the_one_unchecked_build():
    """No function of the library but ``errors._trusted`` calls a
    ``__new__``: every value that skips its constructor is built there."""
    calls = []
    for path in sorted(Path(nilbij.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            calls += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "__new__"]
    assert calls == [("errors", "_trusted")]
