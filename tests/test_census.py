"""Census engine: enumeration order, counts, reports, budget guard,
and broken bijections being reported."""

import functools
import io
import json
import operator
import sys
from itertools import product

import pytest

import nilbij.census
import nilbij.field
import nilbij.subspaces
from conftest import AUDITS, GF2, GF3, GF4, all_vectors, patch_everywhere
from nilbij import (
    BudgetExceeded,
    FieldSpec,
    FittingPair,
    Matrix,
    NotComplement,
    OrderedBasis,
    SchemaError,
    SubspaceMap,
    Vector,
    all_endofunctions,
    count_nilpotents,
    degree,
    enumerate_operators,
    forward,
    inverse,
    is_nilpotent,
    joyal,
    linalg,
    mat_mul,
    span,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)
from nilbij.census import DEFAULT_BUDGET
from nilbij.cli import main
from test_bijection import nilpotents, ref_forward
from test_relations import direct_sum_mismatches


def test_enumeration_order_and_count():
    ops = list(enumerate_operators(GF2, 1))
    assert [m.data for m in ops] == [((0,),), ((1,),)]
    ops = list(enumerate_operators(GF2, 2))
    assert len(ops) == 16
    assert ops[0] == Matrix.zero(GF2, 2, 2)
    assert ops[1].data == ((0, 0), (0, 1))  # last entry least significant
    assert ops[-1].data == ((1, 1), (1, 1))
    assert len(set(ops)) == 16


def test_enumeration_matches_product_reference():
    # row-major over the flat n² entries, first entry most significant
    for spec, n in ((GF2, 0), (GF2, 1), (GF2, 3), (GF3, 2), (GF4, 2)):
        ref = [
            Matrix(spec, n, n, tuple(flat[i * n : (i + 1) * n] for i in range(n)))
            for flat in product(range(spec.q), repeat=n * n)
        ]
        assert list(enumerate_operators(spec, n)) == ref, (spec, n)


def test_count_nilpotents_frozen():
    assert count_nilpotents(GF2, 2) == 4
    assert count_nilpotents(GF3, 2) == 9
    assert count_nilpotents(GF2, 3) == 64


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_nilpotents(GF2, 4, budget=100)
    with pytest.raises(BudgetExceeded):
        verify_theorem(GF2, 3, budget=100)
    with pytest.raises(BudgetExceeded):
        verify_joyal(20)
    with pytest.raises(BudgetExceeded):
        verify_degree_refinement(FieldSpec(5), 4)
    with pytest.raises(BudgetExceeded):  # at the call, before any item is drawn
        enumerate_operators(GF2, 5, budget=10)
    # 2^30 vectors would not fit: the guard must fire before they are built
    with pytest.raises(BudgetExceeded):
        verify_theorem(FieldSpec(2), 30)
    with pytest.raises(BudgetExceeded):
        verify_degree_refinement(FieldSpec(2), 30)
    # the guard decides without computing q^(n²) or n^n, and names the
    # size as a power: these powers have up to 69 million digits
    for census, *args in ((count_nilpotents, GF3, 12000), (count_nilpotents, GF2, 200),
                          (verify_theorem, GF2, 200), (verify_degree_refinement, GF2, 200),
                          (verify_joyal, 2000)):
        with pytest.raises(BudgetExceeded, match=r"needs \d+\^\d+ evaluations"):
            census(*args)
    # and before the q^n rows of an operator, or a row-code table, are
    # built: GF(2) and GF(4) at n = 3 are below the row-code cap
    def no_rows(*args, **kwargs):
        raise AssertionError("rows built before the budget check")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nilbij.census, "product", no_rows)
        mp.setattr(nilbij.field._RowCodes, "__init__", no_rows)
        for spec, n, budget in ((GF2, 200, DEFAULT_BUDGET), (GF3, 12000, DEFAULT_BUDGET),
                                (GF2, 3, 100), (GF4, 3, 100)):
            with pytest.raises(BudgetExceeded):
                count_nilpotents(spec, n, budget)


def test_row_codes_are_built_up_to_the_cap_and_never_past_it(monkeypatch):
    """``count_nilpotents`` walks row codes while F_q^n has at most
    ``_ROW_CODES_MAX`` rows: GF(16) at n = 2 is at the cap, and GF(17)
    at n = 2 past it counts on the field's row kernel, building no
    table."""
    built = []
    real = nilbij.field._RowCodes.__init__

    def recorded(codes, kernel, q, n):
        if q**n > nilbij.census._ROW_CODES_MAX:
            raise AssertionError(f"row codes built for GF({q})^{n}")
        built.append((q, n))
        real(codes, kernel, q, n)

    monkeypatch.setattr(nilbij.field._RowCodes, "__init__", recorded)
    assert 16**2 == nilbij.census._ROW_CODES_MAX < 17**2
    assert count_nilpotents(FieldSpec(2, 4), 2) == 16**2
    assert count_nilpotents(FieldSpec(17), 2) == 17**2
    assert built == [(16, 2)]


def test_census_entry_points_read_n_and_budget_as_integers():
    """A bool, float or str size or budget is refused, not read as the
    integer it compares equal to, nor left to fail as a TypeError; the
    enumerations refuse one at the call, before any item is drawn."""
    for census, *args in ((count_nilpotents, GF2, True), (count_nilpotents, GF2, 2.5),
                          (count_nilpotents, GF2, 2, "600"), (verify_theorem, GF2, 2.0),
                          (verify_degree_refinement, GF2, False), (verify_joyal, True),
                          (verify_joyal, 2.5), (verify_joyal, 3, 600.0),
                          (enumerate_operators, GF2, 2.5), (enumerate_operators, GF2, -1),
                          (all_endofunctions, "a"), (all_endofunctions, 0)):
        with pytest.raises(SchemaError):
            census(*args)


def test_verify_theorem_smallest_grid():
    report = verify_theorem(GF2, 1)
    assert report.total_operators == 2
    assert report.nilpotent_count == 1
    assert report.expected_nilpotents == 1
    assert report.roundtrip_failures == 0
    assert report.surjectivity_gap == 0
    assert report.ok


def test_verify_theorem_gf2_dim2_full_report():
    report = verify_theorem(GF2, 2)
    assert report.q == 2 and report.n == 2
    assert report.total_operators == 16
    assert report.nilpotent_count == 4
    assert report.surjectivity_gap == 0
    assert report.per_degree == ((0, 4, 4), (1, 6, 6), (2, 6, 6))
    assert sum(left for _, left, _ in report.per_degree) == 16
    assert report.ok


def test_report_json_and_table():
    report = verify_theorem(GF3, 1)
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["per_degree"] == [[0, 1, 1], [1, 2, 2]]
    assert "elapsed_s" in payload
    text = report.render_table()
    assert "nilpotent count" in text
    assert "ok" in text


def test_broken_bijection_is_reported(monkeypatch):
    real_forward = nilbij.census._forward

    def forward_missing_identity(kernel, t, v):
        out = real_forward(kernel, t, v)
        return ZERO.data if out == IDENT.data else out

    monkeypatch.setattr(nilbij.census, "_forward", forward_missing_identity)
    report = verify_theorem(GF2, 2)
    assert report.roundtrip_failures > 0
    assert report.surjectivity_gap > 0
    assert not report.ok
    assert main(["verify-theorem", "--p", "2", "--n", "2", "--json"],
                stdout=io.StringIO()) == 1


# Mutants: each breaks one census input on one point.  Every one must
# make the report not ok and the CLI exit 1, never raise.

ZERO = Matrix.zero(GF2, 2, 2)
IDENT = Matrix.identity(GF2, 2)
CONST = (0, 0, 0, 0)  # value tables, as the Joyal walk enumerates them
IDENT_F = (0, 1, 2, 3)


def forward_wrong_on_one_pair(real):
    t, v = inverse(IDENT)
    pair = t.data, v.entries
    return lambda kernel, t, v: ZERO.data if (t, v) == pair else real(kernel, t, v)


def inverse_merges_two_operators(real):
    return lambda spec, q: real(spec, ZERO.data) if q == IDENT.data else real(spec, q)


def inverse_gives_a_non_nilpotent_t(real):
    def mutant(spec, q):
        t, v = real(spec, q)
        return (IDENT.data, v) if q == IDENT.data else (t, v)
    return mutant


def degree_off_by_one_on_one_stratum(real):
    def mutant(kernel, t, v):
        k = real(kernel, t, v)
        return k + 1 if k == 1 else k
    return mutant


def stable_image_dim_wrong_on_one_operator(real):
    return lambda kernel, q: real(kernel, q) + 1 if q == ZERO.data else real(kernel, q)


def swap_preimages(real_inverse, real_forward, x, y):
    """``inverse`` and ``forward`` with the preimages of x and y
    exchanged in both, so every round trip still holds: only a
    per-element stratum check sees it."""
    px, py = real_inverse(x), real_inverse(y)
    images = {px: y, py: x}

    def inverse(q):
        return py if q == x else px if q == y else real_inverse(q)

    def forward(*pair):
        return images[pair] if pair in images else real_forward(*pair)
    return inverse, forward


def inverse_and_forward_swap_degrees_0_and_2(real_inverse, real_forward):
    inverse, forward = swap_preimages(functools.partial(real_inverse, GF2),
                                      functools.partial(real_forward, GF2._kernel),
                                      ZERO.data, IDENT.data)
    return lambda spec, q: inverse(q), lambda kernel, t, v: forward(t, v)


# The census walks row tuples through the unchecked row cores _inverse,
# _forward and _degree, so a mutant of inverse, forward or degree
# replaces the core there, and compares rows.
THEOREM_MUTANTS = [
    ("_forward", forward_wrong_on_one_pair),
    ("_inverse", inverse_merges_two_operators),
    ("_inverse", inverse_gives_a_non_nilpotent_t),
    ("_degree", degree_off_by_one_on_one_stratum),
    ("_stable_image_dim", stable_image_dim_wrong_on_one_operator),
    (("_inverse", "_forward"), inverse_and_forward_swap_degrees_0_and_2),
]


def patch_mutant(monkeypatch, names, mutate):
    """Replace one census name, or a tuple of names together, by what
    ``mutate`` makes of the real callables."""
    if isinstance(names, str):
        monkeypatch.setattr(nilbij.census, names, mutate(getattr(nilbij.census, names)))
        return
    mutants = mutate(*(getattr(nilbij.census, name) for name in names))
    for name, mutant in zip(names, mutants):
        monkeypatch.setattr(nilbij.census, name, mutant)


@pytest.mark.parametrize(
    "name,mutate", THEOREM_MUTANTS, ids=[m.__name__ for _, m in THEOREM_MUTANTS]
)
def test_theorem_mutant_is_reported(monkeypatch, name, mutate):
    patch_mutant(monkeypatch, name, mutate)
    assert not verify_theorem(GF2, 2).ok
    assert main(["verify-theorem", "--p", "2", "--n", "2", "--json"],
                stdout=io.StringIO()) == 1


def test_strata_shifted_alike_on_both_sides_are_reported(monkeypatch):
    # stratum 1 moves to 2 on both sides and stratum 0 stays, so left
    # equals right in every row: only the closed form sees it
    def one_reads_as_two(real):
        return lambda *args: 2 if real(*args) == 1 else real(*args)

    for name in ("_degree", "_stable_image_dim"):
        monkeypatch.setattr(nilbij.census, name, one_reads_as_two(getattr(nilbij.census, name)))
    report = verify_theorem(GF2, 2)
    assert report.per_degree == ((0, 4, 4), (1, 0, 0), (2, 12, 12))
    assert report.roundtrip_failures == 0 and not report.ok
    strata = verify_degree_refinement(GF2, 2)
    assert [s.ok for s in strata] == [True, False, False]
    for args in (["verify-theorem"], ["verify-degrees"]):
        assert main(args + ["--p", "2", "--n", "2", "--json"], stdout=io.StringIO()) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_expected_strata_sum_to_all_operators(q):
    for n in range(7):
        strata = nilbij.census.expected_strata(q, n)
        assert len(strata) == n + 1
        assert strata[0] == q ** (n * (n - 1))  # the nilpotents
        assert sum(strata) == q ** (n * n)


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_strata_factor_as_the_construction_audits_count(spec, n):
    """Stratum k of expected_strata is Fitting data chosen in turn: a V of
    dimension k, a complement and an automorphism of V, as the complement
    and torsor audits tally them for each V, and a nilpotent on W."""
    complements = AUDITS["complements"](spec, n)[2]
    automorphisms = AUDITS["torsor"](spec, n)[2]
    strata = [0] * (n + 1)
    for v in complements:
        strata[v.dim] += complements[v] * automorphisms[v] * count_nilpotents(spec, n - v.dim)
    assert tuple(strata) == nilbij.census.expected_strata(spec.q, n)


def joyal_forward_wrong_on_one_triple(real):
    triple = joyal._joyal_inverse(IDENT_F)
    return lambda n, *t: CONST if t == triple else real(n, *t)


def joyal_inverse_merges_two_functions(real):
    return lambda f: real(CONST) if f == IDENT_F else real(f)


def joyal_inverse_gives_a_cycle_for_one_function(real):
    cyclic = ((0, 1), (0, 2), (0, 3), (1, 2))
    return lambda f: (cyclic, 0, 0) if f == CONST else real(f)


def joyal_inverse_doubles_an_edge_of_one_tree(real):
    # _joyal_forward reads the doubled edge as the tree itself, so the
    # round trips and the tree count hold: only validation sees it
    star = real(CONST)[0]
    doubled = star[:1] + star

    def mutant(f):
        edges, v, v2 = real(f)
        return (doubled if edges == star else edges), v, v2
    return mutant


def joyal_inverse_and_forward_swap_equal_and_distinct_marks(real_inverse, real_forward):
    # (T, a, a) and (T, a, a + 1) stay marked trees of T, so the tree
    # count holds too; the constant function now has distinct marks
    edges, a, _ = real_inverse(CONST)
    inverse, forward = swap_preimages(real_inverse, functools.partial(real_forward, 4),
                                      CONST, real_forward(4, edges, a, a + 1))
    return inverse, lambda n, *p: forward(*p)


# The Joyal walk runs value tables through the table cores
# _joyal_inverse and _joyal_forward, which take and return tuples, so a
# mutant of either replaces the core there, and compares tables and
# edge tuples.
JOYAL_MUTANTS = [
    ("_joyal_forward", joyal_forward_wrong_on_one_triple),
    ("_joyal_inverse", joyal_inverse_merges_two_functions),
    ("_joyal_inverse", joyal_inverse_gives_a_cycle_for_one_function),
    ("_joyal_inverse", joyal_inverse_doubles_an_edge_of_one_tree),
    (("_joyal_inverse", "_joyal_forward"), joyal_inverse_and_forward_swap_equal_and_distinct_marks),
]


@pytest.mark.parametrize(
    "name,mutate", JOYAL_MUTANTS, ids=[m.__name__ for _, m in JOYAL_MUTANTS]
)
def test_joyal_mutant_is_reported(monkeypatch, name, mutate):
    patch_mutant(monkeypatch, name, mutate)
    assert not verify_joyal(4).ok
    assert main(["verify-joyal", "--n", "4", "--json"], stdout=io.StringIO()) == 1


# Construction mutants: each breaks one construction, which its own
# criterion-6 audit must report and no other audit may.  None of the
# lemmas broken here lies on the path of the census: forward assembles
# Q over the Steinitz split and builds no graph, and inverse solves for
# T's U -> V block there and builds no W, so it runs no Fitting core
# either.  The criterion-6 Fitting audit is the only gate on that core.
# The last mutant breaks forward's own U -> V block, which no audit
# covers and the census catches.  A check of forward against
# ref_forward, which composes the lemmas, catches the graph core and
# the block alike.

def map_to_complement_drops_the_map(real):
    """The graph core reading f as zero, so the graph of every map is U."""
    return lambda kernel, n, v_rows, u_rows, f: real(
        kernel, n, v_rows, u_rows, tuple((0,) * len(row) for row in f))


def automorphism_to_basis_reverses_the_basis(real):
    return lambda r: OrderedBasis(r.domain, real(r).vectors[::-1])


def fitting_assemble_drops_s(real):
    return lambda pair: real(
        FittingPair(pair.V, pair.W, pair.R, SubspaceMap.zero(pair.W, pair.W)))


def fitting_transposes_r_and_s(real):
    """The Fitting core returning R and S transposed."""
    def mutant(kernel, q):
        v, w, r, s = real(kernel, q)
        return v, w, tuple(zip(*r)), tuple(zip(*s))
    return mutant


def zeros(rows):
    return tuple((0,) * len(row) for row in rows)


def u_to_v_block_drops_r_f(real):
    """Forward's U -> V block F T_UU - R F with R read as zero."""
    return lambda kernel, r, f, t_uu: real(kernel, zeros(r), f, t_uu)


def forward_parts_from_its_reference(spec, n):
    return any(forward(t, v) != ref_forward(t, v)
               for t in nilpotents(spec, n) for v in all_vectors(spec, n))


# (the audit it fails, if any, module owning the core, the core, mutant,
# whether verify_theorem(GF(2), 2) fails, whether forward and ref_forward
# part on a pair of GF(2)^2)
CONSTRUCTION_MUTANTS = [
    ("complements", nilbij.subspaces, "_graph", map_to_complement_drops_the_map, False, True),
    ("torsor", nilbij.subspaces, "automorphism_to_basis",
     automorphism_to_basis_reverses_the_basis, False, False),
    ("fitting", nilbij.fitting, "fitting_assemble", fitting_assemble_drops_s, False, False),
    ("fitting", nilbij.fitting, "_fitting", fitting_transposes_r_and_s, False, False),
    (None, nilbij.bijection, "_u_to_v", u_to_v_block_drops_r_f, True, True),
]


@pytest.mark.parametrize(
    "broken,owner,name,mutate,on_path,parts", CONSTRUCTION_MUTANTS,
    ids=[entry[3].__name__ for entry in CONSTRUCTION_MUTANTS],
)
def test_construction_mutant_fails_its_own_audit(
    monkeypatch, broken, owner, name, mutate, on_path, parts
):
    real = getattr(owner, name)
    patch_everywhere(monkeypatch, real, mutate(real))
    for construction, audit in AUDITS.items():
        failures, left, right, expected = audit(GF2, 2)
        if construction == broken:
            assert failures > 0
        else:
            assert failures == 0 and left == right == expected, construction
    assert verify_theorem(GF2, 2).ok is not on_path
    assert main(["verify-theorem", "--p", "2", "--n", "2", "--json"],
                stdout=io.StringIO()) == (1 if on_path else 0)
    assert forward_parts_from_its_reference(GF2, 2) is parts


# Construction faults: each breaks a construction on the path of forward
# and inverse so that it raises, or hands the census an operator that is
# not nilpotent, on some enumerated input.  The walk must count that
# input as failed, and the CLI exit 1 with a report, never 2.

def steinitz_split_refuses_a_line_of_the_plane(real):
    """The Steinitz blocks core refusing each line of the plane, as the
    inversion of a [V | U] that is no change of basis would."""
    def mutant(kernel, n, v, t):
        if (n, len(v[0])) == (2, 1):
            raise NotComplement("U is not a complement of V")
        return real(kernel, n, v, t)
    return mutant


def decompose_gives_inverse_a_non_nilpotent_t_uu(real):
    """The Steinitz blocks core giving T_UU = I when ``_inverse`` cuts the
    zero operator.  ``_forward`` cuts the same blocks of the same zero
    matrix for the pair (0, 0), so the mutant reads which function
    called it."""
    def mutant(kernel, n, v, t):
        blocks = real(kernel, n, v, t)
        if t != ZERO.data or sys._getframe(1).f_code.co_name != "_inverse":
            return blocks
        return blocks[:2] + (IDENT.data,)
    return mutant


# (module owning the core, the core, mutant, whether the degree walk meets
# it): the degree walk never calls inverse, where the second mutant acts
FAULT_MUTANTS = [
    (nilbij.subspaces, "_steinitz_blocks", steinitz_split_refuses_a_line_of_the_plane, True),
    (nilbij.subspaces, "_steinitz_blocks", decompose_gives_inverse_a_non_nilpotent_t_uu, False),
]


@pytest.mark.parametrize(
    "owner,name,mutate,on_degree_path", FAULT_MUTANTS,
    ids=[m.__name__ for _, _, m, _ in FAULT_MUTANTS],
)
def test_construction_fault_is_that_inputs_failure(
    monkeypatch, owner, name, mutate, on_degree_path
):
    real = getattr(owner, name)
    patch_everywhere(monkeypatch, real, mutate(real))
    report = verify_theorem(GF2, 2)
    assert report.roundtrip_failures > 0 and not report.ok
    strata = verify_degree_refinement(GF2, 2)
    assert all(s.ok for s in strata) is not on_degree_path
    commands = [["verify-theorem"]] + [["verify-degrees"]] * on_degree_path
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        assert main(command + ["--p", "2", "--n", "2", "--json"], stdout=out, stderr=err) == 1
        assert json.loads(out.getvalue())["ok"] is False and err.getvalue() == ""


# Near-miss mutants from the record of past changes, each with the
# cheapest check known to catch it and the checks known not to: the gap
# between them is on record, so a change that closes or widens it says so.

def shifted_split(kernel, n, v):
    """B = [V | U'] and its inverse, by ``linalg._inverse_rows``, for U'
    the span of e_j + b_1, j over V's free columns and b_1 V's first row.
    U' is a complement of V, but not the Steinitz one.  The sum e_j + b_1
    is GF(2)'s, the field of the checks that run it."""
    units = nilbij.subspaces._steinitz(n, v)
    shifted = [Vector(GF2, tuple(e ^ b for e, b in zip(row, v[0][0]))) for row in units]
    b = tuple(zip(*(v[0] + span(shifted, spec=GF2, ambient_dim=n).rows)))
    return b, linalg._inverse_rows(kernel, b, n)[0]


def steinitz_split_shifted_by_the_first_row(real):
    """Either Steinitz read core, ``_steinitz_blocks`` or
    ``_steinitz_assemble``, over [V | U'] of :func:`shifted_split` in
    place of [V | U], by the general cores ``_decompose`` and
    ``_assemble``; with V = 0 there is no first row, and U' = U."""
    if real.__name__ == "_steinitz_blocks":
        def mutant(kernel, n, v, t):
            if not v[0]:
                return real(kernel, n, v, t)
            split = shifted_split(kernel, n, v)
            return nilbij.subspaces._decompose(kernel, n, len(v[0]), t, *split)[:3]
        return mutant

    def mutant(kernel, n, v, t_vv, t_uv, t_uu):
        if not v[0]:
            return real(kernel, n, v, t_vv, t_uv, t_uu)
        split = shifted_split(kernel, n, v)
        return nilbij.subspaces._assemble(kernel, n, *split, t_vv, t_uv, t_uu)
    return mutant


def basis_to_automorphism_reading_the_basis_reversed(real):
    """The core of ``basis_to_automorphism`` reading the basis reversed."""
    return lambda pivots, vectors: real(pivots, vectors[::-1])


def or_for_xor(real):
    """``field.xor`` is read by ``_PackedGF2.combine``, ``product`` and
    ``orbit``: GF(2) row sums that add by OR, so 1 + 1 reads 1."""
    return operator.or_


def nilpotent_accepting_a_zero_trace_at_the_bound(real):
    """``_Rows.nilpotent`` that returns ``not trace`` in place of False
    at the bound e >= n, so a zero trace accepts there: I_2 over GF(2),
    every power of which has trace 0, reads nilpotent.  The census
    misses it, since its nilpotent count is the rank-0 stratum of the
    stable power, and so do ``verify_degree_refinement(GF2, 2)`` and
    ``count_nilpotents(GF2, 2)``, which walks row codes."""
    def mutant(kernel, rows, n):
        e = 1
        while any(map(any, rows)):
            trace = 0
            for i, row in enumerate(rows):
                trace = kernel.add[trace][row[i]]
            if trace or e >= n:
                return not trace
            rows = kernel.product(rows, rows, n)
            e *= 2
        return True
    return mutant


def row_codes_accepting_a_zero_trace_at_the_bound(real):
    """``_RowCodes.nilpotent``, the row-code twin of the mutant above:
    a zero trace accepts at the bound e >= n, so I_2 over GF(2) counts
    as nilpotent.  The census and ``is_nilpotent`` miss it, since
    neither walks row codes."""
    def mutant(codes, t, n):
        e = 1
        while any(t):
            trace = 0
            for i, code in enumerate(t):
                trace = codes.add[trace][codes.rows[code][i]]
            if trace or e >= n:
                return not trace
            t = codes.product(t, t)
            e *= 2
        return True
    return mutant


def row_sums_by_or(real):
    """``_RowCodes`` whose row-sum table is built by OR, the row-code
    twin of ``or_for_xor``: a GF(2) row code is the bit mask of its row,
    so rows that share a 1 add to their union, and J = [[1, 1], [1, 1]]
    squares to itself."""
    def mutant(codes, kernel, q, n):
        real(codes, kernel, q, n)
        size = len(codes.rows)
        codes.row_add = tuple(tuple(a | b for b in range(size)) for a in range(size))
    return mutant


def orbit_one_step_short(real):
    """``_Rows.orbit`` or ``_PackedGF2.orbit`` that stops at n - 1
    vectors in place of n: an orbit of full length n loses its last
    vector, a shorter one keeps all of its vectors."""
    return lambda kernel, rows, x: real(kernel, rows, x)[: len(rows) - 1]


def tabulated_unshared(real):
    """``FieldSpec._kernel`` calling the unwrapped builder of
    ``_tabulated``: every spec builds its own tables."""
    return real.__wrapped__


def kernel_memoizing_the_views(real):
    """``FieldSpec._kernel`` memoized by the spec's value past
    ``_TABLE_MAX`` too, where fields are unbounded in number."""
    return property(functools.cache(real.fget))


def u_to_v_block_drops_f_t_uu(real):
    """Forward's U -> V block F T_UU - R F with T_UU read as zero: the
    census misses it at GF(2) and GF(3), n = 2, where T_UU is an empty
    or 1 x 1 nilpotent, and catches it at GF(2), n = 3."""
    return lambda kernel, r, f, t_uu: real(kernel, r, f, zeros(t_uu))


def sylvester_series_stops_after_its_first_term(real):
    """Inverse's U -> V block with T_UU read as zero, so the series
    -sum_i R^-(i+1) X T_UU^i stops at its first term -R^-1 X: the census
    misses it at GF(2) and GF(3), n = 2, and catches it at GF(2), n = 3."""
    return lambda kernel, r_inv, x, t_uu: real(kernel, r_inv, x, zeros(t_uu))


J = Matrix.from_rows(GF2, [(1, 1), (1, 1)])  # J² = 2J = 0 over GF(2)
E1 = Vector(GF2, (1, 0))  # J e_1 = (1, 1) and J² e_1 = 0: an orbit of length 2
SHIFT3 = Matrix.from_rows(GF2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])  # e_1 -> e_2 -> e_3 -> 0
E3 = Vector(GF2, (0, 0, 1))  # V = <e_3>, so T_UU sends e_1 to e_2 and F T_UU != 0
# the GF(3) pair of test_cli.py::DATA_PINS, pinned to its bytes: V = <e_4>,
# R = (2), and X T_UU != 0, so F needs the series' second term
T3 = Matrix.from_rows(GF3, [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (0, 2, 1, 0)])
V3 = Vector(GF3, (0, 0, 0, 2))
Q3 = Matrix.from_rows(GF3, [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 2)])

# (name, modules or classes whose binding of each name it patches, the name
# or a tuple of names, mutant, the CHANGES.md entry it comes from, the
# cheapest check known to catch it, whether verify_theorem(GF(2), 2) is
# still ok under it).
# Each check returns True where the code is right.  The census misses
# the complement mutant because it proves a bijection, not which one.
NEAR_MISS_MUTANTS = [
    ("complement shifted by V's first row", (nilbij.subspaces, nilbij.bijection),
     ("_steinitz_blocks", "_steinitz_assemble"), steinitz_split_shifted_by_the_first_row,
     "CHANGES.md: `forward` ends in `block_assemble`",
     lambda: direct_sum_mismatches(GF2, 1, 1)[0] == 0, True),
    ("basis read reversed", (nilbij.subspaces, nilbij.bijection), "_automorphism",
     basis_to_automorphism_reading_the_basis_reversed,
     "CHANGES.md: one audit engine for the constructions",
     lambda: audit_passes(AUDITS["torsor"](GF2, 2)), False),
    ("packed product adds by OR", (nilbij.field,), "xor", or_for_xor,
     "CHANGES.md: the field owns its row kernel",
     lambda: mat_mul(J, J).is_zero(), False),
    ("zero trace accepts at the bound", (nilbij.field._Rows,), "nilpotent",
     nilpotent_accepting_a_zero_trace_at_the_bound,
     "CHANGES.md: the row kernel decides nilpotency",
     lambda: not is_nilpotent(Matrix.identity(GF2, 2)), True),
    ("row codes: zero trace accepts at the bound", (nilbij.field._RowCodes,), "nilpotent",
     row_codes_accepting_a_zero_trace_at_the_bound,
     "CHANGES.md: count_nilpotents walks row codes",
     lambda: count_nilpotents(GF2, 2) == 4, True),
    ("row codes: row sums by OR", (nilbij.field._RowCodes,), "__init__", row_sums_by_or,
     "CHANGES.md: count_nilpotents walks row codes",
     lambda: count_nilpotents(GF2, 2) == 4, True),
    ("orbit stops one step short", (nilbij.field._Rows, nilbij.field._PackedGF2), "orbit",
     orbit_one_step_short,
     "CHANGES.md: the bijection walks each orbit in one kernel call",
     lambda: degree(J, E1) == 2, False),
    ("each spec builds its own tables", (nilbij.field,), "_tabulated", tabulated_unshared,
     "CHANGES.md: each small field is tabulated once per process",
     lambda: FieldSpec(3, 2)._kernel is FieldSpec(3, 2)._kernel, True),
    ("views memoized past the table limit", (FieldSpec,), "_kernel",
     kernel_memoizing_the_views,
     "CHANGES.md: each small field is tabulated once per process",
     lambda: FieldSpec(4099)._kernel is not FieldSpec(4099)._kernel, True),
    ("U -> V block drops F T_UU", (nilbij.bijection,), "_u_to_v", u_to_v_block_drops_f_t_uu,
     "CHANGES.md: forward builds Q over the Steinitz split alone",
     lambda: forward(SHIFT3, E3) == ref_forward(SHIFT3, E3), True),
    ("Sylvester series stops after its first term", (nilbij.bijection,), "_sylvester",
     sylvester_series_stops_after_its_first_term,
     "CHANGES.md: inverse in closed form over the Steinitz split",
     lambda: inverse(Q3) == (T3, V3), True),
]


def audit_passes(result):
    failures, left, right, expected = result
    return failures == 0 and left == right == expected


@pytest.mark.parametrize(
    "entry", NEAR_MISS_MUTANTS, ids=[entry[0] for entry in NEAR_MISS_MUTANTS]
)
def test_near_miss_mutant_is_caught_only_where_recorded(monkeypatch, entry):
    _, modules, names, mutate, _, catches, theorem_misses = entry
    assert catches() and verify_theorem(GF2, 2).ok
    for module in modules:
        for name in (names,) if isinstance(names, str) else names:
            monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert not catches()
    assert verify_theorem(GF2, 2).ok is theorem_misses


def test_degree_refinement_gf2_dim2():
    strata = verify_degree_refinement(GF2, 2)
    assert [(s.k, s.left_count, s.right_count) for s in strata] == [
        (0, 4, 4), (1, 6, 6), (2, 6, 6)]
    assert all(s.forward_consistent and s.ok for s in strata)
    assert sum(s.right_count for s in strata) == 16


def test_degree_refinement_zero_stratum_is_nilpotent_count():
    for spec, n in [(GF2, 2), (GF3, 2)]:
        strata = verify_degree_refinement(spec, n)
        assert strata[0].k == 0
        assert strata[0].left_count == count_nilpotents(spec, n)
        assert strata[0].right_count == strata[0].left_count


def test_verify_joyal_report():
    report = verify_joyal(3)
    assert report.total_functions == 27
    assert report.tree_count == 3
    assert report.eventually_constant_count == 9
    assert report.roundtrip_failures == 0
    assert report.ok
    payload = report.to_json()
    assert payload["expected_trees"] == 3
    assert "joyal" not in report.render_table()  # plain terms only
    assert "distinct trees" in report.render_table()


def test_verify_joyal_single_vertex():
    report = verify_joyal(1)
    assert report.tree_count == 1
    assert report.eventually_constant_count == 1
    assert report.ok
