"""Exhaustive enumeration and verification over small (q, n).

Everything here is a finite, exact computation: counting nilpotent
operators, auditing the bijection, the per-degree refinement, and the
tree/function counts on the set-level side.  Enumeration is in
lexicographic element-code order (row-major, first entry most
significant).

Both bijections are audited by one walk, :func:`_walk`, over the
codomain, and proved by counting as in Joyal's proof of Cayley's
formula: if ``forward(inverse(x)) == x`` for every x, ``inverse`` is
injective; if it also lands in a domain measured to be as large as the
codomain, it is a bijection and ``forward`` its two-sided inverse.  The
walk also checks that each x and its preimage lie in matching strata:
dim im(Q^n) and the degree of v on the linear side, one periodic point
and equal marks on the set side.  The walk is the one judge of an
enumerated input: the constructions do not prove again that their
output lies in the domain, and a step that raises while x is judged
makes x fail, so a broken construction yields a report that is not
ok, never an escaped error.  Past its own domain check the walk calls
the unchecked cores of forward and degree, so each operator's
nilpotency is decided once, by the walk, and never read back from a
value.

All four walks run on tuples.  The three linear walks enumerate the
row tuples of :func:`_operator_rows` and hand them to the row kernel
and to the row cores ``_inverse``, ``_forward`` and ``_degree`` of
:mod:`nilbij.bijection`, so no ``Matrix`` or ``Vector`` is built per
element, save the four matrices that ``_inverse`` builds for the public
``rref`` and ``mat_inv``, three of them by ``errors._trusted``; the
public :func:`enumerate_operators` builds each operator by it too.
Each keys its strata by :func:`_stable_image_dim`, its own stable
power and rank on the rows, apart from ``_inverse``.  The Joyal walk
enumerates value tables and hands them to the table cores
``_joyal_inverse``, ``_joyal_forward`` and ``_eventually_constant`` of
:mod:`nilbij.joyal`, keying each tree by its edge tuple, so it builds
no ``EndoFunction`` and a ``Tree`` only to validate each distinct tree
once; like the linear walks, it squares each stable power where it is
asked for, twice per table.

The reports are records.  Each census decides its verdict ``ok`` once,
at the end of its walk where the tallies are, against
:func:`expected_strata` or the closed forms of the set side, and
stores it as a field; no method of a report computes anything from its
fields, so any values build one.  :func:`_table` writes the report
tables.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import product, repeat

from .bijection import _degree, _forward, _inverse
from .errors import BudgetExceeded, NilbijError, _json_int, _trusted
from .field import FieldSpec
from .joyal import Tree, _eventually_constant, _joyal_forward, _joyal_inverse
from .linalg import _SIZE_MAX, Matrix, _stable_power

__all__ = [
    "DEFAULT_BUDGET",
    "CensusReport",
    "DegreeStratum",
    "JoyalReport",
    "count_nilpotents",
    "enumerate_operators",
    "verify_degree_refinement",
    "verify_joyal",
    "verify_theorem",
]

DEFAULT_BUDGET = 1 << 24


def _check_budget(base: int, exp: int, budget: int, what: str) -> None:
    """Refuse ``base**exp`` evaluations above ``budget`` without computing
    the power: 2**budget.bit_length() > budget caps the exponent.  The
    budget is unbounded above, so the refusal does not format it."""
    if base ** min(exp, _json_int(budget, "budget", 0).bit_length()) > budget:
        raise BudgetExceeded(f"{what} needs {base}^{exp} evaluations, over the budget")


def _operator_rows(spec: FieldSpec, n: int, budget: int):
    """n, read as a size, the q^n rows of F_q^n, and the row tuples of
    every n x n operator over the field, lexicographic in element codes,
    as an iterator; n and the budget are checked at the call.

    The rows are built once, after the budget check, and each operator
    is a tuple of n of them: ``product`` over whole rows gives the same
    row-major order, first entry most significant, as ``product`` over
    the n² entries."""
    n = _json_int(n, "n", 0, _SIZE_MAX)
    _check_budget(spec.q, n * n, budget, f"enumerating {n}x{n} operators over GF({spec.q})")
    rows = tuple(product(range(spec.q), repeat=n))
    return n, rows, product(rows, repeat=n)


def enumerate_operators(spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET):
    """All n x n matrices over the field, lexicographic in element codes,
    as an iterator; n and the budget are checked at the call."""
    n, _, operators = _operator_rows(spec, n, budget)
    return (_trusted(Matrix, spec, n, n, data) for data in operators)


def _stable_image_dim(kernel, rows) -> int:
    """dim im(Q^n), the dimension of Q's Fitting V, without building V:
    the rank of the rows of Q's stable power Q^m, m the least power of
    two >= n."""
    return len(kernel.rref(_stable_power(kernel, rows), len(rows))[1])


def expected_strata(q: int, n: int) -> tuple[int, ...]:
    """Exact number of n x n operators over GF(q) with dim im(Q^n) = k,
    indexed by k = 0..n.

    Q is fixed by its Fitting data, chosen in turn: V = im(Q^n), one of
    [n k]_q subspaces; a complement W = ker(Q^n) of V, one of
    q^(k(n-k)); an automorphism of V, one of |GL_k(F_q)|; and a
    nilpotent operator on W, one of q^((n-k)(n-k-1)) (Fine and
    Herstein).  The counts sum to q^(n²).
    """
    strata = []
    for k in range(n + 1):
        gaussian = 1  # [n k]_q, exact: each partial product is [n i]_q
        for i in range(k):
            gaussian = gaussian * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
        gl_k = 1
        for i in range(k):
            gl_k *= q**k - q**i
        strata.append(gaussian * q ** (k * (n - k)) * gl_k * q ** ((n - k) * (n - k - 1)))
    return tuple(strata)


def count_nilpotents(spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustive count of nilpotent n x n operators over the field.

    The field's row kernel decides each operator on its row tuples, in
    the order of :func:`enumerate_operators`; no ``Matrix`` is built."""
    n, _, operators = _operator_rows(spec, n, budget)
    return sum(map(spec._kernel.nilpotent, operators, repeat(n)))


@dataclass(frozen=True)
class CensusReport:
    """Outcome of a full bijectivity audit at one (q, n) grid point: a
    record whose verdict ``ok`` :func:`verify_theorem` decides once.

    In the one-walk census every failing operator is one not known to
    be hit, so ``surjectivity_gap`` equals ``roundtrip_failures`` by
    construction; both keys stay so that the payload is stable.
    """

    q: int
    n: int
    total_operators: int
    nilpotent_count: int
    expected_nilpotents: int
    roundtrip_failures: int
    surjectivity_gap: int
    per_degree: tuple[tuple[int, int, int], ...]
    elapsed_s: float
    ok: bool

    def to_json(self) -> dict:
        return {**asdict(self), "per_degree": [list(row) for row in self.per_degree]}

    def render_table(self) -> str:
        grid = [f"{'degree':>6} {'left':>10} {'right':>10}"]
        grid += [f"{k:>6} {left:>10} {right:>10}" for k, left, right in self.per_degree]
        return _table(f"census over GF({self.q}), n = {self.n}", 22, [
            ("total operators", self.total_operators),
            ("nilpotent count", f"{self.nilpotent_count} (expected {self.expected_nilpotents})"),
            ("round-trip failures", self.roundtrip_failures),
            ("surjectivity gap", self.surjectivity_gap),
        ], grid, self.ok, self.elapsed_s)


def _table(title, width, fields, grid, ok, elapsed_s=None) -> str:
    """A report table: the title, one line per (label, value) field with
    the labels padded to ``width``, the grid lines, the status and, when
    the report is timed, the elapsed time."""
    lines = [title, *(f"{label:<{width}}{value}" for label, value in fields), *grid,
             f"{'status':<{width}}{'ok' if ok else 'FAILED'}"]
    if elapsed_s is not None:
        lines.append(f"{'elapsed':<{width}}{elapsed_s:.3f} s")
    return "\n".join(lines)


# What a construction raises on an input it cannot take: a refusal of
# the library's own value, or a broken internal invariant.  While a walk
# judges one element, either is that element's failure, never the run's.
# On the bijection's path the only NilbijError left is mat_inv refusing
# the R of _inverse, and no assert is left; a broken construction may
# still raise either.
_FAULTS = (NilbijError, AssertionError)


def _walk(elements, inverse, in_domain, forward, left_key, right_key):
    """One audit walk over a codomain; returns (failures, left, right).

    Each x tallies its stratum ``right_key(x)`` on the right.  It fails
    unless ``p = inverse(x)`` has ``in_domain(*p)``, ``forward(*p) == x``
    and ``left_key(*p) == right_key(x)``, or if one of these raises one
    of the ``_FAULTS``; otherwise it tallies that stratum on the left.
    """
    failures = 0
    left: Counter = Counter()
    right: Counter = Counter()
    for x in elements:
        k = right_key(x)
        right[k] += 1
        try:
            p = inverse(x)
            if in_domain(*p) and forward(*p) == x and left_key(*p) == k:
                left[k] += 1
                continue
        except _FAULTS:
            pass
        failures += 1
    return failures, left, right


def verify_theorem(
    spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET
) -> CensusReport:
    """Audit the bijection exhaustively at one grid point, in one walk.

    Q fails, and counts in the surjectivity gap, unless inverse(Q) is a
    pair (T, v) with T nilpotent, forward(T, v) == Q and degree(T, v)
    equal to dim im(Q^n).  With no failures and q^(n(n-1)) nilpotents,
    inverse injects the q^(n²) operators into as many pairs: no walk
    over the pairs is needed.  Stratum k is tallied on the right for
    every Q with dim im(Q^n) = k and on the left for every Q that
    passes; the nilpotent count is the right-hand stratum 0.
    """
    started = time.perf_counter()
    n, _, operators = _operator_rows(spec, n, budget)
    kernel = spec._kernel
    # T's nilpotency is decided once, as in_domain; the walk's short
    # circuit keeps the unchecked _forward and _degree from any T that fails it
    failures, left, right = _walk(
        operators, functools.partial(_inverse, spec), lambda t, v: kernel.nilpotent(t, n),
        functools.partial(_forward, kernel), functools.partial(_degree, kernel),
        functools.partial(_stable_image_dim, kernel),
    )
    degrees = sorted(right.keys() | set(range(n + 1)))  # every left key is a right key
    per_degree = tuple((k, left[k], right[k]) for k in degrees)
    # the nilpotent count is the right-hand tally of stratum 0, so
    # per_degree checks it too, against expected_strata(q, n)[0]
    expected = tuple((k, e, e) for k, e in enumerate(expected_strata(spec.q, n)))
    return CensusReport(
        q=spec.q,
        n=n,
        total_operators=spec.q ** (n * n),
        nilpotent_count=right[0],  # Q is nilpotent iff rank(Q^n) = 0
        expected_nilpotents=expected[0][1],
        roundtrip_failures=failures,
        surjectivity_gap=failures,
        per_degree=per_degree,
        elapsed_s=time.perf_counter() - started,
        ok=failures == 0 and per_degree == expected,
    )


@dataclass(frozen=True)
class DegreeStratum:
    """One row of the degree refinement table: a record whose verdict
    ``ok`` :func:`verify_degree_refinement` decides once."""

    k: int
    left_count: int
    right_count: int
    forward_consistent: bool
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def verify_degree_refinement(
    spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[DegreeStratum, ...]:
    """Count both sides of each degree stratum independently.

    Left: pairs (T, v) with T nilpotent and degree k.  Right: operators
    whose stabilized image has dimension k.  Also checks the forward
    map sends each left stratum into the matching right stratum.  Every
    k = 0..n gets a row, empty or not, and each row is ok only if both
    counts equal :func:`expected_strata`.  A pair whose degree or image
    raises one of the ``_FAULTS`` is tallied in no stratum, so the left
    counts fall short of the q^(n²) the rows expect together.
    """
    n, vectors, operators = _operator_rows(spec, n, budget)
    kernel = spec._kernel
    left: Counter[int] = Counter()
    right: Counter[int] = Counter()
    consistent: dict[int, bool] = {}
    for t in operators:
        dim = _stable_image_dim(kernel, t)
        right[dim] += 1
        if dim == 0:  # rank(T^m) = 0 proves T nilpotent, so the cores run unchecked
            for vec in vectors:
                try:
                    k = _degree(kernel, t, vec)
                    image_dim = _stable_image_dim(kernel, _forward(kernel, t, vec))
                except _FAULTS:
                    continue
                left[k] += 1
                consistent[k] = consistent.get(k, True) and image_dim == k
    # a degree row with k > n expects None, so it is never ok
    expected = dict(enumerate(expected_strata(spec.q, n)))
    rows = ((k, left[k], right[k], consistent.get(k, True))
            for k in sorted(left.keys() | right.keys() | set(range(n + 1))))
    return tuple(DegreeStratum(k, lc, rc, kept, lc == rc == expected.get(k) and kept)
                 for k, lc, rc, kept in rows)


@dataclass(frozen=True)
class JoyalReport:
    """Outcome of the set-level audit at one n: a record whose verdict
    ``ok`` :func:`verify_joyal` decides once."""

    n: int
    total_functions: int
    tree_count: int
    expected_trees: int
    eventually_constant_count: int
    expected_eventually_constant: int
    roundtrip_failures: int
    elapsed_s: float
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)

    def render_table(self) -> str:
        return _table(f"tree/function census, n = {self.n}", 28, [
            ("total functions", self.total_functions),
            ("distinct trees", f"{self.tree_count} (expected {self.expected_trees})"),
            ("eventually constant",
             f"{self.eventually_constant_count} (expected {self.expected_eventually_constant})"),
            ("round-trip failures", self.roundtrip_failures),
        ], (), self.ok, self.elapsed_s)


def verify_joyal(n: int, budget: int = DEFAULT_BUDGET) -> JoyalReport:
    """Audit the tree/function bijection exhaustively at one n, in one walk.

    A value table f fails unless ``_joyal_inverse(f)`` is an (edges, v,
    v2) that ``_joyal_forward`` maps back to f, with edges that the
    public ``Tree`` constructor accepts as they stand (run once per
    distinct edge tuple; a refusal is f's failure), and v == v2 exactly
    when f is eventually constant.  With no failures and n^(n-2) trees,
    the n^n functions inject into as many marked trees: no walk over the
    marked trees is needed.  The walk runs on tuples through the table
    cores of :mod:`nilbij.joyal`, so it builds a ``Tree`` only to
    validate each distinct tree, and no ``EndoFunction``.
    """
    started = time.perf_counter()
    n = _json_int(n, "n", 1, _SIZE_MAX)
    _check_budget(n, n, budget, f"verifying the tree bijection at n={n}")
    is_tree = functools.cache(lambda edges: Tree(n, edges).edges == edges)
    failures, _, right = _walk(
        product(range(n), repeat=n), _joyal_inverse, lambda edges, v, v2: is_tree(edges),
        functools.partial(_joyal_forward, n), lambda _, v, v2: v == v2, _eventually_constant,
    )
    trees, expected_trees = is_tree.cache_info().currsize, 1 if n == 1 else n ** (n - 2)
    constant, expected_constant = right[True], n ** (n - 1)
    return JoyalReport(
        n=n,
        total_functions=n**n,
        tree_count=trees,
        expected_trees=expected_trees,
        eventually_constant_count=constant,
        expected_eventually_constant=expected_constant,
        roundtrip_failures=failures,
        elapsed_s=time.perf_counter() - started,
        ok=trees == expected_trees and constant == expected_constant and failures == 0,
    )
