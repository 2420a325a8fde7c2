"""Exhaustive enumeration and verification over small (q, n).

Everything here is a finite, exact computation: counting nilpotent
operators, auditing both round trips of the bijection over the full
domain and codomain, the per-degree refinement, and the tree/function
counts on the set-level side.  Enumeration is in lexicographic
element-code order (row-major, first entry most significant).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .bijection import degree, forward, inverse
from .errors import BudgetExceeded, DimensionMismatch
from .field import FieldSpec
from .joyal import (
    Tree,
    all_endofunctions,
    is_eventually_constant,
    joyal_forward,
    joyal_inverse,
)
from .linalg import Matrix, Vector, _matrix, _vector, is_nilpotent, mat_pow, rank

DEFAULT_BUDGET = 1 << 24


def _check_budget(size: int, budget: int, what: str) -> None:
    if size > budget:
        raise BudgetExceeded(f"{what} needs {size} evaluations, budget is {budget}")


def _check_dim(n: int) -> None:
    if n < 0:
        raise DimensionMismatch(f"dimension must be nonnegative, got n={n}")


def enumerate_operators(spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET):
    """All n x n matrices over the field, lexicographic in element codes."""
    _check_dim(n)
    total = spec.q ** (n * n)
    _check_budget(total, budget, f"enumerating {n}x{n} operators over GF({spec.q})")
    for flat in product(range(spec.q), repeat=n * n):
        yield _matrix(spec, n, n, tuple(flat[i * n : (i + 1) * n] for i in range(n)))


def _all_vectors(spec: FieldSpec, n: int) -> list[Vector]:
    return [_vector(spec, entries) for entries in product(range(spec.q), repeat=n)]


def _stable_image_dim(q_op: Matrix) -> int:
    """dim im(Q^n), the dimension of Q's Fitting V, without building V."""
    return rank(mat_pow(q_op, q_op.rows))


def count_nilpotents(spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustive count of nilpotent n x n operators over the field."""
    return sum(1 for t in enumerate_operators(spec, n, budget) if is_nilpotent(t))


@dataclass(frozen=True)
class CensusReport:
    """Outcome of a full bijectivity audit at one (q, n) grid point."""

    q: int
    n: int
    total_operators: int
    nilpotent_count: int
    expected_nilpotents: int
    roundtrip_failures: int
    surjectivity_gap: int
    per_degree: tuple[tuple[int, int, int], ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return (
            self.nilpotent_count == self.expected_nilpotents
            and self.roundtrip_failures == 0
            and self.surjectivity_gap == 0
            and all(left == right for _, left, right in self.per_degree)
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "total_operators": self.total_operators,
            "nilpotent_count": self.nilpotent_count,
            "expected_nilpotents": self.expected_nilpotents,
            "roundtrip_failures": self.roundtrip_failures,
            "surjectivity_gap": self.surjectivity_gap,
            "per_degree": [list(row) for row in self.per_degree],
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }

    def render_table(self) -> str:
        lines = [
            f"census over GF({self.q}), n = {self.n}",
            f"{'total operators':<22}{self.total_operators}",
            f"{'nilpotent count':<22}{self.nilpotent_count} (expected {self.expected_nilpotents})",
            f"{'round-trip failures':<22}{self.roundtrip_failures}",
            f"{'surjectivity gap':<22}{self.surjectivity_gap}",
            f"{'degree':>6} {'left':>10} {'right':>10}",
        ]
        for k, left, right in self.per_degree:
            lines.append(f"{k:>6} {left:>10} {right:>10}")
        lines.append(f"{'status':<22}{'ok' if self.ok else 'FAILED'}")
        lines.append(f"{'elapsed':<22}{self.elapsed_s:.3f} s")
        return "\n".join(lines)


def verify_theorem(
    spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET
) -> CensusReport:
    """Audit the bijection exhaustively at one grid point.

    Inverse pass: every operator Q maps to a pair and back to Q.  A Q
    that comes back is hit by forward, so the surjectivity gap counts
    the Q that do not.  Forward pass: every (nilpotent T, vector v) maps
    to an operator and back to (T, v).  Degree strata are counted on
    both sides independently (degree of the pair on the left, stabilized
    image dimension on the right).
    """
    started = time.perf_counter()
    _check_dim(n)
    total = spec.q ** (n * n)
    _check_budget(total, budget, f"verifying the bijection over GF({spec.q}), n={n}")
    nilpotent_count = 0
    failures = 0
    missed = 0
    left: Counter[int] = Counter()
    right: Counter[int] = Counter()
    vectors = _all_vectors(spec, n)
    for q_op in enumerate_operators(spec, n, budget):
        right[_stable_image_dim(q_op)] += 1
        t, v = inverse(q_op)
        if forward(t, v) != q_op:
            failures += 1
            missed += 1
        if is_nilpotent(q_op):
            nilpotent_count += 1
            for vec in vectors:
                left[degree(q_op, vec)] += 1
                if inverse(forward(q_op, vec)) != (q_op, vec):
                    failures += 1
    per_degree = tuple(
        (k, left.get(k, 0), right.get(k, 0))
        for k in sorted(set(left) | set(right))
    )
    return CensusReport(
        q=spec.q,
        n=n,
        total_operators=total,
        nilpotent_count=nilpotent_count,
        expected_nilpotents=spec.q ** (n * (n - 1)),
        roundtrip_failures=failures,
        surjectivity_gap=missed,
        per_degree=per_degree,
        elapsed_s=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class DegreeStratum:
    """One row of the degree refinement table."""

    k: int
    left_count: int
    right_count: int
    forward_consistent: bool

    @property
    def ok(self) -> bool:
        return self.left_count == self.right_count and self.forward_consistent

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "left_count": self.left_count,
            "right_count": self.right_count,
            "forward_consistent": self.forward_consistent,
            "ok": self.ok,
        }


def verify_degree_refinement(
    spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[DegreeStratum, ...]:
    """Count both sides of each degree stratum independently.

    Left: pairs (T, v) with T nilpotent and degree k.  Right: operators
    whose stabilized image has dimension k.  Also checks the forward
    map sends each left stratum into the matching right stratum.
    """
    _check_dim(n)
    total = spec.q ** (n * n)
    _check_budget(total, budget, f"degree refinement over GF({spec.q}), n={n}")
    left: Counter[int] = Counter()
    right: Counter[int] = Counter()
    consistent: dict[int, bool] = {}
    vectors = _all_vectors(spec, n)
    for t in enumerate_operators(spec, n, budget):
        right[_stable_image_dim(t)] += 1
        if is_nilpotent(t):
            for vec in vectors:
                k = degree(t, vec)
                left[k] += 1
                image_dim = _stable_image_dim(forward(t, vec))
                consistent[k] = consistent.get(k, True) and image_dim == k
    return tuple(
        DegreeStratum(k, left.get(k, 0), right.get(k, 0), consistent.get(k, True))
        for k in sorted(set(left) | set(right))
    )


@dataclass(frozen=True)
class JoyalReport:
    """Outcome of the set-level audit at one n."""

    n: int
    total_functions: int
    tree_count: int
    expected_trees: int
    eventually_constant_count: int
    expected_eventually_constant: int
    roundtrip_failures: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return (
            self.tree_count == self.expected_trees
            and self.eventually_constant_count == self.expected_eventually_constant
            and self.roundtrip_failures == 0
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "total_functions": self.total_functions,
            "tree_count": self.tree_count,
            "expected_trees": self.expected_trees,
            "eventually_constant_count": self.eventually_constant_count,
            "expected_eventually_constant": self.expected_eventually_constant,
            "roundtrip_failures": self.roundtrip_failures,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }

    def render_table(self) -> str:
        lines = [
            f"tree/function census, n = {self.n}",
            f"{'total functions':<28}{self.total_functions}",
            f"{'distinct trees':<28}{self.tree_count} (expected {self.expected_trees})",
            f"{'eventually constant':<28}{self.eventually_constant_count} "
            f"(expected {self.expected_eventually_constant})",
            f"{'round-trip failures':<28}{self.roundtrip_failures}",
            f"{'status':<28}{'ok' if self.ok else 'FAILED'}",
            f"{'elapsed':<28}{self.elapsed_s:.3f} s",
        ]
        return "\n".join(lines)


def verify_joyal(n: int, budget: int = DEFAULT_BUDGET) -> JoyalReport:
    """Audit the tree/function bijection exhaustively at one n."""
    started = time.perf_counter()
    total = n**n
    _check_budget(total, budget, f"verifying the tree bijection at n={n}")
    failures = 0
    eventually_constant = 0
    trees: set[Tree] = set()
    for f in all_endofunctions(n):
        tree, v, v2 = joyal_inverse(f)
        trees.add(tree)
        if joyal_forward(tree, v, v2) != f:
            failures += 1
        if is_eventually_constant(f):
            eventually_constant += 1
    for tree in trees:
        for v in range(n):
            for v2 in range(n):
                if joyal_inverse(joyal_forward(tree, v, v2)) != (tree, v, v2):
                    failures += 1
    return JoyalReport(
        n=n,
        total_functions=total,
        tree_count=len(trees),
        expected_trees=1 if n == 1 else n ** (n - 2),
        eventually_constant_count=eventually_constant,
        expected_eventually_constant=n ** (n - 1),
        roundtrip_failures=failures,
        elapsed_s=time.perf_counter() - started,
    )
