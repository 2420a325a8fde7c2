"""Relations the construction must satisfy, from its canonical choices
alone (README criterion 8): the RREF and the Steinitz complement split
along a direct sum of coordinate blocks, and the pairs with v = 0 are
the nilpotents themselves.  Each relation is checked exhaustively,
with no second implementation of the bijection."""

from itertools import product

import pytest

from conftest import GF2, GF3, all_vectors
from nilbij import Matrix, Vector, enumerate_operators, forward, inverse, is_nilpotent
from test_acceptance import SPEC_FOR_Q, VERIFY_GRID
from test_bijection import nilpotents


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal operator a ⊕ b on F^(n1 + n2)."""
    left, right = (0,) * b.cols, (0,) * a.cols
    rows = [row + left for row in a.data] + [right + row for row in b.data]
    return Matrix(a.spec, a.rows + b.rows, a.cols + b.cols, tuple(rows))


def direct_sum_mismatches(spec, n1, n2) -> tuple[int, int]:
    """(mismatches, cases) of forward(T1 ⊕ T2, (v1, 0)) == forward(T1, v1) ⊕ T2
    and of its mirror forward(T1 ⊕ T2, (0, v2)) == T1 ⊕ forward(T2, v2),
    over every nilpotent T1 on F^n1, T2 on F^n2 and every v1, v2."""
    mismatches = cases = 0
    zero1, zero2 = (0,) * n1, (0,) * n2
    for t1, t2 in product(nilpotents(spec, n1), nilpotents(spec, n2)):
        t = direct_sum(t1, t2)
        for v1 in all_vectors(spec, n1):
            got = forward(t, Vector(spec, v1.entries + zero2))
            mismatches += got != direct_sum(forward(t1, v1), t2)
            cases += 1
        for v2 in all_vectors(spec, n2):
            got = forward(t, Vector(spec, zero1 + v2.entries))
            mismatches += got != direct_sum(t1, forward(t2, v2))
            cases += 1
    return mismatches, cases


SPLITS = [(GF2, n1, n2) for n1 in range(1, 4) for n2 in range(1, 5 - n1)] + [
    (GF3, n1, n2) for n1 in range(1, 3) for n2 in range(1, 4 - n1)
]


@pytest.mark.parametrize(
    "spec,n1,n2", SPLITS, ids=[f"q{s.q}-{n1}+{n2}" for s, n1, n2 in SPLITS]
)
def test_forward_splits_along_a_direct_sum(spec, n1, n2):
    mismatches, cases = direct_sum_mismatches(spec, n1, n2)
    q = spec.q
    nil1, nil2 = q ** (n1 * (n1 - 1)), q ** (n2 * (n2 - 1))
    assert cases == nil1 * nil2 * (q**n1 + q**n2)
    assert mismatches == 0


@pytest.mark.parametrize("q,n", VERIFY_GRID, ids=[f"q{q}-n{n}" for q, n in VERIFY_GRID])
def test_the_zero_vector_pairs_are_the_nilpotents(q, n):
    spec = SPEC_FOR_Q[q]
    zero = Vector.zero(spec, n)
    found = 0
    for t in enumerate_operators(spec, n):
        if is_nilpotent(t):
            found += 1
            assert forward(t, zero) == t
            assert inverse(t) == (t, zero)
    assert found == q ** (n * (n - 1))
