"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single pass line with its measured runtime; any
assertion failure marks the criterion failed.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    AUDITS,
    GF2,
    GF3,
    all_matrices,
    all_subspaces,
    all_vectors,
    subspace_elements,
)
from nilbij import (
    FieldSpec,
    Matrix,
    NotBasis,
    OrderedBasis,
    Subspace,
    SubspaceMap,
    Vector,
    basis_to_automorphism,
    canonical_iso,
    compose,
    count_nilpotents,
    forward,
    is_complementary,
    is_invertible,
    is_nilpotent,
    map_apply,
    map_inverse,
    steinitz_complement,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)

COUNT_GRID = [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (8, 2), (9, 2),
]
VERIFY_GRID = [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2),
]
DEGREE_GRID = [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (8, 2), (9, 2)]
# opt-in slow points (NILBIJ_SLOW=1): criterion 2 at 3^9 and 2^16
# operators, criterion 5 at 7^7 functions, and the criterion-6 audits
# past about 2 s
SLOW_VERIFY_GRID = [(3, 3), (2, 4)]
SLOW_JOYAL_N = 7
AUDIT_GRID = [
    (construction, q, n)
    for construction in ("complements", "torsor", "fitting")
    for q, n in [(2, 2), (2, 3), (3, 2)]
] + [("complements", 2, 4), ("complements", 3, 3)] + [
    pytest.param(construction, q, n, marks=pytest.mark.slow)
    for construction in ("torsor", "fitting")
    for q, n in [(3, 3), (2, 4)]
]

SPEC_FOR_Q = {
    2: FieldSpec(2),
    3: FieldSpec(3),
    4: FieldSpec(2, 2),
    5: FieldSpec(5),
    7: FieldSpec(7),
    8: FieldSpec(2, 3),
    9: FieldSpec(3, 2),
}


@pytest.fixture(scope="module")
def nilpotent_counts():
    return {
        (q, n): count_nilpotents(SPEC_FOR_Q[q], n) for q, n in COUNT_GRID
    }


def test_criterion_1_nilpotent_counts(nilpotent_counts):
    started = time.perf_counter()
    for q, n in COUNT_GRID:
        assert nilpotent_counts[(q, n)] == q ** (n * (n - 1)), (q, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(f"criterion 1 (nilpotent counts, {len(COUNT_GRID)} grid points): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_2_bijectivity():
    started = time.perf_counter()
    for q, n in VERIFY_GRID:
        report = verify_theorem(SPEC_FOR_Q[q], n)
        assert report.roundtrip_failures == 0, (q, n)
        assert report.surjectivity_gap == 0, (q, n)
        assert report.ok, (q, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(f"criterion 2 (bijectivity, {len(VERIFY_GRID)} grid points): "
          f"PASS in {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.parametrize("q,n", SLOW_VERIFY_GRID)
def test_criterion_2_bijectivity_slow_points(q, n):
    report = verify_theorem(SPEC_FOR_Q[q], n)
    assert report.roundtrip_failures == 0, (q, n)
    assert report.surjectivity_gap == 0, (q, n)
    assert report.ok, (q, n)
    print(f"criterion 2 (bijectivity at q={q}, n={n}): PASS in {report.elapsed_s:.1f}s")


def test_criterion_3_probability_ratio(nilpotent_counts):
    for q, n in COUNT_GRID:
        ratio = Fraction(nilpotent_counts[(q, n)], q ** (n * n))
        assert ratio == Fraction(1, q**n), (q, n)
    print(f"criterion 3 (exact 1/q^n ratio, {len(COUNT_GRID)} grid points): PASS")


def test_criterion_4_degree_refinement():
    started = time.perf_counter()
    for q, n in DEGREE_GRID:
        strata = verify_degree_refinement(SPEC_FOR_Q[q], n)
        for s in strata:
            assert s.left_count == s.right_count, (q, n, s.k)
            assert s.forward_consistent, (q, n, s.k)
        assert sum(s.right_count for s in strata) == q ** (n * n)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(f"criterion 4 (degree refinement, {len(DEGREE_GRID)} grid points): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_5_tree_function_counts():
    started = time.perf_counter()
    for n in range(2, 7):
        report = verify_joyal(n)
        assert report.tree_count == n ** (n - 2), n
        assert report.eventually_constant_count == n ** (n - 1), n
        assert report.roundtrip_failures == 0, n
        assert report.ok, n
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"criterion 5 (tree/function counts, n = 2..6): PASS in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_tree_function_counts_slow_point():
    n = SLOW_JOYAL_N
    report = verify_joyal(n)
    assert report.tree_count == n ** (n - 2)
    assert report.eventually_constant_count == n ** (n - 1)
    assert report.roundtrip_failures == 0
    assert report.ok
    print(f"criterion 5 (tree/function counts, n = {n}): PASS in {report.elapsed_s:.1f}s")


def test_criterion_6_lemma_suites():
    """The properties that are not bijections, each once: the construction
    audits below prove the bijections."""
    started = time.perf_counter()

    # Steinitz complement axioms, all subspaces of GF(2)^3 and GF(3)^2
    for spec, n in [(GF2, 3), (GF3, 2)]:
        for sub in all_subspaces(spec, n):
            comp = steinitz_complement(sub)
            assert sub.dim + comp.dim == n
            assert subspace_elements(sub) & subspace_elements(comp) == {(0,) * n}
            assert is_complementary(sub, comp) and is_complementary(comp, sub)

    # canonical-iso cocycle, with iso(u, u) = I, so iso(w, u) inverts
    # iso(u, w): GF(2)^3 and GF(3)^2
    for spec, n in [(GF2, 3), (GF3, 2)]:
        for sub in all_subspaces(spec, n):
            comps = [w for w in all_subspaces(spec, n) if is_complementary(sub, w)]
            for u in comps:
                assert canonical_iso(sub, u, u).matrix == Matrix.identity(spec, u.dim)
                for w in comps:
                    uw = canonical_iso(sub, u, w)
                    for x in comps:
                        assert compose(canonical_iso(sub, w, x), uw) == \
                            canonical_iso(sub, u, x)

    # torsor freeness and transitivity, dim <= 2, q <= 3
    for spec, n in [(GF2, 1), (GF2, 2), (GF3, 1), (GF3, 2)]:
        full = Subspace.full(spec, n)
        elements = [Vector(spec, e) for e in subspace_elements(full)]
        bases = []
        for picks in product(elements, repeat=n):
            try:
                bases.append(OrderedBasis(full, picks))
            except NotBasis:
                continue
        autos = [SubspaceMap(full, full, m)
                 for m in all_matrices(spec, n, n) if is_invertible(m)]
        assert len(bases) == len(autos)
        ident = Matrix.identity(spec, n)
        for g in autos:
            for b in bases:
                moved = tuple(map_apply(g, x) for x in b.vectors)
                if moved == b.vectors:
                    assert g.matrix == ident  # freeness
        for b in bases:
            for b2 in bases:
                g = compose(basis_to_automorphism(b2),
                            map_inverse(basis_to_automorphism(b)))
                assert tuple(map_apply(g, x) for x in b.vectors) == b2.vectors

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"criterion 6 (lemma-level exhaustive suites): PASS in {elapsed:.1f}s")


@pytest.mark.parametrize("construction,q,n", AUDIT_GRID)
def test_criterion_6_construction_audit(construction, q, n):
    started = time.perf_counter()
    failures, left, right, expected = AUDITS[construction](SPEC_FOR_Q[q], n)
    assert failures == 0, (construction, q, n)
    assert left == right == expected, (construction, q, n)
    print(f"criterion 6 ({construction} audit at q={q}, n={n}): "
          f"PASS in {time.perf_counter() - started:.1f}s")


def test_criterion_7_forward_image_is_every_operator():
    """Surjectivity, by an oracle independent of verify_theorem: the
    forward images of all nilpotent pairs are every operator."""
    for q, n in VERIFY_GRID:
        spec = SPEC_FOR_Q[q]
        image = {
            forward(t, v)
            for t in all_matrices(spec, n, n) if is_nilpotent(t)
            for v in all_vectors(spec, n)
        }
        assert len(image) == q ** (n * n), (q, n)
    print("criterion 7 (forward image is all q^(n^2) operators over "
          "criterion-2 grid): PASS")
