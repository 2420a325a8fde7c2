"""Shared brute-force enumeration helpers for the exhaustive suites, the
census audits of the constructions, and the opt-in ``slow`` marker: its
tests run only with NILBIJ_SLOW=1."""

import os
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from nilbij import (
    FieldSpec,
    Matrix,
    OrderedBasis,
    Subspace,
    SubspaceMap,
    Vector,
    fitting,
    is_complementary,
    is_invertible,
    is_nilpotent,
    mat_pow,
    rank,
    steinitz_complement,
    subspaces,
)
from nilbij.census import _walk, enumerate_operators, expected_strata

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2)
GF5 = FieldSpec(5)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a census point of a minute or less; runs only with NILBIJ_SLOW=1"
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("NILBIJ_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow census point; set NILBIJ_SLOW=1 to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def patch_everywhere(monkeypatch, real, replacement):
    """Rebind ``replacement`` in place of ``real`` wherever a nilbij module
    binds it, under any name: a core is run by its public lemma, by the
    bijection and by the census alike."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("nilbij"):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, replacement)


@lru_cache(maxsize=None)
def all_vectors(spec: FieldSpec, n: int) -> tuple[Vector, ...]:
    return tuple(Vector(spec, t) for t in product(range(spec.q), repeat=n))


@lru_cache(maxsize=None)
def all_matrices(spec: FieldSpec, rows: int, cols: int) -> tuple[Matrix, ...]:
    out = []
    for flat in product(range(spec.q), repeat=rows * cols):
        data = tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        out.append(Matrix(spec, rows, cols, data))
    return tuple(out)


@lru_cache(maxsize=None)
def all_subspaces(spec: FieldSpec, n: int) -> tuple[Subspace, ...]:
    """Every subspace of F_q^n once, as its RREF rows, sorted by (dim, rows).

    A k-dimensional subspace is one choice of k pivot columns and of the
    entries of each pivot row in the non-pivot columns right of its
    pivot; the public constructor checks that each choice is RREF."""
    out = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            for values in product(range(spec.q), repeat=len(free)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                out.append(Subspace(spec, n, rows))
    return tuple(sorted(out, key=lambda s: (s.dim, s.rows)))


def subspace_elements(sub: Subspace) -> set[tuple[int, ...]]:
    """All elements of the subspace, as entry tuples."""
    spec = sub.spec
    out = set()
    for coeffs in product(range(spec.q), repeat=sub.dim):
        acc = [0] * sub.ambient_dim
        for c, row in zip(coeffs, sub.rows):
            for i, r in enumerate(row):
                acc[i] = spec.add(acc[i], spec.mul(c, r))
        out.add(tuple(acc))
    return out


# Census audits of the constructions.  Each walks a construction's
# codomain with ``census._walk``: x fails unless its preimage lies in the
# domain and maps back to x, and each stratum is tallied on both sides.
# With no failures the preimage map is injective, and with a domain as
# large as the closed form it is a bijection (the counting argument of
# the census).  Each returns (failures, left, right, expected) and passes
# when failures == 0 and left == right == expected.  The constructions
# are read off their modules when the audit runs, so it walks a patched one.


def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)|, the number of automorphisms of a k-dimensional space."""
    return prod(q**k - q**i for i in range(k))


def audit_complements(spec: FieldSpec, n: int):
    """Complements W of each V <-> maps U -> V, U the Steinitz complement
    of V: q^(k(n-k)) for each V of dimension k."""
    subs = all_subspaces(spec, n)
    return *_walk(
        ((v, w) for v in subs for w in subs if is_complementary(v, w)),
        lambda x: (subspaces.complement_to_map(x[1], x[0], steinitz_complement(x[0])),),
        lambda f: f.domain == steinitz_complement(f.codomain),
        lambda f: (f.codomain, subspaces.map_to_complement(f)),
        lambda f: f.codomain, lambda x: x[0],
    ), Counter({v: spec.q ** (v.dim * (n - v.dim)) for v in subs})


def _is_basis(b: OrderedBasis) -> bool:
    """Whether the public constructor accepts ``b`` as it stands; the walk
    counts its refusal as that element's failure."""
    return OrderedBasis(b.subspace, b.vectors) == b


def audit_torsor(spec: FieldSpec, n: int):
    """Automorphisms of each V <-> ordered bases of V: |GL_k(F_q)| for each
    V of dimension k."""
    subs = all_subspaces(spec, n)
    return *_walk(
        (SubspaceMap(v, v, m) for v in subs
         for m in enumerate_operators(spec, v.dim) if is_invertible(m)),
        lambda r: (subspaces.automorphism_to_basis(r),), _is_basis,
        subspaces.basis_to_automorphism, lambda b: b.subspace, lambda r: r.domain,
    ), Counter({v: gl_order(spec.q, v.dim) for v in subs})


def audit_fitting(spec: FieldSpec, n: int):
    """Operators Q <-> Fitting data (V, W, R, S) with V + W the whole space,
    R invertible and S nilpotent, in strata k = dim V = dim im(Q^n):
    ``census.expected_strata``."""
    return *_walk(
        enumerate_operators(spec, n), lambda q: (fitting.fitting_decompose(q),),
        lambda p: (is_complementary(p.V, p.W) and is_invertible(p.R.matrix)
                   and is_nilpotent(p.S.matrix)),
        fitting.fitting_assemble, lambda p: p.V.dim, lambda q: rank(mat_pow(q, n)),
    ), Counter(dict(enumerate(expected_strata(spec.q, n))))


AUDITS = {"complements": audit_complements, "torsor": audit_torsor, "fitting": audit_fitting}
