"""Shared brute-force enumeration helpers for the exhaustive suites, and
the opt-in ``slow`` marker: its tests run only with NILBIJ_SLOW=1."""

import os
from functools import lru_cache
from itertools import product

import pytest

from nilbij import FieldSpec, Matrix, Subspace, Vector, span

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
    """Every subspace of F_q^n, via spans of all sets of nonzero vectors."""
    nonzero = [v for v in all_vectors(spec, n) if not v.is_zero()]
    seen = {span([], spec=spec, ambient_dim=n)}
    for size in range(1, n + 1):
        for picks in product(nonzero, repeat=size):
            seen.add(span(list(picks), spec=spec, ambient_dim=n))
    return tuple(sorted(seen, key=lambda s: (s.dim, s.rows)))


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
