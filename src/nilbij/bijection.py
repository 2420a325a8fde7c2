"""The bijection between (nilpotent operator, vector) pairs and all
operators on F_q^n.

Forward: a pair (T, v) with T nilpotent determines the cyclic subspace
V spanned by the iterates of v, an ordered basis (v, Tv, ..., T^(k-1)v)
of it, and, over the Steinitz complement U of V, the blocks of T; the
U -> V block becomes a graph complement W and the U -> U block a
nilpotent action on W.  These assemble, by ``block_assemble`` over
(V, W), into a single operator Q whose Fitting decomposition is exactly
that data.  Inverse runs the same steps backwards: it reads the Fitting
data of Q off, turns each piece back into a block of T and rebuilds T
with ``block_assemble`` over (V, U).  Neither direction proves again
what it has just built: forward's R is invertible because the orbit is
a basis of V, and its S is nilpotent because it is conjugate to T's
U -> U block, a block of a nilpotent; inverse's T is nilpotent because
it is block-triangular over (V, U), with diagonal blocks conjugate to
the shift and to S.  The one nilpotency decided here is that of the T
given to forward or degree, by their public guard; ``fitting_assemble``
is the checked entry point for Fitting data from outside.

Both directions run on row tuples.  They chain the private cores of
:mod:`nilbij.subspaces` and :mod:`nilbij.fitting`, the same cores that
the public lemmas (``steinitz_complement``, ``block_decompose``,
``map_to_complement``, ``canonical_iso``, ``basis_to_automorphism``,
``fitting_decompose``, ``block_assemble``, ...) validate for and wrap,
so each step of the construction exists once.  Neither direction
builds an intermediate value: the orbit is one call of the field's row
kernel, and each direction builds one ``Matrix`` and one ``Vector`` at
the end.  The Steinitz split [V | U]^-1 is read off V's pivots, and
the canonical map W -> U is read against it, so a direction inverts
only [V | W] and, in inverse, R.  Both directions are mutually
inverse, which is what the census module checks exhaustively: its walk
decides the nilpotency of each T that inverse returns, and counts a
step that raises as that input's failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NonSquare,
    NotNilpotent,
    _json_fields,
)
from .fitting import _fitting
from .linalg import Matrix, Vector, _matrix, _vector, is_nilpotent, mat_inv
from .subspaces import (
    _assemble,
    _automorphism,
    _decompose,
    _echelon,
    _graph,
    _graph_and_iso,
    _split,
    _steinitz,
)

__all__ = ["NilpotentPair", "degree", "forward", "inverse"]


def _check_pair(t: Matrix, v: Vector) -> None:
    if t.spec != v.spec:
        raise FieldMismatch("operator and vector live in different fields")
    if not t.is_square():
        raise NonSquare("operator must be square")
    if v.n != t.rows:
        raise DimensionMismatch("vector length does not match the operator size")


def _orbit(t: Matrix, v: Vector) -> tuple[tuple[int, ...], ...]:
    """The orbit (v, Tv, ..., T^(k-1)v) of v under a nilpotent T, up to
    its first zero, as rows: one call of the row kernel's ``orbit``."""
    _check_pair(t, v)
    if not is_nilpotent(t):
        raise NotNilpotent("the pair's operator T must be nilpotent")
    return t.spec._kernel.orbit(t.data, v.entries)


def degree(t: Matrix, v: Vector) -> int:
    """Least k >= 0 with T^k v = 0; requires T nilpotent."""
    return len(_orbit(t, v))


def forward(t: Matrix, v: Vector) -> Matrix:
    """Map a nilpotent pair (T, v) to the operator Q it corresponds to."""
    orbit = _orbit(t, v)
    spec, n, k = t.spec, t.rows, len(orbit)
    kernel = spec._kernel
    v_sub = _echelon(kernel, orbit, n)
    assert len(v_sub[1]) == k, "iterates up to the degree must be independent"
    u_sub = _steinitz(n, v_sub)
    b, b_inv = _split(kernel, n, v_sub, u_sub, "U is not a complement of V")
    _, t_uv, t_uu, _ = _decompose(kernel, n, k, t.data, b, b_inv)
    w_sub = _graph(kernel, n, v_sub[0], u_sub[0], t_uv)
    c, c_inv = _split(kernel, n, v_sub, w_sub, "W is not a complement of V")
    # the canonical U -> W against [V | W], and its inverse W -> U, the
    # same core against the Steinitz split: nothing more is inverted
    iso = _graph_and_iso(kernel, k, c_inv, u_sub[0])[1]
    iso_inv = _graph_and_iso(kernel, k, b_inv, w_sub[0])[1]
    s = kernel.product(iso, kernel.product(t_uu, iso_inv, n - k), n - k)
    r = _automorphism(v_sub[1], orbit)
    zero = ((0,) * (n - k),) * k
    return _matrix(spec, n, n, _assemble(kernel, n, c, c_inv, r, zero, s))


def inverse(q: Matrix) -> tuple[Matrix, Vector]:
    """Map an operator Q back to its nilpotent pair (T, v).

    The mirror of :func:`forward`: W is the graph of T's U -> V block,
    S is T's U -> U block carried to W, and R sends the reference basis
    of V to the orbit (v, Tv, ...), on which T acts as the shift N,
    e_j -> e_(j+1).  So T acts on V as R N R^-1 (R N is R's columns
    moved one place left), and v has R's first column as coordinates
    (none, so v = 0, when V = 0)."""
    v_sub, w_sub, (c, c_inv), r, s = _fitting(q)
    spec, n, k = q.spec, q.rows, len(r)
    kernel = spec._kernel
    # R's inversion is Fitting's assertion that R is invertible, and R is
    # the one validated Matrix build on verify_theorem's path, which the
    # benchmark's tracer test counts (ROADMAP item 11)
    r_inv = mat_inv(Matrix(spec, k, k, r)).data
    u_sub = _steinitz(n, v_sub)
    b, b_inv = _split(kernel, n, v_sub, u_sub, "U is not a complement of V")
    t_uv, iso = _graph_and_iso(kernel, k, c_inv, u_sub[0])
    iso_inv = _graph_and_iso(kernel, k, b_inv, w_sub[0])[1]  # as in forward
    t_uu = kernel.product(iso_inv, kernel.product(s, iso, n - k), n - k)
    t_vv = kernel.product(tuple(row[1:] + (0,) for row in r), r_inv, k)
    t = _assemble(kernel, n, b, b_inv, t_vv, t_uv, t_uu)
    v = kernel.combine([row[0] for row in r], v_sub[0], (0,) * n)
    return _matrix(spec, n, n, t), _vector(spec, v)


@dataclass(frozen=True)
class NilpotentPair:
    """A nilpotent operator with a marked vector; the bijection's input."""

    t: Matrix
    v: Vector

    def __post_init__(self) -> None:
        _check_pair(self.t, self.v)

    def to_json(self) -> dict:
        return {"T": self.t.to_json(), "v": self.v.to_json()}

    @classmethod
    def from_json(cls, obj: object) -> "NilpotentPair":
        t, v = _json_fields(obj, "pair", "T", "v")
        return cls(Matrix.from_json(t), Vector.from_json(v))
