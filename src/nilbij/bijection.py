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
is the checked entry point for Fitting data from outside.  The orbit
is one call of the field's row kernel, which reads T's columns once,
and the spans and maps both directions derive are built trusted, by
``subspaces._span`` and ``subspaces._map``; only forward's zero
W -> V block is a public ``SubspaceMap.zero`` build.  Both
directions are mutually inverse, which is what the census module
checks exhaustively: its walk decides the nilpotency of each T that
inverse returns, and counts a step that raises as that input's failure.
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
from .fitting import fitting_decompose
from .linalg import (
    Matrix,
    Vector,
    _matrix,
    _vector,
    is_nilpotent,
    mat_inv,
    mat_mul,
)
from .subspaces import (
    SubspaceMap,
    _graph_and_iso,
    _map,
    _ordered_basis,
    _span,
    basis_to_automorphism,
    block_assemble,
    block_decompose,
    canonical_iso,
    compose,
    from_coords,
    map_inverse,
    map_to_complement,
    steinitz_complement,
)

__all__ = ["NilpotentPair", "degree", "forward", "inverse"]


def _check_pair(t: Matrix, v: Vector) -> None:
    if t.spec != v.spec:
        raise FieldMismatch("operator and vector live in different fields")
    if not t.is_square():
        raise NonSquare("operator must be square")
    if v.n != t.rows:
        raise DimensionMismatch("vector length does not match the operator size")


def _orbit(t: Matrix, v: Vector) -> tuple[Vector, ...]:
    """The orbit (v, Tv, ..., T^(k-1)v) of v under a nilpotent T, up to
    its first zero: one call of the row kernel's ``orbit``."""
    _check_pair(t, v)
    if not is_nilpotent(t):
        raise NotNilpotent("the pair's operator T must be nilpotent")
    return tuple(_vector(t.spec, x) for x in t.spec._kernel.orbit(t.data, v.entries))


def degree(t: Matrix, v: Vector) -> int:
    """Least k >= 0 with T^k v = 0; requires T nilpotent."""
    return len(_orbit(t, v))


def forward(t: Matrix, v: Vector) -> Matrix:
    """Map a nilpotent pair (T, v) to the operator Q it corresponds to."""
    orbit = _orbit(t, v)
    v_sub = _span(t.spec, t.rows, tuple(x.entries for x in orbit))
    assert v_sub.dim == len(orbit), "iterates up to the degree must be independent"
    u_sub = steinitz_complement(v_sub)
    _, t_uv, t_uu = block_decompose(t, v_sub, u_sub)
    w_sub = map_to_complement(t_uv)
    iso = canonical_iso(v_sub, u_sub, w_sub)
    s = compose(compose(iso, t_uu), map_inverse(iso))
    r = basis_to_automorphism(_ordered_basis(v_sub, orbit))
    # the one validated Matrix build on verify_theorem's path, which the
    # benchmark's tracer test counts (ROADMAP item 9)
    return block_assemble(v_sub, w_sub, r, SubspaceMap.zero(w_sub, v_sub), s)


def inverse(q: Matrix) -> tuple[Matrix, Vector]:
    """Map an operator Q back to its nilpotent pair (T, v).

    The mirror of :func:`forward`: W is the graph of T's U -> V block,
    S is T's U -> U block carried to W, and R sends the reference basis
    of V to the orbit (v, Tv, ...), on which T acts as the shift N,
    e_j -> e_(j+1).  So T acts on V as R N R^-1 (R N is R's columns
    moved one place left), and v has R's first column as coordinates
    (none, so v = 0, when V = 0)."""
    pair = fitting_decompose(q)
    v_sub, r = pair.V, pair.R.matrix
    k = v_sub.dim
    u_sub = steinitz_complement(v_sub)
    t_uv, iso = _graph_and_iso(v_sub, u_sub, pair.W)
    t_uu = compose(compose(map_inverse(iso), pair.S), iso)
    rn = _matrix(q.spec, k, k, tuple(row[1:] + (0,) for row in r.data))
    t_vv = _map(v_sub, v_sub, mat_mul(rn, mat_inv(r)))
    t = block_assemble(v_sub, u_sub, t_vv, t_uv, t_uu)
    return t, from_coords(v_sub, _vector(q.spec, tuple([row[0] for row in r.data])))


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
