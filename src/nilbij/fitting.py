"""Fitting decomposition of a linear operator on F_q^n.

Any operator Q splits the space as V + W where V = im(Q^n) carries an
invertible restriction and W = ker(Q^n) a nilpotent one (n the ambient
dimension; both chains have stabilized by step n).  The pair of
restrictions, in reference-basis coordinates, determines Q together
with the two subspaces, and ``fitting_assemble`` rebuilds it: the
checked entry point for Fitting data from outside the library, which
proves R invertible and S nilpotent before it answers.
``fitting_decompose`` wraps the row core ``_fitting``, which
``bijection.inverse`` runs too, and builds the subspaces and maps of
its result; the bijection builds none.  It asserts its R invertible by
an inversion, as ``inverse`` does by inverting R, but does not prove
its S nilpotent, which it is because Q^n vanishes on W: the census
walks that audit it decide nilpotency themselves, and count a step
that raises as that input's failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    NotAutomorphism,
    NotNilpotent,
    NonSquare,
    _json_fields,
)
from .linalg import Matrix, _matrix, _null_rows, is_invertible, is_nilpotent
from .subspaces import (
    Subspace,
    SubspaceMap,
    _decompose,
    _echelon,
    _map,
    _split,
    _subspace,
    block_assemble,
)

__all__ = ["FittingPair", "fitting_assemble", "fitting_decompose"]


@dataclass(frozen=True)
class FittingPair:
    """Invertible-part and nilpotent-part data of an operator.

    ``R`` acts on ``V`` (invertibly), ``S`` on ``W`` (nilpotently), both
    in the reference bases of their subspaces.
    """

    V: Subspace
    W: Subspace
    R: SubspaceMap
    S: SubspaceMap

    def __post_init__(self) -> None:
        if self.R.domain != self.V or self.R.codomain != self.V:
            raise DimensionMismatch("R must map V to V")
        if self.S.domain != self.W or self.S.codomain != self.W:
            raise DimensionMismatch("S must map W to W")
        if self.V.spec != self.W.spec or self.V.ambient_dim != self.W.ambient_dim:
            raise DimensionMismatch("V and W must share spec and ambient space")

    def to_json(self) -> dict:
        return {
            "V": self.V.to_json(),
            "W": self.W.to_json(),
            "R": self.R.matrix.to_json(),
            "S": self.S.matrix.to_json(),
        }

    @classmethod
    def from_json(cls, obj: object) -> "FittingPair":
        v, w, r, s = _json_fields(obj, "fitting", "V", "W", "R", "S")
        v, w, r, s = (Subspace.from_json(v), Subspace.from_json(w),
                      Matrix.from_json(r), Matrix.from_json(s))
        return cls(v, w, SubspaceMap(v, v, r), SubspaceMap(w, w, s))


def _fitting(q: Matrix):
    """The Fitting data of Q on rows: V = im(Q^m) and W = ker(Q^m), each
    the pair (rows, pivots), the split ([V | W], its inverse), and the
    blocks R of Q on V and S on W over it.

    Both subspaces are read off Q's stable power Q^m, m the least power
    of two >= n, whose image and kernel are those of Q^n.
    """
    if not q.is_square():
        raise NonSquare("operator must be square")
    n, kernel = q.rows, q.spec._kernel
    qm = q._stable_power
    reduced, pivots = qm._rref
    v = _echelon(kernel, tuple(tuple([row[c] for row in qm.data]) for c in pivots), n)
    w = _echelon(kernel, _null_rows(kernel.neg, reduced.data, pivots, n), n)
    split = _split(kernel, n, v, w, "W is not a complement of V")
    r, cross, s, invariant = _decompose(kernel, n, len(v[0]), q.data, *split)
    assert invariant and not any(map(any, cross)), "V and W must be Q-invariant"
    return v, w, split, r, s


def fitting_decompose(q: Matrix) -> FittingPair:
    """Split Q into its invertible and nilpotent parts.

    V = im(Q^n) and W = ker(Q^n) are complementary and Q-invariant; the
    restrictions are read off by block decomposition.  S is nilpotent
    because Q^m vanishes on W.
    """
    v, w, _, r, s = _fitting(q)
    spec, n, k = q.spec, q.rows, len(r)
    v, w = _subspace(spec, n, *v), _subspace(spec, n, *w)
    r = _matrix(spec, k, k, r)
    # by R's inversion, which ``bijection.inverse`` runs too, not by a rank
    assert r._inverse[0] is not None, "restriction to im(Q^n) must be invertible"
    return FittingPair(v, w, _map(v, v, r), _map(w, w, _matrix(spec, n - k, n - k, s)))


def fitting_assemble(pair: FittingPair) -> Matrix:
    """Rebuild the operator with the given Fitting data.

    Conjugates the block-diagonal matrix back into ambient coordinates;
    the inversion of the [V | W] basis matrix in :func:`block_assemble`
    raises :class:`NotComplement` if V and W are not complementary.
    Only then are R checked invertible and S nilpotent.
    """
    v, w = pair.V, pair.W
    q = block_assemble(v, w, pair.R, SubspaceMap.zero(w, v), pair.S)
    if not is_invertible(pair.R.matrix):
        raise NotAutomorphism("R is not invertible on V")
    if not is_nilpotent(pair.S.matrix):
        raise NotNilpotent("S is not nilpotent on W")
    return q
