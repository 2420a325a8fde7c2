"""Fitting decomposition of a linear operator on F_q^n.

Any operator Q splits the space as V + W where V = im(Q^n) carries an
invertible restriction and W = ker(Q^n) a nilpotent one (n the ambient
dimension; both chains have stabilized by step n).  The pair of
restrictions, in reference-basis coordinates, determines Q together
with the two subspaces, and ``fitting_assemble`` rebuilds it: the
checked entry point for Fitting data from outside the library, which
proves R invertible and S nilpotent before it answers.
``fitting_decompose`` asserts its R invertible by the inversion that
``bijection.inverse`` reads back, but does not prove its S nilpotent,
which it is because Q^n vanishes on W: the census walks that audit it
decide nilpotency themselves, and count a step that raises as that
input's failure.
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
from .linalg import (
    Matrix,
    image_basis,
    is_invertible,
    is_nilpotent,
    kernel_basis,
)
from .subspaces import (
    Subspace,
    SubspaceMap,
    _span,
    block_assemble,
    block_decompose,
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


def fitting_decompose(q: Matrix) -> FittingPair:
    """Split Q into its invertible and nilpotent parts.

    V = im(Q^n) and W = ker(Q^n) are complementary and Q-invariant; the
    restrictions are read off by block decomposition.  Both subspaces
    are read off Q's stable power Q^m, m the least power of two >= n,
    whose image and kernel are those of Q^n; S is nilpotent because
    Q^m vanishes on W.
    """
    if not q.is_square():
        raise NonSquare("operator must be square")
    n = q.rows
    qm = q._stable_power
    v = _span(q.spec, n, tuple(x.entries for x in image_basis(qm)))
    w = _span(q.spec, n, tuple(x.entries for x in kernel_basis(qm)))
    r, cross, s = block_decompose(q, v, w)
    assert cross.matrix.is_zero(), "W must be Q-invariant"
    # by R's inversion, which ``bijection.inverse`` reads back, not by a rank
    assert r.matrix._inverse[0] is not None, "restriction to im(Q^n) must be invertible"
    return FittingPair(v, w, r, s)


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
