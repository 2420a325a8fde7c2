"""Fitting decomposition of a linear operator on F_q^n.

Any operator Q splits the space as V + W where V = im(Q^n) carries an
invertible restriction and W = ker(Q^n) a nilpotent one (n the ambient
dimension; both chains have stabilized by step n).  The pair of
restrictions, in reference-basis coordinates, determines Q together
with the two subspaces, and ``fitting_assemble`` rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    NotAutomorphism,
    NotNilpotent,
    NonSquare,
    SchemaError,
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
    block_assemble,
    block_decompose,
    span,
)


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
        if not isinstance(obj, dict):
            raise SchemaError(f"fitting payload must be an object: {obj!r}")
        try:
            v = Subspace.from_json(obj["V"])
            w = Subspace.from_json(obj["W"])
            r = Matrix.from_json(obj["R"])
            s = Matrix.from_json(obj["S"])
        except KeyError as exc:
            raise SchemaError(f"fitting payload missing key: {exc}") from exc
        return cls(v, w, SubspaceMap(v, v, r), SubspaceMap(w, w, s))


def fitting_decompose(q: Matrix) -> FittingPair:
    """Split Q into its invertible and nilpotent parts.

    V = im(Q^n) and W = ker(Q^n) are complementary and Q-invariant; the
    restrictions are read off by block decomposition.
    """
    if not q.is_square():
        raise NonSquare(f"operator must be square, got {q.rows}x{q.cols}")
    n = q.rows
    qn = q._fitting_power
    v = span(image_basis(qn), spec=q.spec, ambient_dim=n)
    w = span(kernel_basis(qn), spec=q.spec, ambient_dim=n)
    r, cross, s = block_decompose(q, v, w)
    assert cross.matrix.is_zero(), "W must be Q-invariant"
    # by R's inversion, which ``bijection.inverse`` reads back, not by a rank
    assert r.matrix._inverse[0] is not None, "restriction to im(Q^n) must be invertible"
    assert is_nilpotent(s.matrix), "restriction to ker(Q^n) must be nilpotent"
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
