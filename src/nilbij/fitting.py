"""Fitting decomposition of a linear operator on F_q^n.

Any operator Q splits the space as V + W where V = im(Q^n) carries an
invertible restriction and W = ker(Q^n) a nilpotent one (n the ambient
dimension; both chains have stabilized by step n).  The pair of
restrictions, in reference-basis coordinates, determines Q together
with the two subspaces, and ``fitting_assemble`` rebuilds it: the
checked entry point for Fitting data from outside the library, which
proves R invertible and S nilpotent before it answers.
It checks the [V | W] change of basis first, by
``subspaces._change_of_basis``, then R and S, and assembles Q from the
blocks by the row core ``subspaces._assemble``: the ``FittingPair``
constructor has already checked that R and S act on V and W, so no
block is checked again and no zero map is built.
``fitting_decompose`` checks that Q is square, hands its field's row
kernel and its rows to the row core ``_fitting``, and builds the
subspaces, the maps and the ``FittingPair`` of the result by
``errors._trusted``.  The core
squares Q up to its stable power Q^m, ``linalg._stable_power``, and
makes one elimination, of the n x 2n matrix [Q^m^T | I]: V = im(Q^m)
is spanned by the rows with a pivot in the left half, and W = ker(Q^m)
by the right halves of the others.  Q^m commutes with Q, so Q maps V
and W into themselves, and R and S are Q's images of the two reference
bases read at the pivots: no [V | W] is inverted, and no block is
checked zero.  The Fitting audit of criterion 6 reassembles every
decomposition it walks, and is the check on a wrong read.  Nothing is
kept on Q.
``bijection.inverse`` does not run this core: it needs no W, spans V
by one RREF of Q^m's transpose and splits the space by V's Steinitz
complement.  ``fitting_decompose`` proves neither of its blocks
again: R is invertible because Q^m, a power of Q, maps V onto itself,
and S is nilpotent because Q^m vanishes on W.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    NotAutomorphism,
    NotNilpotent,
    NonSquare,
    _json_fields,
    _trusted,
)
from .linalg import (
    Matrix,
    _identity_rows,
    _stable_power,
    is_invertible,
    is_nilpotent,
)
from .subspaces import (
    Subspace,
    SubspaceMap,
    _assemble,
    _automorphism,
    _change_of_basis,
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


def _fitting(kernel, q):
    """The Fitting data of the rows of a square Q: V = im(Q^m) and
    W = ker(Q^m), each the pair (rows, pivots), and the blocks R of Q on
    V and S on W.

    One elimination of [Q^m^T | I] gives both subspaces.  The rows whose
    pivot falls in the left half are the RREF of Q^m^T, so their left
    halves span Q^m's columns, V.  The right half y of each other row
    has y Q^m^T = 0, so Q^m y^T = 0, and the n - k of them span
    ker(Q^m) with their pivots in the right half, already in RREF.
    Column j of R (of S) holds the reference coordinates of Q b_j, its
    entries at the subspace's pivots, as :func:`_automorphism` reads
    them."""
    n = len(q)
    qm_t = zip(*_stable_power(kernel, q))
    reduced, pivots = kernel.rref(tuple(a + b for a, b in zip(qm_t, _identity_rows(n))), 2 * n)
    k = sum(1 for p in pivots if p < n)
    v = tuple(row[:n] for row in reduced[:k]), pivots[:k]
    w = tuple(row[n:] for row in reduced[k:]), tuple(p - n for p in pivots[k:])
    q_t = tuple(zip(*q))
    r, s = (_automorphism(piv, kernel.product(rows, q_t, n)) for rows, piv in (v, w))
    return v, w, r, s


def fitting_decompose(q: Matrix) -> FittingPair:
    """Split Q into its invertible and nilpotent parts.

    V = im(Q^n) and W = ker(Q^n) are complementary and Q-invariant, and
    R and S are Q restricted to each.  R is invertible because Q^m maps
    V onto itself, and S is nilpotent because Q^m vanishes on W; neither
    is proved again here.
    """
    if not q.is_square():
        raise NonSquare("operator must be square")
    v, w, r, s = _fitting(q.spec._kernel, q.data)
    spec, n, k = q.spec, q.rows, len(r)
    v, w = _trusted(Subspace, spec, n, *v), _trusted(Subspace, spec, n, *w)
    r = _trusted(SubspaceMap, v, v, _trusted(Matrix, spec, k, k, r))
    s = _trusted(SubspaceMap, w, w, _trusted(Matrix, spec, n - k, n - k, s))
    return _trusted(FittingPair, v, w, r, s)


def fitting_assemble(pair: FittingPair) -> Matrix:
    """Rebuild the operator with the given Fitting data.

    Conjugates the block-diagonal matrix back into ambient coordinates;
    the inversion of the [V | W] basis matrix raises
    :class:`NotComplement` if V and W are not complementary.  Only then
    are R checked invertible and S nilpotent.
    """
    v, w = pair.V, pair.W
    b, b_inv = _change_of_basis(v, w, "V and U are not complementary")
    if not is_invertible(pair.R.matrix):
        raise NotAutomorphism("R is not invertible on V")
    if not is_nilpotent(pair.S.matrix):
        raise NotNilpotent("S is not nilpotent on W")
    n, zero = v.ambient_dim, ((0,) * w.dim,) * v.dim
    q = _assemble(v.spec._kernel, n, b, b_inv, pair.R.matrix.data, zero, pair.S.matrix.data)
    return _trusted(Matrix, v.spec, n, n, q)
