"""The bijection between (nilpotent operator, vector) pairs and all
operators on F_q^n.

Forward: a pair (T, v) with T nilpotent determines the cyclic subspace
V spanned by the iterates of v, an ordered basis (v, Tv, ..., T^(k-1)v)
of it, and, over the Steinitz complement of V, a graph complement W and
a nilpotent action; these assemble into a single operator Q whose
Fitting decomposition is exactly that data.  Inverse: read the Fitting
data of Q back off.  Both directions are mutually inverse, which is
what the census module checks exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NonSquare,
    NotNilpotent,
    SchemaError,
)
from .fitting import FittingPair, fitting_assemble, fitting_decompose
from .linalg import (
    Matrix,
    Vector,
    _matrix,
    _vector,
    apply,
    is_nilpotent,
    mat_inv,
    mat_mul,
    rank,
    vec_add,
)
from .subspaces import (
    _graph_and_iso,
    _ordered_basis,
    automorphism_to_basis,
    basis_to_automorphism,
    block_decompose,
    canonical_iso,
    compose,
    map_apply,
    map_inverse,
    map_to_complement,
    span,
    steinitz_complement,
)


def degree(t: Matrix, v: Vector) -> int:
    """Least k >= 0 with T^k v = 0; requires T nilpotent."""
    _check_pair(t, v)
    if not is_nilpotent(t):
        raise NotNilpotent("degree is only defined for nilpotent operators")
    orbit: list[Vector] = []
    x = v
    while not x.is_zero():
        orbit.append(x)
        x = apply(t, x)
    k = len(orbit)
    if k:
        stacked = _matrix(t.spec, k, t.rows, tuple(y.entries for y in orbit))
        assert rank(stacked) == k, "iterates up to the degree must be independent"
    return k


def _check_pair(t: Matrix, v: Vector) -> None:
    if t.spec != v.spec:
        raise FieldMismatch("operator and vector live in different fields")
    if not t.is_square():
        raise NonSquare(f"operator must be square, got {t.rows}x{t.cols}")
    if v.n != t.rows:
        raise DimensionMismatch(f"length-{v.n} vector vs {t.rows}x{t.cols} operator")


def _from_columns(spec, n: int, cols: list[tuple[int, ...]]) -> Matrix:
    data = tuple(tuple(col[i] for col in cols) for i in range(n))
    return _matrix(spec, n, len(cols), data)


def forward(t: Matrix, v: Vector) -> Matrix:
    """Map a nilpotent pair (T, v) to the operator Q it corresponds to."""
    _check_pair(t, v)
    if not is_nilpotent(t):
        raise NotNilpotent("forward requires a nilpotent operator")
    orbit: list[Vector] = []
    x = v
    while not x.is_zero():
        orbit.append(x)
        x = apply(t, x)
    k = len(orbit)
    v_sub = span(orbit, spec=t.spec, ambient_dim=t.rows)
    assert v_sub.dim == k, "iterates up to the degree must be independent"
    u_sub = steinitz_complement(v_sub)
    _, t_uv, t_uu = block_decompose(t, v_sub, u_sub)
    assert is_nilpotent(t_uu.matrix), "the co-restriction must stay nilpotent"
    w_sub = map_to_complement(t_uv)
    iso = canonical_iso(v_sub, u_sub, w_sub)
    s = compose(compose(iso, t_uu), map_inverse(iso))
    r = basis_to_automorphism(_ordered_basis(v_sub, tuple(orbit)))
    return fitting_assemble(FittingPair(v_sub, w_sub, r, s))


def inverse(q: Matrix) -> tuple[Matrix, Vector]:
    """Map an operator Q back to its nilpotent pair (T, v)."""
    if not q.is_square():
        raise NonSquare(f"operator must be square, got {q.rows}x{q.cols}")
    n = q.rows
    pair = fitting_decompose(q)
    v_sub, w_sub = pair.V, pair.W
    basis = automorphism_to_basis(pair.R)
    k = v_sub.dim
    vec = basis.vectors[0] if k else _vector(q.spec, (0,) * n)
    u_sub = steinitz_complement(v_sub)
    f, iso = _graph_and_iso(v_sub, u_sub, w_sub)
    t_uu = compose(compose(map_inverse(iso), pair.S), iso)
    cols = [b.entries for b in basis.vectors]
    images = [
        basis.vectors[j + 1].entries if j + 1 < k else (0,) * n for j in range(k)
    ]
    for uvec in u_sub.basis_vectors():
        cols.append(uvec.entries)
        img = vec_add(map_apply(f, uvec), map_apply(t_uu, uvec))
        images.append(img.entries)
    b = _from_columns(q.spec, n, cols)
    c = _from_columns(q.spec, n, images)
    t = mat_mul(c, mat_inv(b))
    assert is_nilpotent(t), "the reassembled operator must be nilpotent"
    return t, vec


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
        if not isinstance(obj, dict):
            raise SchemaError(f"pair payload must be an object: {obj!r}")
        try:
            t = Matrix.from_json(obj["T"])
            v = Vector.from_json(obj["v"])
        except KeyError as exc:
            raise SchemaError(f"pair payload missing key: {exc}") from exc
        return cls(t, v)
