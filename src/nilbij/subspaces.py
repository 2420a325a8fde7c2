"""Subspaces of F_q^n in canonical form, and the constructions on them.

Every subspace is stored as the rows of the unique reduced row echelon
form of any spanning set, so equal subspaces have identical
representations and structural equality decides subspace equality.
The RREF rows double as the subspace's *reference basis*: maps between
subspaces are matrices over the reference bases of domain and codomain,
which makes equality of maps decidable by matrix equality and every
construction below fully deterministic.

Constructions:

* ``steinitz_complement`` - the complement spanned by the standard
  basis vectors at the non-pivot coordinates.
* ``canonical_iso`` - between any two complements U, W of the same V:
  u maps to the unique w in W with w - u in V.
* ``map_to_complement`` / ``complement_to_map`` - the bijection between
  linear maps U -> V and complements of V, via graphs {u + f(u)}.
* ``block_decompose`` - the three blocks of an operator that preserves
  V, relative to a complementary pair (V, U).
* ``basis_to_automorphism`` / ``automorphism_to_basis`` - the ordered
  bases of V form a torsor under its automorphism group; anchoring at
  the reference basis turns that into a bijection.

The public ``Subspace`` constructor takes the rows alone; the one
elimination that checks they are their own RREF also yields the
pivots.  ``Subspace.from_json`` goes through it, and the public
``OrderedBasis``, ``SubspaceMap`` and ``span`` validate their inputs.
Values the constructions below derive from valid operands are built
trusted, by :func:`_subspace`, :func:`_span` (the RREF of rows the
library holds; public ``span`` ends in it), :func:`_map`,
:func:`_ordered_basis` and the :mod:`nilbij.linalg` factories, and
read facts off the canonical rows: a vector of V has its entries at
V's pivots as its reference-basis coordinates.  ``compose`` and
``map_inverse`` check their operands, then build trusted.

Splitting X = V + U reads coordinates off the inverse of the basis
matrix B = [V | U], and that inversion is also the check that U
complements V.  A ``Subspace`` remembers the matrix B of the last
complement U it was split against, and B in turn remembers its inverse
or that it has none (see :mod:`nilbij.linalg`).  One ``forward`` or
``inverse`` splits V against one complement and then against the
other, never back, so its block decompositions, graph and canonical
isomorphism invert each [V | U] and [V | W] once, and a long-lived V
keeps one B, not one per complement.  B is a pure function of the
immutable fields of V and U, so remembering it is safe; it lives in
V's instance ``__dict__`` and never enters ``==``, ``hash``, ``repr``
or ``to_json``.  Nothing is remembered across values: an equal
subspace built anew splits again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotAutomorphism,
    NotBasis,
    NotCanonical,
    NotComplement,
    NotInSubspace,
    NotInvariant,
    NotInvertible,
    SchemaError,
    _json_fields,
    _json_int,
    _json_seq,
)
from .field import FieldSpec
from .linalg import (
    Matrix,
    Vector,
    _matrix,
    _unit_row,
    _vector,
    apply,
    is_invertible,
    mat_inv,
    mat_mul,
    rank,
    rref,
)

__all__ = [
    "OrderedBasis",
    "Subspace",
    "SubspaceMap",
    "automorphism_to_basis",
    "basis_to_automorphism",
    "block_assemble",
    "block_decompose",
    "canonical_iso",
    "complement_to_map",
    "compose",
    "contains",
    "coords",
    "from_coords",
    "is_complementary",
    "map_apply",
    "map_inverse",
    "map_to_complement",
    "span",
    "steinitz_complement",
]


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_q^n, held as its RREF basis rows.

    The rows must be their own RREF, with no zero row, or the
    constructor raises :class:`NotCanonical` naming the canonical form;
    ``pivots``, their pivot columns, are derived from that check."""

    spec: FieldSpec
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        given = _json_seq(self.rows, "basis")
        m = Matrix(self.spec, len(given), _json_int(self.ambient_dim, "ambient", 0), given)
        object.__setattr__(self, "rows", m.data)
        reduced, pivots = rref(m)
        canonical = reduced.data[: len(pivots)]
        if canonical != m.data:
            raise NotCanonical(
                f"basis {list(m.data)} is not RREF; canonical form is {list(canonical)}"
            )
        object.__setattr__(self, "pivots", pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> tuple[Vector, ...]:
        """The reference basis, as ambient vectors."""
        return tuple(_vector(self.spec, row) for row in self.rows)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, Matrix.identity(spec, ambient_dim).data)

    def basis_matrix(self) -> Matrix:
        """n x m matrix whose columns are the reference basis vectors."""
        data = tuple(
            tuple(row[i] for row in self.rows) for i in range(self.ambient_dim)
        )
        return _matrix(self.spec, self.ambient_dim, self.dim, data)

    @cached_property
    def _splits(self) -> dict["Subspace", Matrix]:
        """The [self | U] basis matrix of the last U this space was
        split against, keyed by U; see :func:`_change_of_basis`."""
        return {}

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "ambient": self.ambient_dim,
            "basis": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: object) -> "Subspace":
        """Load a subspace; the constructor checks that the basis rows
        are RREF already."""
        field, ambient, basis = _json_fields(obj, "subspace", "field", "ambient", "basis")
        return cls(FieldSpec.from_json(field), ambient, basis)


def _subspace(
    spec: FieldSpec,
    ambient_dim: int,
    rows: tuple[tuple[int, ...], ...],
    pivots: tuple[int, ...],
) -> Subspace:
    """A Subspace from rows the library already holds in RREF, unchecked."""
    s = object.__new__(Subspace)
    s.__dict__.update(spec=spec, ambient_dim=ambient_dim, rows=rows, pivots=pivots)
    return s


def span(
    vectors: Iterable[Vector],
    spec: FieldSpec | None = None,
    ambient_dim: int | None = None,
) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    ``spec`` and ``ambient_dim`` are required when ``vectors`` is empty
    (the zero subspace carries no hint of its ambient space); when
    given with vectors, they must agree with them.
    """
    vecs = _json_seq(vectors, "vectors")
    if not vecs:
        if spec is None or ambient_dim is None:
            raise DimensionMismatch("empty span needs explicit spec and ambient_dim")
        return _span(spec, _json_int(ambient_dim, "ambient_dim", 0), ())
    for v in vecs:  # vecs[0] is checked as a Vector before it is read
        if not isinstance(v, Vector):
            raise SchemaError(f"a spanning vector must be a Vector, got {type(v).__name__}")
        if v.spec != vecs[0].spec:
            raise FieldMismatch("span of vectors over different fields")
        if v.n != vecs[0].n:
            raise DimensionMismatch("span of vectors of different lengths")
    first, n = vecs[0].spec, vecs[0].n
    if spec is not None and spec != first:
        raise FieldMismatch(f"vectors over {first} spanned in {spec}")
    if ambient_dim is not None and ambient_dim != n:
        raise DimensionMismatch(f"length-{n} vectors vs another ambient_dim")
    return _span(first, n, tuple(v.entries for v in vecs))


def _span(spec: FieldSpec, n: int, rows: tuple[tuple[int, ...], ...]) -> Subspace:
    """The subspace spanned by rows of n codes the library holds, as
    their RREF, unchecked; no rows span the zero subspace, with no
    elimination."""
    if not rows:
        return _subspace(spec, n, (), ())
    reduced, pivots = rref(_matrix(spec, len(rows), n, rows))
    return _subspace(spec, n, reduced.data[: len(pivots)], pivots)


def _reduce_against(v: Subspace, x: Vector) -> tuple[tuple[int, ...], Vector]:
    """Coefficients of x over v's reference basis plus the residue."""
    if x.spec != v.spec:
        raise FieldMismatch("vector and subspace live in different fields")
    if x.n != v.ambient_dim:
        raise DimensionMismatch("vector length does not match the ambient dimension")
    coeffs = tuple(x.entries[p] for p in v.pivots)
    kernel = v.spec._kernel
    residue = kernel.combine([kernel.neg[c] for c in coeffs], v.rows, x.entries)
    return coeffs, _vector(v.spec, residue)


def contains(v: Subspace, x: Vector) -> bool:
    return _reduce_against(v, x)[1].is_zero()


def coords(v: Subspace, x: Vector) -> Vector:
    """The unique coefficients of x over v's reference basis (length dim v)."""
    coeffs, residue = _reduce_against(v, x)
    if not residue.is_zero():
        raise NotInSubspace(f"{x.entries} is not in the subspace")
    return _vector(v.spec, coeffs)


def from_coords(v: Subspace, c: Vector) -> Vector:
    """Ambient vector with the given reference-basis coefficients."""
    if c.spec != v.spec:
        raise FieldMismatch("coordinates and subspace live in different fields")
    if c.n != v.dim:
        raise DimensionMismatch(f"expected {v.dim} coordinates, got {c.n}")
    zero = (0,) * v.ambient_dim
    return _vector(v.spec, v.spec._kernel.combine(c.entries, v.rows, zero))


def steinitz_complement(v: Subspace) -> Subspace:
    """The complement spanned by standard vectors at non-pivot columns."""
    pivot_set = set(v.pivots)
    free = tuple(j for j in range(v.ambient_dim) if j not in pivot_set)
    rows = tuple(_unit_row(v.ambient_dim, j) for j in free)
    return _subspace(v.spec, v.ambient_dim, rows, free)


def is_complementary(u: Subspace, v: Subspace) -> bool:
    """Whether U + V = ambient and U intersect V = {0}."""
    if u.spec != v.spec or u.ambient_dim != v.ambient_dim:
        return False
    n = u.ambient_dim
    if u.dim + v.dim != n:
        return False
    return rank(_matrix(u.spec, n, n, u.rows + v.rows)) == n


@dataclass(frozen=True)
class SubspaceMap:
    """Linear map between subspaces, in reference-basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise DimensionMismatch(
                "map matrix shape does not match the codomain and domain dimensions"
            )
        if self.domain.spec != self.codomain.spec:
            raise FieldMismatch("domain and codomain live in different fields")
        if self.matrix.spec != self.domain.spec:
            raise FieldMismatch("map matrix and subspaces live in different fields")

    @classmethod
    def identity(cls, v: Subspace) -> "SubspaceMap":
        return cls(v, v, Matrix.identity(v.spec, v.dim))

    @classmethod
    def zero(cls, domain: Subspace, codomain: Subspace) -> "SubspaceMap":
        return cls(domain, codomain, Matrix.zero(domain.spec, codomain.dim, domain.dim))


def _map(domain: Subspace, codomain: Subspace, matrix: Matrix) -> SubspaceMap:
    """A SubspaceMap the library built from valid operands, unchecked:
    ``matrix`` is dim codomain x dim domain, over their field."""
    f = object.__new__(SubspaceMap)
    f.__dict__.update(domain=domain, codomain=codomain, matrix=matrix)
    return f


def map_apply(f: SubspaceMap, x: Vector) -> Vector:
    """Apply f to an ambient vector of its domain; result is ambient."""
    return from_coords(f.codomain, apply(f.matrix, coords(f.domain, x)))


def compose(g: SubspaceMap, f: SubspaceMap) -> SubspaceMap:
    """g after f."""
    if f.codomain != g.domain:
        raise DimensionMismatch("compose: codomain of f is not the domain of g")
    return _map(f.domain, g.codomain, mat_mul(g.matrix, f.matrix))


def map_inverse(f: SubspaceMap) -> SubspaceMap:
    """Inverse of an isomorphism (equal dimensions, invertible matrix)."""
    if f.domain.dim != f.codomain.dim:
        raise DimensionMismatch("only maps between equal dimensions can invert")
    return _map(f.codomain, f.domain, mat_inv(f.matrix))


def _block(m: Matrix, r0: int, r1: int, c0: int, c1: int) -> Matrix:
    return _matrix(
        m.spec, r1 - r0, c1 - c0, tuple(row[c0:c1] for row in m.data[r0:r1])
    )


def _change_of_basis(v: Subspace, u: Subspace, what: str) -> tuple[Matrix, Matrix]:
    """B = [v | u] and its inverse, whose top dim(v) rows read off
    v-coordinates and the rest u-coordinates.  B is invertible exactly
    when v and u are complementary, so this inversion is the check; it
    raises :class:`NotComplement` with message ``what`` otherwise.  B is
    kept on v in place of the last split, and remembers its inverse or
    its failure, so a next split of the same pair inverts nothing."""
    n = v.ambient_dim
    if v.spec != u.spec or u.ambient_dim != n or v.dim + u.dim != n:
        raise NotComplement(what)
    splits = v._splits
    b = splits.get(u)
    if b is None:
        splits.clear()
        b = splits[u] = _matrix(v.spec, n, n, tuple(zip(*(v.rows + u.rows))))
    try:
        return b, mat_inv(b)
    except NotInvertible:
        raise NotComplement(what) from None


def _graph_and_iso(v: Subspace, u: Subspace, w: Subspace) -> tuple[SubspaceMap, SubspaceMap]:
    """(f, i) with graph of f : U -> V equal to W and i : U -> W canonical.

    Writing u = a + b in X = V + W, i(u) = b and f(u) = i(u) - u = -a, so
    both are blocks of split([V | W]) U.  U complements V exactly when
    dim U = dim W and the W-block is invertible; the check inverts it,
    so :func:`map_inverse` of i reads the remembered inverse.
    """
    _, split = _change_of_basis(v, w, "W is not a complement of V")
    if u.spec != v.spec or u.ambient_dim != v.ambient_dim or u.dim != w.dim:
        raise NotComplement("U is not a complement of V")
    m, k = mat_mul(split, u.basis_matrix()), v.dim
    iso = _block(m, k, k + w.dim, 0, u.dim)
    try:
        mat_inv(iso)
    except NotInvertible:
        raise NotComplement("U is not a complement of V") from None
    neg = v.spec._kernel.neg
    f = _matrix(v.spec, k, u.dim, tuple(tuple([neg[x] for x in row]) for row in m.data[:k]))
    return _map(u, v, f), _map(u, w, iso)


def canonical_iso(v: Subspace, u: Subspace, w: Subspace) -> SubspaceMap:
    """The canonical isomorphism U -> W between two complements of V.

    Sends u to the unique element of W whose difference from u lies in
    V: the W-block of u's coordinates in X = V + W.  That one change of
    basis also checks that U and W are complements of V.
    """
    return _graph_and_iso(v, u, w)[1]


def map_to_complement(f: SubspaceMap) -> Subspace:
    """The graph {u + f(u)} of f : U -> V, a complement of V.

    Complementarity is checked by the [V | U] change of basis, which a
    block decomposition over (V, U) has usually made already."""
    u, v = f.domain, f.codomain
    _change_of_basis(v, u, "domain and codomain are not complementary")
    combine, data = u.spec._kernel.combine, f.matrix.data
    # column j of f, read by index: with V = 0 the matrix has no rows to zip
    graph = tuple(
        combine([row[j] for row in data], v.rows, urow) for j, urow in enumerate(u.rows)
    )
    return _span(u.spec, u.ambient_dim, graph)


def complement_to_map(w: Subspace, v: Subspace, u: Subspace) -> SubspaceMap:
    """The unique f : U -> V whose graph over U is W; f(u) = i(u) - u,
    which is minus the V-block of the change of basis that
    :func:`canonical_iso` reads i off, and checked the same way."""
    return _graph_and_iso(v, u, w)[0]


def block_decompose(
    t: Matrix, v: Subspace, u: Subspace
) -> tuple[SubspaceMap, SubspaceMap, SubspaceMap]:
    """Blocks (T_VV, T_UV, T_UU) of T relative to X = V + U with TV in V.

    For x in V, T(x) = T_VV(x); for x in U, T(x) = T_UV(x) + T_UU(x)
    with the two components in V and U respectively.
    """
    if t.spec != v.spec:
        raise FieldMismatch("operator and subspaces live in different fields")
    if not t.is_square() or t.rows != v.ambient_dim:
        raise DimensionMismatch("operator must be square, of the ambient dimension")
    b, b_inv = _change_of_basis(v, u, "V and U are not complementary")
    conj = mat_mul(b_inv, mat_mul(t, b))
    m, n = v.dim, v.ambient_dim
    if not _block(conj, m, n, 0, m).is_zero():
        raise NotInvariant("T does not map V into V")
    t_vv = _map(v, v, _block(conj, 0, m, 0, m))
    t_uv = _map(u, v, _block(conj, 0, m, m, n))
    t_uu = _map(u, u, _block(conj, m, n, m, n))
    return t_vv, t_uv, t_uu


def block_assemble(
    v: Subspace, u: Subspace, t_vv: SubspaceMap, t_uv: SubspaceMap, t_uu: SubspaceMap
) -> Matrix:
    """Inverse of :func:`block_decompose`: the ambient operator with the
    given blocks (and no U -> V leakage from V)."""
    b, b_inv = _change_of_basis(v, u, "V and U are not complementary")
    blocks = (t_vv.domain, t_vv.codomain, t_uv.domain, t_uv.codomain,
              t_uu.domain, t_uu.codomain)
    if blocks != (v, v, u, v, u, u):
        raise DimensionMismatch("blocks must map V to V, U to V and U to U")
    m, n = v.dim, v.ambient_dim
    top = tuple(a + b for a, b in zip(t_vv.matrix.data, t_uv.matrix.data))
    bottom = tuple((0,) * m + row for row in t_uu.matrix.data)
    conj = _matrix(v.spec, n, n, top + bottom)
    return mat_mul(b, mat_mul(conj, b_inv))


@dataclass(frozen=True)
class OrderedBasis:
    """Ordered basis of a subspace; not necessarily the reference one."""

    subspace: Subspace
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        vectors = _json_seq(self.vectors, "basis vectors")
        object.__setattr__(self, "vectors", vectors)
        if len(vectors) != self.subspace.dim:
            raise NotBasis(
                f"{len(vectors)} vectors cannot be a basis of a "
                f"{self.subspace.dim}-dimensional space"
            )
        for vec in vectors:
            if not isinstance(vec, Vector):
                raise NotBasis(f"basis vector must be a Vector, got {type(vec).__name__}")
            if not contains(self.subspace, vec):
                raise NotBasis(f"{vec.entries} lies outside the subspace")
        if vectors:
            stacked = Matrix.from_rows(self.subspace.spec, [v.entries for v in vectors])
            if rank(stacked) != len(vectors):
                raise NotBasis("vectors are linearly dependent")

    @classmethod
    def reference(cls, v: Subspace) -> "OrderedBasis":
        return cls(v, v.basis_vectors())


def _ordered_basis(subspace: Subspace, vectors: tuple[Vector, ...]) -> OrderedBasis:
    """An OrderedBasis the library has proved is one, unchecked."""
    b = object.__new__(OrderedBasis)
    b.__dict__.update(subspace=subspace, vectors=vectors)
    return b


def basis_to_automorphism(b: OrderedBasis) -> SubspaceMap:
    """The unique automorphism sending the reference basis to b.

    Column j holds the coordinates of b's j-th vector, which lies in V
    since b is a basis of V: its entries at V's pivots."""
    v = b.subspace
    data = tuple(tuple(vec.entries[p] for vec in b.vectors) for p in v.pivots)
    return _map(v, v, _matrix(v.spec, v.dim, v.dim, data))


def automorphism_to_basis(r: SubspaceMap) -> OrderedBasis:
    """Images of the reference basis under an automorphism of V."""
    if r.domain != r.codomain:
        raise DimensionMismatch("automorphisms must have equal domain and codomain")
    if not is_invertible(r.matrix):
        raise NotAutomorphism("map matrix is singular")
    v = r.domain
    vecs = tuple(from_coords(v, _vector(v.spec, col)) for col in zip(*r.matrix.data))
    return _ordered_basis(v, vecs)
