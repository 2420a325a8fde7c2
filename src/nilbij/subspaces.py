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
Code that holds rows hands them to the row kernel: the ``Subspace``
and ``OrderedBasis`` checks and ``is_complementary`` take their rank
from its ``rref``, and build no ``Matrix`` for it.

Each construction is one private core on row tuples that calls the
field's row kernel directly and builds no value: ``_echelon`` (a
span), ``_steinitz``, ``_steinitz_split`` (the change of basis to V
and its Steinitz complement), ``_decompose``, ``_assemble``,
``_graph``, ``_graph_and_iso`` and ``_automorphism`` (a torsor point,
or a restriction to an invariant subspace).
A core takes a subspace as the pair (rows, pivots) of its RREF, and a
map as the rows of its matrix over the reference bases.  The public
functions check their operands, call the core and wrap its result
trusted, by ``errors._trusted``: a ``Subspace`` from its spec, ambient
dimension, rows and pivots, in the order of its fields; they are the
only builders of ``Subspace`` and ``SubspaceMap`` results.  ``bijection.forward`` and
``inverse`` chain the same cores.

Splitting X = V + U reads coordinates off the inverse of the basis
matrix B = [V | U].  The lemmas take any U, so ``_change_of_basis``
inverts B, and that inversion is also the check that U complements V;
it inverts B for a Steinitz U too, and the inverse is unique, so the
bytes are the same.  The bijection splits only by the Steinitz
complement of a V it has spanned, a complement by definition, through
``_steinitz_split``, which inverts nothing and raises nothing: a
vector's V-coordinates are its entries at V's pivots, and its
U-coordinates its free entries minus their V part.  No code looks at
a complement's rows to choose between the two.  A ``Subspace``
remembers nothing, so a split is made again each time it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    SchemaError,
    _json_fields,
    _json_int,
    _json_seq,
    _trusted,
)
from .field import FieldSpec
from .linalg import (
    Matrix,
    Vector,
    _inverse_rows,
    _null_rows,
    _unit_row,
    apply,
    is_invertible,
    mat_inv,
    mat_mul,
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
        reduced, pivots = self.spec._kernel.rref(m.data, m.cols)
        canonical = reduced[: len(pivots)]
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
        return tuple(_trusted(Vector, self.spec, row) for row in self.rows)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, Matrix.identity(spec, ambient_dim).data)

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
        return _trusted(Subspace, spec, _json_int(ambient_dim, "ambient_dim", 0), (), ())
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
    rows = tuple(v.entries for v in vecs)
    return _trusted(Subspace, first, n, *_echelon(first._kernel, rows, n))


def _echelon(kernel, rows, n: int):
    """The span of rows of n codes, as the pair (RREF rows, pivots)."""
    reduced, pivots = kernel.rref(rows, n)
    return reduced[: len(pivots)], pivots


def _reduce_against(v: Subspace, x: Vector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients of x over v's reference basis plus the residue's
    entries."""
    if x.spec != v.spec:
        raise FieldMismatch("vector and subspace live in different fields")
    if x.n != v.ambient_dim:
        raise DimensionMismatch("vector length does not match the ambient dimension")
    coeffs = tuple(x.entries[p] for p in v.pivots)
    kernel = v.spec._kernel
    return coeffs, kernel.combine([kernel.neg[c] for c in coeffs], v.rows, x.entries)


def contains(v: Subspace, x: Vector) -> bool:
    return not any(_reduce_against(v, x)[1])


def coords(v: Subspace, x: Vector) -> Vector:
    """The unique coefficients of x over v's reference basis (length dim v)."""
    coeffs, residue = _reduce_against(v, x)
    if any(residue):
        raise NotInSubspace(f"{x.entries} is not in the subspace")
    return _trusted(Vector, v.spec, coeffs)


def from_coords(v: Subspace, c: Vector) -> Vector:
    """Ambient vector with the given reference-basis coefficients."""
    if c.spec != v.spec:
        raise FieldMismatch("coordinates and subspace live in different fields")
    if c.n != v.dim:
        raise DimensionMismatch(f"expected {v.dim} coordinates, got {c.n}")
    zero = (0,) * v.ambient_dim
    return _trusted(Vector, v.spec, v.spec._kernel.combine(c.entries, v.rows, zero))


def _steinitz(n: int, v):
    """The Steinitz complement of v = (rows, pivots): the unit rows at
    the columns that are not v's pivots, their own RREF."""
    pivot_set = set(v[1])
    free = tuple(j for j in range(n) if j not in pivot_set)
    return tuple(_unit_row(n, j) for j in free), free


def steinitz_complement(v: Subspace) -> Subspace:
    """The complement spanned by standard vectors at non-pivot columns."""
    return _trusted(Subspace, v.spec, v.ambient_dim, *_steinitz(v.ambient_dim, (v.rows, v.pivots)))


def is_complementary(u: Subspace, v: Subspace) -> bool:
    """Whether U + V = ambient and U intersect V = {0}."""
    if u.spec != v.spec or u.ambient_dim != v.ambient_dim:
        return False
    n = u.ambient_dim
    if u.dim + v.dim != n:
        return False
    return len(u.spec._kernel.rref(u.rows + v.rows, n)[1]) == n


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


def map_apply(f: SubspaceMap, x: Vector) -> Vector:
    """Apply f to an ambient vector of its domain; result is ambient."""
    return from_coords(f.codomain, apply(f.matrix, coords(f.domain, x)))


def compose(g: SubspaceMap, f: SubspaceMap) -> SubspaceMap:
    """g after f."""
    if f.codomain != g.domain:
        raise DimensionMismatch("compose: codomain of f is not the domain of g")
    return _trusted(SubspaceMap, f.domain, g.codomain, mat_mul(g.matrix, f.matrix))


def map_inverse(f: SubspaceMap) -> SubspaceMap:
    """Inverse of an isomorphism (equal dimensions, invertible matrix)."""
    if f.domain.dim != f.codomain.dim:
        raise DimensionMismatch("only maps between equal dimensions can invert")
    return _trusted(SubspaceMap, f.codomain, f.domain, mat_inv(f.matrix))


def _steinitz_split(kernel, n: int, v):
    """B = [V | U] and B^-1, row-major, for V = (rows, pivots) and U its
    Steinitz complement; the top dim(V) rows of B^-1 read off
    V-coordinates and the rest U-coordinates.  Nothing is inverted: a
    vector's V-coordinates are its entries at V's pivots, and its
    U-coordinates its free entries minus their V part, read by the rows
    e_f - sum_i v_i[f] e_(p_i), V's canonical kernel basis."""
    b = tuple(zip(*(v[0] + _steinitz(n, v)[0])))
    return b, tuple(_unit_row(n, p) for p in v[1]) + _null_rows(kernel.neg, v[0], v[1], n)


def _change_of_basis(v: Subspace, u: Subspace, what: str):
    """B = [V | U] and B^-1, row-major, for subspaces V and U of F^n.
    B is invertible exactly when V and U are complementary, so its
    inversion is the check; it raises :class:`NotComplement` with
    message ``what`` otherwise, and when they do not share field and
    ambient space or their dimensions do not add to n."""
    n = v.ambient_dim
    if v.spec != u.spec or u.ambient_dim != n or v.dim + u.dim != n:
        raise NotComplement(what)
    b = tuple(zip(*(v.rows + u.rows)))
    b_inv = _inverse_rows(v.spec._kernel, b, n)[0]
    if b_inv is None:
        raise NotComplement(what)
    return b, b_inv


def _conjugate(kernel, n: int, t, b, b_inv):
    """B^-1 T B: the n x n operator T in the basis of B's columns."""
    return kernel.product(b_inv, kernel.product(t, b, n), n)


def _decompose(kernel, n: int, k: int, t, b, b_inv):
    """The blocks T_VV, T_UV, T_UU of T over B = [V | U], dim V = k, and
    whether T maps V into V: B^-1 T B cut at k."""
    conj = _conjugate(kernel, n, t, b, b_inv)
    top, bottom = conj[:k], conj[k:]
    return (tuple(row[:k] for row in top), tuple(row[k:] for row in top),
            tuple(row[k:] for row in bottom), not any(any(row[:k]) for row in bottom))


def _assemble(kernel, n: int, b, b_inv, t_vv, t_uv, t_uu):
    """The operator with blocks T_VV, T_UV, T_UU over B = [V | U], and
    no U -> V leakage from V: B C B^-1 for C = [[T_VV, T_UV], [0, T_UU]]."""
    k = len(t_vv)
    c = tuple(a + x for a, x in zip(t_vv, t_uv)) + tuple((0,) * k + row for row in t_uu)
    return _conjugate(kernel, n, c, b_inv, b)


def _graph(kernel, n: int, v_rows, u_rows, f):
    """The graph {u + f(u)} of f : U -> V, given as the rows of its
    matrix, as the pair (rows, pivots): the span of u_j + sum_i f[i][j] v_i."""
    # column j of f, read by index: with V = 0 the matrix has no rows to zip
    graph = tuple(kernel.combine([row[j] for row in f], v_rows, urow)
                  for j, urow in enumerate(u_rows))
    return _echelon(kernel, graph, n)


def _graph_and_iso(kernel, k: int, b_inv, u_rows):
    """(f, i) for U against B = [V | W], dim V = k: writing u = a + b in
    X = V + W, i(u) = b, the canonical map U -> W, and f(u) = i(u) - u
    = -a, the map U -> V whose graph is W.  Both are blocks of
    B^-1 [U], U's basis in the coordinates of B."""
    m = kernel.product(b_inv, tuple(zip(*u_rows)), len(u_rows))
    neg = kernel.neg
    return tuple(tuple([neg[x] for x in row]) for row in m[:k]), m[k:]


def _maps_of_complement(v: Subspace, u: Subspace, w: Subspace) -> tuple[SubspaceMap, SubspaceMap]:
    """:func:`_graph_and_iso` as maps.  U complements V exactly when
    dim U = dim W and the W-block is invertible; the check inverts it on
    rows, and :func:`map_inverse` of i inverts it again."""
    _, b_inv = _change_of_basis(v, w, "W is not a complement of V")
    if u.spec != v.spec or u.ambient_dim != v.ambient_dim or u.dim != w.dim:
        raise NotComplement("U is not a complement of V")
    spec, k = v.spec, v.dim
    f, iso = _graph_and_iso(spec._kernel, k, b_inv, u.rows)
    if _inverse_rows(spec._kernel, iso, u.dim)[0] is None:
        raise NotComplement("U is not a complement of V")
    return (_trusted(SubspaceMap, u, v, _trusted(Matrix, spec, k, u.dim, f)),
            _trusted(SubspaceMap, u, w, _trusted(Matrix, spec, w.dim, u.dim, iso)))


def canonical_iso(v: Subspace, u: Subspace, w: Subspace) -> SubspaceMap:
    """The canonical isomorphism U -> W between two complements of V.

    Sends u to the unique element of W whose difference from u lies in
    V: the W-block of u's coordinates in X = V + W.  That one change of
    basis also checks that U and W are complements of V.
    """
    return _maps_of_complement(v, u, w)[1]


def map_to_complement(f: SubspaceMap) -> Subspace:
    """The graph {u + f(u)} of f : U -> V, a complement of V.

    Complementarity is checked by the [V | U] change of basis."""
    u, v = f.domain, f.codomain
    _change_of_basis(v, u, "domain and codomain are not complementary")
    n = u.ambient_dim
    return _trusted(Subspace, u.spec, n, *_graph(u.spec._kernel, n, v.rows, u.rows, f.matrix.data))


def complement_to_map(w: Subspace, v: Subspace, u: Subspace) -> SubspaceMap:
    """The unique f : U -> V whose graph over U is W; f(u) = i(u) - u,
    which is minus the V-block of the change of basis that
    :func:`canonical_iso` reads i off, and checked the same way."""
    return _maps_of_complement(v, u, w)[0]


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
    spec, n, m, r = v.spec, v.ambient_dim, v.dim, u.dim
    t_vv, t_uv, t_uu, invariant = _decompose(spec._kernel, n, m, t.data, b, b_inv)
    if not invariant:
        raise NotInvariant("T does not map V into V")
    return (_trusted(SubspaceMap, v, v, _trusted(Matrix, spec, m, m, t_vv)),
            _trusted(SubspaceMap, u, v, _trusted(Matrix, spec, m, r, t_uv)),
            _trusted(SubspaceMap, u, u, _trusted(Matrix, spec, r, r, t_uu)))


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
    n = v.ambient_dim
    data = _assemble(v.spec._kernel, n, b, b_inv, t_vv.matrix.data, t_uv.matrix.data,
                     t_uu.matrix.data)
    return _trusted(Matrix, v.spec, n, n, data)


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
        rows, n = tuple(x.entries for x in vectors), self.subspace.ambient_dim
        if len(self.subspace.spec._kernel.rref(rows, n)[1]) != len(vectors):
            raise NotBasis("vectors are linearly dependent")

    @classmethod
    def reference(cls, v: Subspace) -> "OrderedBasis":
        return cls(v, v.basis_vectors())


def _automorphism(pivots, vectors):
    """The matrix of the map of V to itself sending its reference basis
    to ``vectors``, vectors of V as rows of codes: column j holds the
    coordinates of vectors[j], its entries at V's pivots.  For a basis
    of V that is the automorphism of the torsor; for the images of the
    reference basis under an operator that maps V into V, it is the
    operator's restriction to V, which ``fitting._fitting`` reads as R
    and S."""
    return tuple(tuple([x[p] for x in vectors]) for p in pivots)


def basis_to_automorphism(b: OrderedBasis) -> SubspaceMap:
    """The unique automorphism sending the reference basis to b."""
    v = b.subspace
    data = _automorphism(v.pivots, tuple(x.entries for x in b.vectors))
    return _trusted(SubspaceMap, v, v, _trusted(Matrix, v.spec, v.dim, v.dim, data))


def automorphism_to_basis(r: SubspaceMap) -> OrderedBasis:
    """Images of the reference basis under an automorphism of V."""
    if r.domain != r.codomain:
        raise DimensionMismatch("automorphisms must have equal domain and codomain")
    if not is_invertible(r.matrix):
        raise NotAutomorphism("map matrix is singular")
    v = r.domain
    images = v.spec._kernel.product(tuple(zip(*r.matrix.data)), v.rows, v.ambient_dim)
    return _trusted(OrderedBasis, v, tuple(_trusted(Vector, v.spec, row) for row in images))
