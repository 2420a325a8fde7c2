"""Labelled trees, endofunctions, and the bijection between them.

A tree on {0..n-1} with an ordered pair of marked vertices corresponds
to an endofunction of {0..n-1}: the unique path between the marks
becomes the cycle part (the increasing enumeration of the path's vertex
set is sent to the path order), and every off-path vertex points one
step toward v, which in a tree is its step toward the path, so one
breadth-first search from v finds both.  Inverting reads the cycle
part off the periodic points, im(f^m) for any m >= n, found by
squaring the value table as V = im(Q^n) is found on the linear side.
Counting both sides gives the n^(n-2) tree count; the functions whose
iterates collapse to a single fixed point are exactly the images of
pairs with both marks equal, n^(n-1) of them.

Each operation has one table core that takes and returns tuples:
:func:`_joyal_inverse` maps a value table to a tree's canonical edge
tuple and its marks, :func:`_joyal_forward` maps them back to a table,
and :func:`_eventually_constant`, :func:`_stable_power` and
:func:`_parents` read a table or an edge tuple.  The public
:func:`joyal_inverse`, :func:`joyal_forward`,
:func:`is_eventually_constant` and :func:`periodic_points` check their
input (a validated value, and the marks of :func:`joyal_forward`), call
the core and wrap its result, as ``bijection.forward`` and ``inverse``
do on the linear side.  The census walk calls the cores on tuples, so,
like a ``Matrix``, an ``EndoFunction`` remembers nothing: the walk
squares each table's stable power twice, once for the inverse and once
for the stratum key.

The ``Tree`` and ``EndoFunction`` constructors validate their input,
integer and sequence slots included, and :func:`joyal_forward` reads
its marks as :func:`all_endofunctions` reads n: each integer with its
range, through ``_json_int``, a vertex count in [1, 2^20] and a vertex
in [0, n - 1] (``InvalidVertex`` outside it).  The endofunctions that
the enumeration and :func:`joyal_forward` build themselves, and the
trees of :func:`joyal_inverse`, are made unchecked by
``errors._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import InvalidVertex, SchemaError, _json_fields, _json_int, _json_seq, _trusted
from .linalg import _SIZE_MAX

__all__ = [
    "EndoFunction",
    "Tree",
    "all_endofunctions",
    "is_eventually_constant",
    "joyal_forward",
    "joyal_inverse",
    "periodic_points",
]


@dataclass(frozen=True)
class Tree:
    """Tree on vertices 0..n-1; edges stored sorted for canonical form."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = _json_int(self.n, "n", 1, _SIZE_MAX) - 1
        norm = []
        for e in _json_seq(self.edges, "edges"):
            try:
                a, b = e
            except (TypeError, ValueError):
                raise SchemaError("an edge is not a pair of vertices") from None
            _json_int(a, "vertex", 0, last, InvalidVertex)
            _json_int(b, "vertex", 0, last, InvalidVertex)
            if a == b:
                raise SchemaError(f"self-loop at vertex {a}")
            norm.append((min(a, b), max(a, b)))
        norm.sort()
        if len(set(norm)) != len(norm):
            raise SchemaError("duplicate edges")
        object.__setattr__(self, "edges", tuple(norm))
        if len(norm) != self.n - 1:
            raise SchemaError(f"expected {self.n - 1} edges, got {len(norm)}")
        if -1 in _parents(self.n, self.edges, 0):
            raise SchemaError("edges do not connect all vertices")

    def adjacency(self) -> list[list[int]]:
        return _adjacency(self.n, self.edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj: object) -> "Tree":
        return cls(*_json_fields(obj, "tree", "n", "edges"))


@dataclass(frozen=True)
class EndoFunction:
    """Function {0..n-1} -> {0..n-1}, as its value table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        last = _json_int(self.n, "n", 1, _SIZE_MAX) - 1
        object.__setattr__(self, "table", _json_seq(self.table, "table"))
        if len(self.table) != self.n:
            raise SchemaError(f"table has {len(self.table)} entries, expected {self.n}")
        for x in self.table:
            _json_int(x, "table value", 0, last, InvalidVertex)

    def __call__(self, x: int) -> int:
        return self.table[_json_int(x, "vertex", 0, self.n - 1, InvalidVertex)]

    def to_json(self) -> dict:
        return {"n": self.n, "table": list(self.table)}

    @classmethod
    def from_json(cls, obj: object) -> "EndoFunction":
        return cls(*_json_fields(obj, "endofunction", "n", "table"))


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _parents(n: int, edges, root: int) -> list[int]:
    """Breadth-first search from ``root`` over the edges on n vertices:
    each vertex's neighbour one step nearer ``root``, ``root`` itself at
    ``root``, and -1 where the search never reaches."""
    adj = _adjacency(n, edges)
    parent = [-1] * n
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return parent


def _stable_power(table: tuple[int, ...]) -> tuple[int, ...]:
    """Value table of f^m by squaring, m the least power of two >= n.
    Every tail of f has length <= n - 1, so for any m >= n the image of
    f^m is exactly the set of periodic points."""
    for _ in range((len(table) - 1).bit_length()):
        table = tuple(map(table.__getitem__, table))
    return table


def is_eventually_constant(f: EndoFunction) -> bool:
    """Whether every orbit of f lands on one common fixed point."""
    return _eventually_constant(f.table)


def _eventually_constant(table: tuple[int, ...]) -> bool:
    """:func:`is_eventually_constant` on a value table."""
    return len(set(_stable_power(table))) == 1


def periodic_points(f: EndoFunction) -> tuple[int, ...]:
    """The vertices lying on cycles of f, ascending."""
    return tuple(sorted(set(_stable_power(f.table))))


def joyal_forward(tree: Tree, v: int, v2: int) -> EndoFunction:
    """Endofunction of the tree with marked vertices (v, v2)."""
    _json_int(v, "v", 0, tree.n - 1, InvalidVertex)
    _json_int(v2, "v2", 0, tree.n - 1, InvalidVertex)
    return _trusted(EndoFunction, tree.n, _joyal_forward(tree.n, tree.edges, v, v2))


def _joyal_forward(n: int, edges, v: int, v2: int) -> tuple[int, ...]:
    """:func:`joyal_forward` on a tree's edges, unchecked: the value
    table; ``v`` and ``v2`` are vertices of the tree."""
    table = _parents(n, edges, v)
    if table[v2] < 0:  # a Tree is connected; only an unchecked build can get here
        raise AssertionError(f"vertex {v2} is not connected to vertex {v}")
    path = [v2]
    while path[-1] != v:
        path.append(table[path[-1]])
    path.reverse()
    # off-path vertices keep their step toward v: their step toward the path
    for a, b in zip(sorted(path), path):
        table[a] = b
    return tuple(table)


def joyal_inverse(f: EndoFunction) -> tuple[Tree, int, int]:
    """Tree and marked vertices recovering f under :func:`joyal_forward`."""
    edges, v, v2 = _joyal_inverse(f.table)
    return _trusted(Tree, f.n, edges), v, v2


def _joyal_inverse(table: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """:func:`joyal_inverse` on a value table: the tree's canonical edge
    tuple and the two ends of its path, the marks."""
    on_cycle = set(_stable_power(table))
    path = [table[a] for a in sorted(on_cycle)]
    edges = [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
    edges += [(x, y) if x < y else (y, x)
              for x, y in enumerate(table) if x not in on_cycle]
    edges.sort()
    return tuple(edges), path[0], path[-1]


def all_endofunctions(n: int):
    """All n^n endofunctions, in lexicographic table order, as an
    iterator; n is checked at the call."""
    n = _json_int(n, "n", 1, _SIZE_MAX)
    return map(partial(_trusted, EndoFunction, n), product(range(n), repeat=n))
