"""Labelled trees, endofunctions, and the bijection between them.

A tree on {0..n-1} with an ordered pair of marked vertices corresponds
to an endofunction of {0..n-1}: the unique path between the marks
becomes the cycle part (the increasing enumeration of the path's vertex
set is sent to the path order), and every off-path vertex points one
step toward v, which in a tree is its step toward the path, so one
breadth-first search from v finds both.  Inverting reads the cycle part
off the periodic points, im(f^m) for any m >= n, found by squaring the
value table as V = im(Q^n) is found on the linear side.  Counting both
sides gives the n^(n-2) tree count; the functions whose iterates
collapse to a single fixed point are exactly the images of pairs with
both marks equal, n^(n-1) of them.

The ``Tree`` and ``EndoFunction`` constructors validate their input,
integer slots included; the endofunctions that the enumeration and
:func:`joyal_forward` build themselves are made unchecked by
:func:`_endofunction`, and the trees of :func:`joyal_inverse` by
:func:`_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InvalidVertex, SchemaError, _json_int


@dataclass(frozen=True)
class Tree:
    """Tree on vertices 0..n-1; edges stored sorted for canonical form."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if _json_int(self.n, "n") < 1:
            raise SchemaError(f"a tree needs at least one vertex, got n={self.n}")
        norm = []
        for e in self.edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise SchemaError(f"edge {e!r} is not a pair of vertices") from None
            _json_int(a, "vertex")
            _json_int(b, "vertex")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidVertex(f"edge {e} leaves 0..{self.n - 1}")
            if a == b:
                raise SchemaError(f"self-loop at vertex {a}")
            norm.append((min(a, b), max(a, b)))
        norm.sort()
        if len(set(norm)) != len(norm):
            raise SchemaError("duplicate edges")
        object.__setattr__(self, "edges", tuple(norm))
        if len(norm) != self.n - 1:
            raise SchemaError(f"expected {self.n - 1} edges, got {len(norm)}")
        if -1 in _parents(self, 0):
            raise SchemaError("edges do not connect all vertices")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj: object) -> "Tree":
        if not isinstance(obj, dict):
            raise SchemaError(f"tree payload must be an object: {obj!r}")
        try:
            return cls(obj["n"], tuple(obj["edges"]))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad tree payload: {exc}") from exc


@dataclass(frozen=True)
class EndoFunction:
    """Function {0..n-1} -> {0..n-1}, as its value table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if _json_int(self.n, "n") < 1:
            raise SchemaError(f"need at least one vertex, got n={self.n}")
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.n:
            raise SchemaError(f"table has {len(self.table)} entries, expected {self.n}")
        for x in self.table:
            if not 0 <= _json_int(x, "table value") < self.n:
                raise InvalidVertex(f"value {x} leaves 0..{self.n - 1}")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def to_json(self) -> dict:
        return {"n": self.n, "table": list(self.table)}

    @classmethod
    def from_json(cls, obj: object) -> "EndoFunction":
        if not isinstance(obj, dict):
            raise SchemaError(f"endofunction payload must be an object: {obj!r}")
        try:
            return cls(obj["n"], tuple(obj["table"]))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad endofunction payload: {exc}") from exc


def _endofunction(n: int, table: tuple[int, ...]) -> EndoFunction:
    """An EndoFunction the library built itself, unchecked: ``table`` is
    already a tuple of n codes in 0..n-1."""
    f = object.__new__(EndoFunction)
    f.__dict__.update(n=n, table=table)
    return f


def _tree(n: int, edges: tuple[tuple[int, int], ...]) -> Tree:
    """A Tree the library built itself, unchecked: ``edges`` are canonical."""
    t = object.__new__(Tree)
    t.__dict__.update(n=n, edges=edges)
    return t


def _parents(tree: Tree, root: int) -> list[int]:
    """Breadth-first search from ``root``: each vertex's neighbour one step
    nearer ``root``, ``root`` itself at ``root``, and -1 where the search
    never reaches."""
    adj = tree.adjacency()
    parent = [-1] * tree.n
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return parent


def _stable_power(f: EndoFunction) -> tuple[int, ...]:
    """Value table of f^m by squaring, m the least power of two >= n.
    Every tail of f has length <= n - 1, so for any m >= n the image of
    f^m is exactly the set of periodic points."""
    cur = f.table
    for _ in range((f.n - 1).bit_length()):
        cur = tuple(map(cur.__getitem__, cur))
    return cur


def is_eventually_constant(f: EndoFunction) -> bool:
    """Whether every orbit of f lands on one common fixed point."""
    return len(set(_stable_power(f))) == 1


def periodic_points(f: EndoFunction) -> tuple[int, ...]:
    """The vertices lying on cycles of f, ascending."""
    return tuple(sorted(set(_stable_power(f))))


def joyal_forward(tree: Tree, v: int, v2: int) -> EndoFunction:
    """Endofunction of the tree with marked vertices (v, v2)."""
    n = tree.n
    for x in (v, v2):
        if not 0 <= x < n:
            raise InvalidVertex(f"marked vertex {x} leaves 0..{n - 1}")
    table = _parents(tree, v)
    if table[v2] < 0:  # a Tree is connected; only an unchecked build can get here
        raise AssertionError(f"vertex {v2} is not connected to vertex {v}")
    path = [v2]
    while path[-1] != v:
        path.append(table[path[-1]])
    path.reverse()
    # off-path vertices keep their step toward v: their step toward the path
    for a, b in zip(sorted(path), path):
        table[a] = b
    return _endofunction(n, tuple(table))


def joyal_inverse(f: EndoFunction) -> tuple[Tree, int, int]:
    """Tree and marked vertices recovering f under :func:`joyal_forward`."""
    on_cycle = set(_stable_power(f))
    path = [f.table[a] for a in sorted(on_cycle)]
    edges = [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
    edges += [(x, y) if x < y else (y, x)
              for x, y in enumerate(f.table) if x not in on_cycle]
    edges.sort()
    return _tree(f.n, tuple(edges)), path[0], path[-1]


def all_endofunctions(n: int):
    """All n^n endofunctions, in lexicographic table order."""
    if n < 1:
        raise SchemaError(f"need at least one vertex, got n={n}")
    for table in product(range(n), repeat=n):
        yield _endofunction(n, table)

