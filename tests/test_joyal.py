"""Tree/endofunction bijection: frozen examples, exhaustive round
trips, and an independent spanning-tree count oracle."""

from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbij import (
    EndoFunction,
    InvalidVertex,
    SchemaError,
    Tree,
    all_endofunctions,
    is_eventually_constant,
    joyal_forward,
    joyal_inverse,
    periodic_points,
    verify_joyal,
)
from nilbij.errors import _trusted


def brute_tree_count(n: int) -> int:
    """Count trees by testing every (n-1)-subset of possible edges."""
    if n == 1:
        return 1
    pairs = list(combinations(range(n), 2))
    count = 0
    for picks in combinations(pairs, n - 1):
        try:
            Tree(n, picks)
            count += 1
        except SchemaError:
            pass
    return count


def ref_joyal_forward(tree: Tree, v: int, v2: int) -> EndoFunction:
    """Two-search reference: a search from v finds the path, and a second
    search from the whole path gives each off-path vertex its step."""
    n = tree.n
    adj = tree.adjacency()
    parent = [-1] * n
    seen = [False] * n
    seen[v] = True
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                queue.append(y)
    path = [v2]
    while path[-1] != v:
        path.append(parent[path[-1]])
    path.reverse()
    table = [-1] * n
    for a, b in zip(sorted(path), path):
        table[a] = b
    queue = deque(path)
    toward = [False] * n
    for x in path:
        toward[x] = True
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not toward[y]:
                toward[y] = True
                table[y] = x
                queue.append(y)
    return EndoFunction(n, tuple(table))


def ref_iterate_table(f: EndoFunction) -> tuple[int, ...]:
    """The n-pass reference that squaring replaced: the table of f^n."""
    cur = tuple(range(f.n))
    for _ in range(f.n):
        cur = tuple(f.table[x] for x in cur)
    return cur


def ref_joyal_inverse(f: EndoFunction) -> tuple[Tree, int, int]:
    """The inverse on the n-pass iterate, building its tree publicly."""
    periodic = sorted(set(ref_iterate_table(f)))
    path = [f.table[a] for a in periodic]
    pairs = list(zip(path, path[1:]))
    pairs += [(x, y) for x, y in enumerate(f.table) if x not in periodic]
    return Tree(f.n, tuple(pairs)), path[0], path[-1]


def brute_periodic_points(f: EndoFunction) -> tuple[int, ...]:
    """x is periodic iff f^k(x) = x for some 1 <= k <= n."""
    out = []
    for x in range(f.n):
        y = x
        for _ in range(f.n):
            y = f.table[y]
            if y == x:
                out.append(x)
                break
    return tuple(out)


def longest_tails(n: int):
    """The chain x -> max(x - 1, 0), whose tail from n - 1 has the
    longest length, n - 1, and the same chain feeding a 2-cycle on
    {0, 1}, with their periodic points."""
    chain = (0,) + tuple(range(n - 1))
    yield EndoFunction(n, chain), (0,)
    if n >= 2:
        yield EndoFunction(n, (1, 0) + chain[2:]), (0, 1)


# construction and validation

def test_tree_canonicalizes_edges():
    t = Tree(3, ((2, 1), (1, 0)))
    assert t.edges == ((0, 1), (1, 2))


def test_tree_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        Tree(3, ((0, 1),))  # too few edges
    with pytest.raises(SchemaError):
        Tree(3, ((0, 1), (1, 2), (0, 2)))  # cycle
    with pytest.raises(SchemaError):
        Tree(4, ((0, 1), (1, 2), (2, 0)))  # cycle + isolated vertex
    with pytest.raises(SchemaError):
        Tree(2, ((0, 0),))  # self-loop
    with pytest.raises(SchemaError):
        Tree(3, ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(InvalidVertex):
        Tree(2, ((0, 2),))
    with pytest.raises(SchemaError):
        Tree(0, ())


def test_endofunction_validation():
    with pytest.raises(SchemaError):
        EndoFunction(2, (0,))
    with pytest.raises(InvalidVertex):
        EndoFunction(2, (0, 2))
    f = EndoFunction(3, (1, 2, 2))
    assert f(0) == 1 and f(2) == 2


def test_constructors_refuse_non_integer_slots():
    for bad in (lambda: EndoFunction(3, (0, 1.9, True)),
                lambda: EndoFunction(3, (0, "1", 2)),
                lambda: EndoFunction(2.0, (0, 1)),
                lambda: Tree(True, ()),
                lambda: Tree(2, ((0, 1.0),)),
                lambda: Tree(2, ((0, 1, 1),)),
                lambda: Tree(2, (0,))):
        with pytest.raises(SchemaError):
            bad()


# eventually constant

def test_eventually_constant_frozen():
    assert is_eventually_constant(EndoFunction(3, (0, 0, 0)))
    assert not is_eventually_constant(EndoFunction(2, (0, 1)))  # two fixed points
    assert is_eventually_constant(EndoFunction(3, (1, 2, 2)))
    assert not is_eventually_constant(EndoFunction(2, (1, 0)))  # swap
    assert is_eventually_constant(EndoFunction(1, (0,)))


def test_eventually_constant_iff_single_periodic_fixed_point():
    for n in range(1, 5):
        for f in all_endofunctions(n):
            per = periodic_points(f)
            expected = len(per) == 1 and f.table[per[0]] == per[0]
            assert is_eventually_constant(f) == expected


# periodic points

@pytest.mark.parametrize("n", range(1, 7))
def test_periodic_points_match_brute_force(n):
    for f in all_endofunctions(n):
        assert periodic_points(f) == brute_periodic_points(f)


def test_periodic_points_on_longest_tails_across_powers_of_two():
    """n = 1..70 crosses every power of two and every power of two plus
    one up to 65, where one squaring fewer or more would show."""
    for n in range(1, 71):
        for f, periodic in longest_tails(n):
            assert periodic_points(f) == brute_periodic_points(f) == periodic, n
            assert set(ref_iterate_table(f)) == set(periodic), n
            assert is_eventually_constant(f) == (len(periodic) == 1), n
            assert joyal_inverse(f) == ref_joyal_inverse(f), n
            assert joyal_forward(*joyal_inverse(f)) == f, n


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_matches_n_pass_reference(n):
    for f in all_endofunctions(n):
        assert joyal_inverse(f) == ref_joyal_inverse(f)


# forward, frozen

def test_forward_single_vertex():
    t = Tree(1, ())
    assert joyal_forward(t, 0, 0) == EndoFunction(1, (0,))


def test_forward_two_vertices_both_orders():
    t = Tree(2, ((0, 1),))
    assert joyal_forward(t, 0, 1) == EndoFunction(2, (0, 1))
    assert joyal_forward(t, 1, 0) == EndoFunction(2, (1, 0))
    assert joyal_forward(t, 0, 0) == EndoFunction(2, (0, 0))


def test_forward_rejects_bad_vertex():
    t = Tree(2, ((0, 1),))
    with pytest.raises(InvalidVertex):
        joyal_forward(t, 0, 2)
    with pytest.raises(InvalidVertex):
        joyal_forward(t, -1, 0)


def test_forward_reads_its_marks_as_integers():
    """A bool, float or str mark is refused, not read as the vertex it
    compares equal to, nor left to fail as a TypeError."""
    t = Tree(3, ((0, 1), (1, 2)))
    for v, v2 in ((True, 0), (0, False), (1.0, 2), (0, 1.5), ("0", 2), (None, 0)):
        with pytest.raises(SchemaError):
            joyal_forward(t, v, v2)


def test_forward_fails_at_once_on_an_unchecked_disconnected_tree():
    """The path walk needs v2 reachable from v; an unchecked build that
    breaks this is an internal fault, not an endless walk."""
    broken = _trusted(Tree, 4, ((0, 1), (0, 2), (1, 2)))  # vertex 3 is isolated
    with pytest.raises(AssertionError):
        joyal_forward(broken, 0, 3)


# inverse, frozen

def test_inverse_identity_single_vertex():
    tree, v, v2 = joyal_inverse(EndoFunction(1, (0,)))
    assert tree == Tree(1, ()) and v == 0 and v2 == 0


def test_inverse_swap():
    tree, v, v2 = joyal_inverse(EndoFunction(2, (1, 0)))
    assert tree == Tree(2, ((0, 1),))
    assert (v, v2) == (1, 0)


def test_inverse_collapsing_chain():
    tree, v, v2 = joyal_inverse(EndoFunction(3, (1, 2, 2)))
    assert tree == Tree(3, ((0, 1), (1, 2)))
    assert v == 2 and v2 == 2


# round trips

@pytest.mark.parametrize("n", range(1, 6))
def test_roundtrip_over_all_functions(n):
    for f in all_endofunctions(n):
        tree, v, v2 = joyal_inverse(f)
        assert joyal_forward(tree, v, v2) == f


@pytest.mark.parametrize("n", range(1, 6))
def test_roundtrip_over_all_marked_trees(n):
    trees = {joyal_inverse(f)[0] for f in all_endofunctions(n)}
    for tree in trees:
        for v in range(n):
            for v2 in range(n):
                f = joyal_forward(tree, v, v2)
                assert joyal_inverse(f) == (tree, v, v2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forward_matches_two_search_reference_on_larger_trees(data):
    """The exhaustive walks stop at n = 6; a tree drawn as the inverse
    image of a drawn function, with drawn marks, reaches n = 40."""
    n = data.draw(st.integers(7, 40), label="n")
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                      label="table")
    tree = joyal_inverse(EndoFunction(n, tuple(table)))[0]
    assert Tree(n, tree.edges) == tree
    v = data.draw(st.integers(0, n - 1), label="v")
    v2 = data.draw(st.integers(0, n - 1), label="v2")
    assert joyal_forward(tree, v, v2) == ref_joyal_forward(tree, v, v2)


@pytest.mark.parametrize("n", range(1, 5))
def test_forward_periodic_points_are_the_path(n):
    trees = {joyal_inverse(f)[0] for f in all_endofunctions(n)}
    for tree in trees:
        adj = tree.adjacency()
        for v in range(n):
            for v2 in range(n):
                f = joyal_forward(tree, v, v2)
                # unique path from v to v2, by DFS
                stack, prev = [v], {v: v}
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y not in prev:
                            prev[y] = x
                            stack.append(y)
                path = {v2}
                x = v2
                while x != v:
                    x = prev[x]
                    path.add(x)
                assert set(periodic_points(f)) == path


# counts

@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
def test_count_trees_frozen(n, expected):
    assert verify_joyal(n).tree_count == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_count_trees_matches_edge_subset_oracle(n):
    assert verify_joyal(n).tree_count == brute_tree_count(n)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625)])
def test_count_eventually_constant_frozen(n, expected):
    assert verify_joyal(n).eventually_constant_count == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_rooted_tree_correspondence(n):
    # eventually constant functions = (tree, root) pairs
    report = verify_joyal(n)
    assert report.eventually_constant_count == n * report.tree_count
    for f in all_endofunctions(n):
        tree, v, v2 = joyal_inverse(f)
        assert is_eventually_constant(f) == (v == v2)


# JSON

def test_tree_json_roundtrip():
    t = Tree(4, ((0, 1), (1, 2), (1, 3)))
    assert Tree.from_json(t.to_json()) == t
    assert t.to_json() == {"n": 4, "edges": [[0, 1], [1, 2], [1, 3]]}
    for bad in ({"n": 2.0, "edges": [[0, 1]]}, {"n": 2, "edges": [[0, True]]}):
        with pytest.raises(SchemaError):
            Tree.from_json(bad)


def test_endofunction_json_roundtrip():
    f = EndoFunction(3, (1, 2, 2))
    assert EndoFunction.from_json(f.to_json()) == f
    with pytest.raises(SchemaError):
        EndoFunction.from_json({"n": 3})
    with pytest.raises(SchemaError):
        EndoFunction.from_json({"n": 3, "table": [1, 2, 2.5]})
