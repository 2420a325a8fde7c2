"""Outside data meets one reader.  Every slot of a public constructor,
classmethod or census entry point, and every position of a document
given to a ``from_json``, yields a value or a ``NilbijError`` for every
malformed value, never another exception; and a ``TypeError`` raised by
library code is never reported as bad input."""

import copy

import pytest

from conftest import GF2
from nilbij import (
    EndoFunction,
    FieldSpec,
    FittingPair,
    Matrix,
    NilbijError,
    NilpotentPair,
    OrderedBasis,
    Subspace,
    SubspaceMap,
    Tree,
    Vector,
    all_endofunctions,
    apply,
    block_decompose,
    contains,
    count_nilpotents,
    degree,
    enumerate_operators,
    fitting_decompose,
    inverse,
    is_invertible,
    is_nilpotent,
    joyal_forward,
    linalg,
    mat_inv,
    mat_mul,
    mat_pow,
    span,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)
from test_cli import BAD_VALUES, _mutate, _paths

# Every malformed value, integers too long to format (json.dumps cannot
# write them, so the CLI fuzz tests leave them out), and a bare int for
# the slots that take a sequence.
VALUES = BAD_VALUES + (10**5000, -10**5000, 5)

# LINE is one-dimensional, so a one-item sequence of basis vectors gets
# past the length check to the check on its item.
LINE = Subspace(GF2, 2, ((1, 1),))
TREE = Tree(3, ((0, 1), (1, 2)))
BUDGET = 600  # every census point that this budget admits runs in well under 1 s

# name -> (call, valid arguments); the field, subspace, tree and matrix
# operands are the library's own types and stay valid.
PUBLIC_SLOTS = {
    "FieldSpec": (FieldSpec, (2, 2, (1, 1, 1))),
    "FieldSpec.pow": (lambda e: GF2.pow(1, e), (2,)),
    "Vector": (lambda entries: Vector(GF2, entries), ((1, 0),)),
    "Vector.zero": (lambda n: Vector.zero(GF2, n), (2,)),
    "Matrix": (lambda r, c, data: Matrix(GF2, r, c, data), (1, 2, ((0, 1),))),
    "Matrix.from_rows": (lambda rows: Matrix.from_rows(GF2, rows), (((0, 1),),)),
    "Matrix.zero": (lambda r, c: Matrix.zero(GF2, r, c), (1, 2)),
    "Matrix.identity": (lambda n: Matrix.identity(GF2, n), (2,)),
    "Subspace": (lambda n, rows: Subspace(GF2, n, rows), (2, ((1, 1),))),
    "Subspace.zero": (lambda n: Subspace.zero(GF2, n), (2,)),
    "Subspace.full": (lambda n: Subspace.full(GF2, n), (2,)),
    "OrderedBasis": (lambda vectors: OrderedBasis(LINE, vectors), ((Vector(GF2, (1, 1)),),)),
    "Tree": (Tree, (3, ((0, 1), (1, 2)))),
    "EndoFunction": (EndoFunction, (3, (0, 0, 1))),
    "joyal_forward": (lambda v, v2: joyal_forward(TREE, v, v2), (0, 2)),
    "count_nilpotents": (lambda n, b: count_nilpotents(GF2, n, b), (2, BUDGET)),
    "enumerate_operators": (lambda n, b: enumerate_operators(GF2, n, b), (2, BUDGET)),
    "verify_theorem": (lambda n, b: verify_theorem(GF2, n, b), (2, BUDGET)),
    "verify_degree_refinement": (lambda n, b: verify_degree_refinement(GF2, n, b),
                                 (2, BUDGET)),
    "verify_joyal": (verify_joyal, (3, BUDGET)),
    "all_endofunctions": (all_endofunctions, (3,)),
    "mat_pow": (lambda e: mat_pow(Matrix.identity(GF2, 2), e), (3,)),
    "span": (lambda vectors, n: span(vectors, GF2, n), ((Vector(GF2, (1, 1)),), 2)),
}

GF4_DOC = {"p": 2, "k": 2, "poly": [1, 1, 1]}
VALID_DOCS = {
    FieldSpec: GF4_DOC,
    Vector: Vector(GF2, (1, 0)).to_json(),
    Matrix: {"field": GF4_DOC, "rows": 2, "cols": 2, "data": [[2, 0], [1, 3]]},
    Subspace: LINE.to_json(),
    FittingPair: fitting_decompose(Matrix.from_rows(GF2, [(1, 0), (1, 0)])).to_json(),
    NilpotentPair: NilpotentPair(Matrix.from_rows(GF2, [(0, 0), (1, 0)]),
                                 Vector(GF2, (1, 1))).to_json(),
    Tree: TREE.to_json(),
    EndoFunction: EndoFunction(3, (0, 0, 1)).to_json(),
}


def value_or_nilbij_error(call, *args):
    """A NilbijError is an answer; any other exception fails, naming the
    arguments that raised it."""
    try:
        call(*args)
    except NilbijError:
        pass
    except Exception as exc:
        pytest.fail(f"{args!r} raised {exc!r}")


@pytest.mark.parametrize("name", sorted(PUBLIC_SLOTS))
def test_every_public_slot_gives_a_value_or_a_nilbij_error(name):
    call, valid = PUBLIC_SLOTS[name]
    call(*valid)
    for slot in range(len(valid)):
        for value in VALUES:
            args = valid[:slot] + (value,) + valid[slot + 1:]
            value_or_nilbij_error(call, *args)


@pytest.mark.parametrize("cls", list(VALID_DOCS), ids=lambda cls: cls.__name__)
def test_every_document_position_gives_a_value_or_a_nilbij_error(cls):
    doc = VALID_DOCS[cls]
    assert cls.from_json(doc).to_json() == doc
    for value in VALUES:
        value_or_nilbij_error(cls.from_json, value)
    for path in _paths(doc):
        value_or_nilbij_error(cls.from_json, _mutate(copy.deepcopy(doc), path, "drop", None))
        for value in VALUES:
            value_or_nilbij_error(cls.from_json, _mutate(copy.deepcopy(doc), path, "set", value))


def test_a_library_type_error_is_not_bad_input(monkeypatch):
    def broken(values, q, what):
        raise TypeError("a fault inside validation")

    monkeypatch.setattr(linalg, "_check_codes", broken)
    with pytest.raises(TypeError, match="a fault inside validation"):
        Matrix.from_json(VALID_DOCS[Matrix])


# A Matrix or Subspace built from data takes any size its data has, so a
# dimension too long to format reaches the shape checks of the library,
# whose refusals name the mismatch and not the sizes.
HUGE = 10**5000
WIDE = Matrix(GF2, 0, HUGE, ())
EMPTY = Subspace.zero(GF2, 0)
HUGE_DIMENSION_CALLS = {
    "is_nilpotent": lambda: is_nilpotent(WIDE),
    "mat_inv": lambda: mat_inv(WIDE),
    "is_invertible": lambda: is_invertible(WIDE),
    "mat_pow": lambda: mat_pow(WIDE, 2),
    "mat_mul": lambda: mat_mul(WIDE, WIDE),
    "apply": lambda: apply(WIDE, Vector(GF2, (0,))),
    "degree": lambda: degree(WIDE, Vector(GF2, ())),
    "inverse": lambda: inverse(WIDE),
    "fitting_decompose": lambda: fitting_decompose(WIDE),
    "block_decompose": lambda: block_decompose(WIDE, EMPTY, EMPTY),
    "contains": lambda: contains(Subspace.zero(GF2, HUGE), Vector(GF2, (0,))),
    "SubspaceMap": lambda: SubspaceMap(EMPTY, EMPTY, WIDE),
}


@pytest.mark.parametrize("name", sorted(HUGE_DIMENSION_CALLS))
def test_a_huge_empty_dimension_is_refused_with_a_nilbij_error(name):
    with pytest.raises(NilbijError):
        HUGE_DIMENSION_CALLS[name]()
