"""Outside data meets one reader.  Every slot of a public constructor,
classmethod or census entry point, and every position of a document
given to a ``from_json``, yields a value or a ``NilbijError`` for every
malformed value, never another exception; and a ``TypeError`` raised by
library code is never reported as bad input."""

import copy
import hashlib
import inspect
import types
import typing

import pytest

import nilbij
from conftest import GF2, GF3, GF4
from nilbij import (
    CensusReport,
    DegreeStratum,
    DimensionMismatch,
    EndoFunction,
    FieldMismatch,
    FieldSpec,
    FittingPair,
    JoyalReport,
    Matrix,
    NilbijError,
    NilpotentPair,
    OrderedBasis,
    SchemaError,
    Subspace,
    SubspaceMap,
    Tree,
    Vector,
    all_endofunctions,
    apply,
    block_decompose,
    compose,
    contains,
    count_nilpotents,
    degree,
    enumerate_operators,
    fitting_decompose,
    from_coords,
    inverse,
    is_complementary,
    is_invertible,
    is_nilpotent,
    joyal_forward,
    linalg,
    mat_inv,
    map_inverse,
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
    "FieldSpec.add": (GF2.add, (1, 1)),
    "FieldSpec.mul": (GF2.mul, (1, 1)),
    "FieldSpec.neg": (GF2.neg, (1,)),
    "FieldSpec.sub": (GF2.sub, (1, 1)),
    "FieldSpec.inv": (GF2.inv, (1,)),
    "FieldSpec.pow": (GF2.pow, (1, 2)),
    "FieldSpec.digits": (GF4.digits, (3,)),
    "FieldSpec.code": (GF4.code, ((1, 1),)),
    "Vector": (lambda entries: Vector(GF2, entries), ((1, 0),)),
    "Vector.zero": (lambda n: Vector.zero(GF2, n), (2,)),
    "Matrix": (lambda r, c, data: Matrix(GF2, r, c, data), (1, 2, ((0, 1),))),
    "Matrix.from_rows": (lambda rows: Matrix.from_rows(GF2, rows), (((0, 1),),)),
    "Matrix.zero": (lambda r, c: Matrix.zero(GF2, r, c), (1, 2)),
    "Matrix.identity": (lambda n: Matrix.identity(GF2, n), (2,)),
    "Matrix.column": (Matrix.identity(GF2, 2).column, (1,)),
    "Subspace": (lambda n, rows: Subspace(GF2, n, rows), (2, ((1, 1),))),
    "Subspace.zero": (lambda n: Subspace.zero(GF2, n), (2,)),
    "Subspace.full": (lambda n: Subspace.full(GF2, n), (2,)),
    "OrderedBasis": (lambda vectors: OrderedBasis(LINE, vectors), ((Vector(GF2, (1, 1)),),)),
    "Tree": (Tree, (3, ((0, 1), (1, 2)))),
    "EndoFunction": (EndoFunction, (3, (0, 0, 1))),
    "EndoFunction.__call__": (EndoFunction(3, (0, 0, 1)), (2,)),
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
    # the census records, as verify_theorem(GF(2), 1), one row of
    # verify_degree_refinement(GF(2), 1) and verify_joyal(3) build them
    "CensusReport": (CensusReport, (2, 1, 2, 1, 1, 0, 0, ((0, 1, 1), (1, 1, 1)), 0.0, True)),
    "DegreeStratum": (DegreeStratum, (0, 1, 1, True, True)),
    "JoyalReport": (JoyalReport, (3, 27, 3, 3, 9, 9, 0, 0.0, True)),
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


# Calls that read a wrong value without an error before their slot was
# read by _json_int: a code, digit, column or vertex taken modulo its
# range, or indexed from the end.
SILENT_MISREADS = {
    "neg(-1)": lambda: GF2.neg(-1),
    "inv(5)": lambda: GF2.inv(5),
    "inv(1.5)": lambda: GF2.inv(1.5),
    "code((5, 0))": lambda: FieldSpec(3, 2).code((5, 0)),
    "code((1.5,))": lambda: FieldSpec(3, 2).code((1.5,)),
    "add(10**5000, 1)": lambda: FieldSpec(4099).add(10**5000, 1),
    "column(-1)": lambda: Matrix.identity(GF2, 2).column(-1),
    "EndoFunction(-1)": lambda: EndoFunction(2, (0, 1))(-1),
}


@pytest.mark.parametrize("name", sorted(SILENT_MISREADS))
def test_a_scalar_out_of_range_is_refused_not_misread(name):
    with pytest.raises(NilbijError):
        SILENT_MISREADS[name]()


# A string, bytes or a mapping iterates, but is no sequence of entries:
# read as one, "" and {} would be an empty matrix, table or edge list.
SEQUENCE_SLOTS = {
    "matrix data": lambda value: Matrix(GF2, 0, 0, value),
    "matrix row": lambda value: Matrix(GF2, 1, 1, (value,)),
    "vector entries": lambda value: Vector(GF2, value),
    "edges": lambda value: Tree(1, value),
    "table": lambda value: EndoFunction(1, value),
    "vectors": lambda value: span(value, GF2, 2),
}


@pytest.mark.parametrize("value", ["", "0", b"", {}, {0: 0}], ids=repr)
def test_a_string_or_mapping_is_no_sequence(value):
    for what, call in SEQUENCE_SLOTS.items():
        message = f"^{what} must be a sequence, got {type(value).__name__}$"
        with pytest.raises(SchemaError, match=message):
            call(value)


def test_any_other_iterable_is_read():
    assert span((v for v in [Vector(GF2, (1, 1))]), GF2, 2).dim == 1
    assert Matrix(GF2, 1, 2, iter([range(2)])).data == ((0, 1),)


# The public surface, as nilbij.__all__ declares it: the sha256 of its
# sorted names, one a line.
SURFACE_SHA256 = "db8c2862a9800dbf5654e2985485fafeb845f15e9bc37f93b63ec135d32f770c"


def test_the_public_surface_is_declared_once():
    names = nilbij.__all__
    assert len(names) == len(set(names)) == 72
    assert hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest() == SURFACE_SHA256
    namespace: dict = {}
    exec("from nilbij import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    modules = [getattr(nilbij, name) for name in dir(nilbij)
               if isinstance(getattr(nilbij, name), types.ModuleType)]
    owners = {name: [m.__name__ for m in modules if name in getattr(m, "__all__", ())]
              for name in names}
    assert all(len(found) == 1 for found in owners.values()), owners
    for name, (owner,) in owners.items():
        obj = getattr(nilbij, name)
        assert getattr(obj, "__module__", owner) == owner, name


VALUE_CLASSES = {getattr(nilbij, name) for name in nilbij.__all__
                 if isinstance(getattr(nilbij, name), type)
                 and not issubclass(getattr(nilbij, name), Exception)}


def _is_library_value(annotation) -> bool:
    """The annotation is a value class of the library, or that class | None."""
    if annotation in VALUE_CLASSES:
        return True
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        args = set(typing.get_args(annotation)) - {type(None)}
        return len(args) == 1 and args <= VALUE_CLASSES
    return False


def _public_callables():
    """(name, callable) for each callable of nilbij.__all__ and each public
    method of its classes, __call__ included; the exception classes and
    from_json (which VALID_DOCS covers) are left out."""
    for name in nilbij.__all__:
        obj = getattr(nilbij, name)
        if not isinstance(obj, type):
            if callable(obj):
                yield name, obj
            continue
        if issubclass(obj, Exception):
            continue
        yield name, obj
        for attr in dir(obj):
            member = getattr(obj, attr)
            public = attr == "__call__" or not attr.startswith("_")
            if public and attr != "from_json" and callable(member):
                yield f"{name}.{attr}", member


def _slots(call) -> list[str]:
    """The parameters of ``call`` that take outside data: every one but
    self and those annotated with a library value."""
    params = inspect.signature(call, eval_str=True).parameters.values()
    return [p.name for p in params if p.name != "self" and not _is_library_value(p.annotation)]


def test_every_public_callable_with_a_slot_is_probed():
    slots = {name: _slots(call) for name, call in _public_callables()}
    slotted = {name: found for name, found in slots.items() if found}
    unprobed = {name: found for name, found in slotted.items()
                if name not in PUBLIC_SLOTS or len(PUBLIC_SLOTS[name][1]) != len(found)}
    assert not unprobed, f"each slot needs one valid argument in PUBLIC_SLOTS: {unprobed}"
    assert set(PUBLIC_SLOTS) <= set(slotted), set(PUBLIC_SLOTS) - set(slotted)


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


# Operands that are valid on their own but do not match each other:
# name -> (call, the exact error and its message, or the value returned).
E2 = Subspace(GF2, 2, ((0, 1),))  # LINE's Steinitz complement
LINE3 = Subspace(GF3, 2, ((1, 1),))
ID_LINE = SubspaceMap(LINE, LINE, Matrix.identity(GF2, 1))
ID_E2 = SubspaceMap(E2, E2, Matrix.identity(GF2, 1))
ID_LINE3 = SubspaceMap(LINE3, LINE3, Matrix.identity(GF3, 1))
LINE_IN_PLANE = SubspaceMap(LINE, Subspace.full(GF2, 2), Matrix(GF2, 2, 1, ((1,), (1,))))
MISMATCHES = {
    "FieldSpec past the size limit": (lambda: FieldSpec(3, 81), SchemaError, "too large"),
    "FittingPair with R off V": (lambda: FittingPair(LINE, E2, ID_E2, ID_E2),
                                 DimensionMismatch, "R must map V to V"),
    "FittingPair with S off W": (lambda: FittingPair(LINE, E2, ID_LINE, ID_LINE),
                                 DimensionMismatch, "S must map W to W"),
    "FittingPair across fields": (lambda: FittingPair(LINE, LINE3, ID_LINE, ID_LINE3),
                                  DimensionMismatch, "V and W must share spec"),
    "span of nothing": (lambda: span([]), DimensionMismatch, "empty span needs"),
    "span across fields": (lambda: span([Vector(GF2, (1, 0)), Vector(GF3, (1, 0))]),
                           FieldMismatch, "over different fields"),
    "span across lengths": (lambda: span([Vector(GF2, (1, 0)), Vector(GF2, (1, 0, 0))]),
                            DimensionMismatch, "of different lengths"),
    "contains across fields": (lambda: contains(LINE, Vector(GF3, (1, 1))),
                               FieldMismatch, "different fields"),
    "from_coords with the wrong count": (lambda: from_coords(LINE, Vector(GF2, (1, 0))),
                                         DimensionMismatch, "expected 1 coordinates, got 2"),
    "is_complementary across fields": (lambda: is_complementary(E2, LINE3), False, None),
    "SubspaceMap across fields": (lambda: SubspaceMap(LINE, LINE3, Matrix.identity(GF2, 1)),
                                  FieldMismatch, "domain and codomain"),
    "compose off its domain": (lambda: compose(ID_E2, ID_LINE),
                               DimensionMismatch, "codomain of f is not the domain of g"),
    "map_inverse between dimensions": (lambda: map_inverse(LINE_IN_PLANE),
                                       DimensionMismatch, "equal dimensions"),
    "block_decompose across fields": (lambda: block_decompose(Matrix.identity(GF3, 2), LINE, E2),
                                      FieldMismatch, "operator and subspaces"),
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_operands_that_do_not_match_are_refused(name):
    call, expected, message = MISMATCHES[name]
    if not isinstance(expected, type):
        assert call() is expected
        return
    with pytest.raises(expected, match=message) as info:
        call()
    assert type(info.value) is expected
