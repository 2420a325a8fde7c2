"""Exception hierarchy shared by all nilbij modules.

Every library-raised error derives from :class:`NilbijError` so callers
(and the CLI) can distinguish bad input from genuine bugs, which surface
as plain ``AssertionError`` from internal consistency checks.  The one
exception is a census walk: while it judges an input that it enumerated
itself, either kind raised by a construction is that input's failure,
reported with exit 1, never bad input (``census._FAULTS``).

Outside data is read through three readers at the end of this module:
:func:`_json_fields` for the keys of a JSON object, :func:`_json_int`
for an integer slot and :func:`_json_seq` for a sequence slot.  Each
``from_json`` is one ``_json_fields`` call and a public constructor,
and the constructors read every slot through the other two, so no
handler wraps a constructor call: a ``TypeError`` or ``KeyError`` from
library code is a fault, never reported as bad input.

``_json_int`` owns the range of every integer slot: sizes, codes,
vertices, exponents, budgets, and the scalar slots of the values, that
is the codes of ``FieldSpec``'s arithmetic and ``digits``, the digits of
``FieldSpec.code``, the column of ``Matrix.column`` and the point of an
``EndoFunction`` call.  Its caller passes the bounds, and its
refusal names the slot and those bounds, never the value, so no
refusal formats an unbounded integer.  A message elsewhere formats an
integer only once the reader has bounded it, so a shape check names
the mismatch and not the sizes: a ``Matrix`` or ``Subspace`` built
from data takes any size its data has, and a 0 x 10^5000 matrix holds
no entry.

:func:`_trusted` is the one way past the readers: the library builds
each value it derives from valid operands, of any class, by
``_trusted(cls, *args)``, exactly its constructor's arguments,
unchecked, and no other code skips a constructor.
"""

__all__ = [
    "BudgetExceeded",
    "DimensionMismatch",
    "DivisionByZero",
    "FieldMismatch",
    "InvalidVertex",
    "NegativeExponent",
    "NilbijError",
    "NonSquare",
    "NotAutomorphism",
    "NotBasis",
    "NotCanonical",
    "NotComplement",
    "NotInSubspace",
    "NotInvariant",
    "NotInvertible",
    "NotNilpotent",
    "SchemaError",
]


class NilbijError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(NilbijError):
    """A JSON payload does not match the expected schema."""


class FieldMismatch(NilbijError):
    """Operands belong to different finite fields."""


class DivisionByZero(NilbijError, ZeroDivisionError):
    """Multiplicative inverse of the additive identity was requested."""


class NegativeExponent(NilbijError, ValueError):
    """A power with a negative exponent was requested."""


class DimensionMismatch(NilbijError):
    """Matrix or vector dimensions are incompatible."""


class NonSquare(DimensionMismatch):
    """A square matrix was required."""


class NotInvertible(NilbijError):
    """A matrix that must be invertible is singular."""


class NotInSubspace(NilbijError):
    """A vector lies outside the subspace it was resolved against."""


class NotBasis(NilbijError):
    """Vectors fail to form an ordered basis of their subspace."""


class NotComplement(NilbijError):
    """Two subspaces are not complementary in the ambient space."""


class NotInvariant(NilbijError):
    """An operator does not preserve the subspace it must preserve."""


class NotAutomorphism(NilbijError):
    """A map that must be invertible on its subspace is singular."""


class NotNilpotent(NilbijError):
    """An operator that must be nilpotent is not."""


class NotCanonical(SchemaError):
    """A serialized subspace basis is not in reduced row echelon form."""


class InvalidVertex(NilbijError):
    """A vertex index is outside the tree's vertex range."""


class BudgetExceeded(NilbijError):
    """An exhaustive enumeration would exceed the configured budget."""


def _json_int(
    value: object, what: str, lo: int, hi: int | None = None,
    error: type[NilbijError] = SchemaError,
) -> int:
    """An integer slot of a JSON payload or of a public function, in
    [``lo``, ``hi``] (no upper bound when ``hi`` is None); bool, float
    and str are refused with a :class:`SchemaError`, and an integer out
    of range with ``error``.

    ``int()`` would truncate 2.7 to 2 and read true as 1, so a payload
    could silently name a different object than it wrote.  A refusal
    names the slot and its bounds, never the value: an integer of more
    than 4,300 digits cannot be formatted, so a message that tried would
    raise ``ValueError`` instead of refusing.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {type(value).__name__}")
    if value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{what} must be an integer {bounds}")
    return value


def _json_seq(value: object, what: str) -> tuple:
    """A sequence slot of a JSON payload or of a public constructor, as a
    tuple; a value that does not iterate is refused, and so are a string,
    bytes and a mapping, which iterate but are no sequence of entries: a
    JSON string or object in a sequence slot would otherwise be read as
    its characters or its keys.  Any other iterable, a generator
    included, is read.

    Only ``tuple(value)`` runs under the handler, so a ``TypeError`` the
    library raises later is a fault, never a malformed slot."""
    try:
        if isinstance(value, (str, bytes, dict)):
            raise TypeError
        return tuple(value)  # type: ignore[arg-type]
    except TypeError:
        raise SchemaError(f"{what} must be a sequence, got {type(value).__name__}") from None


def _trusted(cls, *values):
    """A value of the dataclass ``cls`` that the library built itself,
    unchecked: ``values`` are exactly its public constructor's
    arguments, in canonical form, and they are its fields."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _json_fields(obj: object, what: str, *keys: str) -> tuple:
    """The values at ``keys`` of a JSON object, in order; a payload that
    is not an object, or lacks a key, is refused naming ``what``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} payload must be an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{what} payload is missing key {key!r}")
    return tuple(obj[key] for key in keys)
