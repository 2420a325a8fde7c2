"""Exact bijections between nilpotent pairs and linear operators over
finite fields, with the labelled-tree/endofunction analogue.

Each public name is declared once, in the ``__all__`` of the module
that defines it; this package re-exports those names and lists none
of its own."""

from .bijection import *
from .census import *
from .errors import *
from .field import *
from .fitting import *
from .joyal import *
from .linalg import *
from .subspaces import *

__version__ = "0.1.0"

__all__ = (bijection.__all__ + census.__all__ + errors.__all__ + field.__all__
           + fitting.__all__ + joyal.__all__ + linalg.__all__ + subspaces.__all__)
