"""Per-layer call counts and self time, measured from outside nilbij.

A :class:`Tracer` wraps the public callables of each nilbij module for
the duration of a ``with`` block and restores the originals on exit.
No library code changes: functions are replaced by name in every
``nilbij.*`` namespace that holds them (modules bind each other's
functions with ``from .linalg import rref``), constructors are wrapped
through the class's ``__init__``, and classmethods through the class
attribute.

Spans are aggregated as they close rather than stored: a traced census
pass opens hundreds of thousands of them.  A span's self time is its
duration minus the time covered by the wrapped spans it opened, so the
cost of unwrapped helpers (scalar ``FieldSpec.add``/``mul``,
``_mul_data``) lands in the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) pairs; "Class.method" wraps a classmethod and a bare
# class name wraps the constructor.  The scalar FieldSpec.add/mul are left
# out on purpose: they run millions of times per pass and their cost
# already shows in the self time of the linalg and subspaces spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "field": ("FieldSpec",),
    "linalg": (
        "Matrix", "Vector", "mat_mul", "mat_pow", "is_nilpotent", "rref",
        "mat_inv", "rank", "kernel_basis", "image_basis", "apply",
    ),
    "subspaces": (
        "Subspace", "OrderedBasis", "span", "steinitz_complement",
        "is_complementary", "canonical_iso", "map_to_complement",
        "complement_to_map", "block_decompose", "block_assemble",
        "basis_to_automorphism", "automorphism_to_basis", "coords",
        "from_coords", "map_apply", "compose", "map_inverse",
    ),
    "fitting": ("fitting_decompose", "fitting_assemble"),
    "bijection": ("forward", "inverse", "degree"),
    "census": (
        "verify_theorem", "verify_degree_refinement", "count_nilpotents",
        "verify_joyal",
    ),
    "joyal": (
        "joyal_forward", "joyal_inverse", "is_eventually_constant", "Tree",
        "EndoFunction",
    ),
    "cli": ("main", "Matrix.from_json", "NilpotentPair.from_json", "canonical_dumps"),
}


def span_names() -> list[str]:
    """Every span name, ``<module>.<callable>``, in table order."""
    return [f"{mod}.{attr}" for mod, attrs in LAYERS.items() for attr in attrs]


class Tracer:
    """Counts calls and self time of wrapped callables.

    ``clock`` is injectable so tests can drive the arithmetic.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # One entry per open span: time its wrapped children covered.
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        clock, stack = self.clock, self._child_time
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attrs in LAYERS.items():
            module = importlib.import_module(f"nilbij.{mod_name}")
            for attr in attrs:
                self._patch(module, f"{mod_name}.{attr}", attr)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, module, name: str, attr: str) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, original, classmethod(self.wrap(name, original.__func__)))
            return
        target = getattr(module, attr)
        if isinstance(target, type):
            original = target.__dict__["__init__"]
            self._set(target, "__init__", original, self.wrap(name, original))
            return
        wrapped = self.wrap(name, target)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nilbij" or mod_name.startswith("nilbij."):
                if mod.__dict__.get(attr) is target:
                    self._set(mod, attr, target, wrapped)

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)
