"""Finite noncommutative geometries as decorated graphs.

The package models finite real spectral triples as Krajewski diagrams,
validates their axioms, derives the gauge Lie algebra and scalar field
content, generates the expanded action's trace terms, checks them against
the counterterms gauge invariance demands, decides R-connectedness, and
issues the renormalizability verdict for the asymptotically expanded
action.  A ``.kra`` text format and the ``kra`` command-line tool wrap the
library.

The package exports every name in its submodules' ``__all__``.  Importing
it executes none of them: each submodule is put into ``sys.modules`` and
onto the package through ``importlib.util.LazyLoader``, so its body runs
at the first read of one of its attributes, and the exported names are
resolved on first use (PEP 562).
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

_SUBMODULES = (
    "algebra", "builtins", "diagram", "dsl", "exactlin", "graphs", "invariants", "powercount",
    "rconnect",
)

for _name in _SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    globals()[_name] = sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__"] + [n for m in _SUBMODULES for n in globals()[m].__all__]
    elif name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}") is not None:
        # a module of the package not yet imported, such as ``cli``: ``from
        # kra import cli`` asks for it before it imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        owner = next((m for m in _SUBMODULES if name in globals()[m].__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(globals()[owner], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list({*globals(), *sys.modules[__name__].__all__})
