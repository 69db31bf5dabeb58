"""Finite noncommutative geometries as decorated graphs.

The package models finite real spectral triples as Krajewski diagrams,
validates their axioms, derives the gauge Lie algebra and scalar field
content, generates the expanded action's trace terms, checks them against
the counterterms gauge invariance demands, decides R-connectedness, and
issues the renormalizability verdict for the asymptotically expanded
action.  A ``.kra`` text format and the ``kra`` command-line tool wrap the
library.

The package exports every name in its submodules' ``__all__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import algebra, builtins, diagram, dsl, exactlin, graphs, invariants, powercount, rconnect
from .algebra import *  # noqa: F401,F403
from .builtins import *  # noqa: F401,F403
from .diagram import *  # noqa: F401,F403
from .dsl import *  # noqa: F401,F403
from .exactlin import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .powercount import *  # noqa: F401,F403
from .rconnect import *  # noqa: F401,F403

_SUBMODULES = (algebra, builtins, diagram, dsl, exactlin, graphs, invariants, powercount, rconnect)
__all__ = ["__version__"] + [name for module in _SUBMODULES for name in module.__all__]
