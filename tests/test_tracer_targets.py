"""Every function the benchmark's tracer rebinds must exist on ``kra``.

``bench/tracer.py`` names its per-layer targets as (module, attribute)
strings.  A rename in ``kra`` would make the tracer fail or, for a name
that still resolves to something else, report a layer that no longer
measures what it says; this test keeps the two in step.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS + (module.CLI_TARGET,)


@pytest.mark.parametrize(
    "module_name, attr", [pytest.param(t[0], t[1], id=f"{t[0]}.{t[1]}") for t in _targets()]
)
def test_target_resolves_to_a_function(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads the class dict, so the method must be defined there
        target = vars(getattr(owner, cls_name))[method]
    else:
        target = getattr(owner, attr)
    assert callable(target), f"{module_name}.{attr} is not callable"
