"""Every splatkin name the benchmark tracer wraps must still resolve.

``perfbench/tracing.py`` looks its targets up by module and attribute name only
when a traced run starts, so a renamed or deleted function would otherwise
surface as an AttributeError in ``perfbench/run.py --trace 1``, not here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer_tables = _tracing()
_FUNCTIONS = [(module, attr)
              for module, attrs, _ in _tracer_tables.FUNCTIONS.values()
              for attr in ((attrs,) if isinstance(attrs, str) else attrs)]


@pytest.mark.parametrize("module, attr", _FUNCTIONS)
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", list(_tracer_tables.METHODS.values()))
def test_wrapped_method_resolves(module, cls, method):
    # the tracer replaces the class's own attribute, so the method must be defined on it
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
