"""Every splatkin name the benchmark tracer wraps must still resolve, and its
counters must still read what the wrapped calls return.

``perfbench/tracing.py`` looks its targets up by module and attribute name only
when a traced run starts, so a renamed or deleted function or field would
otherwise surface as an AttributeError in ``perfbench/run.py --trace 1``, not here.
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


def _bindings():
    """Every traced function and method object, as the tracer would look it up."""
    out = {(module, attr): getattr(importlib.import_module(module), attr)
           for module, attr in _FUNCTIONS}
    for module, cls, method in _tracer_tables.METHODS.values():
        out[(module, cls, method)] = vars(getattr(importlib.import_module(module), cls))[method]
    return out


def test_tracer_counters_recorded(tmp_path):
    # the counters read fields of what the wrapped calls return (e.g. _Footprints),
    # so a renamed field must fail here rather than in a traced benchmark run
    import splatkin.core as core
    import splatkin.fileio as fileio
    import splatkin.morton as morton
    import splatkin.render as render
    from splatkin.synth import make_scene

    scene = make_scene("twolink", 30, 120, seed=3)
    gset = scene.appearance_set()
    camera = render.OrthoCamera.axis_view("+z", gset.positions.mean(axis=0), 1.0, 1.0, (24, 24))
    before = _bindings()
    tracer = _tracer_tables.Tracer("test")
    path = tmp_path / "a.gset"
    with _tracer_tables.installed(tracer):
        assert render.splat is not before[("splatkin.render", "splat")]
        with tracer.phase("bench.op"):
            out = render.splat(gset, camera)
            core.knn_build(gset.positions, scene.motion_set().positions, 4, 0.05, normalize=True)
            morton.build_mapping(gset.positions, (16, 16), 6)
            fileio.write_gset(path, gset)
            fileio.read_gset(path)
    assert _bindings() == before  # every original is back in place

    counts = {name: value for (phase, name), value in tracer.counts.items()}
    fed = [name for name in _tracer_tables.COUNTERS
           if name.startswith(("render.footprints.", "core.knn_build.", "morton."))
           or name in ("fileio.write_gset.bytes", "fileio.read_gset.bytes")]
    assert len(fed) == 9
    assert set(fed) <= set(counts)
    assert counts["render.footprints.kernels"] + counts["render.footprints.skipped"] == len(gset)
    assert counts["render.footprints.skipped"] == out.skipped
    assert 0 < counts["render.footprints.px_valid"] <= counts["render.footprints.px_allocated"]
    assert counts["render.footprints.bytes_computed"] > 0
    assert counts["core.knn_build.pairs"] == len(gset) * 30
    assert counts["fileio.write_gset.bytes"] == counts["fileio.read_gset.bytes"] \
        == path.stat().st_size
    names = {name for name, *_ in tracer.spans}
    assert {"render.splat", "render.footprints", "core.knn_build", "morton.build_mapping",
            "fileio.write_gset", "fileio.read_gset"} <= names
