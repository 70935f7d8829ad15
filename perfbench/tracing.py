"""In-memory span tracer that wraps splatkin's public functions from outside.

Modules import each other's functions by name (``from .energy import e_mask``),
so a wrapper only takes effect where the caller resolves the name. ``installed``
therefore rebinds every ``splatkin.*`` module global (and class attribute) that
still refers to the original object, and puts the originals back on exit.
Nothing is patched outside traced operations.

A span records (name, start, end, parent index, run id). Spans stay in memory
until the run ends; ``write_spans`` dumps them and ``layer_metrics`` folds them
into per-layer totals, with self time = duration minus the time covered by
direct children.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PHASES = ("bench.setup", "bench.op")


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent) per span
        self.counts: dict = defaultdict(float)  # (phase, name) -> value
        self.active = False
        self._stack: list[int] = []
        self._phase: str | None = None

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def phase(self, name: str):
        """Root span for one setup or one timed operation; spans record only inside it."""
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        self.active, self._phase = True, name
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self.active, self._phase = False, None

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counts[(self._phase, name)] += value

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# what gets wrapped


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_footprints(tracer, args, kwargs, fp):
    tracer.count("render.footprints.kernels", fp.kept.size)
    tracer.count("render.footprints.skipped", fp.skipped)
    tracer.count("render.footprints.px_allocated", fp.valid.size)
    tracer.count("render.footprints.px_valid", int(fp.valid.sum()))
    tracer.count("render.footprints.bytes_computed",
                 sum(v.nbytes for v in vars(fp).values() if hasattr(v, "nbytes")))


def _count_knn(tracer, args, kwargs, graph):
    query = _arg(args, kwargs, 0, "query")
    reference = _arg(args, kwargs, 1, "reference")
    tracer.count("core.knn_build.pairs", len(query) * len(reference))


def _count_mapping(tracer, args, kwargs, mapping):
    tracer.count("morton.clamp_count", mapping.clamp_count)


def _file_counter(name: str):
    def counter(tracer, args, kwargs, out):
        tracer.count(f"{name}.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    return counter


# span name -> (module, attribute, counter); a tuple of attributes shares one span
FUNCTIONS = {
    "energy.e_arap": ("splatkin.energy", "e_arap", None),
    "energy.e_data_points": ("splatkin.energy", "e_data_points", None),
    "energy.e_iso": ("splatkin.energy", "e_iso", None),
    "energy.e_size": ("splatkin.energy", "e_size", None),
    "energy.e_mask": ("splatkin.energy", "e_mask", None),
    "energy.e_sem": ("splatkin.energy", "e_sem", None),
    "energy.e_l2_gauss": ("splatkin.energy", "e_l2_gauss", None),
    "render.footprints": ("splatkin.render", "_footprints", _count_footprints),
    "render.splat": ("splatkin.render", "splat", None),
    "core.knn_build": ("splatkin.core", "knn_build", _count_knn),
    "core.quat": ("splatkin.core", ("quat_normalize", "quat_multiply", "quat_inverse",
                                    "quat_to_matrix", "quat_rotate", "quat_rotation_jacobian",
                                    "quat_normalize_jacobian", "quat_right_multiply_matrix",
                                    "quat_blend", "quat_blend_many"), None),
    "pipeline.init_canonical": ("splatkin.pipeline", "init_canonical", None),
    "pipeline.track_sequence": ("splatkin.pipeline", "track_sequence", None),
    "pipeline.align_canonical": ("splatkin.pipeline", "align_canonical", None),
    "pipeline.transfer_motion": ("splatkin.pipeline", "transfer_motion", None),
    "pipeline.kmeans": ("splatkin.pipeline", "kmeans", None),
    "pipeline.match_clusters": ("splatkin.pipeline", "match_clusters", None),
    "warp.relative_motion": ("splatkin.warp", "relative_motion", None),
    "warp.warp_appearance": ("splatkin.warp", "warp_appearance", None),
    "warp.disassemble": ("splatkin.warp", "disassemble", None),
    "morton.build_mapping": ("splatkin.morton", "build_mapping", _count_mapping),
    "morton.pack_map": ("splatkin.morton", "pack_map", None),
    "synth.make_scene": ("splatkin.synth", "make_scene", None),
    "synth.animate": ("splatkin.synth", "animate", None),
    "gradcheck.case_error": ("splatkin.gradcheck", "case_error", None),
    "cli.synth": ("splatkin.cli", "cmd_synth", None),
    "cli.map": ("splatkin.cli", "cmd_map", None),
    "cli.warp": ("splatkin.cli", "cmd_warp", None),
    "cli.regress": ("splatkin.cli", "cmd_regress", None),
    "cli.render": ("splatkin.cli", "cmd_render", None),
}
FILE_FUNCTIONS = ("read_gset", "write_gset", "read_gmap", "write_gmap", "read_mapping",
                  "write_mapping", "write_ppm", "write_pgm", "write_trace")
for _fn in FILE_FUNCTIONS:
    FUNCTIONS[f"fileio.{_fn}"] = ("splatkin.fileio", _fn, _file_counter(f"fileio.{_fn}"))

# span name -> (module, class, method)
METHODS = {
    "pipeline.adam_step": ("splatkin.pipeline", "Adam", "step"),
    "core.gaussian_set": ("splatkin.core", "GaussianSet", "__post_init__"),
}

SPANS = tuple(FUNCTIONS) + tuple(METHODS)
# direct counters; render.footprints.fill is derived from two of them
COUNTERS = ("render.footprints.kernels", "render.footprints.skipped",
            "render.footprints.px_allocated", "render.footprints.px_valid",
            "render.footprints.bytes_computed", "core.knn_build.pairs",
            "morton.clamp_count", "gradcheck.case_error.energy_calls") + tuple(
                f"fileio.{fn}.bytes" for fn in FILE_FUNCTIONS)


def _wrap_case_error(tracer, fn):
    """case_error plus a count of the energy evaluations its central differences make."""

    def counted(case, *args, **kwargs):
        value_fn = case.value_fn

        def counting(blocks):
            tracer.count("gradcheck.case_error.energy_calls", 1)
            return value_fn(blocks)

        case.value_fn = counting
        try:
            return fn(case, *args, **kwargs)
        finally:
            case.value_fn = value_fn

    return tracer.wrap("gradcheck.case_error", counted)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function and method for the duration of the block."""
    import splatkin.cli  # noqa: F401  (load every module so all bindings are visible)
    import splatkin.gradcheck  # noqa: F401

    undo = []
    modules = [m for n, m in sys.modules.items() if n == "splatkin" or n.startswith("splatkin.")]
    try:
        for span, (module, attrs, counter) in FUNCTIONS.items():
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(sys.modules[module], attr)
                if span == "gradcheck.case_error":
                    wrapper = _wrap_case_error(tracer, original)
                else:
                    wrapper = tracer.wrap(span, original, counter)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            undo.append((mod, name, original))
        for span, (module, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(span, original))
            undo.append((cls, method, original))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# reporting


def bypassed_calls(tracer: Tracer, prefixes, start: int = 0) -> int:
    """Spans from index ``start`` on that lie under a layer the workload claims to bypass.

    A prefix names a module (``render``) or one span (``energy.e_mask``).
    """
    return sum(1 for name, *_ in tracer.spans[start:]
               if any(name == p or name.startswith(p + ".") for p in prefixes))


def layer_metrics(tracer: Tracer, phase_counts: dict) -> dict:
    """Per-layer totals for one setup plus one operation.

    Each phase's totals are divided by the number of traced phases of that
    kind (``phase_counts``), then the two are added.
    """
    n = len(tracer.spans)
    child_time = [0.0] * n
    root = [0] * n
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
    per_phase = defaultdict(float)  # (phase, metric) -> total over the run
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        if parent < 0:
            continue
        phase = tracer.spans[root[i]][0]
        per_phase[(phase, f"{name}.calls")] += 1
        per_phase[(phase, f"{name}.s")] += end - start
        per_phase[(phase, f"{name}.self_s")] += end - start - child_time[i]
    for key, value in tracer.counts.items():
        per_phase[key] += value
    totals = defaultdict(float)
    for (phase, name), value in per_phase.items():
        totals[name] += value / phase_counts[phase]
    allocated = totals["render.footprints.px_allocated"]
    totals["render.footprints.fill"] = (totals["render.footprints.px_valid"] / allocated
                                        if allocated else 0.0)
    return totals


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("run,index,name,start,end,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{tracer.run_id},{i},{name},{start!r},{end!r},{parent}\n")
