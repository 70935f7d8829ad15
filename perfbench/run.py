"""splatkin benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json. The workload is set up once untimed (the warm-up whose state
the operations use). Then operations run back to back, one caller, until
``--seconds`` of operations have passed and at least three have run. After
each operation the workload is set up again, timed, for at least
``SETUP_SECONDS_PER_OP`` and at least once, so setups and operations see the
same stretch of host load. ``setup_s`` and ``op_ms`` are the fastest setup and
the fastest operation (see ``fastest``).
Every operation's outputs are checked and digested; operations with the same
inputs must give the same digest. With ``--trace 0`` the last stdout line
carries the end-to-end metrics named in BENCHMARK.json. With ``--trace 1``
operations alternate untraced and traced, the line carries the per-layer
metrics plus the tracing overhead, and a traced operation that calls a layer
the workload claims to bypass counts as failed. A report, the machine
description and (traced) the spans go to ``.perfbench_out/``; scratch files
live in a temporary directory there and are removed at exit.
"""

import os

# Pin BLAS/OpenMP to one thread before NumPy is imported anywhere.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import tracing  # noqa: E402  (imports no splatkin module until a trace is installed)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1
ALTERNATE_SEED = 2  # for re-checking a claim on a seed not used while writing it
MIN_OPS = 3
SETUP_SECONDS_PER_OP = 0.25
REPORT_METRICS = ("setup_s", "wall_s", "op_ms", "peak_rss_mb", "error_rate")
TRACE_OVERHEAD = ("trace.overhead_ms", "trace.overhead_pct")
FIGURE_UNITS = (("_ms", "ms"), ("_m", "m"), ("_rad", "rad"), ("_ratio", "ratio"))
WORKLOAD_NAMES = ("track_articulated", "reperform_cross", "export_dense", "gradcheck_sweep")


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_splatkin():
    """Import splatkin from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import splatkin
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import splatkin from {SRC}: {exc}")
    if not os.path.abspath(splatkin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: splatkin resolved outside {SRC}: {splatkin.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": THREAD_VARS,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Ledger:
    """Attempted/failed operations, digests per input key, and per-op figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.mismatches = 0
        self.figures: list[dict] = []
        self.failed_checks: dict[str, float] = {}

    def record(self, key, verdict, stage_figures) -> None:
        self.attempted += 1
        bad = [c for c in verdict.checks if not c.ok]
        first = self.digests.setdefault(key, verdict.digest)
        if first != verdict.digest:
            self.mismatches += 1
        if bad or first != verdict.digest:
            self.failed += 1
        for c in bad:
            self.failed_checks[c.name] = c.value
        self.figures.append({**verdict.figures, **stage_figures})

    def crash(self) -> None:
        self.attempted += 1
        self.failed += 1


def timed_setups(workload, seed, workdir, times) -> float:
    """Set up again (state discarded) for SETUP_SECONDS_PER_OP, at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= SETUP_SECONDS_PER_OP:
            return time.perf_counter() - start


def timed_loop(workload, state, args, workdir, ledger, tracer=None):
    """Closed loop: the next operation starts when the previous one returns.

    Timed setups follow every operation, so they cover the same stretch of
    the run as the operations; their time does not count towards
    ``--seconds``. With a tracer, operations alternate untraced and traced on
    the same input, so machine-speed drift affects both alike, and each traced
    operation (the first one also for the traced setup before it) fails if it
    called a layer the workload claims to bypass. Returns the untraced and
    traced operation times and the setup times.
    """
    from workloads import Check

    keys = workload.keys(state)
    assert len(keys) < MIN_OPS, "every input key must repeat within a run"
    times = ([], [])
    setup_times: list[float] = []
    setup_spent = 0.0
    spans_checked = 0
    start = time.perf_counter()
    attempts = 0
    while (attempts < MIN_OPS or time.perf_counter() - start - setup_spent < args.seconds
           or (tracer is not None and attempts % 2)):
        if attempts:
            setup_spent += timed_setups(workload, args.seed, workdir, setup_times)
        traced = tracer is not None and attempts % 2 == 1
        key = keys[(attempts // 2 if tracer is not None else attempts) % len(keys)]
        attempts += 1
        try:
            with tracing.installed(tracer) if traced else nullcontext():
                t0 = time.perf_counter()
                with tracer.phase("bench.op") if traced else nullcontext():
                    out = workload.run(state, key)
                elapsed = time.perf_counter() - t0
            verdict = workload.verify(state, key, out)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            ledger.crash()
            continue
        if traced:
            calls = tracing.bypassed_calls(tracer, workload.bypasses, spans_checked)
            spans_checked = len(tracer.spans)
            verdict.checks.append(Check("bypassed_span_calls", calls, 0.0))
        times[traced].append(elapsed)
        ledger.record(key, verdict, workload.stage_metrics(out["stages"]))
    timed_setups(workload, args.seed, workdir, setup_times)
    return (*times, setup_times)


def fastest(times: list[float]) -> float:
    """The timing reported for repeated identical work: the fastest repetition.

    Interference from the rest of the host only ever slows a repetition down,
    and on a shared 2-vCPU host it comes and goes in stretches of seconds to
    minutes that slow the same code by up to 1.8x. The median then reports
    which state held for most of a run, while the fastest repetition is what
    the code costs when nothing interferes; it is also the estimator the
    standard library's ``timeit`` recommends. The medians stay in the report.
    """
    return min(times)


def median_figures(figures: list[dict]) -> dict:
    names = sorted({k for f in figures for k in f})
    return {k: statistics.median(f[k] for f in figures if k in f) for k in names}


def check_metric_names(bench, trace: int) -> None:
    """Fail before running if BENCHMARK.json names a metric this script cannot produce."""
    for m in bench["per_layer"] if trace else bench["end_to_end"]:
        name = m["name"]
        span, _, field = name.rpartition(".")
        known = (name in REPORT_METRICS if not trace else
                 name in TRACE_OVERHEAD or name in tracing.COUNTERS
                 or name == "render.footprints.fill"
                 or (span in tracing.SPANS and field in ("calls", "s", "self_s")))
        if not known:
            raise SystemExit(f"perfbench: BENCHMARK.json names unknown metric {name!r}")


def run(args, bench) -> dict:
    import workloads

    check_metric_names(bench, args.trace)
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir)  # warm-up; its state feeds the operations
        first_setup_s = time.perf_counter() - t0
        ledger = Ledger()
        tracer = tracing.Tracer(run_id=f"{tag}-{os.getpid()}") if args.trace else None
        if tracer is not None:
            # one more setup, traced only for its spans
            with tracing.installed(tracer), tracer.phase("bench.setup"):
                workload.setup(args.seed, workdir)
        op_times, traced_times, setup_times = timed_loop(workload, state, args, workdir, ledger,
                                                         tracer)
        if tracer is not None:
            spans_path = os.path.join(OUT_DIR, f"{tag}-spans.csv")
            tracing.write_spans(tracer, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not op_times:
        raise SystemExit("perfbench: no operation completed")
    figures = median_figures(ledger.figures)
    report = {
        "setup_s": (fastest(setup_times), "s"),
        "setup_median_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_times), "s"),
        "op_ms": (1e3 * fastest(op_times), "ms"),
        "op_median_ms": (1e3 * statistics.median(op_times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (ledger.failed / max(ledger.attempted, 1), "ratio"),
    }
    for name, value in figures.items():
        report[name] = (value, next((u for s, u in FIGURE_UNITS if name.endswith(s)), "count"))

    if args.trace:
        if not traced_times:
            raise SystemExit("perfbench: no traced operation completed")
        layers = tracing.layer_metrics(tracer, {"bench.setup": 1, "bench.op": len(traced_times)})
        untraced_ms = 1e3 * fastest(op_times)
        overhead_ms = 1e3 * fastest(traced_times) - untraced_ms
        layers["trace.overhead_ms"] = overhead_ms
        layers["trace.overhead_pct"] = 100.0 * overhead_ms / untraced_ms
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload.name,
        "why": workload.why,
        "loads": workload.loads,
        "bypasses": workload.bypasses,
        "tolerances": {**workload.tolerances, "bypassed_span_calls": 0.0},
        "layer_effects": workloads.LAYER_EFFECTS,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "alternate_seed": ALTERNATE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "first_setup_s": first_setup_s,
        "setup_times_s": setup_times,
        "op_times_s": op_times,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "digests": {str(k): v for k, v in ledger.digests.items()},
        "digest_mismatches": ledger.mismatches,
        "failed_checks": ledger.failed_checks,
        "result": result,
    }
    if args.trace:
        details["traced_op_times_s"] = traced_times
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
        details["layers"] = dict(layers)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    print_report(details, result, args)
    return result


def print_report(details, result, args) -> None:
    print(f"{details['workload']} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, entry in details["report"].items():
        print(f"  {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    for key, digest in details["digests"].items():
        print(f"  digest[{key}] {digest}")
    for name, value in details["failed_checks"].items():
        print(f"  FAILED check {name} = {value!r} (limit {details['tolerances'].get(name)})")
    if args.trace:
        busiest = sorted(((v, k) for k, v in details["layers"].items() if k.endswith(".self_s")),
                         reverse=True)[:12]
        for value, name in busiest:
            print(f"  {name:<40} {value:>12.6g} s per setup+op")
        print(f"  trace overhead {details['layers']['trace.overhead_ms']:.1f} ms per op "
              f"({details['layers']['trace.overhead_pct']:.1f}%)")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    args = parse_args(argv, bench["run_seconds"])
    import_splatkin()
    result = run(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
