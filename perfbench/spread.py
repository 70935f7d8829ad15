"""Run every workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--out FILE.json] [--baseline FILE.json]

Runs ``perfbench/run.py`` once per (workload, seed), untraced, for
``run_seconds`` of BENCHMARK.json, one process at a time, from the checkout
root. It prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median. ``--out`` also records the machine (CPU model and caches from
``lscpu`` when it exists, versions and git commit as run.py reports them) and
every run's result and output digests, so a later change can quote
before/after numbers measured the same way.

Runs of one workload with the same seed must give the same digests, within
this invocation and against every run recorded in ``--baseline``; any
disagreement is printed and the exit code is 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from run import OUT_DIR, environment

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def lscpu() -> dict:
    """CPU model and cache sizes as lscpu reports them (empty if unavailable)."""
    if shutil.which("lscpu") is None:
        return {}
    out = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
    wanted = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache", "CPU(s)")
    info = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            info[key.strip()] = value.strip()
    return info


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - started
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace0.json")) as fh:
        result["digests"] = json.load(fh)["digests"]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


class DigestBook:
    """First digests seen per (workload, seed); later runs must agree with them."""

    def __init__(self):
        self.seen: dict = {}
        self.mismatches: list[str] = []

    def add(self, workload: str, run: dict, source: str) -> None:
        key = (workload, run["seed"])
        first, first_source = self.seen.setdefault(key, (run["digests"], source))
        if run["digests"] != first:
            self.mismatches.append(f"{workload} seed {run['seed']}: digests of {source} differ "
                                   f"from {first_source}: {run['digests']} != {first}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--baseline", help="a summary written by --out to compare digests with")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    book = DigestBook()
    if args.baseline:
        with open(args.baseline) as fh:
            for name, entry in json.load(fh)["workloads"].items():
                for run in entry["runs"]:
                    book.add(name, run, args.baseline)

    summary = {"machine": lscpu(), "environment": environment(), "seeds": parse_seeds(args.seeds),
               "seconds": bench["run_seconds"], "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = []
        for seed in summary["seeds"]:
            result = run_once(name, seed)
            result["seed"] = seed
            book.add(name, result, "this run")
            runs.append(result)
            print(f"{name} seed {seed}: {result['process_s']:.1f}s, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        metrics = {m: summarise([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        summary["workloads"][name] = {"metrics": metrics, "runs": runs}
        for m, s in metrics.items():
            flag = "" if s["spread"] < bounds[m] / 3 else "  <-- above bound/3"
            print(f"  {m:<34} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    for line in book.mismatches:
        print(f"DIGEST MISMATCH {line}", flush=True)
    return 1 if book.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
