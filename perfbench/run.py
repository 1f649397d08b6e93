#!/usr/bin/env python3
"""relayalloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gen-data --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
measures the same pass untraced and then traced (the difference is the
tracing overhead) and reports the per-layer metrics. ``--workload all``
runs every workload, each in its own process, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every operation passed its output checks. The benchmark measures
the package under ``src/`` of the checkout that holds this file, and
refuses to run (exit 2, no result) when that package is missing or Python
would import another copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ROOT / ".perfbench-work"
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("gen-data", "train", "eval")

# name -> (unit, better); the driver-facing names, identical on every workload.
END_TO_END = {
    "stage_rate": ("1/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "query_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# What each driver-facing metric is called on each workload: (name, unit, scale).
NAMED = {
    "gen-data": {"stage_rate": ("label_rate", "records/s", 1.0),
                 "query_p50_ms": ("oracle_p50_ms", "ms", 1.0),
                 "query_tail_ms": ("oracle_tail_ms", "ms", 1.0)},
    "train": {"stage_rate": ("train_step_rate", "steps/s", 1.0),
              "query_p50_ms": ("surrogate_p50_us", "us", 1e3),
              "query_tail_ms": ("surrogate_tail_us", "us", 1e3)},
    "eval": {"stage_rate": ("eval_rate", "records/s", 1.0),
             "query_p50_ms": ("surrogate_p50_us", "us", 1e3),
             "query_tail_ms": ("surrogate_tail_us", "us", 1e3)},
}


class CheckoutError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time of one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations of each kind, for smoke tests")
    return p.parse_args(argv)


def load_package():
    """Import relayalloc from this checkout's src/, or refuse."""
    src = ROOT / "src"
    if not (src / "relayalloc" / "__init__.py").is_file():
        raise CheckoutError(f"no relayalloc package under {src}")
    sys.path.insert(0, str(src))
    import relayalloc

    where = Path(relayalloc.__file__).resolve()
    if src.resolve() not in where.parents:
        raise CheckoutError(f"relayalloc imported from {where}, outside {src}")
    return relayalloc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=60, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc}"}


def environment(seed: int, package) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "relayalloc": package.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "git": _git_state(),
        "seed": seed,
    }


def _e2e_values(e2e: dict) -> dict:
    lat = e2e["latency"]
    return {"stage_rate": e2e["stage_rate"], "query_p50_ms": lat["p50_ms"],
            "query_tail_ms": lat["tail_ms"]}


def run_workload(args) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, info)."""
    import layers
    import workloads as wl
    from tracing import Patches, Tracer

    sizes = wl.FULL if args.size == "full" else wl.TINY
    if args.trace:
        sizes = replace(sizes, setup_repeats=1)
    workdir = WORKROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run = wl.Run(args.workload, args.seed, sizes, str(workdir))
    info: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size}
    try:
        inputs, setup_times = wl.run_setup(run)
        e2e = wl.measure(run, inputs, args.seconds)
        run.settle()
        info["stage_rates"] = e2e["stage_rates"]
        info["latency"] = e2e["latency"]
        values = _e2e_values(e2e)
        if not args.trace:
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            info["setup_runs_s"] = setup_times
            metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
        else:
            tracer = Tracer(f"{args.workload}-s{args.seed}")
            run.facts = {}
            run.tracer = tracer
            with Patches() as patches:
                layers.install(patches, tracer, run.facts)
                traced = _e2e_values(wl.measure(run, inputs, args.seconds))
            run.tracer = None
            run.settle()
            info["tracing_overhead"] = {
                k: {"untraced": values[k], "traced": traced[k], "traced_over_untraced":
                    traced[k] / values[k]} for k in traced}
            per = layers.layer_metrics(tracer.spans, run.facts)
            probe, probe_tracer = layers.probe(args.seed, str(workdir), run.tally)
            probe["bessel.k1e_ns_per_point"] = layers.k1e_ns_per_point(args.seed)
            sources = {}
            for name, value in per.items():
                if value is not None:
                    sources[name] = "workload"
                elif probe[name] is not None:
                    per[name], sources[name] = probe[name], "probe"
                else:
                    per[name], sources[name] = 0.0, "missing"
            info["layer_sources"] = sources
            info["missing"] = [name for name, src in sources.items() if src == "missing"]
            info["unwrapped"] = patches.unwrapped
            info["observe_errors"] = sorted(tracer.observe_errors | probe_tracer.observe_errors)
            trace_file = WORKROOT / f"trace-{args.workload}-s{args.seed}.jsonl"
            with open(trace_file, "w", encoding="utf-8") as fh:
                tracer.write_jsonl(fh)
                probe_tracer.write_jsonl(fh)
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            info["spans"] = len(tracer.spans) + len(probe_tracer.spans)
            metrics = {name: {"value": per[name], "unit": layers.UNITS[name]}
                       for name, *_ in layers.PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["failed_frac"] = run.tally.failed_frac
    info["failures"] = run.tally.failures
    info["digests"] = run.digests
    info["notes"] = run.notes
    result = {"correct": run.tally.failed == 0, "attempted": run.tally.attempted,
              "failed": run.tally.failed, "metrics": metrics}
    return result, info


def report_lines(workload: str, result: dict, info: dict) -> list[str]:
    """Human-readable lines: each metric by its workload name and unit."""
    lines = [f"perfbench {workload} seed={info['seed']} seconds={info['seconds']} "
             f"trace={info['trace']}"]
    named = NAMED[workload]
    for key, m in result["metrics"].items():
        label, unit, scale = named.get(key, (key, m["unit"], 1.0))
        extra = ""
        if key == "query_tail_ms":
            lat = info["latency"]
            extra = f"  (p{lat['tail_percentile']:g} of {lat['samples']} samples)"
        lines.append(f"  {label:<34} {m['value'] * scale:>14.6g} {unit}{extra}")
    lines.append(f"  {'failed_frac':<34} {info['failed_frac']:>14.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']} operations)")
    for failure in info["failures"]:
        lines.append(f"  FAILED {failure}")
    for target in info.get("unwrapped", []):
        lines.append(f"  unwrapped {target['target']}: {target['reason']}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        body = [ln for ln in lines[:-1] if not ln.startswith("# info ")]
        print("\n".join(body) if body else proc.stderr.strip())
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False, "exit": proc.returncode}
    print(json.dumps({"workloads": results}))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in PINS:  # before numpy is imported anywhere
        os.environ[key] = "1"
    try:
        package = load_package()
    except (CheckoutError, ImportError) as exc:
        print(f"perfbench: cannot measure this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORKROOT.mkdir(exist_ok=True)
    import workloads as wl

    try:
        result, info = run_workload(args)
    except wl.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["environment"] = environment(args.seed, package)
    out = WORKROOT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps({"result": result, "info": info}, indent=2) + "\n", encoding="utf-8")
    print("\n".join(report_lines(args.workload, result, info)))
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
