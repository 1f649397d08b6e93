"""Per-layer metrics of the traced run.

The layers are the package's modules. Spans come from wrapping, from
outside the package, the functions at the points where one module calls
another (``WRAP_TARGETS``), plus the benchmark's own spans around each CLI
invocation (``cli.<command>``) and each query (``query.*``). Counts come
from the results those calls return: ``OracleResult.levels`` and
``.evaluations``, dataset lengths, and the ``ComparisonReport`` rows.

A workload does not exercise every layer (train runs no search). So that
every metric is defined on every workload, the traced run ends with a
tiny pass of all three workloads (the probe) and takes the metrics its
own trace leaves undefined from there; the result says which metric came
from where.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from relayalloc import k1e

from tracing import Patches, SpanIndex, Tracer
import workloads as wl

# (name, unit, better); README.md says which end-to-end metric each should move.
PER_LAYER = (
    ("bessel.k1e_ns_per_point", "ns", "lower"),
    ("outage.grid_calls_per_solve", "count", "lower"),
    ("outage.grid_ms_per_solve", "ms", "lower"),
    ("outage.scalar_calls_per_record", "count", "lower"),
    ("outage.scalar_us_per_call", "us", "lower"),
    ("gridsearch.levels_per_solve", "count", "lower"),
    ("gridsearch.evals_per_solve", "count", "lower"),
    ("gridsearch.ms_per_level", "ms", "lower"),
    ("gridsearch.self_ms_per_solve", "ms", "lower"),
    ("data.draw_ms", "ms", "lower"),
    ("data.draw_accept_ratio", "ratio", "higher"),
    ("data.label_ms_per_record", "ms", "lower"),
    ("data.save_ms", "ms", "lower"),
    ("data.load_ms_per_record", "ms", "lower"),
    ("mlp.grad_us_per_step", "us", "lower"),
    ("mlp.adam_us_per_step", "us", "lower"),
    ("mlp.forward_us_per_query", "us", "lower"),
    ("mlp.flops_per_query", "count", "lower"),
    ("training.snapshot_share", "ratio", "lower"),
    ("training.compare_ms_per_record", "ms", "lower"),
    ("training.violating_records", "count", "lower"),
    ("training.repaired_records", "count", "higher"),
    ("training.repair_success_ratio", "ratio", "higher"),
    ("training.outage_calls_per_repair", "count", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _append(facts: dict, key: str, value) -> None:
    facts.setdefault(key, []).append(value)


def _add(facts: dict, key: str, value) -> None:
    facts[key] = facts.get(key, 0) + value


def _observe_report(facts: dict, report) -> None:
    repaired = sum(r.repaired for r in report.rows)
    _add(facts, "compared", len(report.rows))
    _add(facts, "compare_calls", 1)
    _add(facts, "repaired", repaired)
    _add(facts, "violating", repaired + sum(r.violated for r in report.rows))


def _observe_draw(facts: dict, result) -> None:
    samples, rejected = result
    _add(facts, "drawn_kept", len(samples))
    _add(facts, "drawn_rejected", rejected)


def _observe_solve(facts: dict, result) -> None:
    _append(facts, "solve_levels", result.levels)
    _append(facts, "solve_evaluations", result.evaluations)


# (module, attribute, span name, observer of the result)
WRAP_TARGETS = (
    ("relayalloc.gridsearch", "outage_grid", "outage.grid", None),
    ("relayalloc.gridsearch", "all_active_outage", "outage.scalar", None),
    ("relayalloc.gridsearch", "average_outage", "outage.scalar", None),
    ("relayalloc.data", "solve", "gridsearch.solve", _observe_solve),
    ("relayalloc.data", "feasibility_check", "gridsearch.feasibility", None),
    ("relayalloc.data", "draw_feasible_samples", "data.draw", _observe_draw),
    ("relayalloc.data", "label_dataset", "data.label",
     lambda facts, ds: _add(facts, "labeled", len(ds))),
    ("relayalloc.cli", "build_dataset", "data.build", None),
    ("relayalloc.cli", "split", "data.split", None),
    ("relayalloc.cli", "save_dataset", "data.save", None),
    ("relayalloc.cli", "load_dataset", "data.load",
     lambda facts, ds: _add(facts, "loaded", len(ds))),
    ("relayalloc.cli", "init_mlp", "mlp.init", None),
    ("relayalloc.cli", "save_model", "mlp.save", None),
    ("relayalloc.cli", "load_model", "mlp.load", None),
    ("relayalloc.cli", "normalization_for", "training.normalization", None),
    ("relayalloc.cli", "run_train", "training.train", None),
    ("relayalloc.cli", "write_history_csv", "training.write_history", None),
    ("relayalloc.cli", "compare_against_labels", "training.compare", _observe_report),
    ("relayalloc.cli", "write_comparison_csv", "training.write_comparison", None),
    ("relayalloc.training", "gradients", "mlp.gradients", None),
    ("relayalloc.training", "adam_step", "mlp.adam_step", None),
    ("relayalloc.training", "forward", "mlp.forward", None),
    ("relayalloc.training", "mse_loss", "training.snapshot_loss", None),
    ("relayalloc.training", "relative_error", "training.snapshot_rel_error", None),
    ("relayalloc.training", "_scale_up_repair", "training.repair", None),
)


def install(patches: Patches, tracer: Tracer, facts: dict) -> None:
    """Wrap every target; missing ones land in ``patches.unwrapped``."""
    for module, attr, span, observe in WRAP_TARGETS:
        seen = None if observe is None else (lambda r, o=observe: o(facts, r))
        patches.install(module, attr, lambda fn, s=span, o=seen: tracer.wrap(s, fn, o))


def _ratio(num, den):
    return num / den if den else None


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(spans, facts: dict) -> dict:
    """Every per-layer metric from one trace; None where the trace has no data."""
    ix = SpanIndex(spans)
    solves = ix.named("gridsearch.solve", "query.solve")
    levels = facts.get("solve_levels", [])
    evaluations = facts.get("solve_evaluations", [])
    scalar = ix.named("outage.scalar")
    in_cli = [s for s in scalar if ix.has_ancestor(s, lambda n: n.startswith("cli."))]
    in_repair = [s for s in scalar if ix.has_ancestor(s, lambda n: n == "training.repair")]
    cli_spans = [s for s in ix.spans if s.name.startswith("cli.")]
    kept = facts.get("drawn_kept", 0)
    compare_calls = facts.get("compare_calls", 0)

    def per_call(name, scale):
        return _ratio(ix.total_ns(name) / scale, len(ix.named(name)))

    return {
        "bessel.k1e_ns_per_point": None,  # a probe, measured separately
        "outage.grid_calls_per_solve": _ratio(len(ix.named("outage.grid")), len(solves)),
        "outage.grid_ms_per_solve": _ratio(ix.total_ns("outage.grid") / 1e6, len(solves)),
        "outage.scalar_calls_per_record": _ratio(len(in_cli), facts.get("stage_records", 0)),
        "outage.scalar_us_per_call": per_call("outage.scalar", 1e3),
        "gridsearch.levels_per_solve": _mean(levels),
        "gridsearch.evals_per_solve": _mean(evaluations),
        "gridsearch.ms_per_level": _ratio(
            sum(s.duration_ns for s in solves) / 1e6, sum(x + 1 for x in levels)),
        "gridsearch.self_ms_per_solve": _ratio(
            sum(ix.self_ns(s) for s in solves) / 1e6, len(solves)),
        "data.draw_ms": per_call("data.draw", 1e6),
        "data.draw_accept_ratio": _ratio(kept, kept + facts.get("drawn_rejected", 0)),
        "data.label_ms_per_record": _ratio(ix.total_ns("data.label") / 1e6, facts.get("labeled", 0)),
        "data.save_ms": per_call("data.save", 1e6),
        "data.load_ms_per_record": _ratio(ix.total_ns("data.load") / 1e6, facts.get("loaded", 0)),
        "mlp.grad_us_per_step": per_call("mlp.gradients", 1e3),
        "mlp.adam_us_per_step": per_call("mlp.adam_step", 1e3),
        "mlp.forward_us_per_query": per_call("query.forward", 1e3),
        "mlp.flops_per_query": facts.get("flops_per_query"),
        "training.snapshot_share": _ratio(
            ix.total_ns("training.snapshot_loss", "training.snapshot_rel_error"),
            ix.total_ns("training.train")),
        "training.compare_ms_per_record": _ratio(
            ix.total_ns("training.compare") / 1e6, facts.get("compared", 0)),
        "training.violating_records": _ratio(facts.get("violating", 0), compare_calls),
        "training.repaired_records": _ratio(facts.get("repaired", 0), compare_calls),
        "training.repair_success_ratio": _ratio(facts.get("repaired", 0), facts.get("violating", 0)),
        "training.outage_calls_per_repair": _ratio(
            len(in_repair), len(ix.named("training.repair"))),
        "cli.overhead_ms": _ratio(sum(ix.self_ns(s) for s in cli_spans) / 1e6, len(cli_spans)),
    }


def k1e_ns_per_point(seed: int, points: int = 1_000_000, repeats: int = 3) -> float:
    """Median time of ``k1e`` over log-uniform points in [1e-3, 1e2], per point."""
    rng = np.random.default_rng(wl.derive(seed, 100))
    x = 10.0 ** rng.uniform(-3.0, 2.0, points)
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        k1e(x)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / points


PROBE_SECONDS = 0.2


def probe(seed: int, workdir: str, tally) -> tuple[dict, Tracer]:
    """Tiny traced pass of every workload; returns its metrics and trace."""
    tracer = Tracer("probe")
    facts: dict = {}
    for name in wl.WORKLOADS:
        run = wl.Run(name, seed, wl.TINY, os.path.join(workdir, f"probe-{name}"), facts=facts)
        inputs, _ = wl.run_setup(run)
        run.tracer = tracer
        with Patches() as patches:
            install(patches, tracer, facts)
            wl.measure(run, inputs, PROBE_SECONDS)
        run.tracer = None
        run.settle()
        tally.merge(run.tally)
    return layer_metrics(tracer.spans, facts), tracer
