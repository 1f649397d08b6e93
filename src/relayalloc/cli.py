"""Command line entry points.

Subcommands: gen-data, train, solve, eval, sweep. Every run writes the
requested artifacts plus a small JSON run manifest (same path with a
``.manifest.json`` suffix unless overridden). Artifacts are deterministic
given the same options; manifests record wall-clock and are the one
exception to byte-identical reruns.

Exit codes:
    0  success
    2  bad usage or invalid arguments (argparse errors included)
    3  the requested problem is infeasible at the power caps
    4  I/O failure or a malformed artifact file
    5  numeric failure (non-finite training loss, consistency check)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from ._files import atomic_open
from .data import load_dataset, save_dataset, split
from .data import build_dataset
from .errors import (
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    NonFiniteLossError,
    NumericConsistencyError,
    SchemaError,
)
from .gridsearch import SystemConfig, solve
from .mlp import init_mlp, load_model, save_model
from .outage import SubcarrierStats
from .training import (
    SweepSpec,
    TrainingConfig,
    average_histories,
    compare_against_labels,
    normalization_for,
    sweep as run_sweep,
    train as run_train,
    write_comparison_csv,
    write_history_csv,
)

MANIFEST_FORMAT = "relay-run-v1"

_SYSTEM_DEFAULTS = {
    "n": 4,
    "t": 2,
    "m": 4,
    "s": 1.0,
    "psi_th": 1e-2,
    "pt_max": 5000.0,
    "pr_max": 5000.0,
    "outage_mode": "single-sap",
}

_PROFILES = {
    # Desk scale: minutes on a laptop; the defaults used throughout the tests.
    "desk": {
        "hidden": "64,64",
        "epochs": 10_000,
        "batch_size": 32,
        "step_size": 1e-4,
    },
    # Full scale: pairs with a grid-sampled dataset (--sampler grid,
    # --grid-levels 3 gives 3^8 = 6561 samples) and takes hours.
    "paper": {
        "hidden": "128,128,128,128,128,128",
        "epochs": 100_000,
        "batch_size": 32,
        "step_size": 1e-4,
    },
}


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subcarriers", dest="n", type=int, default=None,
                   help="total subcarriers per block (default 4)")
    p.add_argument("--active", dest="t", type=int, default=None,
                   help="active subcarriers per block (default 2)")
    p.add_argument("--mod-order", dest="m", type=int, default=None,
                   help="constellation size, a power of two (default 4)")
    p.add_argument("--snr-threshold", dest="s", type=float, default=None,
                   help="end-to-end SNR threshold (default 1.0)")
    p.add_argument("--outage-threshold", dest="psi_th", type=float, default=None,
                   help="outage probability ceiling (default 0.01)")
    p.add_argument("--pt-max", type=float, default=None,
                   help="per-subcarrier transmit power cap (default 5000)")
    p.add_argument("--pr-max", type=float, default=None,
                   help="per-subcarrier relay power cap (default 5000)")
    p.add_argument("--outage-mode", choices=["single-sap", "sap-averaged"],
                   default=None, help="block outage definition (default single-sap)")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="JSON",
                   help="JSON file of option values; explicit flags win")


def _resolve(args: argparse.Namespace, defaults: dict, profile: dict | None = None) -> dict:
    """Defaults < profile bundle < config file < explicit flags."""
    merged = dict(defaults)
    if profile:
        merged.update(profile)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(f"{config_path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidArgumentError(f"{config_path}: expected a JSON object")
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            raise InvalidArgumentError(
                f"{config_path}: unknown option(s): {', '.join(unknown)}"
            )
        merged.update(doc)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _system_config(opts: dict) -> SystemConfig:
    return SystemConfig(
        n=int(opts["n"]),
        t=int(opts["t"]),
        m=int(opts["m"]),
        s=float(opts["s"]),
        psi_th=float(opts["psi_th"]),
        pt_max=float(opts["pt_max"]),
        pr_max=float(opts["pr_max"]),
        outage_mode=opts["outage_mode"],
    )


def _write_manifest(path: str, command: str, opts: dict, artifacts: dict,
                    started: float, extra: dict | None = None) -> None:
    doc = {
        "format": MANIFEST_FORMAT,
        "command": command,
        "version": __version__,
        "options": opts,
        "artifacts": artifacts,
        "wall_clock_sec": time.perf_counter() - started,
    }
    if extra:
        doc.update(extra)
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_path(opts: dict, primary_artifact: str) -> str:
    return opts.get("manifest") or primary_artifact + ".manifest.json"


def _progress_printer(label: str):
    def cb(done: int, total: int) -> None:
        step = max(1, total // 20)
        if done % step == 0 or done == total:
            print(f"{label}: {done}/{total}", file=sys.stderr)

    return cb


def _parse_hidden(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        dims = [int(x) for x in text]
    else:
        try:
            dims = [int(part) for part in str(text).split(",") if part.strip()]
        except ValueError as exc:
            raise InvalidArgumentError(f"bad hidden layer list {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise InvalidArgumentError(f"hidden layer sizes must be >= 1, got {dims}")
    return dims


def _parse_stats(items: list[str]) -> list[SubcarrierStats]:
    stats = []
    for item in items:
        parts = [p for p in item.split(",") if p.strip()]
        if len(parts) != 4:
            raise InvalidArgumentError(
                f"--stats needs mu1,mu2,eta1,eta2 (4 numbers), got {item!r}"
            )
        try:
            mu1, mu2, eta1, eta2 = (float(p) for p in parts)
        except ValueError as exc:
            raise InvalidArgumentError(f"--stats {item!r}: not numbers") from exc
        stats.append(SubcarrierStats(mu1=mu1, mu2=mu2, eta1=eta1, eta2=eta2))
    return stats


# ----------------------------------------------------------------- gen-data


_GEN_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "count": 1000,
    "validation_count": 0,
    "range_lo": 0.5,
    "range_hi": 5.0,
    "seed": 1001,
    "split_seed": None,
    "delta": 1e-2,
    "sampler": "uniform",
    "grid_levels": None,
    "workers": 1,
    "out": "dataset.jsonl",
    "val_out": "validation.jsonl",
    "manifest": None,
}


def _cmd_gen_data(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, _GEN_DEFAULTS)
    config = _system_config(opts)
    validation_count = int(opts["validation_count"])
    total = int(opts["count"]) + validation_count
    dataset = build_dataset(
        config,
        total,
        float(opts["range_lo"]),
        float(opts["range_hi"]),
        int(opts["seed"]),
        float(opts["delta"]),
        sampler=opts["sampler"],
        grid_levels=None if opts["grid_levels"] is None else int(opts["grid_levels"]),
        workers=int(opts["workers"]),
        progress=_progress_printer("labeling"),
    )
    artifacts = {}
    if validation_count > 0:
        split_seed = opts["split_seed"]
        split_seed = int(opts["seed"]) + 1 if split_seed is None else int(split_seed)
        opts["split_seed"] = split_seed
        train_set, val_set = split(dataset, validation_count, split_seed)
        save_dataset(train_set, opts["out"])
        save_dataset(val_set, opts["val_out"])
        artifacts["dataset"] = opts["out"]
        artifacts["validation"] = opts["val_out"]
        print(f"wrote {len(train_set)} training and {len(val_set)} validation records")
    else:
        save_dataset(dataset, opts["out"])
        artifacts["dataset"] = opts["out"]
        print(f"wrote {len(dataset)} records")
    print(f"rejected {dataset.gen.rejected} infeasible sample draw(s)")
    _write_manifest(
        _manifest_path(opts, opts["out"]), "gen-data", opts, artifacts, started,
        extra={"rejected": dataset.gen.rejected, "labeled": len(dataset)},
    )
    return 0


# -------------------------------------------------------------------- train


_TRAIN_DEFAULTS = {
    "data": "dataset.jsonl",
    "val_data": None,
    "hidden": "64,64",
    "epochs": 10_000,
    "batch_size": 32,
    "step_size": 1e-4,
    "beta1": 0.9,
    "beta2": 0.999,
    "epsilon": 1e-8,
    "init_seed": 7,
    "shuffle_seed": 99,
    "snapshot_every": 100,
    "model_out": "model.json",
    "history_out": "history.csv",
    "manifest": None,
}


def _cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    profile = _PROFILES[args.profile] if args.profile else None
    opts = _resolve(args, _TRAIN_DEFAULTS, profile)
    dataset = load_dataset(opts["data"])
    validation = load_dataset(opts["val_data"]) if opts["val_data"] else None
    hidden = _parse_hidden(opts["hidden"])
    dims = [4 * dataset.config.t, *hidden, 2 * dataset.config.t]
    params = init_mlp(dims, int(opts["init_seed"]))
    training = TrainingConfig(
        epochs=int(opts["epochs"]),
        batch_size=int(opts["batch_size"]),
        step_size=float(opts["step_size"]),
        beta1=float(opts["beta1"]),
        beta2=float(opts["beta2"]),
        epsilon=float(opts["epsilon"]),
        shuffle_seed=int(opts["shuffle_seed"]),
        snapshot_every=int(opts["snapshot_every"]),
    )
    params, history = run_train(params, dataset, training, validation=validation)
    save_model(params, normalization_for(dataset), opts["model_out"])
    write_history_csv(history, opts["history_out"])
    last = history.points[-1]
    print(
        f"trained {training.epochs} epochs: loss {last.loss:.6g}, "
        f"relative error {last.rel_error:.6g}"
    )
    artifacts = {"model": opts["model_out"], "history": opts["history_out"]}
    _write_manifest(
        _manifest_path(opts, opts["model_out"]), "train", opts, artifacts, started,
        extra={"final_loss": last.loss, "final_rel_error": last.rel_error,
               "layer_dims": dims},
    )
    return 0


# -------------------------------------------------------------------- solve


_SOLVE_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "delta": 1e-2,
    "grid0": 12,
    "refine_points": 9,
    "shrink": 0.6,
    "max_evaluations": 2_000_000,
    "out": None,
    "manifest": None,
}


def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, _SOLVE_DEFAULTS)
    if not args.stats:
        raise InvalidArgumentError("solve needs at least one --stats mu1,mu2,eta1,eta2")
    stats = _parse_stats(args.stats)
    config = _system_config(opts)
    result = solve(
        stats,
        config,
        float(opts["delta"]),
        grid0=int(opts["grid0"]),
        refine_points=int(opts["refine_points"]),
        shrink=float(opts["shrink"]),
        max_evaluations=int(opts["max_evaluations"]),
    )
    for i, (pt, pr) in enumerate(zip(result.allocation.pt, result.allocation.pr), start=1):
        print(f"subcarrier {i}: transmit {pt!r}, relay {pr!r}")
    print(f"total power: {result.total_power!r}")
    print(f"achieved outage: {result.achieved_outage!r} (ceiling {config.psi_th!r})")
    print(f"grid evaluations: {result.evaluations}, refinement levels: {result.levels}")
    if opts["out"]:
        doc = {
            "pt": list(result.allocation.pt),
            "pr": list(result.allocation.pr),
            "total_power": result.total_power,
            "achieved_outage": result.achieved_outage,
            "accuracy": result.accuracy,
            "evaluations": result.evaluations,
            "levels": result.levels,
        }
        with atomic_open(opts["out"]) as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _write_manifest(
            _manifest_path(opts, opts["out"]), "solve", opts,
            {"result": opts["out"]}, started,
        )
    return 0


# --------------------------------------------------------------------- eval


_EVAL_DEFAULTS = {
    "model": "model.json",
    "data": "validation.jsonl",
    "out": "comparison.csv",
    "repair": None,
    "limit": None,
    "manifest": None,
}


def _cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, _EVAL_DEFAULTS)
    params, norm = load_model(opts["model"])
    dataset = load_dataset(opts["data"])
    stored = normalization_for(dataset)
    if (stored.range_hi, stored.pt_max, stored.pr_max) != (
        norm.range_hi, norm.pt_max, norm.pr_max
    ):
        raise InvalidArgumentError(
            "model and dataset disagree on normalization "
            f"(model {norm}, dataset {stored})"
        )
    if opts["limit"] is not None:
        k = int(opts["limit"])
        if not (0 < k <= len(dataset)):
            raise InvalidArgumentError(f"--limit must be in (0, {len(dataset)}]")
        dataset = replace(dataset, gen=replace(dataset.gen, count=k), records=dataset.records[:k])
    report = compare_against_labels(params, dataset, repair=opts["repair"])
    write_comparison_csv(report, opts["out"])
    within = float(np.mean([abs(r.gap) <= 0.25 for r in report.rows]))
    print(f"compared {len(report.rows)} records")
    print(f"mean total-power gap: {report.mean_gap:+.4%}")
    print(f"outage violations: {report.violation_rate:.2%}")
    print(f"within 25% of the search optimum: {within:.2%}")
    _write_manifest(
        _manifest_path(opts, opts["out"]), "eval", opts,
        {"comparison": opts["out"]}, started,
        extra={
            "mean_gap": report.mean_gap,
            "violation_rate": report.violation_rate,
            "within_25pct": within,
        },
    )
    return 0


# -------------------------------------------------------------------- sweep


_SWEEP_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "experiment": "neurons",
    "grid": "16,32,64",
    "repeats": 3,
    "base_seed": 0,
    "hidden_layers": 2,
    "neurons": 64,
    "train_count": 1000,
    "validation_count": 200,
    "range_lo": 0.5,
    "range_hi": 5.0,
    "delta": 1e-2,
    "epochs": 10_000,
    "batch_size": 32,
    "step_size": 1e-4,
    "snapshot_every": 100,
    "workers": 1,
    "out_dir": "sweep",
    "manifest": None,
}


def _parse_grid(text, experiment: str) -> tuple:
    if isinstance(text, (list, tuple)):
        values = list(text)
    else:
        values = [part for part in str(text).split(",") if part.strip()]
    if experiment == "outage-threshold":
        return tuple(float(v) for v in values)
    return tuple(int(v) for v in values)


def _cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, _SWEEP_DEFAULTS)
    system = _system_config(opts)
    spec = SweepSpec(
        experiment=opts["experiment"],
        grid=_parse_grid(opts["grid"], opts["experiment"]),
        repeats=int(opts["repeats"]),
        base_seed=int(opts["base_seed"]),
        hidden_layers=int(opts["hidden_layers"]),
        neurons=int(opts["neurons"]),
        train_count=int(opts["train_count"]),
        validation_count=int(opts["validation_count"]),
        range_lo=float(opts["range_lo"]),
        range_hi=float(opts["range_hi"]),
        delta=float(opts["delta"]),
    )
    training = TrainingConfig(
        epochs=int(opts["epochs"]),
        batch_size=int(opts["batch_size"]),
        step_size=float(opts["step_size"]),
        snapshot_every=int(opts["snapshot_every"]),
    )
    runs = run_sweep(
        spec, system, training,
        workers=int(opts["workers"]),
        progress=_progress_printer("runs"),
    )
    os.makedirs(opts["out_dir"], exist_ok=True)
    artifacts = {}
    for value in spec.grid:
        value_runs = [r for r in runs if r.value == float(value)]
        for run in value_runs:
            name = f"{spec.experiment}_{value}_r{run.repeat}.csv"
            path = os.path.join(opts["out_dir"], name)
            write_history_csv(run.history, path)
            artifacts[name] = path
        mean_name = f"{spec.experiment}_{value}_mean.csv"
        mean_path = os.path.join(opts["out_dir"], mean_name)
        write_history_csv(average_histories([r.history for r in value_runs]), mean_path)
        artifacts[mean_name] = mean_path
        final = float(np.mean([r.final_rel_error for r in value_runs]))
        print(f"{spec.experiment}={value}: mean final relative error {final:.4f}")
    manifest = opts["manifest"] or os.path.join(opts["out_dir"], "sweep.manifest.json")
    _write_manifest(
        manifest, "sweep", opts, artifacts, started,
        extra={"seeds": [r.seeds for r in runs]},
    )
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayalloc",
        description="Minimum-power allocation for two-hop relayed OFDM "
                    "with index modulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="draw channel statistics and label them "
                                        "with the grid-search optimum")
    _add_config_flag(p)
    _add_system_flags(p)
    p.add_argument("--count", type=int, default=None, help="training records to keep")
    p.add_argument("--validation-count", type=int, default=None,
                   help="extra records split off for validation (default 0)")
    p.add_argument("--range-lo", type=float, default=None)
    p.add_argument("--range-hi", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-seed", type=int, default=None,
                   help="seed for the train/validation split (default seed+1)")
    p.add_argument("--delta", type=float, default=None,
                   help="solver accuracy target (default 0.01)")
    p.add_argument("--sampler", choices=["uniform", "grid"], default=None)
    p.add_argument("--grid-levels", type=int, default=None,
                   help="values per statistic for --sampler grid")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel labeling processes (default 1)")
    p.add_argument("--out", default=None, help="training dataset path (JSONL)")
    p.add_argument("--val-out", default=None, help="validation dataset path (JSONL)")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit the allocation network on a dataset")
    _add_config_flag(p)
    p.add_argument("--profile", choices=sorted(_PROFILES), default=None,
                   help="bundle of defaults: desk (small, minutes) or paper (full scale)")
    p.add_argument("--data", default=None, help="training dataset (JSONL)")
    p.add_argument("--val-data", default=None, help="validation dataset (JSONL)")
    p.add_argument("--hidden", default=None, help="hidden layer sizes, e.g. 64,64")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--beta2", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--init-seed", type=int, default=None)
    p.add_argument("--shuffle-seed", type=int, default=None)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--model-out", default=None)
    p.add_argument("--history-out", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("solve", help="grid-search the minimum-power allocation "
                                     "for given channel statistics")
    _add_config_flag(p)
    _add_system_flags(p)
    p.add_argument("--stats", action="append", metavar="MU1,MU2,ETA1,ETA2",
                   help="one subcarrier's statistics; repeat per subcarrier")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid0", type=int, default=None,
                   help="points per axis on the first grid (default 12)")
    p.add_argument("--refine-points", type=int, default=None,
                   help="points per axis per refinement level, odd (default 9)")
    p.add_argument("--shrink", type=float, default=None,
                   help="window shrink factor per level (default 0.6)")
    p.add_argument("--max-evaluations", type=int, default=None)
    p.add_argument("--out", default=None, help="write the result as JSON")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="compare network allocations with the "
                                    "stored search optima of a labeled dataset")
    _add_config_flag(p)
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None, help="labeled dataset (JSONL)")
    p.add_argument("--out", default=None, help="comparison CSV path")
    p.add_argument("--repair", choices=["scale-up"], default=None,
                   help="scale infeasible allocations up to feasibility first")
    p.add_argument("--limit", type=int, default=None, help="use only the first N records")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="repeat training over a grid of one "
                                     "hyperparameter and average the histories")
    _add_config_flag(p)
    _add_system_flags(p)
    p.add_argument("--experiment", choices=["neurons", "layers", "outage-threshold"],
                   default=None)
    p.add_argument("--grid", default=None, help="comma-separated grid values")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--hidden-layers", type=int, default=None)
    p.add_argument("--neurons", type=int, default=None)
    p.add_argument("--train-count", type=int, default=None)
    p.add_argument("--validation-count", type=int, default=None)
    p.add_argument("--range-lo", type=float, default=None)
    p.add_argument("--range-hi", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, InvariantViolationError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4
    except (NonFiniteLossError, NumericConsistencyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
