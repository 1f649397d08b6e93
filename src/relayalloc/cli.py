"""Command line entry points.

Subcommands: gen-data, train, solve, eval, sweep. Every run writes the
requested artifacts plus a small JSON run manifest (same path with a
``.manifest.json`` suffix unless overridden). Artifacts are deterministic
given the same options; manifests record wall-clock and are the one
exception to byte-identical reruns.

Each option is declared once, as an ``_Option`` row in the tables below;
the rows generate the flags and carry the defaults. Values resolve as
table default < ``--profile`` bundle < ``--config`` file < explicit flag,
and every value passes its row's converter whichever layer it came from.
``--config`` keys are the option names: the flag name with ``-`` turned
into ``_``, except for the system flags, whose keys are the
``SystemConfig`` fields (``--subcarriers`` is ``n``, ``--active`` ``t``,
``--mod-order`` ``m``, ``--snr-threshold`` ``s``, ``--outage-threshold``
``psi_th``). Config values are type-checked exactly like flag text, and
a manifest's ``options`` block is itself a valid ``--config`` file.

Exit codes:
    0  success
    2  bad usage or invalid arguments (argparse errors included)
    3  the requested problem is infeasible at the power caps
    4  I/O failure or a malformed artifact file
    5  numeric failure (non-finite training loss, consistency check)
    6  the grid search would exceed its evaluation budget
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._files import atomic_open
from .data import build_dataset, load_dataset, save_dataset, split
from .errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    NonFiniteLossError,
    NumericConsistencyError,
    SchemaError,
    check_integer,
)
from .gridsearch import OUTAGE_MODES, SystemConfig, solve
from .mlp import init_mlp, load_model, save_model
from .outage import SubcarrierStats
from .training import (
    SweepSpec,
    TrainingConfig,
    _layer_dims,
    average_histories,
    compare_against_labels,
    normalization_for,
    sweep as run_sweep,
    train as run_train,
    write_comparison_csv,
    write_history_csv,
)

MANIFEST_FORMAT = "relay-run-v1"


def _parameters(owner) -> dict:
    """Parameter name -> the default the library declares for it."""
    return {name: p.default for name, p in inspect.signature(owner).parameters.items()}


_SYSTEM = _parameters(SystemConfig)
_TRAINING = _parameters(TrainingConfig)
_SWEEP = _parameters(SweepSpec)
_SOLVE = _parameters(solve)
_BUILD = _parameters(build_dataset)


def _pick(parameters: dict, opts: dict) -> dict:
    """The options named like parameters of the owner, as keyword arguments."""
    return {name: opts[name] for name in parameters if name in opts}


@dataclass(frozen=True)
class _Option:
    """One option: its key in ``--config`` files and manifests, its converter
    (int, float or str), its default (None: optional, and null is accepted),
    its help text and the values it allows."""

    name: str
    convert: type
    default: object
    help: str = ""
    choices: tuple | None = None
    flag: str | None = None  # None: --name with "_" spelled "-"


_SYSTEM_OPTIONS = (
    _Option("n", int, _SYSTEM["n"], "total subcarriers per block", flag="--subcarriers"),
    _Option("t", int, _SYSTEM["t"], "active subcarriers per block", flag="--active"),
    _Option("m", int, _SYSTEM["m"], "constellation size, a power of two", flag="--mod-order"),
    _Option("s", float, _SYSTEM["s"], "end-to-end SNR threshold", flag="--snr-threshold"),
    _Option("psi_th", float, _SYSTEM["psi_th"], "outage probability ceiling",
            flag="--outage-threshold"),
    _Option("pt_max", float, _SYSTEM["pt_max"], "per-subcarrier transmit power cap"),
    _Option("pr_max", float, _SYSTEM["pr_max"], "per-subcarrier relay power cap"),
    _Option("outage_mode", str, _SYSTEM["outage_mode"], "block outage definition",
            choices=OUTAGE_MODES),
)
# gen-data draws its statistics from the same default range as a sweep
_RANGE_OPTIONS = (
    _Option("range_lo", float, _SWEEP["range_lo"], "lowest drawn channel statistic"),
    _Option("range_hi", float, _SWEEP["range_hi"], "highest drawn channel statistic"),
)
_SCHEDULE_OPTIONS = (
    _Option("epochs", int, _TRAINING["epochs"], "passes over the training set"),
    _Option("batch_size", int, _TRAINING["batch_size"], "samples per Adam step"),
    _Option("step_size", float, _TRAINING["step_size"], "Adam step size"),
    _Option("snapshot_every", int, _TRAINING["snapshot_every"],
            "epochs between history snapshots"),
)
_DELTA = _Option("delta", float, _SOLVE["delta"], "solver accuracy target")
_WORKERS = _Option("workers", int, _BUILD["workers"], "parallel worker processes")
_MANIFEST = _Option("manifest", str, None, "run manifest path (default: beside the main artifact)")

_PROFILES = {
    # Desk scale: minutes on a laptop; the table defaults used throughout the tests.
    "desk": {},
    # Full scale: pairs with a grid-sampled dataset (--sampler grid,
    # --grid-levels 3 gives 3^8 = 6561 samples) and takes hours.
    "paper": {
        "hidden": "128,128,128,128,128,128",
        "epochs": 100_000,
        "batch_size": 32,
        "step_size": 1e-4,
    },
}


def _convert(option: _Option, value, source: str):
    """Check one value as argparse checks the flag's text: int and float
    rows take numbers or numeric text, str rows take text only."""
    if value is None and option.default is None:
        return None
    try:
        if value is None or isinstance(value, bool) or (
            option.convert is str and not isinstance(value, str)
        ):
            raise TypeError
        if option.convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        typed = option.convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(
            f"{source}: option {option.name} expects {option.convert.__name__}, got {value!r}"
        ) from None
    if option.choices and typed not in option.choices:
        raise InvalidArgumentError(
            f"{source}: option {option.name} must be one of "
            f"{', '.join(option.choices)}, got {value!r}"
        )
    return typed


def _read_config(path: str, known: dict) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{path}: expected a JSON object")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise InvalidArgumentError(f"{path}: unknown option(s): {', '.join(unknown)}")
    return doc


def _resolve(args: argparse.Namespace) -> dict:
    """Table default < profile bundle < config file < explicit flags."""
    rows = {option.name: option for option in args.options}
    layers = [("default", {name: option.default for name, option in rows.items()})]
    profile = getattr(args, "profile", None)
    if profile:
        layers.append((f"--profile {profile}", _PROFILES[profile]))
    if args.config:
        layers.append((args.config, _read_config(args.config, rows)))
    flags = {name: getattr(args, name) for name in rows}
    layers.append(("command line", {k: v for k, v in flags.items() if v is not None}))
    return {
        name: _convert(rows[name], value, source)
        for source, layer in layers
        for name, value in layer.items()
    }


def _write_manifest(path: str, command: str, opts: dict, artifacts: dict,
                    started: float, extra: dict) -> None:
    doc = {
        "format": MANIFEST_FORMAT,
        "command": command,
        "version": __version__,
        "options": opts,
        "artifacts": artifacts,
        "wall_clock_sec": time.perf_counter() - started,
        **extra,
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _progress_printer(label: str):
    """progress(done, total) printing once per new twentieth of the work."""
    shown = 0

    def cb(done: int, total: int) -> None:
        nonlocal shown
        twentieth = 20 * done // total
        if twentieth > shown:
            shown = twentieth
            print(f"{label}: {done}/{total}", file=sys.stderr)

    return cb


def _parse_list(text: str, kind: type, flag: str) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidArgumentError(
            f"{flag} {text!r}: expected comma-separated {kind.__name__} values"
        ) from exc


# ----------------------------------------------------------------- gen-data


_GEN_DATA_OPTIONS = (
    *_SYSTEM_OPTIONS,
    _Option("count", int, 1000, "training records to keep"),
    _Option("validation_count", int, 0, "extra records split off for validation"),
    *_RANGE_OPTIONS,
    _Option("seed", int, 1001, "seed of the sample draws"),
    _Option("split_seed", int, None, "seed for the train/validation split (default seed+1)"),
    _DELTA,
    _Option("sampler", str, _BUILD["sampler"], "how samples are drawn",
            choices=("uniform", "grid")),
    _Option("grid_levels", int, _BUILD["grid_levels"],
            "values per statistic for --sampler grid"),
    _WORKERS,
    _Option("out", str, "dataset.jsonl", "training dataset path (JSONL)"),
    _Option("val_out", str, "validation.jsonl", "validation dataset path (JSONL)"),
    _MANIFEST,
)


def _cmd_gen_data(opts: dict, args: argparse.Namespace) -> tuple | None:
    config = SystemConfig(**_pick(_SYSTEM, opts))
    validation_count = opts["validation_count"]
    # refused before the labeling: build_dataset sees only the sum, split runs after it
    check_integer("count", opts["count"], 1)
    check_integer("validation_count", validation_count, 0)
    if opts["split_seed"] is not None:
        check_integer("split_seed", opts["split_seed"], 0)
    dataset = build_dataset(
        config, **{**_pick(_BUILD, opts), "count": opts["count"] + validation_count},
        progress=_progress_printer("labeling"),
    )
    artifacts = {}
    if validation_count > 0:
        if opts["split_seed"] is None:
            opts["split_seed"] = opts["seed"] + 1
        train_set, val_set = split(dataset, validation_count, opts["split_seed"])
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
    extra = {"rejected": dataset.gen.rejected, "labeled": len(dataset),
             "labeling": dataset.labeling}
    return opts["out"] + ".manifest.json", artifacts, extra


# -------------------------------------------------------------------- train


_TRAIN_OPTIONS = (
    _Option("data", str, "dataset.jsonl", "training dataset (JSONL)"),
    _Option("val_data", str, None, "validation dataset (JSONL)"),
    _Option("hidden", str, "64,64", "hidden layer sizes"),
    *_SCHEDULE_OPTIONS,
    _Option("beta1", float, _TRAINING["beta1"], "Adam first-moment decay"),
    _Option("beta2", float, _TRAINING["beta2"], "Adam second-moment decay"),
    _Option("epsilon", float, _TRAINING["epsilon"], "Adam denominator offset"),
    _Option("init_seed", int, 7, "seed of the weight initialization"),
    _Option("shuffle_seed", int, _TRAINING["shuffle_seed"], "seed of the batch shuffles"),
    _Option("model_out", str, "model.json", "model path (JSON)"),
    _Option("history_out", str, "history.csv", "history CSV path"),
    _MANIFEST,
)


def _cmd_train(opts: dict, args: argparse.Namespace) -> tuple | None:
    check_integer("init_seed", opts["init_seed"], 0)  # init_mlp would name it "seed"
    dataset = load_dataset(opts["data"])
    validation = load_dataset(opts["val_data"]) if opts["val_data"] else None
    dims = _layer_dims(dataset.config, _parse_list(opts["hidden"], int, "--hidden"))
    params = init_mlp(dims, opts["init_seed"])
    training = TrainingConfig(**_pick(_TRAINING, opts))
    params, history = run_train(params, dataset, training, validation=validation)
    save_model(params, normalization_for(dataset), opts["model_out"])
    write_history_csv(history, opts["history_out"])
    last = history.points[-1]
    print(
        f"trained {training.epochs} epochs: loss {last.loss:.6g}, "
        f"relative error {last.rel_error:.6g}"
    )
    artifacts = {"model": opts["model_out"], "history": opts["history_out"]}
    steps = training.epochs * -(-len(dataset) // training.batch_size)  # the last batch may be short
    extra = {"final_loss": last.loss, "final_rel_error": last.rel_error, "layer_dims": dims,
             "training": {"steps": steps, "seconds": last.elapsed_sec,  # epochs and snapshots
                          "steps_per_second": steps / last.elapsed_sec}}
    return opts["model_out"] + ".manifest.json", artifacts, extra


# -------------------------------------------------------------------- solve


_SOLVE_OPTIONS = (
    *_SYSTEM_OPTIONS,
    _DELTA,
    _Option("grid0", int, _SOLVE["grid0"], "points per axis on the first grid"),
    _Option("refine_points", int, _SOLVE["refine_points"],
            "points per axis per refinement level, odd"),
    _Option("shrink", float, _SOLVE["shrink"], "window shrink factor per level"),
    _Option("max_evaluations", int, _SOLVE["max_evaluations"], "grid evaluation budget"),
    _Option("out", str, None, "write the result as JSON"),
    _MANIFEST,
)


def _cmd_solve(opts: dict, args: argparse.Namespace) -> tuple | None:
    if not args.stats:
        raise InvalidArgumentError("solve needs at least one --stats mu1,mu2,eta1,eta2")
    stats = []
    for item in args.stats:
        values = _parse_list(item, float, "--stats")
        if len(values) != 4:
            raise InvalidArgumentError(f"--stats needs mu1,mu2,eta1,eta2, got {item!r}")
        stats.append(SubcarrierStats(*values))
    config = SystemConfig(**_pick(_SYSTEM, opts))
    result = solve(stats, config, **_pick(_SOLVE, opts))
    for i, (pt, pr) in enumerate(zip(result.allocation.pt, result.allocation.pr), start=1):
        print(f"subcarrier {i}: transmit {pt!r}, relay {pr!r}")
    print(f"total power: {result.total_power!r}")
    print(f"achieved outage: {result.achieved_outage!r} (ceiling {config.psi_th!r})")
    print(f"grid evaluations: {result.evaluations}, refinement levels: {result.levels}")
    if not opts["out"]:
        return None
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
    return opts["out"] + ".manifest.json", {"result": opts["out"]}, {
        "stop_reason": result.stop_reason}


# --------------------------------------------------------------------- eval


_EVAL_OPTIONS = (
    _Option("model", str, "model.json", "trained model (JSON)"),
    _Option("data", str, "validation.jsonl", "labeled dataset (JSONL)"),
    _Option("out", str, "comparison.csv", "comparison CSV path"),
    _Option("repair", str, None, "scale infeasible allocations up to feasibility first",
            choices=("scale-up",)),
    _Option("limit", int, None, "use only the first N records"),
    _MANIFEST,
)


def _cmd_eval(opts: dict, args: argparse.Namespace) -> tuple | None:
    params, norm = load_model(opts["model"])
    dataset = load_dataset(opts["data"])
    stored = normalization_for(dataset)
    if stored != norm:
        raise InvalidArgumentError(
            "model and dataset disagree on normalization "
            f"(model {norm}, dataset {stored})"
        )
    k = opts["limit"]
    if k is not None:
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
    extra = {"mean_gap": report.mean_gap, "violation_rate": report.violation_rate,
             "within_25pct": within}
    if report.repair:
        repaired = sum(r.repaired for r in report.rows)
        unrepairable = sum(r.violated for r in report.rows)
        extra["repair"] = {"violating": repaired + unrepairable, "repaired": repaired,
                           "unrepairable": unrepairable}
    return opts["out"] + ".manifest.json", {"comparison": opts["out"]}, extra


# -------------------------------------------------------------------- sweep


_SWEEP_OPTIONS = (
    *_SYSTEM_OPTIONS,
    _Option("experiment", str, "neurons", "hyperparameter the grid varies",
            choices=("neurons", "layers", "outage-threshold")),
    _Option("grid", str, "16,32,64", "comma-separated grid values"),
    # short CLI sweeps; SweepSpec's own default is the paper's 10 repeats
    _Option("repeats", int, 3, "training runs per grid value"),
    _Option("base_seed", int, _SWEEP["base_seed"], "seed every run's seeds derive from"),
    _Option("hidden_layers", int, _SWEEP["hidden_layers"], "hidden layers per network"),
    _Option("neurons", int, _SWEEP["neurons"], "neurons per hidden layer"),
    _Option("train_count", int, _SWEEP["train_count"], "training records per run"),
    _Option("validation_count", int, _SWEEP["validation_count"],
            "validation records per run"),
    *_RANGE_OPTIONS,
    _DELTA,
    *_SCHEDULE_OPTIONS,
    _WORKERS,
    _Option("out_dir", str, "sweep", "directory of the history CSVs"),
    _MANIFEST,
)


def _cmd_sweep(opts: dict, args: argparse.Namespace) -> tuple | None:
    system = SystemConfig(**_pick(_SYSTEM, opts))
    kind = float if opts["experiment"] == "outage-threshold" else int
    grid = _parse_list(opts["grid"], kind, "--grid")
    spec = SweepSpec(**_pick(_SWEEP, {**opts, "grid": grid}))
    training = TrainingConfig(**_pick(_TRAINING, opts))
    runs = run_sweep(
        spec, system, training,
        workers=opts["workers"],
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
    manifest = os.path.join(opts["out_dir"], "sweep.manifest.json")
    return manifest, artifacts, {"seeds": [r.seeds for r in runs]}


# --------------------------------------------------------------------- main


# A handler returns (default manifest path, artifacts, extra manifest
# fields), or None when it wrote no artifact and so no manifest.
_COMMANDS = (
    ("gen-data", _cmd_gen_data, _GEN_DATA_OPTIONS,
     "draw channel statistics and label them with the grid-search optimum"),
    ("train", _cmd_train, _TRAIN_OPTIONS, "fit the allocation network on a dataset"),
    ("solve", _cmd_solve, _SOLVE_OPTIONS,
     "grid-search the minimum-power allocation for given channel statistics"),
    ("eval", _cmd_eval, _EVAL_OPTIONS,
     "compare network allocations with the stored search optima of a labeled dataset"),
    ("sweep", _cmd_sweep, _SWEEP_OPTIONS,
     "repeat training over a grid of one hyperparameter and average the histories"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    Parsing leaves the parser as it was (each call fills a fresh
    namespace), so ``main`` reuses it; the handlers it names look up the
    functions they call when they run.
    """
    parser = argparse.ArgumentParser(
        prog="relayalloc",
        description="Minimum-power allocation for two-hop relayed OFDM "
                    "with index modulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, options, help_text in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="JSON",
                       help="JSON file of option values; explicit flags win")
        for o in options:
            shown = o.help if o.default is None else f"{o.help} (default {o.default})".lstrip()
            p.add_argument(o.flag or "--" + o.name.replace("_", "-"), dest=o.name,
                           type=o.convert, choices=o.choices, help=shown)
        p.set_defaults(func=func, options=options)
    sub.choices["train"].add_argument(
        "--profile", choices=sorted(_PROFILES),
        help="bundle of defaults: desk (small, minutes) or paper (full scale)")
    sub.choices["solve"].add_argument(
        "--stats", action="append", metavar="MU1,MU2,ETA1,ETA2",
        help="one subcarrier's statistics; repeat per subcarrier")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        opts = _resolve(args)
        manifest = args.func(opts, args)
        if manifest:
            default_path, artifacts, extra = manifest
            _write_manifest(opts["manifest"] or default_path, args.command, opts, artifacts,
                            started, extra)
        return 0
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
    except BudgetExceededError as exc:  # only solve takes the search's options
        way_out = ("raise --max-evaluations or coarsen --grid0, --refine-points"
                   if args.command == "solve"
                   else "samples of fewer subcarriers fit the default grids")
        print(f"search budget exceeded: {exc}; {way_out}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
