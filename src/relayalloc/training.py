"""Training loop, accuracy metrics, oracle comparison and parameter sweeps.

The quality metric is the mean per-entry relative error between decoded
predictions and oracle labels, both in original power units:

    E = (1/L) sum_l (1/(2T)) sum_j |label_lj - pred_lj| / label_lj

Records containing an exact-zero label entry are excluded from E with a
counted warning (division); they only arise at psi_th = 1 where the
all-zero allocation is optimal.

Both metrics run the network once per dataset, on the dataset's column
views; ``forward`` is batch-invariant, so each row equals the answer to
that record's single query. The oracle comparison checks all network
allocations in one outage call, and the scale-up repair bisects all
violating records in lock step, four bisection levels per outage call,
stopping each record once no further level can move it.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._files import atomic_open
from .data import Dataset, build_dataset, split
from .errors import _FLOAT_MAX, InvalidArgumentError, NonFiniteLossError, check_finite
from .gridsearch import SystemConfig, _outage, _row_totals
from .mlp import (  # noqa: F401 -- gradients: perfbench/layers.py wraps training.gradients
    Batch,
    Gradients,
    MlpParams,
    NormalizationSpec,
    _backprop_into,
    _decode_powers,
    _encode_powers,
    _validate_dims,
    _Workspace,
    adam_step,
    encode_input,
    forward,
    gradients,
    init_adam,
    init_mlp,
    mse_loss,
)

HISTORY_CSV_HEADER = ("epoch", "loss", "rel_error")
COMPARISON_CSV_HEADER = ("sample_id", "ann_total", "oracle_total", "gap")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 10_000
    batch_size: int = 32
    step_size: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    shuffle_seed: int = 99
    snapshot_every: int = 100

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.snapshot_every < 1:
            raise InvalidArgumentError(
                "epochs, batch_size and snapshot_every must all be >= 1"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidArgumentError("beta1 and beta2 must lie in [0, 1)")
        for name in ("step_size", "epsilon"):
            check_finite(name, getattr(self, name))


@dataclass(frozen=True)
class HistoryPoint:
    epoch: int
    loss: float
    rel_error: float  # NaN when trained without a validation set
    elapsed_sec: float


@dataclass
class TrainingHistory:
    points: list[HistoryPoint] = field(default_factory=list)

    def epochs(self) -> list[int]:
        return [p.epoch for p in self.points]

    def rel_errors(self) -> list[float]:
        return [p.rel_error for p in self.points]

    def losses(self) -> list[float]:
        return [p.loss for p in self.points]


@dataclass(frozen=True)
class ComparisonRow:
    sample_id: int
    ann_total: float
    oracle_total: float
    gap: float
    ann_outage: float
    violated: bool
    repaired: bool = False


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    mean_gap: float
    violation_rate: float
    repair: str | None = None


def normalization_for(dataset: Dataset) -> NormalizationSpec:
    return NormalizationSpec(
        range_hi=dataset.gen.range_hi,
        pt_max=dataset.config.pt_max,
        pr_max=dataset.config.pr_max,
    )


def _layer_dims(config: SystemConfig, hidden) -> tuple[int, ...]:
    """Network widths for ``config``'s samples: 4 cols inputs, 2 cols outputs."""
    return _validate_dims((4 * config.cols, *hidden, 2 * config.cols))


def dataset_arrays(dataset: Dataset, norm: NormalizationSpec | None = None):
    """Encoded (inputs, targets) matrices for a whole dataset."""
    norm = norm or normalization_for(dataset)
    return (
        encode_input(dataset.samples, norm.range_hi),
        _encode_powers(dataset.labels, norm.pt_max, norm.pr_max),
    )


def _predict(params: MlpParams, dataset: Dataset) -> np.ndarray:
    """Network powers (N, 2T), pt then pr, for every record: one forward call."""
    norm = normalization_for(dataset)
    raw = forward(params, encode_input(dataset.samples, norm.range_hi))
    return _decode_powers(raw, norm.pt_max, norm.pr_max)


def train(
    params: MlpParams,
    dataset: Dataset,
    config: TrainingConfig,
    validation: Dataset | None = None,
) -> tuple[MlpParams, TrainingHistory]:
    """Mini-batch Adam training with periodic snapshots.

    Each epoch reshuffles with a generator seeded once from
    config.shuffle_seed, then walks consecutive batches (final short batch
    kept). Snapshots record full-training-set loss, validation relative
    error (NaN if no validation set) and wall-clock seconds.
    Each epoch gathers the shuffled set once; steps run in buffers made once.
    """
    norm = normalization_for(dataset)
    x, y = dataset_arrays(dataset, norm)
    if x.shape[1] != params.n_in or y.shape[1] != params.n_out:
        raise InvalidArgumentError(
            f"network ({params.n_in} -> {params.n_out}) does not fit data "
            f"({x.shape[1]} -> {y.shape[1]})"
        )
    state = init_adam(
        params,
        step_size=config.step_size,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    shuffle_rng = np.random.default_rng(config.shuffle_seed)
    history = TrainingHistory()
    n, size = x.shape[0], config.batch_size
    xs, ys = np.empty_like(x), np.empty_like(y)
    full, last = (_Workspace(params.layer_dims, rows)  # last: the final batch's rows
                  for rows in (min(size, n), n - (n - 1) // size * size))
    batches = [(slice(lo, lo + size), full if lo + size < n else last) for lo in range(0, n, size)]
    grads = Gradients(params.weights, params.biases, float("nan"))  # a buffer, all overwritten
    start = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        np.take(x, perm, axis=0, out=xs, mode="clip")  # every index is in range
        np.take(y, perm, axis=0, out=ys, mode="clip")
        for k, (rows, ws) in enumerate(batches):
            _backprop_into(params, xs[rows], ys[rows], ws, grads)
            if not grads.loss <= _FLOAT_MAX:  # a sum of squares: NaN or inf fails
                raise NonFiniteLossError(
                    f"non-finite loss {grads.loss!r} at epoch {epoch}, batch {k}",
                    epoch=epoch,
                    batch_index=k,
                    loss=grads.loss,
                )
            state, params = adam_step(state, params, grads)
        if epoch % config.snapshot_every == 0 or epoch == config.epochs:
            loss = mse_loss(params, Batch(inputs=x, targets=y))
            rel = relative_error(params, validation) if validation is not None else float("nan")
            history.points.append(
                HistoryPoint(
                    epoch=epoch,
                    loss=loss,
                    rel_error=rel,
                    elapsed_sec=time.perf_counter() - start,
                )
            )
    return params, history


def relative_error(params: MlpParams, validation: Dataset) -> float:
    """Mean per-entry relative error in original power units."""
    labels = validation.labels
    kept = ~(labels == 0.0).any(axis=1)
    skipped = len(kept) - int(kept.sum())
    if skipped:
        warnings.warn(
            f"relative_error: excluded {skipped} record(s) with zero label entries",
            RuntimeWarning,
            stacklevel=2,
        )
    if not kept.any():
        raise InvalidArgumentError("no validation records with nonzero labels")
    labels, pred = labels[kept], _predict(params, validation)[kept]
    return float(np.mean(np.mean(np.abs(labels - pred) / labels, axis=1)))


def _relative_gap(ann_total: float, oracle_total: float) -> float:
    if oracle_total == 0.0:
        return 0.0 if ann_total == 0.0 else float("inf")
    return (ann_total - oracle_total) / oracle_total


_REPAIR_STEPS = 80
_REPAIR_DEPTH = 4  # bisection levels settled per outage call


def _scale_up_repair(vec: np.ndarray, samples: np.ndarray, config: SystemConfig):
    """A common factor >= 1 restoring feasibility, capped at the box: the
    bisection's answer, not always the smallest feasible factor, since
    feasibility along the factor is not monotone at the last ulp.

    ``vec`` holds one allocation (pt_1..pt_T, pr_1..pr_T) per row for the
    statistic matrices ``samples`` (K, 4, T). Returns the indices of the
    repaired rows and their new allocations; rows with no positive power,
    or still infeasible at the largest factor inside the box, are left out.

    The result is bitwise that of ``_REPAIR_STEPS`` bisection steps per row
    (mid = 0.5 (lo + hi) from lo = 1; a feasible mid becomes hi, an
    infeasible one lo), settled ``_REPAIR_DEPTH`` levels per outage call:
    each round slices the 2^d + 1 points of each live row's depth-d subtree
    out of one array, level by level, each point 0.5 (left + right) of the
    two that bracket it a level up, which are the bits of its bisection
    step; it evaluates the 2^d - 1 inner points in one call and walks the
    row down its d outcomes by integer index. That is exact because the
    predicate is deterministic and the kernel is batch-invariant. A row
    stops once its next midpoint equals hi (tested feasible) or a lo that a
    step rejected: that step would reproduce (lo, hi), and so would every
    later one. The untested starting lo = 1 stops nothing, so a caller may
    pass a row that is already feasible. A repair makes at most
    1 + ceil(80 / 4) calls.
    """
    cols = samples.shape[2]
    box = np.repeat([config.pt_max, config.pr_max], cols)

    def scaled(rows, c):
        return np.minimum(vec[rows] * c[..., None], box)

    def fits(rows, c):
        return _outage(samples[rows], scaled(rows, c), config) <= config.psi_th

    smallest = np.where(vec > 0, vec, np.inf).min(axis=1, initial=np.inf)
    rows = np.flatnonzero(np.isfinite(smallest))
    hi = max(config.pt_max, config.pr_max) / smallest[rows]
    ok = fits(rows, hi)
    rows, hi = rows[ok], hi[ok]
    lo = np.ones(len(rows))
    rejected = np.zeros(len(rows), dtype=bool)  # lo is a factor some step found infeasible
    live = np.arange(len(rows))
    levels = 0
    while levels < _REPAIR_STEPS and len(live):
        depth = min(_REPAIR_DEPTH, _REPAIR_STEPS - levels)
        top = 1 << depth
        halves = [top >> k for k in range(1, depth + 1)]  # 2^(d-1), ..., 2, 1
        # every node of each live row's depth-d subtree: point k sits k / 2^d of
        # the way from lo to hi, each the midpoint of two points a level up
        points = np.empty((top + 1, len(live)))
        points[0], points[top] = lo[live], hi[live]
        for half in halves:
            points[half :: 2 * half] = 0.5 * (points[: -1 : 2 * half] + points[2 * half :: 2 * half])
        ok = fits(rows[live], points[1:-1])
        # walk each row down: its interval is points[a] .. points[a + 2 half]
        a, at = np.zeros(len(live), dtype=int), np.arange(len(live))
        for half in halves:
            a += half * ~ok[a + half - 1, at]  # an infeasible midpoint becomes lo
        low, high, rej = points[a, at], points[a + 1, at], rejected[live] | (a > 0)
        lo[live], hi[live], rejected[live] = low, high, rej
        levels += depth
        mid = 0.5 * (low + high)
        live = live[(mid != high) & ~((mid == low) & rej)]
    return rows, scaled(rows, hi)


def compare_against_labels(
    params: MlpParams,
    dataset: Dataset,
    *,
    repair: str | None = None,
) -> ComparisonReport:
    """Network allocation vs the dataset's oracle label, per record.

    gap = (ann_total - oracle_total) / oracle_total. The labels come from
    the deterministic search, so they stand in for re-solving each sample.
    ``repair='scale-up'`` (not part of the reference pipeline; flagged in
    the report) scales infeasible network allocations up to the
    feasibility boundary first.
    """
    if repair not in (None, "scale-up"):
        raise InvalidArgumentError(f"unknown repair mode {repair!r}")
    config = dataset.config
    samples = dataset.samples
    vec = _predict(params, dataset)
    outage = _outage(samples, vec, config)
    repaired = np.zeros(len(vec), dtype=bool)
    bad = np.flatnonzero(outage > config.psi_th)
    if repair == "scale-up" and len(bad):
        fixed, new = _scale_up_repair(vec[bad], samples[bad], config)
        rows = bad[fixed]
        vec[rows] = new
        outage[rows] = _outage(samples[rows], new, config)
        repaired[rows] = True
    columns = zip(_row_totals(vec).tolist(), dataset.totals.tolist(), outage.tolist(),
                  repaired.tolist())
    rows = [
        ComparisonRow(i, ann, oracle, _relative_gap(ann, oracle), out, out > config.psi_th, fix)
        for i, (ann, oracle, out, fix) in enumerate(columns)
    ]
    return ComparisonReport(
        rows=tuple(rows),
        mean_gap=float(np.mean([r.gap for r in rows])),
        violation_rate=float(np.mean([r.violated for r in rows])),
        repair=repair,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One experiment axis: which knob varies and the fixed context."""

    experiment: str  # "neurons" | "layers" | "outage-threshold"
    grid: tuple
    repeats: int = 10
    base_seed: int = 0
    hidden_layers: int = 2
    neurons: int = 64
    train_count: int = 1000
    validation_count: int = 200
    range_lo: float = 0.5
    range_hi: float = 5.0
    delta: float = 1e-2

    def __post_init__(self):
        if self.experiment not in ("neurons", "layers", "outage-threshold"):
            raise InvalidArgumentError(f"unknown experiment {self.experiment!r}")
        if not self.grid:
            raise InvalidArgumentError("sweep grid is empty")
        for name in ("repeats", "train_count", "validation_count"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class SweepRun:
    experiment: str
    value: float
    repeat: int
    seeds: dict
    history: TrainingHistory
    final_rel_error: float


def _derived_seed(base_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([base_seed, *key]).generate_state(1)[0])


def sweep(
    spec: SweepSpec,
    system: SystemConfig,
    training: TrainingConfig,
    *,
    workers: int = 1,
    progress=None,
) -> list[SweepRun]:
    """Train once per (grid value, repeat); every seed derives from base_seed.

    Each repeat draws a fresh dataset (new channel realizations) and a
    fresh initialization; datasets are regenerated per grid value for the
    outage-threshold experiment because labels depend on psi_th.
    """
    plan = []
    for value in spec.grid:
        if spec.experiment == "neurons":
            config, hidden = system, [int(value)] * spec.hidden_layers
        elif spec.experiment == "layers":
            config, hidden = system, [spec.neurons] * int(value)
        else:
            config = replace(system, psi_th=float(value))
            hidden = [spec.neurons] * spec.hidden_layers
        plan.append((config, _layer_dims(config, hidden)))
    runs = []
    for vi, (value, (config, dims)) in enumerate(zip(spec.grid, plan)):
        for rep in range(spec.repeats):
            seeds = {
                "data": _derived_seed(spec.base_seed, vi, rep, 0),
                "split": _derived_seed(spec.base_seed, vi, rep, 1),
                "init": _derived_seed(spec.base_seed, vi, rep, 2),
                "shuffle": _derived_seed(spec.base_seed, vi, rep, 3),
            }
            dataset = build_dataset(
                config,
                spec.train_count + spec.validation_count,
                spec.range_lo,
                spec.range_hi,
                seeds["data"],
                spec.delta,
                workers=workers,
            )
            train_set, val_set = split(dataset, spec.validation_count, seeds["split"])
            params = init_mlp(dims, seeds["init"])
            run_training = replace(training, shuffle_seed=seeds["shuffle"])
            params, history = train(params, train_set, run_training, validation=val_set)
            runs.append(
                SweepRun(
                    experiment=spec.experiment,
                    value=float(value),
                    repeat=rep,
                    seeds=seeds,
                    history=history,
                    final_rel_error=history.points[-1].rel_error,
                )
            )
            if progress is not None:
                progress(len(runs), len(spec.grid) * spec.repeats)
    return runs


def average_histories(histories: list[TrainingHistory]) -> TrainingHistory:
    """Pointwise mean of runs snapshotted on the same epoch grid."""
    if not histories:
        raise InvalidArgumentError("no histories to average")
    epoch_grids = [h.epochs() for h in histories]
    if any(g != epoch_grids[0] for g in epoch_grids[1:]):
        raise InvalidArgumentError("histories disagree on snapshot epochs")
    points = []
    for i, epoch in enumerate(epoch_grids[0]):
        points.append(
            HistoryPoint(
                epoch=epoch,
                loss=float(np.mean([h.points[i].loss for h in histories])),
                rel_error=float(np.mean([h.points[i].rel_error for h in histories])),
                elapsed_sec=float(np.mean([h.points[i].elapsed_sec for h in histories])),
            )
        )
    return TrainingHistory(points=points)


def write_history_csv(history: TrainingHistory, path: str) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_CSV_HEADER)
        for p in history.points:
            writer.writerow([p.epoch, repr(p.loss), repr(p.rel_error)])


def write_comparison_csv(report: ComparisonReport, path: str) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_CSV_HEADER)
        for r in report.rows:
            writer.writerow(
                [r.sample_id, repr(r.ann_total), repr(r.oracle_total), repr(r.gap)]
            )
