"""Dataset generation, labeling, splitting and JSON-lines persistence.

A sample is a (4, ``SystemConfig.cols``) matrix of per-subcarrier
statistics, rows (mu1, mu2, eta1, eta2). Labels are the allocations of
``gridsearch._solve_many``, the search's many-sample entry. Files are JSON
lines: one header object holding the system configuration and the
generation metadata, then one object per record.
Floats are serialized with shortest round-trip precision, so save -> load
is bit-exact; ``load_dataset`` re-validates every documented invariant and
refuses files that fail any of them (a wrongly typed field included;
nothing is coerced), reporting the first failing line. Feasibility filters
and label re-checks take one batched outage call per dataset.

A ``Dataset`` stores its records and builds, once, the read-only column
views that the loader's checks, training and evaluation read instead. The
loader has one reader of record lines, ``_read_columns``: it reads a file
a column at a time and hands the columns it read to the ``Dataset``, and
on a faulty file it reads the lines one at a time, so that the first
faulty line is named.
"""

from __future__ import annotations

import collections
import json
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from ._files import MALFORMED, atomic_open, numbers, read_json, typed
from .errors import (
    _FLOAT_MAX,
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    SchemaError,
    check_finite,
    check_integer,
)
from .gridsearch import (
    STOP_REASONS,
    PowerAllocation,
    SystemConfig,
    _outage,
    _outage_at_caps,
    _row_totals,
    _search_options,
    _solve_many,
)
# Not called here; perfbench/layers.py traces these names.
from .gridsearch import feasibility_check, solve  # noqa: F401
from .outage import SubcarrierStats

DATASET_FORMAT = "relay-dataset-v1"

_OUTAGE_RECHECK_TOL = 1e-12
_MIN_DRAW_CHUNK = 64
_MAX_REJECTED_PER_SAMPLE = 10_000  # rejected draws allowed per requested sample


@dataclass(frozen=True)
class GenerationSpec:
    """How a dataset's samples were produced."""

    sampler: str  # "uniform" or "grid"
    range_lo: float
    range_hi: float
    count: int
    seed: int | None
    delta: float
    rejected: int = 0
    grid_levels: int | None = None
    split_role: str | None = None
    split_seed: int | None = None


@dataclass(frozen=True)
class DatasetRecord:
    sample: np.ndarray  # (4, cols), read-only by convention
    label: PowerAllocation
    total_power: float
    achieved_outage: float
    evaluations: int


@dataclass(frozen=True)
class Dataset:
    config: SystemConfig
    gen: GenerationSpec
    records: tuple[DatasetRecord, ...]
    # How this process labeled the records, never saved: {"seconds": wall
    # time, "stop_reasons": {reason: count}}; None for loaded or split sets.
    labeling: dict | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one place the records become arrays (``load_dataset`` fills
        it with the arrays it read the records from)."""
        n, cols = len(self.records), self.config.cols
        columns = (
            np.array([r.sample for r in self.records], float).reshape(n, 4, cols),
            np.array([r.label.as_vector() for r in self.records], float).reshape(n, 2 * cols),
            np.array([r.total_power for r in self.records], float).reshape(n),
        )
        for arr in columns:
            arr.flags.writeable = False
        return columns

    samples = property(lambda self: self._columns[0], doc="(N, 4, cols) statistics, read-only")
    labels = property(lambda self: self._columns[1],
                      doc="(N, 2*cols) oracle allocations, pt then pr, read-only")
    totals = property(lambda self: self._columns[2], doc="(N,) stored oracle totals, read-only")


def stats_from_sample(v: np.ndarray) -> list[SubcarrierStats]:
    """Column i of the 4xT matrix -> that subcarrier's statistics."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != 4:
        raise InvalidArgumentError(f"expected a 4xT matrix, got shape {arr.shape}")
    return [
        SubcarrierStats(mu1=arr[0, i], mu2=arr[1, i], eta1=arr[2, i], eta2=arr[3, i])
        for i in range(arr.shape[1])
    ]


def _check_range(range_lo: float, range_hi: float) -> None:
    if not 0 < range_lo < range_hi <= _FLOAT_MAX:  # NaN fails too
        raise InvalidArgumentError(
            f"need 0 < range_lo < range_hi, got {range_lo!r}, {range_hi!r}"
        )


def generate_grid_samples(levels: int, range_lo: float, range_hi: float, cols: int) -> np.ndarray:
    """Full lattice with ``levels`` values per entry: (levels^(4 cols), 4, cols)."""
    _check_range(range_lo, range_hi)
    check_integer("levels", levels, 2)
    axis = np.linspace(float(range_lo), float(range_hi), levels)
    # row r's entries are r's base-``levels`` digits, the last running fastest
    digits = np.indices((levels,) * (4 * cols), dtype=np.min_scalar_type(levels))
    return axis[digits.reshape(4 * cols, -1).T].reshape(-1, 4, cols)


def draw_feasible_samples(
    count: int,
    range_lo: float,
    range_hi: float,
    config: SystemConfig,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Uniform draws filtered by feasibility at the caps; redraws until
    ``count`` feasible samples exist. Returns (samples, rejected_count).
    More than ``_MAX_REJECTED_PER_SAMPLE`` rejections per requested sample
    (an acceptance near 1e-4 or below) raise ``InfeasibleProblemError``.

    Draws come in chunks from one generator, which yields the same values
    as one draw at a time; rejections are counted up to the last kept draw.
    Phi falls with mu1, mu2 and rises with eta1, eta2: if the corner
    mu = range_hi, eta = range_lo misses the cap, so does every draw.
    """
    _check_range(range_lo, range_hi)
    check_integer("count", count, 1)
    check_integer("seed", seed, 0)
    ideal = np.repeat([[range_hi], [range_hi], [range_lo], [range_lo]], config.cols, axis=1)
    best = float(_outage_at_caps(ideal, config))
    if not best <= config.psi_th:
        raise InfeasibleProblemError(f"no statistics in [{range_lo}, {range_hi}] meet the cap: "
                                     f"the best has outage {best:.3e} > psi_th={config.psi_th:.3e}")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    need = count
    rejected = 0
    while need > 0:
        if rejected > _MAX_REJECTED_PER_SAMPLE * count:
            drawn = rejected + count - need
            raise InfeasibleProblemError(
                f"only {count - need} of {drawn} draws in [{range_lo}, {range_hi}] meet the cap "
                f"psi_th={config.psi_th:.3e} (acceptance {(count - need) / drawn:.2e}); gave up "
                f"after {rejected} rejections, {_MAX_REJECTED_PER_SAMPLE} per requested sample")
        draws = rng.uniform(range_lo, range_hi, size=(max(2 * need, _MIN_DRAW_CHUNK), *ideal.shape))
        ok = np.flatnonzero(_outage_at_caps(draws, config) <= config.psi_th)[:need]
        if len(ok) == need:
            rejected += int(ok[-1]) + 1 - need
        else:
            rejected += len(draws) - len(ok)
        kept.append(draws[ok])
        need -= len(ok)
    return np.concatenate(kept), rejected


def label_dataset(
    samples: np.ndarray,
    config: SystemConfig,
    delta: float,
    *,
    gen: GenerationSpec | None = None,
    workers: int = 1,
    solver_kwargs: dict | None = None,
    progress=None,
) -> Dataset:
    """Attach grid-search labels to every sample (all must be feasible) by
    ``gridsearch._solve_many``: records are bitwise one-sample ``solve``
    results in input order for any ``workers``, and failures and ``progress``
    calls are as there. ``labeling`` tells the wall time and stop reasons."""
    check_integer("workers", workers, 1)
    samples = np.asarray(samples, dtype=float)
    started = time.perf_counter()
    results = _solve_many(samples, config, delta, workers=workers, progress=progress,
                          **(solver_kwargs or {}))
    records = tuple(DatasetRecord(v, res.allocation, res.total_power, res.achieved_outage,
                                  res.evaluations) for v, res in zip(samples, results))
    if gen is None:
        gen = GenerationSpec("uniform", float(samples.min()), float(samples.max()), 0, None, delta)
    gen = replace(gen, count=len(records), delta=delta)
    stops = collections.Counter(res.stop_reason for res in results)
    labeling = {"seconds": time.perf_counter() - started,
                "stop_reasons": {reason: stops[reason] for reason in STOP_REASONS}}
    return Dataset(config=config, gen=gen, records=records, labeling=labeling)


def build_dataset(
    config: SystemConfig,
    count: int,
    range_lo: float,
    range_hi: float,
    seed: int,
    delta: float,
    *,
    sampler: str = "uniform",
    grid_levels: int | None = None,
    workers: int = 1,
    solver_kwargs: dict | None = None,
    progress=None,
) -> Dataset:
    """The gen-data orchestration: refuse a worker count below 1 and any
    search option ``solve`` would refuse, then draw and label."""
    check_integer("workers", workers, 1)
    _search_options(config, delta, solver_kwargs or {})
    if sampler == "uniform":
        samples, rejected = draw_feasible_samples(count, range_lo, range_hi, config, seed)
        grid_levels = None
    elif sampler == "grid":
        if grid_levels is None:
            raise InvalidArgumentError("grid sampler needs grid_levels")
        lattice = generate_grid_samples(grid_levels, range_lo, range_hi, config.cols)
        samples = lattice[_outage_at_caps(lattice, config) <= config.psi_th]
        if len(samples) == 0:
            raise InfeasibleProblemError("no lattice point is feasible at the power caps")
        rejected = len(lattice) - len(samples)
        seed = None
    else:
        raise InvalidArgumentError(f"unknown sampler {sampler!r}")
    gen = GenerationSpec(sampler, range_lo, range_hi, len(samples), seed, delta, rejected,
                         grid_levels)
    return label_dataset(samples, config, delta, gen=gen, workers=workers,
                         solver_kwargs=solver_kwargs, progress=progress)


def split(dataset: Dataset, validation_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle into disjoint (train, validation); union is the input."""
    check_integer("seed", seed, 0)
    n = len(dataset)
    if not (0 < validation_count < n):
        raise InvalidArgumentError(
            f"validation_count must be in (0, {n}), got {validation_count}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val_idx = sorted(perm[:validation_count].tolist())
    train_idx = sorted(perm[validation_count:].tolist())
    return tuple(
        Dataset(
            config=dataset.config,
            gen=replace(dataset.gen, count=len(idx), split_role=role, split_seed=seed),
            records=tuple(dataset.records[i] for i in idx),
        )
        for role, idx in (("train", train_idx), ("validation", val_idx))
    )


def _gen_doc(gen: GenerationSpec) -> dict:
    """The header's generation block: unset grid and split fields are left out."""
    doc = asdict(gen)
    if gen.grid_levels is None:
        del doc["grid_levels"]
    if gen.split_role is None:
        del doc["split_role"], doc["split_seed"]
    return doc


def save_dataset(dataset: Dataset, path: str) -> None:
    """Header line then one JSON object per record; atomic replace."""
    with atomic_open(path) as fh:
        header = {
            "format": DATASET_FORMAT,
            "config": asdict(dataset.config),
            "generation": _gen_doc(dataset.gen),
        }
        fh.write(json.dumps(header) + "\n")
        cols = dataset.config.cols
        for rec, v, label in zip(dataset.records, dataset.samples.tolist(),
                                 dataset.labels.tolist()):
            doc = {
                "v": v,
                "pt": label[:cols],
                "pr": label[cols:],
                "total_power": rec.total_power,
                "achieved_outage": rec.achieved_outage,
                "evaluations": rec.evaluations,
            }
            fh.write(json.dumps(doc) + "\n")


def load_dataset(path: str) -> Dataset:
    """Parse and re-validate; raises SchemaError / InvariantViolationError.

    The records are read a column at a time (``_read_columns``). When that
    read fails, the same reader reads the lines one at a time up to the
    first that fails alone (not JSON, a wrong type or shape): its fault is
    the structural one, and the lines before it are read as one.
    ``_check_records`` checks the records read; a fault it finds, on an
    earlier line, is raised in place of the structural one. Faults name
    their line in the file, blank lines counted."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    config, gen = read_json(lines[0], path, "header", _read_header, DATASET_FORMAT)
    linenos = [i for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if not linenos:
        raise InvariantViolationError(f"{path}: no records")
    if len(linenos) != gen.count:
        raise InvariantViolationError(f"{path}: header says {gen.count} records, "
                                      f"file has {len(linenos)}")
    body = [lines[i - 1] for i in linenos]
    try:
        dataset, fault = _read_columns(list(map(json.loads, body)), config, gen, path), None
    except (*MALFORMED, InvariantViolationError):
        for good, (lineno, ln) in enumerate(zip(linenos, body)):
            where = f"{path}:{lineno}"
            try:
                read_json(ln, where, "record", lambda doc: _read_columns([doc], config, gen, where))
            except (SchemaError, InvariantViolationError) as exc:
                fault = exc
                break
        if not good:
            raise fault
        dataset = _read_columns(list(map(json.loads, body[:good])), config, gen, path)
    _check_records(dataset, path, linenos)
    if fault is not None:
        raise fault
    return dataset


def _read_header(doc: dict) -> tuple[SystemConfig, GenerationSpec]:
    config = SystemConfig(**typed(SystemConfig, doc["config"]))
    gen = GenerationSpec(**typed(GenerationSpec, doc["generation"]))
    check_finite("range_lo", gen.range_lo, positive=False)
    check_finite("range_hi", gen.range_hi)
    return config, gen


def _read_columns(docs: list, config: SystemConfig, gen: GenerationSpec, where: str) -> Dataset:
    """The records of the JSON values ``docs``, with one array per field as
    the column views. Types are checked a column at a time by the rule of
    ``_files``, then the labels' powers, then the shapes: a value that is
    not an object (it cannot be indexed by a field name), a wrong type or a
    wrong power raises one of ``MALFORMED``, a sample of the wrong shape or
    a label of the wrong length raises InvariantViolationError, its message
    starting ``where: ``."""
    cols = config.cols
    samples = numbers([doc["v"] for doc in docs], 3)
    pt, pr = (numbers([doc[key] for doc in docs], 2) for key in ("pt", "pr"))
    allocations = [PowerAllocation(pt=tuple(row_pt), pr=tuple(row_pr))
                   for row_pt, row_pr in zip(pt.tolist(), pr.tolist())]
    totals = numbers([doc["total_power"] for doc in docs], 1)
    outages = numbers([doc["achieved_outage"] for doc in docs], 1).tolist()
    evaluations = numbers([doc["evaluations"] for doc in docs], 1, "int").tolist()
    if samples.shape[1:] != (4, cols):
        raise InvariantViolationError(f"{where}: sample shape {samples.shape[1:]} != (4, {cols})")
    if pt.shape[1] != cols:
        raise InvariantViolationError(f"{where}: label length {pt.shape[1]} != {cols}")
    labels = np.concatenate((pt, pr), axis=1)
    for column in (samples, labels, totals):
        column.flags.writeable = False  # before the records take views of them
    records = tuple(map(DatasetRecord, samples, allocations, totals.tolist(), outages,
                        evaluations))
    dataset = Dataset(config=config, gen=gen, records=records)
    dataset.__dict__["_columns"] = (samples, labels, totals)  # fills the cached property
    return dataset


def _check_records(dataset: Dataset, path: str, linenos: list[int]) -> None:
    """Every record invariant past types and shapes, in record order, in one
    pass over the column views with one outage call: samples inside the
    header's range, labels within the caps, statistics finite and > 0, at
    least one evaluation, then the outage re-check, the outage cap and the
    label total. Record i is on line ``linenos[i]`` of the file."""
    config, gen, records = dataset.config, dataset.gen, dataset.records
    samples, labels = dataset.samples, dataset.labels
    escapes = ((samples < gen.range_lo) | (samples > gen.range_hi)).any(axis=(1, 2))
    over_caps = (labels > np.repeat([config.pt_max, config.pr_max], config.cols)).any(axis=1)
    ok = np.isfinite(samples) & (samples > 0)
    unsearched = np.array([rec.evaluations for rec in records]) < 1
    faults = escapes | over_caps | ~ok.all(axis=(1, 2)) | unsearched
    first = int(np.argmax(faults)) if faults.any() else len(records)
    outages = _outage(samples[:first], labels[:first], config).tolist()
    for lineno, rec, outage, total in zip(
        linenos, records, outages, _row_totals(labels[:first]).tolist()
    ):
        if not abs(outage - rec.achieved_outage) <= _OUTAGE_RECHECK_TOL:  # NaN fails too
            fault = (f"stored achieved_outage {rec.achieved_outage} "
                     f"disagrees with recomputation {outage}")
        elif outage > config.psi_th:
            fault = f"label violates the outage cap ({outage} > {config.psi_th})"
        elif not abs(total - rec.total_power) <= 1e-9 * max(1.0, abs(total)):
            fault = f"stored total_power {rec.total_power} disagrees with the label sum {total}"
        else:
            continue
        raise InvariantViolationError(f"{path}:{lineno}: {fault}")
    if first < len(records):
        if escapes[first]:
            fault = f"sample entries escape [{gen.range_lo}, {gen.range_hi}]"
        elif over_caps[first]:
            fault = "label exceeds the power caps"
        elif not ok[first].all():
            fault = f"channel statistics must be finite and > 0, got {samples[first][~ok[first]][0]}"
        else:
            fault = f"evaluations must be >= 1, got {records[first].evaluations}"
        raise InvariantViolationError(f"{path}:{linenos[first]}: {fault}")
