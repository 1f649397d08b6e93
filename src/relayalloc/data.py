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
views that the loader's checks, training and evaluation read instead.
"""

from __future__ import annotations

import collections
import itertools
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from ._files import atomic_open
from .errors import (
    _FLOAT_MAX,
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    SchemaError,
    check_finite,
)
from .gridsearch import (
    STOP_REASONS,
    PowerAllocation,
    SystemConfig,
    _check_first_grid,
    _outage,
    _outage_at_caps,
    _row_totals,
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
        """The one place the records become arrays."""
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
    if levels < 2:
        raise InvalidArgumentError(f"levels must be >= 2, got {levels}")
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
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
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
    """The gen-data orchestration: refuse an over-budget level-0 grid, then draw and label."""
    _check_first_grid(config, **(solver_kwargs or {}))
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
    """Parse and re-validate; raises SchemaError / InvariantViolationError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise SchemaError(
            f"{path}: expected format {DATASET_FORMAT!r}, got {header.get('format')!r}"
        )
    try:
        config = SystemConfig(**_typed(SystemConfig, header["config"]))
        gen = GenerationSpec(**_typed(GenerationSpec, header["generation"]))
        check_finite("range_lo", gen.range_lo, positive=False)
        check_finite("range_hi", gen.range_hi)
    except _MALFORMED as exc:
        raise SchemaError(f"{path}: malformed header: {exc}") from exc

    body = [ln for ln in lines[1:] if ln.strip()]
    if not body:
        raise InvariantViolationError(f"{path}: no records")
    if len(body) != gen.count:
        raise InvariantViolationError(
            f"{path}: header says {gen.count} records, file has {len(body)}"
        )
    records = []
    for lineno, ln in enumerate(body, start=2):
        try:
            records.append(_read_record(ln, config, gen, path, lineno))
        except Exception:
            # a fault on an earlier line wins
            _check_outages(Dataset(config=config, gen=gen, records=tuple(records)), path)
            raise
    dataset = Dataset(config=config, gen=gen, records=tuple(records))
    _check_outages(dataset, path)
    return dataset


_JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}, "None": {type(None)}}
# bad JSON fields raise these; OverflowError: an integer too large for a float64
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _typed(cls, doc: dict) -> dict:
    """``doc``, if each value's JSON type matches the annotation of the
    ``cls`` field it names (``int | None`` takes null, no field takes a
    boolean); TypeError otherwise."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {doc!r}")
    for f in fields(cls):
        kinds = {t for k in f.type.split(" | ") for t in _JSON_TYPES.get(k, ())}
        if f.name in doc and type(doc[f.name]) not in kinds:
            raise TypeError(f"{f.name} must be {f.type}, got {doc[f.name]!r}")
    return doc


def _numbers(values, ndim: int, kind: str = "float") -> np.ndarray:
    """``values``, JSON lists nested ``ndim`` deep, as an array, if every
    entry has the JSON type ``kind`` under the rule of ``_typed``;
    TypeError otherwise (strings and booleans are refused, not coerced)."""
    entries = [values]
    for _ in range(ndim):
        if any(type(x) is not list for x in entries):
            raise TypeError(f"expected lists nested {ndim} deep")
        entries = list(itertools.chain.from_iterable(entries))
    wrong = set(map(type, entries)) - _JSON_TYPES[kind]
    if wrong:
        raise TypeError(f"expected {kind} entries, got {', '.join(t.__name__ for t in wrong)}")
    return np.array(values, dtype=float if kind == "float" else int)


def _read_record(
    ln: str, config: SystemConfig, gen: GenerationSpec, path: str, lineno: int
) -> DatasetRecord:
    """Parse one record and run the checks that precede the outage re-check."""
    try:
        doc = json.loads(ln)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    try:
        sample = _numbers(doc["v"], 2)
        label = PowerAllocation(pt=tuple(_numbers(doc["pt"], 1).tolist()),
                                pr=tuple(_numbers(doc["pr"], 1).tolist()))
        scalars = _typed(DatasetRecord, {
            name: doc[name] for name in ("total_power", "achieved_outage", "evaluations")
        })
        rec = DatasetRecord(
            sample=sample,
            label=label,
            total_power=float(scalars["total_power"]),
            achieved_outage=float(scalars["achieved_outage"]),
            evaluations=scalars["evaluations"],
        )
    except _MALFORMED as exc:
        raise SchemaError(f"{path}:{lineno}: malformed record: {exc}") from exc
    if rec.sample.shape != (4, config.cols):
        raise InvariantViolationError(
            f"{path}:{lineno}: sample shape {rec.sample.shape} != (4, {config.cols})"
        )
    if (rec.sample < gen.range_lo).any() or (rec.sample > gen.range_hi).any():
        raise InvariantViolationError(
            f"{path}:{lineno}: sample entries escape [{gen.range_lo}, {gen.range_hi}]"
        )
    if len(rec.label.pt) != config.cols:
        raise InvariantViolationError(
            f"{path}:{lineno}: label length {len(rec.label.pt)} != {config.cols}"
        )
    if max(rec.label.pt) > config.pt_max or max(rec.label.pr) > config.pr_max:
        raise InvariantViolationError(f"{path}:{lineno}: label exceeds the power caps")
    return rec


def _check_outages(dataset: Dataset, path: str) -> None:
    """Statistics validity, outage re-check, outage cap and label total, in
    record order, with one outage call for all records."""
    config, records = dataset.config, dataset.records
    samples, labels = dataset.samples, dataset.labels
    ok = np.isfinite(samples) & (samples > 0)
    bad_stats = ~ok.all(axis=(1, 2))
    valid = int(np.argmax(bad_stats)) if bad_stats.any() else len(records)
    outages = _outage(samples[:valid], labels[:valid], config)
    label_totals = _row_totals(labels[:valid])
    for lineno, rec, outage, total in zip(
        itertools.count(2), records, outages.tolist(), label_totals.tolist()
    ):
        if not abs(outage - rec.achieved_outage) <= _OUTAGE_RECHECK_TOL:  # NaN fails too
            raise InvariantViolationError(
                f"{path}:{lineno}: stored achieved_outage {rec.achieved_outage} "
                f"disagrees with recomputation {outage}"
            )
        if outage > config.psi_th:
            raise InvariantViolationError(
                f"{path}:{lineno}: label violates the outage cap "
                f"({outage} > {config.psi_th})"
            )
        if not abs(total - rec.total_power) <= 1e-9 * max(1.0, abs(total)):
            raise InvariantViolationError(
                f"{path}:{lineno}: stored total_power {rec.total_power} "
                f"disagrees with the label sum {total}"
            )
    if valid < len(records):
        bad = samples[valid][~ok[valid]][0]
        raise InvariantViolationError(
            f"{path}:{valid + 2}: channel statistics must be finite and > 0, got {bad}"
        )
