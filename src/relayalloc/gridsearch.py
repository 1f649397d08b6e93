"""Minimum-total-power search under an outage-probability cap.

The problem: choose per-subcarrier transmit/relay powers, each in
[0, cap], minimizing the summed power subject to the block outage staying
at or below psi_th. The outage constraint is monotone (more power never
hurts), but the objective trades power between subcarriers through a flat
valley, so this is solved by exhaustive search on grids rather than by a
local method.

Two searchers share one grid vocabulary and one tie-breaking rule:

* ``solve``: coarse-to-fine multilevel search. Level 0 scans a log-spaced
  grid (plus exact 0) per axis; each further level re-grids a linearly
  spaced bracket around the incumbent, shrinking the bracket by a fixed
  factor, until every axis reaches a spacing of at most
  ``delta * max(coordinate, delta * cap)``. The floor keeps axes whose
  optimum is at or near zero from demanding ever finer levels. The returned
  total is grid-optimal at every visited level and non-increasing across
  levels (the incumbent is a grid point of every level).

* ``brute_force_reference``: single flat scan of the level-0 grid,
  written as plain nested loops, one outage evaluation per candidate. With
  ``max_levels=0`` and the same grid size, ``solve`` must match it
  bitwise; tests pin that.

Lock-step levels: the multilevel search runs over a stack of instances at
once (``_solve_batch``). Each level is one scan of every instance still
refining; each instance stops on its own, when its axes reach the
resolution, at the caller's ``max_levels`` or at the hard cap of 64
levels, and ``OracleResult.stop_reason`` says which. ``solve`` is the
one-instance call; ``_solve_many``, the many-sample entry, owns chunking,
the worker pool and the failure order, and ``_check_first_grid`` refuses
an over-budget level-0 grid up front. An instance's result is bitwise the
same alone or in any chunk.

Tie-breaking: among feasible grid points of equal total power, the
lexicographically smallest vector (pt_1..pt_T, pr_1..pr_T) wins. Both
searchers compute candidate totals with the same association,
``(pt_1 + pr_1) + (pt_2 + pr_2) + ...``, and the same feasibility
predicate bits, so the rule is exact, not approximate.

Each level is exact. A subcarrier's (pt, pr) pair is dropped when another
pair on it has a q = 1 - Phi at least as large and a cost pt + pr lower by
more than a rounding margin (``_tie_margin``: about T ulps of the largest
total). The block outage never rises with any q, also under IEEE rounding
(``outage._combine``), and the margin keeps rounded totals apart, so no
optimum or tie-break winner is dropped. Subcarriers 1..T-1 are merged one
at a time into a frontier of partial allocations (partial total, partial
q product), both folded left to right like the full ones, so each is
bitwise their prefix and is dropped by the same rule (with several
activation patterns the merge keeps every partial). The last subcarrier is
searched, not multiplied out: the running maximum of q along its
cost-sorted frontier makes feasibility monotone, so one ``_combine`` call
finds the block holding each partial's first feasible pair and a second
evaluates that block, widened to every pair that could tie with it. The
closed form (``outage._phi``) runs once per level for every pair; every
other outage evaluation is one ``_outage`` call, which hands statistic
matrices and allocation vectors to ``outage._block_outage``.

Evaluation accounting: one "evaluation" is one candidate power vector of
the nominal grid, the product of each axis's distinct values, whether or
not pruning spared the scan from forming it. ``solve`` never exceeds
``grid0^(2T) + levels * refine_points^(2T)`` evaluations and raises
``BudgetExceededError`` before starting a level that would cross
``max_evaluations``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    NumericConsistencyError,
    check_finite,
)
from .outage import SubcarrierStats, _block_outage, _combine, _phi
# Not called here; perfbench/layers.py traces outage calls through these names.
from .outage import all_active_outage, average_outage, outage_grid  # noqa: F401
from .saps import _check_m, enumerate_saps

OUTAGE_MODES = ("single-sap", "sap-averaged")

_GRID_FLOOR_RATIO = 1e-3
_HARD_LEVEL_CAP = 64
# (pt, pr) pairs of all instances in one lock-step chunk, 42 instances at the
# defaults: larger chunks labeled no faster and held more memory at once.
_PAIR_BUDGET = 3 << 12

# Why a search stopped: every axis reached the requested resolution, the
# caller's max_levels, or the hard level cap.
STOP_REASONS = ("resolution", "max_levels", "level_cap")


@dataclass(frozen=True)
class SystemConfig:
    """Static system description shared by the solver, datasets and CLI."""

    n: int = 4
    t: int = 2
    m: int = 4
    s: float = 1.0
    psi_th: float = 1e-2
    pt_max: float = 5000.0
    pr_max: float = 5000.0
    outage_mode: str = "single-sap"

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.t, int) and 1 <= self.t <= self.n):
            raise InvalidArgumentError(f"need 1 <= t <= n, got n={self.n}, t={self.t}")
        _check_m(self.m)
        for name in ("s", "pt_max", "pr_max"):
            check_finite(name, getattr(self, name))
        if not (0 < self.psi_th <= 1):
            raise InvalidArgumentError(f"psi_th must be in (0, 1], got {self.psi_th!r}")
        if self.outage_mode not in OUTAGE_MODES:
            raise InvalidArgumentError(
                f"outage_mode must be one of {OUTAGE_MODES}, got {self.outage_mode!r}"
            )

    @property
    def cols(self) -> int:
        """Statistics columns per sample: the active subcarriers, or all of them."""
        return self.t if self.outage_mode == "single-sap" else self.n


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subcarrier power vectors, same length and order as the stats."""

    pt: tuple[float, ...]
    pr: tuple[float, ...]

    def __post_init__(self):
        if len(self.pt) != len(self.pr):
            raise InvalidArgumentError("pt and pr must have equal length")
        for v in (*self.pt, *self.pr):
            check_finite("powers", v, positive=False)

    @property
    def total_power(self) -> float:
        return float(_row_totals(self.as_vector()))

    def as_vector(self) -> tuple[float, ...]:
        return (*self.pt, *self.pr)


def _row_totals(vec) -> np.ndarray:
    """Total power of (..., 2T) vectors (pt_1..pt_T, pr_1..pr_T), summed as
    ``(pt_1 + pr_1) + (pt_2 + pr_2) + ...`` from left to right."""
    vec = np.asarray(vec, dtype=float)
    t = vec.shape[-1] // 2
    total = np.zeros(vec.shape[:-1])
    for j in range(t):
        total = total + (vec[..., j] + vec[..., t + j])
    return total


class FeasibilityResult(NamedTuple):
    feasible: bool
    outage: float


@dataclass(frozen=True)
class OracleResult:
    allocation: PowerAllocation
    total_power: float
    achieved_outage: float
    feasible: bool
    accuracy: float | None  # delta once the resolution is reached, else None
    evaluations: int
    levels: int
    stop_reason: str  # one of STOP_REASONS


def power_axis_grid(cap: float, points: int) -> np.ndarray:
    """Exact 0 plus ``points - 1`` log-spaced values, 1e-3 of the cap up to it."""
    if points < 2:
        raise InvalidArgumentError(f"need at least 2 grid points per axis, got {points}")
    return np.concatenate([[0.0], np.geomspace(cap * _GRID_FLOOR_RATIO, float(cap), points - 1)])


def evaluation_budget(t: int, grid0: int, refine_points: int, levels: int) -> int:
    """Worst-case candidate count for a run of ``solve``."""
    return grid0 ** (2 * t) + levels * refine_points ** (2 * t)


def _check_cols(count: int, config: SystemConfig) -> None:
    if count != config.cols:
        raise InvalidArgumentError(
            f"{config.outage_mode} mode needs stats for {config.cols} subcarriers, got {count}"
        )


def _budget_error(level: int, cells: int, max_evaluations: int, used: int) -> BudgetExceededError:
    return BudgetExceededError(f"level {level} needs {cells} evaluations, exceeding the cap "
                               f"of {max_evaluations} (used {used}); raise max_evaluations "
                               f"or coarsen the grids")


def _stats_matrix(stats, config: SystemConfig) -> np.ndarray:
    """The (4, cols) matrix of a SubcarrierStats sequence, rows (mu1, mu2, eta1, eta2)."""
    stats = tuple(stats)
    _check_cols(len(stats), config)
    return np.array([[st.mu1, st.mu2, st.eta1, st.eta2] for st in stats], dtype=float).T


def _patterns(config: SystemConfig):
    """0-based active subcarriers of each pattern the outage averages over."""
    if config.outage_mode == "single-sap":
        return (range(config.t),)
    return [[i - 1 for i in sap.indices] for sap in enumerate_saps(config.n, config.t).saps]


def _outage(samples, vec, config: SystemConfig) -> np.ndarray:
    """Block outage of (..., 4, cols) statistic matrices under (..., 2 cols)
    allocations, pt then pr, in the configured outage mode."""
    return _block_outage(samples, vec, config.s, _patterns(config))


def _outage_at_caps(samples, config: SystemConfig) -> np.ndarray:
    """Block outage of (..., 4, cols) statistic matrices at the power caps."""
    return _outage(samples, np.repeat([config.pt_max, config.pr_max], config.cols), config)


def feasibility_check(stats, config: SystemConfig) -> FeasibilityResult:
    """Can the outage target be met at the power caps?"""
    outage = float(_outage_at_caps(_stats_matrix(stats, config), config))
    return FeasibilityResult(feasible=outage <= config.psi_th, outage=outage)


def _tie_margin(config: SystemConfig, t_dims: int) -> float:
    """A pair cost gap that survives rounding: if c_a < c_b - margin, every
    cell with pair a totals strictly less than the same cell with pair b.

    Totals fold t_dims pair costs left to right, and every partial total
    stays below M = 2 t (pt_max + pr_max); each addition rounds by at most
    spacing(M) / 2, so swapping one pair moves the total by more than
    (c_b - c_a) - t spacing(M). Twice that bound also covers the rounding
    of the measured gap itself.
    """
    return 2 * t_dims * float(np.spacing(2.0 * t_dims * (config.pt_max + config.pr_max)))


def _frontier(cost: np.ndarray, q: np.ndarray, margin: float):
    """The pairs of each row of (R, P) costs and q values that no other pair
    of the row dominates: none with a q at least as large costs less by
    more than ``margin``. Rows are padded with infinite cost.

    Returns (pick, real): ``pick`` (R, W) indexes each row's kept pairs in
    ascending cost, padded to the widest row, and ``real`` marks the
    entries that are not padding.
    """
    rows = np.arange(len(cost))[:, None]
    order = np.argsort(cost, axis=1)
    cost, q = cost[rows, order], q[rows, order]
    # a run of costs each within the margin of the one before starts at a
    # gap; a pair stays unless a pair before its run has a q as large
    with np.errstate(invalid="ignore"):  # inf - inf between padded pairs
        gap = cost[:, 1:] - cost[:, :-1] > margin
    before = np.where(gap, np.maximum.accumulate(q[:, :-1], axis=1), -np.inf)
    keep = np.isfinite(cost)
    keep[:, 1:] &= np.maximum.accumulate(before, axis=1) < q[:, 1:]
    counts = keep.sum(axis=1, keepdims=True)
    width = int(counts.max())
    pick = order[rows, np.argsort(~keep, axis=1, kind="stable")[:, :width]]
    return pick, np.arange(width) < counts


def _scan(samples, config, axes, fresh, margin):
    """One grid level for n instances: each one's cheapest feasible cell.

    ``samples`` is (n, 4, t); ``axes`` (n, 2t, A) holds each instance's
    sorted pt axes then pr axes, and ``fresh`` marks each value's first
    occurrence. Subcarrier j's pairs are (pt_axis[k // A], pr_axis[k % A]).
    Returns (totals, vectors): the least total and, among cells that tie on
    it, the lexicographically smallest (pt_1..pt_t, pr_1..pr_t); total inf
    where no cell is feasible.
    """
    n, _, t_dims = samples.shape
    width = axes.shape[2]
    # row b * t + j holds instance b's subcarrier j
    pt = np.repeat(axes[:, :t_dims], width, axis=2).reshape(n * t_dims, -1)
    pr = np.tile(axes[:, t_dims:], (1, 1, width)).reshape(n * t_dims, -1)
    real = np.repeat(fresh[:, :t_dims], width, axis=2) & np.tile(fresh[:, t_dims:], (1, 1, width))
    stats = samples.transpose(1, 0, 2).reshape(4, -1, 1)
    q = 1.0 - _phi(*stats, pt, pr, config.s)
    pick, real = _frontier(np.where(real.reshape(pt.shape), pt + pr, np.inf), q, margin)
    rows = np.arange(len(pick))[:, None]
    pt, pr, q = (x[rows, pick].reshape(n, t_dims, -1) for x in (pt, pr, q))
    real = real.reshape(pt.shape)
    cost, q = np.where(real, pt + pr, np.inf), np.where(real, q, 0.0)
    wide, patterns, rows = cost.shape[2], _patterns(config), np.arange(n)[:, None]

    # partial allocations of the subcarriers before the last, and each
    # one's pair (frontier position) per subcarrier
    if t_dims > 1:  # subcarrier 0's own frontier
        total, prod, held = cost[:, 0], q[:, 0], np.repeat(np.arange(wide)[None, :, None], n, 0)
    else:
        total, prod, held = np.zeros((n, 1)), np.ones((n, 1)), np.zeros((n, 1, 0), dtype=int)
    for j in range(1, t_dims - 1):
        sums = (total[:, :, None] + cost[:, j, None, :]).reshape(n, -1)
        prods = (prod[:, :, None] * q[:, j, None, :]).reshape(n, -1)
        keep, kept = _frontier(sums, prods, margin if len(patterns) == 1 else np.inf)
        total, prod = np.where(kept, sums[rows, keep], np.inf), prods[rows, keep]
        held = np.concatenate([held[rows, keep // wide], (keep % wide)[..., None]], axis=2)

    # the last subcarrier: the block holding each partial's first pair whose
    # running max of q is feasible, then that block and the longest run of
    # costs within the margin of each other after it
    last, rows = t_dims - 1, rows[:, :, None]
    qs = [q[rows, j, held[..., j, None]] for j in range(last)]
    size = math.isqrt(wide - 1) + 1
    ends = np.minimum(np.arange(size - 1, wide + size - 1, size), wide - 1)
    reach = np.maximum.accumulate(q[:, last], axis=1)[:, None, ends]
    block = (_combine(qs + [reach], patterns) > config.psi_th).sum(axis=2, keepdims=True)
    close = (cost[:, last, 1:] <= cost[:, last, :-1] + margin) & real[:, last, 1:]
    steps = np.arange(1, wide)
    run = steps - np.maximum.accumulate(np.where(close, 0, steps), axis=1)
    span = min(size + int(run.max(initial=0)), wide)
    near = np.minimum(block * size, wide - span) + np.arange(span)
    fits = _combine(qs + [q[rows, last, near]], patterns) <= config.psi_th
    sums = np.where(fits, total[..., None] + cost[rows, last, near], np.inf)
    least = sums.min(axis=(1, 2))
    g, part, k = np.nonzero((sums == least[:, None, None]) & np.isfinite(sums))
    picks = np.concatenate([held[g, part], near[g, part, k, None]], axis=1)
    at = (g[:, None], np.arange(t_dims), picks)
    ties = np.concatenate([pt[at], pr[at]], axis=1)
    order = np.lexsort((*ties.T[::-1], g))
    first = order[np.concatenate(([True], g[order[1:]] != g[order[:-1]]))]
    totals, vectors = np.full(n, np.inf), np.zeros((n, 2 * t_dims))
    totals[g[first]] = least[g[first]]
    vectors[g[first]] = ties[first]
    return totals, vectors


def _gate_failures(samples: np.ndarray, config: SystemConfig) -> dict:
    """Instance -> InfeasibleProblemError, for those the caps cannot serve."""
    outage = _outage_at_caps(samples, config)
    return {
        int(i): InfeasibleProblemError(
            f"outage at the power caps is {float(outage[i]):.3e} > psi_th={config.psi_th:.3e}"
        )
        for i in np.flatnonzero(~(outage <= config.psi_th))
    }


def _results(samples, config, totals, vectors, accuracy, evaluations, levels, stops):
    """OracleResults of (n, 2t) best vectors, outages re-checked in one call."""
    achieved = _outage(samples, vectors, config).tolist()
    return [
        OracleResult(
            allocation=PowerAllocation(pt=tuple(vec[:config.cols]), pr=tuple(vec[config.cols:])),
            total_power=total,
            achieved_outage=outage,
            feasible=outage <= config.psi_th,
            accuracy=accuracy if stop == "resolution" else None,
            evaluations=ev,
            levels=lv,
            stop_reason=stop,
        )
        for vec, total, outage, ev, lv, stop in zip(
            vectors.tolist(), totals, achieved, evaluations, levels, stops
        )
    ]


def solve(
    stats,
    config: SystemConfig,
    delta: float = 1e-2,
    *,
    grid0: int = 12,
    refine_points: int = 9,
    shrink: float = 0.6,
    max_levels: int | None = None,
    max_evaluations: int = 2_000_000,
) -> OracleResult:
    """Coarse-to-fine search for the cheapest feasible allocation.

    ``delta`` is the relative per-axis resolution: refinement stops once
    every axis bracket has spacing at most delta * max(coordinate,
    delta * cap). ``max_levels=0`` restricts the search to the level-0
    grid, which makes the result comparable bitwise with
    ``brute_force_reference`` at the same grid size. This is the
    one-instance call of the lock-step search, ``_solve_batch``.
    """
    return _solve_batch(
        _stats_matrix(stats, config)[None], config, delta, grid0=grid0,
        refine_points=refine_points, shrink=shrink, max_levels=max_levels,
        max_evaluations=max_evaluations,
    )[0]


def _search_options(options: dict) -> dict:
    """``solve``'s keyword options, its defaults filled in; a key that
    ``solve`` does not take is refused."""
    unknown = sorted(set(options) - set(solve.__kwdefaults__))
    if unknown:
        raise InvalidArgumentError(f"unknown search option(s): {', '.join(unknown)}; "
                                   f"solve takes {', '.join(solve.__kwdefaults__)}")
    return {**solve.__kwdefaults__, **options}


def _batch_size(cols: int, grid0: int, refine_points: int) -> int:
    """Instances per lock-step chunk: one level's pairs fit ``_PAIR_BUDGET``."""
    return max(1, _PAIR_BUDGET // (cols * max(grid0, refine_points) ** 2))


def _check_first_grid(config: SystemConfig, **options) -> None:
    """Raise the search's own error, before any sample exists, when the
    level-0 grid of ``solve``'s options alone crosses ``max_evaluations``."""
    options = _search_options(options)
    cells = evaluation_budget(config.cols, options["grid0"], options["refine_points"], 0)
    if cells > options["max_evaluations"]:
        raise _budget_error(0, cells, options["max_evaluations"], 0)


def _solve_many(samples: np.ndarray, config: SystemConfig, delta: float, *, workers: int = 1,
                progress=None, **options) -> list[OracleResult]:
    """``solve`` for each (4, cols) matrix of a (N, 4, cols) float array, in
    order: ``_solve_batch`` on chunks of ``_batch_size``, in a pool of
    ``workers`` processes when more than one. A failure raises the first
    failing sample's error, an invalid statistic's included (only the rows
    before it are searched); ``progress(done, total)`` runs once per chunk."""
    if samples.ndim != 3 or samples.shape[1] != 4:
        raise InvalidArgumentError(f"expected samples shaped (count, 4, cols), got {samples.shape}")
    _check_cols(samples.shape[2], config)
    options = _search_options(options)
    invalid = np.flatnonzero(~(np.isfinite(samples) & (samples > 0)).all(axis=(1, 2)))
    valid = int(invalid[0]) if len(invalid) else len(samples)
    size = _batch_size(samples.shape[2], options["grid0"], options["refine_points"])
    chunks = [samples[i : min(i + size, valid)] for i in range(0, valid, size)]
    solve_chunk = functools.partial(_solve_batch, config=config, delta=delta, **options)
    results: list[OracleResult] = []
    if workers > 1:  # imported here: only a pool needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool:
        for chunk in (pool.map if workers > 1 else map)(solve_chunk, chunks):
            results += chunk
            if progress is not None:
                progress(len(results), len(samples))
    if valid < len(samples):
        for column in samples[valid].T:
            SubcarrierStats(*column)  # raises the error of the invalid statistic
    return results


def _solve_batch(
    samples: np.ndarray,
    config: SystemConfig,
    delta: float,
    *,
    grid0: int,
    refine_points: int,
    shrink: float,
    max_levels: int | None,
    max_evaluations: int,
) -> list[OracleResult]:
    """``solve`` for each (4, cols) matrix of a (B, 4, cols) stack of valid
    statistics, all instances in lock-step: each level is one ``_scan`` of
    every instance still refining.

    Each result is bitwise the one-instance result. If instances fail,
    this raises what the first failing one (in input order) raises alone;
    instances after it stop early, since they cannot change that.
    """
    count, _, t_dims = samples.shape
    if count == 0:
        return []
    if not (0 < delta < 1):
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta!r}")
    if refine_points < 3 or refine_points % 2 == 0:
        raise InvalidArgumentError(
            f"refine_points must be odd and >= 3 so brackets keep their center, "
            f"got {refine_points}"
        )
    if not (0 < shrink < 1):
        raise InvalidArgumentError(f"shrink must be in (0, 1), got {shrink!r}")
    caps = [config.pt_max] * t_dims + [config.pr_max] * t_dims
    cap_arr = np.array(caps, dtype=float)
    offsets = np.linspace(-1.0, 1.0, refine_points)
    spans = np.stack([offsets * cap for cap in caps])  # bracket offsets before shrinking
    margin = _tie_margin(config, t_dims)

    failures = _gate_failures(samples, config)
    if 0 in failures:  # before the grid is built, as for one instance
        raise failures[0]
    # instances after the first failure cannot change what is raised
    active = np.arange(count) < min(failures, default=count)
    axes = np.broadcast_to(
        np.stack([power_axis_grid(cap, grid0) for cap in caps]), (count, 2 * t_dims, grid0)
    )
    fresh = np.ones(axes.shape, dtype=bool)
    best_total = np.full(count, np.inf)
    best_vec = np.zeros((count, 2 * t_dims))
    evaluations, levels, stops = [0] * count, [0] * count, [""] * count
    level = 0
    while active.any():
        idx = np.flatnonzero(active)
        points = fresh[idx].sum(axis=2)
        for i, sizes in zip(idx.tolist(), (points[:, :t_dims] * points[:, t_dims:]).tolist()):
            cells = math.prod(sizes)
            if evaluations[i] + cells > max_evaluations:
                failures[i] = _budget_error(level, cells, max_evaluations, evaluations[i])
            else:
                evaluations[i] += cells
        if failures:
            active[min(failures):] = False
            idx = np.flatnonzero(active)
            if len(idx) == 0:
                break

        total, vec = _scan(samples[idx], config, axes[idx], fresh[idx], margin)
        better = total < best_total[idx]
        for r in np.flatnonzero(total == best_total[idx]).tolist():
            better[r] = tuple(vec[r]) < tuple(best_vec[idx[r]])
        best_total[idx[better]] = total[better]
        best_vec[idx[better]] = vec[better]
        if not np.isfinite(best_total[idx]).all():  # pragma: no cover - caps cell is on level 0
            raise NumericConsistencyError(
                "no feasible grid cell although the power caps passed the gate"
            )

        stop = np.full(len(idx), "", dtype=object)
        if max_levels is not None and level >= max_levels:
            stop[:] = "max_levels"
        else:
            if level > 0:
                spacings = [2.0 * cap * shrink**level / (refine_points - 1) for cap in caps]
                targets = delta * np.maximum(best_vec[idx], delta * cap_arr)
                stop[(np.array(spacings) <= targets).all(axis=1)] = "resolution"
            if level >= _HARD_LEVEL_CAP:
                stop[stop == ""] = "level_cap"
        for i, reason in zip(idx.tolist(), stop.tolist()):
            if reason:
                stops[i], levels[i] = reason, level
        active[idx[stop != ""]] = False

        level += 1
        going = idx[stop == ""]
        axes = np.zeros((count, 2 * t_dims, refine_points))
        axes[going] = np.clip(
            best_vec[going][:, :, None] + spans * shrink**level, 0.0, cap_arr[:, None]
        )
        fresh = np.ones(axes.shape, dtype=bool)
        fresh[..., 1:] = axes[..., 1:] != axes[..., :-1]
    if failures:
        raise failures[min(failures)]
    return _results(samples, config, best_total.tolist(), best_vec, delta, evaluations,
                    levels, stops)


def brute_force_reference(stats, config: SystemConfig, grid_points_per_axis: int) -> OracleResult:
    """Flat single-level scan of the level-0 grid, written independently of ``solve``.

    Plain nested loops, one outage evaluation per candidate; intended as the
    ground truth for ``solve(..., max_levels=0)`` at the same grid size.
    """
    stats = _stats_matrix(stats, config)
    if grid_points_per_axis > 12:
        raise BudgetExceededError(
            f"{grid_points_per_axis} points per axis exceeds the flat-scan cap of 12"
        )
    failures = _gate_failures(stats[None], config)
    if failures:
        raise failures[0]
    pt_axis = power_axis_grid(config.pt_max, grid_points_per_axis)
    pr_axis = power_axis_grid(config.pr_max, grid_points_per_axis)
    pairs = [(float(a), float(b)) for a in pt_axis for b in pr_axis]
    best = None
    evaluations = 0
    for combo in itertools.product(pairs, repeat=config.cols):
        evaluations += 1
        vec = (*(a for a, _ in combo), *(b for _, b in combo))
        outage = _outage(stats, vec, config)
        if outage <= config.psi_th:
            total = 0.0
            for a, b in combo:
                total += a + b
            if best is None or (total, vec) < best:
                best = (total, vec)
    if best is None:  # pragma: no cover - caps passed the gate and are on-grid
        raise InfeasibleProblemError("no feasible grid point found")
    return _results(stats[None], config, [best[0]], np.array([best[1]]), None, [evaluations],
                    [0], ["max_levels"])[0]
