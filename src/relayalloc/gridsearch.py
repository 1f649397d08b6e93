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

Tie-breaking: among feasible grid points of equal total power, the
lexicographically smallest vector (pt_1..pt_T, pr_1..pr_T) wins. Both
searchers compute candidate totals with the same association,
``(pt_1 + pr_1) + (pt_2 + pr_2) + ...``, and the same feasibility
predicate bits, so the rule is exact, not approximate.

Every outage here (grid scan, feasibility gate, result re-check, batches
of samples) is one call of the single batched kernel
``outage._block_outage``; ``_scan`` puts each subcarrier's (pt, pr) pair
grid on its own broadcast axis, so the closed form runs once per pair,
not once per cell of the product grid.

Evaluation accounting: one "evaluation" is one candidate power vector
checked against the constraint. ``solve`` never exceeds
``grid0^(2T) + levels * refine_points^(2T)`` evaluations and raises
``BudgetExceededError`` before starting a level that would cross
``max_evaluations``.
"""

from __future__ import annotations

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
)
from .outage import _block_outage
# Not called here; perfbench/layers.py traces outage calls through these names.
from .outage import all_active_outage, average_outage, outage_grid  # noqa: F401
from .saps import enumerate_saps

OUTAGE_MODES = ("single-sap", "sap-averaged")

_GRID_FLOOR_RATIO = 1e-3
_HARD_LEVEL_CAP = 64


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
        if not (np.isfinite(self.s) and self.s > 0):
            raise InvalidArgumentError(f"s must be finite and > 0, got {self.s!r}")
        if not (0 < self.psi_th <= 1):
            raise InvalidArgumentError(f"psi_th must be in (0, 1], got {self.psi_th!r}")
        for name in ("pt_max", "pr_max"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidArgumentError(f"{name} must be finite and > 0, got {v!r}")
        if self.outage_mode not in OUTAGE_MODES:
            raise InvalidArgumentError(
                f"outage_mode must be one of {OUTAGE_MODES}, got {self.outage_mode!r}"
            )


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subcarrier power vectors, same length and order as the stats."""

    pt: tuple[float, ...]
    pr: tuple[float, ...]

    def __post_init__(self):
        if len(self.pt) != len(self.pr):
            raise InvalidArgumentError("pt and pr must have equal length")
        for v in (*self.pt, *self.pr):
            if not (np.isfinite(v) and v >= 0):
                raise InvalidArgumentError(f"powers must be finite and >= 0, got {v!r}")

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
    accuracy: float
    evaluations: int
    levels: int


def power_axis_grid(cap: float, points: int, floor_ratio: float = _GRID_FLOOR_RATIO) -> np.ndarray:
    """Exact 0 plus ``points - 1`` log-spaced values up to the cap."""
    if points < 2:
        raise InvalidArgumentError(f"need at least 2 grid points per axis, got {points}")
    if not (0 < floor_ratio < 1):
        raise InvalidArgumentError(f"floor_ratio must be in (0, 1), got {floor_ratio!r}")
    return np.concatenate([[0.0], np.geomspace(cap * floor_ratio, cap, points - 1)])


def evaluation_budget(t: int, grid0: int, refine_points: int, levels: int) -> int:
    """Worst-case candidate count for a run of ``solve``."""
    return grid0 ** (2 * t) + levels * refine_points ** (2 * t)


def _cols(config: SystemConfig) -> int:
    """Statistics columns per sample: the active subcarriers, or all of them."""
    return config.t if config.outage_mode == "single-sap" else config.n


def _check_cols(count: int, config: SystemConfig) -> None:
    if count == _cols(config):
        return
    if config.outage_mode == "single-sap":
        raise InvalidArgumentError(
            f"single-sap mode parameterizes the {config.t} active subcarriers, "
            f"got {count} stats"
        )
    raise InvalidArgumentError(
        f"sap-averaged mode needs stats for all {config.n} subcarriers, got {count}"
    )


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


def _outage(samples, pt, pr, config: SystemConfig) -> np.ndarray:
    """Block outage of (..., 4, cols) statistic matrices under (..., cols) powers."""
    return _block_outage(
        np.moveaxis(samples, (-2, -1), (0, 1)),
        np.moveaxis(np.asarray(pt, dtype=float), -1, 0),
        np.moveaxis(np.asarray(pr, dtype=float), -1, 0),
        config.s,
        _patterns(config),
    )


def _outage_at_caps(samples, config: SystemConfig) -> np.ndarray:
    """Block outage of (..., 4, cols) statistic matrices at the power caps."""
    cols = np.shape(samples)[-1]
    _check_cols(cols, config)
    return _outage(samples, np.full(cols, config.pt_max), np.full(cols, config.pr_max), config)


def feasibility_check(stats, config: SystemConfig) -> FeasibilityResult:
    """Can the outage target be met at the power caps?"""
    outage = float(_outage_at_caps(_stats_matrix(stats, config), config))
    return FeasibilityResult(feasible=outage <= config.psi_th, outage=outage)


def _scan(stats, config, pt_axes, pr_axes):
    """One full grid scan; returns the best (total, vector) or None.

    Subcarrier i's flattened (pt, pr) pair grid lies along axis i; pair k
    maps to (pt_axis[k // len(pr)], pr_axis[k % len(pr)]).
    """
    t_dims = len(pt_axes)
    pt_grids, pr_grids = [], []
    total = np.zeros((1,) * t_dims)
    for i, (gpt, gpr) in enumerate(zip(pt_axes, pr_axes)):
        axis = (1,) * i + (-1,) + (1,) * (t_dims - 1 - i)
        pt = np.repeat(gpt, len(gpr)).reshape(axis)
        pr = np.tile(gpr, len(gpt)).reshape(axis)
        pt_grids.append(pt)
        pr_grids.append(pr)
        total = total + (pt + pr)
    outage = _block_outage(stats, pt_grids, pr_grids, config.s, _patterns(config))
    feasible = outage <= config.psi_th
    if not feasible.any():
        return None
    masked = np.where(feasible, total, np.inf)
    mn = masked.min()
    ties = [
        (*(float(pt_axes[i][k // len(pr_axes[i])]) for i, k in enumerate(cell)),
         *(float(pr_axes[i][k % len(pr_axes[i])]) for i, k in enumerate(cell)))
        for cell in np.argwhere(masked == mn)
    ]
    return float(mn), min(ties)


def _check_gate(stats: np.ndarray, config: SystemConfig) -> None:
    outage = float(_outage_at_caps(stats, config))
    if not outage <= config.psi_th:
        raise InfeasibleProblemError(
            f"outage at the power caps is {outage:.3e} > psi_th={config.psi_th:.3e}"
        )


def _result_from_vec(stats, config, total, vec, delta, evaluations, levels) -> OracleResult:
    t_dims = stats.shape[1]
    alloc = PowerAllocation(pt=tuple(vec[:t_dims]), pr=tuple(vec[t_dims:]))
    achieved = float(_outage(stats, alloc.pt, alloc.pr, config))
    return OracleResult(
        allocation=alloc,
        total_power=total,
        achieved_outage=achieved,
        feasible=achieved <= config.psi_th,
        accuracy=delta,
        evaluations=evaluations,
        levels=levels,
    )


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
    ``brute_force_reference`` at the same grid size.
    """
    stats = _stats_matrix(stats, config)
    if not (0 < delta < 1):
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta!r}")
    if refine_points < 3 or refine_points % 2 == 0:
        raise InvalidArgumentError(
            f"refine_points must be odd and >= 3 so brackets keep their center, "
            f"got {refine_points}"
        )
    if not (0 < shrink < 1):
        raise InvalidArgumentError(f"shrink must be in (0, 1), got {shrink!r}")
    _check_gate(stats, config)

    t_dims = stats.shape[1]
    caps = [config.pt_max] * t_dims + [config.pr_max] * t_dims
    pt_axes = [power_axis_grid(config.pt_max, grid0) for _ in range(t_dims)]
    pr_axes = [power_axis_grid(config.pr_max, grid0) for _ in range(t_dims)]

    best = None
    evaluations = 0
    level = 0
    while True:
        cells = math.prod(len(a) * len(b) for a, b in zip(pt_axes, pr_axes))
        if evaluations + cells > max_evaluations:
            raise BudgetExceededError(
                f"level {level} needs {cells} evaluations, exceeding the cap of "
                f"{max_evaluations} (used {evaluations}); raise max_evaluations or "
                f"coarsen the grids"
            )
        evaluations += cells
        found = _scan(stats, config, pt_axes, pr_axes)
        if found is not None and (best is None or found < best):
            best = found
        if best is None:  # pragma: no cover - the caps cell is on the level-0 grid
            raise NumericConsistencyError(
                "no feasible grid cell although the power caps passed the gate"
            )
        if max_levels is not None and level >= max_levels:
            break
        vec = best[1]
        targets = [delta * max(x, delta * cap) for x, cap in zip(vec, caps)]
        if level > 0:
            spacings = [
                2.0 * cap * shrink**level / (refine_points - 1) for cap in caps
            ]
            if all(sp <= tg for sp, tg in zip(spacings, targets)):
                break
        if level >= _HARD_LEVEL_CAP:
            break
        level += 1
        offsets = np.linspace(-1.0, 1.0, refine_points)
        axes = [
            np.unique(np.clip(x + offsets * cap * shrink**level, 0.0, cap))
            for x, cap in zip(vec, caps)
        ]
        pt_axes, pr_axes = axes[:t_dims], axes[t_dims:]
    return _result_from_vec(stats, config, best[0], best[1], delta, evaluations, level)


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
    _check_gate(stats, config)
    t_dims = stats.shape[1]
    pt_axis = power_axis_grid(config.pt_max, grid_points_per_axis)
    pr_axis = power_axis_grid(config.pr_max, grid_points_per_axis)
    pairs = [(float(a), float(b)) for a in pt_axis for b in pr_axis]
    best = None
    evaluations = 0
    for combo in itertools.product(pairs, repeat=t_dims):
        evaluations += 1
        outage = _outage(stats, [a for a, _ in combo], [b for _, b in combo], config)
        if outage <= config.psi_th:
            total = 0.0
            for a, b in combo:
                total += a + b
            vec = (*(a for a, _ in combo), *(b for _, b in combo))
            if best is None or (total, vec) < best:
                best = (total, vec)
    if best is None:  # pragma: no cover - caps passed the gate and are on-grid
        raise InfeasibleProblemError("no feasible grid point found")
    return _result_from_vec(stats, config, best[0], best[1], 0.0, evaluations, 0)
