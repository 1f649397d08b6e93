"""The lock-step oracle against the one-instance search it replaced.

``reference_solve`` is a frozen copy of the search as it ran before the
lock-step core: one instance at a time, every level scanning the full
product grid with no pruning. Batched labeling and ``solve`` must return
bitwise its allocation, total, outage, evaluation count and level count.
"""

import math
import re

import numpy as np
import pytest

from relayalloc import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    RelayAllocError,
    SystemConfig,
    draw_feasible_samples,
    feasibility_check,
    label_dataset,
    power_axis_grid,
    solve,
    stats_from_sample,
)
from relayalloc import gridsearch
from relayalloc.gridsearch import _batch_size, _frontier, _outage, _patterns, _tie_margin
from relayalloc.outage import _block_outage

T1 = SystemConfig(n=2, t=1, m=2)
T2 = SystemConfig()
T3 = SystemConfig(n=4, t=3)
AVERAGED = SystemConfig(n=2, t=2, outage_mode="sap-averaged")


def _reference_scan(stats, config, pt_axes, pr_axes):
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
    vec = np.stack(np.broadcast_arrays(*pt_grids, *pr_grids), axis=-1)
    outage = _block_outage(stats, vec, config.s, _patterns(config))
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


def reference_solve(stats, config, delta=1e-2, grid0=12, refine_points=9, shrink=0.6,
                    max_levels=None, max_evaluations=2_000_000):
    """(vector, total, outage, evaluations, levels) of one (4, cols) instance."""
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
            raise BudgetExceededError("over budget")
        evaluations += cells
        found = _reference_scan(stats, config, pt_axes, pr_axes)
        if found is not None and (best is None or found < best):
            best = found
        if max_levels is not None and level >= max_levels:
            break
        vec = best[1]
        targets = [delta * max(x, delta * cap) for x, cap in zip(vec, caps)]
        if level > 0:
            spacings = [2.0 * cap * shrink**level / (refine_points - 1) for cap in caps]
            if all(sp <= tg for sp, tg in zip(spacings, targets)):
                break
        if level >= 64:
            break
        level += 1
        offsets = np.linspace(-1.0, 1.0, refine_points)
        axes = [
            np.unique(np.clip(x + offsets * cap * shrink**level, 0.0, cap))
            for x, cap in zip(vec, caps)
        ]
        pt_axes, pr_axes = axes[:t_dims], axes[t_dims:]
    total, vec = best
    outage = float(_outage(stats, vec, config))
    return vec, total, outage, evaluations, level


def assert_matches_reference(samples, config, **solver_kwargs):
    """Batched labels and one-instance ``solve`` both equal the reference."""
    dataset = label_dataset(samples, config, 1e-2, solver_kwargs=solver_kwargs)
    for v, rec in zip(samples, dataset.records):
        vec, total, outage, evaluations, levels = reference_solve(v, config, **solver_kwargs)
        alone = solve(stats_from_sample(v), config, 1e-2, **solver_kwargs)
        for label, got in ((rec.label, rec), (alone.allocation, alone)):
            assert label.as_vector() == vec
            assert got.total_power == total
            assert got.achieved_outage == outage
            assert got.evaluations == evaluations
        assert alone.levels == levels


@pytest.mark.parametrize("config", [T1, T2, AVERAGED], ids=["t1", "t2", "sap-averaged-n2"])
def test_batched_labels_and_solve_match_the_reference(config):
    samples, _ = draw_feasible_samples(100, 0.5, 5.0, config, seed=8)
    assert_matches_reference(samples, config)


@pytest.mark.parametrize("grid0, refine_points, count", [(4, 3, 12), (6, 5, 4)])
def test_three_subcarriers_match_the_reference(grid0, refine_points, count):
    # T = 3 merges a partial frontier of two subcarriers before the search;
    # the default budget covers these grids (at most 6^6 + 64 * 5^6 cells)
    samples, _ = draw_feasible_samples(count, 0.5, 5.0, T3, seed=88)
    assert_matches_reference(samples, T3, grid0=grid0, refine_points=refine_points)


def test_three_subcarriers_across_chunks_match_the_reference(monkeypatch):
    # chunks of 4 instances: 10 samples label in three lock-step chunks
    monkeypatch.setattr(gridsearch, "_PAIR_BUDGET", 4 * 3 * 4**2)
    assert _batch_size(3, 4, 3) == 4
    samples, _ = draw_feasible_samples(10, 0.5, 5.0, T3, seed=89)
    assert_matches_reference(samples, T3, grid0=4, refine_points=3)


def test_three_averaged_subcarriers_solve_like_the_reference():
    # several activation patterns: the merge keeps every partial allocation
    config = SystemConfig(n=3, t=2, outage_mode="sap-averaged")
    draws = np.random.default_rng(90).uniform(0.5, 5.0, size=(12, 4, 3))
    samples = [v for v in draws if feasibility_check(stats_from_sample(v), config).feasible]
    assert len(samples) >= 4
    for v in samples[:6]:
        vec, total, outage, evaluations, levels = reference_solve(
            v, config, grid0=4, refine_points=3)
        got = solve(stats_from_sample(v), config, 1e-2, grid0=4, refine_points=3)
        assert (got.allocation.as_vector(), got.total_power, got.achieved_outage,
                got.evaluations, got.levels) == (vec, total, outage, evaluations, levels)


def test_identical_and_permuted_subcarriers_match_the_reference():
    rng = np.random.default_rng(81)
    base, _ = draw_feasible_samples(6, 0.5, 5.0, T2, seed=81)
    twins = np.repeat(base[:, :, :1], 2, axis=2)  # both subcarriers alike: ties
    twins = twins[[feasibility_check(stats_from_sample(v), T2).feasible for v in twins]]
    swapped = base[:, :, ::-1]
    samples = np.concatenate([base, swapped, twins, np.ones((1, 4, 2))])
    assert_matches_reference(samples[rng.permutation(len(samples))], T2)


def test_brackets_clipped_at_zero_match_the_reference():
    # any allocation meets psi_th = 1, so the optimum is all zeros and every
    # refined bracket repeats 0 where it is clipped
    samples, _ = draw_feasible_samples(8, 0.5, 5.0, T2, seed=82)
    assert_matches_reference(samples, SystemConfig(psi_th=1.0))


def test_brackets_clipped_at_the_cap_match_the_reference():
    # psi_th equal to the outage at the caps leaves the caps the only
    # feasible point; the batch mixes that instance with easier ones
    samples, _ = draw_feasible_samples(6, 0.5, 5.0, T2, seed=83)
    edge = float(feasibility_check(stats_from_sample(samples[0]), T2).outage)
    config = SystemConfig(psi_th=edge)
    kept = [v for v in samples if feasibility_check(stats_from_sample(v), config).feasible]
    assert_matches_reference(np.stack(kept), config)
    assert solve(stats_from_sample(samples[0]), config).allocation.as_vector() == (
        config.pt_max, config.pt_max, config.pr_max, config.pr_max)


def test_pair_costs_within_the_margin_match_the_reference():
    # caps one ulp apart: a pair and its swap differ in cost by about an
    # ulp, less than the pruning margin, so neither may prune the other
    config = SystemConfig(pr_max=float(np.nextafter(5000.0, np.inf)))
    samples, _ = draw_feasible_samples(12, 0.5, 5.0, config, seed=84)
    assert_matches_reference(samples, config)


def test_frontier_keeps_pairs_within_the_margin():
    config = SystemConfig()
    margin = _tie_margin(config, 2)
    assert 0 < margin < 1e-9
    q = np.array([[0.5, 0.4, 0.6, 0.3]])
    # pair 1 has a lower q than pair 0 and costs more, but by less than the
    # margin: a tied total could favour it, so it stays
    near = np.array([[1.0, 1.0 + margin / 4, 2.0, np.inf]])
    pick, real = _frontier(near, q, margin)
    assert sorted(pick[real].tolist()) == [0, 1, 2]
    # beyond the margin it is dominated; the padded pair never survives
    far = np.array([[1.0, 1.0 + 4 * margin, 2.0, np.inf]])
    pick, real = _frontier(far, q, margin)
    assert sorted(pick[real].tolist()) == [0, 2]


def test_frontier_drops_exactly_the_dominated_pairs():
    # small integer costs and q levels: many equal costs, equal q values and
    # dominating pairs several places before the pair they dominate
    rng = np.random.default_rng(91)
    cost = rng.integers(0, 12, size=(40, 16)).astype(float)
    q = rng.integers(0, 6, size=(40, 16)) / 5
    cost[:, -3:] = np.inf  # padding
    pick, real = _frontier(cost, q, 0.5)
    for c, v, kept in zip(cost, q, (p[r] for p, r in zip(pick, real))):
        undominated = [i for i in range(16) if np.isfinite(c[i]) and not any(
            v[j] >= v[i] and c[j] < c[i] - 0.5 for j in range(16))]
        assert sorted(kept.tolist()) == undominated
        assert (np.diff(c[kept]) >= 0).all()  # ascending cost


def test_stop_reasons():
    stats = stats_from_sample(draw_feasible_samples(1, 0.5, 5.0, T2, seed=85)[0][0])
    done = solve(stats, T2, 2e-2)
    assert (done.stop_reason, done.accuracy) == ("resolution", 2e-2)
    # a search that stops short of the resolution claims no accuracy
    early = solve(stats, T2, max_levels=0)
    assert (early.stop_reason, early.accuracy) == ("max_levels", None)
    capped = solve(stats, T2, shrink=0.99)
    assert (capped.stop_reason, capped.levels, capped.accuracy) == ("level_cap", 64, None)


# weak channels, loud noise: out of reach at the default caps
INFEASIBLE = np.array([[0.05] * 2, [0.05] * 2, [5.0] * 2, [5.0] * 2])


def _sequential_error(samples, config, **solver_kwargs) -> RelayAllocError:
    for v in samples:
        try:
            solve(stats_from_sample(v), config, 1e-2, **solver_kwargs)
        except RelayAllocError as exc:
            return exc
    raise AssertionError("no sample fails")


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_failures_raise_what_sequential_labeling_raises(workers):
    good, _ = draw_feasible_samples(16, 0.5, 5.0, T2, seed=86)
    evaluations = [r.evaluations for r in label_dataset(good, T2, 1e-2).records]
    budget = sorted(evaluations)[len(evaluations) // 2]
    passes = good[[e <= budget for e in evaluations]]
    overruns = good[[e > budget for e in evaluations]]
    # the level at which each overrun alone crosses the budget
    levels = [
        int(re.search(r"level (\d+)", str(_sequential_error(v[None], T2, max_evaluations=budget)))[1])
        for v in overruns
    ]
    late, early = overruns[int(np.argmax(levels))], overruns[int(np.argmin(levels))]
    assert max(levels) > min(levels)
    infeasible, invalid, ok = INFEASIBLE, np.full((4, 2), np.nan), passes[0]
    batches = {
        # in lock-step the later sample fails first; the earlier one's error wins
        "late-then-early": ([ok, late, passes[1], early], BudgetExceededError),
        # the gate fails before any level is scanned; the earlier overrun wins
        "overrun-then-gate": ([ok, late, infeasible], BudgetExceededError),
        "gate-then-overrun": ([ok, infeasible, early], InfeasibleProblemError),
        "invalid-first": ([ok, invalid, infeasible, early], InvalidArgumentError),
        "overrun-then-invalid": ([ok, late, invalid], BudgetExceededError),
    }
    for name, (batch, kind) in batches.items():
        samples = np.stack(batch)
        expected = _sequential_error(samples, T2, max_evaluations=budget)
        assert type(expected) is kind, name
        with pytest.raises(kind) as info:
            label_dataset(samples, T2, 1e-2, workers=workers,
                          solver_kwargs={"max_evaluations": budget})
        assert str(info.value) == str(expected), name


def test_the_gate_precedes_the_grid_check_as_one_at_a_time():
    # grid0=1 is refused when the grid is built, after the sample's gate
    ok = draw_feasible_samples(1, 0.5, 5.0, T2, seed=87)[0][0]
    assert not feasibility_check(stats_from_sample(INFEASIBLE), T2).feasible
    for batch, kind in (([INFEASIBLE, ok], InfeasibleProblemError),
                        ([ok, INFEASIBLE], InvalidArgumentError)):
        samples = np.stack(batch)
        expected = _sequential_error(samples, T2, grid0=1)
        assert type(expected) is kind
        with pytest.raises(kind) as info:
            label_dataset(samples, T2, 1e-2, solver_kwargs={"grid0": 1})
        assert str(info.value) == str(expected)
