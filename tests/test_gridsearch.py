import numpy as np
import pytest

from relayalloc import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    OutageQuery,
    SubcarrierPower,
    SubcarrierStats,
    SystemConfig,
    all_active_outage,
    average_outage,
    brute_force_reference,
    enumerate_saps,
    evaluation_budget,
    feasibility_check,
    power_axis_grid,
    solve,
    stats_from_sample,
)
from relayalloc.gridsearch import _outage

UNIT = SubcarrierStats(mu1=1.0, mu2=1.0, eta1=1.0, eta2=1.0)


def random_stats(rng, count=2):
    return [SubcarrierStats(*rng.uniform(0.5, 5.0, 4)) for _ in range(count)]


def test_axis_grid_structure():
    grid = power_axis_grid(5000.0, 12)
    assert grid.shape == (12,)
    assert grid[0] == 0.0
    assert grid[1] == 5.0  # cap * 1e-3
    assert grid[-1] == 5000.0
    assert (np.diff(grid) > 0).all()
    with pytest.raises(InvalidArgumentError):
        power_axis_grid(5000.0, 1)
    with pytest.raises(InvalidArgumentError):
        power_axis_grid(5000.0, 12, floor_ratio=2.0)


def test_budget_formula():
    assert evaluation_budget(2, 12, 9, 0) == 12**4
    assert evaluation_budget(2, 12, 9, 3) == 12**4 + 3 * 9**4
    assert evaluation_budget(1, 6, 5, 2) == 6**2 + 2 * 5**2


def test_flat_scan_matches_refining_search_bitwise():
    rng = np.random.default_rng(12)
    config = SystemConfig()
    for _ in range(10):
        stats = random_stats(rng)
        fast = solve(stats, config, 1e-2, grid0=6, max_levels=0)
        slow = brute_force_reference(stats, config, 6)
        assert fast.allocation == slow.allocation
        assert fast.total_power == slow.total_power
        assert fast.achieved_outage == slow.achieved_outage
        assert fast.evaluations == slow.evaluations == 6**4


def test_flat_scan_matches_in_pattern_averaged_mode():
    rng = np.random.default_rng(13)
    config = SystemConfig(outage_mode="sap-averaged")
    for _ in range(3):
        stats = random_stats(rng, count=config.n)
        fast = solve(stats, config, 1e-2, grid0=3, max_levels=0)
        slow = brute_force_reference(stats, config, 3)
        assert fast.allocation == slow.allocation
        assert fast.total_power == slow.total_power


def test_refinement_never_worsens_the_total():
    rng = np.random.default_rng(21)
    config = SystemConfig()
    for _ in range(5):
        stats = random_stats(rng)
        coarse = solve(stats, config, 1e-2, grid0=8, max_levels=0)
        fine = solve(stats, config, 1e-2, grid0=8)
        assert fine.total_power <= coarse.total_power
        assert fine.levels >= 1


def test_refinement_monotone_level_by_level():
    rng = np.random.default_rng(22)
    stats = random_stats(rng)
    config = SystemConfig()
    totals = [
        solve(stats, config, 1e-2, grid0=8, max_levels=lv).total_power
        for lv in range(4)
    ]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_result_satisfies_constraints_and_reports():
    rng = np.random.default_rng(33)
    config = SystemConfig()
    stats = random_stats(rng)
    res = solve(stats, config, 1e-2)
    assert res.feasible
    assert res.achieved_outage <= config.psi_th
    assert all(0 <= p <= config.pt_max for p in res.allocation.pt)
    assert all(0 <= p <= config.pr_max for p in res.allocation.pr)
    assert res.accuracy == 1e-2
    assert res.total_power == res.allocation.total_power
    assert res.evaluations <= evaluation_budget(config.t, 12, 9, res.levels)


def test_stop_condition_spacing():
    rng = np.random.default_rng(44)
    config = SystemConfig()
    stats = random_stats(rng)
    delta, shrink, refine_points = 1e-2, 0.6, 9
    res = solve(stats, config, delta, shrink=shrink, refine_points=refine_points)
    caps = [config.pt_max] * config.t + [config.pr_max] * config.t
    spacing = [2.0 * cap * shrink**res.levels / (refine_points - 1) for cap in caps]
    targets = [
        delta * max(x, delta * cap)
        for x, cap in zip(res.allocation.as_vector(), caps)
    ]
    assert all(sp <= tg for sp, tg in zip(spacing, targets))


def test_solve_is_deterministic():
    rng = np.random.default_rng(55)
    stats = random_stats(rng)
    config = SystemConfig()
    a = solve(stats, config, 1e-2)
    b = solve(stats, config, 1e-2)
    assert a == b


def test_identical_subcarriers_tie_break():
    # with identical statistics the swapped allocation is also optimal, so
    # the reported vector must be the lexicographically smaller of the two
    config = SystemConfig()
    res = solve([UNIT, UNIT], config, 1e-2, grid0=6, max_levels=0)
    vec = res.allocation.as_vector()
    swapped = (vec[1], vec[0], vec[3], vec[2])
    assert vec <= swapped
    powers = [SubcarrierPower(pt=swapped[0], pr=swapped[2]),
              SubcarrierPower(pt=swapped[1], pr=swapped[3])]
    assert all_active_outage([UNIT, UNIT], powers, config.s) <= config.psi_th


def test_reordering_subcarriers_reorders_the_solution():
    rng = np.random.default_rng(66)
    config = SystemConfig()
    a, b = random_stats(rng)
    fwd = solve([a, b], config, 1e-2, grid0=6, max_levels=0)
    rev = solve([b, a], config, 1e-2, grid0=6, max_levels=0)
    assert rev.total_power == fwd.total_power
    # the swapped forward vector is feasible for the reversed instance
    powers = [
        SubcarrierPower(pt=fwd.allocation.pt[1], pr=fwd.allocation.pr[1]),
        SubcarrierPower(pt=fwd.allocation.pt[0], pr=fwd.allocation.pr[0]),
    ]
    assert all_active_outage([b, a], powers, config.s) <= config.psi_th


def test_trivial_threshold_allows_zero_power():
    config = SystemConfig(psi_th=1.0)
    res = solve([UNIT, UNIT], config, 1e-2, grid0=6, max_levels=0)
    assert res.total_power == 0.0
    assert res.allocation.as_vector() == (0.0, 0.0, 0.0, 0.0)
    assert res.achieved_outage == 1.0


def test_infeasible_instance_raises():
    config = SystemConfig(psi_th=1e-9, pt_max=1.0, pr_max=1.0)
    gate = feasibility_check([UNIT, UNIT], config)
    assert not gate.feasible
    with pytest.raises(InfeasibleProblemError):
        solve([UNIT, UNIT], config, 1e-2)
    with pytest.raises(InfeasibleProblemError):
        brute_force_reference([UNIT, UNIT], config, 6)


def test_budget_enforcement():
    config = SystemConfig()
    with pytest.raises(BudgetExceededError):
        solve([UNIT, UNIT], config, 1e-2, grid0=6, max_evaluations=1000)
    # exactly the level-0 budget is fine when refinement is disabled
    res = solve([UNIT, UNIT], config, 1e-2, grid0=6, max_levels=0, max_evaluations=6**4)
    assert res.evaluations == 6**4
    # but the first refinement level must push it over
    with pytest.raises(BudgetExceededError):
        solve([UNIT, UNIT], config, 1e-2, grid0=6, max_evaluations=6**4)


def test_flat_scan_size_cap():
    with pytest.raises(BudgetExceededError):
        brute_force_reference([UNIT, UNIT], SystemConfig(), 13)


def test_threshold_monotonicity_on_fixed_grid():
    rng = np.random.default_rng(77)
    stats = random_stats(rng)
    tight = solve(stats, SystemConfig(psi_th=1e-3), 1e-2, grid0=8, max_levels=0)
    loose = solve(stats, SystemConfig(psi_th=1e-1), 1e-2, grid0=8, max_levels=0)
    assert loose.total_power <= tight.total_power


def test_stats_count_must_match_mode():
    config = SystemConfig()  # single-sap, t = 2
    with pytest.raises(InvalidArgumentError):
        solve([UNIT], config, 1e-2)
    with pytest.raises(InvalidArgumentError):
        feasibility_check([UNIT, UNIT, UNIT], config)
    averaged = SystemConfig(outage_mode="sap-averaged")  # n = 4
    with pytest.raises(InvalidArgumentError):
        feasibility_check([UNIT, UNIT], averaged)
    assert feasibility_check([UNIT] * 4, averaged).feasible


def test_parameter_validation():
    config = SystemConfig()
    with pytest.raises(InvalidArgumentError):
        solve([UNIT, UNIT], config, 0.0)
    with pytest.raises(InvalidArgumentError):
        solve([UNIT, UNIT], config, 1.5)
    with pytest.raises(InvalidArgumentError):
        solve([UNIT, UNIT], config, 1e-2, refine_points=8)
    with pytest.raises(InvalidArgumentError):
        solve([UNIT, UNIT], config, 1e-2, shrink=1.0)
    with pytest.raises(InvalidArgumentError):
        SystemConfig(psi_th=0.0)
    with pytest.raises(InvalidArgumentError):
        SystemConfig(outage_mode="other")
    with pytest.raises(InvalidArgumentError):
        SystemConfig(t=5, n=4)
    for m in (-1, 0, 1, 3, 6, 4.0):
        with pytest.raises(InvalidArgumentError, match="power of two"):
            SystemConfig(m=m)
    assert [SystemConfig(m=m).m for m in (2, 8, 64)] == [2, 8, 64]


def test_total_power_association_is_pairwise():
    # totals fold as (pt1 + pr1) + (pt2 + pr2); pinning the association
    # keeps scan totals and reported totals bitwise comparable
    from relayalloc import PowerAllocation

    alloc = PowerAllocation(pt=(0.1, 0.2), pr=(0.3, 0.4))
    expected = (0.1 + 0.3) + (0.2 + 0.4)
    assert alloc.total_power == expected


def per_row_outage(v, vec, config):
    """The scalar API's outage of one (4, cols) matrix under one 2 cols vector."""
    cols = v.shape[1]
    stats = tuple(stats_from_sample(v))
    powers = tuple(SubcarrierPower(pt, pr) for pt, pr in zip(vec[:cols], vec[cols:]))
    if config.outage_mode == "single-sap":
        return all_active_outage(stats, powers, config.s)
    saps = enumerate_saps(config.n, config.t)
    return average_outage(OutageQuery(s=config.s, stats=stats, powers=powers, sap_set=saps))


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(n=2, t=1, m=2),
        SystemConfig(),
        SystemConfig(n=4, t=2, outage_mode="sap-averaged"),
    ],
    ids=["t1", "t2", "sap-averaged-n4"],
)
def test_outage_kernel_broadcasts_bitwise_like_per_row_calls(config):
    rng = np.random.default_rng(64)
    cols = config.t if config.outage_mode == "single-sap" else config.n
    samples = rng.uniform(0.02, 5.0, (9, 4, cols))
    vecs = rng.uniform(0.0, 1.0, (9, 2 * cols)) * 10.0 ** rng.uniform(-3, 0, (9, 1))
    vecs *= np.repeat([config.pt_max, config.pr_max], cols)
    vecs[0] = 0.0
    vecs[1, 0] = 0.0
    expect = np.array([[per_row_outage(v, vec, config) for vec in vecs] for v in samples])
    assert ((expect > 0) & (expect < 1)).any() and (expect == 1).any()
    # a stack of matrices under a stack of vectors, row by row
    assert _outage(samples, vecs, config).tolist() == expect.diagonal().tolist()
    # one matrix under many vectors, many matrices under one vector
    assert _outage(samples[3], vecs, config).tolist() == expect[3].tolist()
    assert _outage(samples, vecs[5], config).tolist() == expect[:, 5].tolist()
    # every matrix under every vector
    assert _outage(samples[:, None], vecs, config).tolist() == expect.tolist()
