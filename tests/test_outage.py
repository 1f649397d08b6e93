import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayalloc import (
    InvalidArgumentError,
    NumericConsistencyError,
    OutageQuery,
    SubcarrierPower,
    SubcarrierStats,
    all_active_outage,
    average_outage,
    combine_active_outages,
    end_to_end_snr,
    enumerate_saps,
    monte_carlo_outage,
    outage_grid,
    subcarrier_outage,
)

UNIT = SubcarrierStats(mu1=1.0, mu2=1.0, eta1=1.0, eta2=1.0)

# P(snr < 1) at pt = pr = 10 with unit statistics, frozen from a 40-digit
# evaluation of 1 - z K1(z) e^(-b) with z = 0.2, b = 0.1.
PHI_UNIT_10_10 = 0.13570426707635051


def test_frozen_reference_value():
    phi = subcarrier_outage(UNIT, SubcarrierPower(pt=10.0, pr=10.0), 1.0)
    assert abs(phi - PHI_UNIT_10_10) < 1e-14


def test_monte_carlo_agreement():
    power = SubcarrierPower(pt=10.0, pr=10.0)
    est = monte_carlo_outage(UNIT, power, 1.0, trials=200_000, seed=42)
    phi = subcarrier_outage(UNIT, power, 1.0)
    assert abs(est.probability - phi) < 3.0 * est.std_error


def test_monte_carlo_is_deterministic():
    power = SubcarrierPower(pt=4.0, pr=9.0)
    a = monte_carlo_outage(UNIT, power, 1.0, trials=50_000, seed=7)
    b = monte_carlo_outage(UNIT, power, 1.0, trials=50_000, seed=7)
    assert a == b
    c = monte_carlo_outage(UNIT, power, 1.0, trials=50_000, seed=8)
    assert c.probability != a.probability


def test_monte_carlo_rejects_tiny_trial_counts():
    with pytest.raises(InvalidArgumentError):
        monte_carlo_outage(UNIT, SubcarrierPower(pt=1.0, pr=1.0), 1.0, trials=100, seed=0)


def test_zero_power_means_certain_outage():
    assert subcarrier_outage(UNIT, SubcarrierPower(pt=0.0, pr=5.0), 1.0) == 1.0
    assert subcarrier_outage(UNIT, SubcarrierPower(pt=5.0, pr=0.0), 1.0) == 1.0
    assert subcarrier_outage(UNIT, SubcarrierPower(pt=0.0, pr=0.0), 1.0) == 1.0


def test_outage_decreases_with_power():
    pts = np.geomspace(0.5, 5000.0, 40)
    along_pt = outage_grid(UNIT, pts, 20.0, 1.0)
    assert (np.diff(along_pt) < 0).all()
    prs = np.geomspace(0.5, 5000.0, 40)
    along_pr = outage_grid(UNIT, 20.0, prs, 1.0)
    assert (np.diff(along_pr) < 0).all()


def test_outage_increases_with_threshold_and_noise():
    power = SubcarrierPower(pt=30.0, pr=30.0)
    phis = [subcarrier_outage(UNIT, power, s) for s in [0.25, 0.5, 1.0, 2.0, 4.0]]
    assert phis == sorted(phis)
    noisier = SubcarrierStats(mu1=1.0, mu2=1.0, eta1=3.0, eta2=3.0)
    assert subcarrier_outage(noisier, power, 1.0) > subcarrier_outage(UNIT, power, 1.0)


def test_better_channels_help():
    power = SubcarrierPower(pt=30.0, pr=30.0)
    strong = SubcarrierStats(mu1=4.0, mu2=4.0, eta1=1.0, eta2=1.0)
    assert subcarrier_outage(strong, power, 1.0) < subcarrier_outage(UNIT, power, 1.0)


def test_probability_bounds_on_wide_grid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        stats = SubcarrierStats(*rng.uniform(0.5, 5.0, 4))
        phi = outage_grid(stats, np.geomspace(1e-2, 5e3, 25)[:, None],
                          np.geomspace(1e-2, 5e3, 25)[None, :], 1.0)
        assert phi.shape == (25, 25)
        assert ((phi >= 0.0) & (phi <= 1.0)).all()


def test_grid_matches_scalar_bitwise():
    # 1e-200 on both hops makes z infinite; a zero power switches the pair off
    pts = np.array([0.0, 1e-200, 1.0, 17.3, 430.0])
    prs = np.array([0.0, 1e-200, 5.0, 62.0])
    grid = outage_grid(UNIT, pts[:, None], prs[None, :], 1.0)
    for i, pt in enumerate(pts):
        for j, pr in enumerate(prs):
            assert grid[i, j] == subcarrier_outage(
                UNIT, SubcarrierPower(pt=float(pt), pr=float(pr)), 1.0
            )


def test_combination_is_exact_for_representable_halves():
    assert combine_active_outages([0.5, 0.5]) == 0.75
    assert combine_active_outages([0.25, 0.5]) == 0.625
    assert combine_active_outages([0.0, 0.0]) == 0.0
    assert combine_active_outages([1.0, 0.3]) == 1.0


def test_all_active_outage_matches_fold():
    rng = np.random.default_rng(11)
    stats = [SubcarrierStats(*rng.uniform(0.5, 5.0, 4)) for _ in range(3)]
    powers = [SubcarrierPower(*rng.uniform(5.0, 50.0, 2)) for _ in range(3)]
    phis = [subcarrier_outage(st, pw, 1.0) for st, pw in zip(stats, powers)]
    assert all_active_outage(stats, powers, 1.0) == combine_active_outages(phis)


def test_average_outage_matches_independent_resummation():
    rng = np.random.default_rng(5)
    n, t = 4, 2
    stats = tuple(SubcarrierStats(*rng.uniform(0.5, 5.0, 4)) for _ in range(n))
    powers = tuple(SubcarrierPower(*rng.uniform(5.0, 80.0, 2)) for _ in range(n))
    sap_set = enumerate_saps(n, t)
    query = OutageQuery(s=1.0, stats=stats, powers=powers, sap_set=sap_set)
    averaged = average_outage(query)

    # independent recomputation: mask matrix and numpy products
    phis = np.array([subcarrier_outage(st, pw, 1.0) for st, pw in zip(stats, powers)])
    masks = np.zeros((sap_set.xi, n), dtype=bool)
    for r, sap in enumerate(sap_set.saps):
        masks[r, [i - 1 for i in sap.indices]] = True
    per_sap = 1.0 - np.prod(np.where(masks, 1.0 - phis, 1.0), axis=1)
    assert abs(averaged - per_sap.mean()) < 1e-12


def test_average_outage_bounds_single_pattern():
    # averaging over patterns can only reduce outage relative to the worst
    # pattern and increase it relative to the best
    rng = np.random.default_rng(9)
    stats = tuple(SubcarrierStats(*rng.uniform(0.5, 5.0, 4)) for _ in range(4))
    powers = tuple(SubcarrierPower(*rng.uniform(5.0, 80.0, 2)) for _ in range(4))
    sap_set = enumerate_saps(4, 2)
    query = OutageQuery(s=1.0, stats=stats, powers=powers, sap_set=sap_set)
    averaged = average_outage(query)
    per_pattern = [
        all_active_outage([stats[i - 1] for i in sap], [powers[i - 1] for i in sap], 1.0)
        for sap in sap_set.saps
    ]
    assert min(per_pattern) <= averaged <= max(per_pattern)


def test_snr_formula_shape_and_value():
    power = SubcarrierPower(pt=2.0, pr=3.0)
    snr = end_to_end_snr(1.0, 1.0, power, 1.0, 1.0)
    assert abs(snr - 6.0 / 4.0) < 1e-15
    arr = end_to_end_snr(np.ones(5), np.ones(5), power, 1.0, 1.0)
    assert arr.shape == (5,)


def test_query_validation():
    sap_set = enumerate_saps(4, 2)
    stats = tuple(UNIT for _ in range(4))
    powers = tuple(SubcarrierPower(pt=1.0, pr=1.0) for _ in range(4))
    OutageQuery(s=1.0, stats=stats, powers=powers, sap_set=sap_set)  # fine
    with pytest.raises(InvalidArgumentError):
        OutageQuery(s=1.0, stats=stats[:3], powers=powers, sap_set=sap_set)
    with pytest.raises(InvalidArgumentError):
        OutageQuery(s=1.0, stats=stats[:2], powers=powers[:2], sap_set=sap_set)


def test_stats_validation():
    with pytest.raises(InvalidArgumentError):
        SubcarrierStats(mu1=0.0, mu2=1.0, eta1=1.0, eta2=1.0)
    with pytest.raises(InvalidArgumentError):
        SubcarrierStats(mu1=1.0, mu2=1.0, eta1=-1.0, eta2=1.0)
    with pytest.raises(InvalidArgumentError):
        SubcarrierPower(pt=-1.0, pr=1.0)
    with pytest.raises(InvalidArgumentError):
        subcarrier_outage(UNIT, SubcarrierPower(pt=1.0, pr=1.0), 0.0)


def test_clamp_rejects_gross_probability_escapes():
    from relayalloc.outage import _clamp_probability

    assert _clamp_probability(1.0 + 1e-13)[0] == 1.0
    assert _clamp_probability(-1e-13)[0] == 0.0
    with pytest.raises(NumericConsistencyError):
        _clamp_probability(1.5)
    with pytest.raises(NumericConsistencyError):
        _clamp_probability([0.5, float("nan")])


def test_outage_grid_refuses_non_finite_powers():
    stats = SubcarrierStats(1.0, 1.0, 0.5, 0.5)
    for bad in (float("nan"), float("inf"), -1.0):
        for pt, pr in (([bad, 1.0], 1.0), (1.0, [1.0, bad])):
            with pytest.raises(InvalidArgumentError, match="powers must be finite and >= 0"):
                outage_grid(stats, pt, pr, 1.0)
    assert outage_grid(stats, [0.0, 1.0], 1.0, 1.0)[0] == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # A overflows on the way
def test_powers_too_small_for_a_finite_z_mean_certain_outage():
    # mu1 mu2 pt pr underflows, so A and z overflow; the limit is Phi = 1
    for pt, pr in ((1e-200, 1e-200), (5e-324, 5e-324), (1e-320, 1.0)):
        assert subcarrier_outage(UNIT, SubcarrierPower(pt, pr), 1.0) == 1.0
    # mixed with ordinary powers, with and without a zero power among them
    for pts in ([1e-200, 10.0, 3.0], [1e-200, 10.0, 0.0]):
        grid = outage_grid(UNIT, pts, [1e-200, 10.0, 3.0], 1.0)
        assert grid[0] == 1.0
        assert grid[1] == subcarrier_outage(UNIT, SubcarrierPower(10.0, 10.0), 1.0)
        assert grid[2] == (1.0 if pts[2] == 0.0 else
                           subcarrier_outage(UNIT, SubcarrierPower(3.0, 3.0), 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_powers_too_small_for_a_finite_z_raise_no_warning():
    # A overflows (divide by zero, overflow) on the way to its limit Phi = 1
    for pt, pr in ((1e-200, 1e-200), (1e-320, 1.0)):
        assert subcarrier_outage(UNIT, SubcarrierPower(pt, pr), 1.0) == 1.0
        assert all_active_outage([UNIT, UNIT], [SubcarrierPower(pt, pr)] * 2, 1.0) == 1.0
    grid = outage_grid(UNIT, [1e-200, 1e-320, 10.0, 0.0], [1e-200, 1.0, 10.0, 3.0], 1.0)
    ordinary = subcarrier_outage(UNIT, SubcarrierPower(10.0, 10.0), 1.0)
    assert grid.tolist() == [1.0, 1.0, ordinary, 1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_statistics_that_make_a_inf_over_inf_or_zero_over_zero_keep_its_value():
    # s eta2 and mu1 mu2 pt pr both overflow (or both underflow), yet
    # A = b = 1, as for unit statistics at unit powers and threshold
    unit = float(outage_grid(UNIT, 1.0, 1.0, 1.0))
    assert unit == pytest.approx(0.8970924351167735, rel=1e-15, abs=0.0)
    for big, s in ((1e200, 1e200), (1e-200, 1e-200)):
        extreme = SubcarrierStats(big, big, 1.0, big)
        assert float(outage_grid(extreme, 1.0, 1.0, s)) == pytest.approx(unit, rel=1e-15, abs=0.0)
        # a zero power still means certain outage, alone or among others
        assert outage_grid(extreme, 0.0, 1.0, s) == 1.0
        grid = outage_grid(extreme, [0.0, 1.0, 10.0], [1.0, 1.0, 0.0], s)
        assert grid.tolist() == [1.0, float(outage_grid(extreme, 1.0, 1.0, s)), 1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_statistics_that_make_b_inf_over_inf_or_zero_over_zero_keep_its_value():
    # s eta1 and mu1 pt both overflow: b = 1 and A = 1e-200, as below
    big = SubcarrierStats(1e200, 1.0, 1e200, 1.0)
    expected = float(outage_grid(SubcarrierStats(1.0, 1.0, 1.0, 1e-200), 1.0, 1.0, 1.0))
    assert expected == 0.6321205588285577
    assert float(outage_grid(big, 1e200, 1.0, 1e200)) == expected
    # both underflow: b = 1 but A overflows, so Phi is 1
    tiny = SubcarrierStats(1e-200, 1.0, 1e-200, 1.0)
    assert float(outage_grid(tiny, 1e-200, 1.0, 1e-200)) == 1.0
    # among other powers, a zero one included, each entry is its own call's
    grid = outage_grid(big, [1e200, 1.0, 0.0], 1.0, 1e200)
    assert grid.tolist() == [expected, float(outage_grid(big, 1.0, 1.0, 1e200)), 1.0]


# Hypothesis properties. The block outage is monotone in every power in
# exact arithmetic; the computed value may rise by rounding alone, which
# stays at a few units in the last place of a probability.
_ROUNDING = 1e-15
_stat = st.floats(0.05, 10.0)
_power = st.one_of(st.just(0.0), st.floats(1e-3, 5000.0))


@st.composite
def _blocks(draw, n):
    stats = [SubcarrierStats(*(draw(_stat) for _ in range(4))) for _ in range(n)]
    powers = [SubcarrierPower(pt=draw(_power), pr=draw(_power)) for _ in range(n)]
    return stats, powers


@settings(max_examples=60, deadline=None)
@given(
    block=_blocks(4),
    t=st.integers(1, 4),
    j=st.integers(0, 3),
    which=st.sampled_from(["pt", "pr"]),
    factor=st.floats(1.0, 100.0),
    s=st.floats(0.1, 8.0),
)
def test_outage_never_increases_with_power(block, t, j, which, factor, s):
    stats, powers = block
    old = powers[j]
    more = SubcarrierPower(
        pt=old.pt * factor if which == "pt" else old.pt,
        pr=old.pr * factor if which == "pr" else old.pr,
    )
    raised = [*powers[:j], more, *powers[j + 1:]]
    # single-sap: the first t subcarriers are the active ones
    if j < t:
        assert all_active_outage(stats[:t], raised[:t], s) <= (
            all_active_outage(stats[:t], powers[:t], s) + _ROUNDING
        )
    sap_set = enumerate_saps(4, t)

    def averaged(pw):
        return average_outage(
            OutageQuery(s=s, stats=tuple(stats), powers=tuple(pw), sap_set=sap_set)
        )

    assert averaged(raised) <= averaged(powers) + _ROUNDING
