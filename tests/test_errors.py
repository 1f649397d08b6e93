import numpy as np
import pytest

from relayalloc import (
    InvalidArgumentError,
    NormalizationSpec,
    OutageQuery,
    PowerAllocation,
    SubcarrierPower,
    SubcarrierStats,
    SystemConfig,
    TrainingConfig,
    build_dataset,
    draw_feasible_samples,
    encode_input,
    enumerate_saps,
    generate_grid_samples,
    init_mlp,
    monte_carlo_outage,
    split,
)
from relayalloc.errors import check_finite, check_integer
from relayalloc.training import SweepSpec


def _query(s):
    return OutageQuery(s=s, stats=(SubcarrierStats(1.0, 1.0, 1.0, 1.0),),
                       powers=(SubcarrierPower(1.0, 1.0),), sap_set=enumerate_saps(1, 1))


def _fields(cls, base):
    return [(f"{cls.__name__}.{name}", lambda v, name=name: cls(**{**base, name: v}))
            for name in base]


# Every number the package accepts from a caller, each built with one value swapped in.
VALUES = [
    *_fields(SubcarrierStats, dict(mu1=1.0, mu2=1.0, eta1=1.0, eta2=1.0)),
    *_fields(SubcarrierPower, dict(pt=1.0, pr=1.0)),
    ("OutageQuery.s", _query),
    *_fields(SystemConfig, dict(s=1.0, pt_max=1.0, pr_max=1.0)),
    ("PowerAllocation.pt", lambda v: PowerAllocation(pt=(1.0, v), pr=(1.0, 1.0))),
    ("PowerAllocation.pr", lambda v: PowerAllocation(pt=(1.0, 1.0), pr=(v, 1.0))),
    *_fields(NormalizationSpec, dict(range_hi=1.0, pt_max=1.0, pr_max=1.0)),
    *_fields(TrainingConfig, dict(step_size=1e-4, epsilon=1e-8)),
    ("encode_input.range_hi", lambda v: encode_input(np.ones((4, 1)), v)),
    ("draw range", lambda v: generate_grid_samples(2, 1.0, v, 1)),
]


@pytest.mark.parametrize("build", [b for _, b in VALUES], ids=[name for name, _ in VALUES])
def test_every_value_takes_large_integers_and_refuses_what_is_not_finite(build):
    build(10**20)  # beyond int64, within the float range
    for bad in (10**400, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidArgumentError):
            build(bad)


def test_check_finite_bounds_and_messages():
    check_finite("x", 5e-324)
    check_finite("x", 0.0, positive=False)
    check_finite("x", -0.0, positive=False)
    with pytest.raises(InvalidArgumentError, match="^x must be finite and > 0, got 0.0$"):
        check_finite("x", 0.0)
    with pytest.raises(InvalidArgumentError, match="^x must be finite and >= 0, got -5e-324$"):
        check_finite("x", -5e-324, positive=False)


def test_check_integer_bounds_and_messages():
    check_integer("x", 0, 0)
    check_integer("x", np.int64(3), 1)
    check_integer("x", 10**400, 1)  # numpy seeds take any size
    with pytest.raises(InvalidArgumentError, match="^x must be >= 1, got 0$"):
        check_integer("x", 0, 1)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(InvalidArgumentError, match="^x must be an integer, got "):
            check_integer("x", bad, 0)


_CFG = SystemConfig(n=2, t=1, m=2)

# Every seed the package takes from a caller, each built with one value swapped in.
SEEDS = [
    ("draw_feasible_samples", lambda v: draw_feasible_samples(1, 0.5, 5.0, _CFG, v)),
    ("build_dataset", lambda v: build_dataset(_CFG, 1, 0.5, 5.0, v, 1e-2)),
    ("split", lambda v: split(build_dataset(_CFG, 2, 0.5, 5.0, 1, 1e-2), 1, v)),
    ("init_mlp", lambda v: init_mlp([4, 2, 2], v)),
    ("TrainingConfig.shuffle_seed", lambda v: TrainingConfig(shuffle_seed=v)),
    ("SweepSpec.base_seed", lambda v: SweepSpec("neurons", (2,), base_seed=v)),
    ("monte_carlo_outage", lambda v: monte_carlo_outage(
        SubcarrierStats(1.0, 1.0, 1.0, 1.0), SubcarrierPower(1.0, 1.0), 1.0, 10_000, v)),
]


@pytest.mark.parametrize("build", [b for _, b in SEEDS], ids=[name for name, _ in SEEDS])
def test_every_seed_refuses_what_numpy_cannot_seed_with(build):
    build(0)
    build(2**64)  # beyond uint64: a seed sequence takes any size
    with pytest.raises(InvalidArgumentError, match=r"seed must be >= 0, got -1$"):
        build(-1)
    with pytest.raises(InvalidArgumentError, match=r"seed must be an integer, got 1\.5$"):
        build(1.5)
