import math

import numpy as np
import pytest

from relayalloc import InvalidArgumentError, k1, k1e, xk1e

mpmath = pytest.importorskip("mpmath")

# Frozen reference values, computed from the defining integral
# K1(x) = int_0^inf exp(-x cosh t) cosh t dt with 30-digit quadrature and
# cross-checked against an independent arbitrary-precision implementation.
K1_AT_1 = 0.601907230197234574737540001536
K1_AT_10 = 1.864877345382558459682e-05


def mp_k1(x: float) -> float:
    return float(mpmath.besselk(1, mpmath.mpf(repr(x))))


def test_reference_point_one():
    assert abs(k1(1.0) - K1_AT_1) < 1e-15


def test_reference_point_ten():
    assert abs(k1(10.0) - K1_AT_10) / K1_AT_10 < 1e-14


def test_quadrature_self_check():
    # the library value, the integral definition and the reference
    # implementation must all agree
    mpmath.mp.dps = 30
    for x in [0.5, 1.0, 3.0, 8.0]:
        quad = mpmath.quad(
            lambda t, x=x: mpmath.exp(-x * mpmath.cosh(t)) * mpmath.cosh(t),
            [0, 5, 25],
        )
        assert abs(float(quad) - mp_k1(x)) / mp_k1(x) < 1e-15
        assert abs(k1(x) - float(quad)) / float(quad) < 1e-13


def test_two_term_tail_approximation_gap():
    # sqrt(pi/(2x)) e^-x (1 + 3/(8x)) at x = 10 sits about 1.04e-3 relative
    # above the true value; the implementation must track the true value,
    # not the truncated tail expansion.
    x = 10.0
    tail = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 3 / (8 * x))
    gap = (tail - K1_AT_10) / K1_AT_10
    assert 8e-4 < gap < 1.2e-3
    assert abs(k1(x) - K1_AT_10) / K1_AT_10 < 1e-13


def test_relative_error_on_log_grid():
    xs = np.geomspace(1e-6, 30.0, 400)
    ours = k1(xs)
    for x, v in zip(xs, ours):
        ref = mp_k1(float(x))
        assert abs(v - ref) / ref < 1e-13


def test_branch_seam_is_continuous():
    # both branches agree with the reference at the switch point, which
    # bounds any jump there by ~2e-13 relative
    series_side = k1(2.0)
    cheb_side = k1(np.nextafter(2.0, 3.0))
    ref = mp_k1(2.0)
    assert abs(series_side - ref) / ref < 1e-13
    assert abs(cheb_side - ref) / ref < 1e-13


def test_monotone_decreasing():
    xs = np.geomspace(1e-4, 50.0, 200)
    vals = k1(xs)
    assert (np.diff(vals) < 0).all()


def test_scaled_variant_matches_unscaled():
    for x in [0.01, 0.5, 1.9, 2.0, 2.1, 7.0, 25.0]:
        assert abs(k1e(x) - k1(x) * math.exp(x)) / k1e(x) < 1e-14


def test_scaled_variant_survives_huge_arguments():
    big = k1e(1e6)
    assert np.isfinite(big) and big > 0
    # ~ sqrt(pi/(2x)) for large x
    assert abs(big - math.sqrt(math.pi / 2e6)) / big < 1e-3


def test_unscaled_underflows_to_zero():
    assert k1(800.0) == 0.0
    assert k1(5000.0) == 0.0


def test_small_argument_spike():
    # K1(x) ~ 1/x as x -> 0
    for x in [1e-6, 1e-4, 1e-2]:
        assert abs(k1(x) * x - 1.0) < 1e-3


@pytest.mark.parametrize("f", [k1, k1e, xk1e])
def test_arrays_of_any_shape_give_the_flat_values_in_that_shape(f):
    # a block of arguments on one side of the seam, then one mixing both
    for xs in (np.geomspace(0.01, 1.9, 6).reshape(3, 2),
               np.geomspace(0.5, 9.0, 12).reshape(2, 3, 2)):
        out = f(xs)
        assert out.shape == xs.shape
        assert out.tobytes() == f(xs.reshape(-1)).tobytes()
        assert out.reshape(-1).tolist() == [f(float(x)) for x in xs.reshape(-1)]


def test_xk1e_limit_and_consistency():
    assert xk1e(0.0) == 1.0
    assert xk1e(np.array([0.0]))[0] == 1.0
    for x in [1e-8, 1e-3, 1.0, 10.0]:
        assert abs(xk1e(x) - x * k1e(x)) == 0.0
    # near zero the scaling factor e^x dominates: x e^x K1(x) = 1 + x + O(x^2 ln x)
    assert abs(xk1e(1e-8) - 1.0) < 2e-8


def test_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        k1(0.0)
    with pytest.raises(InvalidArgumentError):
        k1(-1.0)
    with pytest.raises(InvalidArgumentError):
        k1(float("nan"))
    with pytest.raises(InvalidArgumentError):
        xk1e(-1e-9)
    with pytest.raises(InvalidArgumentError):
        xk1e(float("nan"))


def test_array_and_scalar_agree():
    xs = np.array([0.3, 1.0, 2.0, 5.0, 20.0])
    arr = k1(xs)
    for x, v in zip(xs, arr):
        assert v == k1(float(x))
