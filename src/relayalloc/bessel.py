"""Modified Bessel function of the second kind, order one.

Two branches joined at x = 2:

* x <= 2: the ascending series with the logarithmic term,

      K1(x) = 1/x + ln(x/2) I1(x) - (x/4) sum_k c_k (x^2/4)^k,
      I1(x) = (x/2) sum_k (x^2/4)^k / (k! (k+1)!),
      c_k   = (psi(k+1) + psi(k+2)) / (k! (k+1)!),

  with the rational coefficients built exactly from factorials and harmonic
  numbers at import time. At x = 2 the series argument is 1 and terms decay
  factorially, so truncation at k = 20 is far below double precision.

* x > 2: a Chebyshev expansion of the scaled function
  sqrt(x) e^x K1(x) in the variable u = 4/x - 1 in (-1, 1]. The coefficients
  were generated offline from a 50-digit reference and are converged to
  below 3e-18 of the leading term by degree 24.

The scaled variant k1e(x) = e^x K1(x) never underflows and is the form used
by the outage expressions; k1(x) is k1e(x) e^-x, so it underflows gracefully
to 0.0 for x beyond roughly 746 without overflowing any intermediate.

Worst measured relative error against a high-precision reference over
[1e-6, 30] is about 6e-16.

Layout of the series: I1 and the K1 correction are the two rows of one
(2, n) accumulator, and each Horner step is one multiply by a contiguous
(2, n) copy of q = x^2/4 and one add of a 0-d coefficient to each row. No
ufunc call broadcasts, which matters for the outage kernel's small calls:
on a few entries a broadcast operand costs a ufunc call two to four times
its same-shape price. Memory rule: every temporary is O(n), a fixed number
of length-n rows (the series holds two (2, n) buffers), and no table grows
with the number of coefficients times n, since the grid search evaluates
the kernel on tens of thousands of arguments at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

_SERIES_TERMS = 21  # k = 0..20; term 20 is ~1e-37 of the sum at x = 2

_EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399


def _harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n))


# I1 series: (x/2) * sum q^k / (k!(k+1)!), q = x^2/4
_I1_COEF = np.array(
    [1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(_SERIES_TERMS)]
)
# K1 correction series: (x/4) * sum (psi(k+1)+psi(k+2)) q^k / (k!(k+1)!)
_K1_COEF = np.array(
    [
        (-2.0 * _EULER_GAMMA + _harmonic(k + 1) + _harmonic(k + 2))
        / (math.factorial(k) * math.factorial(k + 1))
        for k in range(_SERIES_TERMS)
    ]
)

# Chebyshev coefficients for f(u) = sqrt(x) e^x K1(x), x = 4/(u+1), u in (-1, 1].
# First coefficient is halved in the Clenshaw recurrence below.
_CHEB_K1E = np.array(
    [
        2.7206261904844426694,
        0.10392373657681723844,
        -0.0028578168596227793868,
        0.00019521551847135163111,
        -1.93619797416608296e-05,
        2.4064849478372171171e-06,
        -3.5019606030878125421e-07,
        5.7410841254500492923e-08,
        -1.0345762465678097027e-08,
        2.0150497551970346161e-09,
        -4.1903547593419255842e-10,
        9.2183151876053141258e-11,
        -2.1299678384277910216e-11,
        5.1396396734823435404e-12,
        -1.2891739609498229352e-12,
        3.3484196660522431201e-13,
        -8.9767051820101460692e-14,
        2.4771544242195986813e-14,
        -7.0198370892147688513e-15,
        2.0387031662398608799e-15,
        -6.0570472706430178228e-16,
        1.8380935752430454256e-16,
        -5.6894628491936483743e-17,
        1.7940510478863572914e-17,
        -5.7567444820733024503e-18,
    ]
)


# both series' Horner coefficients from k = 20 down to 0, as (I1, K1
# correction) pairs of 0-d arrays
_SERIES_COEF = [(np.array(a), np.array(b)) for a, b in zip(_I1_COEF[::-1], _K1_COEF[::-1])]


def _k1_series(x: np.ndarray) -> np.ndarray:
    """Ascending series, valid on (0, 2], in the two-row Horner layout the
    module docstring describes."""
    n = len(x)
    quarter = 0.25 * x
    q = np.empty((2, n))
    np.multiply(quarter, x, out=q[0])
    q[1] = q[0]
    acc = np.empty((2, n))
    i1, ks = acc
    i1[...], ks[...] = _SERIES_COEF[0]  # the first step, 0 * q + c, is exactly c
    for a, b in _SERIES_COEF[1:]:
        np.multiply(acc, q, out=acc)
        np.add(i1, a, out=i1)
        np.add(ks, b, out=ks)
    half = 0.5 * x
    i1 *= half
    return 1.0 / x + np.log(half) * i1 - quarter * ks


def _k1e_scaled_large(x: np.ndarray) -> np.ndarray:
    """sqrt(x) e^x K1(x) via Clenshaw on u = 4/x - 1, valid for x >= 2."""
    u = 4.0 / x - 1.0
    u2 = 2.0 * u
    b1, b2, spare = np.zeros((3, len(u)))
    for c in _CHEB_K1E[:0:-1]:  # b1, b2 <- 2 u b1 - b2 + c, b1
        np.add(np.subtract(np.multiply(u2, b1, out=spare), b2, out=spare), c, out=spare)
        b1, b2, spare = spare, b1, b2
    return u * b1 - b2 + 0.5 * _CHEB_K1E[0]


def _validate(x, name: str = "k1", zero: bool = False) -> tuple[np.ndarray, tuple, float]:
    """x flattened, its shape and its least entry. Refuses NaN and x <= 0
    (only x < 0 when ``zero``), naming the function ``name``."""
    arr = np.asarray(x, dtype=float)
    shape, arr = arr.shape, arr.reshape(-1)
    least = np.minimum.reduce(arr, initial=np.inf)  # NaN if any entry is
    if np.isnan(least):
        raise InvalidArgumentError(f"{name} argument is NaN")
    if least < 0 or (least == 0 and not zero):
        raise InvalidArgumentError(f"{name} is defined for x {'>=' if zero else '>'} 0 only")
    return arr, shape, least


def k1(x):
    """K1(x) for x > 0. Accepts scalars or arrays; underflows to 0.0 for
    large x without intermediate overflow."""
    arr, shape, _ = _validate(x)
    out = _k1e(arr) * np.exp(-arr)
    return out.reshape(shape) if shape else float(out[0])


def _k1e(arr: np.ndarray, greatest: float | None = None) -> np.ndarray:
    """e^x K1(x) for a 1-d array of valid (positive) arguments, none above
    ``greatest`` (default: their maximum), unchecked."""
    if greatest is None:
        greatest = np.maximum.reduce(arr, initial=0.0)
    if greatest <= 2.0:
        return _k1_series(arr) * np.exp(arr)
    small = arr <= 2.0
    out = np.empty_like(arr)
    if small.any():
        out[small] = _k1e(arr[small], 2.0)
    xl = arr[~small]
    out[~small] = _k1e_scaled_large(xl) / np.sqrt(xl)
    return out


def k1e(x):
    """Exponentially scaled e^x K1(x); safe for arbitrarily large x."""
    arr, shape, _ = _validate(x)
    out = _k1e(arr)
    return out.reshape(shape) if shape else float(out[0])


def _xk1e(arr: np.ndarray, least: float, greatest: float) -> np.ndarray:
    """x e^x K1(x) for a 1-d array of finite arguments in [least, greatest],
    least >= 0, unchecked; 1 at x = 0."""
    if least > 0:
        return arr * _k1e(arr, greatest)
    out = np.ones_like(arr)
    pos = arr > 0
    out[pos] = arr[pos] * _k1e(arr[pos], greatest)
    return out


def xk1e(x):
    """x e^x K1(x), the combination the outage closed form needs.

    Continuous extension at x = 0: the limit is exactly 1 (x K1(x) -> 1),
    so x = 0 is accepted here even though k1 itself is not defined there.
    At x = inf the limit is inf (x e^x K1(x) grows like sqrt(pi x / 2)).
    """
    arr, shape, least = _validate(x, "xk1e", zero=True)
    greatest = np.maximum.reduce(arr, initial=0.0)
    if greatest < np.inf:
        out = _xk1e(arr, least, greatest)
    else:  # inf * e^inf K1(inf) would be inf * 0
        out = np.full_like(arr, np.inf)
        finite = arr < np.inf
        out[finite] = _xk1e(arr[finite], least, greatest)
    return out.reshape(shape) if shape else float(out[0])
