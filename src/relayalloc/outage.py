"""Outage probability of a two-hop fixed-gain amplify-and-forward link.

Per subcarrier, the source transmits with power pt through a Rayleigh
channel with mean power gain mu1, the relay amplifies with power pr through
a second Rayleigh channel with mean gain mu2, and the two hops add noise
with powers eta1 and eta2. The end-to-end SNR is

    snr = pt * pr * g1 * g2 / (pr * g2 * eta1 + eta2),

with g1, g2 exponential with means mu1, mu2. The outage probability below a
threshold s has the closed form

    Phi(s) = 1 - 2 sqrt(A) K1(2 sqrt(A)) exp(-s eta1 / (mu1 pt)),
    A      = s eta2 / (mu1 mu2 pt pr),

evaluated here in the exponentially scaled form

    Phi(s) = 1 - [z e^z K1(z)] * exp(-(z + s eta1 / (mu1 pt))),  z = 2 sqrt(A),

which neither underflows nor overflows for any positive arguments; the
bracket tends to 1 as z -> 0, so eta2 -> 0 and large-power limits are exact.

A block of active subcarriers is in outage when any of them is; averaging
that over the legitimate activation patterns gives the pattern-averaged
outage. Both live in one batched kernel, ``_block_outage``, in the dataset
layout: (..., 4, cols) statistic matrices and (..., 2 cols) allocations,
pt then pr, whose batch shapes broadcast, so one call covers a whole
dataset or one allocation. Gates, result re-checks, dataset checks, the
comparison and the repair reach it through ``gridsearch._outage``; the
grid scan calls its two steps, ``_phi`` (once per level for every (pt, pr)
pair) and ``_combine`` (on the cells the search tests); the scalar
functions below are thin calls into it. A seeded Monte-Carlo estimator
provides the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import _xk1e, xk1e
from .errors import InvalidArgumentError, NumericConsistencyError, check_finite
from .saps import SapSet

_PROB_TOL = 1e-12
_MC_MIN_TRIALS = 10_000
_MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class SubcarrierStats:
    """Channel statistics of one subcarrier: hop gain means and noise powers."""

    mu1: float
    mu2: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "eta1", "eta2"):
            check_finite(name, getattr(self, name))


@dataclass(frozen=True)
class SubcarrierPower:
    """Transmit/relay power pair for one subcarrier."""

    pt: float
    pr: float

    def __post_init__(self):
        for name in ("pt", "pr"):
            check_finite(name, getattr(self, name), positive=False)


@dataclass(frozen=True)
class OutageQuery:
    """Inputs of a pattern-averaged outage evaluation.

    stats and powers are indexed by subcarrier (1-based indices in the SAPs
    refer to position i -> stats[i-1]).
    """

    s: float
    stats: tuple[SubcarrierStats, ...]
    powers: tuple[SubcarrierPower, ...]
    sap_set: SapSet

    def __post_init__(self):
        check_finite("snr threshold", self.s)
        if len(self.stats) != len(self.powers):
            raise InvalidArgumentError(
                f"stats and powers lengths differ: {len(self.stats)} vs {len(self.powers)}"
            )
        top = max(i for sap in self.sap_set.saps for i in sap.indices)
        if top > len(self.stats):
            raise InvalidArgumentError(
                f"SAP references subcarrier {top} but only {len(self.stats)} stats given"
            )


@dataclass(frozen=True)
class MonteCarloEstimate:
    probability: float
    std_error: float
    trials: int


def end_to_end_snr(g1, g2, power: SubcarrierPower, eta1: float, eta2: float):
    """Instantaneous SNR for channel gain draws g1, g2 (scalar or array)."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    return (power.pt * power.pr * g1 * g2) / (power.pr * g2 * eta1 + eta2)


def _clamp_probability(p) -> np.ndarray:
    """p as an at least 1-d array clipped to [0, 1]; a NaN or an entry
    beyond the tolerance raises. When every entry is already in [0, 1] the
    array is returned as it is: the clip would change nothing."""
    arr = np.asarray(p, dtype=float)
    if not arr.ndim:
        arr = arr.reshape(1)
    if (np.minimum.reduce(arr, axis=None, initial=np.inf) >= 0.0
            and np.maximum.reduce(arr, axis=None, initial=-np.inf) <= 1.0):
        return arr
    bad = arr[~((arr >= -_PROB_TOL) & (arr <= 1.0 + _PROB_TOL))]  # NaN fails too
    if bad.size:
        raise NumericConsistencyError(
            f"outage probability escaped [0, 1] beyond tolerance: {bad[:4]}"
        )
    return np.clip(arr, 0.0, 1.0)


def _phi(mu1, mu2, eta1, eta2, pt, pr, s: float) -> np.ndarray:
    """Phi(s) elementwise over broadcastable arrays (zero or NaN power, or
    an A that overflows, -> 1).

    The statistics broadcast as they come, so they are never copied out to
    the full shape. Where some power is not positive, both powers become 1
    there (dividing by no zero) and the Bessel factor runs on the positive
    entries only; each positive entry's arithmetic is the same either way.
    An infinite z (A overflows when the powers are tiny) is left out the
    same way: its limit is 1, and the product would give inf * 0 = NaN.
    """
    on = True
    every = (np.minimum.reduce(pt, axis=None, initial=np.inf) > 0.0
             and np.minimum.reduce(pr, axis=None, initial=np.inf) > 0.0)  # NaN fails too
    if not every:
        on = np.greater(pt, 0.0) & np.greater(pr, 0.0)
        pt, pr = np.where(on, pt, 1.0), np.where(on, pr, 1.0)
    b = s * eta1 / (mu1 * pt)
    a = s * eta2 / (mu1 * mu2 * pt * pr)
    z = 2.0 * np.sqrt(a)
    flat = z.reshape(-1)
    greatest = np.maximum.reduce(flat, initial=0.0)
    if every and greatest < np.inf:  # a NaN fails too: z is finite and >= 0, xk1e's checks pass
        least = np.minimum.reduce(flat, initial=np.inf)
        out = 1.0 - _xk1e(flat, least, greatest).reshape(z.shape) * np.exp(-(z + b))
    else:
        on = np.broadcast_to(on, z.shape) & (z != np.inf)
        out, z, b = np.ones(z.shape), z[on], np.broadcast_to(b, on.shape)[on]
        out[on] = 1.0 - xk1e(z) * np.exp(-(z + b))
    return _clamp_probability(out).reshape(np.shape(a))


def _block_outage(samples, vec, s: float, patterns) -> np.ndarray:
    """Batched block outage averaged over activation patterns.

    ``samples`` holds (..., 4, cols) statistic matrices, rows mu1, mu2,
    eta1, eta2 and one column per subcarrier; ``vec`` holds (..., 2 cols)
    allocations, pt_1..pt_cols then pr_1..pr_cols. Their batch shapes
    broadcast, so one call covers a dataset, one matrix under many
    allocations or many matrices under one. ``patterns`` lists the 0-based
    active subcarriers of each pattern.
    """
    samples, vec = np.asarray(samples, dtype=float), np.asarray(vec, dtype=float)
    cols = samples.shape[-1]
    stats = (samples[..., row, :] for row in range(4))
    q = 1.0 - _phi(*stats, vec[..., :cols], vec[..., cols:], s)
    return _combine([q[..., j] for j in range(cols)], patterns)


def _combine(q, patterns) -> np.ndarray:
    """Mean over patterns of 1 - prod_(j in pattern) q_j, with q_j = 1 - Phi_j.

    The only place the block combination is computed. Every step (product
    of factors in [0, 1], ``1 -``, sum, division) is monotone under IEEE
    rounding, so the result never rises when any q_j rises.
    """
    total = None
    for pattern in patterns:
        factors = [q[j] for j in pattern]
        prod = factors[0] if factors else 1.0  # 1.0 * q_j would be q_j exactly
        for f in factors[1:]:
            prod = prod * f
        term = 1.0 - prod
        total = term if total is None else total + term
    if len(patterns) > 1:
        total = total / len(patterns)
    if len({j for pattern in patterns for j in pattern}) < len(q):  # some q is in no pattern
        total = np.broadcast_to(total, np.broadcast_shapes(*(np.shape(x) for x in q))).copy()
    return _clamp_probability(total).reshape(np.shape(total))


def outage_grid(stats: SubcarrierStats, pt, pr, s: float) -> np.ndarray:
    """Vectorized Phi(s) over broadcastable power arrays (zero power -> 1)."""
    check_finite("snr threshold", s)
    pt = np.asarray(pt, dtype=float)
    pr = np.asarray(pr, dtype=float)
    for extreme in (pt.min(initial=0.0), pt.max(initial=0.0), pr.min(initial=0.0),
                    pr.max(initial=0.0)):  # a NaN entry makes its extremes NaN
        check_finite("powers", float(extreme), positive=False)
    return _phi(stats.mu1, stats.mu2, stats.eta1, stats.eta2, pt, pr, s)


def subcarrier_outage(stats: SubcarrierStats, power: SubcarrierPower, s: float) -> float:
    """Closed-form P(snr < s) for one subcarrier."""
    return float(outage_grid(stats, power.pt, power.pr, s))


def combine_active_outages(phis) -> float:
    """Block outage 1 - prod_i (1 - phi_i) over the active subcarriers."""
    q = [1.0 - phi for phi in phis]
    return float(_combine(q, (range(len(q)),)))


def _one_block(stats, powers, s: float, patterns) -> float:
    if stats:
        check_finite("snr threshold", s)
    matrix = [[getattr(st, name) for st in stats] for name in ("mu1", "mu2", "eta1", "eta2")]
    vec = [pw.pt for pw in powers] + [pw.pr for pw in powers]
    return float(_block_outage(matrix, vec, s, patterns))


def all_active_outage(stats, powers, s: float) -> float:
    """Block outage with every listed subcarrier active."""
    if len(stats) != len(powers):
        raise InvalidArgumentError("stats and powers lengths differ")
    return _one_block(stats, powers, s, (range(len(stats)),))


def average_outage(query: OutageQuery) -> float:
    """Outage averaged over the legitimate activation patterns.

    For each pattern the block is in outage when any active subcarrier is;
    inactive subcarriers do not contribute.
    """
    patterns = [[i - 1 for i in sap.indices] for sap in query.sap_set.saps]
    return _one_block(query.stats, query.powers, query.s, patterns)


def monte_carlo_outage(
    stats: SubcarrierStats,
    power: SubcarrierPower,
    s: float,
    trials: int,
    seed: int,
) -> MonteCarloEstimate:
    """Empirical P(snr < s) from seeded exponential channel draws.

    Draws are consumed in fixed-size chunks from one generator, so the
    estimate is deterministic in (trials, seed) and memory stays bounded.
    """
    check_finite("snr threshold", s)
    if trials < _MC_MIN_TRIALS:
        raise InvalidArgumentError(f"trials must be >= {_MC_MIN_TRIALS}, got {trials}")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        g1 = rng.exponential(stats.mu1, n)
        g2 = rng.exponential(stats.mu2, n)
        snr = end_to_end_snr(g1, g2, power, stats.eta1, stats.eta2)
        hits += int(np.count_nonzero(snr < s))
        done += n
    p = hits / trials
    se = float(np.sqrt(p * (1.0 - p) / trials))
    return MonteCarloEstimate(probability=p, std_error=se, trials=trials)
