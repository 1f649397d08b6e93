"""Latency summaries and operation accounting."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, in tenths of a percent. Coarse steps keep the
# chosen percentile the same across runs whose sample counts differ a little.
_TAIL_TENTHS = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def _rank(tenths: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile given in tenths."""
    return max(1, -(-tenths * n // 1000))


def percentile(sorted_values: list[float], tenths: int) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(tenths, len(sorted_values)) - 1]


def tail_tenths(n: int) -> int:
    """Highest candidate percentile with at least MIN_BEYOND samples above it.

    Falls back to the maximum (1000 tenths) when even the median has fewer
    than MIN_BEYOND samples above it.
    """
    for tenths in _TAIL_TENTHS:
        if n - _rank(tenths, n) >= MIN_BEYOND:
            return tenths
    return 1000


def slow_quartile(values, higher_is_better: bool = False) -> float:
    """The quartile of ``values`` on the slow side: the upper quartile of
    times, the lower quartile of rates (``statistics.quantiles``, n=4).

    The machine this benchmark was tuned on alternates between a slow state
    and a fast state about 1.8x apart, for stretches of a fraction of a
    second to tens of seconds, and spends most of its time in the slow one.
    The share of fast time differs from run to run, so the fastest value
    (which needs a fast stretch) and the median (which follows the share)
    jump between runs. The slow-side quartile stays in the slow state unless
    a run is fast for three quarters of its time, so it reads the same from
    run to run, and a change in the program's speed moves it all the same.
    A single value is its own quartile.
    """
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0]
    lower, _, upper = statistics.quantiles(values, n=4)
    return lower if higher_is_better else upper


def blocks_summary(samples_ns: list[int], block: int) -> dict:
    """Median and tail of each block of ``block`` consecutive latencies (ns),
    summarised over the blocks by ``slow_quartile``, in milliseconds.

    The block size fixes the tail percentile through the tail rule (100
    samples give p90, 1000 give p99), so it cannot change between runs that
    answer different numbers of queries. A trailing partial block is
    dropped; with fewer than ``block`` samples, all of them form one block.
    """
    if not samples_ns:
        raise ValueError("no samples")
    if len(samples_ns) < block:
        blocks = [sorted(samples_ns)]
    else:
        blocks = [sorted(samples_ns[k:k + block])
                  for k in range(0, len(samples_ns) - block + 1, block)]
    size = len(blocks[0])
    tenths = tail_tenths(size)
    return {
        "p50_ms": slow_quartile([statistics.median(b) for b in blocks]) / 1e6,
        "tail_ms": slow_quartile([percentile(b, tenths) for b in blocks]) / 1e6,
        "tail_percentile": tenths / 10,
        "samples": len(samples_ns),
        "blocks": len(blocks),
        "block_size": size,
        "beyond_tail_per_block": size - _rank(tenths, size),
        "median_block_p50_ms": statistics.median(statistics.median(b) for b in blocks) / 1e6,
        "fastest_block_p50_ms": min(statistics.median(b) for b in blocks) / 1e6,
    }


class Tally:
    """Attempted and failed operations; an operation fails once at most."""

    MAX_KEPT = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, operation: str, problems: list[str]) -> bool:
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.failures) < self.MAX_KEPT:
            self.failures.append(f"{operation}: {'; '.join(problems)}")
        return False

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: self.MAX_KEPT - len(self.failures)]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
