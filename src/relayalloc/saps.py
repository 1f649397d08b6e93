"""Subcarrier activation patterns (SAPs) and index-modulation bit accounting.

A SAP is a set of T active subcarriers out of N. Only a power-of-two number
of patterns can be addressed by an integer number of index bits, so the
number of legitimate SAPs is Xi = 2^floor(log2 C(N, T)) and the patterns are
the first Xi T-subsets of {1..N} in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

MAX_SUBCARRIERS = 64


@dataclass(frozen=True)
class Sap:
    """One activation pattern: strictly increasing 1-based subcarrier indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise InvalidArgumentError("a SAP needs at least one active subcarrier")
        if any(i < 1 for i in self.indices):
            raise InvalidArgumentError(f"subcarrier indices are 1-based, got {self.indices}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise InvalidArgumentError(
                f"SAP indices must be strictly increasing, got {self.indices}"
            )

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class SapSet:
    """The legitimate patterns for an (N, T) configuration."""

    n: int
    t: int
    saps: tuple[Sap, ...]

    def __post_init__(self):
        _validate_nt(self.n, self.t)
        for sap in self.saps:
            if len(sap) != self.t:
                raise InvalidArgumentError(
                    f"pattern {sap.indices} does not activate t={self.t} subcarriers"
                )
            if sap.indices[-1] > self.n:
                raise InvalidArgumentError(
                    f"pattern {sap.indices} references a subcarrier beyond n={self.n}"
                )

    @property
    def xi(self) -> int:
        return len(self.saps)


def _validate_nt(n: int, t: int) -> None:
    if not (isinstance(n, int) and isinstance(t, int)):
        raise InvalidArgumentError(f"n and t must be integers, got {n!r}, {t!r}")
    if not (1 <= t <= n):
        raise InvalidArgumentError(f"need 1 <= t <= n, got n={n}, t={t}")
    if n > MAX_SUBCARRIERS:
        raise InvalidArgumentError(f"n={n} exceeds the supported cap of {MAX_SUBCARRIERS}")


def _check_m(m: int) -> None:
    """m must be a power of two >= 2 (PSK constellation order)."""
    if not (isinstance(m, int) and m >= 2 and m & (m - 1) == 0):
        raise InvalidArgumentError(f"m must be a power of two >= 2, got {m!r}")


def legitimate_sap_count(n: int, t: int) -> int:
    """Xi = 2^floor(log2 C(n, t)), computed exactly in integers."""
    _validate_nt(n, t)
    c = math.comb(n, t)
    return 1 << (c.bit_length() - 1)


def enumerate_saps(n: int, t: int) -> SapSet:
    """First Xi T-subsets of {1..n} in lexicographic order.

    The full C(n, t) enumeration is never materialized beyond the Xi patterns
    actually kept.
    """
    xi = legitimate_sap_count(n, t)
    combos = itertools.islice(itertools.combinations(range(1, n + 1), t), xi)
    saps = tuple(Sap(indices=c) for c in combos)
    return SapSet(n=n, t=t, saps=saps)


def bitstream_length(n: int, t: int, m: int) -> int:
    """Bits per block: floor(log2 C(n, t)) index bits plus t*log2(m) symbol bits."""
    _validate_nt(n, t)
    _check_m(m)
    index_bits = math.comb(n, t).bit_length() - 1
    symbol_bits = t * (m.bit_length() - 1)
    return index_bits + symbol_bits
