"""Sieved arithmetic functions and their summatory sums.

One construction pass fills dense tables of the Euler totient phi, the
Mobius function mu, the divisor count tau, the divisor sum sigma, and the
smallest prime factor, for every integer up to a bound N.  The tables are
immutable after construction and safe to share across threads; all queries
are pure lookups or prefix-sum reads.

Prefix sums of phi and tau are precomputed so that the summatory functions
Phi(x) = sum_{m<=x} phi(m) and sum_{m<=x} tau(m) are O(1) per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# largest product bound we trust to an int64 accumulator
_INT64_SAFE = 2**62
# largest table limit build_tables accepts: its seven arrays then take
# about 450 MB
TABLE_LIMIT = 10**7


@dataclass(frozen=True)
class ArithTables:
    """Arithmetic function tables up to ``limit``, 1-indexed (index 0 unused).

    Attributes:
        limit: largest argument covered.
        phi: int64, phi[m] = Euler totient of m.
        mobius: int8, mobius[m] in {-1, 0, 1}.
        tau: int32, number of divisors.
        sigma: int64, sum of divisors.
        spf: int64, smallest prime factor (0 for m < 2).
        phi_prefix: int64, phi_prefix[m] = sum_{k<=m} phi(k).
        tau_prefix: int64, tau_prefix[m] = sum_{k<=m} tau(k).
    """

    limit: int
    phi: np.ndarray
    mobius: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray
    spf: np.ndarray
    phi_prefix: np.ndarray
    tau_prefix: np.ndarray


def build_tables(limit: int) -> ArithTables:
    """Sieve all tables up to ``limit`` (inclusive).

    Vectorized Eratosthenes-style passes: smallest prime factor first, then
    phi and mu from the prime list, then tau and sigma by a harmonic sweep
    over divisors.  Raises ResourceLimitError above TABLE_LIMIT, before
    allocating anything.
    """
    if limit < 1:
        raise ValueError(f"table limit must be >= 1, got {limit}")
    if limit > TABLE_LIMIT:
        raise ResourceLimitError(f"table limit {limit} exceeds the cap {TABLE_LIMIT}")
    n = int(limit)
    size = n + 1

    spf = np.zeros(size, dtype=np.int64)
    for p in range(2, n + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    primes = np.nonzero(spf[2:] == np.arange(2, size))[0] + 2 if n >= 2 else np.array([], dtype=np.int64)

    phi = np.arange(size, dtype=np.int64)
    phi[0] = 0
    mobius = np.zeros(size, dtype=np.int8)
    mobius[1:] = 1
    for p in primes:
        phi[p::p] -= phi[p::p] // p
        mobius[p::p] *= -1
        if p * p <= n:
            mobius[p * p :: p * p] = 0

    tau = np.zeros(size, dtype=np.int32)
    sigma = np.zeros(size, dtype=np.int64)
    for d in range(1, n + 1):
        tau[d::d] += 1
        sigma[d::d] += d

    phi_prefix = np.cumsum(phi, dtype=np.int64)
    tau_prefix = np.cumsum(tau, dtype=np.int64)

    for arr in (spf, phi, mobius, tau, sigma, phi_prefix, tau_prefix):
        arr.setflags(write=False)
    return ArithTables(
        limit=n,
        phi=phi,
        mobius=mobius,
        tau=tau,
        sigma=sigma,
        spf=spf,
        phi_prefix=phi_prefix,
        tau_prefix=tau_prefix,
    )


def _floor_index(tables: ArithTables, x: float) -> int:
    m = math.floor(x)
    if m > tables.limit:
        raise ValueError(f"summatory argument {x} exceeds table limit {tables.limit}")
    return m


def phi_summatory(tables: ArithTables, x: float) -> int:
    """Totient summatory Phi(x) = sum_{m <= floor(x)} phi(m); exact integer."""
    m = _floor_index(tables, x)
    if m < 1:
        return 0
    return int(tables.phi_prefix[m])


def tau_summatory(tables: ArithTables, x: float) -> int:
    """Divisor-count summatory sum_{m <= floor(x)} tau(m); exact integer."""
    m = _floor_index(tables, x)
    if m < 1:
        return 0
    return int(tables.tau_prefix[m])


def phi_pair_summatory(tables: ArithTables, a1: int, a2: int, x: float) -> int:
    """Exact sum_{m <= floor(x)} phi(a1*m) * phi(a2*m).

    Requires a1*floor(x) and a2*floor(x) within the table.  Uses int64
    vector products when the a1*a2*x^3 bound proves them safe, otherwise
    falls back to exact Python integers (overflow is never silent).
    """
    if a1 < 1 or a2 < 1:
        raise ValueError("strides a1, a2 must be positive")
    m = math.floor(x)
    if m < 1:
        return 0
    if a1 * m > tables.limit or a2 * m > tables.limit:
        raise ValueError(
            f"phi_pair_summatory needs tables up to {max(a1, a2) * m}, limit is {tables.limit}"
        )
    if a1 * a2 * m**3 < _INT64_SAFE:
        idx = np.arange(1, m + 1, dtype=np.int64)
        prods = tables.phi[a1 * idx] * tables.phi[a2 * idx]
        return int(prods.sum(dtype=np.int64))
    phi = tables.phi
    return sum(int(phi[a1 * k]) * int(phi[a2 * k]) for k in range(1, m + 1))


def gcd_lcm(a: int, b: int) -> tuple[int, int]:
    """Greatest common divisor and least common multiple of positive a, b."""
    if a < 1 or b < 1:
        raise ValueError("gcd_lcm requires positive integers")
    g = math.gcd(a, b)
    return g, (a // g) * b
