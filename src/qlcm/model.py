"""Random-set model and the lcm-degree statistic.

A set A is drawn from {1, ..., n} by including each element independently
with probability alpha.  The statistic of interest is the degree of
lcm{ [k]_q : k in A }, computed through the covered-divisor identity

    X = sum over 1 < d <= n of phi(d) * [some multiple of d lies in A],

which the polynomial oracles in ``qpoly`` verify independently.

Monte Carlo trials run in blocks of membership bitmaps, one row per trial.
Coverage is found for the whole block at once by a transform over
multiples, done in place: for each prime p <= isqrt(n), d runs downwards
in levels (hi // p, hi] and row bit d takes the or of bit d * p, which an
earlier level has already finished.  A larger prime P has one level,
d < P, so for each d one gather takes the or over every such P at once.
Once every prime is done, bit d is set exactly when some multiple of d is
in the set, and a trial's degree is its row of bits dotted with phi.  At
n = 20000 that is 224 vector operations per block (85 slices for the 34
small primes, 139 gathers for the 2,228 large ones) instead of one per d,
19,999; ``degree_statistic`` keeps the per-d loop as the oracle.

Trials are keyed, not streamed: trial i of a run with seed s uses a Philox
generator keyed by (s, i), so any subset of trials can be regenerated in any
order, on any worker count, with identical bits.  Each bit compares one raw
Philox word with a cut, without the float conversion.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ArithTables, as_fraction, check_point, split_primes
from .errors import ResourceLimitError

ENUMERATION_LIMIT = 22
# trials per block of membership bits, and the bytes of bits one block may
# hold: 128 rows of n + 1 bytes up to n = 32767, fewer rows above
BLOCK_SIZE = 128
BLOCK_BYTES = 1 << 22
# raw Philox words one draw holds at a time (512 KiB)
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one simulation run."""

    n: int
    alpha: float
    seed: int
    trials: int

    def __post_init__(self):
        check_point(self.n, self.alpha)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    mean: float
    variance: float
    stderr: float
    degrees: np.ndarray


@dataclass(frozen=True)
class ExactDistribution:
    """Exact pmf of the degree statistic, all quantities rational."""

    pmf: dict
    mean: Fraction
    variance: Fraction


def sample_set(params: ModelParams, trial_index: int) -> np.ndarray:
    """Membership bitmap for one keyed trial; independent of all others."""
    if not 0 <= trial_index < params.trials:
        raise ValueError(f"trial_index {trial_index} outside 0..{params.trials - 1}")
    bits = np.zeros(params.n + 1, dtype=bool)
    _draw(params, trial_index, bits[1:])
    return bits


def degree_statistic(subset: np.ndarray, n: int, tables: ArithTables) -> int:
    """Degree of the lcm of q-analogs of the set, by the covered-divisor sum."""
    check_point(n, tables=tables)
    phi = tables.phi
    total = 0
    for d in range(2, n + 1):
        if subset[d::d].any():
            total += int(phi[d])
    return total


def _draw(params: ModelParams, trial_index: int, out: np.ndarray) -> None:
    """Write the membership bits of elements 1..n of one keyed trial into out.

    Bit k is Generator(Philox(key)).random(n)[k - 1] < alpha, with key =
    (seed << 64) | trial_index.  That uniform is (raw >> 11) * 2^-53 for the
    raw Philox word, so the bit is raw < ceil(alpha * 2^53) << 11.  The words
    are drawn DRAW_CHUNK at a time, which continues the same stream.
    """
    # at alpha = 1 the cut is 2^64, past uint64: numpy compares it exactly
    cut = math.ceil(params.alpha * 2**53) << 11
    bit_gen = np.random.Philox(key=(params.seed << 64) | trial_index)
    for s in range(0, params.n, DRAW_CHUNK):
        e = min(s + DRAW_CHUNK, params.n)
        np.less(bit_gen.random_raw(e - s), cut, out=out[s:e])


def _draw_block(params: ModelParams, start: int, stop: int) -> np.ndarray:
    """Membership bitmaps over 0..n of trials start..stop-1, one row each."""
    bits = np.empty((stop - start, params.n + 1), dtype=bool)
    bits[:, 0] = False
    for i in range(start, stop):
        _draw(params, i, bits[i - start, 1:])
    return bits


def _block_rows(n: int, block_size: int = BLOCK_SIZE) -> int:
    """Rows of a block over 0..n: block_size, or as many as fit in
    BLOCK_BYTES, and at least one."""
    return max(1, min(block_size, BLOCK_BYTES // (n + 1)))


def _block_degrees(bits: np.ndarray, tables: ArithTables) -> np.ndarray:
    """The degree of each row of a block of membership bitmaps over 0..n,
    by the coverage transform; it overwrites bits with the covered ones."""
    n = bits.shape[1] - 1
    small, large, counts = split_primes(n)
    for p in small.tolist():
        hi = n // p
        while hi > 1:
            lo = max(hi // p, 1)
            bits[:, lo + 1 : hi + 1] |= bits[:, (lo + 1) * p : hi * p + 1 : p]
            hi = lo
    # a large prime P has one level, d < P, and its passes commute, since
    # d * P * P' > n: one op per d covers d from every d * P at once
    for d, k in enumerate(counts[1:], 2):
        bits[:, d] |= bits[:, d * large[:k]].any(axis=1)
    return np.einsum("ij,j->i", bits[:, 2:], tables.phi[2 : n + 1])


def monte_carlo(
    params: ModelParams,
    tables: ArithTables,
    workers: int = 1,
    block_size: int = BLOCK_SIZE,
) -> MonteCarloSummary:
    """Simulate the degree statistic over keyed trials.

    Each running block holds block_size rows of n + 1 bytes of membership
    bits, fewer where that would pass BLOCK_BYTES; the coverage transform's
    per-block cost is small enough that 128 rows take only a few percent
    longer than 256, for half the memory.

    Mean and variance come from exact integer sums of the per-trial degrees
    (converted through Fraction), so the summary is bit-identical for any
    worker count or block size.
    """
    check_point(params.n, tables=tables)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = _block_rows(params.n, block_size)
    spans = [(s, min(s + rows, params.trials)) for s in range(0, params.trials, rows)]
    # more threads than cores or blocks add no speed, only block memory
    pool_size = min(workers, len(spans), os.cpu_count() or 1)

    def block(span):
        return _block_degrees(_draw_block(params, *span), tables)

    if pool_size == 1:
        parts = [block(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(block, spans))
    degrees = np.concatenate(parts)
    t = params.trials
    s1 = int(degrees.sum())
    s2 = sum(int(x) * int(x) for x in degrees)
    mean = float(Fraction(s1, t))
    if t >= 2:
        variance = float(Fraction(t * s2 - s1 * s1, t * (t - 1)))
    else:
        variance = 0.0
    stderr = float(np.sqrt(variance / t))
    return MonteCarloSummary(
        trials=t,
        mean=mean,
        variance=variance,
        stderr=stderr,
        degrees=degrees,
    )


@functools.lru_cache(maxsize=ENUMERATION_LIMIT)
def _subset_counts(n: int, phi: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(x, size, count) over all 2^n subsets of 1..n: count sets of that size
    have degree x.  Walks the subset lattice once, carrying the
    covered-divisor mask; phi holds phi(0..n).  The counts do not depend on
    alpha, so each n is walked once per process (n <= ENUMERATION_LIMIT
    keeps the cache to that many entries)."""
    divs = [[] for _ in range(n + 1)]
    divmask = [0] * (n + 1)
    for k in range(1, n + 1):
        for d in range(2, k + 1):
            if k % d == 0:
                divs[k].append(d)
                divmask[k] |= 1 << (d - 2)

    counts: dict[tuple[int, int], int] = {}

    def walk(k: int, cov: int, x: int, size: int):
        if k > n:
            key = (x, size)
            counts[key] = counts.get(key, 0) + 1
            return
        walk(k + 1, cov, x, size)
        gain = 0
        for d in divs[k]:
            if not (cov >> (d - 2)) & 1:
                gain += phi[d]
        walk(k + 1, cov | divmask[k], x + gain, size + 1)

    walk(1, 0, 0, 0)
    return tuple((x, size, c) for (x, size), c in counts.items())


def enumerate_exact(n: int, alpha, tables: ArithTables) -> ExactDistribution:
    """Exact distribution of the degree statistic over all 2^n sets.

    Weights the walk's count of each (degree, set size s) by
    alpha^s (1-alpha)^(n-s) in exact rationals.  Memory is O(n) plus the
    counts; time is O(2^n) for the first alpha at an n, capped at
    n = ENUMERATION_LIMIT.
    """
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration over 2^{n} sets refused (limit n <= {ENUMERATION_LIMIT})"
        )
    check_point(n, alpha, tables)
    a = as_fraction(alpha)
    counts = _subset_counts(n, tuple(int(x) for x in tables.phi[: n + 1]))

    b = 1 - a
    wt = [a**s * b ** (n - s) for s in range(n + 1)]
    pmf: dict[int, Fraction] = {}
    for x, s, c in counts:
        w = c * wt[s]
        if w:
            pmf[x] = pmf.get(x, Fraction(0)) + w
    mean = sum((Fraction(x) * p for x, p in pmf.items()), Fraction(0))
    second = sum((Fraction(x * x) * p for x, p in pmf.items()), Fraction(0))
    return ExactDistribution(
        pmf=dict(sorted(pmf.items())),
        mean=mean,
        variance=second - mean * mean,
    )
