"""Random-set model and the lcm-degree statistic.

A set A is drawn from {1, ..., n} by including each element independently
with probability alpha.  The statistic of interest is the degree of
lcm{ [k]_q : k in A }, computed through the covered-divisor identity

    X = sum over 1 < d <= n of phi(d) * [some multiple of d lies in A],

which the polynomial oracles in ``qpoly`` verify independently.

Monte Carlo trials run in blocks of byte planes over 0..n: bit t of
plane j holds the membership bits of trial 8j + t of the block, so a
byte carries eight trials.  Coverage is found for the whole block at once
by a transform over multiples, done in place with bitwise or: for each
prime p <= isqrt(n), d runs downwards in levels (hi // p, hi] and element
d takes the or of element d * p, which an earlier level has already
finished.  A larger prime P has one level, d < P, so for each d one gather
takes the or over every such P at once.  Once every prime is done, bit t
of element d is set exactly when some multiple of d is in trial t's set.
A trial's degree is the phi-weighted count of its set bits: one weighted
histogram of the 256 byte values per plane, times the table of their bits.
At n = 20000 that is 224 vector operations per block (85 slices for the 34
small primes, 139 gathers for the 2,228 large ones) instead of one per d,
19,999, each over one byte per eight trials; ``degree_statistic`` keeps
the per-d loop as the oracle.

Trials are keyed, not streamed: trial i of a run with seed s uses a Philox
generator keyed by (s, i), so any subset of trials can be regenerated in any
order, on any worker count, with identical bits.  Each thread keeps one
Philox and re-keys it before every trial.  Each bit compares one raw Philox
word with a cut, without the float conversion.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import ArithTables, as_fraction, check_point, split_primes
from .errors import ResourceLimitError

ENUMERATION_LIMIT = 22
# trials per block, and the bound on rows * (n + 1): 128 rows up to
# n = 32767, fewer above; a block's planes take ceil(rows / 8) * (n + 1) bytes
BLOCK_SIZE = 128
BLOCK_BYTES = 1 << 22
# raw Philox words one draw holds at a time (512 KiB)
DRAW_CHUNK = 1 << 16


class _Params(NamedTuple):
    n: int
    alpha: float
    seed: int
    trials: int


class ModelParams(_Params):
    """Parameters of one simulation run, checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_point(self.n, self.alpha)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        return self


class MonteCarloSummary(NamedTuple):
    trials: int
    mean: float
    variance: float
    stderr: float
    degrees: np.ndarray


class ExactDistribution(NamedTuple):
    """Exact pmf of the degree statistic, all quantities rational."""

    pmf: dict
    mean: Fraction
    variance: Fraction


def sample_set(params: ModelParams, trial_index: int) -> np.ndarray:
    """Membership bitmap for one keyed trial; independent of all others."""
    if not 0 <= trial_index < params.trials:
        raise ValueError(f"trial_index {trial_index} outside 0..{params.trials - 1}")
    bits = np.zeros(params.n + 1, dtype=bool)
    _draw(params, trial_index, bits[1:].view(np.uint8))
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


# one Philox per thread, re-keyed before each trial: constructing one builds
# a SeedSequence from OS entropy, which costs about ten times the re-key
_LOCAL = threading.local()


def _keyed_philox(seed: int, trial_index: int) -> np.random.Philox:
    """This thread's Philox in the state of Philox(key=(seed << 64) | trial_index)."""
    bit_gen = getattr(_LOCAL, "philox", None)
    if bit_gen is None:
        bit_gen = _LOCAL.philox = np.random.Philox(0)
    # counter 0 and an empty buffer; the key words are (low, high)
    bit_gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (trial_index, seed)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_gen


def _draw(params: ModelParams, trial_index: int, out: np.ndarray, shift: int = 0) -> None:
    """Or the membership bits of elements 1..n of one keyed trial, shifted
    left by shift, into the uint8 row out.

    Bit k is Generator(Philox(key)).random(n)[k - 1] < alpha, with key =
    (seed << 64) | trial_index.  That uniform is (raw >> 11) * 2^-53 for the
    raw Philox word, so the bit is raw < ceil(alpha * 2^53) << 11.  The words
    are drawn DRAW_CHUNK at a time, which continues the same stream.
    """
    # at alpha = 1 the cut is 2^64, past uint64: numpy compares it exactly
    cut = math.ceil(params.alpha * 2**53) << 11
    bit_gen = _keyed_philox(params.seed, trial_index)
    for s in range(0, params.n, DRAW_CHUNK):
        e = min(s + DRAW_CHUNK, params.n)
        bits = np.less(bit_gen.random_raw(e - s), cut).view(np.uint8)
        if shift:
            # bits << shift as a product: numpy's uint8 shift loop is about
            # six times slower than its multiply
            np.multiply(bits, 1 << shift, out=bits)
        np.bitwise_or(out[s:e], bits, out=out[s:e])


def _draw_block(params: ModelParams, start: int, stop: int) -> np.ndarray:
    """Byte planes over 0..n of trials start..stop-1: bit t of
    planes[j, k] is element k of trial start + 8j + t."""
    planes = np.zeros(((stop - start + 7) // 8, params.n + 1), dtype=np.uint8)
    for r in range(stop - start):
        _draw(params, start + r, planes[r >> 3, 1:], r & 7)
    return planes


def _block_rows(n: int) -> int:
    """Rows of a block over 0..n: BLOCK_SIZE, or as many as fit in
    BLOCK_BYTES, and at least one."""
    return max(1, min(BLOCK_SIZE, BLOCK_BYTES // (n + 1)))


@functools.cache
def _bit_table() -> np.ndarray:
    """(256, 8) float64: entry (v, t) is bit t of the byte value v."""
    v = np.arange(256)
    return ((v[:, None] >> np.arange(8)) & 1).astype(np.float64)


def _block_degrees(planes: np.ndarray, rows: int, tables: ArithTables) -> np.ndarray:
    """The degree of each of the first rows trials of a block of byte planes
    over 0..n, by the coverage transform; it overwrites the planes with the
    covered bits."""
    n = planes.shape[1] - 1
    small, large, counts = split_primes(n)
    for p in small.tolist():
        hi = n // p
        while hi > 1:
            lo = max(hi // p, 1)
            planes[:, lo + 1 : hi + 1] |= planes[:, (lo + 1) * p : hi * p + 1 : p]
            hi = lo
    # a large prime P has one level, d < P, and its passes commute, since
    # d * P * P' > n: one op per d covers d from every d * P at once
    for d, k in enumerate(counts[1:], 2):
        planes[:, d] |= np.bitwise_or.reduce(planes[:, d * large[:k]], axis=1)
    # phi summed per byte value, then split into the value's bits; every sum
    # is an integer at most sum of phi(d) over d <= TABLE_LIMIT, under
    # 3.1 * 10^13 < 2^53, so float64 holds it exactly in any order
    phi = tables.phi[2 : n + 1].astype(np.float64)
    hist = np.array([np.bincount(row[2:], weights=phi, minlength=256) for row in planes])
    return (hist @ _bit_table()).astype(np.int64).reshape(-1)[:rows]


def _run_threads(fn, items: list, threads: int) -> list:
    """[fn(x) for x in items], on that many threads that take the next item
    from one locked iterator.  The first exception a thread raises stops
    every thread after its current item and is raised here."""
    out = [None] * len(items)
    errors: list[BaseException] = []
    todo = enumerate(items)
    lock = threading.Lock()

    def work():
        while not errors:
            with lock:
                i, x = next(todo, (-1, None))
            if i < 0:
                return
            try:
                out[i] = fn(x)
            except BaseException as exc:
                errors.append(exc)

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]
    return out


def monte_carlo(params: ModelParams, tables: ArithTables, workers: int = 1) -> MonteCarloSummary:
    """Simulate the degree statistic over keyed trials.

    Each running block holds the byte planes of BLOCK_SIZE trials,
    ceil(BLOCK_SIZE / 8) * (n + 1) bytes, with fewer trials where
    BLOCK_SIZE * (n + 1) would pass BLOCK_BYTES.

    Mean and variance come from exact integer sums of the per-trial degrees
    (converted through Fraction), so the summary is bit-identical for any
    worker count or block size.
    """
    check_point(params.n, tables=tables)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = _block_rows(params.n)
    spans = [(s, min(s + rows, params.trials)) for s in range(0, params.trials, rows)]
    # more threads than cores or blocks add no speed, only block memory
    pool_size = min(workers, len(spans), os.cpu_count() or 1)

    def block(span):
        start, stop = span
        return _block_degrees(_draw_block(params, start, stop), stop - start, tables)

    if pool_size == 1:
        parts = [block(span) for span in spans]
    else:
        parts = _run_threads(block, spans, pool_size)
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
    """(x, size, count) over all 2^n subsets of 1..n, ascending in (x, size):
    count sets of that size have degree x; phi holds phi(0..n).

    The subsets of 1..k-1 are arrays of their covered-divisor mask (bit
    d - 2 for divisor d, uint32 up to n = 33) and of the int32 key
    x (n + 1) + size; adding k doubles them, the second half gaining the
    phi of each divisor of k its mask does not cover yet.  The sets with
    n are counted from the last halves without building them, so the
    arrays hold at most 2^(n-1) sets: 8 bytes each, 16 MiB at n = 22.  The
    counts do not depend on alpha, so each n is counted once per process
    (n <= ENUMERATION_LIMIT keeps the cache to that many entries)."""
    mask = np.zeros(1, dtype=np.uint32)
    key = np.zeros(1, dtype=np.int32)
    for k in range(1, n + 1):
        divisors = [d for d in range(2, k + 1) if k % d == 0]
        gain = np.zeros(len(key), dtype=np.int32)
        for d in divisors:
            uncovered = (mask & np.uint32(1 << (d - 2))) == 0
            np.add(gain, phi[d], out=gain, where=uncovered)
        # the key of each set with k added: x + gain and size + 1
        gain *= n + 1
        gain += key
        gain += 1
        if k == n:
            break
        covers = np.uint32(sum(1 << (d - 2) for d in divisors))
        mask = np.concatenate((mask, mask | covers))
        key = np.concatenate((key, gain))
    # x is at most the sum of phi(2..n), so every key is below top
    top = (sum(phi[2:]) + 1) * (n + 1)
    counts = np.bincount(key, minlength=top) + np.bincount(gain, minlength=top)
    keys = np.flatnonzero(counts)
    x, size = divmod(keys, n + 1)
    return tuple(zip(x.tolist(), size.tolist(), counts[keys].tolist()))


def enumerate_exact(n: int, alpha, tables: ArithTables) -> ExactDistribution:
    """Exact distribution of the degree statistic over all 2^n sets.

    Weights the walk's count of each (degree, set size s) by
    alpha^s (1-alpha)^(n-s), summed as the integer numerators
    p^s (q - p)^(n-s) over the one denominator q^n, alpha = p/q in lowest
    terms; each probability and moment becomes a Fraction only at the end.
    Memory is O(n) plus the counts; time is O(2^n) for the first alpha at
    an n, capped at n = ENUMERATION_LIMIT.
    """
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration over 2^{n} sets refused (limit n <= {ENUMERATION_LIMIT})"
        )
    check_point(n, alpha, tables)
    a = as_fraction(alpha)
    counts = _subset_counts(n, tuple(int(x) for x in tables.phi[: n + 1]))

    p, q = a.numerator, a.denominator
    wt = [p**s * (q - p) ** (n - s) for s in range(n + 1)]
    mass: dict[int, int] = {}
    for x, s, c in counts:
        w = c * wt[s]
        if w:
            mass[x] = mass.get(x, 0) + w
    den = q**n
    s1 = sum(x * w for x, w in mass.items())
    s2 = sum(x * x * w for x, w in mass.items())
    return ExactDistribution(
        pmf={x: Fraction(w, den) for x, w in sorted(mass.items())},
        mean=Fraction(s1, den),
        variance=Fraction(s2 * den - s1 * s1, den * den),
    )
