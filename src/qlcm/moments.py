"""Exact and asymptotic moments of the lcm-degree statistic.

Closed forms for E[X] and V[X] at finite n, the dilogarithm factor of the
expectation asymptotic, the series constant C1(a1, a2), and the limiting
variance function v(alpha) with an accounted truncation error.

Every float-path quantity here is deterministic: fixed iteration orders,
compensated or fsum summation, and integer cross-multiplication for all
membership decisions in the v(alpha) enumeration.

Conventions: beta = 1 - alpha, j_i = floor(n / d_i), Phi is the totient
summatory function, and the degree statistic is X = sum of phi(d) over
covered divisors 1 < d <= n.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import (
    TABLE_LIMIT,
    ArithTables,
    as_fraction,
    check_point,
    prime_factors,
    split_primes,
)
from .errors import ResourceLimitError

PI2_OVER_6 = math.pi * math.pi / 6.0
# (zeta(2)^2)/3 bounds sum over a1, a2 >= 1 of (a1 a2 / 3) * (1/(a1 a2 j3))^3
# by a1 a2 >= 1; used in the truncation-error budget of v(alpha).
_ZETA2_SQ_OVER_3 = PI2_OVER_6 * PI2_OVER_6 / 3.0
# Calibrated: 10x the worst observed |C1(T) - C1(10^7)| / model ratio over
# coprime pairs up to 7x30 and T in [10^3, 10^5]; tests pin the regression.
_C1_TAIL_COEFF = 0.05

EXACT_RATIONAL_LIMIT = 30
# most S_inf members a v(alpha) request may enumerate, by the pre-flight
# bound; alpha = 0.05 at the default tail tolerance bounds 6.3e7 (it has 1.6e7)
V_ALPHA_MEMBER_LIMIT = 10**8
# elements per chunk of the variance pair walk and of the grouped E[X]
# terms; bounds their working sets
VARIANCE_CHUNK = 1 << 16
# cells (suffixes x caps) of one table of the C1 inner-sum sweep, 2 MiB of
# float64; bounds its working set
C1_SWEEP_CELLS = 1 << 18


class _Truncation(NamedTuple):
    c1_cutoff: int = 100000
    j3_max: int = 40
    beta_tail_tol: float = 1e-12
    dilog_tol: float = 1e-12


class TruncationConfig(_Truncation):
    """Truncation levels for the series evaluations, checked on construction.

    c1_cutoff bounds [d1', d2'] in the C1 double sum; j3_max and
    beta_tail_tol bound the S_infinity enumeration; dilog_tol drives the
    dilogarithm series.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.c1_cutoff < 1:
            raise ValueError(f"c1_cutoff must be positive, got {self.c1_cutoff}")
        if self.j3_max < 1:
            raise ValueError(f"j3_max must be positive, got {self.j3_max}")
        for name in ("beta_tail_tol", "dilog_tol"):
            v = getattr(self, name)
            if not 0.0 < v <= 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v}")
        return self


class C1Estimate(NamedTuple):
    """Truncated value of C1(a1, a2) plus a tail-error estimate."""

    value: float
    tail_error: float
    cutoff: int


class VAlphaEstimate(NamedTuple):
    """Truncated v(alpha) with the accounted truncation error.

    truncation_error adds the C1 tails of every summed term to the bounds on
    the dropped (j1, j2) range and the dropped j3 > j3_max range.  terms
    counts the members summed, triples the (j3, a1, a2) groups they came in,
    c1_prime_sets the distinct prime sets (radicals a1 a2) of their pairs,
    each with one C1 inner sum, and c1_inner_evals the inner sums evaluated
    for them: those of the prime sets not cached yet, all swept by one
    _inner_sums call before the walk (the others came from the cache).
    """

    value: float
    truncation_error: float
    terms: int
    triples: int
    c1_prime_sets: int
    c1_inner_evals: int


def _powi(base, k: int):
    """base**k for integer k >= 0 by repeated squaring; works for float or
    Fraction bases and returns exactly 1 for k = 0 (including base 0)."""
    if k < 0:
        raise ValueError("negative exponent")
    acc = base * 0 + 1
    b = base
    while k:
        if k & 1:
            acc = acc * b
        k >>= 1
        if k:
            b = b * b
    return acc


def _powers(beta: float, count: int) -> np.ndarray:
    """[_powi(beta, k) for k < count] bit for bit: the same squarings of
    beta, each multiplied into the exponents whose bit it is, in the same
    ascending bit order."""
    bits = max(count - 1, 0).bit_length()
    acc = np.ones(1 << bits)
    b = float(beta)
    for bit in range(bits):
        # the exponents with this bit set: the upper half of each block of
        # 2^(bit + 1) consecutive exponents
        acc.reshape(-1, 2 << bit)[:, 1 << bit :] *= b
        b *= b
    return acc[:count]


def dilog(z: float, tol: float = 1e-12) -> float:
    """Li2(z) = sum z^k/k^2 on [0, 1].

    Direct series for z <= 1/2; the reflection identity
    Li2(z) + Li2(1-z) = pi^2/6 - ln(z) ln(1-z) otherwise, so the series
    argument never exceeds 1/2.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"dilog defined on [0, 1], got {z}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return PI2_OVER_6
    if z > 0.5:
        return PI2_OVER_6 - math.log(z) * math.log1p(-z) - dilog(1.0 - z, tol)
    acc = 0.0
    p = 1.0
    k = 1
    while True:
        p *= z
        term = p / (k * k)
        new = acc + term
        if new == acc or term < tol * 1e-4:
            return new
        acc = new
        k += 1


def alpha_factor(alpha: float) -> float:
    """alpha * Li2(1-alpha) / (1-alpha), with the removable singularity at
    alpha = 1 evaluating to exactly 1 and alpha = 0 to exactly 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return 0.0
    if alpha == 1.0:
        return 1.0
    return alpha * dilog(1.0 - alpha) / (1.0 - alpha)


def _beta_numerators(n: int, alpha, what: str) -> list[int]:
    """The Python ints u[k] = r^k q^(n - k), k = 0..n, for beta = 1 - alpha
    = r/q in lowest terms, so that beta^k = u[k] / q^n over the one
    denominator u[0] = q^n.  Needs a rational alpha and
    n <= EXACT_RATIONAL_LIMIT."""
    a = as_fraction(alpha)
    if n > EXACT_RATIONAL_LIMIT:
        raise ResourceLimitError(f"exact-rational {what} limited to n <= {EXACT_RATIONAL_LIMIT}")
    q = a.denominator
    r = q - a.numerator
    return [r**k * q ** (n - k) for k in range(n + 1)]


def _phi_prefix(n: int, tables: ArithTables) -> np.ndarray:
    """Phi(0..n) as int64: the int32 table cast once, then summed in place
    (a cumsum that casts as it goes takes three times as long)."""
    prefix = tables.phi[: n + 1].astype(np.int64)
    return np.cumsum(prefix, out=prefix)


def expectation_exact(n: int, alpha, tables: ArithTables, exact: bool = False):
    """E[X] = sum over 1 < d <= n of phi(d) (1 - beta^floor(n/d)).

    Groups d by constant j = floor(n/d): one beta power and one Phi-prefix
    difference per block, fsum over blocks.  exact=True runs the same blocks
    over the integer numerators of _beta_numerators, 1 - beta^j being
    (u[0] - u[j]) / q^n, and returns their sum over q^n as a Fraction.
    """
    check_point(n, alpha, tables)
    if exact:
        u = _beta_numerators(n, alpha, "expectation")
    beta = 1.0 - float(alpha)
    prefix = _phi_prefix(n, tables)
    terms = []
    d = 2
    while d <= n:
        j = n // d
        hi = n // j
        block = int(prefix[hi] - prefix[d - 1])
        terms.append(block * (u[0] - u[j]) if exact else block * (1 - _powi(beta, j)))
        d = hi + 1
    return Fraction(sum(terms), u[0]) if exact else math.fsum(terms)


def expectation_grouped(n: int, alpha: float, tables: ArithTables) -> float:
    """alpha * sum over j <= n of beta^(j-1) Phi(n/j), minus the d = 1
    addend 1 - beta^n, which makes it equal expectation_exact identically."""
    check_point(n, alpha, tables)
    alpha = float(alpha)
    beta = 1.0 - alpha
    prefix = _phi_prefix(n, tables)
    # beta^(j-1) for j <= n up to the first power that is 0.0: 1024 powers
    # first, four times as many while none of them is
    pb = _powers(beta, min(n, 1024))
    while len(pb) < n and pb.all():
        pb = _powers(beta, min(n, 4 * len(pb)))
    zero = np.flatnonzero(pb == 0.0)
    stop = int(zero[0]) if len(zero) else n
    # fsum rounds the exact sum, so taking the terms a chunk at a time, with
    # no n-long list, changes no bit; each int64 Phi is rounded to float64
    chunks = (
        (pb[s:e] * prefix[n // np.arange(s + 1, e + 1)]).tolist()
        for s, e in itertools.pairwise([*range(0, stop, VARIANCE_CHUNK), stop])
    )
    return alpha * math.fsum(itertools.chain.from_iterable(chunks)) - (1.0 - _powi(beta, n))


def expectation_asymptotic(n: int, alpha: float) -> float:
    """Main term (3/pi^2) * alpha_factor(alpha) * n^2."""
    check_point(n)
    return (3.0 / (math.pi * math.pi)) * alpha_factor(float(alpha)) * float(n) * float(n)


def _variance_pairs(n: int):
    """Yield (d1, d2, j3, factor): arrays of at most VARIANCE_CHUNK pairs
    1 < d1 <= d2 <= n with lcm(d1, d2) <= n, and the int weight of a chunk.

    d1 = g a, d2 = g b with gcd(a, b) = 1 has lcm g a b <= n, so each
    cofactor pair a <= b contributes its (b, g) elements, g <= n // (a b).
    factor is 2 for a < b, counting the mirrored pair (d2, d1) too, and 1
    for the diagonal a = b = 1.  The a = 1 runs need no gcd mask, and the
    off-diagonal one stops at b = n // 2: g = 1 would make d1 = 1, and a
    larger b has no g >= 2.  Each chunk's arrays are its own, so the caller
    may overwrite them.
    """
    diagonal = [(1, np.ones(1, dtype=np.int64), 1)]
    rest = (
        (a, np.arange(a + 1, (n // 2 if a == 1 else n // a) + 1, dtype=np.int64), 2)
        for a in range(1, math.isqrt(n) + 1)
    )
    for a, b, factor in itertools.chain(diagonal, rest):
        if a > 1:
            b = b[np.gcd(b, a) == 1]
        g0 = 2 if a == 1 else 1  # g = 1 would make d1 = a = 1
        counts = b * a
        np.floor_divide(n, counts, out=counts)
        counts -= g0 - 1
        ends = np.cumsum(counts)
        size = int(counts.sum())
        for s in range(0, size, VARIANCE_CHUNK):
            e = min(s + VARIANCE_CHUNK, size)
            # the runs of b[i0:i1] that overlap the elements [s, e)
            i0 = int(np.searchsorted(ends, s, side="right"))
            i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
            starts = ends[i0:i1] - counts[i0:i1]
            reps = np.minimum(ends[i0:i1], e) - np.maximum(starts, s)
            d2 = np.repeat(b[i0:i1], reps)
            d1 = np.arange(s + g0, e + g0, dtype=np.int64)
            d1 -= np.repeat(starts, reps)  # g
            d2 *= d1
            d1 *= a
            j3 = d2 * a
            np.floor_divide(n, j3, out=j3)
            yield d1, d2, j3, factor


def _weighted_beta_sum(w0: np.ndarray, pw: np.ndarray, e: np.ndarray, j3: np.ndarray) -> float:
    """(w0 * pw[e] * (1 - pw[j3])).sum() in that order of operations, bit
    for bit, with two chunk-long temporaries."""
    w = pw[e]
    w *= w0
    v = pw[j3]
    np.subtract(1.0, v, out=v)
    w *= v
    return w.sum()


def variance_exact(n: int, alpha, tables: ArithTables, exact: bool = False, counters=None):
    """V[X] as the exact double sum over 1 < d1, d2 <= n of

        phi(d1) phi(d2) beta^(j1 + j2 - j3) (1 - beta^j3),

    with j_i = floor(n/d_i) and j3 = floor(n / lcm(d1, d2)).  Pairs whose
    lcm exceeds n contribute exactly zero, so only the _variance_pairs
    chunks are summed, and the chunk sums combined by fsum in fixed order.
    exact=True runs the same chunks over Python ints (object arrays): with
    e = j1 + j2 - j3, beta^e (1 - beta^j3) is (u[e] - u[e + j3]) / q^n in
    the numerators of _beta_numerators, since e + j3 = j1 + j2 <= n; the
    integer total over q^n is returned as a Fraction.

    alpha may be a tuple, for which a list of V in its order is returned:
    the pairs, e and phi(d1) phi(d2) depend on n alone, so each chunk is
    walked once for every alpha, and each alpha's value is bit for bit the
    one of its own call.  A counters dict, when given, receives "pairs",
    the ordered pairs (d1, d2) the walk visited.
    """
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    for a in alphas:
        check_point(n, a, tables)
    if exact:
        # beta^k as the numerators u[k] over u[0] = q^n, one row per alpha
        powers = [np.array(_beta_numerators(n, a, "variance"), dtype=object) for a in alphas]
    else:
        # d1, d2 >= 2 bound every exponent j1 + j2 - j3 by n
        powers = [np.power(1.0 - float(a), np.arange(n + 1, dtype=np.float64)) for a in alphas]
    # the int32 phi gathers cast to the product's type before multiplying
    dtype = object if exact else np.float64
    terms = [[] for _ in alphas]
    pairs = 0
    # a chunk's arrays live until the next chunk's replace them: freeing them
    # all first hands the heap top back to the OS, to be faulted in again on
    # every chunk (three times the page faults at n = 10^5)
    for d1, d2, j3, factor in _variance_pairs(n):
        pairs += factor * len(d1)
        w0 = np.multiply(tables.phi[d1], tables.phi[d2], dtype=dtype)
        # e = j1 + j2 - j3, built over d1 and d2
        e = np.floor_divide(n, d1, out=d1)
        e += np.floor_divide(n, d2, out=d2)
        e -= j3
        for pw, t in zip(powers, terms):
            if exact:
                t.append(factor * (w0 * (pw[e] - pw[e + j3])).sum())
            else:
                t.append(factor * _weighted_beta_sum(w0, pw, e, j3))
    if counters is not None:
        counters["pairs"] = pairs
    if exact:
        out = [Fraction(sum(t), pw[0]) for pw, t in zip(powers, terms)]
    else:
        out = [math.fsum(t) for t in terms]
    return out if isinstance(alpha, tuple) else out[0]


def _variance_bytes(n: int) -> int:
    """An upper estimate of the bytes the float variance_exact allocates at
    n beside the tables for one alpha: 27 a unit of n plus ten chunk arrays
    of 8-byte elements.  The sum holds about 24 a unit of n (beta^k and the
    arange np.power reads, then beta^k and the three arrays of the a = 1
    run of the pair walk, n / 2 long) and up to about eight chunk arrays.
    Its tracemalloc peak is 4.2 MB at n = 20000 (estimate 5.8 MB), 8.2 MB
    at 2*10^5 (10.6 MB), 26.5 MB at 10^6 (32.2 MB), 50.4 MB at 2*10^6
    (59.2 MB), the points the fit rests on: 23.9 bytes a unit of n between
    10^6 and 2*10^6, which 27 exceeds by 13%.  At 5*10^6 the peak is
    122.6 MB (140.2 MB), 24.1 bytes a unit from 10^6.  Each further alpha
    of one call adds its beta^k table, 8 (n + 1) bytes."""
    return 27 * (n + 1) + 80 * VARIANCE_CHUNK


def variance_upper_envelope(n: int, alpha: float) -> float:
    """The alpha * n^3 envelope asserted (with constant 1) over V[X]."""
    return float(alpha) * float(n) ** 3


# ---------------------------------------------------------------------------
# C1(a1, a2)
#
# With c_i = gcd(a_i, d_i) and e_i = d_i / c_i the double sum factors: the
# c-sums give phi(a_i)/a_i, and writing e = gcd(e1, e2), e_i = e * f_i with
# e, f1, f2 squarefree and pairwise coprime, f_i coprime to a_i and e coprime
# to a1 a2, the remaining sum runs over squarefree m = e f1 f2 <= T with the
# multiplicative weight
#
#     w(p) = (1 - 2p)/p^3      for p not dividing a1 a2
#            (slot e contributes 1/p^3, each f slot -1/p^2),
#     w(p) = -1/p^2            for p | a1 a2 (only the f slot opposite the
#            a_i containing p remains; the totient-ratio parts of the c-sums
#            are already factored out).
#
# Hence C1(a1, a2) = (phi(a1) phi(a2) / 3) * Inner(T, primes(a1 a2)), where
# Inner is evaluated from a sieved prefix sum of the w-weights by
# inclusion-exclusion over the primes of a1 a2.  A direct truncated (d1, d2)
# enumeration cross-checks this decomposition in the tests.
#
# The inclusion-exclusion reads U(cap, S), the weight sum over squarefree
# m <= cap coprime to the primes of S, only at caps T // n and only for the
# suffixes S of the prime sets.  _inner_sums fills one table of U over every
# suffix of a batch of prime sets and every such cap, a column range per
# depth at a time, so a (cap, suffix) node that many sets or many terms
# share is evaluated once.  C1 has one path, the vector pass _c1_pairs,
# which sweeps every prime set not cached yet: v_alpha runs it on all its
# pairs and c1_constant on its one pair.
# ---------------------------------------------------------------------------

_c1_prefix_cache: dict[int, np.ndarray] = {}
# Inner depends on (a1, a2) only through the prime set of a1 a2, which its
# radical names: keyed by (cutoff, radical)
_c1_inner_cache: dict[tuple[int, int], float] = {}


def _phi_sigma_rad(a: np.ndarray) -> tuple[np.ndarray, dict[int, tuple[int, ...]]]:
    """The (3, len(a)) int64 matrix of phi, sigma and the radical of each
    entry of the int64 array a (entries >= 1), and the primes of each
    distinct entry, ascending.  Each distinct entry is factored once by
    prime_factors, the exact power p^k of each prime found by division;
    sigma(p^k) = (p^(k+1) - 1)/(p - 1)."""
    values, which = np.unique(a, return_inverse=True)
    out = np.empty((3, len(values)), dtype=np.int64)
    primes = {}
    for i, x in enumerate(values.tolist()):
        phi, sigma, rad = x, 1, 1
        primes[x] = prime_factors(x)
        for p in primes[x]:
            pk = p
            while x % (pk * p) == 0:
                pk *= p
            phi -= phi // p
            sigma *= (pk * p - 1) // (p - 1)
            rad *= p
        out[:, i] = phi, sigma, rad
    return np.take(out, which, axis=1), primes


def _c1_weight_prefix(limit: int) -> np.ndarray:
    """Prefix sums of the multiplicative weight prod (1-2p)/p^3 over
    squarefree m (zero elsewhere) at the caps of _cap_columns(limit), the
    only ones the sweep reads; built in place over the weights, refused
    above the table cap, whose 9 bytes per unit (weights and sieve) it takes."""
    if limit > TABLE_LIMIT:
        raise ResourceLimitError(
            f"c1_cutoff {limit} exceeds the table cap {TABLE_LIMIT}; lower --c1-cutoff"
        )
    cached = _c1_prefix_cache.get(limit)
    if cached is not None:
        return cached
    w = np.ones(limit + 1, dtype=np.float64)
    w[0] = 0.0
    small, large, counts = split_primes(limit)
    for p in small.tolist():
        w[p::p] *= (1.0 - 2.0 * p) / (p * p * p)
        w[p * p :: p * p] = 0.0
    # a large prime is the largest factor of its multiples, so applying it
    # last multiplies in the same order as one ascending pass over primes
    pf = large.astype(np.float64)
    large_w = (1.0 - 2.0 * pf) / (pf * pf * pf)
    for j, k in enumerate(counts, 1):
        w[j * large[:k]] *= large_w[:k]
    prefix = np.cumsum(w, out=w)[_cap_columns(limit)]
    prefix.setflags(write=False)
    _c1_prefix_cache[limit] = prefix
    return prefix


def _cap_columns(limit: int) -> np.ndarray:
    """The caps of the C1 inner-sum expansion, ascending: each is some
    limit // n, so they fit in 2 r + 1 columns, r = isqrt(limit), the caps
    0..r and then limit // n for n = r down to 1."""
    r = math.isqrt(limit)
    return np.concatenate((np.arange(r + 1), limit // np.arange(r, 0, -1)))


def _column(limit: int, cap: np.ndarray) -> np.ndarray:
    """The column of each cap (>= 1, of the form limit // n)."""
    r = math.isqrt(limit)
    return np.where(cap <= r, cap, 2 * r + 1 - limit // cap)


def _sweep(limit: int, prime_sets: list, prefix: np.ndarray, caps: np.ndarray) -> list[float]:
    """The inner sums of one batch of prime sets, from one table of U(cap, S)
    over every suffix S = (p, R...) of the batch's sets and every cap.

    Rows run by first prime descending, so that R's row is filled before
    S's; the last row is the empty suffix, the weight prefix at each cap.
    A row's caps below p are that prefix; above, one column range per depth
    (the caps in [p^d, p^(d+1))) takes U(cap, R) - w0(p) U(cap // p, S) from
    the range below it, for all rows of one p at once.  That is the one float
    operation the recursive expansion does per (cap, S), so each value is
    the recursion's, bit for bit.
    """
    suffixes = sorted({s[j:] for s in prime_sets for j in range(len(s))}, key=lambda s: -s[0])
    row = {s: i for i, s in enumerate(suffixes)}
    tail = np.array([row.get(s[1:], -1) for s in suffixes], dtype=np.int64)
    table = np.empty((len(suffixes) + 1, len(caps)))
    table[-1] = prefix
    # a prime past limit divides no cap: limit + 1 stands for it
    first = [min(s[0], limit + 1) for s in suffixes]
    starts = [i for i, p in enumerate(first) if i == 0 or p != first[i - 1]]
    for lo, hi in zip(starts, starts[1:] + [len(first)]):
        p = first[lo]
        # the first column of each depth
        powers = [p]
        while powers[-1] <= limit:
            powers.append(powers[-1] * p)
        bounds = np.searchsorted(caps, powers).tolist()
        table[lo:hi, : bounds[0]] = table[-1, : bounds[0]]
        w0 = (1.0 - 2.0 * p) / (p * p * p)
        for c0, c1 in zip(bounds[:-1], bounds[1:]):
            child = _column(limit, caps[c0:c1] // p)
            table[lo:hi, c0:c1] = table[tail[lo:hi], c0:c1] - w0 * table[lo:hi, child]

    # every subset of each set's primes with product q <= limit, as
    # (owner, q, coef) in ascending mask order: the entries of mask bit i
    # follow those without it, so the list stays sorted by mask, then owner.
    # No subset with the padding prime limit + 1 qualifies
    width = max(map(len, prime_sets))
    padded = np.array(
        [[min(p, limit + 1) for p in s] + [limit + 1] * (width - len(s)) for s in prime_sets],
        dtype=np.int64,
    )
    owner = np.arange(len(prime_sets))
    q = np.ones(len(owner), dtype=np.int64)
    coef = np.ones(len(owner))
    mask = np.zeros(len(owner), dtype=np.int64)
    for i in range(width):
        p = padded[owner, i]
        keep = q * p <= limit
        p = p[keep]
        owner = np.concatenate((owner, owner[keep]))
        q = np.concatenate((q, q[keep] * p))
        coef = np.concatenate((coef, coef[keep] * (-1.0 / (p * p))))
        mask = np.concatenate((mask, mask[keep] | 1 << i))
    rows = np.array([row.get(s, -1) for s in prime_sets], dtype=np.int64)
    terms = coef * table[rows[owner], _column(limit, limit // q)]
    # each set's terms added one mask at a time, in ascending order
    totals = np.zeros(len(prime_sets))
    runs = np.flatnonzero(np.diff(mask)) + 1
    for lo, hi in zip([0, *runs.tolist()], [*runs.tolist(), len(mask)]):
        totals[owner[lo:hi]] += terms[lo:hi]
    return totals.tolist()


def _inner_sums(limit: int, prime_sets: list) -> list[float]:
    """Sum of the C1 weights over squarefree m <= limit, where the primes of
    a1 a2 carry weight -1/p^2 and every other prime its sieved weight, for
    each prime set (ascending tuple) of prime_sets.

    The sieved prefix counts all squarefree m, so each avoided prime is
    stripped by the alternating expansion U(cap, S) = U(cap, R) -
    w0(p) U(cap // p, S) over S = (p, R...), U(cap, S) = prefix[cap] once
    cap < p; the inner sum adds coef U(limit // prod, primes) over the
    subsets of primes with prod <= limit, coef = prod of -1/p^2, in
    ascending mask order.  The sets go to _sweep in batches, sets that
    share suffixes together, each batch's table within C1_SWEEP_CELLS.
    """
    prefix = _c1_weight_prefix(limit)
    caps = _cap_columns(limit)
    out = [0.0] * len(prime_sets)
    for batch in _batches(prime_sets, max(1, C1_SWEEP_CELLS // len(caps) - 1)):
        sums = _sweep(limit, [prime_sets[i] for i in batch], prefix, caps)
        for i, value in zip(batch, sums):
            out[i] = value
    return out


def _batches(prime_sets: list, rows: int):
    """Yield lists of indices into prime_sets, in the order of the sets'
    reversed tuples, so that sets sharing suffixes come together; a batch
    holds at most rows distinct suffixes, or a single set."""
    batch: list[int] = []
    suffixes: set = set()
    for i in sorted(range(len(prime_sets)), key=lambda i: prime_sets[i][::-1]):
        own = {prime_sets[i][j:] for j in range(len(prime_sets[i]))}
        new = own - suffixes
        if batch and len(suffixes) + len(new) > rows:
            yield batch
            batch, suffixes, new = [], set(), own
        batch.append(i)
        suffixes |= new
    if batch:
        yield batch


def c1_constant(a1: int, a2: int, config: TruncationConfig | None = None) -> C1Estimate:
    """Truncated C1(a1, a2) for coprime a1, a2, with a tail-error estimate
    proportional to (sigma(a1 a2)/(a1 a2)) * log(T)/T: _c1_pairs on the one
    pair.  Refuses max(a1, a2) past TABLE_LIMIT, which keeps its trial
    division short and a1 a2 <= 10^14 < 2^53."""
    if config is None:
        config = TruncationConfig()
    if a1 < 1 or a2 < 1:
        raise ValueError(f"a1, a2 must be positive, got ({a1}, {a2})")
    if math.gcd(a1, a2) != 1:
        raise ValueError(f"C1 is only needed for coprime pairs, got ({a1}, {a2})")
    if max(a1, a2) > TABLE_LIMIT:
        raise ResourceLimitError(f"C1({a1}, {a2}): max(a1, a2) exceeds the cap {TABLE_LIMIT}")
    t = config.c1_cutoff
    value, tail, _, _ = _c1_pairs(np.array([a1]), np.array([a2]), t)
    return C1Estimate(value=float(value[0]), tail_error=float(tail[0]), cutoff=t)


def _c1_pairs(
    a1: np.ndarray, a2: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(value, tail, sets, evals): C1 and its tail error at cutoff t for
    every coprime pair of the int64 arrays a1, a2, the number of distinct
    radicals (prime sets) of the pairs and the number of their inner sums
    evaluated, the rest being cached.

    phi, sigma and the radical are multiplicative, so for coprime a1, a2
    each of m = a1 a2 is the product of its values at a1 and a2, which
    _phi_sigma_rad takes from one factorization of each distinct cofactor
    per call.  Every integer is exact in float64: m <= TABLE_LIMIT^2 < 2^53
    and sigma(m) < 7 m.  The inner sum of each distinct radical not cached
    yet is swept by one _inner_sums call, its prime set the sorted merge of
    the two factorizations of a pair that has it.  Each value and tail is
    then one elementwise expression.
    """
    m = a1 * a2
    f, primes = _phi_sigma_rad(np.concatenate((a1, a2)))
    phi, sigma, rad = f[:, : len(a1)] * f[:, len(a1) :]
    rads, which = np.unique(rad, return_inverse=True)
    # any pair of a radical gives its prime set: a scatter, no stable sort
    some = np.empty(len(rads), dtype=np.int64)
    some[which] = np.arange(len(which))
    missing = [
        (r, i) for r, i in zip(rads.tolist(), some.tolist()) if (t, r) not in _c1_inner_cache
    ]
    if missing:
        sets = [tuple(sorted(primes[int(a1[i])] + primes[int(a2[i])])) for _, i in missing]
        for (r, _), inner in zip(missing, _inner_sums(t, sets)):
            _c1_inner_cache[(t, r)] = inner
    inner = np.array([_c1_inner_cache[(t, r)] for r in rads.tolist()])[which]
    value = (phi / 3.0) * inner
    tail = (m / 3.0) * (sigma / m) * _C1_TAIL_COEFF * math.log(max(t, 2)) / t
    return value, tail, len(rads), len(missing)


def _enumeration_depth(
    alpha: float, config: TruncationConfig, raise_flags: str = "--alpha or --tail-tol"
) -> int:
    """emax, the largest e with beta^e >= beta_tail_tol, i.e. the largest
    exponent j1 + j2 - j3 that v(alpha) keeps, after a pre-flight refusal.

    A triple (j3, a1, a2) is kept only when (a1 + a2 - 1) j3 <= emax and has
    at most a1 + a2 - 1 members, so j3 brings at most s^3/3 members,
    s = emax // j3 + 1.  The bound sums that over j3 <= min(j3_max, emax) at
    top = (log estimate of emax) + 1 >= emax, in O(min(j3_max, emax)) steps;
    for alpha near 0, where beta^e decays too slowly to resolve, it refuses
    before any power is taken, naming raise_flags as the remedy.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"v(alpha) is defined on open (0, 1), got {alpha}")
    tol = config.beta_tail_tol
    top = math.log(tol) / math.log1p(-alpha) + 1.0
    bound = 0.0
    j3 = 1
    while j3 <= min(config.j3_max, top) and bound <= V_ALPHA_MEMBER_LIMIT:
        s = top / j3 + 1.0
        bound += s * s * s / 3.0
        j3 += 1
    if bound > V_ALPHA_MEMBER_LIMIT:
        raise ResourceLimitError(
            f"v({alpha:g}) at tail tolerance {tol:g}: the S_inf member bound is at least "
            f"{bound:.3g}, above the limit of {V_ALPHA_MEMBER_LIMIT:.0e}; raise {raise_flags}"
        )
    beta = 1.0 - alpha
    e = int(top)
    while _powi(beta, e) < tol:
        e -= 1
    while _powi(beta, e + 1) >= tol:
        e += 1
    return e


def _coprime_cofactors(s: int) -> list[int]:
    """The a1 <= s with gcd(a1, s + 1) = 1, ascending: the coprime pairs
    (a1, s + 1 - a1) with a1 + a2 - 1 = s."""
    return [a for a in range(1, s + 1) if math.gcd(a, s + 1) == 1]


def _coprime_pairs(emax: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """(cofactors, a1, a2) for the coprime pairs with s = a1 + a2 - 1 <= emax:
    cofactors holds the int64 array of the a1 of each s = 1..emax, and a1,
    a2 are the pairs of every s, s major (empty at emax = 0)."""
    cofactors = [np.array(_coprime_cofactors(s), dtype=np.int64) for s in range(1, emax + 1)]
    a1 = np.concatenate([np.zeros(0, dtype=np.int64), *cofactors])
    a2 = np.repeat(np.arange(2, emax + 2), [len(x) for x in cofactors]) - a1
    return cofactors, a1, a2


def _s_infinity_walk(emax: int, j3_max: int, cofactors: list[np.ndarray]):
    """Yield the truncated S_infinity to depth emax one s = a1 + a2 - 1 at a
    time, as (s, a1, a2, blocks).

    a1 = cofactors[s - 1] and a2 are the arrays of every coprime pair with
    a1 + a2 - 1 = s, the a1 <= s with gcd(a1, s + 1) = 1.  Each pair has
    exactly s + 1 points in [0, a1 a2]: the a2 + 1 multiples of a1 and the
    a1 - 1 inner multiples of a2 (none is both), so the pairs' points make
    one (pairs, s + 1) matrix, sorted along its rows.  blocks holds
    (j3, ends) for j3 up to min(j3_max, emax // s): ends is the
    (pairs, kept + 1) matrix of a1 a2 j3 + points, whose row for a pair
    holds the member end points of its triple (j3, a1, a2) as
    s_infinity_members describes; every triple of one (s, j3) keeps the
    same kept = min(s, emax - s j3 + 1) members.
    """
    for s, a1 in enumerate(cofactors, 1):
        a2 = s + 1 - a1
        col = np.arange(s + 1, dtype=np.int64)
        points = np.where(col <= a2[:, None], a1[:, None] * col, a2[:, None] * (col - a2[:, None]))
        points.sort(axis=1)
        m = (a1 * a2)[:, None]
        blocks = []
        for j3 in range(1, min(j3_max, emax // s) + 1):
            kept = min(s, emax - s * j3 + 1)
            blocks.append((j3, m * j3 + points[:, : kept + 1]))
        yield s, a1, a2, blocks


def s_infinity_members(alpha: float, config: TruncationConfig | None = None):
    """Yield the truncated S_infinity one coprime triple at a time, as
    (j3, a1, a2, ends).

    The members of (j3, a1, a2) are the gaps between consecutive points of
    {multiples of a1} U {multiples of a2} in [a1 a2 j3, a1 a2 (j3 + 1)]; the
    gap [m2, m1] has j1 = m2 // a1, j2 = m2 // a2, rho2 = 1/m2 and
    rho1 = 1/m1.  No inner point is a multiple of both, so each point passed
    raises j1 or j2 by one and the k-th gap (k from 0) has exponent
    j1 + j2 - j3 = (a1 + a2 - 1) j3 + k.  The gaps with exponent <= emax
    (beta^e >= beta_tail_tol) are members, at most a1 + a2 - 1 of them;
    ends holds their end points in order, member k being
    (m2, m1) = (ends[k], ends[k + 1]).  j3 runs up to j3_max.  The triples
    come s = a1 + a2 - 1 major, from the walk v_alpha sums.
    """
    if config is None:
        config = TruncationConfig()
    emax = _enumeration_depth(alpha, config)
    for _, a1, a2, blocks in _s_infinity_walk(emax, config.j3_max, _coprime_pairs(emax)[0]):
        for j3, ends in blocks:
            for x, y, row in zip(a1.tolist(), a2.tolist(), ends):
                yield j3, x, y, row


def _dropped_bounds(alpha: float, emax: int, config: TruncationConfig) -> tuple[float, float]:
    """(err_j, err_j3): the v(alpha) truncation bounds on the dropped (j1, j2)
    range of every kept j3 and on the dropped range j3 > j3_max."""
    beta = 1.0 - alpha
    one_m_beta = alpha
    # dropped (j1, j2) with j1 + j2 - j3 > emax, for each kept j3:
    # sum_{e > E} (e - j3 + 1) beta^e in closed form, E = max(emax, j3 - 1)
    err_j = 0.0
    for j3 in range(1, min(config.j3_max, emax) + 1):
        start = max(emax, j3 - 1) + 1
        geo = _powi(beta, start) * (
            (start - j3 + 1) / one_m_beta + beta / (one_m_beta * one_m_beta)
        )
        err_j += _ZETA2_SQ_OVER_3 / (j3 * j3 * j3) * geo
    # dropped j3 > j3_max: sum over j1, j2 >= j3 of beta^(j1+j2-j3) equals
    # beta^j3 / alpha^2
    err_j3 = 0.0
    j3 = min(config.j3_max, emax) + 1
    while True:
        inc = _ZETA2_SQ_OVER_3 / (j3 * j3 * j3) * _powi(beta, j3) / (alpha * alpha)
        err_j3 += inc
        if inc < 1e-18 * max(err_j3, 1e-300) or j3 > config.j3_max + 100000:
            break
        j3 += 1
    return err_j, err_j3


def v_alpha(alpha: float, config: TruncationConfig | None = None) -> VAlphaEstimate:
    """The limiting variance constant

        v(alpha) = sum over S_infinity of beta^(j1+j2-j3) (1-beta^j3)
                   * C1(a1, a2) * (rho2^3 - rho1^3),

    truncated per config.  The members of one triple (j3, a1, a2) share
    C1(a1, a2), and the triples of one (s, j3) share their exponents
    e0 = s j3 onwards, so one numpy pass over the (s, j3) block of the walk
    gives every triple's weighted sum as a row sum; each is multiplied once
    by C1 and once by its tail error, and math.fsum combines the products.
    C1 of every pair comes from one _c1_pairs pass before the walk.
    truncation_error accounts the C1 tail of every summed term plus
    geometric bounds on the dropped (j1, j2) and j3 ranges, each using
    sum_{a1,a2} C1 * rho2^3 <= (zeta(2)^2/3) / j3^3.
    """
    if config is None:
        config = TruncationConfig()
    emax = _enumeration_depth(alpha, config)
    beta = 1.0 - alpha
    pb = _powers(beta, emax + 1)
    cofactors, a1, a2 = _coprime_pairs(emax)
    c1_values, c1_tails, sets, evals = _c1_pairs(a1, a2, config.c1_cutoff)
    values, tails = [], []
    n_terms = 0
    start = 0
    for s, x, _, blocks in _s_infinity_walk(emax, config.j3_max, cofactors):
        c1_value = c1_values[start : start + len(x)]
        c1_tail = c1_tails[start : start + len(x)]
        start += len(x)
        for j3, ends in blocks:
            e0 = s * j3
            k = ends.shape[1] - 1
            f = ends.astype(np.float64)
            inv_cube = 1.0 / (f * f * f)
            # a contiguous row reduce: the same pairwise sum as one triple's
            part = (1.0 - pb[j3]) * np.sum(
                pb[e0 : e0 + k] * (inv_cube[:, :-1] - inv_cube[:, 1:]), axis=1
            )
            values += (c1_value * part).tolist()
            tails += (c1_tail * part).tolist()
            n_terms += k * len(part)

    err_j, err_j3 = _dropped_bounds(alpha, emax, config)
    return VAlphaEstimate(
        value=math.fsum(values),
        truncation_error=math.fsum(tails) + err_j + err_j3,
        terms=n_terms,
        triples=len(values),
        c1_prime_sets=sets,
        c1_inner_evals=evals,
    )
