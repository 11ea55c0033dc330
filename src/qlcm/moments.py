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

import functools
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
# pairs per block of the variance walk, which builds each chunk in blocks
VARIANCE_BLOCK = 1 << 13
# cells (suffixes x caps) of one table of the C1 inner-sum sweep, 512 KiB
# of float64; bounds its working set
C1_SWEEP_CELLS = 1 << 16


class _Truncation(NamedTuple):
    c1_cutoff: int = 100000
    j3_max: int = 40
    beta_tail_tol: float = 1e-12
    dilog_tol: float = 1e-12


class TruncationConfig(_Truncation):
    """Truncation levels for the series evaluations, checked on construction.

    c1_cutoff bounds [d1', d2'] in the C1 double sum, whose weight prefix is
    a table up to it, refused past TABLE_LIMIT; j3_max and beta_tail_tol
    bound the S_infinity enumeration; dilog_tol drives the dilogarithm series.
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
        if self.c1_cutoff > TABLE_LIMIT:
            raise ResourceLimitError(
                f"c1_cutoff {self.c1_cutoff} exceeds the table cap {TABLE_LIMIT}"
            )
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
    """[_powi(beta, k) for k < count] bit for bit, in count floats: entry
    k + 2^j is entry k < 2^j times beta^(2^j), so each entry multiplies in
    the squarings of beta of its exponent's bits in ascending bit order, as
    _powi does."""
    acc = np.empty(count)
    acc[:1] = 1.0
    b = float(beta)
    size = 1
    while size < count:
        top = min(2 * size, count)
        np.multiply(acc[: top - size], b, out=acc[size:top])
        b *= b
        size *= 2
    return acc


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


def _variance_pairs(n: int, stop: float = math.inf):
    """Yield (d1, d2, j3, factor, new): arrays of at most VARIANCE_BLOCK
    pairs 1 < d1 <= d2 <= n with lcm(d1, d2) <= n, the int weight of the
    block and whether it opens a chunk of the walk.

    d1 = g a, d2 = g b with gcd(a, b) = 1 has lcm g a b <= n, so each
    cofactor pair a <= b contributes its (b, g) elements, g <= n // (a b).
    factor is 2 for a < b, counting the mirrored pair (d2, d1) too, and 1
    for the diagonal a = b = 1.  The a = 1 runs need no gcd mask, and the
    off-diagonal one stops at b = n // 2: g = 1 would make d1 = 1, and a
    larger b has no g >= 2.  The elements of each run are cut into chunks
    of VARIANCE_CHUNK, which _run_blocks yields in blocks, and a run ends
    at the first chunk whose first element has a + b - 1 >= stop.
    """
    diagonal = [(1, 1, 1, 2, 1)]  # (a, first b, last b, first g, factor)
    rest = (
        (a, a + 1, n // 2 if a == 1 else n // a, 2 if a == 1 else 1, 2)
        for a in range(1, math.isqrt(n) + 1)
    )
    for a, b_lo, b_hi, g0, factor in itertools.chain(diagonal, rest):
        for d1, d2, j3, new in _run_blocks(n, a, b_lo, b_hi, g0, stop):
            yield d1, d2, j3, factor, new


def _run_blocks(n: int, a: int, b_lo: int, b_hi: int, g0: int, stop: float):
    """Yield (d1, d2, j3, new) for the elements (b, g) of the run of a, b
    in [b_lo, b_hi] coprime to a and g0 <= g <= n // (a b), in blocks of at
    most VARIANCE_BLOCK that never cross a chunk edge; new marks a block
    that opens a chunk.  The b come VARIANCE_BLOCK at a time, so no array
    is longer than that.

    The run ends at the first chunk whose first element has a + b - 1 >=
    stop: b rises within a run, and e = j1 + j2 - j3 >= (a + b - 1) j3
    (j1 >= b j3, j2 >= a j3), so at stop = Z every later term of the run has
    beta^e = 0.0.  Each block's arrays are its own, so the caller may
    overwrite them.
    """
    t = 0  # elements of the run yielded so far
    for lo in range(b_lo, b_hi + 1, VARIANCE_BLOCK):
        if t % VARIANCE_CHUNK == 0 and a + lo - 1 >= stop:
            return
        b = np.arange(lo, min(lo + VARIANCE_BLOCK, b_hi + 1), dtype=np.int64)
        if a > 1:
            b = b[np.gcd(b, a) == 1]
        counts = b * a
        np.floor_divide(n, counts, out=counts)
        counts -= g0 - 1
        ends = np.cumsum(counts)
        size = int(ends[-1]) if len(ends) else 0
        s = 0
        while s < size:
            # the runs of b[i0:i1] that overlap the elements [s, e)
            i0 = int(np.searchsorted(ends, s, side="right"))
            new = t % VARIANCE_CHUNK == 0
            if new and a + int(b[i0]) - 1 >= stop:
                return
            e = min(s + VARIANCE_BLOCK, size, s + VARIANCE_CHUNK - t % VARIANCE_CHUNK)
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
            yield d1, d2, j3, new
            t += e - s
            s = e


def _underflow(beta: float, n: int) -> int:
    """Z, the first k <= n at which np.power(beta, k) is 0.0, or n + 1 when
    there is none; every power past Z is 0.0 too, as the tests check.  A
    bisection over k by the call that builds the beta^k table, on one k."""
    lo, hi = -1, n + 1  # every power up to lo is nonzero; hi is 0.0 or past n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        zero = np.power(beta, np.array([mid], dtype=np.float64))[0] == 0.0
        lo, hi = (lo, mid) if zero else (mid, hi)
    return hi


def _beta_terms(pw, e, j3, w0, out, tmp) -> None:
    """w0 * pw[e] * (1 - pw[j3]) into out, in the order of operations of
    (pw[e] * w0) * (1 - pw[j3]), each gather at an index clipped to the
    last entry of pw; tmp is scratch of out's length."""
    np.take(pw, e, out=out, mode="clip")
    out *= w0
    np.take(pw, j3, out=tmp, mode="clip")
    np.subtract(1.0, tmp, out=tmp)
    out *= tmp


def variance_exact(n: int, alpha, tables: ArithTables, exact: bool = False, counters=None):
    """V[X] as the exact double sum over 1 < d1, d2 <= n of

        phi(d1) phi(d2) beta^(j1 + j2 - j3) (1 - beta^j3),

    with j_i = floor(n/d_i) and j3 = floor(n / lcm(d1, d2)).  Pairs whose
    lcm exceeds n contribute exactly zero, so only the _variance_pairs
    chunks are summed: each chunk's terms go to one VARIANCE_CHUNK buffer,
    block by block, summed once the chunk is complete, and the chunk sums
    are combined by fsum in fixed order.  The float path stops each run of
    the walk where every term left is 0.0 (_run_blocks), at the largest Z
    (_underflow) of the alphas, and builds each beta^k table only up to
    min(Z, n): every power past it is 0.0, so a gather clipped to it reads
    the power it stands for.  exact=True walks every chunk over Python ints
    (object arrays): with e = j1 + j2 - j3, beta^e (1 - beta^j3) is
    (u[e] - u[e + j3]) / q^n in the numerators of _beta_numerators, since
    e + j3 = j1 + j2 <= n; the integer total over q^n is returned as a
    Fraction.

    alpha may be a tuple, for which a list of V in its order is returned:
    the pairs, e and phi(d1) phi(d2) depend on n alone, so each chunk is
    walked once for every alpha, and each alpha's value is bit for bit the
    one of its own call.  One alpha writes its terms as the blocks come; a
    row stages the chunk's e, j3 and phi products, then fills the one
    buffer for each alpha in turn, so its memory does not grow with the
    alphas beyond their tables.  A counters dict, when given, has the
    ordered pairs (d1, d2) the walk visited added to its "pairs".
    """
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    for a in alphas:
        check_point(n, a, tables)
    if exact:
        # beta^k as the numerators u[k] over u[0] = q^n, one row per alpha
        powers = [np.array(_beta_numerators(n, a, "variance"), dtype=object) for a in alphas]
        stop = math.inf
    else:
        # d1, d2 >= 2 bound every exponent j1 + j2 - j3 by n
        stop = max((_underflow(1.0 - float(a), n) for a in alphas), default=0)
        k = np.arange(min(stop, n) + 1, dtype=np.float64)
        powers = [np.power(1.0 - float(a), k) for a in alphas]
        buf = np.empty(VARIANCE_CHUNK)
        staged = None
        if len(alphas) > 1:
            staged = (np.empty(VARIANCE_CHUNK, np.int64), np.empty(VARIANCE_CHUNK, np.int64),
                      np.empty(VARIANCE_CHUNK))
        tmp = np.empty(min(VARIANCE_CHUNK, VARIANCE_BLOCK) if staged is None else VARIANCE_CHUNK)
    terms = [[] for _ in alphas]
    pairs = fill = 0
    factor = 1

    def close_chunk():
        for pw, t in zip(powers, terms):
            if staged is not None:
                _beta_terms(pw, *(x[:fill] for x in staged), buf[:fill], tmp[:fill])
            t.append(factor * buf[:fill].sum())

    # the phi gathers are int32 and cast to the product's type first
    for d1, d2, j3, f, new in _variance_pairs(n, stop):
        if new and fill:
            close_chunk()
            fill = 0
        factor = f
        m = len(d1)
        pairs += factor * m
        w0 = np.multiply(tables.phi[d1], tables.phi[d2], dtype=object if exact else np.float64)
        # e = j1 + j2 - j3, built over d1 and d2
        e = np.floor_divide(n, d1, out=d1)
        e += np.floor_divide(n, d2, out=d2)
        e -= j3
        if exact:
            for pw, t in zip(powers, terms):
                t.append(factor * (w0 * (pw[e] - pw[e + j3])).sum())
        elif staged is not None:
            for x, y in zip(staged, (e, j3, w0)):
                x[fill : fill + m] = y
            fill += m
        else:
            _beta_terms(powers[0], e, j3, w0, buf[fill : fill + m], tmp[:m])
            fill += m
    if fill:
        close_chunk()
    if counters is not None:
        counters["pairs"] = counters.get("pairs", 0) + pairs
    if exact:
        out = [Fraction(sum(t), pw[0]) for pw, t in zip(powers, terms)]
    else:
        out = [math.fsum(t) for t in terms]
    return out if isinstance(alpha, tuple) else out[0]


def _variance_bytes(n, z: int, alphas: int = 1):
    """An upper estimate of the bytes the float variance_exact allocates at
    n (an int or int64 array) beside the tables, for alphas with Z <= z: the
    k array and each alpha's beta^k table, min(z, n) + 1 floats each; 48
    bytes an alpha per chunk sum, of at most 0.4 n ln(n)^2 / VARIANCE_CHUNK
    + sqrt(n) + 2 chunks; five chunk arrays and 32 blocks of temporaries.
    The tracemalloc peaks of the tests are 30-67% of it: 1.41-1.50 MB at
    alpha = 0.5 up to n = 2*10^6, 4.71 MB at 10^-4 (Z > n) and 2*10^5."""
    top = np.minimum(z, n) + 1
    chunks = 0.4 * n * np.log(n) ** 2 / VARIANCE_CHUNK + np.sqrt(n) + 2
    fixed = 8 * (5 * VARIANCE_CHUNK + 32 * VARIANCE_BLOCK)
    return 8 * (alphas + 1) * top + 48 * alphas * chunks + fixed


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


@functools.cache
def _c1_weight_prefix(limit: int) -> np.ndarray:
    """Prefix sums of the multiplicative weight prod (1-2p)/p^3 over
    squarefree m (zero elsewhere) at the caps of _cap_columns(limit), the
    only ones the sweep reads; built in place over the weights, 9 bytes per
    unit of limit with the sieve (TruncationConfig caps limit), and cached."""
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
    return prefix


def _cap_columns(limit: int) -> np.ndarray:
    """The caps of the C1 inner-sum expansion, ascending: each is some
    limit // n, so they fit in 2 r + 1 columns, r = isqrt(limit), the caps
    0..r and then limit // n for n = r down to 1.  The sweep finds a cap's
    column by searchsorted: the first of the two r's when limit // r = r,
    whose columns hold the same U."""
    r = math.isqrt(limit)
    return np.concatenate((np.arange(r + 1), limit // np.arange(r, 0, -1)))


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
            child = np.searchsorted(caps, caps[c0:c1] // p)
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
    for i in range(width):
        p = padded[owner, i]
        keep = q * p <= limit
        p = p[keep]
        owner = np.concatenate((owner, owner[keep]))
        q = np.concatenate((q, q[keep] * p))
        coef = np.concatenate((coef, coef[keep] * (-1.0 / (p * p))))
    rows = np.array([row.get(s, -1) for s in prime_sets], dtype=np.int64)
    terms = coef * table[rows[owner], np.searchsorted(caps, limit // q)]
    # add.at adds in array order, so each set's terms in ascending mask order
    totals = np.zeros(len(prime_sets))
    np.add.at(totals, owner, terms)
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


def _member_bound(
    alpha: float, config: TruncationConfig, raise_flags: str = "--alpha or --tail-tol"
) -> float:
    """The bound on the S_inf members v(alpha) enumerates, refused past
    V_ALPHA_MEMBER_LIMIT before any power is taken, naming raise_flags.

    A triple (j3, a1, a2) is kept only when (a1 + a2 - 1) j3 <= emax and has
    at most a1 + a2 - 1 members, so j3 brings at most s^3/3 members,
    s = emax // j3 + 1.  The bound sums that over j3 <= min(j3_max, emax) at
    top = (log estimate of emax) + 1 >= emax, in O(min(j3_max, emax)) steps;
    for alpha near 0, where beta^e decays too slowly to resolve, the loop
    stops once the bound passes the limit.
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
    return bound


def _enumeration_depth(alpha: float, config: TruncationConfig) -> int:
    """emax, the largest e with beta^e >= beta_tail_tol: the largest exponent
    j1 + j2 - j3 that v(alpha) keeps, after _member_bound's refusal."""
    _member_bound(alpha, config)
    tol, beta = config.beta_tail_tol, 1.0 - alpha
    e = int(math.log(tol) / math.log1p(-alpha) + 1.0)
    while _powi(beta, e) < tol:
        e -= 1
    while _powi(beta, e + 1) >= tol:
        e += 1
    return e


def _coprime_cofactors(s: int) -> np.ndarray:
    """The int64 a1 <= s with gcd(a1, s + 1) = 1, ascending: the coprime pairs
    (a1, s + 1 - a1) with a1 + a2 - 1 = s."""
    a = np.arange(1, s + 1, dtype=np.int64)
    return a[np.gcd(a, s + 1) == 1]


def s_infinity_members(alpha: float, config: TruncationConfig | None = None):
    """Yield the truncated S_infinity one s = a1 + a2 - 1 at a time, s
    ascending, as (s, a1, a2, blocks): the walk v_alpha sums.

    a1 = _coprime_cofactors(s) and a2 = s + 1 - a1 are the arrays of every
    coprime pair of that s.  The members of a triple (j3, a1, a2) are the
    gaps between consecutive points of {multiples of a1} U {multiples of a2}
    in [a1 a2 j3, a1 a2 (j3 + 1)]; the gap [m2, m1] has j1 = m2 // a1,
    j2 = m2 // a2, rho2 = 1/m2 and rho1 = 1/m1.  Each pair has exactly s + 1
    points in [0, a1 a2]: the a2 + 1 multiples of a1 and the a1 - 1 inner
    multiples of a2 (none is both), so the pairs' points make one
    (pairs, s + 1) matrix, sorted along its rows, and each point passed
    raises j1 or j2 by one: the k-th gap (k from 0) has exponent
    j1 + j2 - j3 = s j3 + k.  The gaps with exponent <= emax
    (beta^e >= beta_tail_tol) are members, so every triple of one (s, j3)
    keeps the same kept = min(s, emax - s j3 + 1) of them.  blocks holds
    (j3, ends) for j3 up to min(j3_max, emax // s): ends is the
    (pairs, kept + 1) matrix of a1 a2 j3 + points, the row of a pair holding
    the end points of its triple's members in order, member k being
    (m2, m1) = (ends[k], ends[k + 1]).
    """
    if config is None:
        config = TruncationConfig()
    emax = _enumeration_depth(alpha, config)
    for s in range(1, emax + 1):
        a1 = _coprime_cofactors(s)
        a2 = s + 1 - a1
        col = np.arange(s + 1, dtype=np.int64)
        points = np.where(col <= a2[:, None], a1[:, None] * col, a2[:, None] * (col - a2[:, None]))
        points.sort(axis=1)
        m = (a1 * a2)[:, None]
        blocks = []
        for j3 in range(1, min(config.j3_max, emax // s) + 1):
            kept = min(s, emax - s * j3 + 1)
            blocks.append((j3, m * j3 + points[:, : kept + 1]))
        yield s, a1, a2, blocks


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
    # the coprime pairs with s = a1 + a2 - 1 <= emax in the walk's order: the
    # triangle's (row, col) = (s - 1, a1 - 1) come s major, a1 ascending
    row, col = np.tril_indices(emax)
    a1, a2 = col + 1, row + 1 - col
    pairs = np.gcd(a1, a2) == 1
    c1_values, c1_tails, sets, evals = _c1_pairs(a1[pairs], a2[pairs], config.c1_cutoff)
    values, tails = [], []
    n_terms = start = 0
    for s, x, _, blocks in s_infinity_members(alpha, config):
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
