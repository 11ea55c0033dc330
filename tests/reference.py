"""Slow reference implementations that the fast library paths are checked
against."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from qlcm import moments
from qlcm.arith import ArithTables, check_point, prime_factors, primes_up_to, split_primes
from qlcm.model import ExactDistribution
from qlcm.moments import (
    _C1_TAIL_COEFF,
    C1Estimate,
    TruncationConfig,
    VAlphaEstimate,
    _dropped_bounds,
    _enumeration_depth,
    _powi,
)
from qlcm.qpoly import ONE, ZERO, IntPoly, _primitive, poly_divexact, poly_gcd, poly_mul, q_analog


def dense_variance(n: int, alphas, tables, block_rows: int = 96) -> list[float]:
    """V[X] at each alpha of alphas as the dense double sum over every pair
    1 < d1, d2 <= n of

        phi(d1) phi(d2) beta^(j1 + j2 - j3) (1 - beta^j3),

    j3 = floor(n / lcm(d1, d2)), pairs with lcm > n included (they add
    zero).  Walks the upper triangle in row blocks, off-diagonal pairs
    counted twice; each block's alpha-free grid (j3, the exponents, the phi
    products and the triangle factor) is built once for all alphas, and each
    alpha reduces its rows in fixed order through its own Kahan accumulator.
    O(n^2) time; meant for n up to a few thousand.
    """
    if n < 2:
        return [0.0] * len(alphas)
    pbs = [np.power(1.0 - float(alpha), np.arange(2 * n + 1, dtype=np.float64)) for alpha in alphas]
    phi_f = tables.phi[: n + 1].astype(np.float64)
    totals = [[0.0, 0.0] for _ in alphas]  # (total, compensation) per alpha
    for r0 in range(2, n + 1, block_rows):
        r1 = min(r0 + block_rows - 1, n)
        rows = np.arange(r0, r1 + 1, dtype=np.int64)
        cols = np.arange(r0, n + 1, dtype=np.int64)
        g = np.gcd.outer(rows, cols)
        lcm = (rows[:, None] // g) * cols[None, :]
        j3 = n // lcm
        e = (n // rows)[:, None] + (n // cols)[None, :] - j3
        phi2 = (phi_f[rows])[:, None] * (phi_f[cols])[None, :]
        # upper triangle doubled, diagonal once, lower (cols < row) dropped
        factor = (cols[None, :] > rows[:, None]).astype(np.float64) + (
            cols[None, :] >= rows[:, None]
        )
        for pb, acc in zip(pbs, totals):
            w = pb[e] * (1.0 - pb[j3])
            row_sums = (phi2 * w * factor).sum(axis=1)
            for s in row_sums:
                y = float(s) - acc[1]
                t = acc[0] + y
                acc[1] = (t - acc[0]) - y
                acc[0] = t
    return [total for total, _ in totals]


def variance_pairs_walk(n: int):
    """The chunks of moments._variance_pairs built the plain way: the a = 1
    run over every b up to n, its zero-count tail included, a gcd mask at
    every a, an n-long starts array and fresh arrays for d1 and j3."""
    diagonal = [(1, np.ones(1, dtype=np.int64), 1)]
    rest = (
        (a, np.arange(a + 1, n // a + 1, dtype=np.int64), 2) for a in range(1, math.isqrt(n) + 1)
    )
    for a, b, factor in itertools.chain(diagonal, rest):
        b = b[np.gcd(b, a) == 1]
        g0 = 2 if a == 1 else 1  # g = 1 would make d1 = a = 1
        counts = n // (a * b) - (g0 - 1)
        ends = np.cumsum(counts)
        starts = ends - counts
        size = int(counts.sum())
        for s in range(0, size, moments.VARIANCE_CHUNK):
            e = min(s + moments.VARIANCE_CHUNK, size)
            # the runs of b[i0:i1] that overlap the elements [s, e)
            i0 = int(np.searchsorted(ends, s, side="right"))
            i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
            reps = np.minimum(ends[i0:i1], e) - np.maximum(starts[i0:i1], s)
            d2 = np.repeat(b[i0:i1], reps)
            g = np.arange(s + g0, e + g0, dtype=np.int64) - np.repeat(starts[i0:i1], reps)
            d1 = g * a
            d2 *= g
            yield d1, d2, n // (d2 * a), factor


def variance_by_plain_walk(n: int, alpha: float, tables) -> float:
    """The float V[X] of moments.variance_exact over the chunks of
    variance_pairs_walk, each chunk in one expression on float64 copies of
    phi, in the library's order of operations."""
    pw = np.power(1.0 - float(alpha), np.arange(n + 1, dtype=np.float64))
    phi = tables.phi[: n + 1].astype(np.float64)
    terms = []
    for d1, d2, j3, factor in variance_pairs_walk(n):
        e = n // d1 + n // d2 - j3
        terms.append(factor * (phi[d1] * phi[d2] * pw[e] * (1 - pw[j3])).sum())
    return math.fsum(terms)


def underflow_scan(beta: float, n: int) -> int:
    """moments._underflow by scanning the powers: the first k <= n at which
    np.power(beta, k) is 0.0, or n + 1.  Tries 1024 powers first, then four
    times as many while none is 0.0, so it holds min(Z, n)-long arrays."""
    size = min(n + 1, 1024)
    while True:
        zero = np.flatnonzero(np.power(beta, np.arange(size, dtype=np.float64)) == 0.0)
        if len(zero) or size > n:
            return int(zero[0]) if len(zero) else n + 1
        size = min(n + 1, 4 * size)


def subset_counts_walk(n: int, phi: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(x, size, count) over all 2^n subsets of 1..n, in walk order: count
    sets of that size have degree x.  Walks the subset lattice once by
    recursion, carrying the covered-divisor mask; phi holds phi(0..n)."""
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


def enumerate_exact_fraction(n: int, alpha, tables) -> ExactDistribution:
    """The exact distribution over all 2^n sets in Fractions: each count of
    subset_counts_walk's (degree, set size s) weighted by
    alpha^s (1 - alpha)^(n - s), the pmf, mean and variance summed as
    Fractions."""
    a = Fraction(alpha)
    counts = subset_counts_walk(n, tuple(int(x) for x in tables.phi[: n + 1]))
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


def expectation_per_d_rational(n: int, alpha: Fraction, tables) -> Fraction:
    """E[X] in Fractions, one addend phi(d) (1 - beta^floor(n/d)) per d."""
    beta = 1 - Fraction(alpha)
    return sum(
        (Fraction(int(tables.phi[d])) * (1 - _powi(beta, n // d)) for d in range(2, n + 1)),
        Fraction(0),
    )


def dense_variance_rational(n: int, alpha: Fraction, tables) -> Fraction:
    """V[X] in Fractions over every ordered pair 1 < d1, d2 <= n, the pairs
    with lcm(d1, d2) > n skipped (they add zero).  O(n^2) Fraction terms."""
    beta = 1 - Fraction(alpha)
    total = Fraction(0)
    for d1 in range(2, n + 1):
        j1 = n // d1
        for d2 in range(2, n + 1):
            j3 = n // math.lcm(d1, d2)
            if j3 == 0:
                continue
            j2 = n // d2
            total += (
                Fraction(int(tables.phi[d1]) * int(tables.phi[d2]))
                * _powi(beta, j1 + j2 - j3)
                * (1 - _powi(beta, j3))
            )
    return total


def expectation_grouped_loop(n: int, alpha: float, tables) -> float:
    """E[X] as alpha * sum over j <= n of beta^(j-1) Phi(n/j) minus 1 - beta^n,
    one _powi per j, stopping at the first power that is 0.0."""
    check_point(n, alpha, tables)
    alpha = float(alpha)
    beta = 1.0 - alpha
    prefix = np.cumsum(tables.phi[: n + 1])
    terms = []
    for j in range(1, n + 1):
        bj = _powi(beta, j - 1)
        if bj == 0.0:
            break
        terms.append(bj * float(prefix[n // j]))
    return alpha * math.fsum(terms) - (1.0 - _powi(beta, n))


def _coprime_weight_sum(cap: int, avoid: tuple, prefix: np.ndarray, memo: dict) -> float:
    """Sum of the sieved C1 weights over squarefree m <= cap coprime to every
    prime in avoid (ascending), by U(cap, S) = U(cap, S - {p}) - w0(p)
    U(cap/p, S), p = avoid[0], memoized per (cap, avoid)."""
    if cap <= 0:
        return 0.0
    if not avoid or cap < avoid[0]:
        return float(prefix[cap])
    key = (cap, avoid)
    hit = memo.get(key)
    if hit is None:
        p = avoid[0]
        w0 = (1.0 - 2.0 * p) / (p * p * p)
        hit = _coprime_weight_sum(cap, avoid[1:], prefix, memo) - w0 * _coprime_weight_sum(
            cap // p, avoid, prefix, memo
        )
        memo[key] = hit
    return hit


def inner_sum_recursive(limit: int, primes: tuple) -> float:
    """The C1 inner sum of one prime set: coef * U(limit // prod, primes)
    over every subset of primes with prod <= limit, in ascending mask order,
    through the memoized recursion."""
    prefix = c1_weight_prefix_per_prime(limit)
    k = len(primes)
    memo: dict = {}
    total = 0.0
    for s_mask in range(1 << k):
        prod_s = 1
        coef_s = 1.0
        for i in range(k):
            if s_mask >> i & 1:
                p = primes[i]
                prod_s *= p
                coef_s *= -1.0 / (p * p)
        if prod_s > limit:
            continue
        total += coef_s * _coprime_weight_sum(limit // prod_s, primes, prefix, memo)
    return total


def phi_per_prime(limit: int) -> np.ndarray:
    """phi[0..limit] by one slice pass per prime: phi[p::p] -= phi[p::p] // p."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes_up_to(limit):
        phi[p::p] -= phi[p::p] // p
    return phi


def primes_plain(limit: int) -> np.ndarray:
    """The primes p <= limit as int64, ascending, from one bool sieve over
    0..limit: the sieve arith.primes_up_to runs by segments."""
    sieve = np.ones(max(limit + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve[: limit + 1]).astype(np.int64)


def build_tables_monolithic(limit: int) -> ArithTables:
    """The totient table up to limit in one piece: one slice pass per prime
    p <= isqrt(limit) over the whole table, then the large primes in one
    gather and scatter per multiple index j, phi[j P] -= phi[j P] // P."""
    small, large, counts = split_primes(limit)
    large = large.astype(np.int32)
    phi = np.arange(limit + 1, dtype=np.int32)
    for p in small.tolist():
        v = phi[p::p]
        v //= p
        v *= p - 1
    for j, k in enumerate(counts, 1):
        idx = np.multiply(large[:k], j, dtype=np.int64)
        phi[idx] -= phi[idx] // large[:k]
    phi.setflags(write=False)
    return ArithTables(limit=limit, phi=phi)


def phi_pair_from_table(tables, a1: int, a2: int, x: float) -> int:
    """sum_{m <= floor(x)} phi(a1 m) phi(a2 m) read from a table that covers
    max(a1, a2) floor(x), int64 products summed 2^14 at a time."""
    m = math.floor(x)
    assert max(a1, a2) * m <= tables.limit
    total = 0
    for s in range(1, m + 1, 1 << 14):
        idx = np.arange(s, min(s + (1 << 14), m + 1), dtype=np.int64)
        total += int((tables.phi[a1 * idx].astype(np.int64) * tables.phi[a2 * idx]).sum())
    return total


@functools.lru_cache(maxsize=4)
def c1_weight_prefix_per_prime(limit: int) -> np.ndarray:
    """Prefix sums of prod (1-2p)/p^3 over squarefree m <= limit, one slice
    pass per prime in ascending order, squares zeroed at their prime;
    read-only, and cached for the recursion's many sets at one limit."""
    w = np.ones(limit + 1, dtype=np.float64)
    w[0] = 0.0
    for p in primes_up_to(limit):
        p = int(p)
        w[p::p] *= (1.0 - 2.0 * p) / (p * p * p)
        if p * p <= limit:
            w[p * p :: p * p] = 0.0
    prefix = np.cumsum(w)
    prefix.setflags(write=False)
    return prefix


def draw_by_generator(seed: int, trial_index: int, n: int, alpha) -> np.ndarray:
    """Membership bitmap over 0..n of one keyed trial, by float uniforms:
    Generator(Philox(key)).random(n) < alpha, key = (seed << 64) | trial."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | trial_index))
    bits = np.zeros(n + 1, dtype=bool)
    bits[1:] = rng.random(n) < alpha
    return bits


def plane_rows(planes: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, n + 1) bool bitmaps of a block of byte planes, row by row:
    row r is bit r % 8 of plane r // 8."""
    return np.array([(planes[r // 8] >> (r % 8)) & 1 for r in range(rows)], dtype=bool)


def c1_constant_direct(a1: int, a2: int, cutoff: int) -> float:
    """Reference evaluation straight from the defining double sum: squarefree
    d1, d2 with [d1/(a1,d1), d2/(a2,d2)] <= cutoff.  Quadratic in a_i*cutoff;
    test-scale only."""
    if math.gcd(a1, a2) != 1:
        raise ValueError(f"C1 is only needed for coprime pairs, got ({a1}, {a2})")

    lim1, lim2 = a1 * cutoff, a2 * cutoff
    limit = max(lim1, lim2)
    mu = np.ones(limit + 1, dtype=np.int64)  # the Mobius function
    mu[0] = 0
    for p in primes_up_to(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    # the squarefree d2 in ascending order; each d1 takes them in one numpy
    # expression, every integer below 2^53 so each quotient is the correctly
    # rounded one that Python's int division gives
    d2 = np.nonzero(mu[1 : lim2 + 1])[0] + 1
    m2 = mu[d2]
    e2 = d2 // np.gcd(a2, d2)
    terms = []
    for d1 in range(1, lim1 + 1):
        m1 = int(mu[d1])
        if m1 == 0:
            continue
        e1 = d1 // math.gcd(a1, d1)
        if e1 > cutoff:
            continue
        l = (e1 // np.gcd(e1, e2)) * e2
        keep = l <= cutoff
        terms.extend(((m1 * m2[keep]) / (d1 * d2[keep] * l[keep])).tolist())
    return (a1 * a2 / 3.0) * math.fsum(terms)


def _sigma_over_m(m: int, primes: tuple[int, ...]) -> float:
    total = 1
    for p in primes:
        pk = p
        while m % (pk * p) == 0:
            pk *= p
        total *= (pk * p - 1) // (p - 1)
    return total / m


def _pair_primes(a1: int, a2: int) -> tuple[int, ...]:
    """The primes of a1 a2 for coprime a1, a2, ascending: the two disjoint
    factorizations merged."""
    return tuple(sorted(prime_factors(a1) + prime_factors(a2)))


def c1_constant_scalar(a1: int, a2: int, config: TruncationConfig | None = None):
    """C1(a1, a2) and its tail error one pair at a time in Python ints, phi
    and sigma of a1 a2 from its primes: the scalar path the vector pass
    moments._c1_pairs replaced.  The inner sum goes through the library's
    cache, evaluated on a miss by _inner_sums on the one prime set."""
    if config is None:
        config = TruncationConfig()
    if a1 < 1 or a2 < 1:
        raise ValueError(f"a1, a2 must be positive, got ({a1}, {a2})")
    if math.gcd(a1, a2) != 1:
        raise ValueError(f"C1 is only needed for coprime pairs, got ({a1}, {a2})")
    t = config.c1_cutoff
    m = a1 * a2
    primes = _pair_primes(a1, a2)
    key = (t, math.prod(primes))
    inner = moments._c1_inner_cache.get(key)
    if inner is None:
        (inner,) = moments._inner_sums(t, [primes])
        moments._c1_inner_cache[key] = inner
    phi_m = m  # phi(a1) phi(a2) = phi(a1 a2) for coprime a1, a2
    for p in primes:
        phi_m -= phi_m // p
    value = (phi_m / 3.0) * inner
    tail = (m / 3.0) * _sigma_over_m(m, primes) * _C1_TAIL_COEFF * math.log(max(t, 2)) / t
    return C1Estimate(value=value, tail_error=tail, cutoff=t)


def _primes_below(limit: int) -> list[int]:
    return [p for p in range(2, limit) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _mobius(j: int) -> int:
    sign = 1
    for p in _primes_below(j + 1):
        if j % p == 0:
            j //= p
            if j % p == 0:
                return 0
            sign = -sign
    return sign


def _zeta_minus_one(s: int, cut: int = 20) -> float:
    """zeta(s) - 1 for integer s >= 2: the terms 2 <= m < cut, then the
    Euler-Maclaurin tail at cut with five Bernoulli corrections."""
    terms = [m**-s for m in range(2, cut)]
    terms += [cut ** (1 - s) / (s - 1), 0.5 * cut**-s]
    rising = s  # s (s + 1) ... (s + 2i - 2)
    for i, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66), 1):
        terms.append(b / math.factorial(2 * i) * rising * cut ** (1 - s - 2 * i))
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return math.fsum(terms)


def _prime_zeta(k: int) -> float:
    """P(k) = sum over primes of p^-k = sum over j of mu(j)/j log zeta(jk),
    the j with jk past 64 dropped (log zeta(jk) < 2^-63)."""
    return math.fsum(
        _mobius(j) / j * math.log1p(_zeta_minus_one(j * k)) for j in range(1, 64 // k + 1)
    )


def euler_product_k(direct: int = 100, kmax: int = 12) -> float:
    """K = product over primes of (1 - (2p - 1)/p^3), in pure Python floats.

    The primes below direct are multiplied in one by one.  For the rest,
    log(1 - 2u^2 + u^3) = -sum_k s_k u^k / k with s_k the power sums of the
    roots of t^3 - 2t + 1 (s_k = 2 s_(k-2) - s_(k-3)), and each power of the
    primes past direct is P(k) less the primes below it, for k <= kmax: past
    that the subtraction cancels to noise, and the terms are below 10^-20.
    """
    small = _primes_below(direct)
    logs = [math.log1p(-(2 * p - 1) / p**3) for p in small]
    s = [3, 0, 4]
    for k in range(2, kmax + 1):
        if k >= len(s):
            s.append(2 * s[k - 2] - s[k - 3])
        rest = _prime_zeta(k) - math.fsum(p**-k for p in small)
        logs.append(-s[k] / k * rest)
    return math.exp(math.fsum(logs))


def c1_closed_form(a1: int, a2: int) -> float:
    """C1(a1, a2) as its Euler product, the sieve's limit as the cutoff grows:
    (phi(a1 a2)/3) K prod over p | a1 a2 of (1 - 1/p^2)/(1 - (2p - 1)/p^3)."""
    m = a1 * a2
    value = m / 3 * euler_product_k()
    for p in _primes_below(m + 1):
        if m % p == 0:
            value *= (1 - 1 / p) * (1 - 1 / p**2) / (1 - (2 * p - 1) / p**3)
    return value


def s_infinity_cells(alpha: float, config: TruncationConfig | None = None):
    """Yield (a1, a2, j1, j2, j3, m1, m2) over the truncated S_infinity grid,
    testing every cell of every (j1, j2) box.

    j3 <= j3_max; j1, j2 >= j3 run while beta^(j1+j2-j3) >= beta_tail_tol;
    a1 ranges over the open interval (j2/(j3+1), (j2+1)/j3) and a2 over
    (j1/(j3+1), (j1+1)/j3); gcd(a1, a2) = 1; membership keeps rho1 < rho2,
    i.e. m1 > m2 where rho1 = 1/m1 and rho2 = 1/m2.  All interval and
    membership decisions are integer comparisons.
    """
    if config is None:
        config = TruncationConfig()
    emax = _enumeration_depth(alpha, config)
    for j3 in range(1, min(config.j3_max, emax) + 1):
        for j1 in range(j3, emax + 1):
            for j2 in range(j3, emax - j1 + j3 + 1):
                a1_lo = j2 // (j3 + 1) + 1
                a1_hi = j2 // j3
                a2_lo = j1 // (j3 + 1) + 1
                a2_hi = j1 // j3
                for a1 in range(a1_lo, a1_hi + 1):
                    for a2 in range(a2_lo, a2_hi + 1):
                        if math.gcd(a1, a2) != 1:
                            continue
                        m1 = min(a1 * (j1 + 1), a2 * (j2 + 1), a1 * a2 * (j3 + 1))
                        m2 = max(a1 * j1, a2 * j2, a1 * a2 * j3)
                        if m1 > m2:
                            yield (a1, a2, j1, j2, j3, m1, m2)


def v_alpha_per_term(alpha: float, config: TruncationConfig | None = None) -> tuple[float, int]:
    """(v(alpha), member count) summed one S_infinity member at a time over
    s_infinity_cells through a Kahan accumulator, C1 evaluated once per
    pair by c1_constant_scalar."""
    if config is None:
        config = TruncationConfig()
    beta = 1.0 - alpha
    emax = _enumeration_depth(alpha, config)
    pb = [_powi(beta, k) for k in range(emax + 2)]
    total = 0.0
    comp = 0.0
    n_terms = 0
    c1 = {}  # C1 of each pair, looked up once
    for a1, a2, j1, j2, j3, m1, m2 in s_infinity_cells(alpha, config):
        w = pb[j1 + j2 - j3] * (1.0 - pb[j3])
        drho = 1.0 / (m2 * m2 * m2) - 1.0 / (m1 * m1 * m1)
        if (a1, a2) not in c1:
            c1[a1, a2] = c1_constant_scalar(a1, a2, config).value
        y = w * c1[a1, a2] * drho - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n_terms += 1
    return total, n_terms


def v_alpha_per_triple(alpha: float, config: TruncationConfig | None = None) -> VAlphaEstimate:
    """v(alpha) summed one coprime triple (j3, a1, a2) at a time, a1 major,
    each triple's points sorted on their own and C1 looked up per triple by
    c1_constant_scalar; math.fsum combines the per-triple products, the
    dropped-range bounds are the library's."""
    if config is None:
        config = TruncationConfig()
    emax = _enumeration_depth(alpha, config)
    beta = 1.0 - alpha
    pb = np.array([_powi(beta, k) for k in range(emax + 1)])
    values, tails = [], []
    n_terms = 0
    radicals = set()
    evals_before = len(moments._c1_inner_cache)
    for a1 in range(1, emax + 1):
        for a2 in range(1, emax - a1 + 2):
            if math.gcd(a1, a2) != 1:
                continue
            s = a1 + a2 - 1
            m = a1 * a2
            radicals.add(math.prod(_pair_primes(a1, a2)))
            points = np.sort(np.concatenate(([0, m], np.arange(a1, m, a1), np.arange(a2, m, a2))))
            for j3 in range(1, min(config.j3_max, emax // s) + 1):
                k = min(s, emax - s * j3 + 1)
                f = (m * j3 + points[: k + 1]).astype(np.float64)
                inv_cube = 1.0 / (f * f * f)
                e0 = s * j3
                drho = inv_cube[:-1] - inv_cube[1:]
                part = (1.0 - pb[j3]) * float(np.sum(pb[e0 : e0 + k] * drho))
                est = c1_constant_scalar(a1, a2, config)
                values.append(est.value * part)
                tails.append(est.tail_error * part)
                n_terms += k
    err_j, err_j3 = _dropped_bounds(alpha, emax, config)
    return VAlphaEstimate(
        value=math.fsum(values),
        truncation_error=math.fsum(tails) + err_j + err_j3,
        terms=n_terms,
        triples=len(values),
        c1_prime_sets=len(radicals),
        c1_inner_evals=len(moments._c1_inner_cache) - evals_before,
    )


def poly_lcm(f: IntPoly, g: IntPoly) -> IntPoly:
    """lcm of primitive parts, positive leading coefficient."""
    if f.is_zero() or g.is_zero():
        return ZERO
    pf = IntPoly(_primitive(f.coeffs))
    pg = IntPoly(_primitive(g.coeffs))
    d = poly_gcd(pf, pg)
    out = poly_mul(poly_divexact(pf, d), pg)
    if out.coeffs[-1] < 0:
        out = IntPoly([-c for c in out.coeffs])
    return out


def lcm_degree_by_fold(elements) -> int:
    """Degree of lcm{ [k]_q : k in elements }, folding the set with
    poly_lcm: each step divides the whole accumulator by a gcd."""
    acc = ONE
    for k in sorted(set(elements)):
        acc = poly_lcm(acc, q_analog(k))
    return acc.degree


def _rem_q_analog(coeffs, k: int) -> list[int]:
    """Remainder of a polynomial by [k]_q, k >= 2, as k - 1 coefficients.

    Folds mod q^k - 1 (coefficient i into slot i mod k), which [k]_q
    divides, then subtracts the top slot times the monic [k]_q.
    """
    slots = [sum(coeffs[j::k]) for j in range(k)]
    top = slots.pop()
    return [c - top for c in slots]


def lcm_degree_by_accumulator(elements) -> int:
    """Degree of lcm{ [k]_q : k in elements }, folding the set largest first
    into an accumulator f <- f * ([k]_q / g), g = gcd([k]_q, f mod [k]_q),
    with f mod [k]_q taken by _rem_q_analog; f stays as it is when k divides
    an element already folded (remainder 0, g = [k]_q)."""
    acc = ONE
    for k in sorted(set(elements), reverse=True):
        if k == 1:
            continue
        qk = q_analog(k)
        g = poly_gcd(qk, IntPoly._of_ints(_rem_q_analog(acc.coeffs, k)))
        if g != qk:
            acc = poly_mul(acc, poly_divexact(qk, g))
    return acc.degree
