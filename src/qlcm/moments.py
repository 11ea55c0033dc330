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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ArithTables, as_fraction, check_point, phi_summatory, primes_up_to
from .errors import ResourceLimitError

PI2_OVER_6 = math.pi * math.pi / 6.0
# (zeta(2)^2)/3 bounds sum over a1, a2 >= 1 of (a1 a2 / 3) * (1/(a1 a2 j3))^3
# by a1 a2 >= 1; used in the truncation-error budget of v(alpha).
_ZETA2_SQ_OVER_3 = PI2_OVER_6 * PI2_OVER_6 / 3.0
# Calibrated: 10x the worst observed |C1(T) - C1(10^7)| / model ratio over
# coprime pairs up to 7x30 and T in [10^3, 10^5]; tests pin the regression.
_C1_TAIL_COEFF = 0.05

EXACT_RATIONAL_LIMIT = 30
# elements per chunk of the variance pair walk; bounds its working set
VARIANCE_CHUNK = 1 << 16


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation levels for the series evaluations.

    c1_cutoff bounds [d1', d2'] in the C1 double sum; j3_max and
    beta_tail_tol bound the S_infinity enumeration; dilog_tol drives the
    dilogarithm series.
    """

    c1_cutoff: int = 100000
    j3_max: int = 40
    beta_tail_tol: float = 1e-12
    dilog_tol: float = 1e-12

    def __post_init__(self):
        if self.c1_cutoff < 1:
            raise ValueError(f"c1_cutoff must be positive, got {self.c1_cutoff}")
        if self.j3_max < 1:
            raise ValueError(f"j3_max must be positive, got {self.j3_max}")
        for name in ("beta_tail_tol", "dilog_tol"):
            v = getattr(self, name)
            if not 0.0 < v <= 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v}")


@dataclass(frozen=True)
class C1Estimate:
    """Truncated value of C1(a1, a2) plus a tail-error estimate."""

    a1: int
    a2: int
    value: float
    tail_error: float
    cutoff: int


@dataclass(frozen=True)
class VAlphaEstimate:
    """Truncated v(alpha) with the accounted truncation error.

    truncation_error adds the C1 tails of every summed term to the bounds on
    the dropped (j1, j2) range and the dropped j3 > j3_max range.
    """

    alpha: float
    value: float
    truncation_error: float
    terms: int
    config: TruncationConfig


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


def expectation_exact(n: int, alpha, tables: ArithTables, exact: bool = False):
    """E[X] = sum over 1 < d <= n of phi(d) (1 - beta^floor(n/d)).

    Float path groups d by constant j = floor(n/d) (one beta power and one
    Phi-prefix difference per block, fsum over blocks).  exact=True takes a
    rational alpha and n <= EXACT_RATIONAL_LIMIT and returns a Fraction.
    """
    check_point(n, alpha, tables)
    if exact:
        a = as_fraction(alpha)
        if n > EXACT_RATIONAL_LIMIT:
            raise ResourceLimitError(
                f"exact-rational expectation limited to n <= {EXACT_RATIONAL_LIMIT}"
            )
        beta = 1 - a
        return sum(
            (Fraction(int(tables.phi[d])) * (1 - _powi(beta, n // d)) for d in range(2, n + 1)),
            Fraction(0),
        )
    beta = 1.0 - float(alpha)
    terms = []
    d = 2
    while d <= n:
        j = n // d
        hi = n // j
        block = float(tables.phi_prefix[hi] - tables.phi_prefix[d - 1])
        terms.append(block * (1.0 - _powi(beta, j)))
        d = hi + 1
    return math.fsum(terms)


def expectation_grouped(n: int, alpha: float, tables: ArithTables) -> float:
    """alpha * sum over j <= n of beta^(j-1) Phi(n/j), minus the d = 1
    addend 1 - beta^n, which makes it equal expectation_exact identically."""
    check_point(n, alpha, tables)
    alpha = float(alpha)
    beta = 1.0 - alpha
    terms = []
    for j in range(1, n + 1):
        bj = _powi(beta, j - 1)
        if bj == 0.0:
            break
        terms.append(bj * float(phi_summatory(tables, n // j)))
    return alpha * math.fsum(terms) - (1.0 - _powi(beta, n))


def expectation_asymptotic(n: int, alpha: float) -> float:
    """Main term (3/pi^2) * alpha_factor(alpha) * n^2."""
    check_point(n)
    return (3.0 / (math.pi * math.pi)) * alpha_factor(float(alpha)) * float(n) * float(n)


def _cofactor_groups(n: int):
    """(a, all b > a coprime to a with ab <= n, 2) for a <= sqrt(n), after
    the diagonal a = b = 1, which counts once."""
    yield 1, np.ones(1, dtype=np.int64), 1.0
    for a in range(1, math.isqrt(n) + 1):
        b = np.arange(a + 1, n // a + 1, dtype=np.int64)
        yield a, b[np.gcd(b, a) == 1], 2.0


def variance_exact(n: int, alpha, tables: ArithTables, exact: bool = False):
    """V[X] as the exact double sum over 1 < d1, d2 <= n of

        phi(d1) phi(d2) beta^(j1 + j2 - j3) (1 - beta^j3),

    with j_i = floor(n/d_i) and j3 = floor(n / lcm(d1, d2)); pairs whose lcm
    exceeds n contribute exactly zero.  The float path visits only the
    others: d1 = g a, d2 = g b with gcd(a, b) = 1 has lcm g a b <= n, so it
    loops over the cofactor pairs a <= b and walks their (b, g) elements in
    chunks of VARIANCE_CHUNK, combining the chunk sums by fsum in fixed
    order.  exact=True mirrors the dense sum in Fractions for rational alpha
    and n <= EXACT_RATIONAL_LIMIT.
    """
    check_point(n, alpha, tables)
    if exact:
        a = as_fraction(alpha)
        if n > EXACT_RATIONAL_LIMIT:
            raise ResourceLimitError(
                f"exact-rational variance limited to n <= {EXACT_RATIONAL_LIMIT}"
            )
        beta = 1 - a
        total = Fraction(0)
        for d1 in range(2, n + 1):
            j1 = n // d1
            for d2 in range(2, n + 1):
                g = math.gcd(d1, d2)
                l = (d1 // g) * d2
                j3 = n // l
                if j3 == 0:
                    continue
                j2 = n // d2
                total += (
                    Fraction(int(tables.phi[d1]) * int(tables.phi[d2]))
                    * _powi(beta, j1 + j2 - j3)
                    * (1 - _powi(beta, j3))
                )
        return total
    # d1, d2 >= 2 bound every exponent j1 + j2 - j3 by n
    pb = np.power(1.0 - float(alpha), np.arange(n + 1, dtype=np.float64))
    phi_f = tables.phi[: n + 1].astype(np.float64)
    sums = []
    for a, b, factor in _cofactor_groups(n):
        g0 = 2 if a == 1 else 1  # g = 1 would make d1 = a = 1
        counts = n // (a * b) - (g0 - 1)
        ends = np.cumsum(counts)
        starts = ends - counts
        size = int(counts.sum())
        for s in range(0, size, VARIANCE_CHUNK):
            e = min(s + VARIANCE_CHUNK, size)
            # the runs of b[i0:i1] that overlap the elements [s, e)
            i0 = int(np.searchsorted(ends, s, side="right"))
            i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
            reps = np.minimum(ends[i0:i1], e) - np.maximum(starts[i0:i1], s)
            d2 = np.repeat(b[i0:i1], reps)
            g = np.arange(s + g0, e + g0, dtype=np.int64) - np.repeat(starts[i0:i1], reps)
            d1 = g * a
            d2 *= g
            j3 = n // (d2 * a)
            w = phi_f[d1] * phi_f[d2] * pb[n // d1 + n // d2 - j3] * (1.0 - pb[j3])
            sums.append(factor * float(np.sum(w)))
    return math.fsum(sums)


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
# ---------------------------------------------------------------------------

_c1_prefix_cache: dict[int, np.ndarray] = {}
_c1_value_cache: dict[tuple[int, int, int], "C1Estimate"] = {}


def _prime_factors(m: int) -> tuple[int, ...]:
    ps = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        ps.append(m)
    return tuple(ps)


def _sigma_over_m(m: int) -> float:
    total = 1
    for p in _prime_factors(m):
        pk = p
        while m % (pk * p) == 0:
            pk *= p
        total *= (pk * p - 1) // (p - 1)
    return total / m


def _totient(m: int) -> int:
    r = m
    for p in _prime_factors(m):
        r -= r // p
    return r


def _c1_weight_prefix(limit: int) -> np.ndarray:
    """Prefix sums of the multiplicative weight prod (1-2p)/p^3 over
    squarefree m (zero elsewhere)."""
    cached = _c1_prefix_cache.get(limit)
    if cached is not None:
        return cached
    w = np.ones(limit + 1, dtype=np.float64)
    w[0] = 0.0
    for p in primes_up_to(limit):
        p = int(p)
        w[p::p] *= (1.0 - 2.0 * p) / (p * p * p)
        if p * p <= limit:
            w[p * p :: p * p] = 0.0
    prefix = np.cumsum(w)
    prefix.setflags(write=False)
    _c1_prefix_cache[limit] = prefix
    return prefix


def _coprime_weight_sum(cap: int, avoid: tuple[int, ...], prefix: np.ndarray, memo: dict) -> float:
    """Sum of the sieved weights over squarefree m <= cap coprime to every
    prime in avoid.  The sieved prefix counts all squarefree m, so each
    avoided prime is stripped by the alternating expansion
    U(cap, S) = U(cap, S - {p}) - w0(p) U(cap/p, S)."""
    if cap <= 0:
        return 0.0
    if not avoid:
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


def _inner_sum(limit: int, primes: tuple[int, ...]) -> float:
    """Sum of the C1 weights over squarefree m <= limit, where the primes of
    a1 a2 carry weight -1/p^2 and every other prime its sieved weight."""
    prefix = _c1_weight_prefix(limit)
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


def c1_constant(a1: int, a2: int, config: TruncationConfig | None = None) -> C1Estimate:
    """Truncated C1(a1, a2) for coprime a1, a2, with a tail-error estimate
    proportional to (sigma(a1 a2)/(a1 a2)) * log(T)/T."""
    if config is None:
        config = TruncationConfig()
    if a1 < 1 or a2 < 1:
        raise ValueError(f"a1, a2 must be positive, got ({a1}, {a2})")
    if math.gcd(a1, a2) != 1:
        raise ValueError(f"C1 is only needed for coprime pairs, got ({a1}, {a2})")
    key = (a1, a2, config.c1_cutoff)
    hit = _c1_value_cache.get(key)
    if hit is not None:
        return hit
    t = config.c1_cutoff
    m = a1 * a2
    inner = _inner_sum(t, _prime_factors(m))
    value = (_totient(a1) * _totient(a2) / 3.0) * inner
    tail = (m / 3.0) * _sigma_over_m(m) * _C1_TAIL_COEFF * math.log(max(t, 2)) / t
    est = C1Estimate(a1=a1, a2=a2, value=value, tail_error=tail, cutoff=t)
    _c1_value_cache[key] = est
    return est


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
    terms = []
    for d1 in range(1, lim1 + 1):
        m1 = int(mu[d1])
        if m1 == 0:
            continue
        e1 = d1 // math.gcd(a1, d1)
        if e1 > cutoff:
            continue
        for d2 in range(1, lim2 + 1):
            m2 = int(mu[d2])
            if m2 == 0:
                continue
            e2 = d2 // math.gcd(a2, d2)
            g = math.gcd(e1, e2)
            l = (e1 // g) * e2
            if l > cutoff:
                continue
            terms.append(m1 * m2 / (d1 * d2 * l))
    return (a1 * a2 / 3.0) * math.fsum(terms)


def rho_bounds(a1: int, a2: int, j1: int, j2: int, j3: int) -> tuple[Fraction, Fraction]:
    """(rho1, rho2): the max of the three lower ratios and the min of the
    three upper ratios, as exact rationals."""
    for name, v in (("a1", a1), ("a2", a2), ("j1", j1), ("j2", j2), ("j3", j3)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    m1 = min(a1 * (j1 + 1), a2 * (j2 + 1), a1 * a2 * (j3 + 1))
    m2 = max(a1 * j1, a2 * j2, a1 * a2 * j3)
    return Fraction(1, m1), Fraction(1, m2)


def _beta_exponent_cap(beta: float, tol: float) -> int:
    """Largest e >= 0 with beta^e >= tol (e = -1 when even beta^0 < tol,
    which cannot happen for tol <= 1)."""
    if beta <= 0.0:
        return 0
    e = max(int(math.log(tol) / math.log(beta)), 0)
    while _powi(beta, e + 1) >= tol:
        e += 1
    while e >= 0 and _powi(beta, e) < tol:
        e -= 1
    return e


def s_infinity_members(alpha: float, config: TruncationConfig | None = None):
    """Yield (a1, a2, j1, j2, j3, m1, m2) over the truncated S_infinity grid.

    j3 <= j3_max; j1, j2 >= j3 run while beta^(j1+j2-j3) >= beta_tail_tol;
    a1 ranges over the open interval (j2/(j3+1), (j2+1)/j3) and a2 over
    (j1/(j3+1), (j1+1)/j3); gcd(a1, a2) = 1; membership keeps rho1 < rho2,
    i.e. m1 > m2 where rho1 = 1/m1 and rho2 = 1/m2.  All interval and
    membership decisions are integer comparisons.
    """
    if config is None:
        config = TruncationConfig()
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"v(alpha) is defined on open (0, 1), got {alpha}")
    beta = 1.0 - alpha
    emax = _beta_exponent_cap(beta, config.beta_tail_tol)
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


def v_alpha(alpha: float, config: TruncationConfig | None = None) -> VAlphaEstimate:
    """The limiting variance constant

        v(alpha) = sum over S_infinity of beta^(j1+j2-j3) (1-beta^j3)
                   * C1(a1, a2) * (rho2^3 - rho1^3),

    truncated per config.  truncation_error accounts the C1 tail of every
    summed term plus geometric bounds on the dropped (j1, j2) and j3 ranges,
    each using sum_{a1,a2} C1 * rho2^3 <= (zeta(2)^2/3) / j3^3.
    """
    if config is None:
        config = TruncationConfig()
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"v(alpha) is defined on open (0, 1), got {alpha}")
    beta = 1.0 - alpha
    emax = _beta_exponent_cap(beta, config.beta_tail_tol)
    pb = [_powi(beta, k) for k in range(emax + 2)]
    total = 0.0
    comp = 0.0
    err_c1 = 0.0
    n_terms = 0
    for a1, a2, j1, j2, j3, m1, m2 in s_infinity_members(alpha, config):
        w = pb[j1 + j2 - j3] * (1.0 - pb[j3])
        est = c1_constant(a1, a2, config)
        drho = 1.0 / (m2 * m2 * m2) - 1.0 / (m1 * m1 * m1)
        y = w * est.value * drho - comp
        t = total + y
        comp = (t - total) - y
        total = t
        err_c1 += w * drho * est.tail_error
        n_terms += 1

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
    return VAlphaEstimate(
        alpha=alpha,
        value=total,
        truncation_error=err_c1 + err_j + err_j3,
        terms=n_terms,
        config=config,
    )
