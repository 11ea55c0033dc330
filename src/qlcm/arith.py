"""The sieved Euler totient and its paired summatory sum.

One segmented sieve writes the Euler totient phi over a run of consecutive
integers in place.  It fills the dense table of phi up to a bound N segment
by segment, and the paired sum streams phi through one reused segment with
no table.  The table is immutable after construction and safe to share
across threads.

The module also holds what the other modules share: the prime sieve, the
validation rules (the table cap, an (n, alpha, tables) point and a C1
pair) and the exact-rational alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import ResourceLimitError

# largest table limit build_tables accepts: its one int32 array then takes
# about 40 MB
TABLE_LIMIT = 10**7
# elements of one int64 chunk in phi_pair_summatory; _fill writes the large
# primes' (j, P) pairs about PAIR_CHUNK // 2 at a time
PAIR_CHUNK = 1 << 14
# entries of one sieve segment: an int32 slice of 256 KiB, or the bools of
# 2 SIEVE_SEGMENT numbers in primes_up_to
SIEVE_SEGMENT = 1 << 16


class ArithTables:
    """The totient table up to ``limit``, 1-indexed (index 0 unused).

    Attributes:
        limit: largest argument covered.
        phi: int32, phi[m] = Euler totient of m; exact, since
            phi(m) <= m <= TABLE_LIMIT < 2^31.  A reader whose sums or
            products can pass 2^31 casts first.

    A plain class, not a named tuple, so that vars() lists its arrays, as
    perfbench's tracer reads them.
    """

    def __init__(self, limit: int, phi: np.ndarray):
        self.limit = limit
        self.phi = phi

    @property
    def nbytes(self) -> int:
        """Bytes held by the table."""
        return self.phi.nbytes


def primes_up_to(limit: int) -> np.ndarray:
    """The primes p <= limit in ascending order, as int64 (Eratosthenes).

    The odd primes up to isqrt(limit) come from a plain sieve, then the odd
    numbers above them one segment of SIEVE_SEGMENT bools at a time, each
    bool standing for lo + 2 i + 1.  The output array is sized by Rosser
    and Schoenfeld's bound pi(x) < 1.25506 x / ln x (x > 1), and its head is
    returned as a view.
    """
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    r = math.isqrt(limit)
    head = np.ones(r + 1, dtype=bool)
    head[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if head[p]:
            head[p * p :: p] = False
    odd = np.flatnonzero(head)[1:]
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    out[0] = 2
    count = 1
    seg = np.empty(SIEVE_SEGMENT, dtype=bool)
    for lo in range(0, limit + 1, 2 * SIEVE_SEGMENT):
        s = seg[: min(SIEVE_SEGMENT, (limit - lo + 1) // 2)]
        s[:] = True
        if lo == 0:
            s[0] = False  # 1
        # each p from its first odd multiple >= max(p^2, lo): a smaller
        # multiple has a smaller prime factor
        first = np.maximum(odd * odd, -(-lo // odd) * odd)
        first += odd * (first % 2 == 0)
        for p, i in zip(odd.tolist(), ((first - lo - 1) // 2).tolist()):
            s[i::p] = False
        found = np.flatnonzero(s)
        found *= 2
        found += lo + 1
        out[count : count + len(found)] = found
        count += len(found)
    return out[:count]


def prime_factors(a: int) -> tuple[int, ...]:
    """The distinct primes of a >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= a:
        if a % p == 0:
            primes.append(p)
            while a % p == 0:
                a //= p
        p += 1
    if a > 1:
        primes.append(a)
    return tuple(primes)


def split_primes(limit: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The primes p <= limit split at r = isqrt(limit): (small, large,
    counts), small the primes p <= r and large those above r, ascending.

    No m <= limit has two prime factors above r, or one squared, so a large
    prime P acts on its multiple j*P alone and j < P.  The sieves therefore
    apply all large primes in one vector op per j = 1..limit // (r + 1),
    over large[:counts[j - 1]], the large primes P <= limit // j.
    """
    primes = primes_up_to(limit)
    r = math.isqrt(limit)
    small = primes[primes <= r]
    large = primes[len(small) :]
    js = np.arange(1, limit // (r + 1) + 1)
    counts = np.searchsorted(large, limit // js, side="right").tolist()
    return small, large, counts


def _sieve_primes(limit: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """What ``_fill`` needs to sieve phi up to ``limit``: (small, large,
    head), the primes p <= r = isqrt(limit) as a list, those above r as
    int32, and head = phi(0..limit // (r + 1)), which the small primes alone
    sieve, since every large prime exceeds its range."""
    small, large, _ = split_primes(limit)
    small = small.tolist()
    head = np.empty(limit // (math.isqrt(limit) + 1) + 1, dtype=np.int32)
    _fill(0, head, small, large[:0], head)
    return small, large.astype(np.int32), head


def _fill(lo: int, out: np.ndarray, small: list[int], large: np.ndarray, head: np.ndarray) -> None:
    """Write phi(lo), ..., phi(lo + len(out) - 1) into the int32 slice
    ``out``, in place (``_sieve_primes`` gives the other arguments).

    One slice pass per small prime p multiplies phi over the multiples of p
    by (1 - 1/p): p divides every partial product at its multiples, so
    dividing by p first is exact and needs no temporary.  Then every large
    prime P at once: a multiple j*P <= limit has j <= limit // (r + 1) < P,
    so j is coprime to P and phi(j*P) = phi(j) * (P - 1), with phi(j) read
    from ``head``.  The pairs (j, P) with j*P in the segment are, for each j,
    one run of ``large``, found for every j by two searchsorted calls, and
    the ragged set is written one vector op a piece, each piece the whole
    runs that start in one stretch of PAIR_CHUNK // 2 pairs.  Every value
    is exact: phi(m) <= m <= TABLE_LIMIT < 2^31.
    """
    hi = lo + len(out)
    out[:] = np.arange(lo, hi, dtype=np.int32)
    for p in small:
        v = out[-lo % p :: p]
        v //= p
        v *= p - 1
    js = np.arange(1, len(head), dtype=np.int32)
    first = np.searchsorted(large, -(-lo // js))
    counts = np.searchsorted(large, -(-hi // js)) - first
    starts = np.cumsum(counts) - counts
    # a piece: the runs of j that start in one stretch of PAIR_CHUNK // 2 pairs
    # (np.unique here would import numpy.ma: 1.3 MB of resident memory)
    cuts = np.flatnonzero(np.diff(starts // (PAIR_CHUNK // 2), prepend=-1)).tolist()
    for j0, j1 in zip(cuts, [*cuts[1:], len(js)]):
        c = counts[j0:j1]
        j = np.repeat(js[j0:j1], c)
        # the run of j starts at large[first[j]]: offset each position of the
        # ragged piece by that start less the run's place in the piece
        k = np.arange(len(j)) + np.repeat(first[j0:j1] - (starts[j0:j1] - starts[j0]), c)
        big = large[k]
        out[j * big - lo] = head[j] * (big - 1)


def build_tables(limit: int) -> ArithTables:
    """Sieve phi up to ``limit`` (inclusive), one segment of
    ``SIEVE_SEGMENT`` entries at a time, each filled in place in the table
    by ``_fill``.  The table is int32: every entry is at most
    m <= TABLE_LIMIT < 2^31.  Raises ResourceLimitError above TABLE_LIMIT,
    before allocating anything.
    """
    if limit < 1:
        raise ValueError(f"table limit must be >= 1, got {limit}")
    check_cap(limit, "table limit")
    n = int(limit)
    # the prime sieve is freed before the table exists
    small, large, head = _sieve_primes(n)
    phi = np.empty(n + 1, dtype=np.int32)
    for lo in range(0, n + 1, SIEVE_SEGMENT):
        _fill(lo, phi[lo : lo + SIEVE_SEGMENT], small, large, head)
    phi.setflags(write=False)
    return ArithTables(limit=n, phi=phi)


def check_cap(value: int, what: str) -> None:
    """Raise ResourceLimitError when ``what``, worth value, passes TABLE_LIMIT."""
    if value > TABLE_LIMIT:
        raise ResourceLimitError(f"{what} {value} exceeds the table cap {TABLE_LIMIT}")


def check_point(n: int | None = None, alpha=None, tables: ArithTables | None = None) -> None:
    """Raise ValueError unless n >= 1, the tables (when given) cover 1..n
    and alpha lies in [0, 1], each when given; a rational alpha is compared
    exactly, so a Fraction is never rounded, and any other as a float."""
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if tables is not None and tables.limit < n:
        raise ValueError(f"tables cover 1..{tables.limit}, need {n}")
    if alpha is not None and not 0 <= (alpha if isinstance(alpha, Rational) else float(alpha)) <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def check_pair(a1: int, a2: int) -> None:
    """Raise ValueError unless a1, a2 are positive and coprime, as C1 needs."""
    if min(a1, a2) < 1 or math.gcd(a1, a2) != 1:
        raise ValueError(f"needs coprime positive a1, a2, got ({a1}, {a2})")


def as_fraction(alpha) -> Fraction:
    """alpha as an exact Fraction; a float is refused, since its binary
    value is not the rational the user meant."""
    if isinstance(alpha, float):
        raise TypeError("exact-rational mode needs a Fraction or int alpha, not float")
    if isinstance(alpha, Rational):
        return Fraction(alpha)
    raise TypeError(f"cannot interpret {alpha!r} as a rational probability")


def segment_bytes(x: float) -> int:
    """Bytes of the int32 buffer that phi_pair_summatory streams
    phi(0..floor(x)) through."""
    return 4 * min(SIEVE_SEGMENT, math.floor(x) + 1)


def _phi_of_multiple(phi: np.ndarray, start: int, a: int, primes: tuple[int, ...]) -> np.ndarray:
    """phi(a*m) for m = start, start + 1, ... as int64, from phi(m):
    phi(a*m) = phi(m) * phi(a) * prod of p / (p - 1) over the primes p of a
    that divide m.  Dividing by p - 1 first is exact, since the product
    holds phi(a) and so p - 1."""
    f = phi * (a * math.prod(p - 1 for p in primes) // math.prod(primes))
    for p in primes:
        v = f[-start % p :: p]
        v //= p - 1
        v *= p
    return f


def phi_pair_summatory(a1: int, a2: int, x: float) -> int:
    """Exact sum_{m <= floor(x)} phi(a1*m) * phi(a2*m).

    Streams phi(0..floor(x)) through one reused segment buffer of
    ``_fill``, so it sieves floor(x) entries, not max(a1, a2) * floor(x),
    and takes phi(a*m) from phi(m) by ``_phi_of_multiple``.  Sums int64
    products PAIR_CHUNK at a time, and adds each chunk's sum as a Python
    int.  Refuses max(a1, a2) * floor(x) past TABLE_LIMIT, which keeps each
    chunk exact: a product is at most TABLE_LIMIT^2 < 2^47, so
    PAIR_CHUNK = 2^14 of them stay below 2^63, and the chunk size cannot
    change the total.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError("strides a1, a2 must be positive")
    m = math.floor(x)
    if m < 1:
        return 0
    check_cap(max(a1, a2) * m, "phi_pair_summatory's largest index")
    small, large, head = _sieve_primes(m)
    primes1, primes2 = prime_factors(a1), prime_factors(a2)
    buf = np.empty(segment_bytes(m) // 4, dtype=np.int32)
    total = 0
    for lo in range(0, m + 1, SIEVE_SEGMENT):
        seg = buf[: m + 1 - lo]
        _fill(lo, seg, small, large, head)
        for s in range(0, len(seg), PAIR_CHUNK):
            phi = seg[s : s + PAIR_CHUNK].astype(np.int64)
            f1 = _phi_of_multiple(phi, lo + s, a1, primes1)
            f2 = f1 if a2 == a1 else _phi_of_multiple(phi, lo + s, a2, primes2)
            total += int((f1 * f2).sum())
    return total
