"""The sieved Euler totient and its paired summatory sum.

One construction pass fills a dense table of the Euler totient phi for every
integer up to a bound N.  The table is immutable after construction and safe
to share across threads.

The module also holds what the other modules share: the prime sieve, the
validation of an (n, alpha, tables) point and the exact-rational alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import ResourceLimitError

# largest table limit build_tables accepts: its one int32 array then takes
# about 40 MB
TABLE_LIMIT = 10**7
# elements of one int64 chunk in phi_pair_summatory
PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class ArithTables:
    """The totient table up to ``limit``, 1-indexed (index 0 unused).

    Attributes:
        limit: largest argument covered.
        phi: int32, phi[m] = Euler totient of m; exact, since
            phi(m) <= m <= TABLE_LIMIT < 2^31.  A reader whose sums or
            products can pass 2^31 casts first.
    """

    limit: int
    phi: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by the table."""
        return self.phi.nbytes


def primes_up_to(limit: int) -> np.ndarray:
    """The primes p <= limit in ascending order, as int64 (Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


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


def build_tables(limit: int) -> ArithTables:
    """Sieve phi up to ``limit`` (inclusive).

    One vectorized pass per small prime p multiplies phi over the multiples
    of p by (1 - 1/p), in place: p divides every partial product at its
    multiples, so dividing by p first is exact and needs no temporary.  The
    large primes follow in one pass per batch of ``split_primes``, about
    sqrt(limit) passes in all.  The divisions are exact in any order.  The
    table is int32: every entry starts at m <= TABLE_LIMIT < 2^31 and the
    sieve only lowers it.  Raises ResourceLimitError above TABLE_LIMIT,
    before allocating anything.
    """
    if limit < 1:
        raise ValueError(f"table limit must be >= 1, got {limit}")
    if limit > TABLE_LIMIT:
        raise ResourceLimitError(f"table limit {limit} exceeds the cap {TABLE_LIMIT}")
    n = int(limit)
    # the prime sieve is freed before the table exists; int32 primes keep
    # the batch division in int32, and their int64 multiples index phi as
    # numpy indexes, with no conversion
    small, large, counts = split_primes(n)
    large = large.astype(np.int32)
    phi = np.arange(n + 1, dtype=np.int32)
    for p in small.tolist():
        v = phi[p::p]
        v //= p
        v *= p - 1
    for j, k in enumerate(counts, 1):
        idx = np.multiply(large[:k], j, dtype=np.int64)
        phi[idx] -= phi[idx] // large[:k]
    phi.setflags(write=False)
    return ArithTables(limit=n, phi=phi)


def check_point(n: int, alpha=None, tables: ArithTables | None = None) -> None:
    """Raise ValueError unless n >= 1, the tables (when given) cover 1..n
    and alpha (when given) lies in [0, 1]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if tables is not None and tables.limit < n:
        raise ValueError(f"tables cover 1..{tables.limit}, need {n}")
    if alpha is not None and not 0.0 <= float(alpha) <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def as_fraction(alpha) -> Fraction:
    """alpha as an exact Fraction; a float is refused, since its binary
    value is not the rational the user meant."""
    if isinstance(alpha, float):
        raise TypeError("exact-rational mode needs a Fraction or int alpha, not float")
    if isinstance(alpha, Rational):
        return Fraction(alpha)
    raise TypeError(f"cannot interpret {alpha!r} as a rational probability")


def phi_pair_summatory(tables: ArithTables, a1: int, a2: int, x: float) -> int:
    """Exact sum_{m <= floor(x)} phi(a1*m) * phi(a2*m).

    Requires a1*floor(x) and a2*floor(x) within the table.  Sums int64
    products PAIR_CHUNK at a time, each chunk's int32 gathers cast before
    the product, and adds each chunk's sum as a Python int.  Each chunk is
    exact: a product is at most TABLE_LIMIT^2 < 2^47, so PAIR_CHUNK = 2^14
    of them stay below 2^63, and the chunk size cannot change the total.
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
    total = 0
    for s in range(1, m + 1, PAIR_CHUNK):
        idx = np.arange(s, min(s + PAIR_CHUNK, m + 1), dtype=np.int64)
        total += int((tables.phi[a1 * idx].astype(np.int64) * tables.phi[a2 * idx]).sum())
    return total
