"""Exact polynomial arithmetic over the integers.

Provides q-analogs ``1 + q + ... + q^(k-1)``, cyclotomic polynomials, and two
independent brute-force oracles for the degree of the lcm of a set of
q-analogs: one sums the degrees of the cyclotomic polynomials over the
divisor closure of the set, the other builds, for each element k, the gcd of
``[k]_q`` with the lcm of the elements before it, from pairwise gcds found
by Euclid on the integers.

Coefficients are arbitrary-precision Python integers, stored dense and
lowest-degree first, and every division is exact integer long division.
``IntPoly(...)`` applies ``int`` to its input; results built here skip that.

The gcd oracle never forms the lcm itself.  In a UFD
``gcd(a, lcm(b, c)) = lcm(gcd(a, b), gcd(a, c))`` and
``deg lcm(L, a) = deg L + deg a - deg gcd(L, a)``, so each element k, largest
first, adds ``k - 1 - deg g_k`` with g_k the lcm of ``gcd([k]_q, [m]_q)``
over the elements m folded before it.  Every polynomial involved divides
some ``[k]_q``, so it has degree below k; the pairwise gcds are cached by
(k, m), at most n(n - 1)/2 of them, and shared by every set of a run.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .errors import ResourceLimitError

# largest product bound we trust to an int64 accumulator
_INT64_SAFE = 2**62

# Cap on elements fed to the degree oracles; they are meant for desk-scale
# verification, not production-size sets.
ORACLE_LIMIT = 512


def _trim(cs: list) -> tuple:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly:
    """Dense integer-coefficient polynomial, lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(list(map(int, coeffs)))

    @classmethod
    def _of_ints(cls, cs: list) -> IntPoly:
        """From a list of Python ints, trimmed in place, with no int() pass."""
        p = object.__new__(cls)
        p.coeffs = _trim(cs)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly('0')"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else (" - " if parts else ("-" if c < 0 else ""))
            mag = abs(c)
            term = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            body = str(mag) if (i == 0 or mag != 1) else ""
            parts.append(f"{sign}{body}{term}")
        return f"IntPoly('{''.join(parts)}')"


ZERO = IntPoly(())
ONE = IntPoly((1,))


def q_analog(k: int) -> IntPoly:
    """The polynomial 1 + q + ... + q^(k-1), of degree k-1."""
    if k < 1:
        raise ValueError(f"q_analog requires k >= 1, got {k}")
    return IntPoly._of_ints([1] * k)


def poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact product, via int64 convolution when provably overflow-free."""
    fc, gc = f.coeffs, g.coeffs
    if not fc or not gc:
        return ZERO
    if min(len(fc), len(gc)) * max(map(abs, fc)) * max(map(abs, gc)) < _INT64_SAFE:
        out = np.convolve(np.asarray(fc, dtype=np.int64), np.asarray(gc, dtype=np.int64))
        return IntPoly._of_ints(out.tolist())
    res = [0] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        if a:
            for j, b in enumerate(gc):
                res[i + j] += a * b
    return IntPoly._of_ints(res)


def _divmod_python(fc, gc):
    """Integer long division; returns (q, r, ok) with ok False when some
    leading-coefficient step is not integral over Z."""
    dg = len(gc) - 1
    lg = gc[-1]
    dq = len(fc) - len(gc)
    if dq < 0:
        return [], list(fc), True
    r = list(fc)
    q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = r[i + dg]
        if c == 0:
            continue
        if c % lg:
            return q, r, False
        c //= lg
        q[i] = c
        for j in range(dg + 1):
            r[i + j] -= c * gc[j]
    return q, r[:dg], True


def poly_divexact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g when g divides f exactly over Z; raises otherwise."""
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return ZERO
    q, r, ok = _divmod_python(f.coeffs, g.coeffs)
    if not ok or any(r):
        raise ValueError(f"{f!r} is not exactly divisible by {g!r}")
    return IntPoly._of_ints(q)


def _primitive(coeffs):
    c = reduce(math.gcd, coeffs, 0)
    if c > 1:
        return [x // c for x in coeffs]
    return list(coeffs)


def _pseudo_rem(fc, gc):
    """Pseudo-remainder of fc by gc (content is stripped by the caller)."""
    dg = len(gc) - 1
    lg = gc[-1]
    if lg == 1:
        _, r, _ = _divmod_python(fc, gc)
        return _trim(r)
    r = list(fc)
    while len(r) - 1 >= dg and r:
        t = r[-1]
        off = len(r) - 1 - dg
        r = [lg * c for c in r]
        for j in range(dg + 1):
            r[off + j] -= t * gc[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z, positive leading coefficient.

    Primitive pseudo-remainder sequence: the content is removed after every
    pseudo-division step, which keeps coefficient growth in check without
    rational arithmetic.
    """
    if f.is_zero() and g.is_zero():
        return ZERO
    a = _primitive(f.coeffs) if not f.is_zero() else []
    b = _primitive(g.coeffs) if not g.is_zero() else []
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    if a[-1] < 0:
        a = [-c for c in a]
    return IntPoly._of_ints(a)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial; its degree is the totient of d."""
    if d < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {d}")
    # q^d - 1 divided by the cyclotomics of all proper divisors of d.
    poly = IntPoly._of_ints([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            poly = poly_divexact(poly, cyclotomic(e))
    return poly


def _validated_elements(elements):
    items = sorted({int(k) for k in elements})
    for k in items:
        if k < 1:
            raise ValueError(f"set elements must be positive integers, got {k}")
        if k > ORACLE_LIMIT:
            raise ResourceLimitError(f"oracle element {k} exceeds limit {ORACLE_LIMIT}")
    return items


@lru_cache(maxsize=None)
def _q_gcd(k: int, m: int) -> IntPoly:
    """gcd([k]_q, [m]_q) by Euclid over Z."""
    return poly_gcd(q_analog(k), q_analog(m))


# entries of the lcm memo; its keys are whole polynomials, so it is bounded
LCM_MEMO_SIZE = 4096


@lru_cache(maxsize=LCM_MEMO_SIZE)
def _divisor_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    """lcm of two divisors of one [k]_q: primitive, positive leading
    coefficient, as both are."""
    return poly_mul(poly_divexact(a, poly_gcd(a, b)), b)


def lcm_degree_oracle(elements, method: str = "cyclotomic") -> int:
    """Degree of lcm{ [k]_q : k in elements }, by brute polynomial arithmetic.

    method="cyclotomic": sum deg Phi_d over the divisor closure {d > 1 :
    d | k for some k}, each Phi_d built by exact division of q^d - 1; the
    Phi_d are monic and distinct, so this is the degree of their product.
    method="gcd": for each k, largest first, add k - 1 - deg g_k, where g_k
    is the lcm of gcd([k]_q, [m]_q) over the elements m already folded, each
    gcd found by Euclid and cached by (k, m); the loop over m stops once
    g_k = [k]_q.  The second path shares no code with the first beyond base
    polynomial arithmetic.  The empty set has lcm 1, hence degree 0.
    """
    items = _validated_elements(elements)
    if method == "cyclotomic":
        closure = {d for k in items for d in range(2, k + 1) if k % d == 0}
        return sum(cyclotomic(d).degree for d in closure)
    if method == "gcd":
        degree = 0
        folded: list[int] = []
        for k in reversed(items):
            if k == 1:
                continue
            g = ONE
            for m in folded:
                g = _divisor_lcm(g, _q_gcd(k, m))
                if g.degree == k - 1:
                    break
            degree += k - 1 - g.degree
            folded.append(k)
        return degree
    raise ValueError(f"unknown oracle method {method!r}")
