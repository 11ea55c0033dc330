"""Exact polynomial arithmetic over the integers.

Provides q-analogs ``1 + q + ... + q^(k-1)``, cyclotomic polynomials, and two
independent brute-force oracles for the degree of the lcm of a set of
q-analogs: one multiplies out cyclotomic factors over the divisor closure of
the set, the other folds the set with ``lcm(f, [k]_q) = f * [k]_q / g``,
``g = gcd(f, [k]_q)``, found by Euclid on the integers.

Coefficients are arbitrary-precision Python integers, stored dense and
lowest-degree first, and every division is exact integer long division.
``IntPoly(...)`` applies ``int`` to its input; results built here skip that.
The gcd oracle never divides its growing accumulator: since
``q^k - 1 = (q - 1) [k]_q``, the accumulator reduces mod ``[k]_q`` by adding
coefficient i into slot i mod k (that is, mod ``q^k - 1``) and taking one
monic step by ``[k]_q``, so the gcd runs on polynomials of degree below k.
It folds the largest element first, so an element dividing one already
folded leaves remainder 0, Euclid returns ``[k]_q`` at once, and the
accumulator is not multiplied by the unit quotient.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .arith import _INT64_SAFE
from .errors import ResourceLimitError

# Default cap on elements fed to the degree oracles; they are meant for
# desk-scale verification, not production-size sets.
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

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        return poly_mul(self, other)

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


def _validated_elements(elements, limit):
    items = sorted({int(k) for k in elements})
    for k in items:
        if k < 1:
            raise ValueError(f"set elements must be positive integers, got {k}")
        if k > limit:
            raise ResourceLimitError(f"oracle element {k} exceeds limit {limit}")
    return items


def _rem_q_analog(coeffs, k: int) -> list[int]:
    """Remainder of a polynomial by [k]_q, k >= 2, as k - 1 coefficients.

    Folds mod q^k - 1 (coefficient i into slot i mod k), which [k]_q
    divides, then subtracts the top slot times the monic [k]_q.
    """
    slots = [sum(coeffs[j::k]) for j in range(k)]
    top = slots.pop()
    return [c - top for c in slots]


def lcm_degree_oracle(elements, method: str = "cyclotomic", limit: int = ORACLE_LIMIT) -> int:
    """Degree of lcm{ [k]_q : k in elements }, by brute polynomial arithmetic.

    method="cyclotomic": collect the divisor closure {d > 1 : d | k for some
    k}, multiply the corresponding cyclotomic polynomials, and report the
    product's degree.  method="gcd": fold the set, largest first, into f by
    f <- f * ([k]_q / g), g = gcd([k]_q, f mod [k]_q), leaving f as it is
    when k divides an element already folded (then f mod [k]_q = 0 and
    g = [k]_q); shares no code with the first path beyond base polynomial
    arithmetic.  The empty set has lcm 1, hence degree 0.
    """
    items = _validated_elements(elements, limit)
    if method == "cyclotomic":
        closure = set()
        for k in items:
            for d in range(2, k + 1):
                if k % d == 0:
                    closure.add(d)
        prod = ONE
        for d in sorted(closure):
            prod = poly_mul(prod, cyclotomic(d))
        return prod.degree
    if method == "gcd":
        acc = ONE
        for k in reversed(items):
            if k == 1:
                continue
            qk = q_analog(k)
            g = poly_gcd(qk, IntPoly._of_ints(_rem_q_analog(acc.coeffs, k)))
            if g != qk:
                acc = poly_mul(acc, poly_divexact(qk, g))
        return acc.degree
    raise ValueError(f"unknown oracle method {method!r}")
