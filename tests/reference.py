"""Slow reference implementations that the fast library paths are checked
against."""

import numpy as np

from qlcm.qpoly import ONE, ZERO, IntPoly, _primitive, poly_divexact, poly_gcd, poly_mul, q_analog


def dense_variance(n: int, alpha: float, tables, block_rows: int = 96) -> float:
    """V[X] as the dense double sum over every pair 1 < d1, d2 <= n of

        phi(d1) phi(d2) beta^(j1 + j2 - j3) (1 - beta^j3),

    j3 = floor(n / lcm(d1, d2)), pairs with lcm > n included (they add
    zero).  Walks the upper triangle in row blocks, off-diagonal pairs
    counted twice, and reduces the rows in fixed order through a Kahan
    accumulator.  O(n^2) time; meant for n up to a few thousand.
    """
    if n < 2:
        return 0.0
    beta = 1.0 - float(alpha)
    pb = np.power(beta, np.arange(2 * n + 1, dtype=np.float64))
    phi_f = tables.phi[: n + 1].astype(np.float64)
    total = 0.0
    comp = 0.0
    for r0 in range(2, n + 1, block_rows):
        r1 = min(r0 + block_rows - 1, n)
        rows = np.arange(r0, r1 + 1, dtype=np.int64)
        cols = np.arange(r0, n + 1, dtype=np.int64)
        g = np.gcd.outer(rows, cols)
        lcm = (rows[:, None] // g) * cols[None, :]
        j3 = n // lcm
        e = (n // rows)[:, None] + (n // cols)[None, :] - j3
        w = pb[e] * (1.0 - pb[j3])
        terms = (phi_f[rows])[:, None] * (phi_f[cols])[None, :] * w
        # upper triangle doubled, diagonal once, lower (cols < row) dropped
        factor = (cols[None, :] > rows[:, None]).astype(np.float64) + (
            cols[None, :] >= rows[:, None]
        )
        row_sums = (terms * factor).sum(axis=1)
        for s in row_sums:
            y = float(s) - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total


def poly_lcm(f: IntPoly, g: IntPoly) -> IntPoly:
    """lcm of primitive parts, positive leading coefficient."""
    if f.is_zero() or g.is_zero():
        return ZERO
    pf = IntPoly(_primitive(f.coeffs))
    pg = IntPoly(_primitive(g.coeffs))
    d = poly_gcd(pf, pg)
    out = poly_mul(poly_divexact(pf, d), pg)
    if out.leading() < 0:
        out = IntPoly([-c for c in out.coeffs])
    return out


def lcm_degree_by_fold(elements) -> int:
    """Degree of lcm{ [k]_q : k in elements }, folding the set with
    poly_lcm: each step divides the whole accumulator by a gcd."""
    acc = ONE
    for k in sorted(set(elements)):
        acc = poly_lcm(acc, q_analog(k))
    return acc.degree
