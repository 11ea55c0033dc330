"""Exact integer polynomial arithmetic and the two lcm-degree oracles."""

import numpy as np
import pytest
from reference import _rem_q_analog, lcm_degree_by_accumulator, lcm_degree_by_fold, poly_lcm

from qlcm import qpoly
from qlcm.errors import ResourceLimitError
from qlcm.qpoly import (
    ONE,
    ZERO,
    IntPoly,
    _divmod_python,
    _primitive,
    cyclotomic,
    lcm_degree_oracle,
    poly_divexact,
    poly_gcd,
    poly_mul,
    q_analog,
)

Q_MINUS_1 = IntPoly((-1, 1))


def q_pow_minus_1(k):
    return IntPoly((-1,) + (0,) * (k - 1) + (1,))


def test_intpoly_basics():
    assert ZERO.degree == -1 and ZERO.is_zero()
    assert ONE.degree == 0 and ONE.coeffs == (1,)
    assert IntPoly((1, 0, 0)) == ONE  # trailing zeros stripped
    assert IntPoly((0, 2)).coeffs[-1] == 2
    assert hash(IntPoly((1, 1))) == hash(q_analog(2))
    assert len({ONE, IntPoly((1,)), ZERO}) == 2
    assert repr(cyclotomic(6)) == "IntPoly('q^2 - q + 1')"
    assert repr(IntPoly((-3, 0, 1))) == "IntPoly('q^2 - 3')"


def test_q_analog_examples():
    assert q_analog(1) == ONE
    assert q_analog(3).coeffs == (1, 1, 1)
    assert q_analog(3).degree == 2
    with pytest.raises(ValueError):
        q_analog(0)


@pytest.mark.parametrize("k", range(1, 51))
def test_q_analog_telescopes(k):
    # (q - 1) * [k]_q = q^k - 1
    assert poly_mul(Q_MINUS_1, q_analog(k)) == q_pow_minus_1(k)


def test_cyclotomic_examples():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_degree_is_totient(tables_small):
    for d in range(1, 201):
        assert cyclotomic(d).degree == tables_small.phi[d]


def test_cyclotomic_product_identity():
    # prod_{d | k} Phi_d(q) = q^k - 1
    for k in range(1, 201):
        prod = ONE
        for d in range(1, k + 1):
            if k % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        assert prod == q_pow_minus_1(k), f"failed at k={k}"


def test_poly_mul_examples():
    assert poly_mul(IntPoly((1, 1)), IntPoly((-1, 1))) == IntPoly((-1, 0, 1))
    f = IntPoly((3, -2, 7))
    assert poly_mul(f, ONE) == f
    assert poly_mul(f, ZERO) == ZERO
    assert poly_mul(ZERO, ZERO) == ZERO


def test_poly_mul_big_coefficients_match_small_path():
    # scale one operand past the int64 guard; products must agree after unscaling
    rng = np.random.default_rng(3)
    for _ in range(20):
        fc = [int(c) for c in rng.integers(-50, 51, size=40)]
        gc = [int(c) for c in rng.integers(-50, 51, size=35)]
        small = poly_mul(IntPoly(fc), IntPoly(gc))
        s = 2**41
        big = poly_mul(IntPoly([c * s for c in fc]), IntPoly(gc))
        assert big.coeffs == tuple(c * s for c in small.coeffs)


def test_poly_divexact_examples():
    assert poly_divexact(IntPoly((-1, 0, 1)), Q_MINUS_1) == IntPoly((1, 1))
    f = IntPoly((2, 5, 1))
    assert poly_divexact(f, f) == ONE
    assert poly_divexact(ZERO, f) == ZERO
    assert poly_divexact(q_pow_minus_1(6), cyclotomic(6)) == poly_mul(
        poly_mul(cyclotomic(1), cyclotomic(2)), cyclotomic(3)
    )


def test_poly_divexact_rejects():
    with pytest.raises(ValueError):
        poly_divexact(IntPoly((1, 0, 1)), IntPoly((1, 1)))
    with pytest.raises(ValueError):
        poly_divexact(IntPoly((1, 1)), ZERO)
    # degree too small is not divisible either
    with pytest.raises(ValueError):
        poly_divexact(IntPoly((1, 1)), IntPoly((1, 1, 1)))


@pytest.mark.parametrize("scale", [1, 2**45])
def test_divexact_roundtrip_randomized(scale):
    # f*g / g == f with small coefficients and with coefficients past 2^45
    rng = np.random.default_rng(11 + scale % 97)
    for _ in range(25):
        fc = [int(c) * scale for c in rng.integers(-9, 10, size=40)]
        gc = [int(c) for c in rng.integers(-9, 10, size=8)]
        f, g = IntPoly(fc), IntPoly(gc)
        if f.is_zero() or g.is_zero():
            continue
        assert poly_divexact(poly_mul(f, g), g) == f


def test_poly_gcd_q_power_identity():
    # gcd(q^a - 1, q^b - 1) = q^gcd(a,b) - 1
    import math

    for a in range(1, 25):
        for b in range(1, 25):
            got = poly_gcd(q_pow_minus_1(a), q_pow_minus_1(b))
            assert got == q_pow_minus_1(math.gcd(a, b)), (a, b)


def test_poly_gcd_edge_cases():
    f = IntPoly((2, 2))  # 2(q+1)
    assert poly_gcd(f, ZERO) == IntPoly((1, 1))
    assert poly_gcd(ZERO, f) == IntPoly((1, 1))
    assert poly_gcd(ZERO, ZERO) == ZERO
    # content is stripped, sign normalized
    assert poly_gcd(IntPoly((2, 2)), IntPoly((4, 4))) == IntPoly((1, 1))
    assert poly_gcd(IntPoly((-1, -1)), IntPoly((-2, -2))) == IntPoly((1, 1))


def test_poly_gcd_non_monic_factor():
    # common factor 3q+2 forces real pseudo-division steps
    common = IntPoly((2, 3))
    f = poly_mul(common, IntPoly((5, 0, 1)))
    g = poly_mul(common, IntPoly((7, 2)))
    assert poly_gcd(f, g) == common


def test_poly_lcm_examples():
    f, g = q_pow_minus_1(2), q_pow_minus_1(3)
    got = poly_lcm(f, g)
    assert got == poly_divexact(poly_mul(f, g), Q_MINUS_1)
    assert got.degree == 4
    assert poly_lcm(f, ZERO) == ZERO
    assert poly_lcm(IntPoly((2, 2)), IntPoly((1, 1))) == IntPoly((1, 1))
    assert poly_lcm(f, f) == f


def test_gcd_lcm_product_relation():
    rng = np.random.default_rng(5)
    for _ in range(40):
        fc = [int(c) for c in rng.integers(-4, 5, size=7)]
        gc = [int(c) for c in rng.integers(-4, 5, size=6)]
        f, g = IntPoly(fc), IntPoly(gc)
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        m = poly_lcm(f, g)
        # for primitive parts: d * m = +- pf * pg
        lhs = poly_mul(d, m)
        rhs = poly_mul(IntPoly(_primitive(fc)), IntPoly(_primitive(gc)))
        if rhs.coeffs[-1] < 0:
            rhs = IntPoly([-c for c in rhs.coeffs])
        assert lhs == rhs


def test_oracle_examples():
    assert lcm_degree_oracle([]) == 0
    assert lcm_degree_oracle([1]) == 0
    assert lcm_degree_oracle([2, 3]) == 3
    assert lcm_degree_oracle([6]) == 5
    assert lcm_degree_oracle([2, 3], method="gcd") == 3
    assert lcm_degree_oracle([6], method="gcd") == 5
    assert lcm_degree_oracle([2, 2, 3]) == 3  # duplicates collapse
    assert lcm_degree_oracle(range(1, 11)) == lcm_degree_oracle(range(1, 11), method="gcd")


def test_oracle_validation(monkeypatch):
    with pytest.raises(ValueError):
        lcm_degree_oracle([0])
    with pytest.raises(ValueError):
        lcm_degree_oracle([-3])
    with pytest.raises(ResourceLimitError):
        lcm_degree_oracle([513])
    monkeypatch.setattr(qpoly, "ORACLE_LIMIT", 10)
    with pytest.raises(ResourceLimitError):
        lcm_degree_oracle([11])
    with pytest.raises(ValueError):
        lcm_degree_oracle([2], method="magic")


def test_oracles_agree_and_match_totient_sum(tables_small):
    # both oracles and the divisor-closure totient sum give one number
    rng = np.random.default_rng(20260814)
    for _ in range(120):
        mask = rng.random(40) < 0.5
        subset = [int(k) for k in np.nonzero(mask)[0] + 1]
        deg_c = lcm_degree_oracle(subset, method="cyclotomic")
        deg_g = lcm_degree_oracle(subset, method="gcd")
        closure = {d for k in subset for d in range(2, k + 1) if k % d == 0}
        phi_sum = int(sum(tables_small.phi[d] for d in closure))
        assert deg_c == deg_g == phi_sum, subset


def test_folded_remainder_matches_long_division():
    # the fold mod q^k - 1 plus one monic step is the remainder by [k]_q
    rng = np.random.default_rng(20260814)
    for k in range(2, 65):
        for _ in range(4):
            deg = int(rng.integers(0, 501))
            fc = [int(c) for c in rng.integers(-(2**62), 2**62, size=deg + 1)]
            fc = [c * int(rng.integers(1, 2**8)) for c in fc]  # up to 2^70
            _, r, ok = _divmod_python(fc, (1,) * k)
            assert ok
            assert IntPoly(_rem_q_analog(fc, k)) == IntPoly(r), (k, deg)


def test_gcd_oracle_matches_lcm_fold():
    # 200 seeded sets at n <= 40, with 1 and repeated elements included
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        size = int(rng.integers(0, n + 1))
        subset = [int(k) for k in rng.integers(1, n + 1, size=size)]
        subset += [1] * int(rng.integers(0, 2))
        assert lcm_degree_oracle(subset, method="gcd") == lcm_degree_by_fold(subset), subset


def test_gcd_oracle_skips_coprime_folds(monkeypatch):
    # gcd([k]_q, [m]_q) = [gcd(k, m)]_q is 1 for coprime k, m, and lcm(g, 1)
    # = g: a pairwise-coprime set needs no lcm, and its degree is sum(k - 1)
    calls = []
    divisor_lcm = qpoly._divisor_lcm

    def recorded(a, b):
        calls.append((a, b))
        return divisor_lcm(a, b)

    monkeypatch.setattr(qpoly, "_divisor_lcm", recorded)
    for subset in ([1, 2, 3, 5, 7], [4, 9, 25, 49], [8, 15, 77, 221], [31, 32, 33, 35, 37]):
        assert lcm_degree_oracle(subset, method="gcd") == sum(k - 1 for k in subset), subset
    assert calls == []
    assert lcm_degree_oracle([4, 6], method="gcd") == 3 + 5 - 1  # gcd [2]_q: one lcm
    assert len(calls) == 1


def _schoolbook(fc, gc):
    out = [0] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] += a * b
    return out


def test_results_hold_python_ints():
    # numpy int64 input is converted at the IntPoly boundary; every result
    # built inside qpoly then holds Python ints, so products past 2^63 are exact
    rng = np.random.default_rng(17)
    big = 2**40
    f_np = rng.integers(-big, big + 1, size=30, dtype=np.int64)
    g_np = rng.integers(-big, big + 1, size=25, dtype=np.int64)
    f_np[-1], g_np[-1] = big, -big  # height exactly 2^40
    f, g = IntPoly(f_np), IntPoly(g_np)
    prod = poly_mul(f, g)
    assert list(prod.coeffs) == _schoolbook([int(c) for c in f_np], [int(c) for c in g_np])
    small = poly_mul(IntPoly(np.array([3, -1, 2], dtype=np.int64)), IntPoly((1, 1)))
    assert small == IntPoly((3, 2, 1, 2))
    quot = poly_divexact(prod, g)
    assert quot == f
    gcd = poly_gcd(prod, poly_mul(f, q_analog(3)))
    for r in (f, prod, small, quot, gcd, q_analog(7), cyclotomic(12), cyclotomic(105)):
        assert r.coeffs and all(type(c) is int for c in r.coeffs), r


def test_gcd_oracle_on_divisor_chains(tables_small):
    # sets {k, 2k, 3k, ...} plus random elements, so that the largest-first
    # fold meets elements dividing ones already folded (remainder 0, unit
    # quotient); plus singletons and sets holding 1
    rng = np.random.default_rng(20261018)
    cases = [[k] for k in (1, 2, 7, 36, 60)] + [[1, k] for k in (1, 12, 59)]
    for _ in range(40):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(1, n // 2 + 1))
        chain = list(range(k, n + 1, k))[: int(rng.integers(2, 6))]
        extra = [int(x) for x in rng.integers(1, n + 1, size=int(rng.integers(0, 4)))]
        cases.append(chain + extra + [1] * int(rng.integers(0, 2)))
    for subset in cases:
        deg = lcm_degree_oracle(subset, method="gcd")
        assert deg == lcm_degree_by_fold(subset) == lcm_degree_oracle(subset), subset
        assert deg == lcm_degree_by_accumulator(subset), subset
        closure = {d for k in subset for d in range(2, k + 1) if k % d == 0}
        assert deg == int(sum(tables_small.phi[d] for d in closure)), subset


def _closure_degree(subset, tables):
    closure = {d for k in subset for d in range(2, k + 1) if k % d == 0}
    return int(sum(tables.phi[d] for d in closure))


def test_oracles_agree_with_reference_folds_up_to_120(tables_small):
    # random sets and divisor chains at n <= 120: the pairwise-gcd method,
    # the accumulator fold it replaced, the poly_lcm fold, the cyclotomic
    # degree sum and the totient sum give one number
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(8):
        n = int(rng.integers(60, 121))
        density = rng.uniform(0.05, 0.3)  # the poly_lcm fold is slow on dense sets
        cases.append([int(k) for k in np.nonzero(rng.random(n) < density)[0] + 1])
        k = int(rng.integers(1, n // 3 + 1))
        chain = list(range(k, n + 1, k))[: int(rng.integers(2, 7))]
        cases.append(chain + [int(x) for x in rng.integers(1, n + 1, size=3)])
    for subset in cases:
        deg = lcm_degree_oracle(subset, method="gcd")
        assert deg == lcm_degree_by_accumulator(subset) == lcm_degree_by_fold(subset), subset
        assert deg == lcm_degree_oracle(subset) == _closure_degree(subset, tables_small), subset


def test_lcm_memo_is_bounded():
    # its keys are whole polynomials: the memo keeps at most LCM_MEMO_SIZE,
    # however many sets pass through it
    info = qpoly._divisor_lcm.cache_info()
    assert info.maxsize == qpoly.LCM_MEMO_SIZE and info.maxsize is not None
    rng = np.random.default_rng(5)
    for _ in range(10):
        lcm_degree_oracle([int(k) for k in np.nonzero(rng.random(120) < 0.5)[0] + 1], "gcd")
        assert qpoly._divisor_lcm.cache_info().currsize <= qpoly.LCM_MEMO_SIZE
