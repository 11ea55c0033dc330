"""Exact moments, asymptotics, the C1 family, and the limiting variance v(alpha)."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from calibration import (
    C1_TAIL_RATIO_MAX,
    EXPECT_GROUPED_PEAK_MIB,
    EXPECTATION_ENVELOPE_K,
    V_ALPHA_0_1_PEAK_MIB,
    VARIANCE_1M_PEAK_MIB,
    VARIANCE_16000_PEAK_MIB,
)
from qlcm import moments
from qlcm.arith import TABLE_LIMIT, build_tables, prime_factors
from qlcm.errors import ResourceLimitError
from qlcm.model import enumerate_exact
from qlcm.moments import (
    PI2_OVER_6,
    TruncationConfig,
    alpha_factor,
    c1_constant,
    dilog,
    expectation_asymptotic,
    expectation_exact,
    expectation_grouped,
    s_infinity_members,
    v_alpha,
    variance_exact,
    variance_upper_envelope,
)
from reference import (
    c1_closed_form,
    c1_constant_direct,
    c1_constant_scalar,
    c1_weight_prefix_per_prime,
    dense_variance,
    dense_variance_rational,
    euler_product_k,
    expectation_grouped_loop,
    expectation_per_d_rational,
    inner_sum_recursive,
    s_infinity_cells,
    underflow_scan,
    v_alpha_per_term,
    v_alpha_per_triple,
    variance_by_plain_walk,
    variance_pairs_walk,
)

ALPHAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def hexes(values):
    return [float(x).hex() for x in values]


@pytest.fixture
def cold_c1(monkeypatch):
    # empty C1 caches, whatever ran before in this process
    moments._c1_weight_prefix.cache_clear()
    monkeypatch.setattr(moments, "_c1_inner_cache", {})


def test_truncation_config_validation():
    TruncationConfig()
    with pytest.raises(ValueError):
        TruncationConfig(c1_cutoff=0)
    with pytest.raises(ValueError):
        TruncationConfig(j3_max=0)
    with pytest.raises(ValueError):
        TruncationConfig(beta_tail_tol=0.0)
    with pytest.raises(ValueError):
        TruncationConfig(beta_tail_tol=1e-2)
    with pytest.raises(ValueError):
        TruncationConfig(dilog_tol=-1e-12)


def test_truncation_config_refuses_a_cutoff_past_the_table_cap(monkeypatch):
    # the C1 weight prefix is a table up to the cutoff: the config is the one
    # place that refuses it, so a library call fails before any work
    assert TruncationConfig(c1_cutoff=TABLE_LIMIT).c1_cutoff == TABLE_LIMIT
    with pytest.raises(ResourceLimitError, match=f"c1_cutoff {TABLE_LIMIT + 1} exceeds"):
        TruncationConfig(c1_cutoff=TABLE_LIMIT + 1)

    def called(*args, **kwargs):
        raise AssertionError("ran past the config")

    for name in ("_enumeration_depth", "_c1_pairs", "_c1_weight_prefix"):
        monkeypatch.setattr(moments, name, called)
    with pytest.raises(ResourceLimitError):
        v_alpha(0.5, TruncationConfig(c1_cutoff=TABLE_LIMIT + 1))
    with pytest.raises(ResourceLimitError):
        c1_constant(6, 35, TruncationConfig(c1_cutoff=TABLE_LIMIT + 1))


def test_dilog_examples():
    assert dilog(0.0) == 0.0
    assert dilog(1.0) == PI2_OVER_6
    ref_half = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert rel_close(dilog(0.5), ref_half)


def test_dilog_reflection():
    # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
    for z in (0.3, 0.1, 0.5, 0.77):
        lhs = dilog(z) + dilog(1 - z)
        rhs = PI2_OVER_6 - math.log(z) * math.log(1 - z)
        assert abs(lhs - rhs) <= 1e-12, f"z={z}"


def test_dilog_domain():
    with pytest.raises(ValueError):
        dilog(-0.1)
    with pytest.raises(ValueError):
        dilog(1.1)
    with pytest.raises(ValueError):
        dilog(0.5, tol=0.0)


def test_alpha_factor_endpoints_and_identity():
    assert alpha_factor(0.0) == 0.0
    assert alpha_factor(1.0) == 1.0
    # at alpha = 1/2 the factor collapses to Li2(1/2)
    assert rel_close(alpha_factor(0.5), dilog(0.5))
    # removable singularity at alpha = 1 is actually smooth
    assert abs(alpha_factor(1.0) - alpha_factor(1.0 - 1e-8)) < 1e-6
    with pytest.raises(ValueError, match="alpha must lie in"):
        alpha_factor(1.5)


def test_expectation_examples(tables_small):
    assert expectation_exact(2, Fraction(1, 2), tables_small, exact=True) == Fraction(1, 2)
    assert rel_close(expectation_exact(2, 0.5, tables_small), 0.5)
    assert expectation_exact(3, 1.0, tables_small) == 3.0
    assert expectation_exact(7, 0.0, tables_small) == 0.0
    assert expectation_exact(1, 0.9, tables_small) == 0.0  # no divisor d >= 2


def test_expectation_validation(tables_small):
    with pytest.raises(TypeError):
        expectation_exact(5, 0.5, tables_small, exact=True)
    with pytest.raises(ResourceLimitError):
        expectation_exact(31, Fraction(1, 2), tables_small, exact=True)
    with pytest.raises(ValueError):
        expectation_exact(2000, 0.5, tables_small)
    with pytest.raises(ValueError):
        expectation_exact(0, 0.5, tables_small)


def test_expectation_monotone_in_n(tables_small):
    vals = [expectation_exact(n, 0.3, tables_small) for n in range(1, 201)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_expectation_bounds(tables_small):
    for n in (1, 5, 37, 200, 1000):
        for alpha in (0.05, 0.4, 0.9, 1.0):
            e = expectation_exact(n, alpha, tables_small)
            assert 0.0 <= e <= int(tables_small.phi[2 : n + 1].sum()) + 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moments_match_enumeration(tables_small, alpha):
    # exhaustive over all 2^n sets, exact rationals end to end
    for n in range(1, 15):
        dist = enumerate_exact(n, alpha, tables_small)
        e = expectation_exact(n, alpha, tables_small, exact=True)
        v = variance_exact(n, alpha, tables_small, exact=True)
        assert e == dist.mean, f"n={n}"
        assert v == dist.variance, f"n={n}"
        assert rel_close(expectation_exact(n, float(alpha), tables_small), float(dist.mean))
        assert rel_close(
            variance_exact(n, float(alpha), tables_small), float(dist.variance), 1e-11
        )


def test_rational_moments_match_reference_sums(tables_small):
    # the block and pair-chunk walks in Fractions against the per-d sum and
    # the dense double sum over every pair, value and type
    for n in range(1, 31):
        for alpha in (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
                      Fraction(7, 10), 1):
            e = expectation_exact(n, alpha, tables_small, exact=True)
            v = variance_exact(n, alpha, tables_small, exact=True)
            assert type(e) is Fraction and type(v) is Fraction, (n, alpha)
            assert e == expectation_per_d_rational(n, alpha, tables_small), (n, alpha)
            assert v == dense_variance_rational(n, alpha, tables_small), (n, alpha)


def test_rational_moments_at_a_large_denominator(tables_small):
    # alpha = p/q with both primes near 10^9: the numerators over q^30 run to
    # about 270 digits, against the Fraction sums
    alpha = Fraction(999999937, 1000000007)
    e = expectation_exact(30, alpha, tables_small, exact=True)
    v = variance_exact(30, alpha, tables_small, exact=True)
    assert e == expectation_per_d_rational(30, alpha, tables_small)
    assert v == dense_variance_rational(30, alpha, tables_small)
    assert v.denominator > 10**200


def test_grouped_equals_direct(tables_mid):
    assert rel_close(expectation_grouped(2, 0.5, tables_mid), 0.5)
    for n in (10, 100, 1000, 10000):
        for alpha in (0.05, 0.5, 0.95):
            a = expectation_exact(n, alpha, tables_mid)
            b = expectation_grouped(n, alpha, tables_mid)
            assert rel_close(a, b), f"n={n} alpha={alpha}: {a} vs {b}"


# every expect point of the benchmark's moments workload; at alpha = 0.5 and
# 0.9 beta^(j-1) is 0.0 well before j = n at the larger n
EXPECT_POINTS = [(n, a) for n in (10, 100, 1000, 10000) for a in (0.05, 0.5, 0.95)] + [
    (n, a) for n in (100, 1000, 10000, 100000) for a in (0.1, 0.5, 0.9, 1.0)
]


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 0.9, 0.95])
def test_powers_match_powi(beta):
    fast = moments._powers(beta, 20001)
    assert hexes(fast) == hexes(moments._powi(beta, k) for k in range(20001))
    assert len(moments._powers(beta, 0)) == 0 and moments._powers(beta, 1).tolist() == [1.0]
    with pytest.raises(ValueError):
        moments._powi(beta, -1)
    # counts at, just below and just past powers of two
    for count in (1, 2, 1023, 1024, 1025, 4097):
        got = moments._powers(beta, count)
        assert hexes(got) == hexes(fast[:count]), count


def test_powers_allocate_count_floats():
    # 600001 powers are 4.8 MB; the next power of two would be 8.4 MB
    count = 600001
    tracemalloc.start()
    try:
        moments._powers(1 - 1e-4, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count + 2**12, f"peak {peak} bytes"


def test_expectation_grouped_matches_loop(tables_big):
    # bit for bit, with the stop at the first zero power: at (10^5, 0.5) it
    # comes after the first 1,024 powers, at (20000, 0.05) after 4,096 of
    # them, and at (10^4, 0.05) no power before j = n is 0.0
    extra = [(1, 0.5), (2, 1.0), (1024, 0.5), (1100, 0.5), (20000, 0.05), (10**6, 0.3)]
    for n, alpha in EXPECT_POINTS + extra:
        fast = expectation_grouped(n, alpha, tables_big)
        assert fast.hex() == expectation_grouped_loop(n, alpha, tables_big).hex(), (n, alpha)


def test_expectation_grouped_memory(tables_big):
    # the terms reach fsum a chunk at a time: no n-long list, index or gather
    tracemalloc.start()
    try:
        expectation_grouped(10**6, 1e-4, tables_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EXPECT_GROUPED_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_asymptotic_examples():
    assert rel_close(expectation_asymptotic(100, 1.0), 3.0 / math.pi**2 * 100**2)
    assert expectation_asymptotic(50, 0.0) == 0.0


def test_asymptotic_envelope(tables_mid):
    # |E - asym| <= K alpha n (log n)^2 with the frozen K
    for n in (100, 1000, 10000):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            gap = abs(
                expectation_exact(n, alpha, tables_mid) - expectation_asymptotic(n, alpha)
            )
            cap = EXPECTATION_ENVELOPE_K * alpha * n * math.log(n) ** 2
            assert gap <= cap, f"n={n} alpha={alpha}: gap {gap} vs cap {cap}"


def test_variance_examples(tables_small):
    assert variance_exact(2, Fraction(1, 2), tables_small, exact=True) == Fraction(1, 4)
    assert rel_close(variance_exact(2, 0.5, tables_small), 0.25)
    for n in (1, 7, 40):
        assert variance_exact(n, 0.0, tables_small) == 0.0
        assert variance_exact(n, 1.0, tables_small) == 0.0
    assert variance_exact(1, 0.6, tables_small) == 0.0


def test_variance_validation(tables_small):
    with pytest.raises(ResourceLimitError):
        build_tables(TABLE_LIMIT + 1)
    with pytest.raises(TypeError):
        variance_exact(5, 0.5, tables_small, exact=True)
    with pytest.raises(ResourceLimitError):
        variance_exact(31, Fraction(1, 2), tables_small, exact=True)


def test_variance_matches_dense_oracle(tables_mid):
    # the lcm <= n pair walk against the dense double sum over all n^2 pairs
    alphas = [tenth / 10 for tenth in range(11)]
    for n in (2, 3, 10, 100, 500, 1000, 2000):
        for alpha, ref in zip(alphas, dense_variance(n, alphas, tables_mid)):
            v = variance_exact(n, alpha, tables_mid)
            assert rel_close(v, ref), f"n={n} alpha={alpha}: {v!r} vs dense {ref!r}"


def test_variance_row_matches_per_alpha_calls(tables_mid):
    # one pair walk for a tuple of alphas against one call per alpha, bit
    # for bit; at n = 20000 the a = 1 run of the walk alone spans several
    # chunks.  The row walks as far as the call of its smallest alpha, whose
    # Z is the largest, and every other call no further
    for alphas in ((0.0, 0.05, 0.1, 0.5, 0.9, 1.0), (0.9, 0.5), (1.0, 0.9)):
        for n in (1, 2, 10, 100, 2000, 20000):
            row_counters = {}
            row = variance_exact(n, alphas, tables_mid, counters=row_counters)
            assert isinstance(row, list) and len(row) == len(alphas)
            walked = []
            for alpha, v in zip(alphas, row):
                counters = {}
                assert v.hex() == variance_exact(n, alpha, tables_mid, counters=counters).hex()
                walked.append(counters["pairs"])
            assert walked[alphas.index(min(alphas))] == row_counters["pairs"], (n, alphas)
            assert max(walked) == row_counters["pairs"], (n, alphas)


def test_variance_row_matches_per_alpha_calls_exact(tables_small):
    alphas = (0, Fraction(1, 4), Fraction(1, 3), Fraction(7, 10), 1)
    for n in range(1, 31):
        row_counters, counters = {}, {}
        row = variance_exact(n, alphas, tables_small, exact=True, counters=row_counters)
        want = [variance_exact(n, a, tables_small, exact=True, counters=counters) for a in alphas]
        assert row == want and all(type(v) is Fraction for v in row), n
        # one walk for the row, one per alpha added to the shared counters
        assert counters == {"pairs": len(alphas) * row_counters["pairs"]}, n
    assert variance_exact(5, (), tables_small) == []


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_variance_chunk_invariance(tables_small, monkeypatch, chunk):
    # at n = 1000 the a = 1 cofactor group alone has ~6000 (b, g) elements
    base = variance_exact(1000, 0.3, tables_small)
    monkeypatch.setattr(moments, "VARIANCE_CHUNK", chunk)
    v = variance_exact(1000, 0.3, tables_small)
    assert abs(v - base) <= 1e-15 * base, f"chunk {chunk}: {v!r} vs {base!r}"


def _chunks(blocks):
    """The blocks of moments._variance_pairs joined into its chunks: (d1, d2,
    j3, factor) per chunk, each block checked to fit VARIANCE_BLOCK."""
    chunks = []
    for d1, d2, j3, factor, new in blocks:
        assert 0 < len(d1) <= moments.VARIANCE_BLOCK
        if new:
            chunks.append(([], [], [], factor))
        assert chunks[-1][3] == factor
        for parts, x in zip(chunks[-1], (d1, d2, j3)):
            parts.append(x)
    return [(*(np.concatenate(p) for p in c[:3]), c[3]) for c in chunks]


def _assert_same_chunks(n, stop=math.inf):
    # the chunks of the reference walk, less those whose first element has
    # a + b - 1 >= stop: a = d1 / gcd(d1, d2) and b = d2 / gcd(d1, d2)
    got = _chunks(moments._variance_pairs(n, stop))
    want = [
        w for w in variance_pairs_walk(n)
        if (w[0][0] + w[1][0]) // math.gcd(int(w[0][0]), int(w[1][0])) - 1 < stop
    ]
    assert len(got) == len(want), n
    for g, w in zip(got, want):
        assert g[3] == w[3], n
        for x, y in zip(g[:3], w[:3]):
            assert x.dtype == y.dtype and np.array_equal(x, y), n


def test_variance_pairs_match_plain_walk(monkeypatch):
    # the lean walk (the a = 1 run cut at b = n // 2, no gcd mask at a = 1,
    # run starts per chunk, b in pieces, chunks built in blocks, d1 and j3
    # built in place) yields the plain walk's chunks array for array; 999
    # and 1000 put both parities around the cut, and a 7-element chunk puts
    # many chunk edges inside the runs and the blocks
    for n in (*range(1, 65), 999, 1000, 16000, 100000):
        _assert_same_chunks(n)
    monkeypatch.setattr(moments, "VARIANCE_CHUNK", 7)
    for n in (*range(1, 65), 999, 1000):
        _assert_same_chunks(n)


@pytest.mark.parametrize("chunk", [7, 4096, 1 << 16])
def test_variance_pairs_stop_at_whole_chunks(monkeypatch, chunk):
    # a walk stopped at Z drops exactly the chunks of the plain walk whose
    # first element has a + b - 1 >= Z, and keeps every other chunk whole
    monkeypatch.setattr(moments, "VARIANCE_CHUNK", chunk)
    for n in (1000, 20000) if chunk > 7 else (1000,):
        for stop in (1, 2, 3, 40, 324, 1075, n // 2, n // 2 + 1):
            _assert_same_chunks(n, stop)


def _assert_plain_walk_bits(n, rows, tables):
    want = {}
    for alphas in rows:
        for a in alphas:
            if a not in want:
                want[a] = variance_by_plain_walk(n, a, tables)
        row = variance_exact(n, alphas, tables)
        assert hexes(row) == hexes(want[a] for a in alphas), (n, alphas)


def test_variance_matches_plain_walk_bit_for_bit(tables_big):
    # the block arithmetic rounds as the one-expression chunk sum does, and a
    # walk stopped at Z drops only chunks whose terms are all 0.0.  Z is 324
    # at alpha = 0.9 and 1075 at 0.5, so it falls inside a chunk of the a = 1
    # run at n = 2 * 10^5 and 16000; it lies past the walk at 0.05 (Z = 14,527)
    # below n = 29054 and at alpha = 0 (no power is 0.0); a row stops at its
    # largest Z
    rows = [(0.05, 0.3, 0.5, 0.9), (0.9, 0.5), (0.5,), (0.9,), (0.0, 1.0), (1.0,)]
    for n in (2, 10, 1000, 16000):
        _assert_plain_walk_bits(n, rows, tables_big)
    _assert_plain_walk_bits(200000, [(0.9, 0.5), (0.5,), (0.9,), (1.0, 0.9)], tables_big)


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_variance_stops_on_a_chunk_edge(tables_mid, monkeypatch, alpha):
    # a chunk of exactly the a = 1 run's elements with b < Z puts Z on the
    # edge of its first two chunks: the walk stops at the second
    n = 20000
    z = moments._underflow(1.0 - alpha, n)
    edge = sum(n // b - 1 for b in range(2, z))
    full = {}
    variance_exact(n, alpha, tables_mid, counters=full)
    monkeypatch.setattr(moments, "VARIANCE_CHUNK", edge)
    _assert_plain_walk_bits(n, [(alpha,), (alpha, 1.0)], tables_mid)
    stopped = {}
    variance_exact(n, alpha, tables_mid, counters=stopped)
    assert stopped["pairs"] < full["pairs"]


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.5, 0.9, 1.0])
def test_powers_stay_zero_past_underflow(alpha):
    # the walk's stop and its clipped gathers rest on every power from Z on
    # being 0.0, at every n and alpha the variance tests use
    beta = 1.0 - alpha
    for n in (1000, 16000, 20000, 200000, 1000000):
        z = moments._underflow(beta, n)
        powers = np.power(beta, np.arange(n + 1, dtype=np.float64))
        if z <= n:
            assert powers[z] == 0.0 and (z == 0 or powers[z - 1] != 0.0), (alpha, n, z)
        assert not powers[z:].any(), (alpha, n)
    assert moments._underflow(beta, 10) == (1 if alpha == 1.0 else 11)
    assert moments._underflow(1.0, 1000) == 1001


def _underflow_grid():
    """(beta, n): alpha log-uniform over [1e-7, 1] and at 0, 0.5, 1; n small,
    and at, around, half and twice Z where Z <= 2*10^5."""
    alphas = [0.0, 0.5, 1.0, *np.geomspace(1e-7, 1.0, 57).tolist()]
    for alpha in alphas:
        beta = 1.0 - alpha
        z = underflow_scan(beta, 2 * 10**5)
        near = {z + d for d in range(-3, 4)} | {z // 2, 2 * z} if z <= 2 * 10**5 else set()
        for n in sorted({1, 2, 10, 1000, 10**5} | near):
            if n >= 1:
                yield beta, n


def test_underflow_bisection_matches_the_scan():
    # the bisection finds the scan's Z at every grid point
    points = list(_underflow_grid())
    assert len(points) > 400
    for beta, n in points:
        assert moments._underflow(beta, n) == underflow_scan(beta, n), (beta, n)


def test_underflow_holds_no_n_long_array():
    tracemalloc.start()
    try:
        z = moments._underflow(1.0 - 1e-6, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z == 10**7 + 1 and peak < 2**20, (z, peak)


def test_underflow_does_not_rise_with_alpha():
    # the pre-flight takes a row's Z at its smallest alpha, which must be the
    # largest Z of the row at every n
    alphas = np.geomspace(1e-7, 1.0, 400).tolist()
    for n in (10, 1000, 20000, 10**6, 10**7):
        zs = [moments._underflow(1.0 - a, n) for a in alphas]
        assert all(x >= y for x, y in zip(zs, zs[1:])), n


@pytest.fixture(scope="module")
def tables_2e6():
    return build_tables(2 * 10**6)


@pytest.mark.parametrize("n", [20000, 200000, 1000000, 2000000])
def test_variance_memory_under_estimate(tables_2e6, n):
    # the CLI sizes a row's alpha groups by _variance_bytes, so the float
    # sum must allocate less than the estimate, at each n its fit rests on
    _assert_variance_peak_under_estimate(n, (0.5,), tables_2e6)


@pytest.mark.parametrize(
    "n,alphas",
    [
        (200000, (0.1,)),
        (200000, (1e-4,)),  # Z > n: tables of n + 1 floats
        (1000000, tuple(k / 10 for k in range(1, 10))),
    ],
)
def test_variance_memory_under_estimate_across_alphas(tables_2e6, n, alphas):
    _assert_variance_peak_under_estimate(n, alphas, tables_2e6)


def _assert_variance_peak_under_estimate(n, alphas, tables):
    z = max(moments._underflow(1.0 - a, n) for a in alphas)
    tracemalloc.start()
    try:
        variance_exact(n, alphas, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < moments._variance_bytes(n, z, len(alphas)), (n, alphas, peak)


def test_variance_exact_splits_its_alphas_by_the_byte_budget(tables_2e6, monkeypatch):
    # five alphas near 10^-4 at n = 2*10^5 (Z > n: tables of n + 1 floats)
    # with room for three in VARIANCE_BYTES: one library call walks them as
    # three and two, each value bit for bit its own call's, within the budget
    n, alphas = 200000, (1e-4, 1.1e-4, 1.2e-4, 1.3e-4, 1.4e-4)
    z = moments._underflow(1.0 - alphas[0], n)
    assert z > n
    alone_counters = {}
    alone = [variance_exact(n, a, tables_2e6, counters=alone_counters).hex() for a in alphas]
    monkeypatch.setattr(moments, "VARIANCE_BYTES", moments._variance_bytes(n, z, 3))
    assert moments._alpha_group_size(n, z) == 3
    counters = {}
    tracemalloc.start()
    try:
        row = variance_exact(n, alphas, tables_2e6, counters=counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [v.hex() for v in row] == alone
    # two walks, where the five calls alone made five of the same pairs
    assert len(alphas) * counters["pairs"] == 2 * alone_counters["pairs"]
    assert peak < moments.VARIANCE_BYTES, peak


def test_variance_exact_prices_each_alpha_at_small_n(monkeypatch):
    # at n = 2 an alpha's table is three floats, and the Python objects of
    # each alpha (its table's header, its list of sums, its value) are most
    # of what it costs: 40,000 alphas with room for 20,000 in VARIANCE_BYTES
    # walk as two groups whose peak stays under the budget
    n, alphas = 2, tuple(0.25 + k / 80000 for k in range(40000))
    z = max(moments._underflow(1.0 - a, n) for a in alphas)
    monkeypatch.setattr(moments, "VARIANCE_BYTES", math.ceil(moments._variance_bytes(n, z, 20000)))
    counters = {}
    tracemalloc.start()
    try:
        variance_exact(n, alphas, build_tables(n), counters=counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counters["pairs"] == 2  # two walks of the one pair (2, 2)
    assert peak < moments.VARIANCE_BYTES, peak


@pytest.mark.parametrize("n,bound_mib", [(16000, VARIANCE_16000_PEAK_MIB), (10**6, VARIANCE_1M_PEAK_MIB)])
def test_variance_memory_does_not_grow_with_n(tables_2e6, n, bound_mib):
    # the walk holds blocks, one chunk buffer and beta^k up to Z = 1075: no
    # array grows with n
    tracemalloc.start()
    try:
        variance_exact(n, 0.5, tables_2e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, f"n={n}: peak {peak / 2**20:.2f} MiB"


def test_variance_envelope(tables_small):
    worst = 0.0
    for n in (10, 100, 1000):
        for alpha in np.arange(0.1, 0.95, 0.1):
            v = variance_exact(n, float(alpha), tables_small)
            cap = variance_upper_envelope(n, float(alpha))
            worst = max(worst, v / cap)
            assert 0.0 <= v <= cap, f"n={n} alpha={alpha:.1f}: ratio {v / cap}"
    assert worst < 1.0


def test_variance_upper_envelope_examples():
    assert variance_upper_envelope(10, 0.5) == 500.0
    assert variance_upper_envelope(3, 1.0) == 27.0


@pytest.mark.parametrize("a1,a2", [(1, 1), (1, 2), (2, 3), (3, 4), (1, 6), (5, 6)])
def test_c1_fast_path_matches_direct_sum(a1, a2):
    # the multiplicative-sieve evaluation against the defining double sum
    for cutoff in (10, 100, 1000):
        fast = c1_constant(a1, a2, TruncationConfig(c1_cutoff=cutoff)).value
        direct = c1_constant_direct(a1, a2, cutoff)
        assert rel_close(fast, direct), f"T={cutoff}: {fast} vs {direct}"


def v_alpha_prime_sets(alpha):
    emax = moments._enumeration_depth(alpha, TruncationConfig())
    return sorted(
        {prime_factors(x * (s + 1 - x))
         for s in range(1, emax + 1) for x in moments._coprime_cofactors(s).tolist()}
    )


@pytest.mark.parametrize("limit", [2, 7, 1000, 10**5])
def test_inner_sums_match_recursion(monkeypatch, limit):
    # bit for bit against the memoized recursion over every prime set v(0.2)
    # needs, the pair (1, 1)'s empty set among them: in one batch, in batches
    # of 7 suffixes that split sets sharing a suffix (given in reverse
    # order), and one set at a time
    sets = v_alpha_prime_sets(0.2)
    assert () in sets and len(sets) == 789
    want = hexes(inner_sum_recursive(limit, primes) for primes in sets)
    columns = len(moments._cap_columns(limit))
    monkeypatch.setattr(moments, "C1_SWEEP_CELLS", 10**9)
    assert len(list(moments._batches(sets, 10**9 // columns - 1))) == 1
    assert hexes(moments._inner_sums(limit, sets)) == want
    monkeypatch.setattr(moments, "C1_SWEEP_CELLS", 8 * columns)  # 7 suffixes a batch
    assert len(list(moments._batches(sets, 7))) > 100
    assert hexes(moments._inner_sums(limit, sets[::-1])) == want[::-1]
    assert hexes(moments._inner_sums(limit, [primes])[0] for primes in sets) == want


def test_inner_sums_primes_above_limit():
    # a prime past the cutoff divides no cap, however large
    for primes in [(3,), (2, 11), (2, 3, 10**9 + 7), (5, 2**61 - 1), (2, 3, 2**89 - 1)]:
        for limit in (1, 2, 10, 1000):
            (fast,) = moments._inner_sums(limit, [primes])
            assert fast.hex() == inner_sum_recursive(limit, primes).hex(), (primes, limit)


def test_v_alpha_fills_the_inner_cache_the_walk_needs(cold_c1):
    # the sweep before the walk evaluates the prime sets of exactly the pairs
    # whose inner sum is not cached yet, to the values one set at a time gives
    est = v_alpha(0.3)
    swept = {k: v.hex() for k, v in moments._c1_inner_cache.items()}
    assert est.c1_inner_evals == est.c1_prime_sets == len(swept) == 327
    assert est.triples - est.c1_inner_evals == 2777
    moments._c1_inner_cache.clear()
    ref = v_alpha_per_triple(0.3)  # one scalar C1, one set, at a time
    assert ref.c1_inner_evals == est.c1_inner_evals
    assert {k: v.hex() for k, v in moments._c1_inner_cache.items()} == swept
    # all but ten inner sums cached: the walk evaluates those ten, then none
    for key in list(swept)[:10]:
        del moments._c1_inner_cache[key]
    again = v_alpha(0.3)
    assert (again.c1_prime_sets, again.c1_inner_evals) == (327, 10)
    assert {k: v.hex() for k, v in moments._c1_inner_cache.items()} == swept
    assert v_alpha(0.3).c1_inner_evals == 0


def test_v_alpha_memory_at_alpha_0_1(cold_c1):
    # the sweep's table holds at most C1_SWEEP_CELLS values
    tracemalloc.start()
    try:
        v_alpha(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V_ALPHA_0_1_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_c1_weight_prefix_matches_per_prime_sieve():
    # bit for bit at every cap the sweep reads: each weight is multiplied in
    # the same prime order
    for limit in (24, 25, 26, 120, 121, 122, 168, 169, 170, 10**5):
        fast = moments._c1_weight_prefix(limit)
        want = c1_weight_prefix_per_prime(limit)[moments._cap_columns(limit)]
        assert fast.tobytes() == want.tobytes(), limit


def test_c1_weight_prefix_sums_in_place():
    # the prefix overwrites its weights: one float64 array of limit + 1, not
    # two, beside the prime sieve's byte per unit
    moments._c1_weight_prefix.cache_clear()
    limit = 10**6
    tracemalloc.start()
    try:
        moments._c1_weight_prefix(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * (limit + 1), peak


def test_c1_sieve_approaches_euler_product():
    # K against mpmath's 30-digit prime-zeta evaluation, computed once outside
    # the suite; the sieved C1 then closes in on the closed form as the
    # cutoff grows
    assert abs(euler_product_k() / 0.428249505677094440218765707582 - 1) < 1e-15
    for a1, a2 in [(1, 1), (1, 2), (2, 3), (5, 6), (7, 10)]:
        exact = c1_closed_form(a1, a2)
        gaps = [
            abs(c1_constant(a1, a2, TruncationConfig(c1_cutoff=t)).value - exact)
            for t in (10**4, 10**5, 10**6)
        ]
        assert gaps[0] > gaps[1] > gaps[2], (a1, a2, gaps)


def test_c1_validation():
    with pytest.raises(ValueError):
        c1_constant(2, 4)
    with pytest.raises(ValueError):
        c1_constant(0, 1)
    # trial division of a cofactor past the table cap could take minutes
    with pytest.raises(ResourceLimitError):
        c1_constant(TABLE_LIMIT + 1, 1)
    with pytest.raises(ResourceLimitError):
        c1_constant(1, 10**18 + 3)
    assert c1_constant(TABLE_LIMIT, 1, TruncationConfig(c1_cutoff=7)).value > 0.0
    with pytest.raises(ValueError):
        c1_constant_direct(2, 4, 100)


def test_c1_matches_phi_pair_growth():
    # sum_{m<=x} phi(m)^2 ~ C1(1,1) x^3
    from qlcm.arith import phi_pair_summatory

    x = 1000
    ratio = 3 * phi_pair_summatory(1, 1, x) / x**3
    est = c1_constant(1, 1)
    assert abs(ratio / (3 * est.value) - 1) < 0.02


def test_c1_upper_bound_and_positivity():
    pairs = [(a1, a2) for a1 in range(1, 7) for a2 in range(1, 7) if math.gcd(a1, a2) == 1]
    assert len(pairs) >= 20
    for a1, a2 in pairs:
        est = c1_constant(a1, a2)
        assert 0.0 < est.value <= a1 * a2 / 3 * (1 + 1e-9), f"({a1},{a2}): {est.value}"
        assert est.tail_error >= 0.0


def test_c1_tail_estimate_is_an_upper_bound():
    ref_cfg = TruncationConfig(c1_cutoff=10**6)
    for a1, a2 in [(1, 1), (1, 2), (2, 3), (5, 6)]:
        ref = c1_constant(a1, a2, ref_cfg).value
        for cutoff in (10**3, 10**4):
            est = c1_constant(a1, a2, TruncationConfig(c1_cutoff=cutoff))
            actual = abs(est.value - ref)
            assert actual <= C1_TAIL_RATIO_MAX * est.tail_error, (
                f"({a1},{a2}) T={cutoff}: actual {actual} vs model {est.tail_error}"
            )


def members(alpha, config=None):
    """The (a1, a2, j1, j2, j3, m1, m2) members of the S_inf walk, one
    triple at a time, with each member's exponent j1 + j2 - j3 as reported by
    its position."""
    for _, x, y, blocks in s_infinity_members(alpha, config):
        for j3, ends in blocks:
            for a1, a2, row in zip(x.tolist(), y.tolist(), ends.tolist()):
                for k in range(len(row) - 1):
                    m2, m1 = row[k], row[k + 1]
                    yield (a1, a2, m2 // a1, m2 // a2, j3, m1, m2), (a1 + a2 - 1) * j3 + k


def test_s_infinity_structural_invariants():
    seen = 0
    for (a1, a2, j1, j2, j3, m1, m2), e in members(0.5):
        assert math.gcd(a1, a2) == 1
        assert j1 >= j3 and j2 >= j3
        # the defining floor identities of the cell
        assert j2 // a1 == j3 and j1 // a2 == j3, (a1, a2, j1, j2, j3)
        assert e == j1 + j2 - j3 and 0.5**e >= TruncationConfig().beta_tail_tol
        assert m1 > m2  # nonempty rho interval
        assert m2 >= a1 * a2 * j3  # rho2 <= 1/(a1 a2 j3)
        # rho1 = 1/m1 is the max of the three lower ratios, rho2 = 1/m2 the
        # min of the three upper ones
        assert m1 == min(a1 * (j1 + 1), a2 * (j2 + 1), a1 * a2 * (j3 + 1))
        assert m2 == max(a1 * j1, a2 * j2, a1 * a2 * j3)
        seen += 1
    assert seen > 1000


def test_s_infinity_matches_brute_force_box():
    # independent brute force over a small box of (a1, a2, j1, j2, j3)
    cfg = TruncationConfig()
    box = 12
    got = {
        (a1, a2, j1, j2, j3)
        for (a1, a2, j1, j2, j3, _, _), _ in members(0.5, cfg)
        if a1 <= box and a2 <= box and j1 <= box and j2 <= box and j3 <= box
    }
    want = set()
    for j3 in range(1, box + 1):
        for j1 in range(j3, box + 1):
            for j2 in range(j3, box + 1):
                for a1 in range(1, box + 1):
                    for a2 in range(1, box + 1):
                        if math.gcd(a1, a2) != 1:
                            continue
                        if j2 // a1 != j3 or j1 // a2 != j3:
                            continue
                        m1 = min(a1 * (j1 + 1), a2 * (j2 + 1), a1 * a2 * (j3 + 1))
                        m2 = max(a1 * j1, a2 * j2, a1 * a2 * j3)
                        if m1 > m2:
                            want.add((a1, a2, j1, j2, j3))
    assert got == want


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_s_infinity_triples_match_cell_enumeration(alpha):
    got = [m for m, _ in members(alpha)]
    assert len(got) == len(set(got))
    assert set(got) == set(s_infinity_cells(alpha))


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.8])
def test_v_alpha_matches_per_term_sum(alpha):
    est = v_alpha(alpha)
    value, terms = v_alpha_per_term(alpha)
    assert est.terms == terms
    assert abs(est.value - value) <= 1e-14 * value


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.8])
def test_v_alpha_matches_per_triple_sum(cold_c1, alpha):
    # one numpy pass per (s, j3) and one C1 vector pass against one triple
    # and one scalar C1 at a time, each from cold inner sums: the row sums
    # are the same pairwise sums, so every field is bit-identical
    est = v_alpha(alpha)
    moments._c1_inner_cache.clear()
    ref = v_alpha_per_triple(alpha)
    assert est.value == ref.value
    assert est.truncation_error == ref.truncation_error
    assert (est.terms, est.triples) == (ref.terms, ref.triples)
    assert est.c1_inner_evals == ref.c1_inner_evals > 0
    assert est.c1_prime_sets == ref.c1_prime_sets == est.c1_inner_evals


@pytest.mark.parametrize("cutoff", [1000, 300000])
@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.8, None])
def test_c1_pairs_match_c1_constant(alpha, cutoff):
    # the vector pass against the scalar path it replaced, bit for bit, at
    # every pair v_alpha takes C1 of, and (alpha None) at prime powers and
    # primes near the cap, a1 a2 up to 10^14
    config = TruncationConfig(c1_cutoff=cutoff)
    if alpha is None:
        a1, a2 = np.array([64, 2**23, 9999991]), np.array([81, 3**14, 9999973])
    else:
        emax = moments._enumeration_depth(alpha, config)
        cofactors = [moments._coprime_cofactors(s) for s in range(1, emax + 1)]
        a1 = np.concatenate(cofactors)
        a2 = np.concatenate([s + 1 - x for s, x in enumerate(cofactors, 1)])
        assert len(a1) > 100
    assert all(math.gcd(x, y) == 1 for x, y in zip(a1.tolist(), a2.tolist()))
    value, tail, _, _ = moments._c1_pairs(a1, a2, cutoff)
    scalar = [c1_constant_scalar(x, y, config) for x, y in zip(a1.tolist(), a2.tolist())]
    assert hexes(value) == [est.value.hex() for est in scalar]
    assert hexes(tail) == [est.tail_error.hex() for est in scalar]


def test_phi_sigma_rad_matches_divisors():
    # the per-cofactor factorization against every divisor d added into
    # sigma and subtracted out of phi (sum of phi(d) over d | m is m), and
    # every prime d multiplied into rad and listed among the primes of its
    # multiples, prime powers up to 2^11 and primes past the square root
    # included; entries given in descending order with repeats, then
    # entries near the cap whose span is wide, then none
    limit = 3000
    want_phi = np.arange(limit + 1, dtype=np.int64)
    want_rad = np.ones(limit + 1, dtype=np.int64)
    want_sigma = np.zeros(limit + 1, dtype=np.int64)
    want_primes = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        want_phi[2 * d :: d] -= want_phi[d]
        want_sigma[d::d] += d
        if d > 1 and all(d % q for q in range(2, math.isqrt(d) + 1)):
            want_rad[d::d] *= d
            for m in range(d, limit + 1, d):
                want_primes[m].append(d)
    a = np.concatenate((np.arange(limit, 0, -1), [2048, 2999, 1, 2048]))
    (phi, sigma, rad), primes = moments._phi_sigma_rad(a)
    assert np.array_equal(phi, want_phi[a])
    assert np.array_equal(sigma, want_sigma[a])
    assert np.array_equal(rad, want_rad[a])
    assert primes == {x: tuple(want_primes[x]) for x in range(1, limit + 1)}
    a = np.array([9999991, 2**23, 9999991, 3**14, 9999973])
    f, primes = moments._phi_sigma_rad(a)
    assert f.tolist() == [
        [9999990, 2**22, 9999990, 2 * 3**13, 9999972],
        [9999992, 2**24 - 1, 9999992, (3**15 - 1) // 2, 9999974],
        [9999991, 2, 9999991, 3, 9999973],
    ]
    assert primes == {9999991: (9999991,), 2**23: (2,), 3**14: (3,), 9999973: (9999973,)}
    f, primes = moments._phi_sigma_rad(np.zeros(0, dtype=np.int64))
    assert f.shape == (3, 0) and primes == {}


def test_pair_primes_merge_the_factorizations(cold_c1, monkeypatch):
    # _c1_pairs sweeps each new radical's primes, the two factorizations of a
    # pair merged: the radicals 1, 6, 210 and 97 * 210 of these pairs, each
    # against the primes of a1 a2 found by trial
    swept = []
    sweep = moments._inner_sums
    monkeypatch.setattr(moments, "_inner_sums", lambda t, sets: swept.extend(sets) or sweep(t, sets))
    pairs = [(1, 1), (1, 12), (12, 35), (35, 12), (64, 81), (97, 2 * 3 * 5 * 7)]
    moments._c1_pairs(*np.array(pairs).T, 1000)
    want = {
        tuple(p for p in range(2, a1 * a2 + 1)
              if (a1 * a2) % p == 0 and all(p % q for q in range(2, p)))
        for a1, a2 in pairs
    }
    assert swept == sorted(want, key=math.prod)
    assert swept == [(), (2, 3), (2, 3, 5, 7), (2, 3, 5, 7, 97)]


def test_unique_inverse_matches_np_unique():
    # _phi_sigma_rad factors each distinct entry once and scatters its row
    # back through np.unique's inverse: every entry's column equals that of
    # the entry alone, and the primes are keyed by np.unique's values, on
    # repeats, a narrow and a wide span, and lengths 0 and 1
    rng = np.random.default_rng(23)
    cases = [
        rng.integers(1, 50, size=1000),
        rng.integers(1, 10**7, size=300),
        np.repeat(rng.integers(10**6, 10**7, size=40), 7),
        np.array([5, 5, 5, 5]),
        np.array([3, 9999991, 3, 7]),
        np.array([42]),
        np.zeros(0, dtype=np.int64),
    ]
    for a in cases:
        a = a.astype(np.int64)
        f, primes = moments._phi_sigma_rad(a)
        values, inverse = np.unique(a, return_inverse=True)
        assert f.dtype == np.int64 and f.shape == (3, len(a))
        assert list(primes) == values.tolist()
        assert primes == {x: prime_factors(x) for x in values.tolist()}
        alone = [moments._phi_sigma_rad(np.array([x]))[0][:, 0].tolist() for x in values.tolist()]
        assert f.T.tolist() == [alone[i] for i in inverse.tolist()]


def test_s_infinity_rejects_endpoints():
    with pytest.raises(ValueError):
        list(s_infinity_members(0.0))
    with pytest.raises(ValueError):
        next(s_infinity_members(1.0))


def test_v_alpha_positive_and_pinned():
    for alpha in (0.2, 0.5, 0.8):
        est = v_alpha(alpha)
        assert est.value > 0.0
        assert est.truncation_error < 1e-4
        assert est.terms > 100
    # frozen regression value for the midpoint
    est = v_alpha(0.5)
    assert abs(est.value - 0.039829164382) < 1e-9


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_v_alpha_takes_c1_pairs_from_the_walk(monkeypatch, alpha):
    # C1 of each pair comes from the cofactor lists the S_inf walk yields, so
    # another order of the cofactors within each s changes no bit
    v_alpha(alpha)  # C1 cached, so both runs below count the same inner sums
    est = v_alpha(alpha)
    cofactors = moments._coprime_cofactors
    monkeypatch.setattr(moments, "_coprime_cofactors", lambda s: np.roll(cofactors(s), 1))
    assert hexes(v_alpha(alpha)) == hexes(est)


def test_v_alpha_endpoints_rejected():
    with pytest.raises(ValueError):
        v_alpha(0.0)
    with pytest.raises(ValueError):
        v_alpha(1.0)


def test_v_alpha_with_no_members():
    # beta below the tail tolerance keeps no exponent: no pair, no member,
    # only the dropped-range bounds
    alpha = 1.0 - 1e-13
    assert moments._enumeration_depth(alpha, TruncationConfig()) == 0
    est = v_alpha(alpha)
    assert (est.value, est.terms, est.triples) == (0.0, 0, 0)
    assert (est.c1_prime_sets, est.c1_inner_evals) == (0, 0)
    assert 0.0 < est.truncation_error < 1e-12


def test_v_alpha_deepening_consistency():
    base = v_alpha(0.5)
    deep = v_alpha(0.5, TruncationConfig(j3_max=80, beta_tail_tol=1e-14))
    assert abs(deep.value - base.value) <= base.truncation_error + deep.truncation_error
    deeper_c1 = v_alpha(0.5, TruncationConfig(c1_cutoff=3 * 10**5))
    assert abs(deeper_c1.value - base.value) <= base.truncation_error


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.8])
def test_truncation_error_bounds_deeper_truncation(alpha):
    base = v_alpha(alpha)
    deep = v_alpha(alpha, TruncationConfig(j3_max=80, beta_tail_tol=1e-14, c1_cutoff=3 * 10**5))
    assert abs(deep.value - base.value) <= base.truncation_error


def test_v_alpha_matches_finite_n_variance(tables_mid):
    # V[X_n] / n^3 -> v(alpha); at n = 4000 the gap is already ~3e-4 relative
    est = v_alpha(0.5)
    ratio = variance_exact(4000, 0.5, tables_mid) / 4000**3
    assert abs(ratio - est.value) / est.value < 0.01


def test_variance_at_n_1e5_approaches_v_half(tables_big):
    # beyond the reach of the dense O(n^2) sum: V/n^3 at n = 1e5 is already
    # ~3e-6 relative from v(1/2)
    ratio = variance_exact(10**5, 0.5, tables_big) / 10**15
    assert abs(ratio - 0.039829164382) / 0.039829164382 < 1e-4, f"V/n^3 = {ratio!r}"
