"""The prime sieve, the totient table, its summatory prefix sums, the paired
totient sum, and the shared point validation."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qlcm
import qlcm.arith as arith
import qlcm.moments as moments
from calibration import PHI_SUMMATORY_K
from qlcm.arith import build_tables, phi_pair_summatory, primes_up_to, split_primes
from qlcm.model import ModelParams, degree_statistic, enumerate_exact, monte_carlo
from qlcm.moments import expectation_exact, expectation_grouped, variance_exact
from qlcm.errors import ResourceLimitError
from reference import build_tables_monolithic, phi_pair_from_table, phi_per_prime, primes_plain

PI2_OVER_3 = math.pi**2 / 3


def test_limit_one_base_case():
    t = build_tables(1)
    assert t.limit == 1
    assert t.phi.tolist() == [0, 1]


def test_limit_must_be_positive():
    with pytest.raises(ValueError):
        build_tables(0)
    with pytest.raises(ValueError):
        build_tables(-5)


def test_pointwise_examples():
    t = build_tables(100)
    assert t.phi[12] == 4
    assert t.phi[97] == 96


def test_tables_are_read_only(tables_small):
    with pytest.raises(ValueError):
        tables_small.phi[3] = 99


def test_prime_values_vectorized(tables_big):
    primes = primes_up_to(tables_big.limit)
    assert primes[0] == 2 and primes[-1] == 999983
    assert np.array_equal(tables_big.phi[primes], primes - 1)


def test_primes_up_to_matches_trial_division():
    top = 2000
    is_prime = [m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))
                for m in range(top + 1)]
    expect = [m for m in range(top + 1) if is_prime[m]]
    for limit in range(top + 1):
        got = primes_up_to(limit)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in expect if p <= limit], limit


def test_primes_up_to_holds_the_sieve_and_the_primes_only():
    # nonzero's indices are int64 already: no copy beside the byte sieve
    limit = 10**6
    tracemalloc.start()
    try:
        primes = primes_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit + 1 + 8 * len(primes) + 2**16, peak


# limits around the first segment edges of primes_up_to, which sieves
# 2 SIEVE_SEGMENT numbers a segment
PRIME_SEGMENT_EDGES = tuple(2 * k * arith.SIEVE_SEGMENT + d for k in (1, 2) for d in range(-2, 3))


def test_primes_up_to_matches_plain_sieve(monkeypatch):
    for limit in (*PRIME_SEGMENT_EDGES, 10**6, 3 * 10**6 + 1):
        got = primes_up_to(limit)
        assert got.dtype == np.int64 and np.array_equal(got, primes_plain(limit)), limit
    # segments shorter than the small primes' strides, and of odd length
    ref = primes_plain(5000)
    for segment in (1, 2, 7, 97):
        monkeypatch.setattr(arith, "SIEVE_SEGMENT", segment)
        for limit in (*range(0, 60), 961, 962, 5000):
            assert np.array_equal(primes_up_to(limit), ref[ref <= limit]), (segment, limit)


def test_primes_up_to_holds_one_segment_beside_the_primes():
    # the primes' array, sized by the pi(x) bound, one bool segment and its
    # primes: 0.94 MiB at 10^6 against 1.55 MiB for a limit + 1 sieve and
    # its int64 indices
    limit = 10**6
    tracemalloc.start()
    try:
        primes_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (1.25506 * limit / math.log(limit) + 1)
    assert peak < bound + 5 * arith.SIEVE_SEGMENT, peak


# limits just below, at and above a prime square, where the split moves
SPLIT_EDGES = (24, 25, 26, 120, 121, 122, 168, 169, 170)


def test_split_primes_matches_definition():
    for limit in (*range(1, 400), *SPLIT_EDGES, 10**4):
        r = math.isqrt(limit)
        primes = primes_up_to(limit).tolist()
        small, large, counts = split_primes(limit)
        assert small.tolist() == [p for p in primes if p <= r], limit
        assert large.tolist() == [p for p in primes if p > r], limit
        assert len(counts) == limit // (r + 1), limit
        for j, k in enumerate(counts, 1):
            assert large[:k].tolist() == [p for p in primes if r < p <= limit // j], (limit, j)


def test_build_tables_matches_per_prime_sieve(tables_big):
    # phi[m] does not depend on the limit, so one reference serves them all
    ref = phi_per_prime(3000)
    for limit in range(1, 3001):
        t = build_tables(limit)
        assert np.array_equal(t.phi, ref[: limit + 1]), limit
    assert np.array_equal(tables_big.phi, phi_per_prime(10**6))


# limits just below, at and just above one and two segments
SEGMENT_EDGES = tuple(k * arith.SIEVE_SEGMENT + d for k in (1, 2) for d in (-1, 0, 1))


def test_build_tables_matches_monolithic_sieve(tables_big):
    for limit in (*range(1, 201), *SEGMENT_EDGES, 10**5):
        t = build_tables(limit)
        ref = build_tables_monolithic(limit)
        assert t.phi.dtype == ref.phi.dtype and np.array_equal(t.phi, ref.phi), limit
    assert np.array_equal(tables_big.phi, build_tables_monolithic(10**6).phi)


@pytest.mark.parametrize("segment", [1, 7, 97])
def test_tiny_segments_match_monolithic_sieve(monkeypatch, segment):
    # segments shorter than the small primes, and runs of large primes cut
    # at every few entries
    ref = build_tables_monolithic(3000)
    monkeypatch.setattr(arith, "SIEVE_SEGMENT", segment)
    for limit in (1, 2, 3, 1000, 2310, 3000):
        assert np.array_equal(build_tables(limit).phi, ref.phi[: limit + 1]), limit
    for a1, a2 in ((1, 1), (6, 35)):
        assert phi_pair_summatory(a1, a2, 85) == phi_pair_from_table(ref, a1, a2, 85)


@pytest.mark.parametrize("pair_chunk", [2, 3, 64])
def test_large_prime_pieces_match_monolithic_sieve(monkeypatch, pair_chunk):
    # _fill writes the large primes' pairs in pieces of about PAIR_CHUNK // 2,
    # cut between runs of j: pieces of one run each, and of a few runs
    ref = build_tables_monolithic(10**5)
    monkeypatch.setattr(arith, "PAIR_CHUNK", pair_chunk)
    for limit in (1, 2, 3, 1000, 2310, 10**5):
        assert np.array_equal(build_tables(limit).phi, ref.phi[: limit + 1]), limit


def test_totient_divisor_sum_identity():
    # sum_{d | m} phi(d) = m, aggregated over all m at once
    limit = 10**5
    t = build_tables(limit)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += t.phi[d]
    assert np.array_equal(acc[1:], np.arange(1, limit + 1))


# Phi(x) = sum_{m <= x} phi(m) is the prefix sum the E[X] paths take of phi
def test_phi_summatory_examples(tables_small):
    prefix = np.cumsum(tables_small.phi)
    assert prefix.dtype == np.int64
    assert prefix[0] == 0 and prefix[1] == 1 and prefix[10] == 32


def test_summatory_rejects_out_of_range(monkeypatch):
    # the cap bounds max(a1, a2) * floor(x); refused before any sieving
    with pytest.raises(ResourceLimitError):
        phi_pair_summatory(1, 1, arith.TABLE_LIMIT + 1)
    with pytest.raises(ResourceLimitError):
        phi_pair_summatory(2, 1, arith.TABLE_LIMIT // 2 + 1)
    monkeypatch.setattr(arith, "TABLE_LIMIT", 1000)
    with pytest.raises(ResourceLimitError):
        phi_pair_summatory(1, 1, 1001)
    with pytest.raises(ResourceLimitError):
        phi_pair_summatory(2, 1, 501)
    # fractional overshoot floors back under the cap
    assert phi_pair_summatory(1, 1, 1000.5) == phi_pair_summatory(1, 1, 1000)
    assert phi_pair_summatory(1, 2, 500.9) == phi_pair_summatory(1, 2, 500)


def test_phi_summatory_monotone(tables_big):
    ks = np.unique(np.geomspace(1, tables_big.limit, 200).astype(np.int64))
    vals = np.cumsum(tables_big.phi)[ks].tolist()
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_phi_summatory_quadratic_envelope(tables_big):
    # |Phi(x) - x^2 / (pi^2/3)| <= K x log x with the frozen K
    x = np.arange(2, tables_big.limit + 1, dtype=np.float64)
    err = np.abs(np.cumsum(tables_big.phi)[2:] - x * x / PI2_OVER_3)
    ratio = err / (x * np.log(x))
    assert float(ratio.max()) <= PHI_SUMMATORY_K, f"worst ratio {ratio.max():.4f}"


def test_phi_pair_examples():
    # sum phi(m)^2 for m <= 3: 1 + 1 + 4
    assert phi_pair_summatory(1, 1, 3) == 6
    # m=1: phi(2)phi(3)=2; m=2: phi(4)phi(6)=4
    assert phi_pair_summatory(2, 3, 2) == 6
    assert phi_pair_summatory(2, 3, 2.9) == 6
    assert phi_pair_summatory(5, 7, 0.4) == 0


def test_phi_pair_rejects_bad_strides():
    with pytest.raises(ValueError):
        phi_pair_summatory(0, 1, 10)
    with pytest.raises(ValueError):
        phi_pair_summatory(1, -2, 10)


@pytest.mark.parametrize("a1,a2", [(1, 1), (2, 3), (4, 9), (1, 12)])
def test_phi_pair_matches_naive(tables_big, a1, a2):
    x = 997
    expect = sum(int(tables_big.phi[a1 * k]) * int(tables_big.phi[a2 * k]) for k in range(1, x + 1))
    assert phi_pair_summatory(a1, a2, x) == expect


@pytest.fixture(scope="module")
def tables_9e6():
    # covers a * 10^6 for every stride a <= 9
    return build_tables_monolithic(9 * 10**6)


# x just below, at and above the first PAIR_CHUNK multiples and one and two
# segments, where the stream's chunks and segments end
STREAM_EDGES = tuple(
    k * size + d for size, ks in ((arith.PAIR_CHUNK, (1, 2)), (arith.SIEVE_SEGMENT, (1, 2)))
    for k in ks for d in (-1, 0, 1)
)


@pytest.mark.parametrize("a1,a2", [(1, 1), (2, 3), (4, 9), (1, 12), (6, 35), (5, 7)])
def test_phi_pair_stream_matches_table_sum(tables_9e6, a1, a2):
    for x in (1, 2, 3, *STREAM_EDGES, 10**6):
        if max(a1, a2) * x <= tables_9e6.limit:
            want = phi_pair_from_table(tables_9e6, a1, a2, x)
            assert phi_pair_summatory(a1, a2, x) == want, (a1, a2, x)


def test_phi_pair_chunk_edges_match_python_sum(tables_big, monkeypatch):
    # x just below, at and above a multiple of the chunk, with a tiny chunk
    # and with the real one
    phi = tables_big.phi.tolist()
    for chunk, ks in ((7, (1, 2, 3)), (arith.PAIR_CHUNK, (1, 3))):
        monkeypatch.setattr(arith, "PAIR_CHUNK", chunk)
        for a1, a2 in ((1, 1), (2, 3), (1, 5)):
            for k in ks:
                for x in (k * chunk - 1, k * chunk, k * chunk + 1):
                    want = sum(phi[a1 * k] * phi[a2 * k] for k in range(1, x + 1))
                    assert phi_pair_summatory(a1, a2, x) == want, (chunk, a1, a2, x)


def test_phi_pair_total_past_int64():
    # the sum of phi(m)^2 for m <= 4.5 * 10^6 passes 2^63; every chunk's
    # int64 sum stays exact and the chunks add as Python ints
    x = 4_500_000
    t = build_tables(x)
    chunks = (c.astype(object) for c in np.array_split(t.phi[1:], 9))
    want = sum(int(np.dot(c, c)) for c in chunks)
    assert want > 2**63
    assert phi_pair_summatory(1, 1, x) == want


def test_phi_table_is_int32():
    # every entry starts at m <= TABLE_LIMIT and the sieve only lowers it
    assert arith.TABLE_LIMIT < 2**31
    for limit in (1, 2, 1000, 10**5):
        assert build_tables(limit).phi.dtype == np.int32


def test_phi_pair_products_past_int32(tables_big):
    # the products reach 10^12, far past 2^31: the int32 gathers must be
    # cast before they are multiplied
    phi = tables_big.phi.tolist()
    want = sum(v * v for v in phi[1:])
    assert max(phi) ** 2 > 2**31
    assert phi_pair_summatory(1, 1, 10**6) == want


def test_phi_pair_chunk_products_fit_int64():
    # a product is at most TABLE_LIMIT^2, so a chunk's int64 sum cannot wrap
    assert arith.PAIR_CHUNK * arith.TABLE_LIMIT**2 < 2**63


def test_phi_pair_memory_is_one_chunk():
    # the prime sieve, one segment and one chunk's int64 arrays: no table
    tracemalloc.start()
    try:
        phi_pair_summatory(1, 1, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# each entry point with the checks it makes: n >= 1, alpha in [0, 1], and
# tables covering 1..n
_ENTRY_POINTS = [
    ("expectation_exact", expectation_exact, ("n", "alpha", "tables")),
    ("expectation_grouped", expectation_grouped, ("n", "alpha", "tables")),
    ("variance_exact", variance_exact, ("n", "alpha", "tables")),
    ("enumerate_exact", lambda n, a, t: enumerate_exact(n, Fraction(a), t),
     ("n", "alpha", "tables")),
    ("degree_statistic", lambda n, a, t: degree_statistic(np.zeros(n + 1, dtype=bool), n, t),
     ("n", "tables")),
    ("monte_carlo", lambda n, a, t: monte_carlo(ModelParams(n=n, alpha=a, seed=1, trials=1), t),
     ("n", "alpha", "tables")),
]
_BAD_POINTS = {"n": (0, 0.5, 1000), "alpha": (5, 1.5, 1000), "tables": (5, 0.5, 4)}


@pytest.mark.parametrize(
    "call,n,alpha,limit",
    [pytest.param(call, *_BAD_POINTS[check], id=f"{name}-{check}")
     for name, call, checks in _ENTRY_POINTS for check in checks],
)
def test_entry_points_reject_bad_points(call, n, alpha, limit):
    with pytest.raises(ValueError):
        call(n, alpha, build_tables(limit))


def test_package_exports_resolve():
    missing = [name for name in qlcm.__all__ if not hasattr(qlcm, name)]
    assert not missing


def test_package_exports_are_used():
    # every exported name serves a library path, a test oracle or the
    # benchmark tracer: it occurs in src/qlcm outside __init__.py and its own
    # def or class line, in tests/reference.py, or in Tracer.install
    root = Path(__file__).resolve().parents[1]
    texts = [p.read_text() for p in (root / "src" / "qlcm").glob("*.py") if p.name != "__init__.py"]
    texts.append((root / "tests" / "reference.py").read_text())
    tracing = (root / "perfbench" / "tracing.py").read_text()
    texts.append(tracing.split("def install(")[1].split("\n    def ")[0])
    unused = []
    for name in qlcm.__all__:
        use = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class) {name}\b")
        if not any(
            use.search(line) and not definition.match(line)
            for text in texts
            for line in text.splitlines()
        ):
            unused.append(name)
    assert not unused


def test_tracer_installs_and_wraps_c1_constant():
    # the benchmark tracer looks up every function it wraps by name, and keys
    # c1_constant by (a1, a2, config): a rename or a new signature fails here,
    # in a fresh interpreter whose modules the wrappers may replace
    root = Path(__file__).resolve().parents[1]
    code = (
        "from tracing import Tracer\n"
        "from qlcm import moments\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "est = moments.c1_constant(6, 35)\n"
        "assert moments.c1_constant(6, 35, moments.TruncationConfig(c1_cutoff=7)) != est\n"
        "trace = tracer.export()\n"
        "assert [leaf[1:3] for leaf in trace['leaves']] == [['moments.c1_constant', 2]], trace\n"
        "assert trace['distinct'] == {'moments.c1_constant': 2}, trace\n"
        "print(est.value.hex())\n"
    )
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == qlcm.c1_constant(6, 35).value.hex()



def test_tracer_times_the_s_infinity_walk_of_v_alpha():
    # v_alpha walks S_inf through the module's s_infinity_members, so the
    # tracer's generator wrapper sees one item per s = 1..emax plus the
    # final next, under the v_alpha span, and the value does not change
    emax = moments._enumeration_depth(0.5, moments.TruncationConfig())
    root = Path(__file__).resolve().parents[1]
    code = (
        "from tracing import Tracer\n"
        "from qlcm import moments\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "est = moments.v_alpha(0.5)\n"
        "trace = tracer.export()\n"
        "assert [span[0] for span in trace['spans']] == ['moments.v_alpha'], trace\n"
        f"assert [leaf[:3] for leaf in trace['leaves']] == "
        f"[[0, 'moments.s_infinity_members', {emax + 1}]], trace\n"
        "print(est.value.hex())\n"
    )
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == qlcm.v_alpha(0.5).value.hex()

def test_traced_build_tables_reports_table_bytes():
    # perfbench's tracer sums the arrays that vars() finds on a table set
    root = Path(__file__).resolve().parents[1]
    code = (
        "from tracing import Tracer\n"
        "from qlcm import arith\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tables = arith.build_tables(1000)\n"
        "print(tracer.export()['spans'][0][4]['bytes'], tables.nbytes)\n"
    )
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["4004", "4004"]
