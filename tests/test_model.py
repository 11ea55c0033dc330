"""Random-set sampling, the degree statistic, keyed Monte Carlo, enumeration."""

import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from calibration import MONTE_CARLO_2M_PEAK_MIB
from qlcm import model
from qlcm.arith import build_tables
from qlcm.errors import ResourceLimitError
from qlcm.model import ModelParams, degree_statistic, enumerate_exact, monte_carlo, sample_set
from qlcm.qpoly import lcm_degree_oracle
from reference import draw_by_generator, enumerate_exact_fraction, plane_rows, subset_counts_walk


def bits_of(members, n):
    """Membership bitmap over 0..n of the given elements of 1..n."""
    bits = np.zeros(n + 1, dtype=bool)
    bits[list(members)] = True
    return bits


def covered(bits, d):
    """1 when some multiple of d in 1..n belongs to the set, else 0."""
    return int(bits[d::d].any())


def test_params_validation():
    ModelParams(n=1, alpha=0.0, seed=0, trials=1)
    with pytest.raises(ValueError):
        ModelParams(n=0, alpha=0.5, seed=1, trials=10)
    with pytest.raises(ValueError):
        ModelParams(n=5, alpha=1.0001, seed=1, trials=10)
    with pytest.raises(ValueError):
        ModelParams(n=5, alpha=-0.1, seed=1, trials=10)
    with pytest.raises(ValueError):
        ModelParams(n=5, alpha=0.5, seed=1, trials=0)
    with pytest.raises(ValueError):
        ModelParams(n=5, alpha=0.5, seed=-1, trials=10)
    with pytest.raises(ValueError):
        ModelParams(n=5, alpha=0.5, seed=2**64, trials=10)


def test_sample_set_degenerate_alphas():
    p0 = ModelParams(n=40, alpha=0.0, seed=9, trials=3)
    p1 = ModelParams(n=40, alpha=1.0, seed=9, trials=3)
    assert not sample_set(p0, 0).any()
    bits = sample_set(p1, 2)
    assert not bits[0] and bits[1:].all()


def test_sample_set_keyed_determinism():
    p = ModelParams(n=50, alpha=0.5, seed=123, trials=8)
    again = ModelParams(n=50, alpha=0.5, seed=123, trials=8)
    for t in range(8):
        assert np.array_equal(sample_set(p, t), sample_set(again, t))
    # distinct trials are distinct draws
    assert not np.array_equal(sample_set(p, 0), sample_set(p, 1))
    # a different seed changes the draw
    other = ModelParams(n=50, alpha=0.5, seed=124, trials=8)
    assert not np.array_equal(sample_set(p, 0), sample_set(other, 0))


@pytest.mark.parametrize("n", [1, 40, 20000])
def test_draws_match_generator_random(n):
    # raw Philox words against the cut give the bits of random(n) < alpha
    for alpha in (0.0, 2.0**-60, 0.1, 1 / 3, 0.5, 0.9, 1 - 2.0**-53, 1.0):
        p = ModelParams(n=n, alpha=alpha, seed=20260814, trials=5)
        block = plane_rows(model._draw_block(p, 0, p.trials), p.trials)
        for t in range(p.trials):
            want = draw_by_generator(p.seed, t, n, alpha)
            assert np.array_equal(sample_set(p, t), want), (n, alpha, t)
            assert np.array_equal(block[t], want), (n, alpha, t)


def test_draws_in_chunks_continue_one_stream(monkeypatch):
    # a trial's raw words come DRAW_CHUNK at a time from one Philox stream:
    # a draw holds one chunk of words, not n of them (16 MB at n = 2 * 10^6),
    # and the bits do not depend on the chunk
    p = ModelParams(n=2 * 10**6, alpha=0.5, seed=1, trials=1)
    tracemalloc.start()
    try:
        sample_set(p, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22, f"peak {peak} bytes"
    monkeypatch.setattr(model, "DRAW_CHUNK", 7)
    for n in (6, 7, 8, 40, 1000):
        p = ModelParams(n=n, alpha=0.3, seed=20260814, trials=3)
        block = plane_rows(model._draw_block(p, 0, p.trials), p.trials)
        for t in range(p.trials):
            want = draw_by_generator(p.seed, t, n, p.alpha)
            assert np.array_equal(sample_set(p, t), want), (n, t)
            assert np.array_equal(block[t], want), (n, t)


@pytest.mark.parametrize("start", [5, 130])
def test_draw_block_planes_hold_each_trial(start):
    # trial start + r is bit r % 8 of plane r // 8; a last partial plane is
    # kept, its unused bits and element 0 stay clear
    n = 50
    p = ModelParams(n=n, alpha=0.4, seed=20260814, trials=start + 128)
    for rows in (1, 7, 8, 9, 17, 128):
        planes = model._draw_block(p, start, start + rows)
        assert planes.shape == (-(-rows // 8), n + 1) and planes.dtype == np.uint8
        got = plane_rows(planes, 8 * planes.shape[0])
        for r in range(rows):
            want = draw_by_generator(p.seed, start + r, n, p.alpha)
            assert np.array_equal(got[r], want), (start, rows, r)
        assert not got[rows:].any() and not planes[:, 0].any(), (start, rows)


def test_threads_draw_their_own_keyed_streams():
    # each thread re-keys its own Philox: four threads drawing two
    # different params, switching as often as the interpreter allows,
    # still draw every trial's own bits
    params = [ModelParams(n=200, alpha=0.3, seed=1, trials=60),
              ModelParams(n=333, alpha=0.7, seed=2**64 - 1, trials=60)]

    def draw(p):
        sets = [sample_set(p, t) for t in range(p.trials)]
        return sets, plane_rows(model._draw_block(p, 0, p.trials), p.trials)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(draw, params[i % 2]) for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, (sets, block) in enumerate(results):
        p = params[i % 2]
        for t in range(p.trials):
            want = draw_by_generator(p.seed, t, p.n, p.alpha)
            assert np.array_equal(sets[t], want) and np.array_equal(block[t], want), (i, t)


def test_block_rows_fit_the_byte_budget(monkeypatch):
    # 128 rows at every n up to 20000, which covers every benchmark block;
    # above that no more than BLOCK_BYTES of bits, unless one row is larger
    assert {model._block_rows(n) for n in range(1, 20001)} == {model.BLOCK_SIZE}
    for n in (32767, 32768, 10**5, 2**22 - 1, 2**22, 10**7):
        rows = model._block_rows(n)
        assert rows == 1 or rows * (n + 1) <= model.BLOCK_BYTES, n
    assert model._block_rows(32767) == 128 and model._block_rows(32768) == 127
    assert model._block_rows(10**5) == 41 and model._block_rows(10**7) == 1
    monkeypatch.setattr(model, "BLOCK_SIZE", 10000)
    assert model._block_rows(60) == 10000


def test_monte_carlo_memory_follows_the_byte_budget():
    # a first draw loads numpy.random's modules outside the traced spans
    sample_set(ModelParams(n=1, alpha=0.5, seed=1, trials=1), 0)
    for n, trials, workers, bound in [
        # 128 rows at n = 2 * 10^5 would hold 25.6 MB of bits at once
        (200000, 128, 1, 2**23),
        # two rows a block: each worker holds one 2 MB plane, and the
        # histogram's float64 weights and intp plane are one chunk long
        (2000000, 16, 2, MONTE_CARLO_2M_PEAK_MIB * 2**20),
    ]:
        tables = build_tables(n)
        p = ModelParams(n=n, alpha=0.5, seed=1, trials=trials)
        tracemalloc.start()
        try:
            s = monte_carlo(p, tables, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.trials == trials
        assert peak < bound, f"peak {peak} bytes at n = {n}"


def test_sample_set_trial_range():
    p = ModelParams(n=10, alpha=0.5, seed=1, trials=4)
    with pytest.raises(ValueError):
        sample_set(p, -1)
    with pytest.raises(ValueError):
        sample_set(p, 4)


def test_sample_set_mean_size():
    # subset size is Binomial(n, alpha)
    n, alpha, trials = 30, 0.35, 10**5
    p = ModelParams(n=n, alpha=alpha, seed=77, trials=trials)
    total = sum(int(sample_set(p, t).sum()) for t in range(trials))
    mean = total / trials
    se = math.sqrt(n * alpha * (1 - alpha) / trials)
    assert abs(mean - n * alpha) < 4 * se, f"mean {mean} vs {n * alpha}"


def test_degree_statistic_examples(tables_small):
    assert degree_statistic(bits_of({1, 2, 3}, 3), 3, tables_small) == 3
    assert degree_statistic(bits_of([], 3), 3, tables_small) == 0
    assert degree_statistic(bits_of({1}, 3), 3, tables_small) == 0
    assert degree_statistic(bits_of({6}, 6), 6, tables_small) == 5


def test_degree_statistic_requires_tables(tables_small):
    with pytest.raises(ValueError):
        degree_statistic(bits_of({2}, 2000), 2000, tables_small)


def test_degree_statistic_matches_oracles(tables_small):
    rng = np.random.default_rng(42)
    for _ in range(60):
        mask = rng.random(30) < 0.4
        members = [int(k) for k in np.nonzero(mask)[0] + 1]
        bits = bits_of(members, 30)
        x = degree_statistic(bits, 30, tables_small)
        assert x == lcm_degree_oracle(members, method="cyclotomic")
        assert x == lcm_degree_oracle(members, method="gcd")


def test_degree_statistic_monotone_under_inclusion(tables_small):
    rng = np.random.default_rng(8)
    n = 40
    for _ in range(50):
        small = rng.random(n) < 0.3
        extra = rng.random(n) < 0.2
        big = small | extra
        bs = np.concatenate(([False], small))
        bb = np.concatenate(([False], big))
        assert degree_statistic(bs, n, tables_small) <= degree_statistic(bb, n, tables_small)


def test_monte_carlo_alpha_one_degenerate(tables_small, tables_mid):
    p = ModelParams(n=10, alpha=1.0, seed=3, trials=50)
    s = monte_carlo(p, tables_small)
    assert s.variance == 0.0
    assert s.stderr == 0.0
    assert s.mean == int(tables_small.phi[2:11].sum())
    # at n = 20000 every degree is the sum of phi(2..n), past 2^24: the
    # per-byte sums must not lose it
    p = ModelParams(n=20000, alpha=1.0, seed=3, trials=9)
    s = monte_carlo(p, tables_mid)
    top = int(tables_mid.phi[2:20001].sum())
    assert s.degrees.tolist() == [top] * 9
    assert top > 2**24


def test_monte_carlo_single_trial(tables_small):
    p = ModelParams(n=10, alpha=0.5, seed=3, trials=1)
    s = monte_carlo(p, tables_small)
    assert s.trials == 1 and s.variance == 0.0 and s.stderr == 0.0


def test_monte_carlo_matches_stream(tables_small):
    p = ModelParams(n=30, alpha=0.4, seed=17, trials=300)
    s = monte_carlo(p, tables_small)
    degs = [degree_statistic(sample_set(p, t), p.n, tables_small) for t in range(p.trials)]
    assert s.degrees.tolist() == degs
    assert s.mean == float(Fraction(sum(degs), len(degs)))


def test_sets_and_degrees_follow_trial_order(tables_small, monkeypatch):
    # oracle-check pairs monte_carlo's degree of trial t with the set
    # sample_set(p, t) draws: the degree is that set's per-d degree, in
    # trial order, across blocks and a last partial block
    p = ModelParams(n=30, alpha=0.4, seed=17, trials=45)
    want = [degree_statistic(sample_set(p, t), p.n, tables_small) for t in range(p.trials)]
    for block in (1, 8, 17, 128):
        monkeypatch.setattr(model, "BLOCK_SIZE", block)
        assert monte_carlo(p, tables_small).degrees.tolist() == want, block


def test_monte_carlo_worker_and_block_invariance(tables_small, monkeypatch):
    p = ModelParams(n=60, alpha=0.3, seed=99, trials=500)
    monkeypatch.setattr(model, "BLOCK_SIZE", 256)
    base = monte_carlo(p, tables_small, workers=1)
    for workers, block in [(1, 1), (2, 7), (8, 64), (3, 10000)]:
        monkeypatch.setattr(model, "BLOCK_SIZE", block)
        s = monte_carlo(p, tables_small, workers=workers)
        assert np.array_equal(s.degrees, base.degrees)
        assert s.mean == base.mean and s.variance == base.variance
    with pytest.raises(ValueError):
        monte_carlo(p, tables_small, workers=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 24, 25, 26, 97, 120, 121, 122, 1000, 2310])
def test_block_degrees_match_per_d_oracle(tables_small, n, monkeypatch):
    # the coverage transform gives the per-d loop's degree, trial by trial,
    # at the default chunk and at a chunk of 7, whose boundaries fall inside
    # 2..n for the histogram and the large-prime gathers
    tables = tables_small if n <= tables_small.limit else build_tables(n)
    for alpha in (0, 0.1, 0.5, 1):
        p = ModelParams(n=n, alpha=alpha, seed=20260814, trials=20)
        want = [degree_statistic(sample_set(p, t), n, tables) for t in range(p.trials)]
        if n == 1 or alpha == 0:
            assert want == [0] * p.trials
        for chunk, block in itertools.product((7, model.DRAW_CHUNK), (1, 7, 8, 9, 16, 17, 256)):
            monkeypatch.setattr(model, "DRAW_CHUNK", chunk)
            monkeypatch.setattr(model, "BLOCK_SIZE", block)
            got = monte_carlo(p, tables).degrees
            assert got.tolist() == want, (n, alpha, chunk, block)


def test_monte_carlo_threads_capped(tables_small, monkeypatch):
    # the pool never gets more workers than asked for, blocks or cores, and
    # the calling thread is one of them: it starts one thread fewer
    started = []

    class Recorder(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(model.threading, "Thread", Recorder)
    p = ModelParams(n=30, alpha=0.5, seed=1, trials=40)
    base = monte_carlo(p, tables_small).degrees
    for cores, workers, block, want in [
        (2, 10**4, 4, 2),  # cores bind
        (4, 3, 4, 3),  # workers bind
        (4, 10**4, 20, 2),  # blocks bind
        (None, 10**4, 4, 1),  # unknown core count: the caller alone
    ]:
        started.clear()
        monkeypatch.setattr(model.os, "cpu_count", lambda cores=cores: cores)
        monkeypatch.setattr(model, "BLOCK_SIZE", block)
        s = monte_carlo(p, tables_small, workers=workers)
        assert s.workers == want == len(started) + 1
        assert np.array_equal(s.degrees, base)


def test_monte_carlo_reraises_a_worker_exception(tables_small, monkeypatch):
    # a block that fails on a worker thread fails the call, as on one thread
    draw_block = model._draw_block

    def failing(params, start, stop):
        if start == 8:
            raise ZeroDivisionError("block at 8")
        return draw_block(params, start, stop)

    monkeypatch.setattr(model, "_draw_block", failing)
    monkeypatch.setattr(model, "BLOCK_SIZE", 4)
    monkeypatch.setattr(model.os, "cpu_count", lambda: 2)
    p = ModelParams(n=30, alpha=0.5, seed=1, trials=40)
    for workers in (1, 2):
        with pytest.raises(ZeroDivisionError, match="block at 8"):
            monte_carlo(p, tables_small, workers=workers)


def test_run_threads_takes_each_item_once():
    # eight threads on the cores there are, switching as often as the
    # interpreter allows: every item is taken exactly once and its result
    # lands in its own slot
    calls = []

    def fn(x):
        calls.append(x)
        return x * x

    items = list(range(2000))
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(model._run_threads(fn, items, 8)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [[x * x for x in items]]
    assert sorted(calls) == items


def test_threaded_simulate_loads_no_pool_modules():
    # worker threads come from threading alone, and the records are named
    # tuples: a --workers 2 run in a fresh interpreter loads neither
    # concurrent.futures nor what it imports, nor dataclasses
    code = (
        "import sys\n"
        "import qlcm.cli, qlcm.model\n"
        "qlcm.model.os.cpu_count = lambda: 2\n"
        "argv = ['simulate', '--n', '300', '--alpha', '0.5', '--trials', '600',\n"
        "        '--seed', '1', '--workers', '2', '--no-timings']\n"
        "assert qlcm.cli.main(argv) == 0\n"
        "unused = ('concurrent.futures', 'logging', 'statistics', 'dataclasses')\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.splitlines()[-1] == "[]", out


def test_monte_carlo_mean_near_exact_expectation(tables_mid):
    from qlcm.moments import expectation_exact, variance_exact

    n, alpha, trials = 1000, 0.5, 10**4
    p = ModelParams(n=n, alpha=alpha, seed=20260814, trials=trials)
    s = monte_carlo(p, tables_mid)
    e = expectation_exact(n, alpha, tables_mid)
    sd = math.sqrt(variance_exact(n, alpha, tables_mid))
    assert abs(s.mean - e) < 4 * sd / math.sqrt(trials), f"mc mean {s.mean} vs exact {e}"


def test_indicator_first_and_second_moments(tables_small):
    # E[I_d] = 1 - beta^floor(n/d); for a pair, the joint moment picks up
    # beta^(j1 + j2 - j3) through the shared multiples of lcm(d1, d2)
    n, alpha, trials = 60, 0.3, 6000
    beta = 1 - alpha
    p = ModelParams(n=n, alpha=alpha, seed=31, trials=trials)
    singles = {d: 0 for d in (2, 3, 5, 7)}
    pair_list = [(2, 3), (4, 6), (3, 5)]
    pairs = {pr: 0 for pr in pair_list}
    for t in range(trials):
        bits = sample_set(p, t)
        for d in singles:
            singles[d] += covered(bits, d)
        for d1, d2 in pair_list:
            pairs[(d1, d2)] += covered(bits, d1) * covered(bits, d2)
    for d, count in singles.items():
        expect = 1 - beta ** (n // d)
        se = math.sqrt(expect * (1 - expect) / trials) + 1e-12
        assert abs(count / trials - expect) < 4 * se, f"d={d}"
    for (d1, d2), count in pairs.items():
        j1, j2 = n // d1, n // d2
        j3 = n // math.lcm(d1, d2)
        expect = 1 - beta**j1 - beta**j2 + beta ** (j1 + j2 - j3)
        se = math.sqrt(expect * (1 - expect) / trials) + 1e-12
        assert abs(count / trials - expect) < 4 * se, f"pair ({d1},{d2})"


def test_enumerate_exact_two_elements(tables_small):
    dist = enumerate_exact(2, Fraction(1, 2), tables_small)
    assert dist.pmf == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert dist.mean == Fraction(1, 2)
    assert dist.variance == Fraction(1, 4)


def test_enumerate_exact_point_masses(tables_small):
    assert enumerate_exact(1, Fraction(1, 3), tables_small).pmf == {0: Fraction(1)}
    top = int(tables_small.phi[2:10].sum())
    assert enumerate_exact(9, 1, tables_small).pmf == {top: Fraction(1)}
    assert enumerate_exact(9, 0, tables_small).pmf == {0: Fraction(1)}


def test_enumerate_exact_against_direct_subsets(tables_small):
    # independent reference: weigh every subset of {1..10} explicitly
    n, alpha = 10, Fraction(1, 3)
    beta = 1 - alpha
    ref: dict[int, Fraction] = {}
    for r in range(n + 1):
        for members in itertools.combinations(range(1, n + 1), r):
            x = degree_statistic(bits_of(members, n), n, tables_small)
            w = alpha**r * beta ** (n - r)
            ref[x] = ref.get(x, Fraction(0)) + w
    dist = enumerate_exact(n, alpha, tables_small)
    assert dist.pmf == ref
    assert sum(dist.pmf.values()) == 1


def test_enumerate_exact_walk_is_shared_across_alphas(tables_small):
    # a second alpha at the same n reuses the walk and gets the pmf of a
    # fresh, uncached walk
    n, alphas = 11, (Fraction(1, 3), Fraction(3, 4))
    model._subset_counts.cache_clear()
    warm = [enumerate_exact(n, a, tables_small) for a in alphas]
    info = model._subset_counts.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for a, dist in zip(alphas, warm):
        model._subset_counts.cache_clear()
        assert enumerate_exact(n, a, tables_small) == dist


def test_enumerate_exact_result_does_not_alias_the_cache(tables_small):
    n, alpha = 9, Fraction(2, 5)
    first = enumerate_exact(n, alpha, tables_small)
    want = dict(first.pmf)
    first.pmf.clear()
    first.pmf[-1] = Fraction(1)
    assert enumerate_exact(n, alpha, tables_small).pmf == want


def test_enumerate_exact_matches_fraction_oracle(tables_small):
    # integer numerators over q^n against the same walk weighed in Fractions:
    # the pmf (order included), mean and variance are the same Fractions
    for n in range(1, 15):
        for alpha in (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
                      Fraction(7, 10), 1):
            dist = enumerate_exact(n, alpha, tables_small)
            ref = enumerate_exact_fraction(n, alpha, tables_small)
            assert list(dist.pmf.items()) == list(ref.pmf.items()), (n, alpha)
            assert (dist.mean, dist.variance) == (ref.mean, ref.variance), (n, alpha)
            assert all(type(x) is Fraction for x in (*dist.pmf.values(), dist.mean, dist.variance))


def test_subset_counts_match_recursive_walk(tables_small):
    # the doubling arrays against the recursion over the subset lattice:
    # the same (x, size, count) triples, sorted
    for n in range(1, 17):
        phi = tuple(int(x) for x in tables_small.phi[: n + 1])
        counts = model._subset_counts.__wrapped__(n, phi)
        assert list(counts) == sorted(subset_counts_walk(n, phi)), n
        assert all(type(v) is int for row in counts for v in row)


def test_subset_counts_memory_at_the_enumeration_limit(tables_small):
    # 2^22 sets: the arrays hold at most 2^21 of them at 8 bytes each
    n = model.ENUMERATION_LIMIT
    phi = tuple(int(x) for x in tables_small.phi[: n + 1])
    tracemalloc.start()
    try:
        counts = model._subset_counts.__wrapped__(n, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c for _, _, c in counts) == 2**n
    assert peak < 64 << 20, peak


def test_enumerate_exact_validation(tables_small):
    with pytest.raises(TypeError):
        enumerate_exact(5, 0.5, tables_small)
    with pytest.raises(ResourceLimitError):
        enumerate_exact(23, Fraction(1, 2), tables_small)
    with pytest.raises(ValueError):
        enumerate_exact(0, Fraction(1, 2), tables_small)
    with pytest.raises(ValueError):
        enumerate_exact(5, Fraction(3, 2), tables_small)
    with pytest.raises(ValueError):
        enumerate_exact(5, 2, tables_small)
