"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Criterion 7 checks concentration against the Chebyshev bound
V/(eps E)^2 that the exact moments give, and checks that the simulation
reproduces those moments; the paper states no finite-n deviation mass.  At
(n, alpha) = (1e4, 0.1) the 0.05 E band is only 1.48 standard deviations
wide and the measured deviation mass is 0.1475, so no fixed threshold such
as 0.05 holds there.  Its assertion message reports the figures per point.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from calibration import EXPECTATION_ENVELOPE_K
from qlcm.arith import phi_pair_summatory
from qlcm.model import ModelParams, degree_statistic, enumerate_exact, monte_carlo, sample_set
from qlcm.moments import (
    PI2_OVER_6,
    alpha_factor,
    c1_constant,
    dilog,
    expectation_asymptotic,
    expectation_exact,
    expectation_grouped,
    v_alpha,
    variance_exact,
    variance_upper_envelope,
)
from qlcm.qpoly import lcm_degree_oracle

SEED = 20260814


def test_criterion_01_oracle_equivalence(tables_small):
    # 500 seeded random subsets of {1..40}: both polynomial oracles and the
    # covered-divisor statistic agree exactly; under one minute
    t0 = time.perf_counter()
    params = ModelParams(n=40, alpha=0.5, seed=SEED, trials=500)
    for t in range(params.trials):
        bits = sample_set(params, t)
        members = [int(k) for k in np.nonzero(bits)[0]]
        x = degree_statistic(bits, params.n, tables_small)
        assert x == lcm_degree_oracle(members, method="cyclotomic"), members
        assert x == lcm_degree_oracle(members, method="gcd"), members
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_moments_match_enumeration(tables_small):
    # all n <= 12 and four rational alphas: exact rational moments equal the
    # full 2^n enumeration; float mode within 1e-12 relative; under 2 minutes
    t0 = time.perf_counter()
    for n in range(1, 13):
        for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
            dist = enumerate_exact(n, alpha, tables_small)
            assert expectation_exact(n, alpha, tables_small, exact=True) == dist.mean
            assert variance_exact(n, alpha, tables_small, exact=True) == dist.variance
            e_float = expectation_exact(n, float(alpha), tables_small)
            v_float = variance_exact(n, float(alpha), tables_small)
            assert abs(e_float - float(dist.mean)) <= 1e-12 * max(1.0, float(dist.mean))
            assert abs(v_float - float(dist.variance)) <= 1e-12 * max(1.0, float(dist.variance))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_03_grouped_expectation_identity(tables_big):
    # divisor-sum and totient-summatory forms of E[X] agree to 1e-12 relative
    for n in (10, 100, 1000, 10000):
        for alpha in (0.05, 0.5, 0.95):
            a = expectation_exact(n, alpha, tables_big)
            b = expectation_grouped(n, alpha, tables_big)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), f"n={n} alpha={alpha}: {a} vs {b}"


def test_criterion_04_asymptotic_envelope(tables_big):
    # |E - (3/pi^2) alpha_factor n^2| <= K alpha n (log n)^2 with frozen K,
    # and the relative gap at (n, alpha) = (1e5, 1) is below 1e-3
    worst = 0.0
    for n in (100, 1000, 10000, 100000):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            e = expectation_exact(n, alpha, tables_big)
            asym = expectation_asymptotic(n, alpha)
            cap = EXPECTATION_ENVELOPE_K * alpha * n * math.log(n) ** 2
            worst = max(worst, abs(e - asym) / cap)
            assert abs(e - asym) <= cap, f"n={n} alpha={alpha}: gap {abs(e - asym):.3f} > {cap:.3f}"
    e = expectation_exact(100000, 1.0, tables_big)
    rel = abs(e - expectation_asymptotic(100000, 1.0)) / e
    assert rel < 1e-3, f"relative gap at n=1e5, alpha=1: {rel:.2e}"


def test_criterion_05_variance_scale_matches_v_alpha(tables_mid):
    # V[X_n] / n^3 at n = 16000 is within 5% of the limit constant v(1/2);
    # under ten minutes
    t0 = time.perf_counter()
    est = v_alpha(0.5)
    n = 16000
    ratio = variance_exact(n, 0.5, tables_mid) / n**3
    rel = abs(ratio - est.value) / est.value
    elapsed = time.perf_counter() - t0
    assert rel < 0.05, f"V/n^3 = {ratio:.8f} vs v(1/2) = {est.value:.8f} (rel {rel:.2e})"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_06_variance_envelope(tables_mid):
    # V[X] <= alpha n^3 across the grid; the assert reports the measured
    # worst constant so envelope violations would be quantified
    worst, at = 0.0, None
    for n in (10, 100, 1000, 2000):
        for tenth in range(1, 10):
            alpha = tenth / 10
            v = variance_exact(n, alpha, tables_mid)
            cap = variance_upper_envelope(n, alpha)
            if v / cap > worst:
                worst, at = v / cap, (n, alpha)
    assert worst <= 1.0, f"envelope exceeded: measured max V/(alpha n^3) = {worst:.4f} at {at}"


def test_criterion_07_concentration(tables_big):
    # At (n, alpha) = (1e4, 0.1) and (1e3, 0.9), 2000 trials each, eps = 0.05:
    # (a) the deviation mass P(|X - E| > eps E) is at most the Chebyshev
    #     bound V/(eps E)^2 built from the exact moments;
    # (b) the Monte Carlo mean is within 4 standard errors sqrt(V/trials)
    #     of E;
    # (c) the Monte Carlo variance is within 4 sqrt(2/(trials - 1)) of V,
    #     relative.
    # (b) and (c) make a wrong mean, variance or sampler fail even where the
    # bound is loose.  At (1e4, 0.1) the band is only 1.48 sigma wide and the
    # measured mass is 0.1475, near the Gaussian erfc(eps E/(sigma sqrt 2))
    # = 0.139; the Gaussian mass is reported, not asserted, since the paper
    # does not promise normality.
    eps, trials = 0.05, 2000
    measured = {}
    for n, alpha in ((10**4, 0.1), (10**3, 0.9)):
        params = ModelParams(n=n, alpha=alpha, seed=SEED, trials=trials)
        mc = monte_carlo(params, tables_big)
        e = expectation_exact(n, alpha, tables_big)
        v = variance_exact(n, alpha, tables_big)
        frac = float(np.mean(np.abs(mc.degrees - e) > eps * e))
        band_sigmas = eps * e / math.sqrt(v)
        measured[(n, alpha)] = (
            frac,
            band_sigmas,
            v / (eps * e) ** 2,
            (mc.mean - e) / math.sqrt(v / trials),
            mc.variance / v,
            math.erfc(band_sigmas / math.sqrt(2)),
        )
    detail = "; ".join(
        f"(n={n}, alpha={a}): frac {f:.4f}, band {s:.2f} sigma, chebyshev {c:.4f}, "
        f"z_mean {z:+.2f}, var_ratio {r:.4f}, gaussian {g:.4f}"
        for (n, a), (f, s, c, z, r, g) in measured.items()
    )
    var_tol = 4 * math.sqrt(2 / (trials - 1))
    assert all(f <= c for f, _, c, _, _, _ in measured.values()), detail
    assert all(abs(z) <= 4 for _, _, _, z, _, _ in measured.values()), detail
    assert all(abs(r - 1) <= var_tol for _, _, _, _, r, _ in measured.values()), detail


def test_criterion_08_c1_constants():
    # C1(1,1) from the sieve-and-recursion evaluator matches the brute cubic
    # growth of sum phi(m)^2 to three significant digits, and C1 <= a1 a2 / 3
    # on twenty coprime pairs
    x = 10**6
    brute_ratio = phi_pair_summatory(1, 1, x) / x**3
    est = c1_constant(1, 1)
    rel = abs(est.value - brute_ratio) / brute_ratio
    assert rel < 5e-4, f"C1(1,1) {est.value:.8f} vs brute {brute_ratio:.8f}"
    assert f"{est.value:.3g}" == f"{brute_ratio:.3g}", (est.value, brute_ratio)
    pairs = [(a1, a2) for a1 in range(1, 7) for a2 in range(1, 7) if math.gcd(a1, a2) == 1]
    assert len(pairs) >= 20
    for a1, a2 in pairs:
        v = c1_constant(a1, a2).value
        assert 0.0 < v <= a1 * a2 / 3 * (1 + 1e-9), f"C1({a1},{a2}) = {v}"


def test_criterion_09_worker_count_invisible_in_output():
    # identical bytes from the CLI of the checkout's src for 1 and 8 workers
    argv = [
        sys.executable,
        "-m",
        "qlcm.cli",
        "simulate",
        "--n",
        "1000",
        "--alpha",
        "0.3",
        "--trials",
        "500",
        "--seed",
        str(SEED),
        "--no-timings",
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    one = subprocess.run(argv + ["--workers", "1"], capture_output=True, timeout=120, env=env)
    eight = subprocess.run(argv + ["--workers", "8"], capture_output=True, timeout=120, env=env)
    assert one.returncode == 0 and eight.returncode == 0, (one.stderr, eight.stderr)
    assert one.stdout == eight.stdout
    assert one.stdout.strip()


def test_criterion_10_special_functions():
    assert dilog(1.0) == PI2_OVER_6
    for z in (0.3, 0.7):
        gap = abs(dilog(z) + dilog(1 - z) - (PI2_OVER_6 - math.log(z) * math.log(1 - z)))
        assert gap <= 1e-12, f"reflection gap {gap:.2e} at z={z}"
    assert abs(alpha_factor(1.0) - alpha_factor(1.0 - 1e-8)) < 1e-6
    assert alpha_factor(0.0) == 0.0
