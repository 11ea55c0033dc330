"""Degree statistics of lcms of q-analogs over random integer sets.

Submodules: ``arith`` (the prime sieve and totient tables), ``qpoly`` (exact
polynomial oracles), ``model`` (random-set sampling and exact enumeration),
``moments`` (closed-form and asymptotic moments, C1, v(alpha)), ``cli``
(experiment harness).
"""

from .arith import ArithTables, build_tables, phi_pair_summatory
from .errors import ResourceLimitError
from .model import (
    ExactDistribution,
    ModelParams,
    MonteCarloSummary,
    degree_statistic,
    enumerate_exact,
    monte_carlo,
    sample_set,
)
from .moments import (
    C1Estimate,
    TruncationConfig,
    VAlphaEstimate,
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
from .qpoly import IntPoly, cyclotomic, lcm_degree_oracle, poly_divexact, poly_gcd, poly_mul, q_analog

__all__ = [
    "ArithTables",
    "C1Estimate",
    "ExactDistribution",
    "IntPoly",
    "ModelParams",
    "MonteCarloSummary",
    "ResourceLimitError",
    "TruncationConfig",
    "VAlphaEstimate",
    "alpha_factor",
    "build_tables",
    "c1_constant",
    "cyclotomic",
    "degree_statistic",
    "dilog",
    "enumerate_exact",
    "expectation_asymptotic",
    "expectation_exact",
    "expectation_grouped",
    "lcm_degree_oracle",
    "monte_carlo",
    "phi_pair_summatory",
    "poly_divexact",
    "poly_gcd",
    "poly_mul",
    "q_analog",
    "sample_set",
    "v_alpha",
    "variance_exact",
    "variance_upper_envelope",
]

__version__ = "0.1.0"
