"""Frozen calibration constants for the asymptotic envelope tests.

The O(.) bounds behind these envelopes hide constants, so each K below was
measured once against the reference tables and frozen with a safety margin;
the tests assert them as regressions.  Remeasuring is a deliberate act:
update the constant and the measurement note together.
"""

# max |Phi(x) - (3/pi^2) x^2| / (x log x) over integer x in [2, 10^6];
# measured 0.5657 (attained at x = 2)
PHI_SUMMATORY_K = 0.75

# max |expectation_exact - expectation_asymptotic| / (alpha n (log n)^2)
# over n in {10^2, 10^3, 10^4, 10^5} x alpha in {0.1, 0.5, 0.9, 1.0};
# measured 0.01237
EXPECTATION_ENVELOPE_K = 0.02

# max |C1(1,1) x^3 - sum_{m<=x} phi(m)^2| / (x^2 (log x)^2) over integer
# x in [10^2, 10^5], C1 reference from cutoff 10^6; measured 0.0324
C1_PAIR_ENVELOPE_K = 0.05

# worst |C1(T) - C1(10^7)| over the reported tail-error estimate, measured
# 0.103 across coprime pairs up to 7x30 and T in {10^3, 10^4, 10^5} with the
# shipped tail coefficient; the estimate must stay an upper bound (ratio < 1)
C1_TAIL_RATIO_MAX = 1.0

# tracemalloc peak of v_alpha(0.1) from empty C1 caches, in MiB: measured
# 10.02 with the recursive C1 inner sum and 10.02 with the batched sweep
# (C1_SWEEP_CELLS = 2^18); the bound is the former plus 10%
V_ALPHA_0_1_PEAK_MIB = 11.0

# tracemalloc peak of expectation_grouped(10^6, 10^-4), in MiB: measured
# 18.13 with the terms summed a chunk at a time (61.40 with one n-long
# list); 16 of it are the Phi prefix and the beta powers.  The bound is the
# measurement plus 10%
EXPECT_GROUPED_PEAK_MIB = 20.0
