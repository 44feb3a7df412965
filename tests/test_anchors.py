"""Large-n anchors of the exact lumped chain, from outside the chain.

The brute-force chain stops at n = 12 and the Fraction oracle at n of about
10, so these closed forms are what checks the solver at large n.  Each
tolerance sits about ten times above the error measured at n = 500 and
2000 (the largest shown beside it), or at a few ulps where none was
measured.  The start law is normalised, so what is left is rounding in the
row build and the level solve.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import tlonemax as tl
from tlonemax.markov import binomial_pmf

SIZES = (500, 2000)


@pytest.mark.parametrize("n", SIZES)
def test_rls_failure_above_weight_two(n):
    # 1/4 + 1/(2n) at every w >= 2; measured relative error 0
    closed = 0.25 + 0.5 / n
    for w in (2, 3, n):
        p = tl.absorption_probabilities(tl.RLS, w, n).p_failure
        assert abs(p / closed - 1) <= 1e-14, (n, w)


@pytest.mark.parametrize("n", SIZES)
def test_ea_failure_at_weight_two(n):
    # 1/n + (n-2)/(n 2^(n+1)), exact at n = 4..8 by the Fraction oracle in
    # test_markov; measured relative error 2.0e-14
    closed = float(Fraction(1, n) + Fraction(n - 2, n * 2 ** (n + 1)))
    p = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, 2, n).p_failure
    assert abs(p / closed - 1) <= 2e-13


@pytest.mark.parametrize("n", SIZES)
def test_rls_hitting_time_at_weight_zero(n):
    # plain OneMax: n H_z generations from z zeros, Z ~ Bin(n, 1/2) at the
    # start; measured relative error 1.2e-15
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])
    pmf = binomial_pmf(n, 0.5)
    closed = n * (pmf @ harmonic) / pmf.sum()
    hit = tl.conditional_hitting_time(tl.RLS, 0, n)
    assert abs(hit.overall / closed - 1) <= 1e-14


@pytest.mark.parametrize("n", SIZES)
def test_optimum_almost_surely_at_weights_zero_and_one(n):
    # measured |p_optimum - 1| 6.7e-16; no event class can absorb
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for w in (0, 1):
            res = tl.absorption_probabilities(kind, w, n)
            assert abs(res.p_optimum - 1) <= 1e-14, (kind.name, n, w)
            assert res.p_failure == 0, (kind.name, n, w)


def test_rls_failure_at_ten_thousand_bits():
    # sparse rows only: a dense lumped matrix would take 12.8 GB here;
    # measured error 5.6e-17
    n = 10**4
    p = tl.absorption_probabilities(tl.RLS, 2, n).p_failure
    assert math.isclose(p, 0.25 + 0.5 / n, rel_tol=0, abs_tol=1e-15)
