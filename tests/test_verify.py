import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import rankdata

import tlonemax as tl
from tlonemax.verify import LemmaReport, _binomial_pmf_exact, _min_ranks


class TestMutationFacts:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_passes_with_exact_margins(self, n):
        r = tl.check_mutation_facts(n)
        assert r.passed
        assert r.details["worst_margin_gain1"] > 0
        assert r.details["worst_margin_zero_flip"] == 0.0
        assert r.details["worst_margin_zero_flip_strict_part"] > 0

    def test_tight_instances_are_exactly_the_forced_ones(self):
        # one-bit mutation flips a uniform zero (equality for every a);
        # bit-wise mutation is tight only when every zero must flip (a=1) or
        # every position is a zero (a=n)
        n = 10
        r = tl.check_mutation_facts(n)
        expected = {("rls", a) for a in range(1, n + 1)} | {("ea", 1), ("ea", n)}
        assert set(r.details["tight_b_instances"]) == expected

    def test_rls_gain_conditional_is_one(self):
        # one-bit mutation can only change the ones-count by 1, so fact (a)
        # holds with margin exactly e*a/n
        n = 12
        r = tl.check_mutation_facts(n)
        assert abs(r.details["worst_margin_gain1"] - math.e * 1 / n) <= 1e-12

    def test_ea_exact_values_independent_recomputation(self):
        # recompute the n=10, a=3 conditionals with a direct double loop
        n, a = 10, 3
        p = Fraction(1, 10)
        up = _binomial_pmf_exact(a, p)
        down = _binomial_pmf_exact(n - a, p)
        gain = Fraction(0)
        gain1 = Fraction(0)
        flip_mass = Fraction(0)
        for i in range(n - a + 1):
            for j in range(a + 1):
                if j - i >= 1:
                    gain += down[i] * up[j]
                if j - i == 1:
                    gain1 += down[i] * up[j]
                    flip_mass += down[i] * up[j] * Fraction(j, a)
        assert gain1 / gain > 1 - Fraction(math.e * a / n).limit_denominator(10**9)
        assert flip_mass / gain1 >= Fraction(1, a)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            tl.check_mutation_facts(17)
        with pytest.raises(ValueError):
            tl.check_mutation_facts(1)


class TestSelectionEquivalence:
    def test_exhaustive_small_n(self):
        r = tl.check_selection_equivalence(4, [-5, -9, -100])
        assert r.passed and r.worst_margin >= 1
        assert r.grid["exhaustive_triples"] == 2**12
        assert r.details["no_01_pattern_acceptance"]

    def test_sampled_large_n(self):
        r = tl.check_selection_equivalence(20, [-21, -40, -200], samples=10**5, seed=2)
        assert r.passed and r.worst_margin >= 1
        assert r.details["no_01_pattern_acceptance"]

    def test_guard_rejects_weights_at_or_above_minus_n(self):
        with pytest.raises(ValueError):
            tl.check_selection_equivalence(4, [-3])
        with pytest.raises(ValueError):
            tl.check_selection_equivalence(4, [-4])

    def test_guard_rejects_no_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            tl.check_selection_equivalence(8, [-9], samples=0)


class TestRankEquivalence:
    def test_passes_strictly_below_minus_n(self):
        r = tl.check_rank_equivalence(6, 5, 10**4, [-7, -12, -60], seed=0)
        assert r.passed and r.worst_margin >= 1

    def test_boundary_weight_minus_n_breaks_rank_identity(self):
        # at exactly w=-n a (stored 0, all-zeros) member ties a (stored 1,
        # all-ones) member at fitness 0; any weight below -n splits the tie,
        # so including -n in the weight set produces rank mismatches
        r = tl.check_rank_equivalence(6, 5, 10**5, [-6, -12], seed=0)
        assert not r.passed
        assert r.counterexample is not None
        fits = r.counterexample["fitness"]
        assert min(fits) < 0  # the split member dropped strictly below the tie

    def test_single_member_is_trivial(self):
        r = tl.check_rank_equivalence(6, 1, 50, [-6, -7], seed=1)
        assert r.passed

    def test_guard_rejects_weights_above_minus_n(self):
        with pytest.raises(ValueError):
            tl.check_rank_equivalence(6, 5, 10, [-5])

    def test_tied_fitness_shares_rank(self):
        # tiny n forces massive tying; identity still holds below -n
        r = tl.check_rank_equivalence(2, 4, 500, [-3, -4, -8], seed=3)
        assert r.passed

    @pytest.mark.parametrize("M", [1, 5, 9])
    def test_min_ranks_match_scipy(self, M):
        # scipy's rankdata is the independent oracle; few values force many ties
        fits = np.random.default_rng(M).integers(-3, 3, size=(400, M))
        assert np.array_equal(_min_ranks(fits), rankdata(fits, axis=1, method="min"))


@pytest.mark.parametrize("call, error, message", [
    # the weight used to be truncated to -5, and the check passed
    (lambda: tl.check_selection_equivalence(4, [-5.7]), TypeError,
     "extra weight must be an integer, got -5.7"),
    # -4.9 used to be truncated to -4
    (lambda: tl.check_rank_equivalence(4, 5, 100, weights=[-4.9, -6]), TypeError,
     "weight must be an integer, got -4.9"),
    (lambda: tl.check_selection_equivalence(8, [-9], samples=2.5), TypeError,
     "samples must be an integer, got 2.5"),
    (lambda: tl.check_rank_equivalence(4, 2.5, 100, weights=[-5, -6]), TypeError,
     "M must be an integer, got 2.5"),
    (lambda: tl.check_mutation_facts(3.0), TypeError, "n must be an integer, got 3.0"),
    # these used to fail inside numpy ("negative shift count", an IndexError)
    (lambda: tl.check_selection_equivalence(-3, [-5]), ValueError, "n must be >= 2, got -3"),
    (lambda: tl.check_rank_equivalence(0, 3, 10, [-1, -2]), ValueError,
     "n must be >= 2, got 0"),
], ids=["selection-weight", "rank-weight", "samples", "M", "facts-n", "selection-n",
        "rank-n"])
def test_bad_arguments_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_report_invariant_fail_needs_counterexample():
    with pytest.raises(ValueError):
        LemmaReport(lemma="x", grid={}, passed=False, worst_margin=0.0)


@pytest.mark.parametrize("n", range(4, 11))
def test_default_grid_all_pass(n):
    assert tl.check_mutation_facts(n).passed
    assert tl.check_selection_equivalence(n, [-n - 1, -2 * n], samples=10**5).passed
    assert tl.check_rank_equivalence(n, 5, 5000, [-n - 1, -2 * n], seed=n).passed
