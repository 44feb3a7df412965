import math
from fractions import Fraction

import numpy as np
import pytest

import tlonemax as tl
from tlonemax.markov import (LumpedState, _solve_levels, binomial_pmf,
                             lumped_index, state_from_index)


class TestTransitionRow:
    def test_rows_stochastic(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for w in (-8, -1, 0, 1, 3):
                for n in (2, 5, 9):
                    P = tl.build_transition_matrix(kind, w, n)
                    assert np.abs(P.sum(axis=1) - 1).max() <= 1e-12
                    assert P.min() >= 0

    def test_rls_support_bounded(self):
        n = 9
        for w in (-9, -1, 0, 2):
            for idx in range(4 * n):
                row = tl.transition_row(tl.RLS, w, n, state_from_index(idx, n))
                assert np.count_nonzero(row) <= n + 1

    def test_ea_no_flip_mass_in_self_loop(self):
        # when the stored bit equals the current first bit, the no-flip
        # offspring is re-accepted in place
        n = 8
        floor = (1 - 1 / n) ** n
        for w in (-8, -1, 0, 2):
            for c in (0, 1):
                for k in (0, 3, n - 1):
                    s = LumpedState(c, c, k)
                    row = tl.transition_row(tl.ONE_PLUS_ONE_EA, w, n, s)
                    assert row[lumped_index(c, c, k, n)] >= floor - 1e-12

    def test_row_against_mutation_sampling(self):
        # empirical row from 1e6 mutate+accept draws, 4 sigma agreement
        n, w = 4, -4
        rng = np.random.default_rng(12)
        samples = 10**6
        for prev, cur in ((0, "1110"), (1, "0110")):
            s = tl.TLState(prev, tl.as_bits(cur))
            lumped = LumpedState(prev, int(s.current[0]), int(s.current[1:].sum()))
            row = tl.transition_row(tl.ONE_PLUS_ONE_EA, w, n, lumped)
            x = np.broadcast_to(s.current, (samples, n))
            flips = rng.random((samples, n)) < 1 / n
            offspring = (x ^ flips).astype(np.int64)
            stored = int(s.current[0])
            fit = offspring.sum(axis=1) + w * stored
            accepted = fit >= s.fitness(w)
            new_prev = np.where(accepted, stored, prev)
            new_first = np.where(accepted, offspring[:, 0], int(s.current[0]))
            new_k = np.where(accepted, offspring[:, 1:].sum(axis=1), int(s.current[1:].sum()))
            idx = (new_prev * 2 + new_first) * n + new_k
            counts = np.bincount(idx, minlength=4 * n)
            for i in range(4 * n):
                p = row[i]
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / samples)
                assert abs(counts[i] / samples - p) <= 4 * sigma + 1e-9, (prev, cur, i)

    def test_event1_state_is_pure_self_loop(self):
        # n=4, w=-4, (0,1,k=2): no offspring is ever accepted
        row = tl.transition_row(tl.ONE_PLUS_ONE_EA, -4, 4, LumpedState(0, 1, 2))
        expected = np.zeros(16)
        expected[lumped_index(0, 1, 2, 4)] = 1.0
        assert np.allclose(row, expected, atol=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            tl.transition_row(tl.mu_plus_one_ea(2), 0, 4, LumpedState(0, 0, 0))
        with pytest.raises(ValueError):
            tl.transition_row(tl.RLS, 0, 4, LumpedState(0, 0, 4))


def test_binomial_pmf_exact_small():
    pmf = binomial_pmf(5, 0.25)
    ref = [math.comb(5, k) * 0.25**k * 0.75 ** (5 - k) for k in range(6)]
    assert np.abs(pmf - ref).max() < 1e-14
    assert binomial_pmf(0, 0.3).tolist() == [1.0]
    # no overflow at large counts
    big = binomial_pmf(5000, 1 / 5000)
    assert np.isfinite(big).all() and abs(big.sum() - 1) < 1e-9


def test_initial_distribution_matches_uniform_law():
    n = 9
    pi = tl.initial_distribution(n)
    assert abs(pi.sum() - 1) < 1e-12
    for pc in range(4):
        block = pi[pc * n:(pc + 1) * n]
        assert abs(block.sum() - 0.25) < 1e-12
    ref = np.array([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
    assert np.abs(pi[:n] / 0.25 - ref).max() < 1e-12


class TestAbsorption:
    def test_matches_brute_force(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for w in (-6, -1, 0, 2):
                lump = tl.absorption_probabilities(kind, w, 6)
                bf = tl.brute_force_absorption(kind, w, 6)
                for c in tl.CLASS_NAMES:
                    assert abs(lump.overall[c] - bf.overall[c]) <= 1e-10
                assert np.abs(lump.per_state - bf.per_state).max() <= 1e-10
                assert bf.lumping_spread <= 1e-10

    def test_equal_results_below_minus_n(self):
        n = 8
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            base = tl.brute_force_absorption(kind, -n, n)
            other = tl.brute_force_absorption(kind, -2 * n, n)
            for c in tl.CLASS_NAMES:
                assert abs(base.overall[c] - other.overall[c]) <= 1e-12

    def test_probability_one_for_w0_w1(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for w in (0, 1):
                res = tl.absorption_probabilities(kind, w, 30)
                assert abs(res.p_optimum - 1) <= 1e-10

    def test_rls_closed_form_failure(self):
        for n in (10, 12):
            for w in (2, 7, n):
                res = tl.absorption_probabilities(tl.RLS, w, n)
                assert abs(res.p_failure - (0.25 + 0.5 / n)) <= 1e-10
        # the brute-force oracle confirms the closed form at n <= 12
        bf = tl.brute_force_absorption(tl.RLS, 3, 10)
        assert abs(bf.p_failure - (0.25 + 0.05)) <= 1e-10

    def test_per_state_rows_sum_to_one(self):
        res = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -5, 12)
        assert np.abs(res.per_state.sum(axis=1) - 1).max() <= 1e-10
        assert res.per_state.min() >= 0 and res.per_state.max() <= 1

    def test_brute_force_size_guard(self):
        with pytest.raises(ValueError):
            tl.brute_force_absorption(tl.RLS, 0, 13)

    def test_event_masses_match_event_structure(self):
        # positive weights never produce event1/event2 mass and vice versa
        pos = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, 3, 10)
        assert pos.overall["event1"] == 0 and pos.overall["event2"] == 0
        neg = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -3, 10)
        assert neg.overall["event3"] == 0
        assert neg.overall["event1"] > 0 and neg.overall["event2"] > 0


def _rational_lumped_rows(kind, w, n):
    """Lumped transition rows in exact rational arithmetic, straight from the
    operators: one uniform bit flip (rls), or every bit flipped with
    probability 1/n (ea); rejected offspring stay put."""
    q = Fraction(1, n)
    m = 4 * n
    rows = []
    for idx in range(m):
        pc, k = divmod(idx, n)
        p, c = divmod(pc, 2)
        if kind.name == "rls":
            moves = [(1 - c, k, q), (c, k - 1, k * q), (c, k + 1, (n - 1 - k) * q)]
        else:
            moves = [(c ^ f, k - d + u,
                      (q if f else 1 - q)
                      * math.comb(k, d) * q**d * (1 - q) ** (k - d)
                      * math.comb(n - 1 - k, u) * q**u * (1 - q) ** (n - 1 - k - u))
                     for f in (0, 1) for d in range(k + 1) for u in range(n - k)]
        row = [Fraction(0)] * m
        for cp, kp, prob in moves:
            if prob == 0:
                continue
            if cp + kp + w * c >= c + k + w * p:
                row[(c * 2 + cp) * n + kp] += prob
            else:
                row[idx] += prob
        assert sum(row) == 1
        rows.append(row)
    return rows


def _rational_absorption(kind, w, n):
    """Solve (I - Q) X = R over the transient states by Gauss-Jordan on
    Fractions; returns {transient state: [probability per class]}."""
    rows = _rational_lumped_rows(kind, w, n)
    cls = tl.markov.state_classes(kind, w, n)
    tr = [i for i in range(4 * n) if cls[i] < 0]
    aug = [[int(i == j) - rows[i][j] for j in tr]
           + [sum(rows[i][a] for a in range(4 * n) if cls[a] == c)
              for c in range(len(tl.CLASS_NAMES))]
           for i in tr]
    t = len(tr)
    for col in range(t):
        piv = next(r for r in range(col, t) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(t):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return {i: row[t:] for i, row in zip(tr, aug)}


class TestLevelSolver:
    def test_matches_rational_oracle(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for n in (4, 6):
                for w in (-n, -1, 0, 2):
                    per = tl.absorption_probabilities(kind, w, n).per_state
                    exact = _rational_absorption(kind, w, n)
                    assert exact, (kind.name, n, w)
                    for i, probs in exact.items():
                        for c, prob in enumerate(probs):
                            assert abs(per[i, c] - float(prob)) <= 1e-12, (kind.name, n, w, i)

    def test_refuses_fitness_lowering_mass(self):
        # state 0 is transient; state 1 is known at x = 1, state 2 at x = 0
        P = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        x = np.array([[0.0], [1.0], [0.0]])
        _solve_levels(P, np.array([1, 2, 1]), np.array([0]), x, "hand-built")
        assert abs(x[0, 0] - 0.5) <= 1e-15
        # the same chain with state 2 one fitness level below state 0
        with pytest.raises(RuntimeError, match="lower fitness"):
            _solve_levels(P, np.array([1, 2, 0]), np.array([0]), np.zeros((3, 1)),
                          "hand-built")


class TestHittingTimes:
    def test_one_flip_states_take_exactly_n(self):
        for n in (6, 11):
            hit = tl.conditional_hitting_time(tl.RLS, 0, n)
            for p in (0, 1):
                assert abs(hit.per_state[lumped_index(p, 1, n - 2, n)] - n) <= 1e-8
                assert abs(hit.per_state[lumped_index(p, 0, n - 1, n)] - n) <= 1e-8

    def test_theta_nlogn_shape_w0(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            ratios = []
            for n in (32, 64, 128):
                hit = tl.conditional_hitting_time(kind, 0, n)
                ratios.append(hit.overall / (n * math.log(n)))
            assert max(ratios) / min(ratios) < 2

    def test_w1_matches_w0_on_stored1_slice_rls(self):
        # the (1,1,.) slice is closed under one-bit mutation and its rows
        # coincide for w in {0,1}
        n = 14
        h0 = tl.conditional_hitting_time(tl.RLS, 0, n)
        h1 = tl.conditional_hitting_time(tl.RLS, 1, n)
        sl = [lumped_index(1, 1, k, n) for k in range(n)]
        assert np.abs(h0.per_state[sl] - h1.per_state[sl]).max() <= 1e-8

    def test_unreachable_states_are_nan(self):
        # at w=-n the (1,1,k) states can only climb into the all-ones trap
        n = 8
        hit = tl.conditional_hitting_time(tl.RLS, -n, n)
        for k in range(n - 1):
            assert math.isnan(hit.per_state[lumped_index(1, 1, k, n)])
        # optimum states take zero further generations
        assert hit.per_state[lumped_index(0, 1, n - 1, n)] == 0.0

    def test_overall_positive_and_finite(self):
        hit = tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, -6, 6)
        assert math.isfinite(hit.overall) and hit.overall > 0
