import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import tlonemax as tl
from tlonemax.cli import EXIT_USAGE, main
from tlonemax.markov import (_binomial_logpmf, _lumped_row_builder, _offspring_table,
                             _solve_levels, binomial_pmf, lumped_index)
from tlonemax.stagnation import RLS_ORACLE_MAX_N


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
            for row in tl.build_transition_matrix(tl.RLS, w, n):
                assert np.count_nonzero(row) <= n + 1

    def test_ea_no_flip_mass_in_self_loop(self):
        # when the stored bit equals the current first bit, the no-flip
        # offspring is re-accepted in place
        n = 8
        floor = (1 - 1 / n) ** n
        for w in (-8, -1, 0, 2):
            P = tl.build_transition_matrix(tl.ONE_PLUS_ONE_EA, w, n)
            for c in (0, 1):
                for k in (0, 3, n - 1):
                    i = lumped_index(c, c, k, n)
                    assert P[i, i] >= floor - 1e-12

    def test_row_against_mutation_sampling(self):
        # empirical row from 1e6 mutate+accept draws, 4 sigma agreement
        n, w = 4, -4
        rng = np.random.default_rng(12)
        samples = 10**6
        P = tl.build_transition_matrix(tl.ONE_PLUS_ONE_EA, w, n)
        for prev, cur in ((0, "1110"), (1, "0110")):
            s = tl.TLState(prev, tl.as_bits(cur))
            row = P[lumped_index(prev, int(s.current[0]), int(s.current[1:].sum()), n)]
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
        row = tl.build_transition_matrix(tl.ONE_PLUS_ONE_EA, -4, 4)[lumped_index(0, 1, 2, 4)]
        expected = np.zeros(16)
        expected[lumped_index(0, 1, 2, 4)] = 1.0
        assert np.allclose(row, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [40, 200, 1000])
    def test_ea_rows_match_full_convolution(self, n):
        # the offspring table cuts the binomials where they underflow; rows
        # rebuilt from the full-length pmfs must keep the same support
        for w in (-n, -1, 0, 2, n):
            P = tl.build_transition_matrix(tl.ONE_PLUS_ONE_EA, w, n)
            for c in (0, 1):
                for k in range(n):
                    law = _full_ea_offspring_law(c, k, n)
                    for p in (0, 1):
                        ref = _select_reference(law, w, n, p, c, k)
                        row = P[lumped_index(p, c, k, n)]
                        assert np.array_equal(row > 0, ref > 0), (n, w, p, c, k)
                        assert np.abs(row - ref).max() <= 1e-15, (n, w, p, c, k)

    @pytest.mark.parametrize("n", [7, 40])
    def test_row_builder_keeps_rows_whatever_it_is_asked_with(self, n):
        # the solver asks for its groups of states in fitness order; a row's
        # entries and their order must not depend on the rows asked with it
        rng = np.random.default_rng(n)
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for w in (-n - 1, -2, 0, 1, 2, n + 1):
                P = tl.build_transition_matrix(kind, w, n)
                builder = _lumped_row_builder(kind, w, n)
                states = rng.permutation(4 * n)[:3 * n]
                ptr, cols, vals = whole = builder.rows(states)
                dense = np.zeros((states.size, 4 * n))
                dense[np.repeat(np.arange(states.size), np.diff(ptr)), cols] = vals
                assert np.array_equal(dense, P[states]), (kind.name, w)
                assert (np.diff(ptr) <= builder.sizes[states]).all(), (kind.name, w)
                parts = [builder.rows(part) for part in np.array_split(states, 5)]
                for field in (1, 2):  # cols, vals
                    assert np.array_equal(np.concatenate([R[field] for R in parts]),
                                          whole[field]), (kind.name, w, field)
                assert np.array_equal(np.concatenate([np.diff(R[0]) for R in parts]),
                                      np.diff(ptr)), (kind.name, w)

    def test_guards(self):
        with pytest.raises(ValueError, match="single-parent kinds only, got 'mu-ea'$"):
            tl.build_transition_matrix(tl.mu_plus_one_ea(2), 0, 4)


def _full_ea_offspring_law(c, k, n):
    """Bit-wise mutation's offspring law over (first bit, tail ones) as a
    2 x n array: full-length binomial pmfs of the down- and up-flips,
    convolved."""
    tail = np.convolve(binomial_pmf(k, 1 / n)[::-1], binomial_pmf(n - 1 - k, 1 / n))
    law = np.empty((2, n))
    law[c], law[1 - c] = (1 - 1 / n) * tail, (1 / n) * tail
    return law


def _select_reference(law, w, n, p, c, k):
    """Dense row of state (p, c, k): offspring (c', k') is accepted iff
    c' + k' + w c >= c + k + w p and moves the state to (c, c', k');
    rejected mass stays; the row is divided by its sum."""
    accepted = np.arange(2)[:, None] + np.arange(n) + w * c >= c + k + w * p
    row = np.zeros(4 * n)
    row[2 * c * n:2 * (c + 1) * n] = np.where(accepted, law, 0.0).ravel()
    row[lumped_index(p, c, k, n)] += law[~accepted].sum()
    return row / row.sum()


@pytest.mark.parametrize("n", [2, 3, 5, 12, 40, 200])
def test_state_classes_match_per_state_classification(n):
    # the independent oracles classify one full state per lumped state, with
    # bits c, then k ones, then zeros: code 0 exactly at the optima, codes
    # above 0 exactly at the absorbing states that are not optima
    kinds = (tl.RLS, tl.ONE_PLUS_ONE_EA) if n <= RLS_ORACLE_MAX_N else (tl.ONE_PLUS_ONE_EA,)
    for kind in kinds:
        for w in (-n - 1, -n, -n + 1, -2, -1, 0, 1, 2, n - 1, n, n + 1, -2**31, 2**31):
            cls = tl.markov.state_classes(kind, w, n)
            for idx in range(4 * n):
                pc, k = divmod(idx, n)
                p, c = divmod(pc, 2)
                s = tl.TLState(p, np.array([c] + [1] * k + [0] * (n - 1 - k), dtype=np.uint8))
                optimal = tl.is_global_optimum(w, s)
                assert (cls[idx] == 0) == optimal, (kind.name, n, w, idx)
                absorbing = tl.is_absorbing_oracle(kind, w, s) and not optimal
                assert (cls[idx] > 0) == absorbing, (kind.name, n, w, idx)


class TestOffspringTableReuse:
    def test_built_once_per_kind_and_length(self):
        n = 50
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            _offspring_table.cache_clear()
            for w in (-n, -1, 2):
                tl.absorption_probabilities(kind, w, n)
                tl.conditional_hitting_time(kind, w, n)
                tl.build_transition_matrix(kind, w, n)
            info = _offspring_table.cache_info()
            assert (info.misses, info.hits, info.maxsize) == (1, 8, 2), (kind.name, info)

    def test_cached_arrays_are_read_only(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            _, same, flip = _offspring_table(kind, 30)
            for table in (same, flip):
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 1.0

    def test_cold_and_warm_results_identical(self):
        cases = [(tl.RLS, 3, 60), (tl.ONE_PLUS_ONE_EA, -60, 60), (tl.ONE_PLUS_ONE_EA, 2, 60)]
        warm = []
        for kind, w, n in cases:
            tl.absorption_probabilities(kind, w, n)
            warm.append(tl.conditional_hitting_time(kind, w, n))
        for (kind, w, n), hit in zip(cases, warm):
            _offspring_table.cache_clear()
            cold = tl.conditional_hitting_time(kind, w, n)
            assert np.array_equal(cold.per_state, hit.per_state, equal_nan=True)
            assert np.array_equal(cold.absorption.per_state, hit.absorption.per_state)


def test_binomial_pmf_exact_small():
    pmf = binomial_pmf(5, 0.25)
    ref = [math.comb(5, k) * 0.25**k * 0.75 ** (5 - k) for k in range(6)]
    assert np.abs(pmf - ref).max() < 1e-14
    assert binomial_pmf(0, 0.3).tolist() == [1.0]
    # no overflow at large counts
    big = binomial_pmf(5000, 1 / 5000)
    assert np.isfinite(big).all() and abs(big.sum() - 1) < 1e-9
    # a count above the trials has mass 0, without a warning (the suite turns those into errors)
    pmf = np.exp(_binomial_logpmf([3], np.arange(6), 0.5))
    assert np.abs(pmf[:4] - [0.125, 0.375, 0.375, 0.125]).max() < 1e-15
    assert pmf[4:].tolist() == [0.0, 0.0]
    assert np.exp(_binomial_logpmf(np.arange(3)[:, None], 3, 0.5)).tolist() == [[0.0]] * 3
    # scipy's pmf is the independent oracle wherever it is not lost in underflow
    m = 2**16 - 1
    for p in (1 / 2**16, 0.5):
        ref = binom.pmf(np.arange(m + 1), m, p)
        seen = ref > 1e-250
        assert (np.abs(binomial_pmf(m, p)[seen] / ref[seen] - 1) <= 5e-10).all(), p


def test_initial_distribution_matches_uniform_law():
    n = 9
    pi = tl.markov.initial_distribution(n)
    assert abs(pi.sum() - 1) < 1e-12
    for pc in range(4):
        block = pi[pc * n:(pc + 1) * n]
        assert abs(block.sum() - 0.25) < 1e-12
    ref = np.array([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
    assert np.abs(pi[:n] / 0.25 - ref).max() < 1e-12


@pytest.mark.parametrize("n", [500, 2000, 10**4])
def test_initial_distribution_has_unit_mass(n):
    # unnormalised, the log-factorial pmf misses 1 by up to 5.1e-12 here
    assert abs(tl.markov.initial_distribution(n).sum() - 1) <= 1e-15


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

    @pytest.mark.parametrize("n", [12, 50])
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_weights_saturate_past_n(self, kind, n):
        # ones-counts differ by at most n, so past |w| = n the stored-bit term
        # decides every comparison it enters: the rows, the classes and the
        # solve are bit for bit those of w = n + 1 (w = -(n + 1))
        for sign in (1, -1):
            near, far = sign * (n + 1), sign * 5 * n
            for answer in (lambda w: tl.build_transition_matrix(kind, w, n),
                           lambda w: tl.markov.state_classes(kind, w, n),
                           lambda w: tl.absorption_probabilities(kind, w, n).per_state):
                a, b = answer(near), answer(far)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (near, far)

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


def _rational_absorption(kind, w, n, rows):
    """Solve (I - Q) X = R over the transient states of the exact ``rows`` by
    Gauss-Jordan on Fractions; returns {transient state: [probability per class]}."""
    cls = tl.markov.state_classes(kind, w, n)
    return _rational_solve(rows, [i for i in range(4 * n) if cls[i] < 0],
                           lambda i: [sum(rows[i][a] for a in range(4 * n) if cls[a] == c)
                                      for c in range(len(tl.CLASS_NAMES))])


def _rational_solve(rows, tr, rhs):
    """Gauss-Jordan on Fractions of (I - Q) X = rhs over the states ``tr``;
    rhs(i) is row i's right-hand side.  Returns {state: row of X}."""
    aug = [[int(i == j) - rows[i][j] for j in tr] + rhs(i) for i in tr]
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


class TestEaWeightTwoFailure:
    # ea at w = 2 fails with probability 1/n + (n-2)/(n 2^(n+1))
    @staticmethod
    def closed_form(n):
        return Fraction(1, n) + Fraction(n - 2, n * 2 ** (n + 1))

    def test_rational_oracle_matches_closed_form(self):
        kind, w = tl.ONE_PLUS_ONE_EA, 2
        for n in range(4, 9):
            exact = _rational_absorption(kind, w, n, _rational_lumped_rows(kind, w, n))
            cls = tl.markov.state_classes(kind, w, n)
            failure = Fraction(0)
            for i in range(4 * n):
                # uniform start: stored and first bit fair, tail ones Bin(n-1, 1/2)
                start = Fraction(math.comb(n - 1, i % n), 2 ** (n + 1))
                failure += start * (sum(exact[i][1:]) if cls[i] < 0 else int(cls[i] > 0))
            assert failure == self.closed_form(n), n
            p = tl.absorption_probabilities(kind, w, n).p_failure
            assert abs(p - float(failure)) <= 1e-12 * float(failure), n

    def test_failure_is_summed_not_complemented(self):
        # 1 - p_optimum loses about 4e-10 relative accuracy here
        n = 1000
        p = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, 2, n).p_failure
        assert abs(p / float(self.closed_form(n)) - 1) <= 1e-11


class TestLevelSolver:
    def test_hitting_times_match_rational_oracle(self):
        # y = E[T 1{optimum}] in exact arithmetic; the last three points were
        # refused by the former reweighted (Doob) solve and its residual bound
        ea = tl.ONE_PLUS_ONE_EA
        cases = [(kind, w, n) for kind in (tl.RLS, ea) for n in (6, 8)
                 for w in (-n, -1, 0, 2, n)] + [(ea, 10, 10), (ea, -10, 12), (ea, -9, 12)]
        for kind, w, n in cases:
            rows = _rational_lumped_rows(kind, w, n)
            exact = _rational_absorption(kind, w, n, rows)
            # first-step analysis: (I - Q) y = h, h the exact optimum column
            y = {i: yi for i, (yi,) in _rational_solve(rows, list(exact),
                                                       lambda i: [exact[i][0]]).items()}
            hit = tl.conditional_hitting_time(kind, w, n)
            cls = hit.absorption.state_class
            start = [Fraction(math.comb(n - 1, i % n), 2 ** (n + 1)) for i in range(4 * n)]
            h = {i: exact[i][0] if cls[i] < 0 else int(cls[i] == 0) for i in range(4 * n)}
            for i in range(4 * n):
                if h[i] == 0:
                    assert math.isnan(hit.per_state[i]), (kind.name, w, n, i)
                else:
                    time = float(y.get(i, 0) / h[i])
                    assert abs(hit.per_state[i] - time) <= 1e-13 * time, (kind.name, w, n, i)
            overall = float(sum(p * y.get(i, 0) for i, p in enumerate(start))
                            / sum(p * h[i] for i, p in enumerate(start)))
            assert abs(hit.overall - overall) <= 1e-13 * overall, (kind.name, w, n)

    def test_matches_rational_oracle(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            for n in (4, 6):
                for w in (-n, -1, 0, 2):
                    rows = _rational_lumped_rows(kind, w, n)
                    P = tl.build_transition_matrix(kind, w, n)
                    for i, row in enumerate(rows):
                        assert max(abs(P[i, j] - float(v)) for j, v in enumerate(row)) <= 1e-15
                    per = tl.absorption_probabilities(kind, w, n).per_state
                    exact = _rational_absorption(kind, w, n, rows)
                    assert exact, (kind.name, n, w)
                    for i, probs in exact.items():
                        for c, prob in enumerate(probs):
                            assert abs(per[i, c] - float(prob)) <= 1e-12, (kind.name, n, w, i)

    def test_level_groups_do_not_change_results(self, monkeypatch):
        # the vectorised pass runs over groups of whole levels; any grouping
        # must give bit-identical answers
        cases = [(tl.ONE_PLUS_ONE_EA, -3, 40), (tl.RLS, 5, 40), (tl.ONE_PLUS_ONE_EA, 2, 60),
                 (tl.ONE_PLUS_ONE_EA, -20, 40)]
        default = [(tl.absorption_probabilities(k, w, n).per_state,
                    tl.conditional_hitting_time(k, w, n).per_state) for k, w, n in cases]
        monkeypatch.setattr(tl.markov, "_CHUNK", 50)
        for (kind, w, n), (per, hit) in zip(cases, default):
            assert np.array_equal(tl.absorption_probabilities(kind, w, n).per_state, per)
            assert np.array_equal(tl.conditional_hitting_time(kind, w, n).per_state, hit,
                                  equal_nan=True)

    def test_one_level_panels_agree_with_default(self, monkeypatch):
        # panels of one level each are the level-by-level solve; panels of
        # many levels may round differently, refusals included
        cases = [(tl.RLS, -1, 200), (tl.RLS, 5, 200), (tl.ONE_PLUS_ONE_EA, -3, 40),
                 (tl.ONE_PLUS_ONE_EA, -200, 200), (tl.ONE_PLUS_ONE_EA, 2, 200),
                 (tl.ONE_PLUS_ONE_EA, -20, 40), (tl.ONE_PLUS_ONE_EA, 20, 40)]
        refusals = [(tl.absorption_probabilities, tl.ONE_PLUS_ONE_EA, 200, 200)]

        def run():
            hits = [tl.conditional_hitting_time(kind, w, n) for kind, w, n in cases]
            messages = []
            for fn, kind, w, n in refusals:
                with pytest.raises(RuntimeError) as info:
                    fn(kind, w, n)
                # a backward error itself is a rounding artifact of the solve order
                messages.append(re.sub(r"error \S+ ", "error ", str(info.value)))
            return hits, messages

        default, refused = run()
        monkeypatch.setattr(tl.markov, "_PANEL", 1)
        levels, refused_by_level = run()
        assert refused_by_level == refused
        for (kind, w, n), a, b in zip(cases, default, levels):
            for x, y in ((a.absorption.per_state, b.absorption.per_state),
                         (a.per_state, b.per_state)):
                assert np.array_equal(np.isnan(x), np.isnan(y))
                x, y = x[~np.isnan(x)], y[~np.isnan(y)]
                assert (np.abs(x - y) <= 1e-13 * np.maximum(np.abs(x), np.abs(y))).all(), \
                    (kind.name, w, n)

    @pytest.mark.parametrize("panel", [1, 64])
    def test_refuses_singular_level(self, monkeypatch, panel):
        # states 1 and 2 (fitness 1) only move to each other and never absorb;
        # state 0 (fitness 3) absorbs into state 3, in their panel unless
        # every panel is one level
        monkeypatch.setattr(tl.markov, "_PANEL", panel)
        P = np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0],
                      [0.0, 0.25, 0.75, 0.0], [0.0, 0.0, 0.0, 1.0]])
        fitness, x = np.array([3, 1, 1, 4]), np.array([[0.0], [0.0], [0.0], [1.0]])
        with pytest.raises(RuntimeError,
                           match="^hand-built: transient block at fitness 1 is singular: "):
            _solve_levels(P, fitness, np.array([0, 1, 2]), x, "hand-built")
        # without the stuck pair the same panel solves
        _solve_levels(P, fitness, np.array([0]), x, "hand-built")
        assert x[0, 0] == 1.0

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


def test_solves_allocate_no_dense_matrix():
    # a dense 4n x 4n float matrix alone would exceed the traced peak
    n = 1500
    tracemalloc.start()
    try:
        tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * n) ** 2 * 8, peak


def test_solve_memory_stays_below_the_offspring_table():
    # rows are made per group of panels and never stored for the whole chain,
    # so above a warm table the traced peak barely grows with n
    peaks = {}
    for n in (500, 1500):
        _offspring_table(tl.ONE_PLUS_ONE_EA, n)
        tracemalloc.start()
        try:
            tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 2, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _, same, flip = _offspring_table(tl.ONE_PLUS_ONE_EA, 1500)
    assert peaks[1500] <= 1.5 * peaks[500], peaks
    assert peaks[1500] < same.nbytes + flip.nbytes, (peaks, same.nbytes + flip.nbytes)


def test_table_build_peaks_near_the_table():
    # up is dropped once tail is made and same is tail scaled in place, so a
    # cold build holds little beside the two arrays it returns
    tracemalloc.start()
    try:
        _, same, flip = _offspring_table.__wrapped__(tl.ONE_PLUS_ONE_EA, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * (same.nbytes + flip.nbytes), (peak, same.nbytes + flip.nbytes)


class TestRefusals:
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_chain_needs_two_bits(self, n, capsys):
        calls = [lambda: tl.build_transition_matrix(tl.RLS, 2, n),
                 lambda: tl.markov.state_classes(tl.RLS, 2, n),
                 lambda: tl.markov.initial_distribution(n),
                 lambda: tl.absorption_probabilities(tl.RLS, 2, n),
                 lambda: tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 2, n),
                 lambda: tl.brute_force_absorption(tl.RLS, 2, n),
                 lambda: tl.random_init(n, np.random.default_rng(0)),
                 lambda: tl.default_budget(n),
                 lambda: tl.ExperimentConfig(kind=tl.RLS, n=n, w=2, trials=1, budget=1)]
        for call in calls:
            with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
                call()
        for argv in (["exact", "--algo", "rls", "--n", str(n), "--w", "2"],
                     ["estimate", "--algo", "rls", "--n", str(n), "--w", "0"]):
            assert main(argv) == EXIT_USAGE
            assert f"n must be >= 2, got {n}" in capsys.readouterr().err

    def test_non_integer_weight_and_length_refused(self):
        # int() used to truncate w = 1.5 and answer the w = 1 question
        for call in (tl.absorption_probabilities, tl.conditional_hitting_time,
                     tl.build_transition_matrix, tl.markov.state_classes):
            with pytest.raises(TypeError, match="^w must be an integer, got 1.5$"):
                call(tl.RLS, 1.5, 8)
            with pytest.raises(TypeError, match="^n must be an integer, got 8.0$"):
                call(tl.RLS, 1, 8.0)

    def test_known_defect_points_raise(self):
        # ROADMAP open item 1 (log-domain level solve) is to turn this
        # refusal into an answer; until then it must fail loudly, naming
        # the chain and the number that failed
        with pytest.raises(RuntimeError,
                           match=r"ea n=200 w=200: transient state 400 .*escape mass 0\)"):
            tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, 200, 200)
        # former refusals of the reweighted hitting solve, against 50-digit
        # mpmath level solves (the same to 25 digits at 60); seen: 7.9e-15
        # and 4.5e-14 relative
        for w, n, exact, tol in ((-20, 40, 4.390943898044434540748739e29, 1e-13),
                                 (50, 100, 5.597790614459165304814728e98, 1e-12)):
            hit = tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, w, n)
            assert abs(hit.overall / exact - 1) <= tol, (w, n, hit.overall)

    def test_time_overflow_is_refused(self):
        # at the deepest quasi-trap the expected time passes 1.8e308; the
        # refusal names the chain, the level and its escape mass, unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"^ea n=200 w=140: expected generations at "
                                                   r"fitness 200 overflow double precision "
                                                   r"\(escape mass \S+\)$") as info:
                tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 140, 200)
        assert 0.0 < float(re.search(r"mass (\S+)\)", str(info.value)).group(1)) < 1e-300


def _check_exact_demo(out):
    # the only demo that reads the brute-force chain and its lumping spread
    diff = re.search(r"max per-state difference: (\S+)", out)
    spread = re.search(r"within-group spread of the full chain: (\S+)", out)
    assert diff and spread, out
    assert float(diff.group(1)) <= 1e-10 and float(spread.group(1)) <= 1e-10


def _check_population_demo(out):
    # the tour of the (mu+1) EA: rescue at w = -n, identical runs below -n
    success = re.search(r"population mu=30\s*: success (\S+)", out)
    rows = re.findall(r"^ +\d+ +(\d+) +(\d+)$", out, re.MULTILINE)
    assert success and len(rows) == 5, out
    assert float(success.group(1)) >= 0.8
    assert all(a == b for a, b in rows), rows


def _check_monte_carlo_demo(out):
    # Wilson rows for the three weights; at w = -20 the successes of that
    # row's 4000 trials and the failure accounting of the same experiment
    # add up; the exact w = -5 value lies inside the simulated bounds
    rows = {w: tuple(map(float, v)) for w, *v in
            re.findall(r"^ +([+-]\d+) +(\S+) +\[(\S+), (\S+)\] +\S+ +(?:True|False)$",
                       out, re.MULTILINE)}
    assert sorted(rows) == ["+2", "-1", "-20"], out
    assert all(low <= p <= high for p, low, high in rows.values()), rows
    counts = re.search(r"event1=(\d+) event2=(\d+) event3=(\d+) undecided=(\d+)", out)
    assert counts, out
    assert sum(map(int, counts.groups())) + round(4000 * rows["-20"][0]) == 4000, out
    bounds = re.search(r"exact success (\S+); simulated bounds \[(\S+), (\S+)\]", out)
    assert bounds, out
    exact, low, high = map(float, bounds.groups())
    assert low <= exact <= high, out


def _check_prints(out):
    # smoke coverage: the demo runs to the end and reports something
    assert out.strip()


_DEMOS = {"01_benchmark_tour": _check_prints,
          "02_stagnation_anatomy": _check_prints,
          "03_exact_failure_probabilities": _check_exact_demo,
          "04_monte_carlo_vs_exact": _check_monte_carlo_demo,
          "05_runtime_scaling": _check_prints,
          "06_population_rescue": _check_population_demo}


_ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args, timeout):
    """A fresh interpreter that imports tlonemax from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.mark.parametrize("demo, check", _DEMOS.items(), ids=list(_DEMOS))
def test_demo_runs(demo, check):
    proc = _run_python(str(_ROOT / "demos" / f"{demo}.py"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    check(proc.stdout)


_SCIPY_FREE_CALLS = """
import contextlib, io, json, sys
import tlonemax as tl
from tlonemax import cli

for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA, tl.mu_plus_one_ea(3)):
    tl.run_trial(kind, 1, 8, 100, 0)
tl.estimate(tl.ExperimentConfig(tl.ONE_PLUS_ONE_EA, 8, -2, 5, 200, 1))
tl.runtime_scaling(tl.RLS, 1, [4, 6], 3, master_seed=2)
tl.absorption_probabilities(tl.RLS, 2, 8)
tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, -3, 8)
tl.brute_force_absorption(tl.ONE_PLUS_ONE_EA, -3, 6)
tl.build_transition_matrix(tl.RLS, 1, 6)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["estimate", "--algo", "mu-ea", "--mu", "2", "--n", "6", "--w", "0", "--trials", "3"],
        ["scaling", "--algo", "ea", "--w", "0", "--ns", "4,6", "--trials", "3"],
        ["trace", "--algo", "rls", "--n", "6", "--w", "1"],
        ["verify", "--lemma", "all", "--n", "4"],
        ["reproduce", "--theorem", "7"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(name for name in sys.modules if name.startswith("scipy"))}))
"""


def test_no_call_loads_scipy():
    # the package needs numpy alone; scipy is a test-side oracle only
    proc = _run_python("-c", _SCIPY_FREE_CALLS, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 5
    assert report["scipy"] == []


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

    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_rows_are_built_once(self, monkeypatch, kind):
        # probabilities and times come from one top-down pass: the builder is
        # asked for each transient row exactly once, over several panel groups
        build, asked = tl.markov._lumped_row_builder, []

        def counted(*args):
            source = build(*args)
            return source._replace(rows=lambda states: asked.append(states)
                                   or source.rows(states))

        monkeypatch.setattr(tl.markov, "_lumped_row_builder", counted)
        monkeypatch.setattr(tl.markov, "_CHUNK", 50)
        hit = tl.conditional_hitting_time(kind, -3, 40)
        assert len(asked) > 1
        assert np.array_equal(np.sort(np.concatenate(asked)),
                              np.flatnonzero(hit.absorption.state_class < 0))

    def test_overall_positive_and_finite(self):
        hit = tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, -6, 6)
        assert math.isfinite(hit.overall) and hit.overall > 0
