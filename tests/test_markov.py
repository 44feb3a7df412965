import ast
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
                             _RowSource, _solve_levels, binomial_pmf, lumped_index)
from tlonemax.stagnation import RLS_ORACLE_MAX_N

from oracles import full_state_absorption


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
        # the offspring table cuts the binomials where they underflow and each
        # accepted window to its band; rows rebuilt from the full-length pmfs
        # may hold more entries, but per window c' the band's support is
        # theirs and their accepted mass outside the band is at most 2**-52 of
        # the band's off-diagonal mass
        for w in (-n, -1, 0, 2, n):
            P = tl.build_transition_matrix(tl.ONE_PLUS_ONE_EA, w, n)
            for c in (0, 1):
                for k in range(n):
                    law = _full_ea_offspring_law(c, k, n)
                    for p in (0, 1):
                        ref = _select_reference(law, w, n, p, c, k)
                        row = P[lumped_index(p, c, k, n)]
                        assert not (row > 0)[ref == 0].any(), (n, w, p, c, k)
                        assert np.abs(row - ref).max() <= 1e-15, (n, w, p, c, k)
                        accepted = np.where(np.arange(2)[:, None] + np.arange(n) + w * c
                                            >= c + k + w * p, law, 0.0)
                        band = row[2 * c * n:2 * (c + 1) * n].reshape(2, n) > 0
                        if p == c:  # the state itself is neither kept nor dropped
                            accepted[c, k] = 0.0
                        for window, kept in zip(accepted, band):
                            assert window[~kept].sum() <= 2.0**-52 * window[kept].sum(), \
                                (n, w, p, c, k)

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


@pytest.fixture
def table_builds(monkeypatch):
    """(kind name, n) of every offspring table built, from an empty cache."""
    built, build = [], tl.markov._build_offspring_table

    def counted(kind, n):
        built.append((kind.name, n))
        return build(kind, n)

    monkeypatch.setattr(tl.markov, "_build_offspring_table", counted)
    monkeypatch.setattr(tl.markov, "_tables", {})
    return built


class TestOffspringTableReuse:
    def test_rotation_builds_each_table_once(self, table_builds):
        pairs = [(tl.RLS, 50), (tl.ONE_PLUS_ONE_EA, 50), (tl.ONE_PLUS_ONE_EA, 80), (tl.RLS, 80)]
        for _ in range(2):
            for kind, n in pairs:
                for w in (-n, -1, 2):
                    tl.absorption_probabilities(kind, w, n)
                    tl.conditional_hitting_time(kind, w, n)
                    tl.build_transition_matrix(kind, w, n)
        assert table_builds == [(kind.name, n) for kind, n in pairs]

    def test_budget_keeps_the_newest_and_drops_the_least_recent(self, table_builds,
                                                                monkeypatch):
        ea = tl.ONE_PLUS_ONE_EA
        size = {n: _offspring_table(ea, n)[1].nbytes for n in (20, 30, 40)}
        assert table_builds == [("ea", 20), ("ea", 30), ("ea", 40)]
        monkeypatch.setattr(tl.markov, "_TABLE_BYTES", size[30] + size[40])
        tl.markov._tables.clear()
        for n in (20, 30, 40, 30, 40):  # 20 leaves when 40 arrives; 30 and 40 fit
            _offspring_table(ea, n)
        assert table_builds[3:] == [("ea", 20), ("ea", 30), ("ea", 40)]
        # a table above the budget stays while it is the most recent
        monkeypatch.setattr(tl.markov, "_TABLE_BYTES", size[40] - 1)
        for n in (40, 40, 20, 40):
            _offspring_table(ea, n)
        assert table_builds[6:] == [("ea", 20), ("ea", 40)]
        assert list(tl.markov._tables) == [("ea", 40)]

    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_weight_sweep_scans_each_window_once(self, kind, monkeypatch):
        # band ends and the p = c rejected sums do not depend on w, so they
        # are kept beside the table: a sweep over every weight scans each
        # distinct (scale row, window start) once, and a second sweep none
        n, scans, scan = 30, [], tl.markov._band_end

        def counted(tail, scale, s):
            scans.append((tuple(scale.tolist()), s))
            return scan(tail, scale, s)

        monkeypatch.setattr(tl.markov, "_band_end", counted)
        monkeypatch.setattr(tl.markov, "_tables", {})
        warm = [tl.conditional_hitting_time(kind, w, n) for w in range(-n - 1, n + 2)]
        assert len(scans) == len(set(scans)) >= 8
        (_, tail, _), ends, rejected = tl.markov._tables[(kind.name, n)]
        assert len(ends) == len(scans) and sorted(rejected) == [0, 1]
        assert tl.markov._entry_bytes(tl.markov._tables[(kind.name, n)]) == \
            tail.nbytes + 2 * n * 8
        first = len(scans)
        for w in range(-n - 1, n + 2):
            tl.absorption_probabilities(kind, w, n)
        assert len(scans) == first
        for w, hit in zip(range(-n - 1, n + 2), warm):
            monkeypatch.setattr(tl.markov, "_tables", {})
            cold = tl.conditional_hitting_time(kind, w, n)
            assert np.array_equal(cold.per_state, hit.per_state, equal_nan=True), w
            assert np.array_equal(cold.absorption.per_state, hit.absorption.per_state), w

    def test_cached_arrays_are_read_only(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            _, tail, scale = _offspring_table(kind, 30)
            for table in (tail, scale):
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 1.0

    def test_cold_and_warm_results_identical(self, monkeypatch):
        cases = [(tl.RLS, 3, 60), (tl.ONE_PLUS_ONE_EA, -60, 60), (tl.ONE_PLUS_ONE_EA, 2, 60)]
        warm = []
        for kind, w, n in cases:
            tl.absorption_probabilities(kind, w, n)
            warm.append(tl.conditional_hitting_time(kind, w, n))
        for (kind, w, n), hit in zip(cases, warm):
            monkeypatch.setattr(tl.markov, "_tables", {})
            cold = tl.conditional_hitting_time(kind, w, n)
            assert np.array_equal(cold.per_state, hit.per_state, equal_nan=True)
            assert np.array_equal(cold.absorption.per_state, hit.absorption.per_state)


def _select_rows(vals, cols, rejected: np.ndarray, states: np.ndarray):
    """Pieces (vals, cols, counts) of rows moving to cols[i, j] with
    accepted mass vals[i, j] and keeping their rejected mass on states[i],
    divided by their sums; zeros are dropped."""
    cols = np.broadcast_to(cols, vals.shape)
    own = cols == states[:, None]
    has_own = own.any(axis=1)
    vals = np.hstack([vals, np.where(has_own, 0.0, rejected)[:, None]])
    vals[:, :-1][own] += rejected[has_own]
    cols = np.hstack([cols, states[:, None]], dtype=np.int32)
    vals /= vals.sum(axis=1, keepdims=True)
    keep = vals > 0.0
    return vals[keep], cols[keep], keep.sum(axis=1)


def _band_by_rule(mass: np.ndarray) -> int:
    """Columns of the significant band of an accepted window whose rows hold
    the masses ``mass``: the fewest columns e after which, in every row, the
    mass left is at most 2**-52 of the mass kept, both summed directly."""
    kept = np.hstack([np.zeros((mass.shape[0], 1)), np.cumsum(mass, axis=1)])
    left = np.hstack([np.cumsum(mass[:, ::-1], axis=1)[:, ::-1], np.zeros((mass.shape[0], 1))])
    return int((left <= 2.0**-52 * kept).all(axis=0).argmax())


def _rows_by_generic_selection(kind, w, n, states):
    """Lumped rows through a generic selection step, _select_rows, from
    slabs laid out as (same[k, t:et], flip[k, u:eu]) with same and flip the
    two scaled offspring tables and [t, et), [u, eu) the bands of the
    accepted windows (the state itself, column t when p = c, always kept and
    not counted), stacked per (p, c) and then put in the order asked as
    (ptr, cols, vals)."""
    lo, tail, scale = _offspring_table(kind, n)
    same, flip = tail * scale[0], tail * scale[1]
    width = tail.shape[1]
    pc, k = np.divmod(states, n)
    picks, blocks = [], []
    for p, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t, u = (min(max(lo + c - cp + w * (p - c), 0), width) for cp in (c, 1 - c))
        own = int(p == c)
        et = t + own + _band_by_rule(same[:, t + own:])
        eu = u + _band_by_rule(flip[:, u:])
        picks.append(pick := np.flatnonzero(pc == 2 * p + c))
        kk = k[pick]
        cols = [(2 * c + cp) * n + kk[:, None] - lo + np.arange(v, e)
                for cp, v, e in ((c, t, et), (1 - c, u, eu))]
        blocks.append(_select_rows(np.hstack([same[kk, t:et], flip[kk, u:eu]]), np.hstack(cols),
                                   same[kk, :t].sum(axis=1) + flip[kk, :u].sum(axis=1),
                                   lumped_index(p, c, kk, n)))
    vals, cols, counts = (np.concatenate(part) for part in zip(*blocks))
    ptr = np.concatenate([[0], np.cumsum(counts)])
    rows = np.argsort(np.concatenate(picks))
    start, counts = ptr[rows], counts[rows]
    out = np.concatenate([[0], np.cumsum(counts)])
    take = np.repeat(start - out[:-1], counts) + np.arange(out[-1])
    return out, cols[take], vals[take]


@pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
@pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
def test_lumped_rows_match_generic_selection(kind, n):
    # the lumped selection step is written for its known windows; it must
    # give the generic step's rows bit for bit: same entries, order and floats
    rng = np.random.default_rng(n)
    for w in (-n - 1, -n, -2, -1, 0, 1, 2, 3, n, n + 1):
        states = rng.permutation(4 * n)
        got = _lumped_row_builder(kind, w, n).rows(states)
        ref = _rows_by_generic_selection(kind, w, n, states)
        for field, (a, b) in enumerate(zip(got, ref)):
            assert np.array_equal(a, b), (kind.name, n, w, field)


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
                bf = full_state_absorption(kind, w, 6)
                for c in tl.CLASS_NAMES:
                    assert abs(lump.overall[c] - bf.overall[c]) <= 1e-10
                assert np.abs(lump.per_state - bf.per_state).max() <= 1e-10
                assert bf.spread <= 1e-10

    def test_equal_results_below_minus_n(self):
        n = 8
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            base = full_state_absorption(kind, -n, n)
            other = full_state_absorption(kind, -2 * n, n)
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
        # the full-state oracle confirms the closed form at n = 10
        bf = full_state_absorption(tl.RLS, 3, 10)
        assert abs(sum(bf.overall[c] for c in tl.CLASS_NAMES[1:]) - (0.25 + 0.05)) <= 1e-10

    def test_per_state_rows_sum_to_one(self):
        res = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -5, 12)
        assert np.abs(res.per_state.sum(axis=1) - 1).max() <= 1e-10
        assert res.per_state.min() >= 0 and res.per_state.max() <= 1

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


def _dense_rows(P: np.ndarray) -> _RowSource:
    """A hand-built dense chain as the solver's row source: each asked
    state's nonzero entries, in the order asked."""
    def rows(states):
        r, c = np.nonzero(P[states])
        return np.searchsorted(r, np.arange(states.size + 1)), c, P[states[r], c]

    return _RowSource(rows, np.count_nonzero(P, axis=1))


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

    def test_row_bands_agree_with_full_windows(self, monkeypatch):
        # rows cut to their significant bands against rows that keep every
        # accepted entry: each jump-chain row moves by at most 2**-51 in l1,
        # far rows (|w| near n) included, refusals too
        cases = [(kind, w, 40) for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA) for w in range(-41, 42)]
        cases += [(tl.ONE_PLUS_ONE_EA, w, 160) for w in (-160, -150, -80, 80, 150, 160)]
        cases += [(tl.ONE_PLUS_ONE_EA, w, 300) for w in (-150, 150)]

        def run():
            out = []
            for kind, w, n in cases:
                for fn in (tl.absorption_probabilities, tl.conditional_hitting_time):
                    try:
                        out.append(fn(kind, w, n))
                    except RuntimeError as exc:
                        out.append(str(exc))
            return out

        bands = run()
        # band ends are kept beside the tables: start from empty ones
        monkeypatch.setattr(tl.markov, "_tables", {})
        monkeypatch.setattr(tl.markov, "_band_end", lambda tail, scale, s: tail.shape[1])
        full = run()
        for case, got, want in zip([case for case in cases for _ in range(2)], bands, full):
            assert type(got) is type(want), (case, got, want)
            if isinstance(got, str):
                assert got == want, case
            elif isinstance(got, tl.AbsorptionResult):
                assert np.abs(got.per_state - want.per_state).max() <= 1e-13, case
            else:
                x, y = got.per_state, want.per_state
                assert np.array_equal(np.isnan(x), np.isnan(y)), case
                x, y = x[~np.isnan(x)], y[~np.isnan(y)]
                assert (np.abs(x - y) <= 1e-13 * y).all(), case
                assert abs(got.overall - want.overall) <= 1e-13 * want.overall, case

    @pytest.mark.parametrize("panel", [1, 64])
    def test_refuses_singular_level(self, monkeypatch, panel):
        # states 1 and 2 (fitness 1) only move to each other and never absorb;
        # state 0 (fitness 3) absorbs into state 3, in their panel unless
        # every panel is one level
        monkeypatch.setattr(tl.markov, "_PANEL", panel)
        P = _dense_rows(np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0],
                                  [0.0, 0.25, 0.75, 0.0], [0.0, 0.0, 0.0, 1.0]]))
        fitness, x = np.array([3, 1, 1, 4]), np.array([[0.0], [0.0], [0.0], [1.0]])
        with pytest.raises(RuntimeError,
                           match="^hand-built: transient block at fitness 1 is singular: "):
            _solve_levels(P, fitness, np.array([0, 1, 2]), x, "hand-built")
        # without the stuck pair the same panel solves
        _solve_levels(P, fitness, np.array([0]), x, "hand-built")
        assert x[0, 0] == 1.0

    def test_refuses_fitness_lowering_mass(self):
        # state 0 is transient; state 1 is known at x = 1, state 2 at x = 0
        P = _dense_rows(np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
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
    # so above a warm table the traced peak barely grows with n; both chains
    # span several groups of _CHUNK row entries
    peaks = {}
    for n in (1000, 3000):
        _offspring_table(tl.ONE_PLUS_ONE_EA, n)
        tracemalloc.start()
        try:
            tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 2, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tail = _offspring_table(tl.ONE_PLUS_ONE_EA, 3000)[1]
    assert peaks[3000] <= 1.5 * peaks[1000], peaks
    assert peaks[3000] < 2 * tail.nbytes, (peaks, tail.nbytes)


def test_table_build_peaks_near_the_table():
    # a cold build holds the tail and one block of rows of the up-flip
    # window and the down-flip pmf, with their temporaries; at n = 1000 a
    # block is half the rows
    tracemalloc.start()
    try:
        tail = tl.markov._build_offspring_table(tl.ONE_PLUS_ONE_EA, 1000)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * tail.nbytes, (peak, tail.nbytes)


def test_table_blocks_do_not_change_the_table(monkeypatch):
    # the default blocks (499 rows at n = 1000) against blocks of 7 rows,
    # of 1 row and of all 1000 rows
    one = tl.markov._build_offspring_table(tl.ONE_PLUS_ONE_EA, 1000)[1]
    D = (one.shape[1] + 1) // 2
    for rows in (7, 1, 1000):
        monkeypatch.setattr(tl.markov, "_TABLE_BLOCK", rows * 3 * D)
        assert np.array_equal(tl.markov._build_offspring_table(tl.ONE_PLUS_ONE_EA, 1000)[1], one)


class TestRefusals:
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_chain_needs_two_bits(self, n, capsys):
        calls = [lambda: tl.build_transition_matrix(tl.RLS, 2, n),
                 lambda: tl.markov.state_classes(tl.RLS, 2, n),
                 lambda: tl.markov.initial_distribution(n),
                 lambda: tl.absorption_probabilities(tl.RLS, 2, n),
                 lambda: tl.conditional_hitting_time(tl.ONE_PLUS_ONE_EA, 2, n),
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
    # one-bit search at w = 2 against its closed form 1/4 + 1/(2n)
    rows = re.findall(r"n= *(\d+): exact (\S+) vs closed form (\S+)", out)
    assert [int(n) for n, *_ in rows] == [10, 50, 200], out
    for n, exact, closed in rows:
        assert abs(float(closed) - (0.25 + 0.5 / int(n))) <= 1e-12, (n, closed)
        assert abs(float(exact) - float(closed)) <= 1e-10, (n, exact, closed)


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


def _markov_uses(source: str) -> tuple:
    """(uses, modules) of the source: its imports of tlonemax.markov or of a
    name that markov.py defines, and its attributes with such a name; the
    tlonemax modules that it imports."""
    names = {"markov"}
    for node in ast.parse((_ROOT / "src" / "tlonemax" / "markov.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    uses, modules = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            uses.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.Import):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found = [name for name in found if name and name.startswith("tlonemax")]
        modules.update(found[:1])
        uses += [f"line {node.lineno}: {name}" for name in found
                 if set(name.split(".")[1:]) & names]
    return uses, modules


def test_full_state_oracle_shares_no_code_with_markov():
    # the oracle checks markov's solver, so it may not read any of it; the
    # class labels come from stagnation, which is_absorbing_oracle checks
    uses, modules = _markov_uses((_ROOT / "tests" / "oracles.py").read_text())
    assert uses == []
    assert modules == {"tlonemax.stagnation"}
    # the check sees each way in
    for line in ("import tlonemax.markov", "from tlonemax import markov",
                 "from tlonemax.markov import binomial_pmf",
                 "from tlonemax import absorption_probabilities as solve",
                 "import tlonemax as tl; tl.CLASS_NAMES"):
        assert _markov_uses(line)[0], line


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
