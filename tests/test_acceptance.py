"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v`
to see one PASSED/FAILED line per criterion (prints carry the measured
quantities).
"""

import hashlib
import math
import time

import numpy as np

import tlonemax as tl
from tlonemax.cli import (PRESET_SEED, THEOREM10_MU, THEOREM10_N,
                          THEOREM10_PINNED_FRACTION, THEOREM10_TRIALS)
from tlonemax.core import TLState

from oracles import full_state_absorption


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS {detail}")


def test_criterion_01_lumped_matches_brute_force():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for w in (-8, -3, -1, 0, 1, 2, 5):
            for n in (4, 6, 8):
                lump = tl.absorption_probabilities(kind, w, n)
                brute = full_state_absorption(kind, w, n)
                for c in tl.CLASS_NAMES:
                    worst = max(worst, abs(lump.overall[c] - brute.overall[c]))
                worst = max(worst, float(np.abs(lump.per_state - brute.per_state).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60
    _report(1, "lumping vs brute force", f"max diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_probability_one_convergence():
    worst = 0.0
    for w in (0, 1):
        for n in (10, 50, 200):
            for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
                res = tl.absorption_probabilities(kind, w, n)
                worst = max(worst, abs(res.p_optimum - 1.0))
    assert worst <= 1e-10
    _report(2, "probability-1 convergence at w in {0,1}", f"max |p-1| {worst:.2e}")


def test_criterion_03_rls_failure_band():
    worst_closed = 0.0
    for n in (10, 50, 200):
        for w in (2, 5, n):
            res = tl.absorption_probabilities(tl.RLS, w, n)
            fail = res.p_failure
            assert 0.25 <= fail <= 0.25 + 0.75 / n, (n, w, fail)
            worst_closed = max(worst_closed, abs(fail - (0.25 + 0.5 / n)))
    assert worst_closed <= 1e-10
    _report(3, "one-bit failure band 1/4 + 1/(2n)", f"max closed-form dev {worst_closed:.2e}")


def _failure_bound(n):
    return 1.0 - n * math.exp(-n ** (1 / 3) / math.e) - 4.0 / n ** (1 / 3)


def test_criterion_04_negative_weight_failure_growth():
    t0 = time.perf_counter()
    fails = []
    for n in (20, 40, 80, 160):
        res = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -n, n)
        fails.append(res.p_failure)
        bound = _failure_bound(n)
        if bound > 0:
            assert res.p_failure >= bound
    assert all(b >= a for a, b in zip(fails, fails[1:])), fails
    n = 80
    floor = max(_failure_bound(n), 0.0)
    mids = []
    for w in (-1, -n // 2, -n):
        res = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, w, n)
        mids.append(res.p_failure)
        assert res.p_failure >= floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(4, "negative-weight failure growth",
            f"failure {['%.4f' % f for f in fails]}, n=80 sweep {['%.4f' % f for f in mids]}, {elapsed:.1f}s")


def test_criterion_05_process_equivalence_below_minus_n():
    worst = 0.0
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for n in (6, 10, 40):
            base = tl.absorption_probabilities(kind, -n, n)
            for w in (-n - 1, -2 * n):
                other = tl.absorption_probabilities(kind, w, n)
                worst = max(worst, float(np.abs(base.per_state - other.per_state).max()))
                for c in tl.CLASS_NAMES:
                    worst = max(worst, abs(base.overall[c] - other.overall[c]))
    assert worst <= 1e-12
    _report(5, "weight equivalence below -n", f"max diff {worst:.2e}")


def test_criterion_06_monte_carlo_calibration():
    t0 = time.perf_counter()
    details = []
    for w in (-20, -1, 2):
        exact = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, w, 20)
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=20, w=w, trials=10**4,
                                  budget=tl.default_budget(20), master_seed=101)
        res = tl.estimate(cfg)
        lo, hi = tl.wilson_ci(res.successes, cfg.trials, z=3.0)
        assert lo <= exact.p_optimum <= hi, (w, exact.p_optimum, res.p_success)
        details.append(f"w={w}: est {res.p_success:.4f} vs exact {exact.p_optimum:.4f}")

    exact_p = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -10, 10).p_optimum
    covered = 0
    for rep in range(200):
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=10, w=-10, trials=400,
                                  budget=tl.default_budget(10),
                                  master_seed=tl.split_seed(505, rep))
        r = tl.estimate(cfg)
        covered += r.ci_low <= exact_p <= r.ci_high
    elapsed = time.perf_counter() - t0
    assert covered >= 180, covered
    assert elapsed < 300
    _report(6, "Monte Carlo calibration",
            f"{'; '.join(details)}; coverage {covered}/200, {elapsed:.1f}s")


def test_criterion_07_runtime_scaling_shape():
    t0 = time.perf_counter()
    spreads = []
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for w in (0, 1, 2):
            rows = tl.runtime_scaling(kind, w, [64, 128, 256, 512], trials=200,
                                      master_seed=11)
            ratios = [r.mean_success_generations / (r.n * math.log(r.n)) for r in rows]
            spread = max(ratios) / min(ratios)
            spreads.append(f"{kind.name} w={w}: {spread:.3f}")
            assert spread < 2.0, (kind.name, w, ratios)
            assert all(r.successes >= 30 for r in rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(7, "n ln n scaling shape", f"spreads {'; '.join(spreads)}, {elapsed:.0f}s")


def test_criterion_08_lemma_suite():
    t0 = time.perf_counter()
    for n in range(4, 17):
        rep = tl.check_mutation_facts(n)
        assert rep.passed
        assert rep.details["worst_margin_gain1"] > 0
        # the zero-flip fact holds with equality exactly where symmetry forces
        # it (one-bit mutation everywhere; bit-wise mutation at a in {1, n})
        # and strictly everywhere else
        assert rep.details["worst_margin_zero_flip"] == 0.0
        assert rep.details["worst_margin_zero_flip_strict_part"] > 0
        forced = {("rls", a) for a in range(1, n + 1)} | {("ea", 1), ("ea", n)}
        assert set(rep.details["tight_b_instances"]) == forced
    for n in (4, 5, 6):
        rep = tl.check_selection_equivalence(n, [-n - 1, -2 * n, -25 * n])
        assert rep.passed and rep.worst_margin >= 1
    rep = tl.check_selection_equivalence(20, [-21, -40, -200], samples=10**6, seed=1)
    assert rep.passed and rep.worst_margin >= 1
    rep = tl.check_rank_equivalence(6, M=5, samples=10**5, weights=[-7, -12, -60], seed=0)
    assert rep.passed and rep.worst_margin >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(8, "lemma suite", f"{elapsed:.1f}s")


def test_criterion_09_stagnation_soundness():
    t0 = time.perf_counter()
    classified = 0
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for n in range(4, 11):
            for w in range(-12, 13):
                for prev in (0, 1):
                    for value in range(1 << n):
                        cur = np.array([(value >> i) & 1 for i in range(n)],
                                       dtype=np.uint8)
                        s = TLState(prev, cur)
                        ev = tl.classify(kind, w, s)
                        if ev is not None:
                            classified += 1
                            assert tl.is_absorbing_oracle(kind, w, s)
                            assert not tl.is_global_optimum(w, s)
    elapsed = time.perf_counter() - t0
    _report(9, "stagnation soundness", f"{classified} classified states confirmed, {elapsed:.0f}s")


def test_criterion_10_population_rescue():
    t0 = time.perf_counter()
    n, mu = THEOREM10_N, THEOREM10_MU
    cfg = tl.ExperimentConfig(kind=tl.mu_plus_one_ea(mu), n=n, w=-n,
                              trials=THEOREM10_TRIALS, budget=50 * mu * n,
                              master_seed=PRESET_SEED)
    res = tl.estimate(cfg)
    assert res.p_success >= 0.8
    assert abs(res.p_success - THEOREM10_PINNED_FRACTION) <= 0.05

    def trajectory_hash(w, seed):
        h = hashlib.sha256()

        def obs(g, pop, accepted, event):
            for m in pop:
                h.update(bytes([m.prev_first]))
                h.update(m.current.tobytes())

        out = tl.run_trial(tl.mu_plus_one_ea(8), w, 10, 3000, seed, observer=obs)
        h.update(f"{out.status.value}|{out.generations}".encode())
        return h.hexdigest()

    for seed in range(20):
        assert trajectory_hash(-10, seed) == trajectory_hash(-20, seed)
    elapsed = time.perf_counter() - t0
    _report(10, "population rescue at strongly negative weights",
            f"success {res.p_success:.3f} (pinned {THEOREM10_PINNED_FRACTION}), "
            f"20 seed-identical trajectory pairs, {elapsed:.0f}s")
