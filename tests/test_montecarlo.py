import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlonemax as tl
from tlonemax import algorithms, montecarlo

_SRC = Path(__file__).resolve().parents[1] / "src"
_PEAK_RSS = """
import resource, sys
import tlonemax as tl
tl.estimate(tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=20, w=-20, trials=int(sys.argv[1]),
                                 budget=tl.default_budget(20), master_seed=3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _estimate_peak_rss_kb(trials: int) -> int:
    """Peak RSS in KB of a fresh interpreter that runs one ea estimate at
    n = 20, w = -20 over ``trials`` trials."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(trials)], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return int(proc.stdout)


class TestWilson:
    def test_boundaries(self):
        lo, hi = tl.wilson_ci(0, 25, 1.96)
        assert lo == 0.0 and hi > 0
        lo, hi = tl.wilson_ci(25, 25, 1.96)
        assert hi == 1.0 and lo < 1

    def test_frozen_half_example(self):
        lo, hi = tl.wilson_ci(50, 100, 1.96)
        assert abs(lo - 0.4038) <= 1e-3
        assert abs(hi - 0.5962) <= 1e-3

    def test_independent_formula(self):
        # re-derive from the score-test closed form with plain floats
        k, N, z = 37, 160, 2.5
        phat = k / N
        denom = 1 + z * z / N
        center = (phat + z * z / (2 * N)) / denom
        half = z * math.sqrt(phat * (1 - phat) / N + z * z / (4 * N * N)) / denom
        lo, hi = tl.wilson_ci(k, N, z)
        assert abs(lo - (center - half)) <= 1e-15
        assert abs(hi - (center + half)) <= 1e-15

    def test_non_integer_counts_refused(self):
        # wilson_ci(2.5, 4.5) used to answer (0.192, 0.868)
        with pytest.raises(TypeError, match="^k must be an integer, got 2.5$"):
            tl.wilson_ci(2.5, 4.5)
        with pytest.raises(TypeError, match="^N must be an integer, got 4.5$"):
            tl.wilson_ci(2, 4.5)
        assert tl.wilson_ci(np.int64(2), np.int32(4)) == tl.wilson_ci(2, 4)

    def test_guards(self):
        with pytest.raises(ValueError):
            tl.wilson_ci(0, 0)
        with pytest.raises(ValueError):
            tl.wilson_ci(5, 4)
        with pytest.raises(ValueError):
            tl.wilson_ci(1, 4, z=0)

    def test_guards_quote_the_value(self):
        with pytest.raises(ValueError, match="N must be >= 1, got 0$"):
            tl.wilson_ci(0, 0)
        with pytest.raises(ValueError, match=r"k must lie in \[0\.\.4\], got 5$"):
            tl.wilson_ci(5, 4)
        with pytest.raises(ValueError, match=r"k must lie in \[0\.\.4\], got -1$"):
            tl.wilson_ci(-1, 4)
        with pytest.raises(ValueError, match="z must be positive, got -0.5$"):
            tl.wilson_ci(1, 4, z=-0.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_refused(self, z):
        # both used to answer (0.0, 1.0)
        with pytest.raises(ValueError, match=f"^z must be finite, got {z}$"):
            tl.wilson_ci(3, 10, z=z)


class TestConfig:
    def test_non_integer_counts_refused(self):
        for field in ("n", "w", "trials", "budget", "master_seed"):
            values = dict(kind=tl.RLS, n=5, w=0, trials=10, budget=10, master_seed=0)
            values[field] = 7.5
            name = "seed" if field == "master_seed" else field
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got 7.5$"):
                tl.ExperimentConfig(**values)

    def test_kind_must_be_an_algorithm_kind(self):
        # a bare name used to be accepted and fail later inside estimate
        with pytest.raises(TypeError, match="^kind must be an AlgorithmKind, got 'ea'$"):
            tl.ExperimentConfig(kind="ea", n=5, w=0, trials=10, budget=10)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            tl.ExperimentConfig(kind=tl.RLS, n=1, w=0, trials=10, budget=10)
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            tl.ExperimentConfig(kind=tl.RLS, n=5, w=0, trials=0, budget=10)
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            tl.ExperimentConfig(kind=tl.RLS, n=5, w=0, trials=10, budget=0)
        with pytest.raises(ValueError):
            tl.ExperimentConfig(kind=tl.RLS, n=5, w=2**40, trials=10, budget=10)

    def test_default_budget(self):
        assert tl.default_budget(50) == math.ceil(100 * 50 * math.log(50))


class TestEstimate:
    def test_counts_partition_trials(self):
        cfg = tl.ExperimentConfig(kind=tl.RLS, n=12, w=-12, trials=300,
                                  budget=tl.default_budget(12), master_seed=5)
        r = tl.estimate(cfg)
        assert r.successes + r.event1 + r.event2 + r.event3 + r.undecided == 300
        assert r.ci_low <= r.p_success <= r.ci_high

    def test_reproducible_across_worker_counts(self):
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=15, w=-4, trials=120,
                                  budget=tl.default_budget(15), master_seed=9)
        r1 = tl.estimate(cfg, workers=1)
        r2 = tl.estimate(cfg, workers=2)
        r3 = tl.estimate(cfg, workers=1)
        strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
        assert strip(r1) == strip(r2) == strip(r3)

    def test_agrees_with_exact_chain(self):
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=20, w=-20, trials=2000,
                                  budget=tl.default_budget(20), master_seed=17)
        r = tl.estimate(cfg)
        exact = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -20, 20)
        lo, hi = tl.wilson_ci(r.successes, cfg.trials, z=3.0)
        assert lo <= exact.p_optimum <= hi
        # event masses also agree loosely
        lo1, hi1 = tl.wilson_ci(r.event1, cfg.trials, z=4.0)
        assert lo1 <= exact.overall["event1"] <= hi1

    def test_rls_positive_w_failure_rate(self):
        # exact chain failure is 1/4 + 1/(2n) = 0.255 at n=100
        cfg = tl.ExperimentConfig(kind=tl.RLS, n=100, w=2, trials=2000,
                                  budget=tl.default_budget(100), master_seed=7)
        r = tl.estimate(cfg)
        sigma = math.sqrt(0.255 * 0.745 / 2000)
        assert abs(r.p_fail_proven - 0.255) <= 3 * sigma
        assert abs(r.p_success - 0.745) <= 3 * sigma + r.undecided / 2000

    def test_w0_all_succeed_undecided_zero(self):
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=50, w=0, trials=200,
                                  budget=tl.default_budget(50), master_seed=2)
        r = tl.estimate(cfg)
        assert r.successes == 200 and r.undecided == 0
        assert math.isfinite(r.mean_success_gen)
        assert r.p_success == 1.0 and r.ci_high == 1.0

    def test_undecided_zero_at_default_budget_n100(self):
        # the chain absorbs almost surely at w=-n; 100 n ln n is an order of
        # magnitude above the absorption time
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=100, w=-100, trials=300,
                                  budget=tl.default_budget(100), master_seed=6)
        assert tl.estimate(cfg).undecided == 0

    def test_failure_reported_two_ways(self):
        cfg = tl.ExperimentConfig(kind=tl.RLS, n=10, w=3, trials=400,
                                  budget=tl.default_budget(10), master_seed=21)
        r = tl.estimate(cfg)
        assert r.p_fail_proven <= r.p_fail_with_undecided
        assert r.p_fail_proven == (r.event1 + r.event2 + r.event3) / 400

    def test_workers_below_one_rejected(self):
        cfg = tl.ExperimentConfig(kind=tl.RLS, n=8, w=0, trials=3, budget=100)
        for workers in (0, -4):
            with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}$"):
                tl.estimate(cfg, workers=workers)


class TestRuntimeScaling:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            tl.runtime_scaling(tl.RLS, -1, [8, 16], trials=5)
        with pytest.raises(ValueError, match="defined for w >= 0 only, got -3$"):
            tl.runtime_scaling(tl.ONE_PLUS_ONE_EA, -3, [8], trials=5)

    def test_row_per_n_with_flags(self):
        rows = tl.runtime_scaling(tl.RLS, 0, [8, 16, 32], trials=10, master_seed=3)
        assert [r.n for r in rows] == [8, 16, 32]
        for r in rows:
            assert r.successes == 10 and r.low_success  # 10 < 30 flags the row
            assert math.isfinite(r.mean_success_generations)

    def test_rls_w2_excludes_stagnated(self):
        rows = tl.runtime_scaling(tl.RLS, 2, [24], trials=120, master_seed=4)
        assert 60 <= rows[0].successes < 120  # ~25% of trials stagnate

    def test_reproducible(self):
        a = tl.runtime_scaling(tl.ONE_PLUS_ONE_EA, 1, [16], trials=15, master_seed=8)
        b = tl.runtime_scaling(tl.ONE_PLUS_ONE_EA, 1, [16], trials=15, master_seed=8)
        assert a == b


def summary(out):
    return (out.status.value, out.event.value if out.event is not None else None,
            out.generations)


def one_by_one(cfg):
    """cfg's trial summaries from run_trial, one trial at a time."""
    return [summary(tl.run_trial(cfg.kind, cfg.w, cfg.n, cfg.budget,
                                 tl.split_seed(cfg.master_seed, i)))
            for i in range(cfg.trials)]


class TestBatchedTrials:
    # estimate and runtime_scaling step the trials of a config in blocks of
    # consecutive indices through one batch engine; every trial must be the
    # one run_trial gives on its own stream

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 64, 256])
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_matches_run_trial(self, kind, n):
        for w in (-2 * n, -n - 1, -n, -3, -2, -1, 0, 1, 2, 5, n, 3 * n):
            for budget in (1, 7, 400, 3000):
                cfg = tl.ExperimentConfig(kind=kind, n=n, w=w, trials=40, budget=budget,
                                          master_seed=31)
                assert montecarlo._run_trials(cfg) == one_by_one(cfg), (n, w, budget)

    @pytest.mark.parametrize("block_draws, first_rows",
                             [(1, 1), (1, 3), (3, 1), (3, 3), (512, 512)])
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_block_schedule_does_not_matter(self, kind, block_draws, first_rows,
                                            monkeypatch):
        # one-row blocks and windows, and 512-row first blocks and windows
        # that hold many changes, conflicts and bit-0 flips, give the same
        # trials as the default schedule
        cfgs = [tl.ExperimentConfig(kind=kind, n=n, w=w, trials=40, budget=budget,
                                    master_seed=8)
                for n, w, budget in ((2, 1, 400), (3, -3, 7), (10, 0, 400), (20, 2, 400),
                                     (33, -1, 600))]
        want = [montecarlo._run_trials(cfg) for cfg in cfgs]
        monkeypatch.setattr(algorithms, "_FIRST_ROWS", first_rows)
        monkeypatch.setattr(algorithms, "_BLOCK_DRAWS", block_draws)
        assert [montecarlo._run_trials(cfg) for cfg in cfgs] == want

    @pytest.mark.parametrize("budget", [tl.default_budget(12), 9])
    def test_block_size_does_not_matter(self, budget, monkeypatch):
        # 37 trials, split into blocks of 8 with a short last block; the
        # budget of 9 leaves most trials undecided
        cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=12, w=2, trials=37,
                                  budget=budget, master_seed=4)
        strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
        want = strip(tl.estimate(cfg))
        assert want.undecided > 20 if budget == 9 else want.undecided == 0
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 8)
        assert strip(tl.estimate(cfg)) == want
        assert montecarlo._run_trials(cfg) == one_by_one(cfg)

    def test_blocks_bound_memory(self):
        # in a fresh process, blocks of 128 trials keep the peak RSS of this
        # 10**4-trial estimate within a few MB of a 128-trial one; all 10**4
        # trials stepped at once add about 60 MB
        peaks = {trials: _estimate_peak_rss_kb(trials) for trials in (128, 10**4)}
        assert peaks[10**4] - peaks[128] < 16 * 2**10, peaks
