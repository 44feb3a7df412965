"""Trial execution at scale: probability estimates with Wilson intervals and
runtime-scaling tables.

Trial i always runs on its own generator, seeded from (master_seed, i), so a
result is determined by its config.  The trials of a config run in one
process, in blocks of consecutive indices; each block is reduced to
per-trial summaries before the next one starts, so memory is bounded by one
block.  A block's generators come from ``algorithms._trial_generators``,
which hashes all its seeds together in a few array passes, the same words
as ``default_rng(split_seed(master_seed, i))``.  RLS and (1+1) EA blocks go
through the batch engine ``algorithms._run_batch``, which steps a block's
trials together; (mu+1) EA blocks run ``algorithms._run_mu_plus_one``
trial by trial.  Either way each trial is the one ``run_trial`` gives for
its seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .algorithms import (AlgorithmKind, TrialStatus, _run_batch, _run_mu_plus_one,
                         _trial_generators, split_seed)
from .core import _integer, check_count, check_length, check_seed, check_weight


def default_budget(n: int) -> int:
    """100 * n * ln(n) generations: an order of magnitude above the expected
    conditional optimization time."""
    n = check_length(n)
    return max(1, math.ceil(100.0 * n * math.log(n)))


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: algorithm, problem, trial count, budget, seed."""

    kind: AlgorithmKind
    n: int
    w: int
    trials: int
    budget: int
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, AlgorithmKind):
            raise TypeError(f"kind must be an AlgorithmKind, got {self.kind!r}")
        check_weight(self.w)
        check_length(self.n)
        check_seed(self.master_seed)
        check_count("trials", self.trials)
        check_count("budget", self.budget)


@dataclass
class EstimateResult:
    """Aggregated trial outcomes.

    Failure probability is reported two ways: ``p_fail_proven`` counts only
    trials that hit a proven stagnation event, ``p_fail_with_undecided`` also
    counts budget-exhausted trials (never-converging runs can only be bounded
    from both sides by simulation).  Wall time is excluded from equality
    comparisons by convention: compare `dataclasses.replace(r, wall_time_s=0)`.
    """

    trials: int
    successes: int
    event1: int
    event2: int
    event3: int
    undecided: int
    p_success: float
    ci_low: float
    ci_high: float
    p_fail_proven: float
    p_fail_with_undecided: float
    mean_success_gen: float
    median_success_gen: float
    wall_time_s: float


def wilson_ci(k: int, N: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for k successes out of N, clamped to [0, 1]."""
    k, N = _integer("k", k), _integer("N", N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= k <= N:
        raise ValueError(f"k must lie in [0..{N}], got {k}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    phat = k / N
    z2 = z * z
    denom = 1.0 + z2 / N
    center = (phat + z2 / (2 * N)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / N + z2 / (4.0 * N * N)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


#: Most trials one call of the batch engine steps together.  Larger blocks
#: spread its fixed cost per step over more trials; about 1 MB of arrays
#: per block of n = 20 trials.
_BLOCK_TRIALS = 128


def _run_trials(cfg: ExperimentConfig) -> list[tuple[str, str | None, int]]:
    """(status, event, generations) of cfg's trials, in trial order."""
    summaries = []
    for start in range(0, cfg.trials, _BLOCK_TRIALS):
        rngs = _trial_generators(cfg.master_seed, start, min(start + _BLOCK_TRIALS, cfg.trials))
        if cfg.kind.mu is None:
            outcomes = _run_batch(cfg.kind.name, cfg.w, cfg.n, cfg.budget, rngs)
        else:  # one at a time: a final population holds mu arrays
            outcomes = (_run_mu_plus_one(cfg.kind.mu, cfg.w, cfg.n, cfg.budget, rng, None)
                        for rng in rngs)
        summaries += [(o.status.value, o.event.value if o.event is not None else None,
                       o.generations) for o in outcomes]
    return summaries


def estimate(cfg: ExperimentConfig, workers: int = 1) -> EstimateResult:
    """Run cfg.trials independent seeded trials and aggregate.

    The result is byte-identical for identical configs (wall time aside);
    per-trial errors propagate, nothing partial is returned.  ``workers`` is
    accepted and checked (it must be >= 1) but unused: trials always run in
    this process.  It stays only because the benchmark in ``perfbench``
    still passes ``workers=2``.
    """
    check_count("workers", workers)
    t0 = time.perf_counter()
    summaries = _run_trials(cfg)
    counts = {"event1": 0, "event2": 0, "event3": 0}
    successes = 0
    undecided = 0
    success_gens = []
    for status, event, gen in summaries:
        if status == TrialStatus.OPTIMUM.value:
            successes += 1
            success_gens.append(gen)
        elif status == TrialStatus.STAGNATED.value:
            counts[event] += 1
        else:
            undecided += 1
    stagnated = sum(counts.values())
    low, high = wilson_ci(successes, cfg.trials)
    gens = np.asarray(success_gens, dtype=float)
    return EstimateResult(
        trials=cfg.trials,
        successes=successes,
        event1=counts["event1"],
        event2=counts["event2"],
        event3=counts["event3"],
        undecided=undecided,
        p_success=successes / cfg.trials,
        ci_low=low,
        ci_high=high,
        p_fail_proven=stagnated / cfg.trials,
        p_fail_with_undecided=(stagnated + undecided) / cfg.trials,
        mean_success_gen=float(gens.mean()) if gens.size else math.nan,
        median_success_gen=float(np.median(gens)) if gens.size else math.nan,
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class ScalingRow:
    """One runtime-scaling table row; statistics are over successful trials only."""

    n: int
    mean_success_generations: float
    std: float
    successes: int
    low_success: bool


#: Rows with fewer successes than this are emitted but flagged.
MIN_RELIABLE_SUCCESSES = 30


def runtime_scaling(kind: AlgorithmKind, w: int, ns: list[int], trials: int,
                    master_seed: int = 0, budget: int | None = None) -> list[ScalingRow]:
    """Mean successful-trial generations per problem size.

    Only non-negative weights carry an optimization-time claim; negative
    weights are rejected.  Each n runs under its own derived master seed and
    (unless overridden) the default 100 n ln n budget.
    """
    check_weight(w)
    check_seed(master_seed)
    if w < 0:
        raise ValueError(f"runtime scaling is defined for w >= 0 only, got {w}")
    rows = []
    for n in ns:
        cfg = ExperimentConfig(kind=kind, n=n, w=w, trials=trials,
                               budget=budget if budget is not None else default_budget(n),
                               master_seed=split_seed(master_seed, n))
        gens = np.asarray([g for status, _, g in _run_trials(cfg)
                           if status == TrialStatus.OPTIMUM.value], dtype=float)
        mean = float(gens.mean()) if gens.size else math.nan
        std = float(gens.std(ddof=1)) if gens.size > 1 else math.nan
        rows.append(ScalingRow(n=n, mean_success_generations=mean, std=std,
                               successes=int(gens.size),
                               low_success=gens.size < MIN_RELIABLE_SUCCESSES))
    return rows
