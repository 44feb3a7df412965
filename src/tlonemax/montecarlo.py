"""Trial execution at scale: probability estimates with Wilson intervals and
runtime-scaling tables.

Trials are embarrassingly parallel; trial i always runs with the seed derived
from (master_seed, i), and aggregation is order-independent, so results are
identical at any worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algorithms import AlgorithmKind, TrialStatus, run_trial, split_seed
from .core import check_weight


def default_budget(n: int) -> int:
    """100 * n * ln(n) generations: an order of magnitude above the expected
    conditional optimization time."""
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
        check_weight(self.w)
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


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
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 <= k <= N:
        raise ValueError("k must lie in [0..N]")
    if z <= 0:
        raise ValueError("z must be positive")
    phat = k / N
    z2 = z * z
    denom = 1.0 + z2 / N
    center = (phat + z2 / (2 * N)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / N + z2 / (4.0 * N * N)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _trial_summary(args) -> tuple[str, str | None, int]:
    kind_name, mu, w, n, budget, seed = args
    out = run_trial(AlgorithmKind(kind_name, mu), w, n, budget, seed)
    return (out.status.value, out.event.value if out.event is not None else None,
            out.generations)


def _run_trials(cfg: ExperimentConfig, workers: int) -> list:
    """Summaries of cfg's trials in trial order, serially or on a process pool."""
    args = [(cfg.kind.name, cfg.kind.mu, cfg.w, cfg.n, cfg.budget,
             split_seed(cfg.master_seed, i)) for i in range(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_trial_summary, args,
                                 chunksize=max(1, cfg.trials // (8 * workers))))
    return [_trial_summary(a) for a in args]


def estimate(cfg: ExperimentConfig, workers: int = 1, z: float = 1.96) -> EstimateResult:
    """Run cfg.trials independent seeded trials and aggregate.

    The result is byte-identical for identical configs at any ``workers``
    value (wall time aside); per-trial errors propagate, nothing partial is
    returned.
    """
    t0 = time.perf_counter()
    summaries = _run_trials(cfg, workers)
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
    low, high = wilson_ci(successes, cfg.trials, z)
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
                    master_seed: int = 0, budget: int | None = None,
                    workers: int = 1) -> list[ScalingRow]:
    """Mean successful-trial generations per problem size.

    Only non-negative weights carry an optimization-time claim; negative
    weights are rejected.  Each n runs under its own derived master seed and
    (unless overridden) the default 100 n ln n budget.
    """
    check_weight(w)
    if w < 0:
        raise ValueError("runtime scaling is defined for w >= 0 only")
    rows = []
    for n in ns:
        cfg = ExperimentConfig(kind=kind, n=n, w=w, trials=trials,
                               budget=budget if budget is not None else default_budget(n),
                               master_seed=split_seed(master_seed, n))
        gens = np.asarray([g for status, _, g in _run_trials(cfg, workers)
                           if status == TrialStatus.OPTIMUM.value], dtype=float)
        mean = float(gens.mean()) if gens.size else math.nan
        std = float(gens.std(ddof=1)) if gens.size > 1 else math.nan
        rows.append(ScalingRow(n=n, mean_success_generations=mean, std=std,
                               successes=int(gens.size),
                               low_success=gens.size < MIN_RELIABLE_SUCCESSES))
    return rows
