"""Exact, exhaustive verification of the standalone checkable facts.

Three independently checkable statements back the rest of the package:

* mutation facts -- conditional on a fitness gain, one-bit and bit-wise
  mutation almost always gain exactly one, and each particular zero is
  flipped with probability at least 1/a (a = zeros count); checked by exact
  rational probability computation, never sampling.
* selection equivalence -- below weight -n, the acceptance comparison between
  consecutive solutions is the same for every weight; checked exhaustively at
  small n and on sampled triples at larger n.
* rank equivalence -- for population fitness ranking, all weights <= -n give
  identical rank vectors; checked on random population pairs.

Each check returns a LemmaReport carrying the worst-case margin: how close
any instance came to violating the inequality (exact-equality instances that
the statements themselves force have margin exactly 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import _integer, check_count, check_length, check_seed

MUTATION_FACTS_MAX_N = 16
SELECTION_EXHAUSTIVE_MAX_N = 6


@dataclass
class LemmaReport:
    """Outcome of one verification sweep over a parameter grid."""

    lemma: str
    grid: dict
    passed: bool
    worst_margin: float
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("a failing report must carry a counterexample")


def _binomial_pmf_exact(m: int, p: Fraction) -> list[Fraction]:
    q = 1 - p
    return [math.comb(m, t) * p**t * q**(m - t) for t in range(m + 1)]


def check_mutation_facts(n: int) -> LemmaReport:
    """Exact check of the two mutation facts for every zeros-count a in [1..n].

    For Y mutated from X with a zeros (X not all ones), both operators satisfy
    (a) P(gain exactly 1 | gain) > 1 - e*a/n and (b) P(a fixed zero flips |
    gain exactly 1) >= 1/a.  One-bit mutation attains (b) with equality for
    every a, bit-wise mutation at a in {1, n}; those zero margins are forced
    and reported in details["tight_b_instances"].
    """
    n = _integer("n", n)
    if not 2 <= n <= MUTATION_FACTS_MAX_N:
        raise ValueError(f"n must lie in [2..{MUTATION_FACTS_MAX_N}], got {n}")
    p = Fraction(1, n)
    worst_a = math.inf
    worst_b = math.inf
    worst_b_strict = math.inf
    tight_b = []
    counterexample = None
    for a in range(1, n + 1):
        for op in ("rls", "ea"):
            if op == "rls":
                cond_gain1 = Fraction(1)     # one flip changes the count by exactly 1
                cond_zero = Fraction(1, a)   # the flipped position is uniform over zeros
            else:
                up = _binomial_pmf_exact(a, p)        # zeros flipped to one
                down = _binomial_pmf_exact(n - a, p)  # ones flipped to zero
                p_gain1 = sum(down[i] * up[i + 1] for i in range(min(n - a, a - 1) + 1))
                p_gain = sum(down[i] * up[j] for i in range(n - a + 1)
                             for j in range(i + 1, a + 1))
                cond_gain1 = p_gain1 / p_gain
                # E[zeros flipped | gain exactly 1] / a
                mean_up = sum(down[i] * up[i + 1] * (i + 1)
                              for i in range(min(n - a, a - 1) + 1)) / p_gain1
                cond_zero = mean_up / a
            margin_a = float(cond_gain1) - (1.0 - math.e * a / n)
            margin_b_frac = cond_zero - Fraction(1, a)
            margin_b = float(margin_b_frac)
            if margin_a <= 0 or margin_b_frac < 0:
                counterexample = {"operator": op, "a": a,
                                  "cond_gain1": float(cond_gain1),
                                  "cond_zero": float(cond_zero)}
            worst_a = min(worst_a, margin_a)
            worst_b = min(worst_b, margin_b)
            if margin_b_frac == 0:
                tight_b.append((op, a))
            else:
                worst_b_strict = min(worst_b_strict, margin_b)
    return LemmaReport(
        lemma="mutation-facts",
        grid={"n": n, "a": [1, n], "operators": ["rls", "ea"]},
        passed=counterexample is None,
        worst_margin=min(worst_a, worst_b),
        counterexample=counterexample,
        details={"worst_margin_gain1": worst_a,
                 "worst_margin_zero_flip": worst_b,
                 "worst_margin_zero_flip_strict_part": worst_b_strict,
                 "tight_b_instances": tight_b},
    )


def _int_slack(d: np.ndarray) -> int:
    """Distance of integer comparison values from flipping the >= 0 outcome."""
    return int(np.where(d >= 0, d + 1, -d).min())


def check_selection_equivalence(n: int, extra_weights: list[int],
                                samples: int = 10**6, seed: int = 0) -> LemmaReport:
    """Acceptance-order equivalence of weights below -n.

    For solutions triples (x, y, z), compares the acceptance predicate
    "w*x1 + |y| <= w*y1 + |z|" under the baseline weight -n against every
    extra weight (all must be < -n; anything >= -n is rejected, where the
    equivalence genuinely breaks).  The predicate depends on (x1, y1, |y|,
    |z|) only; up to n=6 all 2**(3n) triples are enumerated directly, above
    that ``samples`` uniform triples are drawn.
    """
    n = check_length(n)
    extra_weights = [_integer("extra weight", w) for w in extra_weights]
    check_seed(seed)
    samples = check_count("samples", samples)
    for w in extra_weights:
        if w >= -n:
            raise ValueError(f"extra weights must be < -n = {-n}, got {w}")
    if n <= SELECTION_EXHAUSTIVE_MAX_N:
        values = np.arange(1 << n)
        first = (values & 1).astype(np.int64)
        ones = np.array([bin(v).count("1") for v in values], dtype=np.int64)
        x1 = first[:, None, None]
        y1 = first[None, :, None]
        oy = ones[None, :, None]
        oz = ones[None, None, :]
        mode = {"exhaustive_triples": int(1 << (3 * n))}
    else:
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 2, size=samples)
        y_bits_first = rng.integers(0, 2, size=samples)
        y1 = y_bits_first
        oy = y_bits_first + rng.binomial(n - 1, 0.5, size=samples)
        oz = rng.binomial(n, 0.5, size=samples)
        mode = {"sampled_triples": samples, "seed": seed}

    def diff(w):
        return (w * y1 + oz) - (w * x1 + oy)

    d_base = diff(-n)
    acc_base = d_base >= 0
    worst = _int_slack(d_base)
    counterexample = None
    pattern_01 = (x1 == 0) & (y1 == 1)
    zero_01 = not np.any(acc_base & pattern_01)
    for w in extra_weights:
        d_w = diff(w)
        acc_w = d_w >= 0
        mismatch = acc_base != acc_w
        if np.any(mismatch):
            idx = np.unravel_index(np.flatnonzero(mismatch)[0], mismatch.shape)
            bx1, by1 = np.broadcast_to(x1, mismatch.shape), np.broadcast_to(y1, mismatch.shape)
            boy, boz = np.broadcast_to(oy, mismatch.shape), np.broadcast_to(oz, mismatch.shape)
            counterexample = {"w": w, "x1": int(bx1[idx]), "y1": int(by1[idx]),
                              "ones_y": int(boy[idx]), "ones_z": int(boz[idx])}
            break
        worst = min(worst, _int_slack(d_w))
        zero_01 = zero_01 and not np.any(acc_w & pattern_01)
    return LemmaReport(
        lemma="selection-equivalence",
        grid={"n": n, "base_weight": -n, "extra_weights": extra_weights, **mode},
        passed=counterexample is None,
        worst_margin=float(worst) if counterexample is None else 0.0,
        counterexample=counterexample,
        details={"no_01_pattern_acceptance": bool(zero_01)},
    )


def check_rank_equivalence(n: int, M: int, samples: int, weights: list[int],
                           seed: int = 0) -> LemmaReport:
    """Identical population fitness ranks for all weights <= -n.

    Draws ``samples`` random population pairs (stored solutions, current
    solutions) of size M, ranks members by fitness under each weight (ties
    share a rank), and asserts the rank vectors agree across weights.  The
    margin is the smallest fitness gap between distinctly ranked members.
    """
    from scipy.stats import rankdata  # imported here: scipy.stats takes about 1 s to load

    n = check_length(n)
    weights = [_integer("weight", w) for w in weights]
    check_seed(seed)
    M, samples = check_count("M", M), check_count("samples", samples)
    for w in weights:
        if w > -n:
            raise ValueError(f"weights must be <= -n = {-n}, got {w}")
    if len(weights) < 2:
        raise ValueError("need at least two weights to compare")
    rng = np.random.default_rng(seed)
    stored = rng.integers(0, 2, size=(samples, M, n), dtype=np.uint8)
    current = rng.integers(0, 2, size=(samples, M, n), dtype=np.uint8)
    x1 = stored[:, :, 0].astype(np.int64)
    oy = current.sum(axis=2, dtype=np.int64)

    ranks_base = None
    worst = math.inf
    counterexample = None
    for w in weights:
        fits = oy + w * x1
        ranks = rankdata(fits, axis=1, method="min")
        if ranks_base is None:
            ranks_base = ranks
        elif not np.array_equal(ranks_base, ranks):
            bad = int(np.flatnonzero((ranks_base != ranks).any(axis=1))[0])
            counterexample = {"w": w, "sample": bad,
                              "fitness": fits[bad].tolist(),
                              "ranks": ranks[bad].tolist(),
                              "base_ranks": ranks_base[bad].tolist()}
            break
        if M > 1:
            srt = np.sort(fits, axis=1)
            gaps = np.diff(srt, axis=1)
            nz = gaps[gaps > 0]
            if nz.size:
                worst = min(worst, int(nz.min()))
    if worst is math.inf:
        worst = 1  # all ties everywhere: rank identity holds with unit slack
    return LemmaReport(
        lemma="rank-equivalence",
        grid={"n": n, "M": M, "samples": samples, "weights": weights, "seed": seed},
        passed=counterexample is None,
        worst_margin=float(worst) if counterexample is None else 0.0,
        counterexample=counterexample,
    )
