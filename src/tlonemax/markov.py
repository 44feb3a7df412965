"""Exact absorption analysis of the single-parent algorithms.

Both mutation operators and the fitness are exchangeable over positions 2..n,
so the full chain over (stored first bit, current bitstring) lumps exactly to
4n states (stored first bit, current first bit, ones among positions 2..n).
This module builds those lumped chains with exact transition probabilities
and solves them for per-start and overall absorption probabilities (optimum
vs each proven stagnation event) and for expected generations to the optimum
conditioned on reaching it (the Doob h-transform of the transient chain).

Every solve is a level-ordered back-substitution, the fitness-level method
used as a solver: an accepted move never lowers the state fitness
c + k + w * p, so I - Q is block triangular in fitness order, and each level
of the lumped chain holds at most 4 states.  A brute-force full-state chain
(every bitstring enumerated, solved the same way) validates the lumping at
small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import _is_optimum_parts, check_weight
from .stagnation import classify_lumped

#: Absorbing classes, in fixed column order.
CLASS_NAMES = ("optimum", "event1", "event2", "event3")

#: Full-state (unlumped) chains are enumerable up to this length.
BRUTE_FORCE_MAX_N = 12

_SOLVE_RESIDUAL_TOL = 1e-10
_HIT_RESIDUAL_TOL = 1e-8
_ABSORB_MASS_TOL = 1e-8
_PROB_RANGE_TOL = 1e-12
_ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class LumpedState:
    """Symmetry-reduced state: stored bit, current first bit, tail ones-count."""

    prev_first: int
    cur_first: int
    k: int


def lumped_index(prev_first: int, cur_first: int, k: int, n: int) -> int:
    return (prev_first * 2 + cur_first) * n + k


def state_from_index(idx: int, n: int) -> LumpedState:
    pc, k = divmod(idx, n)
    return LumpedState(pc // 2, pc % 2, k)


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf over 0..m, computed through log-factorials so that
    no term overflows even for m in the thousands."""
    if m == 0:
        return np.ones(1)
    k = np.arange(m + 1)
    logpmf = (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
              + k * math.log(p) + (m - k) * math.log1p(-p))
    return np.exp(logpmf)


def initial_distribution(n: int) -> np.ndarray:
    """Lumped law of uniform initialization: stored bit and current first bit
    fair coins, tail ones Binomial(n-1, 1/2), all independent."""
    pk = binomial_pmf(n - 1, 0.5)
    pi = np.empty(4 * n)
    for pc in range(4):
        pi[pc * n:(pc + 1) * n] = 0.25 * pk
    return pi


def _require_single_parent(kind):
    if not kind.single_parent:
        raise ValueError("exact chains exist for single-parent kinds only")


def transition_row(kind, w: int, n: int, s: LumpedState) -> np.ndarray:
    """Exact one-generation transition distribution out of ``s``.

    Rejected offspring mass stays on ``s``.  One-bit mutation yields at most
    n+1 nonzero entries; bit-wise mutation splits mass over the first bit
    (flip probability 1/n) times the exact convolution of the down-flip and
    up-flip binomial counts over positions 2..n.
    """
    _require_single_parent(kind)
    w = check_weight(w)
    p, c, k = s.prev_first, s.cur_first, s.k
    if not (0 <= k <= n - 1):
        raise ValueError(f"k must lie in [0..{n - 1}], got {k}")
    incumbent = c + k + w * p
    row = np.zeros(4 * n)
    self_idx = lumped_index(p, c, k, n)

    if kind.name == "rls":
        # first-bit flip
        if (1 - c) + k + w * c >= incumbent:
            row[lumped_index(c, 1 - c, k, n)] += 1.0 / n
        else:
            row[self_idx] += 1.0 / n
        # one of the k tail ones flips down
        if k > 0:
            if c + k - 1 + w * c >= incumbent:
                row[lumped_index(c, c, k - 1, n)] += k / n
            else:
                row[self_idx] += k / n
        # one of the n-1-k tail zeros flips up
        if k < n - 1:
            if c + k + 1 + w * c >= incumbent:
                row[lumped_index(c, c, k + 1, n)] += (n - 1 - k) / n
            else:
                row[self_idx] += (n - 1 - k) / n
        return row

    # bit-wise mutation: tail ones move k -> k' with the convolution of
    # Binomial(k, 1/n) down-flips and Binomial(n-1-k, 1/n) up-flips
    inv_n = 1.0 / n
    down = binomial_pmf(k, inv_n)
    up = binomial_pmf(n - 1 - k, inv_n)
    tail = np.convolve(down[::-1], up)  # index k' in [0..n-1]
    kp = np.arange(n)
    for cp, p_first in ((c, 1.0 - inv_n), (1 - c, inv_n)):
        accepted = (cp + kp + w * c) >= incumbent
        mass = p_first * tail
        base = lumped_index(c, cp, 0, n)
        row[base:base + n] += np.where(accepted, mass, 0.0)
        row[self_idx] += float(mass[~accepted].sum())
    # mathematically the row is exactly stochastic; dividing out the ~1e-15
    # float dust keeps absorption solves accurate at large n
    row /= row.sum()
    return row


def build_transition_matrix(kind, w: int, n: int) -> np.ndarray:
    """Row-stochastic 4n x 4n lumped transition matrix."""
    m = 4 * n
    P = np.empty((m, m))
    for idx in range(m):
        P[idx] = transition_row(kind, w, n, state_from_index(idx, n))
    return P


def state_classes(kind, w: int, n: int) -> np.ndarray:
    """Absorbing class per lumped state: CLASS_NAMES index, or -1 if transient.

    The absorbing set is exactly the optimum states plus the classified
    stagnation events -- nothing speculative.
    """
    _require_single_parent(kind)
    cls = np.full(4 * n, -1, dtype=np.int64)
    for idx in range(4 * n):
        s = state_from_index(idx, n)
        if _is_optimum_parts(w, s.prev_first, s.cur_first + s.k, n):
            cls[idx] = 0
        else:
            ev = classify_lumped(kind.name, w, n, s.prev_first, s.cur_first, s.k)
            if ev is not None:
                cls[idx] = CLASS_NAMES.index(ev.value)
    return cls


@dataclass(eq=False)
class AbsorptionResult:
    """Absorption probabilities of one chain.

    per_state[i, c] is the probability of ending in class CLASS_NAMES[c] when
    started from lumped state i; rows of absorbing states are one-hot.
    ``overall`` weights per_state by the uniform-initialization law (so a
    start that is already optimal or already stagnated counts at g = 0).
    ``lumping_spread`` (brute force only) is the largest deviation of any
    full state's absorption probability from its lumped group's mean.
    """

    kind: object
    w: int
    n: int
    state_class: np.ndarray
    per_state: np.ndarray
    overall: dict
    lumping_spread: float | None = None

    @property
    def p_optimum(self) -> float:
        return self.overall["optimum"]

    @property
    def p_failure(self) -> float:
        return 1.0 - self.overall["optimum"]


def _solve_levels(P: np.ndarray, fitness: np.ndarray, unknown: np.ndarray,
                  x: np.ndarray, chain: str, b: float = 0.0,
                  h: np.ndarray | None = None) -> np.ndarray:
    """Solve esc_i x_i - sum_{j != i} P_ij g_ij x_j = b for every state i in
    ``unknown``, where esc_i = sum_{j != i} P_ij, g_ij = h_j / h_i under the
    Doob transform ``h`` (else 1), and ``x`` holds the known values outside
    ``unknown`` and zeros on it.

    Accepted moves never lower the state fitness, so I - Q is block
    triangular in fitness order: x is filled in place one level at a time,
    from the top down, each level needing only the levels above it.  A row
    with mass on a lower level is refused, since back-substitution would
    drop that mass.  The diagonal is the direct sum of off-diagonal mass, not
    1 - P_ii, which would cancel to zero at deep quasi-traps; rows are then
    scaled by it, giving the well-conditioned embedded jump chain.  Each
    block's residual is checked on the scaled system, or under ``h`` on the
    unscaled (I - Qh) x = b, the norms the dense solves used.
    """
    tol = _SOLVE_RESIDUAL_TOL if h is None else _HIT_RESIDUAL_TOL
    f_unknown = fitness[unknown]
    for f in np.unique(f_unknown)[::-1]:
        level = unknown[f_unknown == f]
        diag = np.arange(level.size)
        rows = P[level]
        rows[diag, level] = 0.0
        esc = rows.sum(axis=1)
        if esc.min() <= 0.0:
            raise RuntimeError(
                f"{chain}: transient state {level[esc.argmin()]} (fitness {f}) has no "
                f"representable escape probability (escape mass {esc.min():.3g}); "
                "the chain does not absorb from it in double precision")
        down = rows @ (fitness < f)
        if down.max() > 0.0:
            raise RuntimeError(
                f"{chain}: transient state {level[down.argmax()]} (fitness {f}) moves "
                f"to a lower fitness with probability {down.max():.3g}")
        if h is not None:
            rows *= h[None, :] / h[level, None]
        A = -rows[:, level]
        A[diag, diag] = esc
        A /= esc[:, None]
        rhs = (b + rows @ x) / esc[:, None]
        try:
            x[level] = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"{chain}: transient block at fitness {f} is singular: "
                               "some states never absorb") from exc
        residual = np.abs(A @ x[level] - rhs) * (1.0 if h is None else esc[:, None])
        if residual.max() > tol:
            raise RuntimeError(f"{chain}: solve residual {residual.max():.3g} at "
                               f"fitness {f} exceeds tolerance {tol:g}")
    return x


def _solve_absorption(P: np.ndarray, cls: np.ndarray, fitness: np.ndarray,
                      chain: str) -> np.ndarray:
    """Per-state absorption probabilities for a chain with labelled classes."""
    per = np.zeros((P.shape[0], len(CLASS_NAMES)))
    absorbing = cls >= 0
    per[absorbing, cls[absorbing]] = 1.0
    tr = np.flatnonzero(~absorbing)
    mass = _solve_levels(P, fitness, tr, per, chain)[tr].sum(axis=1)
    if tr.size and mass.min() < 1.0 - _ABSORB_MASS_TOL:
        raise RuntimeError(
            f"{chain}: chain is not almost surely absorbed (transient absorption "
            f"mass {mass.min():.12f}); the dynamics model is inconsistent")
    sums_err = np.abs(per.sum(axis=1) - 1.0).max()
    if sums_err > _ROW_SUM_TOL:
        raise RuntimeError(f"{chain}: per-state class probabilities miss 1 by {sums_err:.3g}")
    if per.min() < -_PROB_RANGE_TOL or per.max() > 1.0 + _PROB_RANGE_TOL:
        raise RuntimeError(f"{chain}: absorption probabilities span [{per.min():.3g}, "
                           f"{per.max():.3g}], outside [0, 1] beyond tolerance")
    np.clip(per, 0.0, 1.0, out=per)
    return per


def _lumped_solution(kind, w: int, n: int):
    """Validated lumped chain: (w, label, P, classes, fitness, absorption)."""
    _require_single_parent(kind)
    w = check_weight(w)
    chain = f"{kind.name} n={n} w={w}"
    P = build_transition_matrix(kind, w, n)
    cls = state_classes(kind, w, n)
    pc, k = np.divmod(np.arange(4 * n), n)
    fitness = pc % 2 + k + w * (pc // 2)
    return w, chain, P, cls, fitness, _solve_absorption(P, cls, fitness, chain)


def absorption_probabilities(kind, w: int, n: int) -> AbsorptionResult:
    """Exact per-start and overall absorption probabilities on the lumped chain."""
    w, _, _, cls, _, per = _lumped_solution(kind, w, n)
    pi = initial_distribution(n)
    overall = {name: float(pi @ per[:, c]) for c, name in enumerate(CLASS_NAMES)}
    return AbsorptionResult(kind, w, n, cls, per, overall)


def _popcounts(n_bits: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(1 << n_bits)], dtype=np.int64)


def brute_force_absorption(kind, w: int, n: int) -> AbsorptionResult:
    """Absorption on the unlumped chain over all 2 * 2**n full states.

    Used solely to validate the lumping: results are aggregated back to
    lumped indexing, with the within-group spread reported.  One-bit rows are
    built by exhaustive offspring enumeration; bit-wise rows by the exact
    per-bit product formula.
    """
    _require_single_parent(kind)
    w = check_weight(w)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    B = 1 << n
    m = 2 * B
    ones = _popcounts(n)
    first = (np.arange(B) & 1).astype(np.int64)

    P = np.zeros((m, m))
    if kind.name == "rls":
        for prev in (0, 1):
            for x in range(B):
                row = prev * B + x
                incumbent = ones[x] + w * prev
                x1 = x & 1
                for i in range(n):
                    y = x ^ (1 << i)
                    if ones[y] + w * x1 >= incumbent:
                        P[row, x1 * B + y] += 1.0 / n
                    else:
                        P[row, row] += 1.0 / n
    else:
        inv_n = 1.0 / n
        xor = np.arange(B)[:, None] ^ np.arange(B)[None, :]
        dist = ones[xor]
        M = (inv_n ** dist) * ((1.0 - inv_n) ** (n - dist))
        X = np.arange(B)
        for prev in (0, 1):
            incumbent = ones + w * prev
            acc = (ones[None, :] + (w * first)[:, None]) >= incumbent[:, None]
            vals = np.where(acc, M, 0.0)
            rows = (prev * B + X)[:, None]
            cols = (first * B)[:, None] + X[None, :]
            np.add.at(P, (np.broadcast_to(rows, vals.shape), np.broadcast_to(cols, vals.shape)), vals)
            rejected = 1.0 - vals.sum(axis=1)
            P[prev * B + X, prev * B + X] += rejected
    P /= P.sum(axis=1, keepdims=True)

    cls_full = np.full(m, -1, dtype=np.int64)
    for prev in (0, 1):
        for x in range(B):
            idx = prev * B + x
            if _is_optimum_parts(w, prev, int(ones[x]), n):
                cls_full[idx] = 0
            else:
                ev = classify_lumped(kind.name, w, n, prev, int(x & 1), int(ones[x] - (x & 1)))
                if ev is not None:
                    cls_full[idx] = CLASS_NAMES.index(ev.value)
    per_full = _solve_absorption(P, cls_full, np.concatenate([ones, ones + w]),
                                 f"full-state {kind.name} n={n} w={w}")
    overall = {name: float(per_full[:, c].mean()) for c, name in enumerate(CLASS_NAMES)}

    # aggregate back to lumped indexing; exchangeability means every group is constant
    gidx = np.empty(m, dtype=np.int64)
    for prev in (0, 1):
        gidx[prev * B:(prev + 1) * B] = (prev * 2 + first) * n + (ones - first)
    per_lumped = np.zeros((4 * n, len(CLASS_NAMES)))
    spread = 0.0
    for lidx in range(4 * n):
        members = np.flatnonzero(gidx == lidx)
        if members.size == 0:
            continue
        group = per_full[members]
        mean = group.mean(axis=0)
        per_lumped[lidx] = mean
        spread = max(spread, float(np.abs(group - mean[None, :]).max()))
    return AbsorptionResult(kind, w, n, state_classes(kind, w, n), per_lumped, overall,
                            lumping_spread=spread)


@dataclass(eq=False)
class HittingTimeResult:
    """Expected generations to reach the optimum, conditioned on reaching it.

    per_state[i] is NaN for states that never reach the optimum (stagnation
    states and transient states with zero optimum mass) and 0 for states that
    already are optima; ``overall`` conditions the uniform-initialization law
    on eventual success.
    """

    kind: object
    w: int
    n: int
    per_state: np.ndarray
    overall: float


def conditional_hitting_time(kind, w: int, n: int) -> HittingTimeResult:
    """Doob h-transform of the transient chain: reweight transitions by the
    optimum-absorption vector, then solve for expected steps to absorption."""
    w, chain, P, cls, fitness, per = _lumped_solution(kind, w, n)
    h = per[:, 0]
    pos = np.flatnonzero((cls < 0) & (h > 1e-12))
    times = _solve_levels(P, fitness, pos, np.zeros((4 * n, 1)), chain, b=1.0, h=h)[:, 0]
    unreached = cls != 0
    unreached[pos] = False
    times[unreached] = np.nan
    pi = initial_distribution(n)
    weights = pi * h
    reachable = weights > 0
    overall = float((weights[reachable] * times[reachable]).sum() / weights[reachable].sum())
    return HittingTimeResult(kind, w, n, times, overall)
