"""Exact absorption analysis of the single-parent algorithms.

Both mutation operators and the fitness are exchangeable over positions 2..n,
so the full chain over (stored first bit, current bitstring) lumps exactly to
4n states (stored first bit, current first bit, ones among positions 2..n).
A lumped row is sparse: the accepted window of one row of an offspring table
built once per (kind, n), the only place RLS and the (1+1) EA differ, plus
the rejected mass.  Level by level in fitness order, the chains are solved
for absorption probabilities (optimum vs each proven stagnation event) and
expected generations to the optimum given success (the Doob h-transform).
A brute-force full-state chain validates the lumping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import gammaln

from .core import check_length, check_weight

#: Absorbing classes, in fixed column order.
CLASS_NAMES = ("optimum", "event1", "event2", "event3")

#: Full-state (unlumped) chains are enumerable up to this length.
BRUTE_FORCE_MAX_N = 12

_SOLVE_RESIDUAL_TOL = 1e-10
_HIT_RESIDUAL_TOL = 1e-8
_ABSORB_MASS_TOL = 1e-8
_PROB_RANGE_TOL = 1e-12
_ROW_SUM_TOL = 1e-10
_CHUNK = 1 << 18  # stored entries per group of panels in the vectorised solver pass
# states per panel, a run of whole levels solved as one dense block; OpenBLAS
# threads solves from 100 x 100 up, which costs more than it saves at this size
_PANEL = 64


def lumped_index(prev_first: int, cur_first: int, k: int, n: int) -> int:
    return (prev_first * 2 + cur_first) * n + k


def _binomial_logpmf(m, k, p: float):
    return (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
            + k * math.log(p) + (m - k) * math.log1p(-p))


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf over 0..m, computed through log-factorials so that
    no term overflows even for m in the thousands."""
    return np.exp(_binomial_logpmf(m, np.arange(m + 1), p))


def initial_distribution(n: int) -> np.ndarray:
    """Lumped law of uniform initialization: stored bit and current first bit
    fair coins, tail ones Binomial(n-1, 1/2), all independent.  Divided by
    its sum: the log-factorial pmf alone misses 1 by up to 5e-12 at n = 10**4."""
    check_length(n)
    pi = np.tile(0.25 * binomial_pmf(n - 1, 0.5), 4)
    return pi / pi.sum()


def _require_single_parent(kind, n: int):
    if not kind.single_parent:
        raise ValueError(f"exact chains exist for single-parent kinds only, got {kind.name!r}")
    check_length(n)


@functools.lru_cache(maxsize=2)
def _offspring_table(kind, n: int):
    """(lo, same, flip): same[k, j] (flip[k, j]) is the probability that a
    parent with k tail ones has an offspring that keeps (flips) its first bit
    and has k' = k - lo + j tail ones (0 where k' is out of range).  One-bit
    mutation flips one of the n bits.  Bit-wise mutation flips the first bit
    with probability 1/n, and the tail gains Bin(n-1-k, 1/n) up-flips minus
    Bin(k, 1/n) down-flips, each cut at D = 1 + the last index where
    Bin(n-1, 1/n) is nonzero in double precision: at a fixed count the pmf
    does not decrease in m <= n-1, so every later term is exactly 0 anyway.

    The table depends on (kind, n) alone, so the last two are cached, as
    read-only arrays: 16 n (2D - 1) bytes for a bit-wise table."""
    k = np.arange(n)[:, None]
    if kind.name == "rls":
        lo = 1
        same = np.hstack([k / n, np.zeros((n, 1)), (n - 1 - k) / n])
        flip = np.tile([0.0, 1.0 / n, 0.0], (n, 1))
    else:
        inv_n = 1.0 / n
        D = 1 + int(np.flatnonzero(binomial_pmf(n - 1, inv_n))[-1])
        up = np.zeros((n, 3 * D - 2))
        up[:, D - 1:2 * D - 1] = np.exp(_binomial_logpmf(n - 1 - k, np.arange(D), inv_n))
        # k' - k = u - d: sum over d of P(d down-flips) * P(u = k' - k + d up-flips)
        tail = np.einsum("kjd,kd->kj", np.lib.stride_tricks.sliding_window_view(up, D, axis=1),
                         np.exp(_binomial_logpmf(k, np.arange(D), inv_n)))
        lo, same, flip = D - 1, (1.0 - inv_n) * tail, inv_n * tail
    same.flags.writeable = flip.flags.writeable = False
    return lo, same, flip


def _select_rows(vals, cols, rejected: np.ndarray, states: np.ndarray):
    """CSR pieces (data, indices, counts) of rows moving to cols[i, j] with
    accepted mass vals[i, j] and keeping their rejected mass on states[i],
    divided by their sums (float dust costs accuracy); zeros are dropped."""
    cols = np.broadcast_to(cols, vals.shape)
    own = cols == states[:, None]
    has_own = own.any(axis=1)
    vals = np.hstack([vals, np.where(has_own, 0.0, rejected)[:, None]])
    vals[:, :-1][own] += rejected[has_own]
    cols = np.hstack([cols, states[:, None]], dtype=np.int32)
    vals /= vals.sum(axis=1, keepdims=True)
    keep = vals > 0.0
    return vals[keep], cols[keep], keep.sum(axis=1)


def _csr(blocks, size: int) -> sparse.csr_array:
    data, indices, counts = zip(*blocks)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    indptr = indptr.astype(np.int32) if indptr[-1] < 2**31 else indptr
    return sparse.csr_array((np.concatenate(data), np.concatenate(indices), indptr),
                            shape=(size, size))


def _lumped_rows(kind, w: int, n: int) -> sparse.csr_array:
    """Lumped rows, CSR.  Offspring (c', k') of state (p, c, k) is accepted
    iff c' + k' + w * c >= c + k + w * p, giving (c, c', k'): the columns
    j >= lo + c - c' + w * (p - c) of table row k; rejected mass stays."""
    _require_single_parent(kind, n)
    w = check_weight(w)
    lo, same, flip = _offspring_table(kind, n)
    width, k, blocks = same.shape[1], np.arange(n), []
    for p, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t, u = (min(max(lo + c - cp + w * (p - c), 0), width) for cp in (c, 1 - c))
        cols = [(2 * c + cp) * n + k[:, None] - lo + np.arange(v, width)
                for cp, v in ((c, t), (1 - c, u))]
        blocks.append(_select_rows(np.hstack([same[:, t:], flip[:, u:]]), np.hstack(cols),
                                   same[:, :t].sum(axis=1) + flip[:, :u].sum(axis=1),
                                   lumped_index(p, c, k, n)))
    return _csr(blocks, 4 * n)


def build_transition_matrix(kind, w: int, n: int) -> np.ndarray:
    """Dense 4n x 4n view of the sparse lumped rows that the solvers use."""
    return _lumped_rows(kind, w, n).toarray()


def state_classes(kind, w: int, n: int) -> np.ndarray:
    """Absorbing class per lumped state: CLASS_NAMES index, or -1 if transient.

    The absorbing set is exactly the optimum states plus the classified
    stagnation events -- nothing speculative.  The masks restate, over all
    (p, c, k) at once, the proven patterns of ``stagnation.classify_lumped``
    and the optimum test of ``core.is_global_optimum``.
    """
    _require_single_parent(kind, n)
    w = check_weight(w)
    pc, k = np.divmod(np.arange(4 * n), n)
    p, c = np.divmod(pc, 2)
    rls = kind.name == "rls"
    cls = np.full(4 * n, -1, dtype=np.int64)
    if w < 0:
        # event1: (0, 1), not all ones, and under bit-wise mutation k >= w + n
        cls[(p == 0) & (c == 1) & (k <= n - 2) & (w <= -2) & (rls | (k >= w + n))] = 1
        # event2: (1, 1), all ones
        cls[(p == 1) & (c == 1) & (k == n - 1)] = 2
    elif w > 0:
        # event3: (1, 0), for every w > 1 under one-bit mutation, else k >= n - w + 1
        cls[(p == 1) & (c == 0) & ((w > 1) if rls else (k >= n - w + 1))] = 3
    cls[(c + k == n) & ((w == 0) | (p == int(w > 0)))] = 0
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
        """Sum of the event-class masses: 1 - p_optimum would cancel when the
        failure probability is small."""
        return sum(self.overall[name] for name in CLASS_NAMES[1:])


def _solve_levels(P, fitness: np.ndarray, unknown: np.ndarray,
                  x: np.ndarray, chain: str, b: float = 0.0,
                  h: np.ndarray | None = None) -> np.ndarray:
    """Solve esc_i x_i - sum_{j != i} P_ij g_ij x_j = b for every state i in
    ``unknown`` (P sparse or dense), where esc_i = sum_{j != i} P_ij,
    g_ij = h_j / h_i under the Doob transform ``h`` (else 1), and ``x``
    holds the known values outside ``unknown`` and zeros on it.

    No accepted move lowers the fitness, so I - Q is block triangular in
    fitness order.  Sorted by descending fitness, a level's rows are one
    contiguous slice, and runs of whole levels of about _PANEL states form
    panels; their boundaries depend on the levels alone.  x is filled in
    place one panel at a time, from the top: one gather of the known values
    gives the panel's right-hand side, and one dense solve of its I - Q
    (block triangular itself) gives its values.  Row masses and panel
    entries are vectorised over groups of whole panels of about _CHUNK
    stored entries.  The diagonal is the direct sum of off-diagonal mass,
    not 1 - P_ii, which cancels to zero at deep quasi-traps; rows are scaled
    by it (the embedded jump chain), and each row's residual is checked
    there, or under ``h`` on (I - Qh) x = b.  Refusals name the highest
    failing level, checked in this order: a state without escape mass, mass
    on a lower level (back-substitution would drop it), a singular level
    block, a residual over the tolerance (or NaN)."""
    tol = _SOLVE_RESIDUAL_TOL if h is None else _HIT_RESIDUAL_TOL
    P = sparse.csr_array(P)
    order = unknown[np.argsort(-fitness[unknown], kind="stable")]
    starts = np.flatnonzero(np.diff(fitness[order], prepend=np.inf, append=-np.inf))
    # a panel opens at the first level starting at or past each multiple of _PANEL
    panels = np.append(starts[:-1][np.diff(starts[:-1] // _PANEL, prepend=-1) > 0], order.size)
    pos, panel_of = np.full(fitness.size, -1), np.full(fitness.size, -1)
    pos[order] = np.arange(order.size)
    panel_of[order] = np.repeat(np.arange(panels.size - 1), np.diff(panels))
    level_of = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    filled = np.cumsum(np.diff(P.indptr)[order])[panels[1:] - 1]
    groups = np.flatnonzero(np.diff(filled // _CHUNK, prepend=-1)).tolist() + [panels.size - 1]
    for g0, g1 in zip(groups[:-1], groups[1:]):
        s0 = panels[g0]
        own = order[s0:panels[g1]]
        R = P[own]
        ptr, cols, vals = R.indptr, R.indices, R.data
        row = np.repeat(np.arange(own.size), np.diff(ptr))
        other = cols != own[row]
        vals[~other] = 0.0
        fit, fc = fitness[own], fitness[cols]
        up = fc >= fit[row]
        esc = np.bincount(row, vals, own.size)
        lower = np.bincount(row[~up], vals[~up], own.size)
        bad = np.flatnonzero((esc <= 0.0) | (lower > 0.0))
        if h is not None:
            vals *= h[cols] / h[own][row]
        scale = np.where(esc > 0.0, esc, 1.0)
        # row i of its panel's scaled I - Q: -P_ij g_ij / esc_i at the same or a
        # higher level of the panel, esc_i / esc_i = 1 on the diagonal
        i = np.flatnonzero((panel_of[cols] == panel_of[own][row]) & up & other)
        a_row, a_col, a_val = row[i], pos[cols[i]] - s0, -vals[i] / scale[row[i]]
        for p0, p1 in zip((panels[g0:g1] - s0).tolist(), (panels[g0 + 1:g1 + 1] - s0).tolist()):
            e0, e1 = ptr[p0], ptr[p1]
            terms = np.take(x, cols[e0:e1], axis=0)
            terms *= vals[e0:e1, None]
            rhs = (b + np.add.reduceat(terms, ptr[p0:p1] - e0)) / scale[p0:p1, None]
            i0, i1 = np.searchsorted(a_row, (p0, p1))
            A = np.zeros((p1 - p0, p1 - p0))
            A[a_row[i0:i1] - p0, a_col[i0:i1] - p0] = a_val[i0:i1]
            A.flat[::p1 - p0 + 1] = 1.0
            fails, singular = [], None
            if (j := np.searchsorted(bad, p0)) < bad.size and bad[j] < p1:
                fails.append((level_of[s0 + bad[j]], 0))
            try:
                x[own[p0:p1]] = sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError as exc:
                # A is block triangular: name its first singular level block
                singular, v0 = exc, level_of[s0 + p0]
                q = (starts[v0:level_of[s0 + p1 - 1] + 2] - s0 - p0).tolist()
                fails.append((v0 + next((k for k, (q0, q1) in enumerate(zip(q[:-1], q[1:]))
                                         if np.linalg.det(A[q0:q1, q0:q1]) == 0.0), 0), 1))
            else:
                residual = np.abs(A @ sol - rhs).max(axis=1) * (1.0 if h is None else esc[p0:p1])
                if (over := np.flatnonzero(~(residual <= tol))).size:
                    fails.append((level_of[s0 + p0 + over[0]], 2))
            if not fails:
                continue
            v, why = min(fails)
            r0, r1 = starts[v] - s0, starts[v + 1] - s0
            level, e, d, f = own[r0:r1], esc[r0:r1], lower[r0:r1], fit[r0]
            if why == 0 and e.min() <= 0.0:
                raise RuntimeError(f"{chain}: transient state {level[e.argmin()]} (fitness {f}) "
                                   f"has no representable escape probability (escape mass "
                                   f"{e.min():.3g}); the chain does not absorb from it in "
                                   "double precision")
            if why == 0:
                raise RuntimeError(f"{chain}: transient state {level[d.argmax()]} (fitness {f}) "
                                   f"moves to a lower fitness with probability {d.max():.3g}")
            if why == 1:
                raise RuntimeError(f"{chain}: transient block at fitness {f} is singular: "
                                   "some states never absorb") from singular
            raise RuntimeError(f"{chain}: solve residual {residual[r0 - p0:r1 - p0].max():.3g} "
                               f"at fitness {f} exceeds tolerance {tol:g}")
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
    """Validated lumped chain solved for absorption:
    (AbsorptionResult, sparse P, fitness per state, chain label)."""
    P = _lumped_rows(kind, w, n)
    w = check_weight(w)
    chain = f"{kind.name} n={n} w={w}"
    cls = state_classes(kind, w, n)
    pc, k = np.divmod(np.arange(4 * n), n)
    fitness = pc % 2 + k + w * (pc // 2)
    per = _solve_absorption(P, cls, fitness, chain)
    pi = initial_distribution(n)
    overall = {name: float(pi @ per[:, c]) for c, name in enumerate(CLASS_NAMES)}
    return AbsorptionResult(kind, w, n, cls, per, overall), P, fitness, chain


def absorption_probabilities(kind, w: int, n: int) -> AbsorptionResult:
    """Exact per-start and overall absorption probabilities on the lumped chain."""
    return _lumped_solution(kind, w, n)[0]


def brute_force_absorption(kind, w: int, n: int) -> AbsorptionResult:
    """Absorption on the unlumped chain over all 2 * 2**n full states.

    Used solely to validate the lumping, so its rows bypass the lumped code:
    a 2**n x 2**n offspring matrix read off the Hamming distance d (1/n at
    d = 1 for one-bit mutation, (1/n)^d (1 - 1/n)^(n-d) for bit-wise), then
    one selection step.  Results are aggregated back to lumped indexing,
    with the within-group spread reported."""
    _require_single_parent(kind, n)
    w = check_weight(w)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    B, X = 1 << n, np.arange(1 << n)
    ones, first = np.array([bin(v).count("1") for v in X], dtype=np.int64), X & 1
    dist = ones[X[:, None] ^ X]  # offspring law over bitstrings, from Hamming distances
    M = (dist == 1) / n if kind.name == "rls" else (1 / n) ** dist * (1 - 1 / n) ** (n - dist)
    del dist

    # states in order of stored bit, first bit, bitstring.  Offspring y of (prev, x)
    # is accepted iff ones(y) + w * x_1 >= ones(x) + w * prev, giving (x_1, y)
    rank = (X >> 1) + first * (B // 2)
    stored, x = np.repeat([0, 1], B), np.tile(np.r_[X[0::2], X[1::2]], 2)
    blocks = []
    for prev, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        xs = X[c::2]
        accepted = ones + w * c >= (ones[xs] + w * prev)[:, None]
        blocks.append(_select_rows(np.where(accepted, M[xs], 0.0), c * B + rank,
                                   np.where(accepted, 0.0, M[xs]).sum(axis=1),
                                   prev * B + rank[xs]))
    del M
    P = _csr(blocks, 2 * B)
    del blocks
    gidx = (2 * stored + first[x]) * n + ones[x] - first[x]
    cls = state_classes(kind, w, n)
    per_full = _solve_absorption(P, cls[gidx], ones[x] + w * stored,
                                 f"full-state {kind.name} n={n} w={w}")
    overall = {name: float(per_full[:, c].mean()) for c, name in enumerate(CLASS_NAMES)}

    # aggregate back to lumped indexing; exchangeability means every group is constant
    per_lumped = np.zeros((4 * n, len(CLASS_NAMES)))
    np.add.at(per_lumped, gidx, per_full)
    per_lumped /= np.bincount(gidx, minlength=4 * n)[:, None]
    spread = float(np.abs(per_full - per_lumped[gidx]).max())
    return AbsorptionResult(kind, w, n, cls, per_lumped, overall, lumping_spread=spread)


@dataclass(eq=False)
class HittingTimeResult:
    """Expected generations to reach the optimum, conditioned on reaching it.

    per_state[i] is NaN for states that never reach the optimum (stagnation
    states and transient states with zero optimum mass) and 0 for states that
    already are optima; ``overall`` conditions the uniform-initialization law
    on eventual success.  ``absorption`` is the solve the h-transform reads,
    the same result ``absorption_probabilities`` returns.
    """

    kind: object
    w: int
    n: int
    per_state: np.ndarray
    overall: float
    absorption: AbsorptionResult


def conditional_hitting_time(kind, w: int, n: int) -> HittingTimeResult:
    """Doob h-transform of the transient chain: reweight transitions by the
    optimum-absorption vector, then solve for expected steps to absorption."""
    absorption, P, fitness, chain = _lumped_solution(kind, w, n)
    cls, h = absorption.state_class, absorption.per_state[:, 0]
    pos = np.flatnonzero((cls < 0) & (h > 1e-12))
    times = _solve_levels(P, fitness, pos, np.zeros((4 * n, 1)), chain, b=1.0, h=h)[:, 0]
    unreached = cls != 0
    unreached[pos] = False
    times[unreached] = np.nan
    pi = initial_distribution(n)
    weights = pi * h
    reachable = weights > 0
    overall = float((weights[reachable] * times[reachable]).sum() / weights[reachable].sum())
    return HittingTimeResult(kind, absorption.w, n, times, overall, absorption)
