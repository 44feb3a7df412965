"""Exact absorption analysis of the single-parent algorithms.

Both mutation operators and the fitness are exchangeable over positions 2..n,
so the full chain over (stored first bit, current bitstring) lumps exactly to
4n states (stored first bit, current first bit, ones among positions 2..n).
A lumped row is sparse: the accepted window of one row of an offspring table
built once per (kind, n), the only place RLS and the (1+1) EA differ, plus
the rejected mass.  Rows are made from the table when the solver asks for
them, a group of levels at a time, so the whole chain is never stored.
Level by level in fitness order, the chains are solved for absorption
probabilities (optimum vs each proven stagnation event) and, in the same
pass, expected generations to the optimum given success.  A brute-force
full-state chain, stored whole, validates the lumping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .core import check_length, check_weight
from .stagnation import StagnationEvent, class_codes, lumped_index

#: Absorbing classes, in fixed column order: the class codes of
#: ``stagnation.class_codes``.
CLASS_NAMES = ("optimum", *(event.value for event in StagnationEvent))

#: Full-state (unlumped) chains are enumerable up to this length.
BRUTE_FORCE_MAX_N = 12

_SOLVE_TOL = 1e-12  # normwise relative backward error of each solved column
_PROB_RANGE_TOL = 1e-12
_ROW_SUM_TOL = 1e-10
_CHUNK = 1 << 16  # row entries per group of panels in the vectorised solver pass
# states per panel, a run of whole levels solved as one dense block; OpenBLAS
# threads solves from 100 x 100 up, which costs more than it saves at this size
_PANEL = 64


def _binomial_logpmf(m, k, p: float):
    """log P(Bin(m, p) = k) over arrays m and k broadcast; -inf where k > m."""
    m, k = np.asarray(m), np.asarray(k)
    logfact = np.array([math.lgamma(i + 1) for i in range(max(m.max(), k.max()) + 1)])
    rest = m - k
    fits = rest >= 0
    rest[~fits] = 0  # in place: one temporary of the broadcast shape fewer
    return np.where(fits, logfact[m] - logfact[k] - logfact[rest]
                    + k * math.log(p) + rest * math.log1p(-p), -np.inf)


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
        del up
        # same is tail scaled in place, so at most two n x (2D - 1) arrays live
        lo, flip = D - 1, inv_n * tail
        same = np.multiply(tail, 1.0 - inv_n, out=tail)
    same.flags.writeable = flip.flags.writeable = False
    return lo, same, flip


def _select_rows(vals, cols, rejected: np.ndarray, states: np.ndarray):
    """Pieces (vals, cols, counts) of rows moving to cols[i, j] with
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


def _stack(blocks):
    """Rows (ptr, cols, vals) of the _select_rows blocks, in block order: row
    i's entries are cols[ptr[i]:ptr[i + 1]] and vals[ptr[i]:ptr[i + 1]]."""
    vals, cols, counts = (np.concatenate(part) for part in zip(*blocks))
    return np.concatenate([[0], np.cumsum(counts)]), cols, vals


def _take_rows(ptr, cols, vals, rows: np.ndarray):
    """(ptr, cols, vals) of the given rows of stored rows, in that order."""
    start, counts = ptr[rows], ptr[rows + 1] - ptr[rows]
    out = np.concatenate([[0], np.cumsum(counts)])
    take = np.repeat(start - out[:-1], counts) + np.arange(out[-1])
    return out, cols[take], vals[take]


class _RowSource(NamedTuple):
    """Rows of a chain on demand: rows(states) is their (ptr, cols, vals), in
    the order asked (see _stack), and sizes[i] bounds row i's entries."""

    rows: Callable[[np.ndarray], tuple]
    sizes: np.ndarray


def _lumped_row_builder(kind, w: int, n: int) -> _RowSource:
    """Lumped rows, built per call for the states asked, so no solve stores
    the whole chain.  Offspring (c', k') of state (p, c, k) is accepted iff
    c' + k' + w * c >= c + k + w * p, giving (c, c', k'): the columns
    j >= lo + c - c' + w * (p - c) of table row k; rejected mass stays.  A
    row's entries and their order do not depend on which other states are
    asked for with it.  The table is fetched once, here."""
    _require_single_parent(kind, n)
    w = check_weight(w)
    lo, same, flip = _offspring_table(kind, n)
    width = same.shape[1]
    # (p, c) and the first accepted table column (t) for c' = c and (u) for c' = 1 - c
    windows = [(p, c, *(min(max(lo + c - cp + w * (p - c), 0), width) for cp in (c, 1 - c)))
               for p, c in ((0, 0), (0, 1), (1, 0), (1, 1))]

    def rows(states: np.ndarray) -> tuple:
        pc, k = np.divmod(states, n)
        picks, blocks = [], []
        for p, c, t, u in windows:
            picks.append(pick := np.flatnonzero(pc == 2 * p + c))
            kk = k[pick]
            cols = [(2 * c + cp) * n + kk[:, None] - lo + np.arange(v, width)
                    for cp, v in ((c, t), (1 - c, u))]
            blocks.append(_select_rows(np.hstack([same[kk, t:], flip[kk, u:]]), np.hstack(cols),
                                       same[kk, :t].sum(axis=1) + flip[kk, :u].sum(axis=1),
                                       lumped_index(p, c, kk, n)))
        # the blocks hold the rows in (p, c) order; put them in the order asked
        return _take_rows(*_stack(blocks), np.argsort(np.concatenate(picks)))

    sizes = np.repeat([2 * width - t - u + 1 for _, _, t, u in windows], n)
    return _RowSource(rows, sizes)


def build_transition_matrix(kind, w: int, n: int) -> np.ndarray:
    """Dense 4n x 4n view of the sparse lumped rows that the solvers use."""
    ptr, cols, vals = _lumped_row_builder(kind, w, n).rows(np.arange(4 * n))
    P = np.zeros((4 * n, 4 * n))
    P[np.repeat(np.arange(4 * n), np.diff(ptr)), cols] = vals
    return P


def state_classes(kind, w: int, n: int) -> np.ndarray:
    """Absorbing class per lumped state: CLASS_NAMES index, or -1 if transient.

    The absorbing set is exactly the optimum states plus the classified
    stagnation events of ``stagnation.class_codes`` -- nothing speculative.
    """
    _require_single_parent(kind, n)
    lumped = np.arange(4 * n)
    return class_codes(kind.name, check_weight(w), n, lumped // (2 * n), lumped // n % 2, lumped % n)


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


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused by name
def _solve_levels(P, fitness: np.ndarray, unknown: np.ndarray, x: np.ndarray, chain: str,
                  time_of: int | None = None) -> np.ndarray:
    """Solve esc_i x_i - sum_{j != i} P_ij x_j = 0 for every state i in
    ``unknown`` (P a _RowSource, or stored rows: a (ptr, cols, vals) triple
    or a dense array), where esc_i = sum_{j != i} P_ij and ``x`` holds the
    known values outside ``unknown`` and zeros on it.  With ``time_of`` = c,
    x's last column is y = E[T 1{class c}], whose right-hand side is x_ic.

    No accepted move lowers the fitness, so I - Q is block triangular in
    fitness order.  Sorted by descending fitness, a level's rows are one
    contiguous slice, and runs of whole levels of about _PANEL states form
    panels, cut by the levels alone.  x is filled in place one panel at a
    time, from the top: a gather of the known values gives the panel's
    right-hand side R, and dense solves of its I - Q (block triangular
    itself; y's last) give its values X.  Groups of whole panels of about
    _CHUNK entries by the row source's bounds have their rows fetched and
    vectorised together.  The diagonal is the direct sum of off-diagonal
    mass, not 1 - P_ii, which cancels to zero at deep quasi-traps; rows are
    scaled by it (the embedded jump chain).  Refusals name the highest
    failing level, checked in this order: a state without escape mass, mass
    on a lower level (back-substitution would drop it), a singular level
    block, a value past double precision, and a column's normwise backward
    error |A X - R| / (|A| |X| + |R|) over _SOLVE_TOL."""
    if not isinstance(P, _RowSource):  # stored rows, whose sizes are exact
        if isinstance(P, np.ndarray):
            r, c = np.nonzero(P)
            P = np.searchsorted(r, np.arange(P.shape[0] + 1)), c, P[r, c]
        P = _RowSource(functools.partial(_take_rows, *P), np.diff(P[0]))
    m = x.shape[1] - (time_of is not None)
    order = unknown[np.argsort(-fitness[unknown], kind="stable")]
    starts = np.flatnonzero(np.diff(fitness[order], prepend=np.inf, append=-np.inf))
    # a panel opens at the first level starting at or past each multiple of _PANEL
    panels = np.append(starts[:-1][np.diff(starts[:-1] // _PANEL, prepend=-1) > 0], order.size)
    pos, panel_of = np.full(fitness.size, -1), np.full(fitness.size, -1)
    pos[order] = np.arange(order.size)
    panel_of[order] = np.repeat(np.arange(panels.size - 1), np.diff(panels))
    level_of = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    filled = np.cumsum(P.sizes[order])[panels[1:] - 1]
    groups = np.flatnonzero(np.diff(filled // _CHUNK, prepend=-1)).tolist() + [panels.size - 1]
    for g0, g1 in zip(groups[:-1], groups[1:]):
        s0 = panels[g0]
        own = order[s0:panels[g1]]
        ptr, cols, vals = P.rows(own)
        row = np.repeat(np.arange(own.size), np.diff(ptr))
        other = cols != own[row]
        vals[~other] = 0.0
        fit, fc = fitness[own], fitness[cols]
        up = fc >= fit[row]
        esc = np.bincount(row, vals, own.size)
        lower = np.bincount(row[~up], vals[~up], own.size)
        bad = np.flatnonzero((esc <= 0.0) | (lower > 0.0))
        scale = np.where(esc > 0.0, esc, 1.0)
        # row i of its panel's scaled I - Q: -P_ij / esc_i at the same or a
        # higher level of the panel, esc_i / esc_i = 1 on the diagonal
        i = np.flatnonzero((panel_of[cols] == panel_of[own][row]) & up & other)
        a_row, a_col, a_val = row[i], pos[cols[i]] - s0, -vals[i] / scale[row[i]]
        for p0, p1 in zip((panels[g0:g1] - s0).tolist(), (panels[g0 + 1:g1 + 1] - s0).tolist()):
            e0, e1 = ptr[p0], ptr[p1]
            terms = np.take(x, cols[e0:e1], axis=0)
            terms *= vals[e0:e1, None]
            rhs = np.add.reduceat(terms, ptr[p0:p1] - e0) / scale[p0:p1, None]
            i0, i1 = np.searchsorted(a_row, (p0, p1))
            A = np.zeros((p1 - p0, p1 - p0))
            A[a_row[i0:i1] - p0, a_col[i0:i1] - p0] = a_val[i0:i1]
            A.flat[::p1 - p0 + 1] = 1.0
            fails, singular = [], None
            if (j := np.searchsorted(bad, p0)) < bad.size and bad[j] < p1:
                fails.append((level_of[s0 + bad[j]], 0, None))
            try:
                sol = np.linalg.solve(A, rhs[:, :m])
                if time_of is not None:
                    rhs[:, m] += sol[:, time_of] / scale[p0:p1]
                    sol = np.column_stack([sol, np.linalg.solve(A, rhs[:, m])])
                x[own[p0:p1]] = sol
            except np.linalg.LinAlgError as exc:
                # A is block triangular: name its first singular level block
                singular, v0 = exc, level_of[s0 + p0]
                q = (starts[v0:level_of[s0 + p1 - 1] + 2] - s0 - p0).tolist()
                fails.append((v0 + next((k for k, (q0, q1) in enumerate(zip(q[:-1], q[1:]))
                                         if np.linalg.det(A[q0:q1, q0:q1]) == 0.0), 0), 1, None))
            else:
                err = abs(A @ sol - rhs)
                norm = abs(A).sum(axis=1).max() * abs(sol).max(axis=0) + abs(rhs).max(axis=0)
                over = ~np.isfinite(rhs).all(axis=1)  # a solve spreads NaN over its panel
                over = over if over.any() else ~np.isfinite(sol).all(axis=1)
                if (r := np.flatnonzero(over)).size:
                    fails.append((level_of[s0 + p0 + r[0]], 2, esc[p0 + r[0]]))
                elif (r := np.flatnonzero((err > _SOLVE_TOL * norm).any(axis=1))).size:
                    fails.append((level_of[s0 + p0 + r[0]], 3, np.nanmax(err.max(axis=0) / norm)))
            if not fails:
                continue
            v, why, value = min(fails)
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
            if why == 2:
                raise RuntimeError(f"{chain}: expected generations at fitness {f} overflow "
                                   f"double precision (escape mass {value:.3g})")
            raise RuntimeError(f"{chain}: solve backward error {value:.3g} at fitness {f} "
                               f"exceeds tolerance {_SOLVE_TOL:g}")
    return x


def _solve_absorption(P, cls: np.ndarray, fitness: np.ndarray, chain: str, hitting=False):
    """Per-state absorption probabilities for a chain with labelled classes
    (P as in _solve_levels), and with ``hitting`` a last column E[T 1{optimum}]."""
    x = np.zeros((cls.size, len(CLASS_NAMES) + hitting))
    per = x[:, :len(CLASS_NAMES)]
    absorbing = cls >= 0
    per[absorbing, cls[absorbing]] = 1.0
    tr = np.flatnonzero(~absorbing)
    _solve_levels(P, fitness, tr, x, chain, 0 if hitting else None)
    sums_err = np.abs(per.sum(axis=1) - 1.0).max()
    if sums_err > _ROW_SUM_TOL:
        raise RuntimeError(f"{chain}: per-state class probabilities miss 1 by {sums_err:.3g}")
    if per.min() < -_PROB_RANGE_TOL or per.max() > 1.0 + _PROB_RANGE_TOL:
        raise RuntimeError(f"{chain}: absorption probabilities span [{per.min():.3g}, "
                           f"{per.max():.3g}], outside [0, 1] beyond tolerance")
    np.clip(per, 0.0, 1.0, out=per)
    return x


def _lumped_solution(kind, w: int, n: int, hitting: bool = False):
    """Validated lumped chain solved for absorption: (AbsorptionResult, the
    last solved column, chain label); see _solve_absorption for ``hitting``."""
    P = _lumped_row_builder(kind, w, n)
    w = check_weight(w)
    chain = f"{kind.name} n={n} w={w}"
    cls = state_classes(kind, w, n)
    pc, k = np.divmod(np.arange(4 * n), n)
    fitness = pc % 2 + k + w * (pc // 2)
    x = _solve_absorption(P, cls, fitness, chain, hitting)
    per = x[:, :len(CLASS_NAMES)]
    pi = initial_distribution(n)
    overall = {name: float(pi @ per[:, c]) for c, name in enumerate(CLASS_NAMES)}
    return AbsorptionResult(kind, w, n, cls, per, overall), x[:, -1], chain


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
    P = _stack(blocks)
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

    per_state[i] is NaN exactly where the optimum mass is 0, and 0 for
    states that already are optima; ``overall`` conditions the
    uniform-initialization law on eventual success.  ``absorption`` is the
    same solve's result, equal to what ``absorption_probabilities`` returns.
    """

    kind: object
    w: int
    n: int
    per_state: np.ndarray
    overall: float
    absorption: AbsorptionResult


def conditional_hitting_time(kind, w: int, n: int) -> HittingTimeResult:
    """First-step analysis in the absorption pass: with h the optimum column,
    y = E[T 1{optimum}] solves (I - Q) y = h, so E[T | optimum] is y / h per
    state and pi y / pi h overall."""
    absorption, y, chain = _lumped_solution(kind, w, n, True)
    h = absorption.per_state[:, 0]
    with np.errstate(over="ignore"):
        times = y / np.where(h > 0.0, h, np.nan)
    if (inf := np.isinf(times)).any():
        raise RuntimeError(f"{chain}: expected generations of state {inf.argmax()} overflow "
                           f"double precision (optimum mass {h[inf.argmax()]:.3g})")
    overall = float(initial_distribution(n) @ y) / absorption.p_optimum  # pi y / pi h
    return HittingTimeResult(kind, absorption.w, n, times, overall, absorption)
