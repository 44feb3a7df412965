"""Exact absorption analysis of the single-parent algorithms.

Both mutation operators and the fitness are exchangeable over positions 2..n,
so the full chain over (stored first bit, current bitstring) lumps exactly to
4n states (stored first bit, current first bit, ones among positions 2..n).
A lumped row is sparse: the accepted window of one row of an offspring table
built once per (kind, n), the only place RLS and the (1+1) EA differ, plus
the rejected mass.  Each window is cut to its significant band, past which
every row's accepted mass is at most 2**-52 of the band's off-diagonal
mass; that moves each row of the solved jump chain by at most 2**-51 in l1
(see _lumped_row_builder).  Rows are made from the table when the solver
asks for them, a group of levels at a time, so the whole chain is never
stored.
Level by level in fitness order, the chains are solved for absorption
probabilities (optimum vs each proven stagnation event) and, in the same
pass, expected generations to the optimum given success.  The tests check
the lumping against a full-state chain with a solve of its own.
"""

from __future__ import annotations

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

_SOLVE_TOL = 1e-12  # normwise relative backward error of each solved column
_PROB_RANGE_TOL = 1e-12
_ROW_SUM_TOL = 1e-10
_EPS = np.finfo(float).eps  # 2**-52: the mass a row band may drop, relative to what it keeps
_CHUNK = 1 << 16  # row entries per group of panels in the vectorised solver pass
# states per panel, a run of whole levels solved as one dense block; OpenBLAS
# threads solves from 100 x 100 up, which costs more than it saves at this size
_PANEL = 64


_logfact = np.zeros(0)  # log(i!) = math.lgamma(i + 1) at index i, grown on demand


def _binomial_logpmf(m, k, p: float):
    """log P(Bin(m, p) = k) over arrays m and k broadcast; -inf where k > m."""
    global _logfact
    m, k = np.asarray(m), np.asarray(k)
    logfact, top = _logfact, max(m.max(), k.max()) + 1  # one read of the shared table
    if top > logfact.size:
        logfact = _logfact = np.append(logfact, [math.lgamma(i + 1)
                                                 for i in range(logfact.size, top)])
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


#: Bytes of offspring tables, with the rejected-mass sums kept beside them,
#: kept for reuse.  The most recent table always stays, so a sweep at one
#: large n builds its table once; older tables stay, least recently used
#: dropped first, while all of them fit together in this budget.  It holds
#: every table that the reproduce presets read.
_TABLE_BYTES = 64 << 20
# (kind name, n) -> (table, band ends, rejected sums), least recently used
# first; see _table_entry
_tables: dict = {}

#: Entries of the padded up-flip pmf that a bit-wise table build holds at
#: once: it runs over blocks of about this many / (3D) rows of k, so besides
#: the table it holds about 4/3 this many doubles.
_TABLE_BLOCK = 1 << 18


def _table_entry(kind, n: int):
    """(table, ends, rejected) of (kind, n), from the cache (see
    _TABLE_BYTES) or new: the offspring table (see _build_offspring_table),
    the ``_band_end`` results found so far by (scale row, window start), and
    the rejected-mass sums of the p = c blocks found so far by c, 2n doubles
    at most.  The lumped row builder fills the last two; neither depends on
    w, so a w sweep scans each window once, and both leave with the table."""
    key = (kind.name, n)
    entry = _tables.pop(key, None)
    _tables[key] = entry = (_build_offspring_table(kind, n), {}, {}) if entry is None else entry
    total = sum(map(_entry_bytes, _tables.values()))
    for old in list(_tables)[:-1]:
        if total <= _TABLE_BYTES:
            break
        total -= _entry_bytes(_tables.pop(old))
    return entry


def _entry_bytes(entry) -> int:
    (_, tail, _), _, rejected = entry
    return tail.nbytes + sum(sums.nbytes for sums in rejected.values())


def _offspring_table(kind, n: int):
    """The offspring table of (kind, n) (see _table_entry)."""
    return _table_entry(kind, n)[0]


def _build_offspring_table(kind, n: int):
    """(lo, tail, scale): a parent with k tail ones has an offspring that
    keeps (flips) its first bit and has k' = k - lo + j tail ones with
    probability tail[k, j] * scale[0, j] (tail[k, j] * scale[1, j]), 0 where
    k' is out of range.  One-bit mutation flips one of the n bits: tail is
    (k, 1, n - 1 - k) / n and scale picks the first bit's 1/n for a flip.
    Bit-wise mutation flips the first bit with probability 1/n, so scale is
    1 - 1/n and 1/n in every column, and the tail gains Bin(n-1-k, 1/n)
    up-flips minus Bin(k, 1/n) down-flips, each cut at D = 1 + the last
    index where Bin(n-1, 1/n) is nonzero in double precision: at a fixed
    count the pmf does not decrease in m <= n-1, so every later term is
    exactly 0 anyway.  The bit-wise tail is built over blocks of rows of k
    (``_TABLE_BLOCK``).

    The arrays are read-only; a bit-wise tail takes 8 n (2D - 1) bytes."""
    k = np.arange(n)[:, None]
    if kind.name == "rls":
        lo, scale = 1, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        tail = np.hstack([k / n, np.full((n, 1), 1.0 / n), (n - 1 - k) / n])
    else:
        inv_n = 1.0 / n
        D = 1 + int(np.flatnonzero(binomial_pmf(n - 1, inv_n))[-1])
        tail = np.empty((n, 2 * D - 1))
        rows = max(1, _TABLE_BLOCK // (3 * D))
        for a in range(0, n, rows):
            ks = k[a:a + rows]
            up = np.zeros((ks.shape[0], 3 * D - 2))
            up[:, D - 1:2 * D - 1] = np.exp(_binomial_logpmf(n - 1 - ks, np.arange(D), inv_n))
            # k' - k = u - d: sum over d of P(d down-flips) * P(u = k' - k + d up-flips)
            np.einsum("kjd,kd->kj", np.lib.stride_tricks.sliding_window_view(up, D, axis=1),
                      np.exp(_binomial_logpmf(ks, np.arange(D), inv_n)), out=tail[a:a + rows])
        lo, scale = D - 1, np.repeat([[1.0 - inv_n], [inv_n]], 2 * D - 1, axis=1)
    tail.flags.writeable = scale.flags.writeable = False
    return lo, tail, scale


class _RowSource(NamedTuple):
    """Rows of a chain on demand: rows(states) is their (ptr, cols, vals), in
    the order asked, with row i's entries cols[ptr[i]:ptr[i + 1]] and
    vals[ptr[i]:ptr[i + 1]]; sizes[i] bounds state i's entries."""

    rows: Callable[[np.ndarray], tuple]
    sizes: np.ndarray


def _band_end(tail: np.ndarray, scale: np.ndarray, s: int) -> int:
    """The end e of the band [s, e) kept of the accepted window [s, width)
    of scaled table rows tail[k] * scale: the first e >= s at which, in every
    row k, the mass left past it, sum_{j >= e}, is at most 2**-52 of the
    kept mass sum_{s <= j < e}, both summed directly.  e = width drops
    nothing.  Row 0, the widest row of a bit-wise table, is searched column
    by column first; then the rows are checked against the end found so far
    in blocks of about ``_CHUNK`` entries, and only the rows that it leaves
    too much mass are searched."""
    n, width = tail.shape
    end, rows = s, max(1, _CHUNK // width)
    for a, b in zip([0, *range(1, n, rows)], [*range(1, n, rows), n]):
        mass = tail[a:b, s:] * scale[s:]
        i = end - s
        mass = mass[mass[:, i:].sum(axis=1) > _EPS * mass[:, :i].sum(axis=1)]
        if mass.size:
            kept, left = np.zeros((2, mass.shape[0], width - s + 1))
            np.cumsum(mass, axis=1, out=kept[:, 1:])
            np.cumsum(mass[:, ::-1], axis=1, out=left[:, -2::-1])
            end = s + int((left <= _EPS * kept).argmax(axis=1).max())
    return end


def _lumped_row_builder(kind, w: int, n: int) -> _RowSource:
    """Lumped rows, built per call for the states asked, so no solve stores
    the whole chain.  Offspring (c', k') of state (p, c, k) is accepted iff
    c' + k' + w * c >= c + k + w * p, giving (c, c', k'): the columns
    j >= lo + c - c' + w * (p - c) of table row k; rejected mass stays.

    Each accepted window [s, width) is cut to its significant band [s, e)
    by ``_band_end``, once per table: in every table row the accepted mass
    past e is at most 2**-52 of the band's off-diagonal mass.  The state
    itself (column lo of the c' = c window when p = c) is kept but not
    counted, and neither the rejected mass nor a row's leading term enters
    the bound, so a far row's 1e-150 escape mass is measured against
    itself.  The solver scales each row by its off-diagonal mass esc (the
    jump chain); dropping delta <= 2**-52 esc of it moves that jump-chain row
    by 2 delta / esc <= 2**-51 in l1.  So absorption probabilities move by
    at most kappa 2**-51, kappa the condition number of the level solve,
    and expected generations by about as much relative.  The RLS windows
    are 3 wide; their bands drop zeros only, so RLS rows are unchanged.

    The rows of one (p, c) fill one slab: the c' = c band, the c' = 1 - c
    band, then the rejected mass, summed per table row once per chain, or
    once per table when p = c, where it does not depend on w.  The state
    itself is a column only when p = c, as column 0 (k' = k); there it
    takes the rejected mass and the last column is 0.  Rows are divided by
    their sums (float dust costs accuracy), their zeros dropped, and put in
    the order asked.  Slab column j of state (p, c, k) is state b[j] + k for
    the block's column bases b.  A row's entries and their order do not
    depend on which other states are asked for with it.  The table is
    fetched once, here."""
    _require_single_parent(kind, n)
    w = check_weight(w)
    (lo, tail, scale), ends, sums = _table_entry(kind, n)
    width = tail.shape[1]
    chunk = max(1, _CHUNK // width)  # table rows per block of about _CHUNK entries

    def band_end(r, s):
        if (r, s) not in ends:
            ends[r, s] = _band_end(tail, scale[r], s)
        return ends[r, s]

    blocks = []
    for p, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # the first accepted table column for c' = c (t) and for c' = 1 - c (u)
        t, u = (min(max(lo + c - cp + w * (p - c), 0), width) for cp in (c, 1 - c))
        own = p == c
        et, eu = band_end(0, t + own), band_end(1, u)
        rejected = sums.get(c) if own else None
        if rejected is None:
            rejected = np.concatenate([(tail[a:a + chunk, :t] * scale[0, :t]).sum(axis=1)
                                       + (tail[a:a + chunk, :u] * scale[1, :u]).sum(axis=1)
                                       for a in range(0, n, chunk)])
            if own:
                sums[c] = rejected
        blocks.append((own, t, et, u, eu, rejected,
                       np.concatenate([3 * c * n - lo + np.arange(t, et),
                                       (c + 1) * n - lo + np.arange(u, eu),
                                       [(2 * p + c) * n]]).astype(np.int32)))

    def rows(states: np.ndarray) -> tuple:
        pc, k = np.divmod(states, n)
        picks, counts, cols, vals = [], [], [], []
        for code, (own, t, et, u, eu, rejected, b) in enumerate(blocks):
            picks.append(pick := np.flatnonzero(pc == code))
            kk, slab = k[pick], np.empty((pick.size, b.size))
            np.multiply(tail[kk, t:et], scale[0, t:et], out=slab[:, :et - t])
            np.multiply(tail[kk, u:eu], scale[1, u:eu], out=slab[:, et - t:-1])
            if own:
                slab[:, 0] += rejected[kk]
                slab[:, -1] = 0.0
            else:
                slab[:, -1] = rejected[kk]
            slab /= slab.sum(axis=1, keepdims=True)
            keep = slab > 0.0
            counts.append(keep.sum(axis=1))
            cols.append((b + kk.astype(np.int32)[:, None])[keep])
            vals.append(slab[keep])
        # from block order to the order asked
        counts, cols, vals = (np.concatenate(part) for part in (counts, cols, vals))
        asked = np.argsort(np.concatenate(picks))
        start, counts = np.cumsum(counts)[asked] - counts[asked], counts[asked]
        ptr = np.concatenate([[0], np.cumsum(counts)])
        take = np.repeat(start - ptr[:-1], counts) + np.arange(ptr[-1])
        return ptr, cols[take], vals[take]

    return _RowSource(rows, np.repeat([b.size for *_, b in blocks], n))


def build_transition_matrix(kind, w: int, n: int) -> np.ndarray:
    """Dense 4n x 4n view of the sparse lumped rows that the solver uses."""
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
    """

    kind: object
    w: int
    n: int
    state_class: np.ndarray
    per_state: np.ndarray
    overall: dict

    @property
    def p_optimum(self) -> float:
        return self.overall["optimum"]

    @property
    def p_failure(self) -> float:
        """Sum of the event-class masses: 1 - p_optimum would cancel when the
        failure probability is small."""
        return sum(self.overall[name] for name in CLASS_NAMES[1:])


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused by name
def _solve_levels(P: _RowSource, fitness: np.ndarray, unknown: np.ndarray, x: np.ndarray,
                  chain: str, time_of: int | None = None) -> np.ndarray:
    """Solve esc_i x_i - sum_{j != i} P_ij x_j = 0 for every state i in
    ``unknown``, where esc_i = sum_{j != i} P_ij, P's rows come from the row
    source, and ``x`` holds the known values outside ``unknown`` and zeros on
    it.  With ``time_of`` = c, x's last column is y = E[T 1{class c}], whose
    right-hand side is x_ic.

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


def _solve_absorption(P: _RowSource, cls: np.ndarray, fitness: np.ndarray, chain: str,
                      hitting=False):
    """Per-state absorption probabilities for a chain with labelled classes,
    and with ``hitting`` a last column E[T 1{optimum}]."""
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
    last solved column, chain label, initial_distribution(n)); see
    _solve_absorption for ``hitting``."""
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
    return AbsorptionResult(kind, w, n, cls, per, overall), x[:, -1], chain, pi


def absorption_probabilities(kind, w: int, n: int) -> AbsorptionResult:
    """Exact per-start and overall absorption probabilities on the lumped chain."""
    return _lumped_solution(kind, w, n)[0]


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
    absorption, y, chain, pi = _lumped_solution(kind, w, n, True)
    h = absorption.per_state[:, 0]
    with np.errstate(over="ignore"):
        times = y / np.where(h > 0.0, h, np.nan)
    if (inf := np.isinf(times)).any():
        raise RuntimeError(f"{chain}: expected generations of state {inf.argmax()} overflow "
                           f"double precision (optimum mass {h[inf.argmax()]:.3g})")
    overall = float(pi @ y) / absorption.p_optimum  # pi y / pi h
    return HittingTimeResult(kind, absorption.w, n, times, overall, absorption)
