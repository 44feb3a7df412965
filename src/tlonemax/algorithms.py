"""Steppers for the time-linkage RLS and (1+1) EA, plus trials of all three.

``step`` is the named reference for one single-parent generation.  RLS and
(1+1) EA trials run on one batch engine, ``_run_batch``, which steps many
trials at once, each on its own generator, and skips rejected generations
with array searches; ``run_trial`` hands it one generator, and
``montecarlo`` hands it blocks of consecutive trials.  For RLS a trial is
the same as iterating ``step``.  For the (1+1) EA it reads every mask off
one flip field of geometric gaps (``_flip_cells``): the same mutation law
as ``mutate_ea``'s ``rng.random(n) < 1/n``, but other random numbers, so
seeded (1+1) EA trials differ from those of versions that drew n doubles
per generation.  The (mu+1) EA has no public per-generation stepper.  Its
named reference is ``_mu_plus_one_generation`` on population arrays, which
takes its parent index, flip positions and tie-break from the caller;
``run_trial`` gives the same trial on fitness buckets with block-drawn
sub-streams (``_run_mu_plus_one``): bitstrings are Python ints, and each
generation XORs its parent with one mask made ahead for its block.  All three
algorithms evaluate an offspring against its parent's *current* first bit
as the stored history; RLS and the (1+1) EA accept when the offspring
fitness is at least the parent's ("at least as good" selection).  A trial
runs one seeded optimization to absorption: global optimum, a proven
stagnation event, or budget exhaustion.  The generation counter g counts
offspring fitness evaluations; the implicit evaluation of the initial state
is not counted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (TLState, _init_bits, _init_words, _integer, _is_optimum_parts, check_count,
                   check_length, check_seed, check_weight, fitness)
from .stagnation import StagnationEvent, classify_lumped


@dataclass(frozen=True)
class AlgorithmKind:
    """Algorithm selector: "rls", "ea" (1+1), or "mu-ea" with population size mu."""

    name: str
    mu: int | None = None

    def __post_init__(self):
        if self.name not in ("rls", "ea", "mu-ea"):
            raise ValueError(f"unknown algorithm kind {self.name!r}")
        if self.name == "mu-ea":
            mu = None if self.mu is None else _integer("mu", self.mu)
            if mu is None or mu < 1:
                raise ValueError(f"mu-ea requires mu >= 1, got {self.mu}")
            object.__setattr__(self, "mu", mu)
        elif self.mu is not None:
            raise ValueError(f"{self.name} takes no mu")

    @property
    def single_parent(self) -> bool:
        return self.name in ("rls", "ea")


RLS = AlgorithmKind("rls")
ONE_PLUS_ONE_EA = AlgorithmKind("ea")


def mu_plus_one_ea(mu: int) -> AlgorithmKind:
    return AlgorithmKind("mu-ea", mu)


def mutate_rls(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip exactly one uniformly chosen bit."""
    y = x.copy()
    i = int(rng.integers(x.shape[0]))
    y[i] ^= 1
    return y


def mutate_ea(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability 1/n."""
    n = x.shape[0]
    return x ^ (rng.random(n) < 1.0 / n)


def accept(w: int, state: TLState, offspring: np.ndarray) -> bool:
    """Selection rule: offspring evaluated with the parent's current first bit
    as stored history, accepted iff its fitness is >= the incumbent's."""
    if offspring.shape[0] != state.n:
        raise ValueError(f"offspring length {offspring.shape[0]} must match the state's {state.n}")
    return fitness(w, int(state.current[0]), offspring) >= state.fitness(w)


def step(kind: AlgorithmKind, w: int, state: TLState, rng: np.random.Generator) -> TLState:
    """One generation of a single-parent algorithm.

    Always increments g.  On acceptance the decision advances: the stored bit
    becomes the parent's current first bit, the offspring becomes current, and
    t increments; otherwise only g changes.
    """
    if kind.name == "rls":
        offspring = mutate_rls(state.current, rng)
    elif kind.name == "ea":
        offspring = mutate_ea(state.current, rng)
    else:
        raise ValueError("step() is for single-parent kinds; run the (mu+1) EA with run_trial")
    if accept(w, state, offspring):
        return TLState(int(state.current[0]), offspring, state.t + 1, state.g + 1)
    return TLState(state.prev_first, state.current, state.t, state.g + 1)


@dataclass(eq=False, slots=True)
class PopulationMember:
    """One (mu+1) EA individual: its own stored bit plus current bitstring."""

    prev_first: int
    current: np.ndarray

    def fitness(self, w: int) -> int:
        return fitness(w, self.prev_first, self.current)


class TrialStatus(str, Enum):
    OPTIMUM = "optimum"
    STAGNATED = "stagnated"
    BUDGET = "budget"


@dataclass(eq=False, slots=True)
class TrialOutcome:
    """Result of one trial: how it ended, at which generation, and where."""

    status: TrialStatus
    generations: int
    event: StagnationEvent | None
    final_state: TLState | list[PopulationMember]


def split_seed(master_seed: int, index: int) -> int:
    """Stable order-independent per-trial seed from (master seed, trial index)."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(kind: AlgorithmKind, w: int, n: int, budget: int, seed: int,
              observer=None) -> TrialOutcome:
    """Run one seeded trial to absorption or budget.

    The optimum test runs after initialization and after every acceptance;
    stagnation classification (single-parent kinds only) runs at the same
    points.  Deterministic given (kind, w, n, budget, seed).  ``observer``,
    when given, is called as observer(g, state_or_population, accepted, event)
    after initialization (g=0) and after every generation.
    """
    budget, w, n = check_count("budget", budget), check_weight(w), check_length(n)
    rng = np.random.default_rng(check_seed(seed))
    if kind.single_parent:
        return _run_batch(kind.name, w, n, budget, [rng], observer)[0]
    return _run_mu_plus_one(kind.mu, w, n, budget, rng, observer)


#: Most random numbers one draw call makes: the rows of a drawn block (RLS
#: draws one index per row, the (mu+1) EA one parent index), the geometric
#: gaps of one flip-field chunk and the words of one tie-break block; also
#: the most rows a window of ``_run_batch`` searches.  Every trial of a
#: batch holds up to 1.5 blocks of drawn rows: with a cap of 2**12, the
#: runtime-scaling trials at n = 256 and 1024, w = 1, 30 per kind, peaked
#: at 9.6 MB of arrays instead of 1.5 MB, and ran no faster.
_BLOCK_DRAWS = 1 << 9

#: Rows of the first drawn block and of the first searched window.  Blocks
#: double up to the cap, so short trials draw little past their end; the
#: window doubles while nothing changes and restarts after each change, so a
#: change costs little array work.
_FIRST_ROWS = 16


def _flip_cells(kind_name, n, rng):
    """cells(k): the flip cells of the next k generations' mutations, sorted;
    cell r n + j stands for bit j of the r-th of them.

    RLS reads the generator's stream exactly as per-generation draws do:
    ``rng.integers(n, size=k)`` gives the values of k calls
    ``rng.integers(n)``.  The (1+1) EA reads a flip field instead: cell
    (g - 1) n + j stands for bit j of generation g, and the flipped cells are
    c_1 = G_1 - 1 and c_{i+1} = c_i + G_{i+1}, with the G_i drawn as
    ``rng.geometric(1/n)``.  Every cell flips independently with probability
    1/n, so each mask has the law of ``mutate_ea``'s ``rng.random(n) < 1/n``,
    but a generation costs O(1 + flips) instead of n random doubles.  Cells
    drawn past a block are kept for the next one, and
    ``rng.geometric(p, size=m)`` gives the values of m scalar calls, so the
    field does not depend on the block sizes.  A chunk holds 4k + 32 gaps,
    about four times a block's expected k flips, so short trials make few
    draw calls; ``_BLOCK_DRAWS`` bounds it.
    """
    if kind_name == "rls":
        return lambda k: np.arange(0, k * n, n) + rng.integers(n, size=k)
    p = 1.0 / n
    # drawn flip cells not yet handed out, counted from the next block's
    # first cell, and the last drawn one
    field, last = np.empty(0, dtype=np.int64), -1

    def cells(k):
        nonlocal field, last
        end = k * n
        if last < end:
            chunks = [field]
            while last < end:
                chunks.append(last + rng.geometric(p, size=min(4 * k + 32, _BLOCK_DRAWS)).cumsum())
                last = int(chunks[-1][-1])
            field = np.concatenate(chunks)
        cut = int(field.searchsorted(end))
        drawn, field, last = field[:cut], field[cut:] - end, last - end
        return drawn
    return cells


def _flip_source(kind_name, n, rng):
    """draw(k): the masks of the next k generations' mutations
    (``_flip_cells``), as a list of k Python ints with bit j set iff
    position j flips.  One pass over the block's flip cells makes them all,
    at any n."""
    cells = _flip_cells(kind_name, n, rng)

    def draw(k):
        rows, cols = np.divmod(cells(k), n)
        masks = np.zeros(k, dtype=object)
        np.bitwise_or.at(masks, rows, np.left_shift(1, cols.astype(object)))
        return masks.tolist()
    return draw


def _ranges(starts, lengths):
    """The ranges [starts[i], starts[i] + lengths[i]) end to end, and the
    offset of each in the result."""
    ends = lengths.cumsum()
    offsets = ends - lengths
    return np.arange(ends[-1]) + (starts - offsets).repeat(lengths), offsets


def _run_batch(kind_name, w, n, budget, rngs, observer=None):
    """RLS or (1+1) EA trials, one per generator in ``rngs``, stepped
    together.  Each is generation for generation the same as iterating
    ``step`` from ``random_init`` on its own generator, with the (1+1) EA's
    masks read off its flip field (``_flip_cells``), so it does not depend
    on the other trials.  Returns the outcomes in the order of ``rngs``;
    ``observer`` takes a single generator.

    A trial's state (prev, x) is kept as x1 = x[0], its ones-count and its
    row of gains 1 - 2 x_j, followed by a 0.  An offspring flipping the
    positions F gains delta = sum over F of (1 - 2 x_j) ones and is accepted
    iff delta >= w (prev - x1).  Each step searches a window of every
    trial's next drawn generations for the first one that changes its
    state, all trials at once: the generations of all windows lie end to
    end, and the drawn flips of all trials lie in one table of gain
    indices, one column per generation, padded with the index of the
    trial's 0.  So a step costs a fixed number of array operations, however
    many trials are in the batch.  The generations before a change were
    rejected or, for an empty EA mask with prev == x1, accepted without any
    change; they only advance g (and t), and are handed to the observer, if
    any, one by one.  A window doubles while nothing changes, up to
    ``_BLOCK_DRAWS`` rows, and restarts at ``_FIRST_ROWS`` after a change.

    When a trial has read all its drawn generations, every trial with less
    than half its next block left draws that block; blocks double from
    ``_FIRST_ROWS`` up to ``_BLOCK_DRAWS`` rows.  Each generator is read in
    order whatever the block sizes.  A trial leaves the batch at the
    optimum, at a proven stagnation event or at the budget.  Every
    handed-out bitstring is a new array, never written again.
    """
    m, width = len(rngs), n + 1
    prevs, starts = _init_bits(np.concatenate([_init_words(n, 1, rng) for rng in rngs]), n)
    draws = [_flip_cells(kind_name, n, rng) for rng in rngs]
    outcomes = [None] * m
    gain = np.zeros((m, width), dtype=np.int8)
    gain[:, :n] = 1 - 2 * starts.view(np.int8)
    flat = gain.reshape(-1)
    # one row per field, one column per trial in the batch: its generator
    # and row of gains, prev, x1, ones, t, g, its unread drawn generations
    # (columns row..end-1 of the table), its window and its next block
    trials = np.zeros((10, m), dtype=np.int64)
    trials[0] = np.arange(m)
    trials[1:4] = prevs, starts[:, 0], starts.sum(axis=1)
    trials[4] = 1
    trials[8] = _FIRST_ROWS
    trials[9] = min(_FIRST_ROWS, _BLOCK_DRAWS)
    table = np.empty((1, 0), dtype=np.min_scalar_type(m * width))

    def state(s, prev, t, g):
        return TLState(prev, (gain[s, :n] < 0).astype(np.uint8), t, g)

    def settle(positions):
        """Optimum test and classification of the trials at ``positions``,
        whose state was just initialised or changed; returns those that end."""
        ended = []
        for p, (s, prev, x1, ones, t, g) in zip(positions.tolist(),
                                                 trials[:6, positions].T.tolist()):
            optimum = _is_optimum_parts(w, prev, ones, n)
            event = None if optimum else classify_lumped(kind_name, w, n, prev, x1, ones - x1)
            if observer is None and not optimum and event is None:
                continue
            st = state(s, prev, t, g)
            if observer is not None:
                observer(g, st, True, event)
            if optimum or event is not None:
                status = TrialStatus.OPTIMUM if optimum else TrialStatus.STAGNATED
                outcomes[s] = TrialOutcome(status, g, event, st)
                ended.append(p)
        return ended

    ended = settle(np.arange(m))
    while True:
        if ended:
            keep = np.ones(trials.shape[1], dtype=bool)
            keep[ended] = False
            trials = trials[:, keep]
            if not keep.any():
                return outcomes
        slot, prev, x1, ones, t, g, row, end, window, block = trials
        left = end - row
        if not left.all():
            k = np.minimum(block, budget - g - left)
            k[2 * left >= block] = 0
            block[k > 0] = np.minimum(2 * block[k > 0], _BLOCK_DRAWS)
            size = left + k
            end[:] = size.cumsum()
            start = end - size
            drawing = k.nonzero()[0]
            fresh = [draws[s](kk) + (e - kk) * n for s, kk, e in
                     zip(slot[drawing].tolist(), k[drawing].tolist(), end[drawing].tolist())]
            counts = [c.size for c in fresh]
            rows, cols = np.divmod(np.concatenate(fresh), n)
            del fresh
            cols += (slot[drawing] * width).repeat(counts)
            # the place of each flip in its generation's column
            place = rows.searchsorted(rows)
            np.subtract(np.arange(place.size), place, out=place)
            old, table = table, np.empty((max(table.shape[0], int(place.max(initial=0)) + 1),
                                          end[-1]), table.dtype)
            table[:] = (slot * width + n).astype(table.dtype).repeat(size)
            table[:old.shape[0], _ranges(start, left)[0]] = old.take(_ranges(row, left)[0], axis=1)
            table[place, rows] = cols
            row[:] = start
            left = size

        # the first state change in every trial's window
        length = np.minimum(window, left)
        ends = length.cumsum()
        offsets = ends - length
        at = np.arange(ends[-1])
        cells = table.take(at + (row - offsets).repeat(length), axis=1)
        gains = flat.take(cells)
        delta = gains.sum(axis=0)
        accepted = changes = delta >= (w * (prev - x1)).repeat(length)
        if kind_name == "ea":
            # an empty mask (first gain 0) is accepted and, with prev == x1,
            # changes nothing
            changes = accepted & ((gains[0] != 0) | (prev != x1).repeat(length))
        first = np.minimum.reduceat(np.where(changes, at, ends[-1]), offsets)
        found = first < ends
        j = np.minimum(first, ends) - offsets
        if observer is not None:
            s, pv, tt, gg = trials[[0, 1, 4, 5], 0].tolist()
            x = (gain[s, :n] < 0).astype(np.uint8)
            for a in accepted[:j[0]].tolist():
                gg += 1
                tt += a
                observer(gg, TLState(pv, x, tt, gg), a, None)
        if kind_name == "ea":
            skipped = np.zeros(ends[-1] + 1, dtype=np.int64)
            accepted.cumsum(out=skipped[1:])
            t += skipped.take(offsets + j) - skipped.take(offsets)
        j += found
        trials[5:7] += j  # g and row
        t += found
        window <<= 1
        np.minimum(window, _BLOCK_DRAWS, out=window)

        # apply the changes
        f = found.nonzero()[0]
        if f.size:
            window[f] = _FIRST_ROWS
            hit = first[f]
            flat[cells.take(hit, axis=1)] = -gains.take(hit, axis=1)
            ones[f] += delta.take(hit)
            prev[f] = x1[f]
            x1[f] = flat.take(slot[f] * width) < 0
        ended = settle(f)
        if budget in g:
            over = (g == budget).nonzero()[0]
            for p, (s, pv, _, _, tt, gg) in zip(over.tolist(), trials[:6, over].T.tolist()):
                if outcomes[s] is None:
                    outcomes[s] = TrialOutcome(TrialStatus.BUDGET, gg, None, state(s, pv, tt, gg))
                    ended.append(p)


def _mu_plus_one_generation(w, prevs, currents, fits, parent, flips, tie) -> bool:
    """One (mu+1) EA generation, in place on the population arrays.  This is
    the named reference for ``_run_mu_plus_one``; ``run_trial`` does not
    call it.

    Rows 0..mu-1 of ``prevs`` (stored bits), ``currents`` (bitstrings) and
    ``fits`` (their fitnesses) hold the population; row mu receives the
    offspring.  The parent in row ``parent`` produces one bit-wise-mutation
    offspring, flipping the positions ``flips``, that stores the parent's
    current first bit; the single worst-fitness member of the mu+1
    (offspring included) is removed, ties broken by ``tie(size)``, the index
    among the size minimum-fitness rows.  With mu=1 this differs from the
    (1+1) EA's ">=" rule: a strictly worse offspring can survive a fitness
    tie-break.

    The caller makes the draws: a uniform parent index, positions that each
    flip with probability 1/n, and a uniform tie-break.  The rows past the
    removed one shift up, so a surviving offspring ends in row mu-1 and row
    mu still holds it.  Returns whether it survived.
    """
    mu = currents.shape[0] - 1
    prevs[mu] = currents[parent, 0]
    currents[mu] = currents[parent]
    for c in flips:
        currents[mu, c] ^= 1
    fits[mu] = int(currents[mu].sum()) + w * int(prevs[mu])
    candidates = np.flatnonzero(fits == fits.min())
    removed = int(candidates[tie(candidates.size)])
    if removed == mu:
        return False
    prevs[removed:mu] = prevs[removed + 1:]
    currents[removed:mu] = currents[removed + 1:]
    fits[removed:mu] = fits[removed + 1:]
    return True


#: 2**64: the tie-break words are uniform below it.
_WORDS = 1 << 64


def _tie_source(rng):
    """pick(size): an exactly uniform index below ``size`` >= 2.

    Lemire's multiply-and-reject: a 64-bit word u gives u * size // 2**64
    unless u * size % 2**64 falls below 2**64 % size (odds below size / 2**64),
    in which case the next word is tried.  Every index then has exactly
    floor(2**64 / size) accepted words.  Words are drawn in blocks that
    double from ``_FIRST_ROWS`` up to ``_BLOCK_DRAWS`` and read in order, so
    the picks do not depend on the block sizes.
    """
    words, i, block = [], 0, _FIRST_ROWS

    def pick(size):
        nonlocal words, i, block
        while True:
            if i == len(words):
                words, i = rng.bit_generator.random_raw(min(block, _BLOCK_DRAWS)).tolist(), 0
                block *= 2
            m = words[i] * size
            i += 1
            if m % _WORDS >= _WORDS % size:
                return m >> 64
    return pick


def _run_mu_plus_one(mu, w, n, budget, rng, observer):
    """(mu+1) EA trials on fitness buckets, generation for generation the
    same as iterating ``_mu_plus_one_generation`` on population arrays with
    scalar draws from the same three sub-streams.

    After one ``_init_words`` draw for the mu members, two raw words of
    ``rng`` seed a ``SeedSequence`` whose three children drive the rest:
    parent indices, drawn as ``integers(mu, size=k)``; mutations, read off
    the flip field of ``_flip_source("ea", ...)``; and tie-breaks, picked by
    ``_tie_source``.
    Parent indices and flips are drawn for blocks of generations that double
    from ``_FIRST_ROWS`` up to ``_BLOCK_DRAWS``.  Each sub-stream is read in
    order whatever the block sizes, so a trial does not depend on them.  The
    law is that of ``rng.integers(mu)``, ``rng.random(n) < 1/n`` and
    ``rng.integers(size)`` per generation, but seeded trials differ from
    those of versions that drew so.

    Each member is [stored bit, bitstring, array], the bitstring a Python
    int with bit j = position j.  An offspring is its parent's bitstring
    XOR the generation's mask from ``_flip_source``, and its ones-count is
    that int's ``bit_count()``, so a generation costs a few int operations
    whatever it flips.  Row order is increasing birth-stamp order
    (``stamps``): a removal keeps the order of the rest and a surviving
    offspring goes last.  So ``rows`` lists the members in the reference's
    row order, a member is found from its stamp by bisection, and
    ``buckets[f]`` lists the stamps of fitness f in row order: the
    tie-break's k-th minimum-fitness candidate is ``buckets[lo][k]``, with
    the offspring, when tied, as the last one.  A tie-break of size 1 reads
    no word, and an offspring below the minimum fitness ``lo`` is that case.

    A starting member's uint8 array is its row of the drawn bitstrings; an
    offspring's is built when first handed out, by one unpack in
    ``snapshot`` of every member still without one.  Arrays are never
    written, so the snapshots share them.  A rejected generation leaves the
    population as it was, so the observer is handed the previous snapshot
    list again.
    """
    prevs, bits = _init_bits(_init_words(n, mu, rng), n)
    xs = [int.from_bytes(x, "little") for x in np.packbits(bits, axis=1, bitorder="little")]
    rows = [list(member) for member in zip(prevs.tolist(), xs, bits)]
    stamps = list(range(mu))
    buckets: dict[int, list[int]] = {}
    for stamp, (prev, x, _) in enumerate(rows):
        buckets.setdefault(x.bit_count() + w * prev, []).append(stamp)
    lo = min(buckets)
    seeds = np.random.SeedSequence(rng.bit_generator.random_raw(2).tolist()).spawn(3)
    parents, flips, ties = (np.random.default_rng(s) for s in seeds)
    draw, pick = _flip_source("ea", n, flips), _tie_source(ties)

    def snapshot():
        bare = [row for row in rows if row[2] is None]
        joined = b"".join([row[1].to_bytes((n + 7) // 8, "little") for row in bare])
        packed = np.frombuffer(joined, dtype=np.uint8).reshape(len(bare), (n + 7) // 8)
        for row, a in zip(bare, np.unpackbits(packed, axis=1, count=n, bitorder="little")):
            row[2] = a
        return [PopulationMember(prev, a) for prev, _, a in rows]

    if observer is not None:
        shown = snapshot()
        observer(0, shown, True, None)
    if any(_is_optimum_parts(w, prev, x.bit_count(), n) for prev, x, _ in rows):
        return TrialOutcome(TrialStatus.OPTIMUM, 0, None, snapshot())
    block = _FIRST_ROWS
    g = 0
    while g < budget:
        k = min(block, _BLOCK_DRAWS, budget - g)
        block *= 2
        for g, parent, mask in zip(range(g + 1, g + k + 1),
                                   parents.integers(mu, size=k).tolist(), draw(k)):
            x = rows[parent][1]
            prev = x & 1  # the offspring stores its parent's first bit
            x ^= mask
            ones = x.bit_count()
            fit = ones + w * prev
            survived = fit >= lo
            if survived:
                bucket = buckets[lo]
                size = len(bucket) + (fit == lo)
                j = pick(size) if size > 1 else 0
                survived = j < len(bucket)
            if survived:
                i = bisect_left(stamps, bucket.pop(j))
                del stamps[i], rows[i]
                stamps.append(mu + g)  # above every earlier birth stamp
                rows.append([prev, x, None])
                buckets.setdefault(fit, []).append(mu + g)
                if not bucket:
                    del buckets[lo]
                    lo = min(buckets)
            if observer is not None:
                if survived:
                    shown = snapshot()
                observer(g, shown, survived, None)
            if survived and _is_optimum_parts(w, prev, ones, n):
                return TrialOutcome(TrialStatus.OPTIMUM, g, None, snapshot())
    return TrialOutcome(TrialStatus.BUDGET, budget, None, snapshot())
