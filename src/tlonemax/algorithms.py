"""Steppers for the time-linkage RLS and (1+1) EA, plus trials of all three.

``step`` is the named reference for one single-parent generation;
``run_trial`` does not call it, but skips rejected generations in blocks.
For RLS it gives the same trial as iterating ``step``.  For the (1+1) EA it
reads every mask off one flip field of geometric gaps (``_flip_source``):
the same mutation law as ``mutate_ea``'s ``rng.random(n) < 1/n``, but other
random numbers, so seeded (1+1) EA trials differ from those of versions that
drew n doubles per generation.  The (mu+1) EA has no public
per-generation stepper.  Its named reference is ``_mu_plus_one_generation``
on population arrays, which takes its parent index, flip positions and
tie-break from the caller; ``run_trial`` gives the same trial on fitness
buckets (``_run_mu_plus_one``), where the members' birth-stamp order is
their row order and the bitstrings are Python ints.  After initialisation it
reads parent indices, flips and tie-breaks from three sub-streams seeded off
the trial's generator, each drawn in blocks: the law of one generator's
``rng.integers(mu)``, ``rng.random(n) < 1/n`` and ``rng.integers(size)``
per generation, but other random numbers, so seeded (mu+1) EA trials differ
from those of versions that drew so.  All three algorithms evaluate an
offspring against its parent's *current* first bit as the stored history;
RLS and the (1+1) EA accept when the offspring fitness is at least the
parent's ("at least as good" selection).  A trial runs one seeded
optimization to absorption: global optimum, a proven stagnation event, or
budget exhaustion.  The generation counter g counts offspring fitness
evaluations; the implicit evaluation of the initial state is not counted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .core import (TLState, _is_optimum_parts, check_count, check_length, check_seed,
                   check_weight, fitness, random_init)
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
            if self.mu is None or self.mu < 1:
                raise ValueError(f"mu-ea requires mu >= 1, got {self.mu}")
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
        return _run_single_parent(kind, w, n, budget, rng, observer)
    return _run_mu_plus_one(kind.mu, w, n, budget, rng, observer)


#: Most random numbers one draw call makes: the rows of a drawn block (RLS
#: draws one index per row, the (mu+1) EA one parent index), the geometric
#: gaps of one flip-field chunk and the words of one tie-break block.
#: A cap of 2**16 is no faster, but it raised the peak memory of 30 trials
#: per kind at n = 1024, w = 1 by about 2.6 MB.
_BLOCK_DRAWS = 1 << 12

#: Rows of the first drawn block and of the first searched window.  Blocks
#: double up to the cap, so short trials draw little past their end; the
#: window doubles while nothing changes and restarts after each change, so a
#: change costs little array work.
_FIRST_ROWS = 16


def _flip_source(kind_name, n, rng):
    """draw(k): the positions flipped by the next k generations' mutations,
    in compressed rows: row r flips cols[starts[r]:starts[r + 1]], and
    rows[i] is the row of cols[i].

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
        def draw(k):
            return np.arange(k), rng.integers(n, size=k), np.arange(k + 1)
        return draw
    p = 1.0 / n
    # drawn flip cells not yet handed out, counted from the next block's
    # first cell, and the last drawn one
    field, last = np.empty(0, dtype=np.int64), -1

    def draw(k):
        nonlocal field, last
        end, chunks = k * n, [field]
        while last < end:
            chunks.append(last + np.cumsum(rng.geometric(p, size=min(4 * k + 32, _BLOCK_DRAWS))))
            last = int(chunks[-1][-1])
        cells = np.concatenate(chunks)
        cut = int(np.searchsorted(cells, end))
        field, last = cells[cut:] - end, last - end
        rows, cols = np.divmod(cells[:cut], n)
        return rows, cols, np.searchsorted(rows, np.arange(k + 1))
    return draw


def _run_single_parent(kind, w, n, budget, rng, observer):
    """RLS and (1+1) EA trials on incremental counts, generation for
    generation the same as iterating ``step`` from ``random_init``, with the
    (1+1) EA's masks read off the flip field of ``_flip_source``.

    The state (prev, x) is kept with x1 = x[0] and its ones-count.  Mutations
    are drawn in blocks, and each block is searched with array operations for
    the next generation that changes the state: an offspring flipping the
    positions F gains delta = sum over F of (1 - 2 x_j) ones and is accepted
    iff delta >= w (prev - x1).  The generations before it were rejected or,
    for an empty EA mask with prev == x1, accepted without any change; they
    only advance g (and t), and are handed to the observer, if any, one by
    one.  Each change makes a new bitstring, so no array handed out is
    written again.
    """
    init = random_init(n, rng)
    prev, x, t, g = init.prev_first, init.current, 1, 0
    x1, ones = int(x[0]), int(x.sum())
    gain = 1 - 2 * x.astype(np.int64)
    draw = _flip_source(kind.name, n, rng)
    block = _FIRST_ROWS
    r = k = 0
    while True:
        # (prev, x) was just initialised or changed by generation g
        state = TLState(prev, x, t, g)
        optimum = _is_optimum_parts(w, prev, ones, n)
        event = None if optimum else classify_lumped(kind.name, w, n, prev, x1, ones - x1)
        if observer is not None:
            observer(g, state, True, event)
        if optimum:
            return TrialOutcome(TrialStatus.OPTIMUM, g, None, state)
        if event is not None:
            return TrialOutcome(TrialStatus.STAGNATED, g, event, state)
        window = _FIRST_ROWS
        while True:
            if r == k:
                if g == budget:
                    return TrialOutcome(TrialStatus.BUDGET, g, None, TLState(prev, x, t, g))
                k, r = min(block, _BLOCK_DRAWS, budget - g), 0
                block *= 2
                rows, cols, starts = draw(k)
                flips = np.diff(starts)
                flipping, single = flips > 0, bool((flips == 1).all())
            end = min(k, r + window)
            lo, hi = starts[r], starts[end]
            delta = gain[cols[lo:hi]]
            if not single:
                delta = np.bincount(rows[lo:hi] - r, weights=delta, minlength=end - r)
            accepted = changes = delta >= w * (prev - x1)
            if prev == x1 and not single:
                # an empty mask is accepted and changes nothing
                changes = accepted & flipping[r:end]
            j = int(changes.argmax())
            found = bool(changes[j])
            if not found:
                j = end - r
            if observer is None:
                t += int(np.count_nonzero(accepted[:j])) if changes is not accepted else 0
                g += j
            else:
                for a in accepted[:j].tolist():
                    g += 1
                    t += a
                    observer(g, TLState(prev, x, t, g), a, None)
            r += j
            if found:
                break
            window *= 2
        x = x.copy()
        for c in cols[starts[r]:starts[r + 1]].tolist():
            x[c] ^= 1
            gain[c] = -gain[c]
        prev, x1, ones = x1, int(x[0]), ones + int(delta[j])
        t += 1
        g += 1
        r += 1


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


def _int_bits(x: np.ndarray) -> int:
    """A uint8 bit array as a Python int with bit j = position j."""
    return int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")


def _array_bits(x: int, n: int) -> np.ndarray:
    """The inverse of ``_int_bits`` for length n."""
    return np.unpackbits(np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
                         count=n, bitorder="little")


_stamp = itemgetter(0)


def _run_mu_plus_one(mu, w, n, budget, rng, observer):
    """(mu+1) EA trials on fitness buckets, generation for generation the
    same as iterating ``_mu_plus_one_generation`` on population arrays with
    scalar draws from the same three sub-streams.

    After the mu ``random_init`` draws, two raw words of ``rng`` seed a
    ``SeedSequence`` whose three children drive the rest: parent indices,
    drawn as ``integers(mu, size=k)``; mutations, read off the flip field of
    ``_flip_source("ea", ...)``; and tie-breaks, picked by ``_tie_source``.
    Parent indices and flips are drawn for blocks of generations that double
    from ``_FIRST_ROWS`` up to ``_BLOCK_DRAWS``.  Each sub-stream is read in
    order whatever the block sizes, so a trial does not depend on them.  The
    law is that of ``rng.integers(mu)``, ``rng.random(n) < 1/n`` and
    ``rng.integers(size)`` per generation, but seeded trials differ from
    those of versions that drew so.

    Each member is (birth stamp, stored bit, bitstring, ones, array), the
    bitstring a Python int with bit j = position j, so a generation costs a
    few int operations per flipped bit.  Row order is increasing stamp
    order: a removal keeps the order of the rest and a surviving offspring
    goes last.  So ``rows`` lists the members in the reference's row order,
    a member is found from its stamp by bisection, and ``buckets[f]`` lists
    the stamps of fitness f in row order: the tie-break's k-th
    minimum-fitness candidate is ``buckets[lo][k]``, with the offspring,
    when tied, as the last one.  A tie-break of size 1 reads no word, and an
    offspring below the minimum fitness ``lo`` is that case.

    A member's uint8 array is built once, when it is first handed out: at
    birth if there is an observer, else for ``final_state``.  Arrays are
    never written after they are built, so the snapshots share them.
    """
    rows = []
    buckets: dict[int, list[int]] = {}
    for stamp in range(mu):
        s = random_init(n, rng)
        ones = int(s.current.sum())
        rows.append((stamp, s.prev_first, _int_bits(s.current), ones, s.current))
        buckets.setdefault(ones + w * s.prev_first, []).append(stamp)
    lo = min(buckets)
    seeds = np.random.SeedSequence(rng.bit_generator.random_raw(2).tolist()).spawn(3)
    parents, flips, ties = (np.random.default_rng(s) for s in seeds)
    draw, pick = _flip_source("ea", n, flips), _tie_source(ties)

    def snapshot():
        return [PopulationMember(prev, a if a is not None else _array_bits(x, n))
                for _, prev, x, _, a in rows]

    if observer is not None:
        observer(0, snapshot(), True, None)
    if any(_is_optimum_parts(w, prev, ones, n) for _, prev, _, ones, _ in rows):
        return TrialOutcome(TrialStatus.OPTIMUM, 0, None, snapshot())
    block = _FIRST_ROWS
    r = k = 0
    for g in range(1, budget + 1):
        if r == k:
            k, r = min(block, _BLOCK_DRAWS, budget - g + 1), 0
            block *= 2
            picks = parents.integers(mu, size=k).tolist()
            _, cols, starts = draw(k)
            cols, starts = cols.tolist(), starts.tolist()
        _, _, x, ones, _ = rows[picks[r]]
        prev = x & 1  # the offspring stores its parent's first bit
        for c in cols[starts[r]:starts[r + 1]]:
            ones += 1 - 2 * (x >> c & 1)
            x ^= 1 << c
        r += 1
        fit = ones + w * prev
        survived = fit >= lo
        if survived:
            bucket = buckets[lo]
            size = len(bucket) + (fit == lo)
            j = pick(size) if size > 1 else 0
            survived = j < len(bucket)
        if survived:
            del rows[bisect_left(rows, bucket.pop(j), key=_stamp)]
            stamp = mu + g  # above every earlier birth stamp
            rows.append((stamp, prev, x, ones, None if observer is None else _array_bits(x, n)))
            buckets.setdefault(fit, []).append(stamp)
            if not bucket:
                del buckets[lo]
                lo = min(buckets)
        if observer is not None:
            observer(g, snapshot(), survived, None)
        if survived and _is_optimum_parts(w, prev, ones, n):
            return TrialOutcome(TrialStatus.OPTIMUM, g, None, snapshot())
    return TrialOutcome(TrialStatus.BUDGET, budget, None, snapshot())
