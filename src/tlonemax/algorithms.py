"""Steppers for the time-linkage RLS and (1+1) EA, plus trials of all three.

``step`` is the named reference for one single-parent generation.  RLS and
(1+1) EA trials run on one batch engine, ``_run_batch``, which steps many
trials at once, each on its own generator: one step of array operations
applies every generation of each trial's window up to the first that flips
a position an earlier accepted one flipped, up to an accepted bit-0 flip,
or up to the trial's end.  ``run_trial`` hands it one generator, and
``montecarlo`` hands it blocks of consecutive trials.  A trial's generator
is ``np.random.default_rng(seed)`` built from ``_seed_words``, numpy's
``SeedSequence`` hash written once for Python ints and uint64 arrays, so a
block's seeds and generator words are hashed in a few array passes
(``_trial_generators``), and no generator hashes its seed again.  For RLS
a trial is the same as iterating ``step``.  For the (1+1) EA it reads every mask off
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
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (TLState, _init_bits, _init_words, _integer, check_count, check_length,
                   check_seed, check_weight, fitness, top_fitness)
from .stagnation import CODE_EVENTS, StagnationEvent, class_codes


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


_MASK32 = 0xFFFFFFFF


def _int_words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; 0
    is one word.  numpy's ``SeedSequence`` reads an int entropy so."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_keys(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of ``count`` successive steps of one of
    ``SeedSequence``'s hashes: step i xors its value with init * mult**i and
    multiplies it by init * mult**(i + 1), modulo 2**32."""
    keys = []
    for _ in range(count):
        keys.append((init, init := init * mult & _MASK32))
    return keys


@lru_cache(maxsize=16)  # a run asks a few (size, words): seeds, generators, children
def _hash_schedule(size: int, words: int):
    """The steps of ``_seed_words`` for ``size`` entropy words and ``words``
    output words: the entropy hash's keys for the pool's first fill, its
    (source, destination, keys) for mixing every pool word into every other,
    then every entropy word past the pool into each pool word, and the
    output hash's (pool word, keys)."""
    mixing = _hash_keys(0x43B0D7E5, 0x931E8875, 16 + 4 * max(size - 4, 0))
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    pairs += [(s, d) for s in range(4, size) for d in range(4)]
    out = _hash_keys(0x8B51F9DD, 0x58F38DED, words)
    return (mixing[:4], [(s, d, *key) for (s, d), key in zip(pairs, mixing[4:])],
            [(i % 4, *key) for i, key in enumerate(out)])


def _seed_words(entropy: list, words: int) -> list:
    """``np.random.SeedSequence(entropy).generate_state(words)``, the
    32-bit words, of entropy given as its 32-bit words.  numpy's algorithm
    (``SeedSequence`` with its pool of four words): hash the entropy into
    the pool, zeros past its end, mix every pool word into every other, mix
    every entropy word past the pool into each, then hash the pool words in
    turn into the output.

    Each entropy word is a Python int or a uint64 array, one value per row,
    so a whole block of trials hashes in one pass with the same code.
    Products of two 32-bit values fit in 64 bits and each is masked to 32,
    so uint64 arrays never overflow."""
    first, mixes, out = _hash_schedule(len(entropy), words)
    pool = []
    for e, (x, m) in zip([*entropy[:4], 0, 0, 0], first):
        v = (e ^ x) * m & _MASK32
        pool.append(v ^ v >> 16)
    pool += entropy[4:]  # mixed in as they are, as sources only
    for s, d, x, m in mixes:
        v = (pool[s] ^ x) * m & _MASK32
        v = (pool[d] * 0xCA01F9DD & _MASK32) + ((v ^ v >> 16) * 0xB68C08EB & _MASK32) & _MASK32
        pool[d] = v ^ v >> 16
    state = []
    for s, x, m in out:
        v = (pool[s] ^ x) * m & _MASK32
        state.append(v ^ v >> 16)
    return state


class _SeedWords(ISeedSequence):
    """A seed sequence that hands out PCG64 seed words computed ahead by
    ``_seed_words``, so a generator is built without hashing again."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg_words(state) -> np.ndarray:
    """The PCG64 seed words of 8 32-bit ``_seed_words`` (a sequence, or an
    array with them on its last axis): ``generate_state(4, np.uint64)``,
    which reads the pairs as little-endian 64-bit words."""
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _generator(words: np.ndarray) -> np.random.Generator:
    """``np.random.default_rng(seed)`` from the ``_pcg_words`` of the seed's
    entropy, without hashing again."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def split_seed(master_seed: int, index: int) -> int:
    """Stable order-independent per-trial seed from (master seed, trial
    index): numpy's ``SeedSequence([master_seed, index])``, first 64-bit
    state word."""
    low, high = _seed_words(_int_words(int(master_seed)) + _int_words(int(index)), 2)
    return low | high << 32


def _spawned_generators(entropy: list[int], count: int) -> list[np.random.Generator]:
    """``[default_rng(s) for s in SeedSequence(entropy).spawn(count)]``:
    numpy pads a spawned sequence's entropy words with zeros to the pool's
    four, then appends the child's index."""
    words = [word for value in entropy for word in _int_words(value)]
    words += [0] * (4 - len(words))
    return [_generator(_pcg_words(_seed_words(words + [i], 8))) for i in range(count)]


def _hash_ints(prefix: list, values: np.ndarray, words: int) -> np.ndarray:
    """(words, len(values)) uint64 array: column i is ``_seed_words`` of the
    entropy ``prefix`` + ``_int_words(values[i])``, for a uint64 array of
    values, one or two words each."""
    state = np.empty((words, values.size), dtype=np.uint64)
    short = values <= _MASK32
    for rows, tail in ((short, [values]), (~short, [values & _MASK32, values >> 32])):
        if rows.any():
            state[:, rows] = _seed_words(prefix + [word[rows] for word in tail], words)
    return state


def _trial_generators(master_seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """The generators ``run_trial`` builds for the seeds
    ``split_seed(master_seed, i)``, i in range(start, stop), hashed in two
    array passes: the seeds from their [master, i] entropy, then each
    seed's PCG64 words from its own."""
    low, high = _hash_ints(_int_words(master_seed), np.arange(start, stop, dtype=np.uint64), 2)
    return [_generator(words) for words in _pcg_words(_hash_ints([], low | high << 32, 8).T)]


def run_trial(kind: AlgorithmKind, w: int, n: int, budget: int, seed: int,
              observer=None) -> TrialOutcome:
    """Run one seeded trial to absorption or budget.

    The optimum test runs after initialization and after every acceptance;
    stagnation classification (single-parent kinds only) runs at the same
    points.  Deterministic given (kind, w, n, budget, seed): the trial's
    generator is ``np.random.default_rng(seed)``.  ``observer``, when
    given, is called as observer(g, state_or_population, accepted, event)
    after initialization (g=0) and after every generation.
    """
    budget, w, n = check_count("budget", budget), check_weight(w), check_length(n)
    rng = _generator(_pcg_words(_seed_words(_int_words(check_seed(seed)), 8)))
    if kind.single_parent:
        return _run_batch(kind.name, w, n, budget, [rng], observer)[0]
    return _run_mu_plus_one(kind.mu, w, n, budget, rng, observer)


#: Most random numbers one draw call makes: the rows of a drawn block (RLS
#: draws one index per row, the (mu+1) EA one parent index), the geometric
#: gaps of one flip-field chunk and the words of one tie-break block; also
#: the most rows a window of ``_run_batch`` reads and one draw hands out.
#: Every trial of a batch holds up to half a block plus one cap of drawn
#: rows: with a cap of 2**12, the runtime-scaling trials at n = 256 and
#: 1024, w = 1, 30 per kind, peaked at 9.6 MB of arrays instead of 1.5 MB,
#: and ran no faster.
_BLOCK_DRAWS = 1 << 9

#: Rows of the first drawn block and of the first window.  Blocks double up
#: to the cap, so short trials draw little past their end; a window is twice
#: the generations the last step applied, so windows that conflicts cut
#: early stay short.
_FIRST_ROWS = 16


def _flip_cells(kind_name, n, rng):
    """cells(k, most): (flip cells, rows) of the next rows generations'
    mutations, sorted, with k <= rows <= most; cell r n + j stands for bit
    j of the r-th of them.

    RLS reads the generator's stream exactly as per-generation draws do:
    ``rng.integers(n, size=k)`` gives the values of k calls
    ``rng.integers(n)``, and rows is k.  The (1+1) EA reads a flip field
    instead: cell (g - 1) n + j stands for bit j of generation g, and the
    flipped cells are c_1 = G_1 - 1 and c_{i+1} = c_i + G_{i+1}, with the
    G_i drawn as ``rng.geometric(1/n)``.  Every cell flips independently
    with probability 1/n, so each mask has the law of ``mutate_ea``'s
    ``rng.random(n) < 1/n``, but a generation costs O(1 + flips) instead of
    n random doubles.  Chunks of min(4k + 32, ``_BLOCK_DRAWS``) gaps, about
    four times a block's expected k flips, are drawn until the first k
    generations are covered, and rows is every whole generation they cover,
    up to the larger of k and ``_BLOCK_DRAWS``: a trial's first call covers
    about 4k + 32, so a short trial draws once or twice.  Cells drawn past
    the last row are kept for the next call, and ``rng.geometric(p,
    size=m)`` gives the values of m scalar calls, so the field does not
    depend on the chunk or block sizes.
    """
    if kind_name == "rls":
        return lambda k, most: (np.arange(0, k * n, n) + rng.integers(n, size=k), k)
    p = 1.0 / n
    # drawn flip cells not yet handed out, counted from the next block's
    # first cell, and the last drawn one
    field, last = np.empty(0, dtype=np.int64), -1

    def cells(k, most):
        nonlocal field, last
        if last < k * n:
            chunks = [field]
            while last < k * n:
                chunks.append(last + rng.geometric(p, size=min(4 * k + 32, _BLOCK_DRAWS)).cumsum())
                last = int(chunks[-1][-1])
            field = np.concatenate(chunks)
        end = min((last + 1) // n, most, max(k, _BLOCK_DRAWS)) * n
        cut = int(field.searchsorted(end))
        drawn, field, last = field[:cut], field[cut:] - end, last - end
        return drawn, end // n
    return cells


def _flip_source(kind_name, n, rng):
    """draw(k): the masks of the next k generations' mutations
    (``_flip_cells``), as a list of k Python ints with bit j set iff
    position j flips.  One pass over the block's flip cells makes them all,
    at any n."""
    cells = _flip_cells(kind_name, n, rng)

    def draw(k):
        rows, cols = np.divmod(cells(k, k)[0], n)
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
    row of gains 1 - 2 x_j.  An offspring flipping the positions F gains
    delta = sum over F of (1 - 2 x_j) ones and is accepted iff
    delta >= w (prev - x1).  The drawn generations of all trials lie end to
    end in one table, and their flips, as indices into the rows of gains,
    in one array beside it.  Each step reads a window of every trial's next
    drawn generations, all trials at once, so it costs a fixed number of
    array operations, however many trials are in the batch.

    A step applies every generation of a trial's window up to its cut, the
    first of: a generation that flips a position flipped by an earlier
    accepted generation of the window; the generation after an accepted one
    that flips bit 0; the generation after the first accepted one whose
    lumped state ends the trial.  Before the cut every delta read off the
    window's gains is exact, and the threshold is w (prev - x1) up to the
    first acceptance and 0 after it, since that acceptance sets prev to x1
    and x1 stays.  So one scatter-min finds every position's first accepted
    generation, running sums of the accepted deltas give the ``class_codes``
    of every accepted state, and one scatter writes all applied flips: they
    flip distinct positions.  The observer, if any, is handed the applied
    generations one by one.  A trial's next window is twice the generations
    its step applied, at most ``_BLOCK_DRAWS``: a window cut early by a
    conflict is followed by a short one.

    When a trial has read all its drawn generations, every trial with less
    than half its next block left draws that block; blocks double from
    ``_FIRST_ROWS`` up to ``_BLOCK_DRAWS`` rows, and a draw takes every
    generation its chunks cover, about four times a small block, up to the
    budget.  Each generator is read in order whatever the block sizes.  A
    trial leaves the batch at the optimum or at a proven stagnation event,
    or at the budget.  Every handed-out bitstring is a new array, never
    written again.
    """
    m = len(rngs)
    prevs, starts = _init_bits(np.concatenate([_init_words(n, 1, rng) for rng in rngs]), n)
    draws = [_flip_cells(kind_name, n, rng) for rng in rngs]
    outcomes = [None] * m
    gain = 1 - 2 * starts.view(np.int8)
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
    # the drawn unread flips, as gain indices: the sizes[c] flips of column
    # c are flips[ptr[c]:ptr[c + 1]]
    flips, sizes, ptr = (np.zeros(k, dtype=np.int64) for k in (0, 0, 1))
    # the class code of the lumped state (p, p ^ f, after - (p ^ f)) by the
    # key 2 (n + 1) p + (n + 1) f + after: the state that an accepted
    # generation leaves, from first bit p, flipping bit 0 iff f = 1, with
    # after ones
    key = np.arange(4 * n + 4)
    p, f, after = key // (2 * n + 2), key // (n + 1) % 2, key % (n + 1)
    codes = class_codes(kind_name, w, n, p, p ^ f, after - (p ^ f))
    # by gain index, the first accepted generation of a step to flip it
    never = np.iinfo(np.int64).max
    first_flip = np.full(m * n, never)

    def state(s, prev, t, g):
        return TLState(prev, (gain[s] < 0).astype(np.uint8), t, g)

    def finish(positions, ending):
        """Record the outcomes of the trials at ``positions``, whose states
        have the class codes ``ending``."""
        for s, prev, t, g, code in zip(*trials[[0, 1, 4, 5]][:, positions].tolist(),
                                       ending.tolist()):
            status = TrialStatus.OPTIMUM if code == 0 else TrialStatus.STAGNATED
            outcomes[s] = TrialOutcome(status, g, CODE_EVENTS[code], state(s, prev, t, g))

    prev, x1, ones = trials[1:4]
    code = codes[(2 * n + 2) * prev + (n + 1) * (prev ^ x1) + ones]
    if observer is not None:
        observer(0, state(0, int(prev[0]), 1, 0), True, CODE_EVENTS[code[0]])
    ended = (code >= 0).nonzero()[0]
    finish(ended, code[ended])
    while True:
        if ended.size:
            keep = np.ones(trials.shape[1], dtype=bool)
            keep[ended] = False
            trials = trials[:, keep]
            if not keep.any():
                return outcomes
        slot, prev, x1, ones, t, g, row, end, window, block = trials
        left = end - row
        if not left.all():
            most = budget - g - left
            k = np.minimum(block, most)
            k[2 * left >= block] = 0
            block[k > 0] = np.minimum(2 * block[k > 0], _BLOCK_DRAWS)
            drawing = k.nonzero()[0]
            fresh = [draws[s](kk, mm) for s, kk, mm in
                     zip(slot[drawing].tolist(), k[drawing].tolist(), most[drawing].tolist())]
            k[drawing] = [rows for _, rows in fresh]
            size = left + k
            end[:] = size.cumsum()
            start = end - size
            counts = np.array([c.size for c, _ in fresh])
            columns, cells = np.divmod(np.concatenate([c for c, _ in fresh]), n)
            del fresh
            columns += (end - k)[drawing].repeat(counts)
            cells += (slot[drawing] * n).repeat(counts)
            # each trial's unread flips move to the front of its range, its
            # drawn ones follow
            per = np.bincount(columns, minlength=end[-1])
            per[_ranges(start, left)[0]] = sizes.take(_ranges(row, left)[0])
            lo, hi = ptr.take(row), ptr.take(row + left)
            sizes, ptr = per, np.zeros(end[-1] + 1, dtype=np.int64)
            sizes.cumsum(out=ptr[1:])
            old, flips = flips, np.empty(ptr[-1], dtype=np.int64)
            head = ptr.take(start)
            flips[_ranges(head, hi - lo)[0]] = old.take(_ranges(lo, hi - lo)[0])
            flips[_ranges((head + hi - lo)[drawing], counts)[0]] = cells
            row[:] = start
            left = size

        # every trial's window, end to end, and its flips, generation by
        # generation, with the acceptances as if nothing cut the window
        length = np.minimum(window, left)
        ends = length.cumsum()
        offsets = ends - length
        total = int(ends[-1])
        at = np.arange(total)
        count = sizes.take(at + (row - offsets).repeat(length))
        lo, hi = ptr.take(row), ptr.take(row + length)
        pos = flips.take(_ranges(lo, hi - lo)[0])
        col = at.repeat(count)
        gains = flat.take(pos)
        delta = np.bincount(col, gains, total).astype(np.int64)
        accepted = delta >= 0
        if w and (prev != x1).any():
            # up to a trial's first acceptance the threshold is w (prev - x1)
            lead = delta >= (w * (prev - x1)).repeat(length)
            first = np.minimum.reduceat(np.where(lead, at, total), offsets)
            accepted = np.where(at > first.repeat(length), accepted, lead)

        # the cut: the first generation to flip a position an earlier
        # accepted one flipped, or the one after an accepted generation that
        # flips bit 0 or ends the trial
        took = accepted.take(col)
        sources = pos[took]
        # the values have the indices' shape: numpy 2.4's ufunc.at reads
        # stray memory when it broadcasts them
        np.minimum.at(first_flip, sources, col[took])
        clash = col[first_flip.take(pos) < col]
        first_flip[sources] = never
        flips0 = np.zeros(total, dtype=bool)
        flips0[col[pos % n == 0]] = True
        gained = np.where(accepted, delta, 0)
        running = gained.cumsum()
        before = running.take(offsets) - gained.take(offsets)
        code = codes.take(((2 * n + 2) * x1 + ones - before).repeat(length) + running
                          + (n + 1) * flips0, mode="clip")
        stop = np.where(accepted & (flips0 | (code >= 0)), at + 1, total)
        stop[clash] = clash
        cut = np.minimum(np.minimum.reduceat(stop, offsets), ends)
        done = cut - offsets
        if observer is not None:
            pv, tt, gg = trials[[1, 4, 5], 0].tolist()
            x = (gain[0] < 0).astype(np.uint8)
            read = 0
            for a, c, flipped in zip(accepted[:done[0]].tolist(), code[:done[0]].tolist(),
                                     count[:done[0]].tolist()):
                gg += 1
                if a:
                    tt += 1
                    pv = int(x[0])
                    if flipped:
                        x = x.copy()
                        x[pos[read:read + flipped]] ^= 1
                read += flipped
                observer(gg, TLState(pv, x, tt, gg), a, CODE_EVENTS[c] if a else None)

        # apply every accepted generation before the cut in one scatter:
        # they flip distinct positions
        applied = accepted & (at < cut.repeat(length))
        put = applied.take(col)
        flat[pos[put]] = -gains[put]
        moved = np.add.reduceat(applied, offsets, dtype=np.int64)
        last = cut - 1
        t += moved
        trials[5:7] += done  # g and row
        ones += running.take(last) - before
        np.copyto(prev, x1, where=moved > 0)
        x1[:] = gain[slot, 0] < 0
        np.minimum(2 * done, _BLOCK_DRAWS, out=window)
        code = code.take(last)
        ended = (accepted.take(last) & (code >= 0)).nonzero()[0]
        if ended.size:
            finish(ended, code[ended])
        if budget in g:
            over = np.setdiff1d((g == budget).nonzero()[0], ended)
            for s, pv, tt, gg in zip(*trials[[0, 1, 4, 5]][:, over].tolist()):
                outcomes[s] = TrialOutcome(TrialStatus.BUDGET, gg, None, state(s, pv, tt, gg))
            ended = np.union1d(ended, over)


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
    ``rng`` seed the three children of their ``SeedSequence``
    (``_spawned_generators``), which drive the rest:
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
    width = (n + 7) // 8  # bytes per bitstring
    packed = np.packbits(bits, axis=1, bitorder="little").tobytes()
    xs = [int.from_bytes(packed[i:i + width], "little") for i in range(0, mu * width, width)]
    rows = [list(member) for member in zip(prevs.tolist(), xs, bits)]
    stamps = list(range(mu))
    buckets: dict[int, list[int]] = {}
    for stamp, (prev, x, _) in enumerate(rows):
        buckets.setdefault(x.bit_count() + w * prev, []).append(stamp)
    lo = min(buckets)
    parents, flips, ties = _spawned_generators(rng.bit_generator.random_raw(2).tolist(), 3)
    draw, pick = _flip_source("ea", n, flips), _tie_source(ties)

    def snapshot():
        bare = [row for row in rows if row[2] is None]
        joined = b"".join([row[1].to_bytes(width, "little") for row in bare])
        packed = np.frombuffer(joined, dtype=np.uint8).reshape(len(bare), width)
        for row, a in zip(bare, np.unpackbits(packed, axis=1, count=n, bitorder="little")):
            row[2] = a
        return [PopulationMember(prev, a) for prev, _, a in rows]

    if observer is not None:
        shown = snapshot()
        observer(0, shown, True, None)
    top = top_fitness(w, n)
    if max(buckets) == top:
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
            fit = x.bit_count() + w * prev
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
            if survived and fit == top:
                return TrialOutcome(TrialStatus.OPTIMUM, g, None, snapshot())
    return TrialOutcome(TrialStatus.BUDGET, budget, None, snapshot())
