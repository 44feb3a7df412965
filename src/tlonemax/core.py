"""Problem definition: bitstrings, the weighted time-linkage fitness, and optima.

The benchmark family optimizes a length-n bitstring one decision at a time.
The fitness of the decision made at time t is

    fitness = ones(x^t) + w * x1^{t-1}

i.e. the classic ones-count of the current bitstring plus a signed integer
weight ``w`` times the *first bit of the previous decision*.  Only that single
stored bit of the past ever enters the objective, so the algorithm state keeps
exactly (previous first bit, current bitstring).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: Weights are capped so that any fitness fits comfortably in a signed 64-bit
#: integer even when bitstring sums are taken with numpy.
MAX_WEIGHT = 2**31


def _integer(name: str, value) -> int:
    """``value`` as a plain int; a non-integer is refused, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_weight(w: int) -> int:
    """Validate the time-linkage weight and return it as a plain int."""
    w = _integer("w", w)
    if abs(w) > MAX_WEIGHT:
        raise ValueError(f"|w| must be <= 2**31, got {w}")
    return w


def check_length(n: int) -> int:
    """Validate the bitstring length and return it as a plain int."""
    n = _integer("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return n


def check_seed(seed: int) -> int:
    """Validate a random seed and return it as a plain int."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_count(name: str, value: int) -> int:
    """Validate a count that must be at least 1 (a budget or a trial count)
    and return it as a plain int."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def as_bits(bits) -> np.ndarray:
    """Coerce a bit sequence (list, tuple, string, array) to a uint8 array.

    Rejects lengths below 2: the tail positions 2..n must be nonempty for
    every statement this package checks.
    """
    if isinstance(bits, str):
        bits = [int(b) for b in bits]
    x = np.asarray(bits, dtype=np.uint8)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"bitstring must be one-dimensional with n >= 2, got shape {x.shape}")
    if np.any(x > 1):
        raise ValueError(f"bitstring entries must be 0 or 1, got {int(x.max())}")
    return x


def fitness(w: int, prev_first: int, x: np.ndarray) -> int:
    """Exact integer fitness ones(x) + w * prev_first.

    ``prev_first`` is the stored first bit of the previous decision.  Pure and
    deterministic; all arithmetic is exact integer arithmetic.
    """
    return int(x.sum()) + w * prev_first


@dataclass(eq=False, slots=True)
class TLState:
    """Full single-parent algorithm state.

    prev_first : stored first bit of the previous decision (x1^{t-1})
    current    : current bitstring (x^t)
    t          : decision-time counter, starts at 1 after initialization
    g          : offspring fitness evaluations performed so far
    """

    prev_first: int
    current: np.ndarray
    t: int = 1
    g: int = 0

    def __post_init__(self):
        if self.prev_first not in (0, 1):
            raise ValueError(f"prev_first must be 0 or 1, got {self.prev_first}")
        if self.t < 1 or self.g < 0 or self.g < self.t - 1:
            raise ValueError(f"invalid counters t={self.t}, g={self.g}")

    @property
    def n(self) -> int:
        return self.current.shape[0]

    def fitness(self, w: int) -> int:
        return fitness(w, self.prev_first, self.current)


def top_fitness(w: int, n: int) -> int:
    """Highest fitness at length n: n ones, plus w when a stored 1 pays.
    A state reaches it iff it is a global optimum, since ones <= n and the
    stored bit is 0 or 1."""
    return n + max(w, 0)


def is_global_optimum(w: int, state: TLState) -> bool:
    """Whether ``state`` is a global optimum of the weighted objective.

    The current bitstring must be all ones; the stored previous first bit must
    be 0 for w < 0, 1 for w > 0, and is unrestricted for w = 0.
    """
    w = check_weight(w)
    return state.fitness(w) == top_fitness(w, state.n)


def random_bitstring(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bitstring of length n >= 2."""
    return rng.integers(0, 2, size=check_length(n), dtype=np.uint8)


def random_init(n: int, rng: np.random.Generator) -> TLState:
    """Uniform initialization of the single-parent state.

    Draws the previous decision's first bit and the current bitstring
    independently and uniformly (the objective never reads any other bit of
    the previous decision, so only its first bit is generated and stored).
    Counters start at t = 1, g = 0.  ``random_bitstring`` refuses n < 2.
    """
    prev_first = int(rng.integers(0, 2))
    return TLState(prev_first=prev_first, current=random_bitstring(n, rng), t=1, g=0)


def _init_words(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The words that ``count`` successive ``random_init(n, rng)`` calls
    read, one row per call, in one draw.  numpy draws ``integers(0, 2)``
    from the top bit of one 32-bit word and ``integers(0, 2, size=n,
    dtype=uint8)`` from the top bits of the little-endian bytes of ceil(n/4)
    words, so a full-range uint32 draw reads the same words and leaves the
    generator in the same state; ``_init_bits`` decodes them."""
    return rng.integers(0, 1 << 32, size=(count, 1 + (n + 3) // 4), dtype=np.uint32)


def _init_bits(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stored bits and (rows, n) uint8 bitstrings of ``_init_words`` rows."""
    return words[:, 0] >> 31, words.astype("<u4", copy=False).view(np.uint8)[:, 4:4 + n] >> 7
