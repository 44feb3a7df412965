"""Test-side oracles that share no code with the solver they check.

``full_state_absorption`` solves the unlumped chain over all 2 * 2**n full
states (stored first bit, current bitstring) with one dense solve of the
fundamental-matrix system (I - Q) X = R (Kemeny & Snell).  It imports nothing
from ``tlonemax.markov``; the class labels come from
``stagnation.class_codes``, which ``is_absorbing_oracle`` checks.
"""

from typing import NamedTuple

import numpy as np

from tlonemax.stagnation import StagnationEvent, class_codes, lumped_index

#: Absorbing classes in the column order of ``class_codes``.
CLASSES = ("optimum", *(event.value for event in StagnationEvent))


class FullStateAbsorption(NamedTuple):
    """per_state[i, c]: probability of class CLASSES[c] from lumped state i,
    the mean over its full states; overall: class masses under uniform
    initialization; spread: the largest deviation of a full state's row from
    its lumped group's mean."""

    per_state: np.ndarray
    overall: dict
    spread: float


def full_state_absorption(kind, w: int, n: int) -> FullStateAbsorption:
    """Absorption of the full-state chain of the rls or ea ``kind``.

    Bitstring y is offspring of x with probability 1/n at Hamming distance 1
    (one-bit mutation) or (1/n)^d (1 - 1/n)^(n-d) at distance d (bit-wise).
    State (p, x) moves to (x_1, y) iff ones(y) + w x_1 >= ones(x) + w p;
    rejected mass stays on the state.  Bit 0 of the integer x is x_1."""
    assert 2 <= n <= 10  # the dense chain holds (2 * 2**n)**2 doubles: 32 MB at n = 10
    X = np.arange(1 << n)
    ones = np.array([bin(v).count("1") for v in X])
    dist = ones[X[:, None] ^ X]
    M = (dist == 1) / n if kind.name == "rls" else (1 / n) ** dist * (1 - 1 / n) ** (n - dist)
    prev, x = np.repeat([0, 1], X.size), np.tile(X, 2)  # state s = p * 2**n + x
    first, fit = x & 1, ones[x] + w * prev
    k = ones[x] - first
    accepted = ones + w * first[:, None] >= fit[:, None]
    states = np.arange(x.size)
    P = np.zeros((x.size, x.size))
    P[states[:, None], first[:, None] * X.size + X] = np.where(accepted, M[x], 0.0)
    P[states, states] += np.where(accepted, 0.0, M[x]).sum(axis=1)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12

    group = lumped_index(prev, first, k, n)
    cls = class_codes(kind.name, w, n, prev, first, k)
    t = np.flatnonzero(cls < 0)
    off = P[t]
    off[np.arange(t.size), t] = 0.0
    esc = off.sum(axis=1)  # sum_{j != i} P_ij: 1 - P_ii cancels at deep quasi-traps
    assert (esc > 0.0).all(), "a transient state has no escape mass"
    assert not (off > 0.0)[fit[t][:, None] > fit].any(), "an accepted move lowers the fitness"
    # (I - Q) X = R with each row divided by esc_i: the embedded jump chain
    off /= esc[:, None]
    A = -off[:, t]
    A[np.diag_indices_from(A)] = 1.0
    per_full = (cls[:, None] == np.arange(len(CLASSES))).astype(float)
    per_full[t] = np.linalg.solve(A, off @ per_full)

    counts = np.bincount(group, minlength=4 * n)
    per_state = np.stack([np.bincount(group, col, 4 * n) for col in per_full.T], axis=1)
    per_state /= counts[:, None]
    overall = {name: float(col.mean()) for name, col in zip(CLASSES, per_full.T)}
    spread = float(np.abs(per_full - per_state[group]).max())
    return FullStateAbsorption(per_state, overall, spread)
