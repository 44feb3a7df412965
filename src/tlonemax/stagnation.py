"""Detection of the absorbing failure states of the single-parent algorithms.

Three first-bit-pattern events are proven absorbing: once entered, selection
rejects every offspring that could move the state anywhere new, so the global
optimum is unreachable afterwards.

* event1 (negative weights below -1): stored/current first bits (0, 1) with the
  current bitstring not all ones; under bit-wise mutation additionally the
  ones among positions 2..n must lie in [w+n .. n-2] so that even flipping
  every remaining zero cannot recover the weight loss.
* event2 (negative weights): stored/current pattern (1, all-ones) -- the local
  optimum of the stored-bit-1 subspace; only the identical bitstring is ever
  re-accepted.
* event3 (positive weights): stored/current first bits (1, 0); under one-bit
  mutation this is absorbing for every w > 1, under bit-wise mutation the ones
  among positions 2..n must lie in [n-w+1 .. n-1].

``classify`` pattern-matches exactly these proven conditions and nothing else;
``is_absorbing_oracle`` re-derives absorption from first principles (fitness
bounds and offspring enumeration) independently of ``classify``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import TLState, check_weight, fitness

#: One-bit-mutation states stay exactly enumerable up to this length.
RLS_ORACLE_MAX_N = 16


class StagnationEvent(str, Enum):
    """Absorbing failure classes; values match the CSV/JSON column names."""

    EVENT_I = "event1"
    EVENT_II = "event2"
    EVENT_III = "event3"


def classify_lumped(kind_name: str, w: int, n: int, prev_first: int,
                    cur_first: int, rest_ones: int) -> StagnationEvent | None:
    """Classify from the symmetry-reduced coordinates.

    ``rest_ones`` is the ones-count among positions 2..n.  Returns None when
    no proven absorbing pattern applies; intervals whose lower bound exceeds
    their upper bound are empty and never fire.
    """
    if w < 0:
        if prev_first == 1 and cur_first == 1 and rest_ones == n - 1:
            return StagnationEvent.EVENT_II
        if w <= -2 and prev_first == 0 and cur_first == 1 and rest_ones <= n - 2:
            if kind_name == "rls" or rest_ones >= w + n:
                return StagnationEvent.EVENT_I
        return None
    if w > 0 and prev_first == 1 and cur_first == 0:
        if kind_name == "rls":
            return StagnationEvent.EVENT_III if w > 1 else None
        if n - w + 1 <= rest_ones <= n - 1:
            return StagnationEvent.EVENT_III
    return None


def classify(kind, w: int, state: TLState) -> StagnationEvent | None:
    """Classify a full single-parent state into a proven absorbing event.

    ``kind`` must be a single-parent algorithm kind (one-bit or bit-wise
    mutation); population-based variants have no proven absorbing event.
    """
    if not kind.single_parent:
        raise ValueError("classification is defined for single-parent kinds only, "
                         f"got {kind.name!r}")
    cur_first = int(state.current[0])
    rest_ones = int(state.current[1:].sum())
    return classify_lumped(kind.name, check_weight(w), state.n, state.prev_first, cur_first, rest_ones)


def is_absorbing_oracle(kind, w: int, state: TLState) -> bool:
    """First-principles absorption check, independent of ``classify``.

    Returns True iff the full state (stored bit, current bitstring) can never
    change again: every offspring either fails the selection rule or -- for
    bit-wise mutation when the stored bit already equals the current first
    bit -- is the incumbent bitstring itself re-accepted in place.  Global
    optima can satisfy this too (they are absorbing successes); soundness of
    ``classify`` means every classified state passes this check while never
    being an optimum.

    One-bit mutation enumerates all n offspring exactly and is limited to
    n <= 16; bit-wise mutation has full support, so only the maximum
    achievable offspring fitness matters and any n is accepted.
    """
    if not kind.single_parent:
        raise ValueError("absorption oracle is defined for single-parent kinds only, "
                         f"got {kind.name!r}")
    w, x, n = check_weight(w), state.current, state.n
    incumbent = fitness(w, state.prev_first, x)
    cur_first = int(x[0])

    if kind.name == "rls":
        if n > RLS_ORACLE_MAX_N:
            raise ValueError(f"one-bit oracle enumerates offspring only up to n={RLS_ORACLE_MAX_N}")
        n_ones = int(x.sum())
        for i in range(n):
            flipped_ones = n_ones + (1 if x[i] == 0 else -1)
            if flipped_ones + w * cur_first >= incumbent:
                return False
        return True

    # Bit-wise mutation reaches every bitstring, so absorption reduces to
    # fitness bounds.  If the stored bit differs from the current first bit,
    # even re-accepting the incumbent bitstring changes the state.
    n_ones = int(x.sum())
    if state.prev_first == cur_first:
        best_other = (n - 1 if n_ones == n else n) + w * cur_first
        return best_other < incumbent
    return n + w * cur_first < incumbent
