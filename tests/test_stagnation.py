import numpy as np
import pytest

import tlonemax as tl
from tlonemax.core import TLState
from tlonemax.stagnation import classify_lumped


def bits_of(value, n):
    return np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)


def state(prev, s):
    return TLState(prev, tl.as_bits(s))


E1, E2, E3 = tl.StagnationEvent.EVENT_I, tl.StagnationEvent.EVENT_II, tl.StagnationEvent.EVENT_III


class TestClassify:
    def test_event1_interval_ea(self):
        # n=6, w=-6: tail ones 4 lies in [w+n..n-2] = [0..4]
        assert tl.classify(tl.ONE_PLUS_ONE_EA, -6, state(0, "110111")) is E1

    def test_event2(self):
        assert tl.classify(tl.RLS, -2, state(1, "111111")) is E2
        assert tl.classify(tl.ONE_PLUS_ONE_EA, -2, state(1, "1111")) is E2

    def test_event3_interval_ea(self):
        # n=6, w=3: tail ones 5 lies in [n-w+1..n-1] = [4..5]
        assert tl.classify(tl.ONE_PLUS_ONE_EA, 3, state(1, "011111")) is E3

    def test_w1_never_event3(self):
        for s in (state(1, "011111"), state(1, "000000"), state(1, "010101")):
            assert tl.classify(tl.RLS, 1, s) is None
            assert tl.classify(tl.ONE_PLUS_ONE_EA, 1, s) is None

    def test_wminus1_has_no_event1(self):
        # the EA interval [n-1..n-2] is empty; one-bit mutation needs w <= -2
        for s in (state(0, "110100"), state(0, "111110")):
            assert tl.classify(tl.ONE_PLUS_ONE_EA, -1, s) is None
            assert tl.classify(tl.RLS, -1, s) is None

    def test_rls_event1_ignores_tail_count(self):
        for tail in ("00000", "10110", "11110"):
            assert tl.classify(tl.RLS, -2, state(0, "1" + tail)) is E1

    def test_ea_event1_outside_interval(self):
        # n=6, w=-2: interval [4..4]; tail ones 3 is transient
        assert tl.classify(tl.ONE_PLUS_ONE_EA, -2, state(0, "111010")) is None
        assert tl.classify(tl.ONE_PLUS_ONE_EA, -2, state(0, "111011")) is E1

    def test_non_integer_weight_refused(self):
        # -2.5 used to be compared as it was: both answered event1 here
        for check in (tl.classify, tl.is_absorbing_oracle):
            with pytest.raises(TypeError, match="^w must be an integer, got -2.5$"):
                check(tl.ONE_PLUS_ONE_EA, -2.5, state(0, "111011"))

    def test_never_fires_on_optimum(self):
        for n in range(2, 9):
            ones = "1" * n
            for w in range(-2 * n, 2 * n + 1):
                for prev in (0, 1):
                    s = state(prev, ones)
                    if tl.is_global_optimum(w, s):
                        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
                            assert tl.classify(kind, w, s) is None

    def test_requires_single_parent(self):
        with pytest.raises(ValueError, match="single-parent kinds only, got 'mu-ea'$"):
            tl.classify(tl.mu_plus_one_ea(2), -4, state(0, "1010"))


class TestOracle:
    def test_zero_flip_tie_keeps_w_minus1_alive(self):
        # a tail-zero flip ties under one-bit mutation at w=-1, so the (0,1)
        # pattern is not absorbing there
        assert not tl.is_absorbing_oracle(tl.RLS, -1, state(0, "110100"))

    def test_w0_only_optimum_family_absorbs(self):
        n = 6
        for prev in (0, 1):
            for value in range(1 << n):
                s = TLState(prev, bits_of(value, n))
                absorbing = tl.is_absorbing_oracle(tl.ONE_PLUS_ONE_EA, 0, s)
                if int(s.current.sum()) < n:
                    assert not absorbing
        # the all-ones states are the optimum family itself
        assert tl.is_absorbing_oracle(tl.ONE_PLUS_ONE_EA, 0, state(1, "111111"))

    def test_rls_size_guard(self):
        with pytest.raises(ValueError):
            tl.is_absorbing_oracle(tl.RLS, 0, TLState(0, np.zeros(17, dtype=np.uint8)))
        # bit-wise mutation has no enumeration limit
        assert not tl.is_absorbing_oracle(tl.ONE_PLUS_ONE_EA, 0, TLState(0, np.zeros(40, dtype=np.uint8)))

    def test_requires_single_parent(self):
        with pytest.raises(ValueError, match="single-parent kinds only, got 'mu-ea'$"):
            tl.is_absorbing_oracle(tl.mu_plus_one_ea(2), -4, state(0, "1010"))


def test_soundness_and_completeness_sweep():
    # every classified state is absorbing and non-optimal; every absorbing
    # non-optimal state is classified (no unclassified traps exist at small n)
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        for n in range(4, 9):
            for w in range(-10, 11):
                for prev in (0, 1):
                    for value in range(1 << n):
                        s = TLState(prev, bits_of(value, n))
                        ev = tl.classify(kind, w, s)
                        absorbing = tl.is_absorbing_oracle(kind, w, s)
                        optimal = tl.is_global_optimum(w, s)
                        if ev is not None:
                            assert absorbing and not optimal
                        if absorbing and not optimal:
                            assert ev is not None


def test_classify_lumped_matches_classify():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(2, 12))
        s = tl.random_init(n, rng)
        w = int(rng.integers(-15, 16))
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            lumped = classify_lumped(kind.name, w, n, s.prev_first,
                                     int(s.current[0]), int(s.current[1:].sum()))
            assert lumped is tl.classify(kind, w, s)
