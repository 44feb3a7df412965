import numpy as np
import pytest
from scipy.stats import chi2

import tlonemax as tl


def test_fitness_examples():
    assert tl.fitness(-5, 1, tl.as_bits("11111")) == 0
    assert tl.fitness(3, 1, tl.as_bits("10110")) == 6
    assert tl.fitness(-2, 0, tl.as_bits("01100")) == 2


def test_fitness_is_pure_and_deterministic():
    x = tl.as_bits("10110")
    vals = {tl.fitness(3, 1, x) for _ in range(5)}
    assert vals == {6}
    assert x.tolist() == [1, 0, 1, 1, 0]


@pytest.mark.parametrize("w,prev,bits,expected", [
    (-3, 0, "1111", True),
    (2, 0, "1111", False),
    (0, 1, "1111", True),
    (0, 0, "1111", True),
    (5, 1, "1111", True),
    (-3, 1, "1111", False),
    (-3, 0, "1101", False),
])
def test_is_global_optimum(w, prev, bits, expected):
    assert tl.is_global_optimum(w, tl.TLState(prev, tl.as_bits(bits))) is expected


def test_is_global_optimum_exhaustive():
    # the docstring rule on every bitstring: all ones, with stored bit 0 for
    # w < 0 and 1 for w > 0
    for n in range(2, 7):
        for value in range(1 << n):
            x = np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)
            for prev in (0, 1):
                s = tl.TLState(prev, x)
                for w in [*range(-8, 9), -2**31, 2**31]:
                    rule = value == (1 << n) - 1 and (w == 0 or prev == int(w > 0))
                    assert tl.is_global_optimum(w, s) is rule, (n, value, prev, w)


def test_public_names():
    assert len(tl.__all__) == len(set(tl.__all__)) == 36
    for name in tl.__all__:
        getattr(tl, name)


def test_optimum_implies_all_ones():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        s = tl.random_init(n, rng)
        w = int(rng.integers(-15, 16))
        if tl.is_global_optimum(w, s):
            assert int(s.current.sum()) == n


def test_fitness_monotone_in_ones():
    # flipping any zero to one raises fitness by exactly 1
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        x = tl.core.random_bitstring(n, rng)
        w = int(rng.integers(-50, 51))
        prev = int(rng.integers(0, 2))
        base = tl.fitness(w, prev, x)
        for i in np.flatnonzero(x == 0):
            y = x.copy()
            y[i] = 1
            assert tl.fitness(w, prev, y) == base + 1


def test_random_init_counters_and_determinism():
    s1 = tl.random_init(8, np.random.default_rng(42))
    s2 = tl.random_init(8, np.random.default_rng(42))
    assert s1.t == 1 and s1.g == 0
    assert s1.prev_first == s2.prev_first
    assert np.array_equal(s1.current, s2.current)


def test_random_init_pattern_chisquare():
    # the four (prev_first, current_first) patterns are uniform at alpha=1e-3
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    trials = 10**5
    for _ in range(trials):
        s = tl.random_init(4, rng)
        counts[2 * s.prev_first + int(s.current[0])] += 1
    expected = trials / 4
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(1 - 1e-3, df=3)


def test_random_init_ones_binomial_chisquare():
    rng = np.random.default_rng(8)
    n, trials = 10, 10**5
    ones = np.array([int(tl.random_init(n, rng).current.sum()) for _ in range(trials)])
    counts = np.bincount(ones, minlength=n + 1)
    from math import comb
    probs = np.array([comb(n, k) / 2**n for k in range(n + 1)])
    # merge tails so every expected count is >= 5
    expected = probs * trials
    keep = expected >= 5
    stat = (((counts - expected)[keep] ** 2) / expected[keep]).sum()
    if (~keep).any():
        stat += ((counts[~keep].sum() - expected[~keep].sum()) ** 2) / expected[~keep].sum()
    assert stat < chi2.ppf(1 - 1e-3, df=keep.sum())


def test_validation_guards():
    with pytest.raises(ValueError):
        tl.random_init(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"n >= 2, got shape \(1,\)$"):
        tl.as_bits("1")
    with pytest.raises(ValueError, match=r"n >= 2, got shape \(2, 2\)$"):
        tl.as_bits([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="entries must be 0 or 1, got 2$"):
        tl.as_bits([0, 2, 1])
    with pytest.raises(ValueError, match="prev_first must be 0 or 1, got 2$"):
        tl.TLState(2, tl.as_bits("0101"))
    with pytest.raises(ValueError):
        tl.TLState(0, tl.as_bits("0101"), t=3, g=1)
    from tlonemax.core import check_weight
    with pytest.raises(ValueError):
        check_weight(2**31 + 1)
    assert check_weight(-2**31) == -2**31


@pytest.mark.parametrize("check, name", [("check_length", "n"), ("check_weight", "w"),
                                         ("check_seed", "seed")])
@pytest.mark.parametrize("value", [2.5, 8.0, "3", np.float64(4.5)])
def test_checks_refuse_non_integers(check, name, value):
    # int() would truncate 2.5 to 2; operator.index refuses it
    from tlonemax import core
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        getattr(core, check)(value)


def test_is_global_optimum_refuses_non_integer_weight():
    # 0.5 used to count as a positive weight
    with pytest.raises(TypeError, match="^w must be an integer, got 0.5$"):
        tl.is_global_optimum(0.5, tl.TLState(0, tl.as_bits("1111")))


def test_checks_accept_numpy_integers():
    from tlonemax.core import check_count, check_length, check_seed, check_weight
    for check in (check_length, check_weight, check_seed):
        assert type(check(np.int64(7))) is int and check(np.uint8(7)) == 7
    assert check_count("budget", np.int32(3)) == 3


@pytest.mark.parametrize("n", [2, 3, 5, 8, 30, 31, 33, 100, 1001])
def test_init_words_read_the_random_init_stream(n):
    # one draw of c rows reads what c successive random_init calls read: the
    # same stored bits and bitstrings, and the generator ends in the same
    # state.  A numpy release that changes its bounded uint8 draw fails here
    # before the pinned trial digests do
    from tlonemax.core import _init_bits, _init_words
    for count in (1, 2, 7, 120):
        for seed in range(20):
            drawn, called = np.random.default_rng(seed), np.random.default_rng(seed)
            prevs, bits = _init_bits(_init_words(n, count, drawn), n)
            want = [tl.random_init(n, called) for _ in range(count)]
            assert prevs.tolist() == [s.prev_first for s in want], (n, count, seed)
            assert bits.dtype == np.uint8 and bits.shape == (count, n)
            assert np.array_equal(bits, np.array([s.current for s in want])), (n, count, seed)
            assert drawn.bit_generator.state == called.bit_generator.state, (n, count, seed)
