import hashlib
import math
import types

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency, ks_2samp

import tlonemax as tl
from tlonemax import algorithms, montecarlo
from tlonemax.algorithms import _mu_plus_one_generation, accept, mutate_ea, mutate_rls


def bits(s):
    return tl.as_bits(s)


def state(prev, s):
    return tl.TLState(prev, bits(s))


def binomial_chisquare(flips, n):
    """Chi-square statistic and its alpha = 1e-3 critical value for flip
    counts against Binomial(n, 1/n); cells expecting under 5 are pooled."""
    probs = np.array([math.comb(n, k) * (1 / n) ** k * (1 - 1 / n) ** (n - k)
                      for k in range(n + 1)])
    counts = np.bincount(flips, minlength=n + 1).astype(float)
    expected = probs * flips.size
    keep = expected >= 5
    stat = (((counts - expected)[keep] ** 2) / expected[keep]).sum()
    if (~keep).any():
        stat += ((counts[~keep].sum() - expected[~keep].sum()) ** 2) / expected[~keep].sum()
    return stat, chi2.ppf(1 - 1e-3, df=keep.sum())


class TestMutateRls:
    def test_hamming_distance_always_one(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = tl.core.random_bitstring(int(rng.integers(2, 20)), rng)
            y = mutate_rls(x, rng)
            assert int((x != y).sum()) == 1

    def test_enumeration_from_zero(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            y = mutate_rls(bits("0000"), rng)
            seen.add("".join(map(str, y)))
        assert seen == {"1000", "0100", "0010", "0001"}

    def test_position_frequencies(self):
        # each position flipped with frequency 1/10 within 3 sigma
        rng = np.random.default_rng(2)
        n, trials = 10, 10**5
        counts = np.zeros(n)
        x = tl.core.random_bitstring(n, rng)
        for _ in range(trials):
            y = mutate_rls(x, rng)
            counts[int(np.flatnonzero(x != y)[0])] += 1
        sigma = math.sqrt(trials * 0.1 * 0.9)
        assert np.all(np.abs(counts - trials / 10) <= 3 * sigma)


class TestMutateEa:
    def test_flip_count_distribution(self):
        rng = np.random.default_rng(3)
        n, trials = 10, 10**5
        x = tl.core.random_bitstring(n, rng)
        flips = np.array([(x != mutate_ea(x, rng)).sum() for _ in range(trials)])
        p_none = (1 - 1 / n) ** n
        p_one = (1 - 1 / n) ** (n - 1)
        for k, p in ((0, p_none), (1, p_one)):
            freq = (flips == k).mean()
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(freq - p) <= 3 * sigma
        stat, critical = binomial_chisquare(flips, n)
        assert stat < critical


class TestAccept:
    def test_equal_fitness_accepted(self):
        s = state(0, "0110")
        twin = s.current.copy()
        assert accept(0, s, twin)

    def test_derived_examples(self):
        # offspring loses the weight advantage of its parent's stored 0
        s = state(0, "1011")
        assert accept(-4, s, bits("1111")) is False
        # offspring gains the stored-1 bonus
        s = state(0, "1110")
        assert accept(2, s, bits("0110")) is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="offspring length 3 must match the state's 4$"):
            accept(0, state(0, "0110"), bits("011"))


class TestStep:
    def test_rejection_only_bumps_g(self):
        # from (1, all-ones) with w<0 every offspring is rejected
        s = state(1, "11111")
        rng = np.random.default_rng(4)
        for _ in range(50):
            s2 = tl.step(tl.RLS, -5, s, rng)
            assert s2.t == s.t and s2.prev_first == 1
            assert np.array_equal(s2.current, s.current)
            assert s2.g == s.g + 1
            s = s2

    def test_event2_trap_ea(self):
        # bit-wise mutation can re-accept the all-ones string but the state
        # (1, all-ones) never changes
        s = state(1, "1111")
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = tl.step(tl.ONE_PLUS_ONE_EA, -4, s, rng)
            assert s.prev_first == 1 and int(s.current.sum()) == 4

    def test_rls_first_bit_never_drops_from_11(self):
        # any first-bit flip loses 1 one and keeps the stored bonus: rejected
        rng = np.random.default_rng(6)
        for w in (1, 2, 5):
            s = state(1, "1100110011")
            for _ in range(500):
                s = tl.step(tl.RLS, w, s, rng)
                assert int(s.current[0]) == 1

    def test_fitness_nondecreasing_in_t(self):
        rng = np.random.default_rng(7)
        for w in (-6, -1, 0, 2):
            s = tl.random_init(12, rng)
            last = None
            for _ in range(400):
                s2 = tl.step(tl.ONE_PLUS_ONE_EA, w, s, rng)
                if s2.t > s.t:
                    f = s2.fitness(w)
                    if last is not None:
                        assert f >= last
                    last = f
                s = s2

    def test_step_rejects_population_kind(self):
        with pytest.raises(ValueError):
            tl.step(tl.mu_plus_one_ea(3), 0, state(0, "0101"), np.random.default_rng(0))


def _trace_hash(kind, w, n, seed, budget=20000):
    h = hashlib.sha256()

    def obs(g, s, accepted, event):
        h.update(bytes([s.prev_first]))
        h.update(s.current.tobytes())
        h.update(b"1" if accepted else b"0")

    out = tl.run_trial(kind, w, n, budget, seed, observer=obs)
    h.update(f"{out.status.value}|{out.generations}".encode())
    return h.hexdigest()


class TestTrajectoryEquivalence:
    # below -n the acceptance order is weight-independent, so seeded runs agree
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA])
    def test_weights_below_minus_n(self, kind):
        n = 8
        for seed in range(10):
            h1 = _trace_hash(kind, -n, n, seed)
            h2 = _trace_hash(kind, -2 * n, n, seed)
            h3 = _trace_hash(kind, -n - 1, n, seed)
            assert h1 == h2 == h3

    def test_fixed_seed_replays_identically(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            assert _trace_hash(kind, -3, 10, 123) == _trace_hash(kind, -3, 10, 123)


def field_masks(n, rng):
    """The (1+1) EA's masks read off the flip field one scalar gap at a time:
    generation g flips bit j iff cell (g - 1) n + j is a flip cell; the first
    flip cell is G - 1 and each next one lies G further, G ~ Geometric(1/n)."""
    cell, base = int(rng.geometric(1 / n)) - 1, 0
    while True:
        mask = np.zeros(n, dtype=np.uint8)
        while cell < base + n:
            mask[cell - base] = 1
            cell += int(rng.geometric(1 / n))
        yield mask
        base += n


def reference_trial(kind, w, n, budget, seed, observer=None, use_step=False):
    """The step-by-step single-parent trial, built from the public ``step``,
    ``accept``, ``classify`` and ``is_global_optimum``: run_trial must agree
    with it.  RLS iterates ``step``; the (1+1) EA applies ``accept`` to the
    masks of ``field_masks``, or iterates ``step`` itself with ``use_step``
    (the same law, other random numbers)."""
    rng = np.random.default_rng(seed)
    state = tl.random_init(n, rng)
    masks = field_masks(n, rng)

    def advance(s):
        if kind.name == "rls" or use_step:
            return tl.step(kind, w, s, rng)
        offspring = s.current ^ next(masks)
        if accept(w, s, offspring):
            return tl.TLState(int(s.current[0]), offspring, s.t + 1, s.g + 1)
        return tl.TLState(s.prev_first, s.current, s.t, s.g + 1)

    event = tl.classify(kind, w, state)
    if observer is not None:
        observer(0, state, True, event)
    if tl.is_global_optimum(w, state):
        return tl.TrialOutcome(tl.TrialStatus.OPTIMUM, 0, None, state)
    if event is not None:
        return tl.TrialOutcome(tl.TrialStatus.STAGNATED, 0, event, state)
    for _ in range(budget):
        new = advance(state)
        accepted = new.t > state.t
        state = new
        event = None
        if accepted:
            if tl.is_global_optimum(w, state):
                if observer is not None:
                    observer(state.g, state, True, None)
                return tl.TrialOutcome(tl.TrialStatus.OPTIMUM, state.g, None, state)
            event = tl.classify(kind, w, state)
        if observer is not None:
            observer(state.g, state, accepted, event)
        if event is not None:
            return tl.TrialOutcome(tl.TrialStatus.STAGNATED, state.g, event, state)
    return tl.TrialOutcome(tl.TrialStatus.BUDGET, budget, None, state)


def outcome_key(out):
    s = out.final_state
    return (out.status, out.event, out.generations, s.prev_first, s.current.tolist(), s.t, s.g)


class Recorder:
    """Observer that logs every call as plain values."""

    def __init__(self):
        self.calls = []

    def __call__(self, g, s, accepted, event):
        self.calls.append((g, s.t, s.g, s.prev_first, s.current.tobytes(), accepted, event))


def trajectory_digest(kind, trial):
    """sha256 of every observer call and outcome of a grid of seeded trials
    run by ``trial`` (run_trial's signature)."""
    h = hashlib.sha256()

    def obs(g, s, accepted, event):
        h.update(f"{g}|{s.t}|{s.prev_first}|{int(accepted)}|{event}|".encode())
        h.update(s.current.tobytes())

    for n in (5, 12, 40):
        for w in (-n, -3, -1, 0, 1, 2, 5):
            for seed in (0, 77):
                out = trial(kind, w, n, 500, seed, observer=obs)
                h.update(f"{out.status.value}|{out.event}|{out.generations}|"
                         f"{out.final_state.t}|{out.final_state.g}".encode())
    return h.hexdigest()


def two_sample_pvalues(engine, other, trials, master):
    """p-values of two trial functions, each called as f(seed), on samples
    of independent seeds: chi-square on the outcome class (classes seen
    under 10 times pooled) and two-sample Kolmogorov-Smirnov on the
    generation count."""
    def sample(trial, stream):
        outs = [trial(tl.split_seed(master + stream, i)) for i in range(trials)]
        return [f"{o.status.value}:{o.event}" for o in outs], [o.generations for o in outs]

    a, b = sample(engine, 0), sample(other, 1)
    classes = sorted(set(a[0]) | set(b[0]))
    table = np.array([[labels.count(c) for c in classes] for labels in (a[0], b[0])])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    p_class = chi2_contingency(table).pvalue if table.shape[1] > 1 else 1.0
    return p_class, ks_2samp(a[1], b[1]).pvalue


class TestSingleParentEngine:
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_matches_reference_stepper(self, kind):
        # outcome, final state with t and g, and every observer call agree
        # with step (rls) or the scalar-gap flip field (ea)
        for n in (2, 3, 5, 10, 20, 33):
            for w in (-2 * n, -n - 1, -n, -3, -2, -1, 0, 1, 2, 5, n, 3 * n):
                for budget in (1, 7, 400):
                    for seed in (0, 1, 77):
                        got, want = Recorder(), Recorder()
                        out = tl.run_trial(kind, w, n, budget, seed, observer=got)
                        ref = reference_trial(kind, w, n, budget, seed, observer=want)
                        assert outcome_key(out) == outcome_key(ref), (n, w, budget, seed)
                        assert got.calls == want.calls, (n, w, budget, seed)
                        plain = tl.run_trial(kind, w, n, budget, seed)
                        assert outcome_key(plain) == outcome_key(ref), (n, w, budget, seed)

    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_long_trials_match_reference_stepper(self, kind):
        # long enough to run through several drawn blocks and flip cells
        # carried over between them; n = 1000 reaches the block cap
        for n, w, seed in ((64, 1, 3), (200, 0, 4), (40, 3, 5), (40, -3, 6), (1000, 1, 7)):
            out = tl.run_trial(kind, w, n, 20000, seed)
            ref = reference_trial(kind, w, n, 20000, seed)
            assert outcome_key(out) == outcome_key(ref), (n, w, seed)

    @pytest.mark.parametrize("block_draws, first_rows",
                             [(1, 1), (1, 3), (3, 1), (3, 3), (512, 512)])
    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA, tl.mu_plus_one_ea(1),
                                      tl.mu_plus_one_ea(4), tl.mu_plus_one_ea(30)],
                             ids=["rls", "ea", "mu1", "mu4", "mu30"])
    def test_block_schedule_does_not_matter(self, kind, block_draws, first_rows,
                                            monkeypatch):
        # one-row blocks, one-gap chunks, one-word tie-break blocks and
        # one-row windows give the same outcomes and observer calls as the
        # default schedule; so do 512-row first blocks and windows, which
        # hold many changes, conflicts and bit-0 flips (nearly every window
        # conflicts at n = 2 and 3)
        key, recorder = ((outcome_key, Recorder) if kind.single_parent
                         else (population_key, PopulationRecorder))

        def runs():
            seen = []
            for n, w in ((2, 1), (3, -3), (10, 0), (33, 2), (64, -1)):
                for budget, seed in ((7, 0), (400, 1), (3000, 2)):
                    calls = recorder()
                    out = tl.run_trial(kind, w, n, budget, seed, observer=calls)
                    plain = tl.run_trial(kind, w, n, budget, seed)
                    seen.append((key(out), calls.calls, key(plain)))
            return seen

        want = runs()
        monkeypatch.setattr(algorithms, "_FIRST_ROWS", first_rows)
        monkeypatch.setattr(algorithms, "_BLOCK_DRAWS", block_draws)
        assert runs() == want

    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_flip_field_counts_are_binomial(self, n):
        # the popcounts of the drawn blocks' masks against Bin(n, 1/n); at
        # n <= 3, p = 1/n >= 1/3 and numpy draws geometric gaps by search
        # instead of by inversion
        draw = algorithms._flip_source("ea", n, np.random.default_rng(12 + n))
        blocks, flips = [1, 2, 7, 64, 1000, 5] * 40, []
        for k in blocks:
            masks = draw(k)
            assert len(masks) == k and all(type(m) is int and 0 <= m < 1 << n for m in masks)
            flips.extend(m.bit_count() for m in masks)
        flips = np.array(flips)
        assert flips.size == sum(blocks)
        stat, critical = binomial_chisquare(flips, n)
        assert stat < critical

    @pytest.mark.parametrize("n, w, budget, trials", [(20, 2, 400, 1000), (64, -1, 800, 500)])
    def test_ea_law_matches_step(self, n, w, budget, trials):
        # run_trial's flip field against iterated step's masks
        # rng.random(n) < 1/n
        p_class, p_generations = two_sample_pvalues(
            lambda seed: tl.run_trial(tl.ONE_PLUS_ONE_EA, w, n, budget, seed),
            lambda seed: reference_trial(tl.ONE_PLUS_ONE_EA, w, n, budget, seed, use_step=True),
            trials, master=0)
        assert p_class > 1e-3 and p_generations > 1e-3, (p_class, p_generations)

    def test_seeded_trajectories_pinned(self):
        # every observer call and outcome of rls and ea trials.  The rls
        # digest was recorded from the step-by-step loop that run_trial ran
        # before it skipped rejected generations; the ea digest from the
        # scalar-gap flip-field loop of reference_trial
        pinned = {"rls": "74d0160f01bf0e567f5624224280838402809228c472b0a4aabe86a1ed4a1369",
                  "ea": "be79e27f850be315d9ad26a0db07b83001fbd8b504571dae14132aad0eb8536c"}
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            assert trajectory_digest(kind, tl.run_trial) == pinned[kind.name], kind.name
            assert trajectory_digest(kind, reference_trial) == pinned[kind.name], kind.name

    @pytest.mark.parametrize("kind", [tl.RLS, tl.ONE_PLUS_ONE_EA], ids=["rls", "ea"])
    def test_handed_out_arrays_never_written(self, kind):
        # observers may keep the states they are given (perfbench's counter
        # classifies them after the trial)
        kept = []

        def keep(g, s, accepted, event):
            kept.append((s, s.current.copy()))

        for n, w in ((12, 1), (12, -3), (30, 0), (30, 4)):
            for seed in range(3):
                out = tl.run_trial(kind, w, n, 3000, seed, observer=keep)
                kept.append((out.final_state, out.final_state.current.copy()))
        assert len(kept) > 500
        for s, snapshot in kept:
            assert np.array_equal(s.current, snapshot)


def population(w, members):
    """Population arrays for _mu_plus_one_generation: (stored bit, bitstring)
    rows, plus the empty offspring row mu."""
    mu, n = len(members), len(members[0][1])
    prevs = np.zeros(mu + 1, dtype=np.int64)
    currents = np.zeros((mu + 1, n), dtype=np.uint8)
    for i, (prev, current) in enumerate(members):
        prevs[i], currents[i] = prev, bits(current)
    return prevs, currents, currents.sum(axis=1, dtype=np.int64) + w * prevs


def copy_population(arrays):
    return tuple(a.copy() for a in arrays)


def old_order_generation(w, prevs, currents, fits, rng):
    """_mu_plus_one_generation fed in the order of versions that drew every
    generation from the trial's generator: rng.integers(mu), then the mask
    rng.random(n) < 1/n, then the tie-break rng.integers(size)."""
    mu, n = currents.shape[0] - 1, currents.shape[1]
    parent = int(rng.integers(mu))
    flips = np.flatnonzero(rng.random(n) < 1 / n)
    return _mu_plus_one_generation(w, prevs, currents, fits, parent, flips,
                                   lambda size: int(rng.integers(size)))


def lemire_ties(rng):
    """tie(size): a uniform index below size from scalar 64-bit words,
    rejecting a word u when u * size % 2**64 < 2**64 % size; size 1 reads
    no word."""
    def tie(size):
        while size > 1:
            m = int(rng.bit_generator.random_raw()) * size
            if m % 2**64 >= 2**64 % size:
                return m >> 64
        return 0
    return tie


def stream_generation(mu, n, rng):
    """generation(w, prevs, currents, fits): _mu_plus_one_generation fed
    scalar draws from three sub-streams, seeded by a SeedSequence of the
    next two raw words of rng: rng.integers(mu) on the first, the masks of
    field_masks on the second and lemire_ties on the third."""
    seeds = np.random.SeedSequence(rng.bit_generator.random_raw(2).tolist()).spawn(3)
    parents, flips, ties = (np.random.default_rng(s) for s in seeds)
    masks, tie = field_masks(n, flips), lemire_ties(ties)

    def generation(w, prevs, currents, fits):
        parent = int(parents.integers(mu))
        return _mu_plus_one_generation(w, prevs, currents, fits, parent,
                                       np.flatnonzero(next(masks)), tie)
    return generation


class TestMuPlusOne:
    def test_population_size_preserved(self):
        rng = np.random.default_rng(8)
        members = []
        for _ in range(5):
            s = tl.random_init(6, rng)
            members.append((s.prev_first, s.current))
        prevs, currents, fits = population(-6, members)
        for _ in range(50):
            old_order_generation(-6, prevs, currents, fits, rng)
            assert prevs.shape == fits.shape == (6,) and currents.shape == (6, 6)
            assert (fits == currents.sum(axis=1, dtype=np.int64) - 6 * prevs).all()

    def test_uniform_tie_break_survival(self):
        # all mu+1 fitnesses equal: each member survives with prob mu/(mu+1);
        # a cloned rng predicts the offspring so we can condition on the tie
        mu, w = 3, 0
        rng = np.random.default_rng(9)
        members = [(0, "1100"), (0, "1010"), (0, "0110")]
        start = population(w, members)
        ties = survived = 0
        while ties < 2000:
            clone = np.random.default_rng(0)
            clone.bit_generator.state = rng.bit_generator.state
            j = int(clone.integers(mu))
            off_fit = int(mutate_ea(bits(members[j][1]), clone).sum())
            prevs, currents, fits = copy_population(start)
            old_order_generation(w, prevs, currents, fits, rng)
            if off_fit == 2:
                ties += 1
                # removing the marker in row 0 shifts "1010" into it
                survived += currents[0].tolist() == [1, 1, 0, 0]
        p_expected = mu / (mu + 1)
        sigma = math.sqrt(p_expected * (1 - p_expected) / ties)
        assert abs(survived / ties - p_expected) <= 3 * sigma

    def test_worst_removed_on_hand_built_population(self):
        # (stored 1, all-ones) at w <= -n is the strict worst against
        # (stored 0, all-ones): fitness n+w <= 0 < n
        n, w = 4, -4
        rng = np.random.default_rng(10)
        prevs, currents, fits = population(w, [(1, "1111"), (0, "1111")])
        old_order_generation(w, prevs, currents, fits, rng)
        # every offspring stores its parent's first bit 1, so a stored-0 row
        # is the original member; it stays unless the offspring tied it at
        # the bottom
        assert any(p == 0 and c.all() for p, c in zip(prevs[:2], currents[:2]))
        assert (fits[:2] >= 0).all()
        assert fits[:2].max() == 4

    def test_strictly_worse_offspring_never_survives_mu1(self):
        # with mu=1 a strictly worse offspring is the unique worst and is
        # removed; only fitness ties can reject the parent's replacement
        rng = np.random.default_rng(11)
        parent = population(5, [(1, "111111")])
        for _ in range(300):
            prevs, currents, fits = copy_population(parent)
            old_order_generation(5, prevs, currents, fits, rng)
            assert fits[0] == int(currents[0].sum()) + 5 * prevs[0]
            assert fits[0] >= 11  # the parent's 6 ones + w

    def test_seeded_trajectories_pinned(self):
        # every snapshot, accepted flag and outcome of run_trial's population
        # loop, pinned so that a change to its randomness use or member order
        # shows; the digest was recorded from the scalar-draw loop of
        # reference_population_trial
        pinned = "ffcecb32246e9db085ff789b8a31dd7f3bce37ea766cac9791fbc0f959f8a51e"
        assert population_digest(run_population_trial) == pinned
        assert population_digest(reference_population_trial) == pinned

    def test_old_order_kernel_reproduces_earlier_digest(self):
        # fed its draws in the order of the versions that drew every
        # generation from one generator, the kernel still gives the digest
        # that run_trial had then: the kernel itself is unchanged
        digest = population_digest(
            lambda *a, **k: reference_population_trial(*a, **k, old_order=True))
        assert digest == "32deab284f47815bfdb0aaf1b43469378acbe88226bed428406a2029d9a9c52b"

    @pytest.mark.parametrize("mu, n, w, budget, trials", [(3, 10, -10, 150, 400),
                                                          (8, 12, 0, 150, 400)])
    def test_law_matches_old_order_kernel(self, mu, n, w, budget, trials):
        # the sub-streams change seeded trials, not their law
        p_class, p_generations = two_sample_pvalues(
            lambda seed: tl.run_trial(tl.mu_plus_one_ea(mu), w, n, budget, seed),
            lambda seed: reference_population_trial(mu, w, n, budget, seed, old_order=True),
            trials, master=0)
        assert p_class > 1e-3 and p_generations > 1e-3, (p_class, p_generations)

    def test_tie_source_rejects_biased_words(self):
        # a word u is rejected when u * size % 2**64 < 2**64 % size: for
        # size 3 that is only u = 0; for size 2**63 + 1 it is every even u
        # below 2**63 - 1, such as 4 and 2**63 - 2
        supply = iter([0, 2**63, 2**64 - 1, 4, 2**63 - 2, 1, 2**64 - 1])
        stream = types.SimpleNamespace(bit_generator=types.SimpleNamespace(
            random_raw=lambda k: np.array([next(supply, 0) for _ in range(k)], dtype=np.uint64)))
        pick = algorithms._tie_source(stream)
        assert [pick(3), pick(3)] == [1, 2]
        assert [pick(2**63 + 1), pick(2**63 + 1)] == [0, 2**63]

    @pytest.mark.parametrize("size", [2, 3, 7, 120])
    def test_tie_source_is_uniform(self, size):
        pick = algorithms._tie_source(np.random.default_rng(size))
        picks = np.array([pick(size) for _ in range(300 * size)])
        assert ((0 <= picks) & (picks < size)).all()
        stat = ((np.bincount(picks, minlength=size) - 300) ** 2 / 300).sum()
        assert stat < chi2.ppf(1 - 1e-3, df=size - 1)

    def test_engine_matches_reference_kernel(self):
        # outcome, final population and every observer call agree with the
        # loop around the array kernel
        for mu in (1, 2, 4, 8, 30):
            for n in (2, 3, 6, 10):
                for w in (-2 * n, -n, -1, 0, 1, 5, n):
                    for budget in (1, 7, 400):
                        for seed in (0, 1, 77):
                            got, want = PopulationRecorder(), PopulationRecorder()
                            out = run_population_trial(mu, w, n, budget, seed, observer=got)
                            ref = reference_population_trial(mu, w, n, budget, seed,
                                                             observer=want)
                            case = (mu, n, w, budget, seed)
                            assert population_key(out) == population_key(ref), case
                            assert got.calls == want.calls, case

    @pytest.mark.parametrize("n", [65, 130])
    def test_multi_word_masks_match_reference_kernel(self, n):
        # masks and bitstrings past one 64-bit word: outcome, final
        # population and every observer call agree with the array kernel
        for w in (-n - 1, 2, n + 1):
            for mu, seed in ((1, 0), (4, 3), (9, 8)):
                got, want = PopulationRecorder(), PopulationRecorder()
                out = run_population_trial(mu, w, n, 600, seed, observer=got)
                ref = reference_population_trial(mu, w, n, 600, seed, observer=want)
                case = (mu, n, w, seed)
                assert population_key(out) == population_key(ref), case
                assert got.calls == want.calls, case

    def test_handed_out_arrays_never_written(self):
        # observers may keep the populations they are given
        kept = []

        def keep(g, pop, accepted, event):
            kept.extend((m, m.prev_first, m.current.copy()) for m in pop)

        for mu, n, w in ((1, 6, 2), (4, 8, -8), (8, 12, 0), (30, 10, -3)):
            for seed in range(3):
                out = tl.run_trial(tl.mu_plus_one_ea(mu), w, n, 500, seed, observer=keep)
                kept.extend((m, m.prev_first, m.current.copy()) for m in out.final_state)
        assert len(kept) > 5000
        for m, prev, snapshot in kept:
            assert m.prev_first == prev and np.array_equal(m.current, snapshot)

    @pytest.mark.parametrize("mu", [1, 3, 120])
    @pytest.mark.parametrize("n", [2, 7, 30, 65])
    def test_final_population_matches_reference(self, n, mu):
        # the starting members come from one draw and the final population
        # is unpacked in one call: member for member the reference's final
        # snapshot, each a uint8 array of its own
        for w in (-n, 0, 3):
            for seed in (0, 5):
                out = run_population_trial(mu, w, n, 200, seed)
                ref = reference_population_trial(mu, w, n, 200, seed)
                assert population_key(out) == population_key(ref), (mu, n, w, seed)
                pop = out.final_state
                assert all(m.current.dtype == np.uint8 and m.current.shape == (n,)
                           for m in pop)
                for m in pop:
                    before = [other.current.copy() for other in pop]
                    m.current[:] ^= 1
                    for other, was in zip(pop, before):
                        assert other is m or np.array_equal(other.current, was)


def reference_population_trial(mu, w, n, budget, seed, observer=None, old_order=False):
    """The (mu+1) EA trial as a loop around ``_mu_plus_one_generation`` with
    the draws of stream_generation, or of old_order_generation with
    ``old_order``: run_trial must agree with the first."""
    rng = np.random.default_rng(seed)
    prevs = np.zeros(mu + 1, dtype=np.int64)
    currents = np.zeros((mu + 1, n), dtype=np.uint8)
    for i in range(mu):
        s = tl.random_init(n, rng)
        prevs[i], currents[i] = s.prev_first, s.current
    fits = currents.sum(axis=1, dtype=np.int64) + w * prevs
    if old_order:
        def generation(*arrays):
            return old_order_generation(*arrays, rng)
    else:
        generation = stream_generation(mu, n, rng)

    def snapshot():
        return [tl.PopulationMember(int(prevs[i]), currents[i].copy()) for i in range(mu)]

    def optimum(i):
        return tl.is_global_optimum(w, tl.TLState(int(prevs[i]), currents[i]))

    if observer is not None:
        observer(0, snapshot(), True, None)
    if any(optimum(i) for i in range(mu)):
        return tl.TrialOutcome(tl.TrialStatus.OPTIMUM, 0, None, snapshot())
    for g in range(1, budget + 1):
        survived = generation(w, prevs, currents, fits)
        if observer is not None:
            observer(g, snapshot(), survived, None)
        if survived and optimum(mu):
            return tl.TrialOutcome(tl.TrialStatus.OPTIMUM, g, None, snapshot())
    return tl.TrialOutcome(tl.TrialStatus.BUDGET, budget, None, snapshot())


def run_population_trial(mu, w, n, budget, seed, observer=None):
    return tl.run_trial(tl.mu_plus_one_ea(mu), w, n, budget, seed, observer=observer)


def population_digest(trial):
    """sha256 of every snapshot, accepted flag and outcome of a grid of
    seeded trials run by ``trial`` (reference_population_trial's
    signature)."""
    h = hashlib.sha256()

    def obs(g, pop, accepted, event):
        h.update(f"{g}|{int(accepted)}|".encode())
        for m in pop:
            h.update(bytes([m.prev_first]))
            h.update(m.current.tobytes())

    n = 6
    for mu in (1, 4, 8):
        for w in (-n, 0, 5):
            for seed in (0, 77):
                out = trial(mu, w, n, 300, seed, observer=obs)
                h.update(f"{out.status.value}|{out.generations}".encode())
    return h.hexdigest()


def members_key(pop):
    return tuple((m.prev_first, m.current.tobytes()) for m in pop)


def population_key(out):
    return (out.status, out.event, out.generations, members_key(out.final_state))


class PopulationRecorder:
    """Observer that logs every population it is given as plain values."""

    def __init__(self):
        self.calls = []

    def __call__(self, g, pop, accepted, event):
        self.calls.append((g, accepted, event, members_key(pop)))


class TestRunTrial:
    def test_w0_always_reaches_optimum(self):
        for i in range(100):
            out = tl.run_trial(tl.ONE_PLUS_ONE_EA, 0, 30, 10**6, seed=tl.split_seed(1, i))
            assert out.status is tl.TrialStatus.OPTIMUM
        assert out.generations <= 10**6

    def test_strong_negative_weight_mostly_stagnates(self):
        stagnated = 0
        for i in range(200):
            out = tl.run_trial(tl.ONE_PLUS_ONE_EA, -50, 50, tl.default_budget(50),
                               seed=tl.split_seed(2, i))
            stagnated += out.status is tl.TrialStatus.STAGNATED
        assert stagnated > 150

    def test_budget_outcome_is_distinct(self):
        out = tl.run_trial(tl.ONE_PLUS_ONE_EA, 0, 40, 1, seed=3)
        if out.status is tl.TrialStatus.BUDGET:
            assert out.generations == 1 and out.event is None

    def test_initial_stagnation_counts_at_g0(self):
        # some seed initializes straight into the (0,1) trap at w=-n
        hit = False
        for seed in range(40):
            out = tl.run_trial(tl.RLS, -6, 6, 100, seed)
            if out.status is tl.TrialStatus.STAGNATED and out.generations == 0:
                hit = True
                assert out.event is tl.StagnationEvent.EVENT_I or out.event is tl.StagnationEvent.EVENT_II
        assert hit

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            tl.run_trial(tl.RLS, 0, 6, 0, seed=0)

    def test_weight_outside_domain_rejected(self):
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA, tl.mu_plus_one_ea(3)):
            with pytest.raises(ValueError, match=rf"\|w\| must be <= 2\*\*31, got {10**20}$"):
                tl.run_trial(kind, 10**20, 8, 100, 0)

    def test_non_integer_arguments_refused(self):
        # int() used to truncate them: n = 2.5 ran on 2-bit strings but tested
        # the optimum against 2.5, and budget = 10.5 failed inside numpy
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA, tl.mu_plus_one_ea(3)):
            with pytest.raises(TypeError, match="^n must be an integer, got 2.5$"):
                tl.run_trial(kind, 1, 2.5, 10, 0)
            with pytest.raises(TypeError, match="^budget must be an integer, got 10.5$"):
                tl.run_trial(kind, 1, 8, 10.5, 0)
            with pytest.raises(TypeError, match="^w must be an integer, got 1.5$"):
                tl.run_trial(kind, 1.5, 8, 10, 0)
            with pytest.raises(TypeError, match="^seed must be an integer, got 0.5$"):
                tl.run_trial(kind, 1, 8, 10, 0.5)

    def test_outcome_generation_never_exceeds_budget(self):
        for seed in range(20):
            out = tl.run_trial(tl.RLS, 2, 8, 50, seed)
            assert out.generations <= 50


class TestSeedHash:
    # the seed hash against numpy's SeedSequence and default_rng, the oracle
    masters = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 10**30]

    def test_block_generators_match_default_rng(self):
        # indices across the first block edge, and across 2**32 (two words)
        edge = montecarlo._BLOCK_TRIALS
        for master in self.masters:
            for start in (edge - 3, 2**32 - 2):
                rngs = algorithms._trial_generators(master, start, start + 5)
                for i, rng in zip(range(start, start + 5), rngs):
                    seq = np.random.SeedSequence([master, i])
                    seed = int(seq.generate_state(1, np.uint64)[0])
                    assert tl.split_seed(master, i) == seed, (master, i)
                    words = algorithms._int_words(master) + algorithms._int_words(i)
                    assert algorithms._seed_words(words, 8) == seq.generate_state(8).tolist()
                    want = np.random.default_rng(seed).bit_generator.state
                    assert rng.bit_generator.state == want, (master, i)

    def test_one_and_two_word_seeds(self):
        # seeds below 2**32 have one entropy word, the rest two; both through
        # the block hash and through run_trial's scalar one
        seeds = [0, 1, 7717, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
        block = algorithms._pcg_words(
            algorithms._hash_ints([], np.array(seeds, dtype=np.uint64), 8).T)
        for seed, words in zip(seeds, block):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(words, want), seed
            lone = algorithms._generator(algorithms._pcg_words(
                algorithms._seed_words(algorithms._int_words(seed), 8)))
            assert lone.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_spawned_children_match_numpy(self):
        # the (mu+1) EA's sub-streams: entropy of one to four words, zero-padded
        for entropy in ([0, 0], [5, 2**32 - 1], [2**32, 3], [2**64 - 1, 2**63 + 1], [9]):
            got = algorithms._spawned_generators(entropy, 3)
            for rng, child in zip(got, np.random.SeedSequence(entropy).spawn(3)):
                want = np.random.default_rng(child).bit_generator.state
                assert rng.bit_generator.state == want, entropy

    def test_negative_entropy_refused(self):
        with pytest.raises(ValueError, match="^seed entropy must be non-negative, got -1$"):
            tl.split_seed(-1, 0)


def test_split_seed_stable_and_order_independent():
    a = [tl.split_seed(9, i) for i in range(5)]
    b = [tl.split_seed(9, i) for i in reversed(range(5))]
    assert a == list(reversed(b))
    assert len(set(a)) == 5
    assert tl.split_seed(9, 0) != tl.split_seed(10, 0)


def test_algorithm_kind_validation():
    with pytest.raises(ValueError):
        tl.AlgorithmKind("bogus")
    with pytest.raises(ValueError, match="mu-ea requires mu >= 1, got None"):
        tl.AlgorithmKind("mu-ea")
    with pytest.raises(ValueError, match="mu-ea requires mu >= 1, got 0"):
        tl.mu_plus_one_ea(0)
    with pytest.raises(ValueError):
        tl.AlgorithmKind("rls", mu=3)
    assert tl.mu_plus_one_ea(4).mu == 4
    assert tl.RLS.single_parent and not tl.mu_plus_one_ea(2).single_parent


def test_non_integer_mu_refused():
    # mu_plus_one_ea(2.5) used to be accepted and fail later inside run_trial;
    # mu_plus_one_ea('3') failed comparing a str with an int
    with pytest.raises(TypeError, match="^mu must be an integer, got 2.5$"):
        tl.mu_plus_one_ea(2.5)
    with pytest.raises(TypeError, match="^mu must be an integer, got '3'$"):
        tl.mu_plus_one_ea("3")
    with pytest.raises(ValueError, match="^mu-ea requires mu >= 1, got -2$"):
        tl.mu_plus_one_ea(-2)
    kind = tl.mu_plus_one_ea(np.int64(3))
    assert kind == tl.mu_plus_one_ea(3) and type(kind.mu) is int
