"""The benchmark's four workloads: scaling, calibration, exact and population.

Each workload answers a fixed question set made from its seed (``question``),
checks the answers with the acceptance suite's own tolerances (``check``), and
for the traced run repeats the question set with a span around every call
into a public function of tlonemax (``traced``).  In the traced pass the
Monte Carlo trials are replayed one by one through ``run_trial`` with the
per-trial seeds that ``montecarlo`` derives, so that every trial gets a span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import tlonemax as tl
from tlonemax import cli, markov

#: Default master seeds are the acceptance suite's; ``--seed s`` adds s to them.
SCALING_SEED = 11
CALIBRATION_SEED = 101
POPULATION_SEED = cli.PRESET_SEED

#: Per-layer metrics that are exact counts: they must repeat between traced
#: runs of the same program and seed.
COUNT_METRICS = ("algorithms.generations", "algorithms.state_change_frac",
                 "stagnation.classify.calls", "markov.rls.nnz_frac",
                 "markov.ea.nnz_frac", "ops_failed", "ops_failed_frac")

#: random_init calls timed for core.random_init.us.
RANDOM_INIT_CALLS = 2000


@dataclass
class Answer:
    """One pass over a question set, untraced."""

    result: object          # compared between repeats; holds no timings
    ops: int                # public calls attempted
    wall_s: float
    mc_s: float = 0.0       # seconds in montecarlo calls made with workers=1
    rates: dict = field(default_factory=dict)
    known_defects: list = field(default_factory=list)   # messages of known-defect failures
    unexpected: list = field(default_factory=list)      # messages of any other failure


@dataclass
class Traced:
    """Per-layer metrics of a traced pass.  Metrics in ``absent`` could not be
    measured because the public function they time no longer exists."""

    metrics: dict
    absent: set = field(default_factory=set)
    problems: list = field(default_factory=list)


class _Null:
    """Stands in for a Tracer in untraced passes."""

    def span(self, name, **attrs):
        return contextlib.nullcontext({})


NULL_TRACER = _Null()


def _missing(*names) -> list[str]:
    return [n for n in names if not hasattr(tl, n)]


class _Counter:
    """run_trial observer: counts generations that change the lumped state
    (stored bit, current first bit, ones) -- for mu-ea, generations whose
    offspring survives -- and keeps every state that run_trial classified."""

    def __init__(self, w):
        self.w = w
        self.changes = 0
        self.classified = []
        self._last = None

    def __call__(self, g, state, accepted, event):
        if not accepted:
            return
        if isinstance(state, list):
            self.changes += g > 0
            return
        lumped = (state.prev_first, int(state.current[0]), int(state.current.sum()))
        if g > 0 and lumped != self._last:
            self.changes += 1
        self._last = lumped
        # run_trial classifies the initial state and every accepted
        # non-optimal one
        if g == 0 or not tl.is_global_optimum(self.w, state):
            self.classified.append(state)


@dataclass
class _Group:
    """Trials of one (kind, w, n) Monte Carlo call."""

    kind: object
    w: int
    n: int
    budget: int
    master: int
    trials: int
    observed: int   # leading trials replayed again with the counting observer


def _replay(tracer, groups) -> list[tuple]:
    """Run every trial of ``groups`` through run_trial under its own span.
    Returns (group, outcomes, seconds) per group, where an outcome is the
    trial's (end, generations) and end is "optimum", "budget" or the event."""
    done = []
    for g in groups:
        outcomes, secs = [], []
        with tracer.span("bench.trials", kind=g.kind.name, w=g.w, n=g.n):
            for i in range(g.trials):
                with tracer.span("algorithms.run_trial") as sp:
                    o = tl.run_trial(g.kind, g.w, g.n, g.budget, tl.split_seed(g.master, i))
                secs.append(sp["end"] - sp["start"])
                outcomes.append((o.event.value if o.event is not None else o.status.value,
                                 o.generations))
        done.append((g, outcomes, secs))
    return done


def _tally(outcomes) -> dict:
    counts = {"optimum": 0, "event1": 0, "event2": 0, "event3": 0, "budget": 0}
    for end, _ in outcomes:
        counts[end] += 1
    return counts


def _counts(r) -> dict:
    """An EstimateResult's outcome counts, keyed like ``_tally``."""
    return {"optimum": r.successes, "event1": r.event1, "event2": r.event2,
            "event3": r.event3, "budget": r.undecided}


def _trial_metrics(tracer, replayed) -> dict:
    """algorithms, stagnation and core metrics from replayed trials."""
    m = {}
    secs = [s for _, _, ss in replayed for s in ss]
    gens_all = 0
    per_kind: dict[str, list] = {}
    for g, outcomes, ss in replayed:
        gens = sum(n for _, n in outcomes)
        gens_all += gens
        acc = per_kind.setdefault(g.kind.name.replace("-", "_"), [0.0, 0])
        acc[0] += sum(ss)
        acc[1] += gens
    for kind, (s, gens) in per_kind.items():
        m[f"algorithms.{kind}.us_per_gen"] = 1e6 * s / gens
    m["algorithms.us_per_trial"] = 1e6 * statistics.median(secs)
    m["algorithms.us_per_trial_p90"] = 1e6 * statistics.quantiles(secs, n=10)[-1]
    m["algorithms.trials"] = len(secs)
    m["algorithms.generations"] = gens_all

    changes = observed_gens = 0
    classified = []
    with tracer.span("bench.observed_trials"):
        for g, outcomes, _ in replayed:
            for i in range(g.observed):
                counter = _Counter(g.w)
                out = tl.run_trial(g.kind, g.w, g.n, g.budget, tl.split_seed(g.master, i),
                                   observer=counter)
                changes += counter.changes
                observed_gens += out.generations
                classified.extend((g.kind, g.w, s) for s in counter.classified)
    m["algorithms.state_change_frac"] = changes / observed_gens
    m["stagnation.classify.calls"] = len(classified)
    if classified:
        with tracer.span("stagnation.classify", calls=len(classified)) as sp:
            for kind, w, s in classified:
                tl.classify(kind, w, s)
        m["stagnation.classify.us"] = 1e6 * (sp["end"] - sp["start"]) / len(classified)

    rng = np.random.default_rng(replayed[0][0].master)
    n = replayed[0][0].n
    with tracer.span("core.random_init", calls=RANDOM_INIT_CALLS) as sp:
        for _ in range(RANDOM_INIT_CALLS):
            tl.random_init(n, rng)
    m["core.random_init.us"] = 1e6 * (sp["end"] - sp["start"]) / RANDOM_INIT_CALLS
    return m


def _traced_trials(tracer, answer, groups, expected, tail=None) -> Traced:
    """Traced pass of a Monte Carlo workload: replay ``groups`` trial by trial,
    then run ``tail`` (the calls made with workers > 1) under spans.
    ``expected`` maps the replayed (group, outcomes) to what the untraced
    pass reported for them; the two must agree."""
    missing = _missing("run_trial", "split_seed", "classify", "random_init")
    if missing:
        return Traced({}, absent={"algorithms.*", "stagnation.*", "core.*",
                                  "montecarlo.overhead_frac", "tracing_overhead_s"})
    with tracer.span("bench.traced_pass") as root:
        replayed = _replay(tracer, groups)
        if tail is not None:
            tail(tracer)
    traced_wall = root["end"] - root["start"]
    m = _trial_metrics(tracer, replayed)
    m["montecarlo.overhead_frac"] = 1.0 - sum(s for _, _, ss in replayed for s in ss) / answer.mc_s
    m["tracing_overhead_s"] = traced_wall - answer.wall_s
    problems = [f"{g.kind.name} n={g.n} w={g.w}: replay gave {got}, untraced pass {want}"
                for g, outcomes, _ in replayed
                for got, want in [expected(g, outcomes)] if got != want]
    return Traced(m, problems=problems)


class Scaling:
    """runtime_scaling for rls and ea at w = 1 (acceptance criterion 07)."""

    name = "scaling"
    kinds = (tl.RLS, tl.ONE_PLUS_ONE_EA)
    w = 1
    ns = (256, 1024)
    trials = 30
    observed = 4

    def __init__(self, seed: int):
        self.master = SCALING_SEED + seed

    def question(self) -> Answer:
        t0 = time.perf_counter()
        rows = {k.name: tl.runtime_scaling(k, self.w, list(self.ns), trials=self.trials,
                                           master_seed=self.master)
                for k in self.kinds}
        wall = time.perf_counter() - t0
        trials = len(self.kinds) * len(self.ns) * self.trials
        gens = sum(round(r.mean_success_generations * r.successes)
                   for rs in rows.values() for r in rs)
        return Answer(rows, ops=len(self.kinds), wall_s=wall, mc_s=wall,
                      rates={"trials_per_s": trials / wall, "gens_per_s": gens / wall})

    def check(self, answer: Answer) -> list[str]:
        problems = []
        for name, rows in answer.result.items():
            for r in rows:
                if r.successes != self.trials:
                    problems.append(f"scaling {name} n={r.n}: "
                                    f"{self.trials - r.successes} undecided trials")
            ratios = [r.mean_success_generations / (r.n * math.log(r.n)) for r in rows]
            spread = max(ratios) / min(ratios)
            if not spread < 2.0:
                problems.append(f"scaling {name}: spread of mean/(n ln n) {spread:.3f} >= 2")
        return problems

    def _groups(self):
        return [_Group(k, self.w, n, tl.default_budget(n), tl.split_seed(self.master, n),
                       self.trials, self.observed)
                for k in self.kinds for n in self.ns]

    def traced(self, tracer, answer: Answer) -> Traced:
        rows = {(k, r.n): r for k, rs in answer.result.items() for r in rs}

        def expected(g, outcomes):
            gens = [n for end, n in outcomes if end == "optimum"]
            r = rows[(g.kind.name, g.n)]
            return ((len(gens), float(np.asarray(gens, dtype=float).mean())),
                    (r.successes, r.mean_success_generations))

        return _traced_trials(tracer, answer, self._groups(), expected)


class Calibration:
    """estimate for ea at n = 20 against the exact chain (acceptance criterion
    06), once with workers=1 and once with workers=2."""

    name = "calibration"
    kind = tl.ONE_PLUS_ONE_EA
    n = 20
    ws = (-20, -1, 2)
    trials = 700
    observed = 100
    #: The acceptance suite's Wilson z, checked at the suite's master seed.  At
    #: any other seed a correct program falls outside a z = 3 interval for one
    #: of the three w on about 0.8 % of seeds (master seed 183 is one), so the
    #: run's own trials are checked at z = 5 (about 2e-6 per seed).
    z = 3.0
    z_any_seed = 5.0
    pool_probe_trials = 2
    pool_probe_repeats = 3

    def __init__(self, seed: int):
        self.master = CALIBRATION_SEED + seed

    def _cfg(self, w, trials=None, master=None):
        return tl.ExperimentConfig(kind=self.kind, n=self.n, w=w,
                                   trials=trials or self.trials,
                                   budget=tl.default_budget(self.n),
                                   master_seed=self.master if master is None else master)

    def _estimates(self, tracer, workers, master=None):
        out = []
        for w in self.ws:
            with tracer.span("montecarlo.estimate", w=w, workers=workers):
                out.append(replace(tl.estimate(self._cfg(w, master=master), workers=workers),
                                   wall_time_s=0.0))
        return out

    def question(self) -> Answer:
        t0 = time.perf_counter()
        one = self._estimates(NULL_TRACER, 1)
        t1 = time.perf_counter()
        two = self._estimates(NULL_TRACER, 2)
        t2 = time.perf_counter()
        trials = len(self.ws) * self.trials
        return Answer((one, two), ops=2 * len(self.ws), wall_s=t2 - t0, mc_s=t1 - t0,
                      rates={"trials_per_s": trials / (t1 - t0),
                             "trials_per_s_2w": trials / (t2 - t1)})

    def _wilson(self, results, z, master) -> list[str]:
        problems = []
        for w, r in zip(self.ws, results):
            exact = tl.absorption_probabilities(self.kind, w, self.n).p_optimum
            lo, hi = tl.wilson_ci(r.successes, r.trials, z=z)
            if not lo <= exact <= hi:
                problems.append(f"calibration master seed {master} w={w}: exact {exact:.6f} "
                                f"outside the z={z} Wilson interval [{lo:.6f}, {hi:.6f}]")
        return problems

    def check(self, answer: Answer) -> list[str]:
        one, two = answer.result
        suite = (one if self.master == CALIBRATION_SEED
                 else self._estimates(NULL_TRACER, 1, master=CALIBRATION_SEED))
        problems = self._wilson(suite, self.z, CALIBRATION_SEED)
        problems += self._wilson(one, self.z_any_seed, self.master)
        if repr(one) != repr(two):
            problems.append("calibration: workers=1 and workers=2 results differ")
        return problems

    def traced(self, tracer, answer: Answer) -> Traced:
        groups = [_Group(self.kind, w, self.n, tl.default_budget(self.n), self.master,
                         self.trials, self.observed) for w in self.ws]
        by_w = dict(zip(self.ws, answer.result[0]))
        res = _traced_trials(tracer, answer, groups,
                             lambda g, outcomes: (_tally(outcomes), _counts(by_w[g.w])),
                             tail=lambda tr: self._estimates(tr, 2))
        res.metrics["montecarlo.parallel_eff"] = (answer.rates["trials_per_s_2w"]
                                                  / (2 * answer.rates["trials_per_s"]))
        res.metrics["montecarlo.pool_startup_s"] = self._pool_startup(tracer)
        return res

    def _pool_startup(self, tracer) -> float:
        """Median extra seconds of a tiny estimate at workers=2 over workers=1."""
        cfg = self._cfg(self.ws[0], trials=self.pool_probe_trials)
        extra = []
        for _ in range(self.pool_probe_repeats):
            with tracer.span("montecarlo.estimate", workers=1) as one:
                tl.estimate(cfg, workers=1)
            with tracer.span("montecarlo.estimate", workers=2) as two:
                tl.estimate(cfg, workers=2)
            extra.append((two["end"] - two["start"]) - (one["end"] - one["start"]))
        return statistics.median(extra)


class Exact:
    """Exact chain only: the reproduce presets and solves at n = 1000, plus the
    known-defect points.  No randomness: the seed does not change the inputs."""

    name = "exact"
    theorems = (4, 5, 7, 8, 9)
    n = 1000
    absorb = ((tl.RLS, -1), (tl.RLS, 2), (tl.ONE_PLUS_ONE_EA, -1), (tl.ONE_PLUS_ONE_EA, 2))
    hitting_w = 2
    #: (function, kind, w, n) points that raise RuntimeError in the current
    #: solver: (a) escape mass underflow, (b) absolute residual bound.
    known_defects = (("absorption_probabilities", tl.ONE_PLUS_ONE_EA, 150, 300),
                     ("absorption_probabilities", tl.ONE_PLUS_ONE_EA, -150, 300),
                     ("conditional_hitting_time", tl.ONE_PLUS_ONE_EA, -10, 100),
                     ("conditional_hitting_time", tl.ONE_PLUS_ONE_EA, 50, 100),
                     ("conditional_hitting_time", tl.ONE_PLUS_ONE_EA, -30, 300))

    def __init__(self, seed: int):
        pass

    def _pass(self, tracer) -> tuple[Answer, dict]:
        """The question set; returns the answer and the seconds of each call."""
        verdicts, probs, secs = {}, {}, {}
        known, unexpected = [], []
        ops = 0

        def call(label, span, fn, *args, defect=False):
            nonlocal ops
            ops += 1
            with tracer.span(span, label=label):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                except RuntimeError as exc:
                    (known if defect else unexpected).append(f"{label}: {exc}")
                    return None
                finally:
                    secs[label] = time.perf_counter() - t0

        t0 = time.perf_counter()
        for th in self.theorems:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = call(f"reproduce t{th}", "cli.main", cli.main,
                          ["reproduce", "--theorem", str(th), "--format", "json"])
            out = buf.getvalue()
            verdicts[th] = (rc, json.loads(out)["result"]["verdict"] if out else None)
        for kind, w in self.absorb:
            res = call(f"absorb {kind.name} w={w}", "markov.absorption_probabilities",
                       tl.absorption_probabilities, kind, w, self.n)
            probs[(kind.name, w)] = res.p_failure if res is not None else None
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            call(f"hitting {kind.name} w={self.hitting_w}", "markov.conditional_hitting_time",
                 tl.conditional_hitting_time, kind, self.hitting_w, self.n)
        for fn, kind, w, n in self.known_defects:
            call(f"defect {fn} {kind.name} n={n} w={w}", f"markov.{fn}",
                 getattr(tl, fn), kind, w, n, defect=True)
        wall = time.perf_counter() - t0
        solves = [secs[f"absorb {k.name} w={w}"] for k, w in self.absorb]
        answer = Answer((verdicts, probs, [m.split(":")[0] for m in known], unexpected),
                        ops=ops, wall_s=wall, known_defects=known, unexpected=unexpected,
                        rates={"solve_s_n1000": statistics.median(solves),
                               "solve_n1000_samples": len(solves)})
        return answer, secs

    def question(self) -> Answer:
        return self._pass(NULL_TRACER)[0]

    def check(self, answer: Answer) -> list[str]:
        verdicts, probs, _, _ = answer.result
        problems = [f"reproduce theorem {th}: exit {rc}, verdict {v}"
                    for th, (rc, v) in verdicts.items() if rc != 0 or v != "PASS"]
        fail = probs.get(("rls", 2))
        closed = 0.25 + 0.5 / self.n
        if fail is None or not abs(fail - closed) <= 1e-10:
            problems.append(f"rls n={self.n} w=2: failure {fail} is not 1/4 + 1/(2n) = {closed}")
        problems += [f"unexpected failure: {m}" for m in answer.unexpected]
        return problems

    def traced(self, tracer, answer: Answer) -> Traced:
        with tracer.span("bench.traced_pass") as root:
            again, secs = self._pass(tracer)
        m = {"tracing_overhead_s": (root["end"] - root["start"]) - answer.wall_s}
        for th in self.theorems:
            m[f"cli.reproduce.t{th}.s"] = secs[f"reproduce t{th}"]
        res = Traced(m)
        if repr(again.result) != repr(answer.result):
            res.problems.append("exact: traced pass answered differently")
        missing = _missing("build_transition_matrix") + (
            [] if hasattr(markov, "state_classes") else ["state_classes"])
        if missing:
            res.absent.add("markov.*")
            return res
        w = self.hitting_w
        for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
            k = kind.name
            with tracer.span("markov.build_transition_matrix", kind=k) as b:
                P = tl.build_transition_matrix(kind, w, self.n)
            with tracer.span("markov.state_classes", kind=k) as c:
                markov.state_classes(kind, w, self.n)
            build, classes = b["end"] - b["start"], c["end"] - c["start"]
            absorb = secs[f"absorb {k} w={w}"]
            m[f"markov.{k}.build_s"] = build
            m[f"markov.{k}.classes_s"] = classes
            m[f"markov.{k}.solve_s"] = absorb - build - classes
            m[f"markov.{k}.hitting_s"] = secs[f"hitting {k} w={w}"] - absorb
            m[f"markov.{k}.nnz_frac"] = np.count_nonzero(P) / P.size
            # computed from the array size, not measured
            m[f"markov.{k}.matrix_mb"] = P.nbytes / 2**20
            del P
        return res


class Population:
    """estimate for the (mu+1) EA at the reproduce preset-10 config."""

    name = "population"
    mu = cli.THEOREM10_MU
    n = cli.THEOREM10_N
    w = -cli.THEOREM10_N
    trials = cli.THEOREM10_TRIALS
    observed = 3

    def __init__(self, seed: int):
        self.master = POPULATION_SEED + seed
        self.kind = tl.mu_plus_one_ea(self.mu)
        self.budget = 50 * self.mu * self.n

    def question(self) -> Answer:
        cfg = tl.ExperimentConfig(kind=self.kind, n=self.n, w=self.w, trials=self.trials,
                                  budget=self.budget, master_seed=self.master)
        t0 = time.perf_counter()
        r = replace(tl.estimate(cfg), wall_time_s=0.0)
        wall = time.perf_counter() - t0
        gens = round(r.mean_success_gen * r.successes) if r.successes else 0
        gens += r.undecided * self.budget
        return Answer(r, ops=1, wall_s=wall, mc_s=wall,
                      rates={"trials_per_s": self.trials / wall, "gens_per_s": gens / wall})

    def check(self, answer: Answer) -> list[str]:
        p = answer.result.p_success
        return [] if p >= 0.8 else [f"population: p_success {p:.3f} < 0.8"]

    def traced(self, tracer, answer: Answer) -> Traced:
        group = _Group(self.kind, self.w, self.n, self.budget, self.master,
                       self.trials, self.observed)
        return _traced_trials(tracer, answer, [group],
                              lambda g, outcomes: (_tally(outcomes), _counts(answer.result)))


WORKLOADS = {w.name: w for w in (Scaling, Calibration, Exact, Population)}
