"""Command-line interface: estimates, exact solves, verification, scaling,
trial traces, and preset claim reproductions with machine-readable output.

Exit codes: 0 success, 1 a reproduce verdict failed, 2 usage error.
``reproduce`` checks the rows of one table, ``CLAIMS``: every row is
(algo, n, w, quantity, low, high) and yields the record
algo, n, w, <quantity>, low, high, ok.  CSV schemas are fixed:

    estimate -> algo,n,w,trials,budget,seed,successes,event1,event2,event3,
                undecided,p_success,ci_low,ci_high,mean_gen
    exact    -> algo,n,w,p_opt,p_event1,p_event2,p_event3
    scaling  -> n,mean_success_generations,std,successes
    verify   -> lemma,n,passed,worst_margin
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .algorithms import (ONE_PLUS_ONE_EA, RLS, AlgorithmKind, mu_plus_one_ea,
                         run_trial)
from .markov import (CLASS_NAMES, absorption_probabilities,
                     conditional_hitting_time)
from .montecarlo import (ExperimentConfig, default_budget, estimate,
                         runtime_scaling)
from .verify import (check_mutation_facts, check_rank_equivalence,
                     check_selection_equivalence)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2

#: Fixed seed for the preset reproductions.
PRESET_SEED = 20260810

#: Pilot-pinned success fraction of the population preset (theorem 10);
#: reruns under the fixed seed policy must stay within +-0.05 of this.
THEOREM10_PINNED_FRACTION = 1.0
THEOREM10_N = 30
THEOREM10_MU = 120
THEOREM10_TRIALS = 200


class UsageError(Exception):
    pass


def _parse_kind(algo: str, mu) -> AlgorithmKind:
    if algo == "mu-ea":
        if mu is None:
            raise UsageError("--algo mu-ea requires --mu")
        return mu_plus_one_ea(mu)
    if mu is not None:
        raise UsageError(f"--mu is only valid with --algo mu-ea, not {algo}")
    return RLS if algo == "rls" else ONE_PLUS_ONE_EA


def _jsonable(value):
    """Make a value strict-JSON safe: numpy scalars to Python, NaN to null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def make_record(command: str, config: dict, result) -> dict:
    """Envelope every JSON document shares; round-trips through json exactly."""
    return _jsonable({
        "tool": "tlonemax",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "result": result,
    })


def _emit_json(record: dict) -> None:
    print(json.dumps(record, indent=2))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))


def cmd_estimate(args) -> int:
    kind = _parse_kind(args.algo, args.mu)
    budget = args.budget if args.budget is not None else default_budget(args.n)
    cfg = ExperimentConfig(kind=kind, n=args.n, w=args.w, trials=args.trials,
                           budget=budget, master_seed=args.seed)
    res = estimate(cfg)
    config = {"algo": args.algo, "mu": args.mu, "n": args.n, "w": args.w,
              "trials": args.trials, "budget": budget, "seed": args.seed}
    if args.format == "json":
        _emit_json(make_record("estimate", config, asdict(res)))
    else:
        _emit_csv(
            ["algo", "n", "w", "trials", "budget", "seed", "successes", "event1",
             "event2", "event3", "undecided", "p_success", "ci_low", "ci_high",
             "mean_gen"],
            [[args.algo, args.n, args.w, args.trials, budget, args.seed,
              res.successes, res.event1, res.event2, res.event3, res.undecided,
              res.p_success, res.ci_low, res.ci_high, res.mean_success_gen]])
    return EXIT_OK


def cmd_exact(args) -> int:
    kind = _parse_kind(args.algo, None)
    if args.format == "csv" and (args.per_state or args.hitting_times):
        raise UsageError("--per-state/--hitting-times require --format json")
    if args.hitting_times:
        hit = conditional_hitting_time(kind, args.w, args.n)
        res = hit.absorption
    else:
        hit, res = None, absorption_probabilities(kind, args.w, args.n)
    config = {"algo": args.algo, "n": args.n, "w": args.w}
    if args.format == "csv":
        _emit_csv(["algo", "n", "w", "p_opt", "p_event1", "p_event2", "p_event3"],
                  [[args.algo, args.n, args.w, res.overall["optimum"],
                    res.overall["event1"], res.overall["event2"],
                    res.overall["event3"]]])
        return EXIT_OK
    result = {"overall": dict(res.overall), "p_optimum": res.p_optimum,
              "p_failure": res.p_failure}
    if hit is not None:
        result["hitting"] = {"overall_conditional_generations": hit.overall}
    if args.per_state:
        rows = []
        for idx in range(4 * args.n):
            pc, k = divmod(idx, args.n)
            row = {"prev_first": pc // 2, "cur_first": pc % 2, "k": k}
            for c, name in enumerate(CLASS_NAMES):
                row[f"p_{name}"] = float(res.per_state[idx, c])
            if hit is not None:
                row["conditional_generations"] = float(hit.per_state[idx])
            rows.append(row)
        result["per_state"] = rows
    _emit_json(make_record("exact", config, result))
    return EXIT_OK


def cmd_verify(args) -> int:
    n = args.n
    reports = []
    if args.lemma in ("facts", "all"):
        reports.append(check_mutation_facts(n))
    if args.lemma in ("selection", "all"):
        extra = [-(n + 1), -2 * n, -10 * n]
        reports.append(check_selection_equivalence(n, extra, samples=args.samples,
                                                   seed=args.seed))
    if args.lemma in ("ranks", "all"):
        # strictly below -n: at exactly -n the (stored 0, all-zeros) vs
        # (stored 1, all-ones) fitness tie breaks rank identity
        weights = [-(n + 1), -2 * n, -10 * n]
        reports.append(check_rank_equivalence(n, M=5, samples=args.samples,
                                              weights=weights, seed=args.seed))
    config = {"lemma": args.lemma, "n": n, "samples": args.samples, "seed": args.seed}
    if args.format == "json":
        _emit_json(make_record("verify", config, [asdict(r) for r in reports]))
    else:
        _emit_csv(["lemma", "n", "passed", "worst_margin"],
                  [[r.lemma, n, int(r.passed), r.worst_margin] for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERDICT_FAIL


def cmd_scaling(args) -> int:
    kind = _parse_kind(args.algo, args.mu)
    ns = [int(tok) for tok in args.ns.split(",") if tok]
    if not ns:
        raise UsageError("--ns must list at least one problem size")
    rows = runtime_scaling(kind, args.w, ns, trials=args.trials,
                           master_seed=args.seed, budget=args.budget)
    config = {"algo": args.algo, "mu": args.mu, "w": args.w, "ns": ns,
              "trials": args.trials, "budget": args.budget, "seed": args.seed}
    if args.format == "json":
        _emit_json(make_record("scaling", config, [asdict(r) for r in rows]))
    else:
        _emit_csv(["n", "mean_success_generations", "std", "successes"],
                  [[r.n, r.mean_success_generations, r.std, r.successes]
                   for r in rows])
    return EXIT_OK


def cmd_trace(args) -> int:
    kind = _parse_kind(args.algo, None)
    budget = args.budget if args.budget is not None else default_budget(args.n)

    def observer(g, state, accepted, event):
        if g == 0:  # run_trial has validated its inputs by now
            print("g,t,prev_first,current,fitness,accepted,event")
        bits = "".join(str(int(b)) for b in state.current)
        print(f"{g},{state.t},{state.prev_first},{bits},{state.fitness(args.w)},"
              f"{int(accepted)},{event.value if event is not None else '-'}")

    outcome = run_trial(kind, args.w, args.n, budget, args.seed, observer=observer)
    event = outcome.event.value if outcome.event is not None else "-"
    print(f"outcome,{outcome.status.value},{event},{outcome.generations}")
    return EXIT_OK


def _theorem5_bound(n: float) -> float:
    """Closed-form lower bound 1 - n e^(-n^(1/3)/e) - 4/n^(1/3) on the failure
    probability.  It is negative for every n < 20 653, so on the preset 4/5
    and acceptance criterion 04 grids (n <= 160) the claim rests on the exact
    failure values and their growth over n, not on this bound."""
    return 1.0 - n * math.exp(-n ** (1.0 / 3.0) / math.e) - 4.0 / n ** (1.0 / 3.0)


#: Slack of a closed-form or probability-one check.
_EXACT_TOL = 1e-10

#: The preset claim table: theorem -> rows (algo, n, w, quantity, low, high),
#: each checked as low <= value <= high.  rls/ea rows read the quantity off
#: the exact absorption probabilities; the mu-ea row reads it off a seeded
#: estimate at the fixed THEOREM10_* config.
CLAIMS = {
    # failure at w = -n grows toward 1 and beats the closed-form bound
    4: [("ea", n, -n, "p_failure", _theorem5_bound(n), 1.0) for n in (20, 40, 80, 160)],
    # failure at n = 80 for mild to extreme negative weights
    5: [("ea", 80, w, "p_failure", max(_theorem5_bound(80), 0.0), 1.0)
        for w in (-1, -40, -80)],
    # one-bit search at w >= 2 fails with probability 1/4 + 1/(2n), which
    # lies inside [1/4, 1/4 + 3/(4n)]
    7: [("rls", n, w, "p_failure", 0.25 + 0.5 / n - _EXACT_TOL, 0.25 + 0.5 / n + _EXACT_TOL)
        for n in (10, 50, 200) for w in (2, 5, n)],
    # probability-1 convergence at w = 0 and w = 1
    **{th: [(algo, n, w, "p_optimum", 1.0 - _EXACT_TOL, 1.0 + _EXACT_TOL)
            for n in (10, 50, 200) for algo in ("rls", "ea")]
       for th, w in ((8, 0), (9, 1))},
    # the (mu+1) EA reaches the optimum at w = -n where single parents stall
    10: [("mu-ea", THEOREM10_N, -THEOREM10_N, "p_success",
          max(0.8, THEOREM10_PINNED_FRACTION - 0.05), THEOREM10_PINNED_FRACTION + 0.05)],
}


def _measure(algo: str, n: int, w: int, quantity: str) -> float:
    if algo == "mu-ea":
        cfg = ExperimentConfig(kind=mu_plus_one_ea(THEOREM10_MU), n=n, w=w,
                               trials=THEOREM10_TRIALS, budget=50 * THEOREM10_MU * n,
                               master_seed=PRESET_SEED)
        return getattr(estimate(cfg), quantity)
    return getattr(absorption_probabilities(_parse_kind(algo, None), w, n), quantity)


def cmd_reproduce(args) -> int:
    records, lines = [], []
    for algo, n, w, quantity, low, high in CLAIMS[args.theorem]:
        value = _measure(algo, n, w, quantity)
        ok = low <= value <= high
        records.append({"algo": algo, "n": n, "w": w, quantity: value,
                        "low": low, "high": high, "ok": ok})
        lines.append(f"{algo} n={n} w={w}: {quantity}={value:.12f} "
                     f"in [{low:.12g}, {high:.12g}]")
    ok = all(r["ok"] for r in records)
    if args.theorem == 4:  # the one cross-row rule: failure grows with n
        fails = [r["p_failure"] for r in records]
        growing = all(b >= a - 1e-12 for a, b in zip(fails, fails[1:]))
        lines.append(f"p_failure non-decreasing over n: {growing}")
        ok = ok and growing
    verdict = "PASS" if ok else "FAIL"
    if args.format == "json":
        _emit_json(make_record("reproduce", {"theorem": args.theorem},
                               {"verdict": verdict, "records": records}))
    else:
        print("\n".join(lines))
        print(f"theorem {args.theorem}: {verdict}")
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="tlonemax",
        description="Time-linkage OneMax laboratory: simulation and exact analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="Monte Carlo probability estimate")
    p.add_argument("--algo", required=True, choices=["rls", "ea", "mu-ea"])
    p.add_argument("--mu", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="exact absorption probabilities")
    p.add_argument("--algo", required=True, choices=["rls", "ea"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--per-state", action="store_true", dest="per_state")
    p.add_argument("--hitting-times", action="store_true", dest="hitting_times")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="exhaustive lemma verification")
    p.add_argument("--lemma", choices=["facts", "selection", "ranks", "all"],
                   default="all")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scaling", help="runtime scaling table")
    p.add_argument("--algo", required=True, choices=["rls", "ea", "mu-ea"])
    p.add_argument("--mu", type=int)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--ns", required=True, help="comma-separated problem sizes")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("trace", help="replay one seeded trial generation by generation")
    p.add_argument("--algo", required=True, choices=["rls", "ea"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reproduce", help="run a preset claim check")
    p.add_argument("--theorem", type=int, required=True, choices=sorted(CLAIMS))
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
