"""Monte Carlo estimates with Wilson intervals against the exact chain.

Every trial runs under a seed derived from (master seed, trial index), so an
experiment is reproducible from its seed.  Budget-exhausted trials stay
a separate "undecided" bucket: simulation alone can only bound the
probability of never converging from both sides.
"""

import tlonemax as tl

n = 20
print(f"(1+1)-style bit-wise search at n={n}, 4000 trials per weight")
print("   w   estimate   [95% Wilson]        exact     in interval")
for w in (-20, -1, 2):
    exact = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, w, n)
    cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=n, w=w, trials=4000,
                              budget=tl.default_budget(n), master_seed=42)
    r = tl.estimate(cfg)
    inside = r.ci_low <= exact.p_optimum <= r.ci_high
    print(f"  {w:+3d}  {r.p_success:8.4f}  [{r.ci_low:.4f}, {r.ci_high:.4f}]"
          f"  {exact.p_optimum:9.6f}   {inside}")

print("\nFailure accounting at w=-20 (proven events vs undecided):")
cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=n, w=-n, trials=4000,
                          budget=tl.default_budget(n), master_seed=42)
r = tl.estimate(cfg)
print(f"  event1={r.event1} event2={r.event2} event3={r.event3} undecided={r.undecided}")
print(f"  proven failure rate {r.p_fail_proven:.4f}; with undecided {r.p_fail_with_undecided:.4f}")

print("\nIntermediate weights breed quasi-traps the budget cannot resolve (w=-5):")
print("  states with stored 0 / current first 1 and few tail ones need one")
print("  accepted jump of 5+ extra ones to move; the chain resolves them")
print("  exactly, simulation parks them in the undecided bucket")
exact = tl.absorption_probabilities(tl.ONE_PLUS_ONE_EA, -5, n)
cfg = tl.ExperimentConfig(kind=tl.ONE_PLUS_ONE_EA, n=n, w=-5, trials=600,
                          budget=tl.default_budget(n), master_seed=42)
r = tl.estimate(cfg)
print(f"  exact success {exact.p_optimum:.4f}; simulated bounds "
      f"[{r.p_success:.4f}, {1 - r.p_fail_proven:.4f}] with {r.undecided} undecided")
