"""Optimization-time scaling: simulated means against chain-exact values.

For non-negative weights the successful runs take Theta(n log n) generations;
dividing mean success generations by n ln n gives a near-flat curve.  The
chain-based value conditions exactly on reaching the optimum (first-step
analysis on the absorbing chain), so the two columns should track each other.
"""

import math

import tlonemax as tl

kind = tl.ONE_PLUS_ONE_EA
print("bit-wise search, w=0: 100 trials per n")
print("    n   mean gens   mean/(n ln n)   exact conditional   exact/(n ln n)")
rows = tl.runtime_scaling(kind, 0, [16, 32, 64, 128], trials=100, master_seed=5)
for r in rows:
    exact = tl.conditional_hitting_time(kind, 0, r.n)
    scale = r.n * math.log(r.n)
    print(f"  {r.n:4d}  {r.mean_success_generations:9.1f}   {r.mean_success_generations / scale:12.3f}"
          f"   {exact.overall:17.1f}   {exact.overall / scale:13.3f}")

print("\none-bit search, w=2: about a quarter of trials stagnate and are excluded")
rows = tl.runtime_scaling(tl.RLS, 2, [16, 32, 64], trials=100, master_seed=6)
for r in rows:
    flag = "  (low successes)" if r.low_success else ""
    print(f"  n={r.n:3d}: mean {r.mean_success_generations:8.1f} over {r.successes} successes{flag}")
