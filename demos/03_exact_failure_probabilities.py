"""Exact failure probabilities across the weight range, from the lumped chain.

The 4n-state chain (stored bit, current first bit, tail ones) is exact
because fitness and both mutation operators treat positions 2..n
interchangeably.  The one-bit-search failure probability matches the closed
form 1/4 + 1/(2n) for every weight above 1.
"""

import tlonemax as tl

n = 10
print(f"n = {n}: overall failure probability by weight")
print("   w   one-bit      bit-wise   dominant sink")
for w in (-10, -6, -3, -1, 0, 1, 2, 5, 10):
    rows = []
    for kind in (tl.RLS, tl.ONE_PLUS_ONE_EA):
        res = tl.absorption_probabilities(kind, w, n)
        rows.append(res)
    sink = max(tl.CLASS_NAMES[1:], key=lambda c: rows[1].overall[c])
    share = rows[1].overall[sink]
    print(f"  {w:+3d}  {rows[0].p_failure:10.6f} {rows[1].p_failure:11.6f}"
          f"   {sink if share > 0 else '-'}")

print("\nClosed form for one-bit search at w >= 2: failure = 1/4 + 1/(2n)")
for n in (10, 50, 200):
    res = tl.absorption_probabilities(tl.RLS, 2, n)
    print(f"  n={n:4d}: exact {res.p_failure:.12f} vs closed form {0.25 + 0.5 / n:.12f}")
