# The decay constant of the non-exit probability is K_{eta,D} * L_eta(B),
# where L_eta(B) minimizes sum |g(y)-g(x)|^p over unit-mass profiles,
# p = 2*eta/(1+eta).  Solve it two ways and print the minimizing profiles.

import numpy as np

from rwrc.domain import box_domain, build_domain
from rwrc.rates import k_const
from rwrc.tail_law import TailLaw
from rwrc.variational import brute_force_L, solve_L


def chain(n):
    return build_domain([(i,) for i in range(n)], 1)


cases = [
    ("{0} d=1", box_domain(1, 0)),
    ("{0,1}", chain(2)),
    ("{0,1,2}", chain(3)),
    ("{0,..,3}", chain(4)),
    ("{0} d=2", box_domain(2, 0)),
]

for eta in (0.5, 1.0, 2.0):
    print(f"eta = {eta}")
    print("  domain     solve_L      brute_L      gap")
    for name, dom in cases:
        a = solve_L(dom, eta)
        b = brute_force_L(dom, eta)
        print(f"  {name:<10} {a.value:<12.8f} {b.value:<12.8f} {abs(a.value - b.value):.2e}")
    print()

# the 3-site minimizer at eta=1 is flat: spreading mass evenly makes every
# increment as small as possible in the p=1 norm
res = solve_L(chain(3), 1.0)
print("3-site minimizer at eta=1:", np.round(res.minimizer.values, 6))
print("value", res.value, "= 2/sqrt(3) =", 2 / np.sqrt(3))

# 4 sites at eta=1 admits a flat stretch of minimizers; the solver keeps
# the distinct ones it found
res = solve_L(chain(4), 1.0)
print("\n4-site minimizers at eta=1, value", round(res.value, 9))
for m in res.minimizers:
    print("  ", np.round(m, 4))

# growing boxes: L(B_R) should scale like R**(d - p*(1 + d/2)), which is
# R**-1 in d = 1 at eta = 2 (p = 4/3); the local log-log slopes approach it
# from above as R grows
eta, d = 2.0, 1
p = 2 * eta / (1 + eta)
print(f"\nL(box1d:R) at eta={eta:g}; predicted exponent {d - p * (1 + d / 2):.4f}")
print("   R   L(B_R)       slope")
prev = None
for r in range(2, 17):
    val = solve_L(box_domain(d, r), eta).value
    slope = "" if prev is None else f"{np.log(val / prev[1]) / np.log(r / prev[0]):.4f}"
    print(f"  {r:>2}   {val:.8f}   {slope}")
    prev = (r, val)

# decay constants for the walk itself
law = TailLaw(1.0, 1.0)
print("\nK_{1,1} =", k_const(law))
print("single site rate K*L =", k_const(law) * solve_L(box_domain(1, 0), 1.0).value)
