# The decay constant of the non-exit probability is K_{eta,D} * L_eta(B),
# where L_eta(B) minimizes sum |g(y)-g(x)|^p over unit-mass profiles,
# p = 2*eta/(1+eta).  Solve it two ways and print the minimizing profiles.

import math

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

# growing chains at eta = 2 (p = 4/3): a smooth profile a*phi(x/(R+1)) scores
# (R+1)**(1 - 3p/2) * C_p, where C_p is the l**p - l**2 Poincare constant of
# [-1, 1], two Beta integrals in closed form.  So the local log-log slopes tend
# to 1 - 3p/2 = -1 and the rescaled L to C_p, with a gap of order R**-2 that one
# Richardson step (4*v(2R) - v(R))/3 removes
eta = 2.0
p = 2 * eta / (1 + eta)


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


b1, b3 = beta(0.5, 1 - 1 / p), beta(1.5, 1 - 1 / p)
c_p = (2 * (p - 1) / p) * 2**-p * b1**p * (2 * b3 / b1) ** (1 - p / 2)
print(f"\nL(box1d:R) at eta={eta:g}; predicted exponent {1 - 1.5 * p:.4f}, C_p = {c_p:.8f}")
print("    R   L(B_R)       slope     L*(R+1)**(3p/2-1)   gap to C_p")
prev = None
scaled = []
for r in (2, 4, 8, 16, 32, 64, 128):
    val = solve_L(box_domain(1, r), eta).value
    scaled.append(val * (r + 1) ** (1.5 * p - 1))
    slope = "" if prev is None else f"{np.log(val / prev[1]) / np.log((r + 1) / (prev[0] + 1)):.4f}"
    print(f"  {r:>3}   {val:.8f}   {slope:<8}  {scaled[-1]:.8f}          {c_p - scaled[-1]:.2e}")
    prev = (r, val)
richardson = (4 * scaled[-1] - scaled[-2]) / 3
print(f"Richardson from R = 64, 128: {richardson:.8f}, off C_p by {abs(richardson - c_p):.1e}")
if not abs(richardson - c_p) <= 1e-5:
    raise SystemExit("the solver's chains do not reach the continuum constant")

# decay constants for the walk itself
law = TailLaw(1.0, 1.0)
print("\nK_{1,1} =", k_const(law))
print("single site rate K*L =", k_const(law) * solve_L(box_domain(1, 0), 1.0).value)
