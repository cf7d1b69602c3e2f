# Simulate a handful of walks on the 3-site segment {-1,0,1} and look at
# where the time goes.  Holding times are exponential with rate equal to the
# total conductance at the current site, so heavy edges mean short stays.

import numpy as np

from rwrc.conductance import sample_field, site_totals
from rwrc.domain import box_domain
from rwrc.tail_law import TailLaw
from rwrc.walk import simulate

law = TailLaw(1.0, 1.0)
dom = box_domain(1, 1)
rng = np.random.default_rng(8)

f = sample_field(law, dom, rng)
print("edges:")
for e, w in zip(dom.edges, f.weights):
    other = dom.site_tuple(e.b) if e.b is not None else f"{e.b_point} (out)"
    print(f"  {dom.site_tuple(e.a)} -- {other}  weight {w:.3f}")
print("site totals:", np.round(site_totals(f), 3))

t = 3.0
for k in range(4):
    p = simulate(f, dom, t, rng)
    occ = p.occupation
    tag = "survived"
    if p.exited:
        tag = f"exited at {p.exit_time:.3f} through {dom.edges[p.crossed[-1]].b_point}"
    print(f"\npath {k}: {p.n_jumps} jumps, {tag}")
    print("  occupation:", np.round(occ, 3), " sum", round(occ.sum(), 12))

# long-run check: the fraction of time at each site stabilizes for walks
# conditioned to stay, and every path books its elapsed time exactly
n = 20000
from rwrc.walk import occupation_mc

exited, end, occ = occupation_mc(f, dom, t, n, rng)
stay = ~exited
print(f"\n{n} paths at t={t}: non-exit fraction {stay.mean():.4f}")
print("mean occupation among survivors:", np.round(occ[stay].mean(axis=0) / t, 4))
print("largest conservation error:", np.abs(occ.sum(axis=1) - end).max())
