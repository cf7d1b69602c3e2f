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
for a, b, q, w in zip(dom.edge_a, dom.edge_b, dom.edge_b_point.tolist(), f.weights):
    other = dom.site_tuple(b) if b >= 0 else f"{tuple(q)} (out)"
    print(f"  {dom.site_tuple(a)} -- {other}  weight {w:.3f}")
print("site totals:", np.round(site_totals(f), 3))

t = 3.0
for k in range(4):
    p = simulate(f, t, rng)
    occ = p.occupation
    tag = "survived"
    if p.exited:
        out = tuple(dom.edge_b_point[p.crossed[-1]].tolist())
        tag = f"exited at {p.exit_time:.3f} through {out}"
    print(f"\npath {k}: {p.n_jumps} jumps, {tag}")
    print("  occupation:", np.round(occ, 3), " sum", round(occ.sum(), 12))

# long-run check: the fraction of time at each site stabilizes for walks
# conditioned to stay, and every path books its elapsed time exactly
n = 20000
from rwrc.walk import occupation_mc

exited, end, occ = occupation_mc(f, t, n, rng)
stay = ~exited
print(f"\n{n} paths at t={t}: non-exit fraction {stay.mean():.4f}")
print("mean occupation among survivors:", np.round(occ[stay].mean(axis=0) / t, 4))
print("largest conservation error:", np.abs(occ.sum(axis=1) - end).max())
