# Lower tail of the principal Dirichlet eigenvalue.  On {0} in d=1 the
# eigenvalue is just the sum of the two boundary weights, so its tail is a
# two-fold convolution computed by quadrature; eps^eta * log P flattens at
# -D * L^(eta+1) = -4.  On larger domains only the Monte Carlo route exists.

import numpy as np

from rwrc.domain import box_domain, build_domain
from rwrc.spectral import eigen_tail, spectra
from rwrc.tail_law import TailLaw, sample

law = TailLaw(1.0, 1.0)
single = box_domain(1, 0)

eps_grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
print("eps     log P(lam1 <= eps)   eps * log P")
for pt in eigen_tail(law, single, eps_grid):
    print(f"{pt.eps:<7g} {pt.log_prob:<20.4f} {pt.scaled_log:.4f}")
print("limit -4\n")

# same curve by brute sampling where the probability is not too small
rng = np.random.default_rng(12)
pts = eigen_tail(law, single, [0.5, 0.8, 1.2], method="mc", n_fields=40000, rng=rng)
ref = eigen_tail(law, single, [0.5, 0.8, 1.2])
print("eps   mc prob   exact prob")
for a, b in zip(pts, ref):
    print(f"{a.eps:<5g} {a.prob:<9.4f} {b.prob:.4f}")

# two sites: no closed form, sample the spectrum directly
dom = build_domain([(0,), (1,)], 1)
rng = np.random.default_rng(13)
w = sample(law, rng, (20000, dom.n_edges))
lam = np.concatenate([lam[:, 0] for lam, _ in spectra(dom, w)])
print("\n2-site domain, smallest eigenvalue over 20000 fields:")
for eps in (0.5, 1.0, 1.5):
    p = (lam <= eps).mean()
    print(f"  P(lam1 <= {eps}) = {p:.4f}   eps*logP = {eps * np.log(p):.3f}")
