"""Three independent routes to the same stationary distribution.

The closed-form solver (gf), the matrix-analytic solver (qbd), and a
brute-force truncated chain should agree to near machine precision on
every probability they all expose.  This script prints the worst gaps
and the qbd residual certificates for one parameter set.
"""

import numpy as np

from mmcsetup import ctmc, gf, qbd
from mmcsetup.model import QueueParams

# rho = 0.7 and alpha = 0.4, near the line alpha = mu (1 - rho) = 0.3,
# which all three routes solve as well
params = QueueParams(lam=14.0, mu=1.0, alpha=0.4, c=20)

d_gf = gf.solve(params).distribution()
sol_q = qbd.solve(params, with_g=True)
d_qbd = sol_q.distribution()
d_ora = ctmc.solve_adaptive(params)

worst_gq = worst_go = 0.0
for j in range(params.c + 101):
    worst_gq = max(worst_gq, float(np.abs(d_gf.level(j) - d_qbd.level(j)).max()))
    worst_go = max(worst_go, float(np.abs(d_gf.level(j) - d_ora.level(j)).max()))

print(f"lam={params.lam} mu={params.mu} alpha={params.alpha} c={params.c}")
print(f"  max |gf - qbd|    over levels 0..{params.c + 100}: {worst_gq:.3e}")
print(f"  max |gf - oracle| over levels 0..{params.c + 100}: {worst_go:.3e}")
print()
print("qbd internal certificates (residual norms):")
for name, val in qbd.residuals(sol_q).items():
    print(f"  {name:12s} {val:.3e}")
print()
print("means by each method:")
print(f"  gf     {d_gf.mean_jobs():.12f}")
print(f"  qbd    {d_qbd.mean_jobs():.12f}")
print(f"  oracle {d_ora.mean_jobs():.12f}")
