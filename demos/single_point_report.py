"""Solve one system and print everything we know about it.

Usage: python demos/single_point_report.py [lam mu alpha c]
"""

import sys

from mmcsetup import gf, measures
from mmcsetup.model import CostParams, QueueParams

if len(sys.argv) == 5:
    lam, mu, alpha = (float(v) for v in sys.argv[1:4])
    c = int(sys.argv[4])
else:
    lam, mu, alpha, c = 8.0, 1.0, 0.5, 10

params = QueueParams(lam=lam, mu=mu, alpha=alpha, c=c)
costs = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6, c_switch=0.2)

sol = gf.solve(params)
dist = sol.distribution()
rep = measures.full_report(dist, params, costs)

print(f"M/M/{c} with on-off servers, lam={lam} mu={mu} alpha={alpha} "
      f"(rho={params.rho:.3f})")
print()
print(f"  E[jobs in system]      {rep.e_jobs:.6f}")
print(f"  E[active servers]      {rep.e_active:.6f}   (= lam/mu by Little)")
print(f"  E[servers in setup]    {rep.e_setup:.6f}")
print(f"  switching rate         {rep.switching_rate:.6f}  (off->on per unit time)")
print()
print(f"  power cost, on-off     {rep.cost_onoff:.6f}")
print(f"  power cost, always-on  {rep.cost_onidle:.6f}")
print(f"  total with switching   {rep.total_cost_onoff:.6f}")
print()

# phase marginal: how many servers are on, unconditionally
print("  P(i servers active):")
for i, v in enumerate(rep.phase_marginal):
    bar = "#" * int(round(60 * v))
    print(f"    {i:3d}  {v:.6f}  {bar}")

print()
digits = sol.info["precision_digits"]
mode = "float64" if digits is None else f"mpmath at {digits} digits"
print(f"  solver: {mode}, flow-balance gaps "
      f"{sol.info['job_flow_gap']:.2e} (servers), "
      f"{sol.info['seam_cut_gap']:.2e} (level c cut)")
