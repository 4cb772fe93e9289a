"""Event-driven simulation against the analytic answers.

Runs a million events, batches the time averages, and checks every
analytic metric against its simulated confidence interval.  A metric
passes when the analytic value sits within three batch-means
half-widths of the estimate.
"""

from mmcsetup import gf, measures, sim
from mmcsetup.model import QueueParams

params = QueueParams(lam=5.0, mu=1.0, alpha=0.1, c=10)

analytic = measures.full_report(gf.solve(params).distribution(), params)
estimate = sim.simulate(sim.SimConfig(params=params, n_events=1_000_000, seed=42))
report = sim.validate_against(analytic, estimate)

print(f"lam={params.lam} mu={params.mu} alpha={params.alpha} c={params.c}, "
      f"1e6 events, seed 42")
print()
print(f"  {'metric':<18s} {'analytic':>12s} {'simulated':>12s} "
      f"{'halfwidth':>12s}  ok")
for row in report.rows:
    print(f"  {row['metric']:<18s} {row['analytic']:12.6f} "
          f"{row['simulated']:12.6f} {row['halfwidth']:12.6f}  "
          f"{'yes' if row['ok'] else 'NO'}")
print()
print("all within 3 half-widths" if report.passed else "MISMATCH (see rows above)")
