"""Watch the five-branch simplex flow relax to the uniform point.

Under the L2 metric the density values over one fiber evolve autonomously:
xdot_k = -ln x_k + mean(ln x).  Every interior start drifts to x = 1/n,
pairwise gaps shrink monotonically, and the entropy -sum x ln x climbs to
ln n.
"""

import numpy as np

from srbflow.flow import FlowConfig, integrate, riesz_system

rng = np.random.default_rng(0)
x0 = rng.uniform(0.5, 1.5, 5)
x0 /= x0.sum()

cfg = FlowConfig(t_end=30.0, dt=0.01, method="rk4", record_every=500)
traj = integrate(riesz_system(5), x0, cfg)

print("t        x1      x2      x3      x4      x5      entropy   ln 5 - H")
for t, x, H in zip(traj.times, traj.states, traj.entropy):
    gap = np.log(5.0) - H
    print(f"{t:6.1f}  " + "  ".join(f"{v:.4f}" for v in x) +
          f"  {H:.6f}  {gap:.2e}")

spread = traj.states.max(axis=1) - traj.states.min(axis=1)
print("\nmax spread per snapshot:", ", ".join(f"{s:.1e}" for s in spread))
print("entropy is nondecreasing:", bool(np.all(np.diff(traj.entropy) >= 0)))
