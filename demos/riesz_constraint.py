"""The L2 Riesz gradient flow preserves the partition-of-unity constraint.

The gradient R_h(y) = -ln h(y) + mean over the fiber of ln h is tangent to
the affine constraint sum_i h(y+i) = 1 by construction, so the residual
stays at roundoff along the whole trajectory while the entropy climbs to
its maximum ln n.
"""

import numpy as np

from srbflow.flow import FlowConfig, integrate, riesz_system
from srbflow.spectral import FourierRep, grid_points_for, to_grid

n = 2
n_pts = grid_points_for(n, 512)
h0 = to_grid(FourierRep(2.0, 0.5, [0.25], [0.0]), n_pts).samples

cfg = FlowConfig(t_end=20.0, dt=0.01, method="rk4", record_every=200)
traj = integrate(riesz_system(n), h0, cfg)

print("t       entropy      ln 2 - H    |grad|      constraint residual")
for t, H, g, r in zip(traj.times, traj.entropy, traj.grad_norm,
                      traj.constraint_residual):
    print(f"{t:6.1f}  {H:.8f}  {np.log(2) - H:.3e}  {g:.3e}  {r:.3e}")

print("\nmax residual over the run:", f"{traj.constraint_residual.max():.3e}")
print("worst entropy dip:", f"{np.min(np.diff(traj.entropy)):.3e}")
