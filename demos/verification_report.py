"""Run the built-in verification suite and print one line per check.

The suite cross-validates the analytic machinery numerically: equilibrium
entropy values, finite-difference agreement of the Gateaux derivative,
the defining identity of the Riesz gradient, its maximality among unit
tangent directions, and the Sobolev-metric mode equations and the
gradient-dependent diffusion modes against the map-form derivative, with
the weights c^2 and 1.
"""

from srbflow.verify import run_all

for rep in run_all(seed=0):
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status}  {rep.name:34s} max_abs_error={rep.max_abs_error:.3e} "
          f"tol={rep.tolerance:.1e} samples={rep.samples}")
