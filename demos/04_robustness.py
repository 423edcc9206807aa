"""Robustness experiments on the closed loop.

Part 1 measures how far the regularized feedback law drifts from the exact
one as the regularization grows.  The drift stays under the one-sided
sqrt(eps) envelope whose constant ||lam*|| / sqrt(mu) (exact coupling dual,
smallest condensed-Hessian eigenvalue) the regularization sweep reports
before any eps is tried; the envelope is loose here, since the measured
drift decays linearly in eps.

Part 2 injects seeded uniform disturbances of increasing magnitude and
records the trailing-half worst distance to the target: the empirical
disturbance-to-state gain stays finite and ordered, the practical face of
input-to-state stability under a fixed communication budget.  The optimal
loop under the same disturbances reaches the same bound, so the budget shows
only in the largest state gap between the two loops.
"""

from dsmpc import (condense_scenario, iss_experiment, regularization_sweep,
                   shift_to_target)
from dsmpc.scenarios import load

scenario = load("formation3")
shifted = shift_to_target(scenario)
g = condense_scenario(shifted)
x = shifted.x0_stacked()

rep = regularization_sweep(g, [x], [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
print("regularization sweep at the strained initial state:")
print("      eps    ||kappa - kappa_eps|| / ||x||    sqrt(eps) envelope")
for eps, r, bound in zip(rep.series["eps"], rep.series["ratios"][0],
                         rep.series["bounds"][0]):
    print(f"{eps:9.0e}    {r:18.6e}            {bound:12.6e}")
print(f"a-priori constant {rep.params['theory_constant']:.6f}, "
      f"fitted slope {rep.params['fitted_slope']:.3f}, "
      f"{'within' if rep.passed else 'OUTSIDE'} the envelope")

rep = iss_experiment(scenario, 10, [0.0, 0.01, 0.02, 0.05], [0, 1, 2],
                     steps=60)
print("\ndisturbance sweep (10 rounds/step, 60 steps, 3 seeds each), "
      "against the optimal loop at the scenario's eps:")
print("   bound    trailing-half worst error    optimal loop    largest gap")
for beta, worst, opt, gap in zip(*(rep.series[k] for k in (
        "bounds", "ultimate_bound", "optimal_bound", "gap"))):
    print(f"{beta:8.2f}    {worst:.6e}                {opt:.6e}    {gap:.3e}")
