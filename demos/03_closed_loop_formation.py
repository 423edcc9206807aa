"""Close the loop: three double-integrator agents fly to a new formation
while a coordinator refines the shared-resource price a fixed number of
rounds per sampling time.

The run sweeps the communication budget.  Even a single round per step keeps
the loop stable and reaches the target formation; more rounds shrink the
transient violation of the pairwise-distance tether toward the centrally
optimal behaviour.  Trace files land in demo_out/.
"""

import os

import numpy as np

from dsmpc import simulate_closed_loop, violation_profile
from dsmpc.oracle import simulate_optimal_closed_loop
from dsmpc.scenarios import load

OUT = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT, exist_ok=True)

scenario = load("formation3")
target = scenario.targets_stacked()

print("rounds/step   terminal error   peak tether violation")
traces = {}
for ell in (1, 5, 20, 100):
    tr = simulate_closed_loop(scenario, ell=ell, steps=60)
    traces[ell] = tr
    err = np.linalg.norm(tr.states[-1] - target)
    peak = violation_profile(tr).max()
    print(f"{ell:11d}   {err:14.3e}   {peak:.6f}")
    tr.save(os.path.join(OUT, f"formation3_l{ell}.csv"),
            os.path.join(OUT, f"formation3_l{ell}.meta.json"))

opt = simulate_optimal_closed_loop(scenario, steps=60).states
gap = np.max(np.abs(traces[100].states - opt))
print(f"\nl=100 trajectory vs centrally optimal loop: "
      f"max deviation {gap:.3e}")
print(f"trace files written to {OUT}")
