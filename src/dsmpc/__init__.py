"""Distributed suboptimal MPC toolkit: coupled condensed QPs from per-agent
LTI models, a fixed-communication-budget dual ascent solver, closed-loop
simulation under disturbances, and a centralized oracle with analysis tools
for convergence, contraction, and stability experiments.
"""

from .analysis import (ExperimentReport, contraction_estimate, iss_experiment,
                       regularization_sweep, suboptimality_curve,
                       violation_profile)
from .condense import (CondensedAgent, GlobalQP, condense_agent,
                       condense_scenario, eval_condensed_cost)
from .coordinator import (AdaRun, contraction_factor, default_step, dual_cost,
                          inner_solves, lipschitz_constant, min_iterations,
                          run_ada)
from .errors import (DimensionError, DomainError, Infeasible, MaxIters,
                     NoConvergence, NotEquilibrium, ParseError, UnknownKind)
from .model import (AgentModel, CouplingRow, CouplingSpec, Polytope, Scenario,
                    load_scenario, save_scenario, shift_to_target, solve_dare,
                    validate_assumptions)
from .oracle import (OracleSolution, feedback_laws,
                     simulate_optimal_closed_loop, solve_centralized,
                     value_function)
from .plant import (ClosedLoopTrace, Disturbance, make_disturbance,
                    plant_step, simulate_closed_loop)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
