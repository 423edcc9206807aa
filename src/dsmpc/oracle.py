"""Centralized high-accuracy reference: the monolithic condensed QP is solved
directly (regularized or not) and certified through KKT residuals computed on
the original problem data, independently of the solve path.  Supplies the
exact primal/dual solution maps, both feedback laws, and the square-root
value function used in the stability experiments.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .condense import condense_scenario, eval_condensed_cost
from .coordinator import batched_solves, checked_eps
from .errors import NoConvergence
from .model import shift_to_target
from .plant import plant_step
from .qpcore import DenseQP, kkt_verdict

ORACLE_TOL = 1e-9


@dataclass
class OracleSolution:
    """Certified primal-dual pair of the (possibly regularized) coupled QP."""

    u: np.ndarray            # stacked input trajectories
    lam: np.ndarray          # coupling duals (the regularized dual solution)
    nu: np.ndarray           # local-constraint duals, stacked in agent order
    kkt_residual: float
    value: float             # condensed cost at the primal solution
    epsilon: float
    dual_maybe_nonunique: bool = False

    def to_dict(self):
        """Solution dump in the scenario-file matrix encoding."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in vars(self).items()}


def _reg_kkt_residual(H_all, q, C_loc, r_loc, E_all, b_eff, u, nu, lam, eps):
    """KKT residual of the regularized problem with the relaxation variable
    eliminated (coupling rows read E u <= b_eff + eps * lam)."""
    stat = H_all @ u + q + C_loc.T @ nu + E_all.T @ lam
    slack = np.concatenate([r_loc - C_loc @ u, b_eff + eps * lam - E_all @ u])
    return float(kkt_verdict(stat, slack, np.concatenate([nu, lam]))[0])


class _Workspace:
    """The stacked blocks of a GlobalQP, built once, and the stacked DenseQP
    per eps, factorized on first use."""

    def __init__(self, g):
        self.H_all = block_diag(*[ca.H for ca in g.agents])
        self.C_loc = block_diag(*[ca.C for ca in g.agents])
        self.E_all = np.hstack([ca.E for ca in g.agents]) if g.n_dual else \
            np.zeros((0, self.H_all.shape[0]))
        self.qps = {}

    def qp(self, eps):
        key = float(eps)
        if key not in self.qps:
            H_all, C_loc, E_all = self.H_all, self.C_loc, self.E_all
            if eps == 0.0:
                P = H_all
                A = np.vstack([C_loc, E_all])
            else:
                # Relaxation variable scaled by sqrt(eps) keeps the KKT system
                # well conditioned down to very small regularization.
                p = E_all.shape[0]
                P = block_diag(H_all, np.eye(p))
                A = np.block([
                    [C_loc, np.zeros((C_loc.shape[0], p))],
                    [E_all, -np.sqrt(eps) * np.eye(p)],
                ])
            self.qps[key] = DenseQP(P, A)
        return self.qps[key]


def solve_centralized(g, x, eps):
    """Solve the coupled condensed QP at state x to KKT residual <=
    ORACLE_TOL.

    eps > 0 solves the regularized problem (unique dual); eps = 0 returns the
    exact primal and one dual, flagging possible dual non-uniqueness when the
    active constraint gradients are rank deficient.  Raises Infeasible when x
    is outside the feasible parameter set and NoConvergence if the residual
    contract cannot be met.
    """
    eps = checked_eps(eps)
    x = np.asarray(x, dtype=float)
    if g.oracle_ws is None:
        g.oracle_ws = _Workspace(g)
    ws = g.oracle_ws
    q, r_loc, Fx = g.state_terms(x)
    b_eff = g.b - Fx
    r = np.concatenate([r_loc, b_eff])
    k_loc, n_u = ws.C_loc.shape[0], ws.H_all.shape[0]
    qp = ws.qp(eps)

    res = qp.solve(q if eps == 0.0 else np.concatenate([q, np.zeros(g.n_dual)]), r)
    u, nu, lam = res.z[:n_u], res.nu[:k_loc], res.nu[k_loc:]
    kkt = res.kkt_residual if eps == 0.0 else _reg_kkt_residual(
        ws.H_all, q, ws.C_loc, r_loc, ws.E_all, b_eff, u, nu, lam, eps)
    if kkt > 10 * ORACLE_TOL:
        raise NoConvergence(f"oracle KKT residual {kkt:.3e} above tolerance")

    nonunique = False
    if eps == 0.0:
        # rows of A = [C_loc; E_all] with a positive multiplier or no slack
        act = np.flatnonzero((res.nu > ORACLE_TOL) | (r - qp.A @ u < 1e-10))
        if act.size:
            sv = np.linalg.svd(qp.A[act], compute_uv=False)
            nonunique = bool(sv.min() < 1e-8 * max(1.0, sv.max())) or \
                act.size > n_u

    return OracleSolution(
        u=u, lam=lam, nu=nu, kkt_residual=float(kkt),
        value=eval_condensed_cost(g, u, x), epsilon=float(eps),
        dual_maybe_nonunique=nonunique,
    )


def value_function(g, x):
    """Square root of the optimal cost, the Lyapunov candidate for the
    optimal closed loop."""
    sol = solve_centralized(g, x, 0.0)
    return float(np.sqrt(max(sol.value, 0.0)))


def feedback_laws(g, x, eps):
    """(exact MPC law, regularized law) at state x.  The exact law extracts
    the first input block of the primal; the regularized law is recovered
    from the regularized dual through the agents' inner problems."""
    x, sol = np.asarray(x, dtype=float), solve_centralized(g, x, eps)
    return g.first_inputs(solve_centralized(g, x, 0.0).u), \
        recovered_law(g, x, sol.lam, sol.nu > 0.0)


def recovered_law(g, x, lam, warm=None):
    """First-stage inputs recovered from the coupling price lam through the
    agents' inner problems; `warm`, an active-set mask as in
    `coordinator.batched_solves` (such as the nu > 0 of the oracle solution
    that gave lam), only affects speed."""
    return g.first_inputs(batched_solves(g, g.state_terms(x), lam, warm).u)


def simulate_optimal_closed_loop(scenario, steps=None, eps=0.0):
    """Nominal (d = 0) closed loop under the exact MPC law (or its
    regularized version for eps > 0).  Returns states in original
    coordinates, shape (steps+1, n)."""
    steps = scenario.sim_steps if steps is None else int(steps)
    shifted = shift_to_target(scenario)
    g = condense_scenario(shifted)
    xbar, ubar = shifted.shift
    x = shifted.x0_stacked()
    states = np.zeros((steps + 1, x.size))
    states[0] = x + xbar
    zero_d = np.zeros(x.size)
    for t in range(steps):
        u0 = g.first_inputs(solve_centralized(g, x, eps).u)
        x = plant_step(x, u0, zero_d, shifted.agents)
        states[t + 1] = x + xbar
    return states
