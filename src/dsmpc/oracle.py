"""Centralized high-accuracy reference: for every eps the coupled condensed
QP is one stacked DenseQP (the eps = 0 problem is the regularized one with no
relaxation columns), solved directly and certified by one KKT residual of the
coupled problem computed on the original blocks, independently of the solve
path.  Supplies the exact primal/dual solution maps, both feedback laws, and
the square-root value function used in the stability experiments.
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


def _stacked_qp(g, eps):
    """The coupled problem at eps as one DenseQP over (u, s), factorized on
    first use and kept in `g.oracle_ws`: P = blkdiag(H_i, I_p) and
    A = [blkdiag(C_i), 0; E_all, -sqrt(eps) I_p].  The relaxation s, scaled
    by sqrt(eps) to keep the KKT system well conditioned down to very small
    regularization, has one column per nonzero column of -sqrt(eps) I, so
    p = 0 at eps = 0."""
    if eps not in g.oracle_ws:
        R = -np.sqrt(eps) * np.eye(g.n_dual)
        R = R[:, R.any(0)]
        C = block_diag(*[ca.C for ca in g.agents])
        g.oracle_ws[eps] = DenseQP(
            block_diag(*[ca.H for ca in g.agents], np.eye(R.shape[1])),
            np.block([[C, np.zeros((C.shape[0], R.shape[1]))], [g.E_all, R]]))
    return g.oracle_ws[eps]


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
    qp = _stacked_qp(g, eps)
    q, r_loc, Fx = g.state_terms(x)
    r = np.concatenate([r_loc, g.b - Fx])
    n_u, k_loc = q.size, r_loc.size
    res = qp.solve(np.concatenate([q, np.zeros(qp.n - n_u)]), r)
    u, nu, lam = res.z[:n_u], res.nu[:k_loc], res.nu[k_loc:]
    # The coupled problem's KKT residual with the relaxation eliminated:
    # the coupling rows read E u <= b - F x + eps * lam.
    A_u = qp.A[:, :n_u]
    slack = r - A_u @ u
    slack[k_loc:] += eps * lam
    kkt = kkt_verdict(qp.P[:n_u, :n_u] @ u + q + A_u.T @ res.nu, slack,
                      res.nu)[0]
    if kkt > 10 * ORACLE_TOL:
        raise NoConvergence(f"oracle KKT residual {kkt:.3e} above tolerance")

    nonunique = False
    if eps == 0.0:
        # rows of A = [C_loc; E_all] with a positive multiplier or no slack
        act = np.flatnonzero((res.nu > ORACLE_TOL) | (slack < 1e-10))
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
