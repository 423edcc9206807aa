"""Centralized high-accuracy reference: for every eps the coupled condensed
QP is one stacked DenseQP (the eps = 0 problem is the regularized one with no
relaxation columns), solved directly and certified by one KKT residual of the
coupled problem computed on the original blocks, independently of the solve
path.  A solve may start from an earlier solve's active set (its rows, local
then coupling, are the same for every eps and state of one problem); the
callers here chain their own solves, never the coordinator's, and nothing is
kept between calls; nothing goes through the scheme it checks.  Supplies the
exact primal/dual solutions, both feedback laws (first primal input blocks),
the square-root value function used in the stability experiments, and the
optimal closed loop: the oracle's law alone, in the plant's step loop.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .condense import eval_condensed_cost
from .coordinator import checked_eps
from .errors import NoConvergence
from .plant import _closed_loop, prepared
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
    active: tuple            # active rows of the stacked QP: a warm set
    iters: int               # cold Goldfarb-Idnani rounds, 0 if warm polished


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


def solve_centralized(g, x, eps, warm=None):
    """Solve the coupled condensed QP at state x to KKT residual <=
    ORACLE_TOL, from `warm`, an earlier solution's `active` (speed only).

    eps > 0 solves the regularized problem (unique dual); eps = 0 returns the
    exact primal and one dual.  Raises Infeasible when x is outside the
    feasible parameter set and NoConvergence if the residual contract cannot
    be met.
    """
    eps = checked_eps(eps)
    qp = _stacked_qp(g, eps)
    q, r_loc, Fx = g.state_terms(x)
    r = np.concatenate([r_loc, g.b - Fx])
    n_u, k_loc = q.size, r_loc.size
    res = qp.solve(np.concatenate([q, np.zeros(qp.n - n_u)]), r, warm)
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
    return OracleSolution(u=u, lam=lam, nu=nu, kkt_residual=float(kkt),
                          value=eval_condensed_cost(g, u, x), epsilon=float(eps),
                          active=res.active, iters=res.iters)


def value_function(g, x):
    """Square root of the optimal cost, the Lyapunov candidate for the
    optimal closed loop."""
    sol = solve_centralized(g, x, 0.0)
    return float(np.sqrt(max(sol.value, 0.0)))


def feedback_laws(g, x, eps):
    """(exact MPC law, regularized law) at state x: the first input blocks of
    the unregularized and the regularized primal.  By strict convexity the
    latter is also the inner problems' minimizer at the regularized dual."""
    sol0 = solve_centralized(g, x, 0.0)
    sol = solve_centralized(g, x, eps, sol0.active)
    return g.first_inputs(sol0.u), g.first_inputs(sol.u)


def simulate_optimal_closed_loop(scenario, steps=None, eps=0.0, dist=None):
    """Closed loop under the exact MPC law (or its regularized version for
    eps > 0), in the plant's step loop under `dist` (default d = 0): a
    `ClosedLoopTrace` whose prices are the oracle's lam, with ell and alpha
    None and no diagnostics.  Each step's solve starts from the previous
    step's active set."""
    g, warm = prepared(scenario)[2], None

    def law(x):
        nonlocal warm
        sol = solve_centralized(g, x, eps, warm)
        warm = sol.active
        return g.first_inputs(sol.u), sol.lam

    trace = _closed_loop(scenario, law, steps, dist, ell=None,
                         epsilon=float(eps), alpha=None)
    g.oracle_ws.pop(eps, None)  # one per eps would pile up in the kept set-up
    return trace
