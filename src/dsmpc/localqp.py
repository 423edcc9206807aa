"""Per-agent inner problem of the dual ascent round: given the measured
state x and a coupling price lambda, minimize

    0.5 u' H u + (G x + E' lambda)' u    over    {u : D x + C u <= c},

and the input-recovery map that extracts the first-stage input from the
minimizer.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LocalSolve:
    """Certified solution of one inner problem."""

    u: np.ndarray
    nu: np.ndarray
    active_set: tuple
    kkt_residual: float


def solve_local(ca, x, lam, warm=None):
    """Solve one agent's inner QP.  `warm` may carry the LocalSolve of a
    previous call with nearby (x, lambda); it only affects speed, never the
    certified result.

    Raises Infeasible when {u : D x + C u <= c} is empty (the state has left
    the feasible parameter set for this agent) and MaxIters on a stall.
    """
    x = np.asarray(x, dtype=float).reshape(ca.n)
    lam = np.asarray(lam, dtype=float)
    q = ca.G @ x if lam.size == 0 else ca.G @ x + ca.E.T @ lam
    r = ca.c - ca.D @ x
    res = ca.qp.solve(q, r, warm_active=None if warm is None else warm.active_set)
    return LocalSolve(res.z, res.nu, res.active, res.kkt_residual)


def inner_value(ca, x, lam, solve):
    """Value of f(u, x) + lambda' E u at a LocalSolve, including the
    state-only cost term (needed for coherent dual values)."""
    u, xv = solve.u, np.asarray(x, dtype=float).reshape(ca.n)
    lin = ca.G @ xv if np.size(lam) == 0 else ca.G @ xv + ca.E.T @ np.asarray(lam)
    return float(0.5 * (u @ ca.H @ u) + lin @ u + 0.5 * (xv @ ca.W @ xv))


def recover_input(ca, x, lam):
    """First-stage input block of the inner minimizer (the q-mapping)."""
    return solve_local(ca, x, lam).u[: ca.m].copy()
