"""Correctness checks on the workloads' outputs, computed apart from the
program under test: the dynamics replay, the input polytopes, a generic
scipy solve of sampled inner QPs, the coupling Gram norms, and the oracle's
KKT residuals.  Each check returns a list of failure messages (empty when
it passes)."""

import math

import numpy as np
from scipy.linalg import block_diag, cholesky, solve_triangular
from scipy.optimize import minimize

REPLAY_RTOL = 1e-12
INPUT_TOL = 1e-8
INNER_QP_TOL = 1e-6
LIPSCHITZ_RTOL = 1e-9
ORACLE_KKT_TOL = 1e-8
GAP_TOL = 1e-8         # slack of acceptance 02 on the accelerated rate bound
DUAL_VALUE_RTOL = 1e-8
ENVELOPE_SLACK = 1e-9  # slack of acceptance 07 on the sqrt(eps) envelope
RATIO_TOL = 1e-6


def _blocks(sizes):
    off = np.cumsum([0] + list(sizes))
    return [slice(off[i], off[i + 1]) for i in range(len(sizes))]


def closed_loop(scenario, trace, steps):
    """An episode that ran to its last step, whose states replay through
    each agent's x+ = A x + B u + d, and whose inputs lie in the agents'
    input polytopes.  Works in the scenario's original coordinates."""
    if trace.infeasible_at is not None or trace.steps != steps:
        return [f"episode stopped at step {trace.infeasible_at} of {steps}"]
    errors = []
    xs = _blocks([a.n for a in scenario.agents])
    us = _blocks([a.m for a in scenario.agents])
    for t in range(steps):
        x, u, d = trace.states[t], trace.inputs[t], trace.disturbances[t]
        for a, sx, su in zip(scenario.agents, xs, us):
            pred = a.A @ x[sx] + a.B @ u[su] + d[sx]
            actual = trace.states[t + 1][sx]
            scale = max(1.0, float(np.max(np.abs(actual))))
            if np.max(np.abs(pred - actual)) > REPLAY_RTOL * scale:
                errors.append(f"step {t} agent {a.name}: replay mismatch "
                              f"{np.max(np.abs(pred - actual)):.3e}")
            excess = a.input_poly.C @ u[su] - a.input_poly.c
            if excess.size and excess.max() > INPUT_TOL:
                errors.append(f"step {t} agent {a.name}: input outside its "
                              f"polytope by {excess.max():.3e}")
    return errors


def csv_matches(trace, text):
    """The CSV body carries the trace's states and inputs exactly."""
    lines = text.splitlines()
    if len(lines) != trace.steps + 3 or not lines[0].startswith("#"):
        return [f"trace CSV has {len(lines)} lines, expected {trace.steps + 3}"]
    n, m = trace.states.shape[1], trace.inputs.shape[1]
    for t, line in enumerate(lines[2:]):
        cells = line.split(",")
        x = np.array([float(v) for v in cells[1:1 + n]])
        if int(cells[0]) != t or not np.array_equal(x, trace.states[t]):
            return [f"trace CSV row {t} does not carry state x_{t}"]
        if t < trace.steps:
            u = np.array([float(v) for v in cells[1 + n:1 + n + m]])
            if not np.array_equal(u, trace.inputs[t]):
                return [f"trace CSV row {t} does not carry input u_{t}"]
    return []


def generic_qp(H, q, A, r):
    """min 0.5 z'Hz + q'z s.t. A z <= r, by scipy's SLSQP from z = 0."""
    res = minimize(
        lambda z: 0.5 * z @ H @ z + q @ z, np.zeros(H.shape[0]),
        jac=lambda z: H @ z + q, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda z: r - A @ z,
                      "jac": lambda z: -A}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    return res.x


def applied_input(g, shift, trace, t, i):
    """The input agent i applied at step t equals the first block of its
    inner QP at the recorded state and price, solved generically."""
    xbar, ubar = shift
    ca = g.agents[i]
    sx = _blocks([a.n for a in g.agents])[i]
    su = _blocks([a.m for a in g.agents])[i]
    x = (trace.states[t] - xbar)[sx]
    lam = trace.prices[t]
    z = generic_qp(ca.H, ca.G @ x + ca.E.T @ lam, ca.C, ca.c - ca.D @ x)
    diff = float(np.max(np.abs(z[: ca.m] + ubar[su] - trace.inputs[t][su])))
    if diff > INNER_QP_TOL:
        return [f"step {t} agent {i}: applied input differs from the inner "
                f"QP minimiser by {diff:.3e}"]
    return []


def lipschitz(g, eps, value):
    """value == eps + sqrt(sum_i ||E_i H_i^-1 E_i'||^2), with each norm the
    top eigenvalue of the nu x nu Gram matrix W W', W = L^-1 E_i'."""
    total = 0.0
    for ca in g.agents:
        if ca.E.shape[0]:
            W = solve_triangular(cholesky(ca.H, lower=True), ca.E.T, lower=True)
            total += float(np.linalg.eigvalsh(W @ W.T)[-1]) ** 2
    expected = eps + math.sqrt(total)
    if abs(value - expected) > LIPSCHITZ_RTOL * expected:
        return [f"lipschitz_constant {value!r} differs from {expected!r}"]
    return []


class Stacked:
    """The monolithic condensed QP at state x, assembled from the agents'
    blocks: min 0.5 u'Hu + q'u + const s.t. C u <= r (local), E u <= b
    (coupling), with const the state-only cost sum_i 0.5 x_i'W_i x_i."""

    def __init__(self, g, x):
        xs = g.split_states(x)
        self.H = block_diag(*[ca.H for ca in g.agents])
        self.q = np.concatenate([ca.G @ xi for ca, xi in zip(g.agents, xs)])
        self.C = block_diag(*[ca.C for ca in g.agents])
        self.r = np.concatenate([ca.c - ca.D @ xi for ca, xi in zip(g.agents, xs)])
        self.E = np.hstack([ca.E for ca in g.agents])
        self.b = g.b - sum(ca.F @ xi for ca, xi in zip(g.agents, xs))
        self.const = sum(0.5 * float(xi @ ca.W @ xi) for ca, xi in zip(g.agents, xs))
        self.first = np.concatenate([
            np.arange(m) + off for m, off in
            zip([ca.m for ca in g.agents], np.cumsum([0] + [ca.nu for ca in g.agents]))
        ])

    def kkt_residual(self, u, nu, lam, eps):
        """KKT residual of the problem with the coupling rows relaxed to
        E u <= b + eps lam (eps = 0: the unregularized problem)."""
        stat = self.H @ u + self.q + self.C.T @ nu + self.E.T @ lam
        s_loc = self.r - self.C @ u
        s_cpl = self.b + eps * lam - self.E @ u
        return float(max(
            np.max(np.abs(stat)),
            max(0.0, -s_loc.min()), max(0.0, -nu.min()), np.max(np.abs(nu * s_loc)),
            max(0.0, -s_cpl.min()), max(0.0, -lam.min()), np.max(np.abs(lam * s_cpl)),
        ))


def certified(stacked, sol, eps, what):
    res = stacked.kkt_residual(sol.u, sol.nu, sol.lam, eps)
    if res > ORACLE_KKT_TOL:
        return [f"{what}: oracle KKT residual {res:.3e} above {ORACLE_KKT_TOL}"]
    return []


def dual_value_at_optimum(stacked, sol, eps, psi):
    """psi, the program's dual cost at the certified regularized dual lam*,
    equals -(0.5 u'Hu + q'u + const + eps/2 ||lam*||^2) at the certified
    primal u (strong duality: complementarity gives lam*'(E u - b) =
    eps ||lam*||^2)."""
    u, lam = sol.u, sol.lam
    expected = -(0.5 * float(u @ stacked.H @ u) + float(stacked.q @ u)
                 + stacked.const + 0.5 * eps * float(lam @ lam))
    if abs(psi - expected) > DUAL_VALUE_RTOL * max(1.0, abs(expected)):
        return [f"dual cost at lam* {psi!r} differs from the primal value "
                f"{expected!r}"]
    return []


def gaps_below_rate_bound(curve, lam_star, lipschitz_value):
    """Dual gaps after ell rounds stay under 2 ||lam0 - lam*||^2 /
    (alpha (ell + 1)^2), with lam0 = 0 and an admissible step alpha."""
    alpha = float(curve.params["alpha"])
    if not 0.0 < alpha < 1.0 / lipschitz_value:
        return [f"step {alpha!r} outside (0, 1/L)"]
    ells = np.asarray(curve.series["ell"], dtype=float)
    gaps = np.asarray(curve.series["gap"], dtype=float)
    bound = 2.0 * float(lam_star @ lam_star) / (alpha * (ells + 1.0) ** 2)
    errors = []
    if np.max(gaps - bound) > GAP_TOL:
        errors.append(f"dual gap above the rate bound by {np.max(gaps - bound):.3e}")
    if gaps.min() < -GAP_TOL:
        errors.append(f"negative dual gap {gaps.min():.3e}")
    return errors


def below_sqrt_eps_envelope(sweep, x, eps_list, kappa, kappa_eps, lam_star, mu):
    """The sweep's error ratios r(eps) = ||kappa - kappa_eps|| / ||x|| equal
    the ones computed from the certified oracle solutions and stay under
    ||lam*|| / sqrt(mu) / ||x|| * sqrt(eps)."""
    nx = float(np.linalg.norm(x))
    ratios = np.asarray(sweep.series["ratios"], dtype=float).reshape(-1)
    errors = []
    for j, eps in enumerate(eps_list):
        mine = float(np.linalg.norm(kappa - kappa_eps[j])) / nx
        if abs(ratios[j] - mine) > RATIO_TOL:
            errors.append(f"eps {eps:g}: sweep ratio {ratios[j]:.6e}, "
                          f"certified solutions give {mine:.6e}")
        bound = float(np.linalg.norm(lam_star)) / math.sqrt(mu) / nx * math.sqrt(eps)
        if ratios[j] > bound + ENVELOPE_SLACK:
            errors.append(f"eps {eps:g}: ratio {ratios[j]:.3e} above the "
                          f"sqrt(eps) envelope {bound:.3e}")
    return errors
