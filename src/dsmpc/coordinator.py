"""Semi-decentralized accelerated dual ascent.

Agent i's inner problem at the measured state x and a coupling price lambda
is

    min_u  0.5 u' H_i u + (G_i x_i + E_i' lambda)' u   s.t.   C_i u <= c_i - D_i x_i,

whose minimizer's first stage is the input agent i applies.  One round:
every agent solves its inner QP at the broadcast price lambda_j, the
coordinator gathers the aggregate coupling image sum_i F_i x_i + E_i u_i,
takes a projected gradient step with momentum extrapolation on the
regularized dual, and broadcasts the new price.  A round is batched: the
broadcast is one product Gx + E_all' lambda, the trivial test runs once per
agent shape, only the agents it refuses go to `DenseQP.constrained`, and the
gather is one product E_all u.  The regularized dual cost
evaluated here is

    psi_eps(lam, x) = sum_i (h_i(., x_i))*(-E_i' lam) + (eps/2) ||lam||^2
                      + lam' (b - sum_i F_i x_i),      lam >= 0,

whose gradient step matches the coordinator update exactly (the eps * lam
drift term and the eps-strong convexity both come from the (eps/2) factor).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qpcore import QPResult, unconstrained


def lipschitz_constant(g, eps):
    """Gradient Lipschitz constant of the smooth dual part:
    eps + sqrt(sum_i ||E_i H_i^{-1} E_i'||^2)."""
    return float(eps + math.sqrt(sum(v * v for v in g.coupling_norms)))


def default_step(L):
    """Step just inside the admissible open interval (0, 1/L)."""
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return 0.99 / L


def inner_solves(g, terms, lam, warm=None):
    """Every agent's inner QP at price lam, from the state terms
    `g.state_terms(x)`.  Returns the certified qpcore.QPResult per agent
    (z = u_i).  `warm` may carry the results of an earlier call with nearby
    (x, lambda); it only affects speed, never the certified result.

    Raises Infeasible when an agent's {u : C_i u <= c_i - D_i x_i} is empty
    (the state has left the feasible parameter set) and MaxIters on a
    stall."""
    Gx, r, _ = terms
    q = Gx + g.E_all.T @ np.asarray(lam, dtype=float)
    out = [None] * len(g.agents)
    for idx, u_rows, r_rows, P, A, Pinv, *_ in g.groups:
        qs, rs = q[u_rows], r[r_rows]
        z = -(Pinv @ qs[..., None])[..., 0]
        res, trivial = unconstrained(P, A, z, qs, rs)
        nu = np.zeros(rs.shape)
        for j, i in enumerate(idx):
            out[i] = QPResult(z[j], nu[j], (), float(res[j]), 0) if trivial[j] \
                else g.agents[i].qp.constrained(
                    qs[j], rs[j], None if warm is None else warm[i].active)
    return out


@dataclass
class AdaRun:
    """Result of an ell-round run: final iterates plus per-round diagnostics.
    mu is the projected (feasible) iterate; lam may leave the nonnegative
    orthant through extrapolation; theta is the momentum weight; terms are
    the state terms `g.state_terms(x)` the rounds used."""

    lam: np.ndarray
    mu: np.ndarray
    theta: float
    agg_residuals: np.ndarray
    mu_steps: np.ndarray
    dual_costs: np.ndarray | None
    warm: list
    iters: int
    terms: tuple


def run_ada(lam_init, x, iters, g, eps, alpha=None, record_cost=False,
            warm=None):
    """Apply `iters` rounds from the standard initialization (mu_0 = lam_0,
    theta_0 = 1).  With iters == 0 the input price is returned unchanged.
    `warm` takes the per-agent inner solves of an earlier run (`AdaRun.warm`)
    as warm starts; the closed loop chains its sampling times this way.
    alpha must be finite and > 0 (default 0.99 / L), eps finite and >= 0.

    Diagnostics: per-round aggregate violation norm ||(agg - b)_+||, projected
    step ||mu_{j+1} - mu_j||, and (if record_cost) the regularized dual cost
    at each projected iterate mu_{j+1}.
    """
    eps = checked_eps(eps)
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, eps))
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"step size must be finite and positive, got {alpha}")
    lam = np.zeros(g.n_dual) if lam_init is None else \
        np.array(lam_init, dtype=float).reshape(-1)
    mu, theta = lam.copy(), 1.0
    terms = g.state_terms(x)

    agg_res = np.zeros(iters)
    mu_steps = np.zeros(iters)
    costs = np.zeros(iters) if record_cost else None
    solves = warm
    for j in range(iters):
        solves = inner_solves(g, terms, lam, solves)
        agg = terms[2] + g.E_all @ np.concatenate([sol.z for sol in solves])
        mu_next = np.maximum(lam + alpha * (agg - g.b - eps * lam), 0.0)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        lam = mu_next + ((theta - 1.0) / theta_next) * (mu_next - mu)
        agg_res[j] = float(np.linalg.norm(np.maximum(agg - g.b, 0.0)))
        mu_steps[j] = float(np.linalg.norm(mu_next - mu))
        mu, theta = mu_next, theta_next
        if record_cost:
            costs[j] = _dual_cost(mu, x, g, eps, terms, solves)
    return AdaRun(lam=lam, mu=mu, theta=theta, agg_residuals=agg_res,
                  mu_steps=mu_steps, dual_costs=costs, warm=solves, iters=iters,
                  terms=terms)


def dual_cost(lam, x, g, eps, warm=None):
    """Regularized dual objective psi_eps(lam, x) for lam >= 0 (componentwise,
    up to -1e-12).  Conjugate terms are evaluated through the inner solves,
    each as f_i(u_i, x_i) + lambda' E_i u_i including the state-only cost
    0.5 x_i' W_i x_i."""
    eps = checked_eps(eps)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size and float(lam.min()) < -1e-12:
        raise DomainError("dual cost requires a componentwise nonnegative price")
    lam = np.maximum(lam, 0.0)
    return _dual_cost(lam, x, g, eps, g.state_terms(x), warm)


def _dual_cost(lam, x, g, eps, terms, warm):
    """psi_eps at a nonnegative lam from the state terms of x."""
    Gx, _, Fx = terms
    u = np.concatenate([sol.z for sol in inner_solves(g, terms, lam, warm)])
    total = 0.5 * eps * float(lam @ lam) + float(lam @ (g.b - Fx)) \
        - float((Gx + g.E_all.T @ lam) @ u)
    for ca, xi, ui in zip(g.agents, g.split_states(x), g.split_inputs(u)):
        total -= float(0.5 * (ui @ ca.H @ ui) + 0.5 * (xi @ ca.W @ xi))
    return float(total)


def checked_eps(eps):
    """eps as a float, if it is finite and >= 0."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"regularization eps must be finite and >= 0, got {eps}")
    return eps


def min_iterations(alpha, eps):
    """Smallest round count for which the per-period dual contraction factor
    drops below one (strict threshold)."""
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    threshold = 2.0 / math.sqrt(alpha * eps) - 1.0
    return max(1, math.floor(threshold) + 1)


def contraction_factor(alpha, eps, iters):
    """Per-sampling-period dual error contraction 2/sqrt(alpha eps)/(iters+1)."""
    return 2.0 / math.sqrt(alpha * eps) / (iters + 1.0)
