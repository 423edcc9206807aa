"""Semi-decentralized accelerated dual ascent.

One round: every agent solves its inner QP at the broadcast price lambda_j,
the coordinator gathers the aggregate coupling image, takes a projected
gradient step with momentum extrapolation on the regularized dual, and
broadcasts the new price.  The regularized dual cost evaluated here is

    psi_eps(lam, x) = sum_i (h_i(., x_i))*(-E_i' lam) + (eps/2) ||lam||^2
                      + lam' (b - sum_i F_i x_i),      lam >= 0,

whose gradient step matches the coordinator update exactly (the eps * lam
drift term and the eps-strong convexity both come from the (eps/2) factor).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .localqp import inner_value, solve_local


@dataclass
class AdaState:
    """Dual iterate triple plus step data.  mu is the projected (feasible)
    iterate; lam may leave the nonnegative orthant through extrapolation."""

    lam: np.ndarray
    mu: np.ndarray
    theta: float
    alpha: float
    epsilon: float
    j: int = 0


def lipschitz_constant(g, eps):
    """Gradient Lipschitz constant of the smooth dual part:
    eps + sqrt(sum_i ||E_i H_i^{-1} E_i'||^2)."""
    return float(eps + math.sqrt(sum(v * v for v in g.coupling_norms)))


def default_step(L):
    """Step just inside the admissible open interval (0, 1/L)."""
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return 0.99 / L


def init_state(lam_init, alpha, eps, n_dual=None):
    lam = np.zeros(n_dual) if lam_init is None else \
        np.array(lam_init, dtype=float).reshape(-1)
    return AdaState(lam=lam, mu=lam.copy(), theta=1.0, alpha=float(alpha),
                    epsilon=float(eps), j=0)


def _ada_round(st, g, x_parts, Fx_sum, warm):
    """One full gather-and-broadcast round.  Returns the advanced state, the
    per-agent solves (warm starts for the next round), and the aggregate."""
    solves = []
    agg = Fx_sum.copy()
    for i, ca in enumerate(g.agents):
        sol = solve_local(ca, x_parts[i], st.lam, warm=None if warm is None else warm[i])
        solves.append(sol)
        agg += ca.E @ sol.u
    mu_next = np.maximum(
        st.lam + st.alpha * (agg - g.b - st.epsilon * st.lam), 0.0
    )
    theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * st.theta * st.theta))
    lam_next = mu_next + ((st.theta - 1.0) / theta_next) * (mu_next - st.mu)
    new_state = AdaState(lam=lam_next, mu=mu_next, theta=theta_next,
                         alpha=st.alpha, epsilon=st.epsilon, j=st.j + 1)
    return new_state, solves, agg


@dataclass
class AdaRun:
    """Result of an ell-round run: final iterates plus per-round diagnostics."""

    lam: np.ndarray
    mu: np.ndarray
    state: AdaState
    agg_residuals: np.ndarray
    mu_steps: np.ndarray
    dual_costs: np.ndarray | None
    warm: list
    iters: int


def run_ada(lam_init, x, iters, g, eps, alpha=None, record_cost=False,
            warm=None):
    """Apply `iters` rounds from the standard initialization (mu_0 = lam_0,
    theta_0 = 1).  With iters == 0 the input price is returned unchanged.
    `warm` takes the per-agent inner solves of an earlier run (`AdaRun.warm`)
    as warm starts; the closed loop chains its sampling times this way.

    Diagnostics: per-round aggregate violation norm ||(agg - b)_+||, projected
    step ||mu_{j+1} - mu_j||, and (if record_cost) the regularized dual cost
    at each projected iterate mu_{j+1}.
    """
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, eps))
    st = init_state(lam_init, alpha, eps, n_dual=g.n_dual)
    x_parts = g.split_states(x)
    Fx_sum = g.state_image(x_parts)

    agg_res = np.zeros(iters)
    mu_steps = np.zeros(iters)
    costs = np.zeros(iters) if record_cost else None
    solves = warm
    for j in range(iters):
        mu_prev = st.mu
        st, solves, agg = _ada_round(st, g, x_parts, Fx_sum, solves)
        agg_res[j] = float(np.linalg.norm(np.maximum(agg - g.b, 0.0)))
        mu_steps[j] = float(np.linalg.norm(st.mu - mu_prev))
        if record_cost:
            costs[j] = dual_cost(st.mu, x, g, eps, warm=solves)
    return AdaRun(lam=st.lam, mu=st.mu, state=st, agg_residuals=agg_res,
                  mu_steps=mu_steps, dual_costs=costs, warm=solves, iters=iters)


def dual_cost(lam, x, g, eps, warm=None):
    """Regularized dual objective psi_eps(lam, x) for lam >= 0 (componentwise,
    up to -1e-12).  Conjugate terms are evaluated through the inner solves."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size and float(lam.min()) < -1e-12:
        raise DomainError("dual cost requires a componentwise nonnegative price")
    lam = np.maximum(lam, 0.0)
    x_parts = g.split_states(x)
    total = 0.5 * eps * float(lam @ lam)
    for i, ca in enumerate(g.agents):
        sol = solve_local(ca, x_parts[i], lam, warm=None if warm is None else warm[i])
        total -= inner_value(ca, x_parts[i], lam, sol)
    total += float(lam @ (g.b - g.state_image(x_parts)))
    return float(total)


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


def diagnostics_csv(run):
    """Per-round diagnostics as CSV text (schema versioned in the header)."""
    lines = ["# dsmpc-ada-diagnostics-v1", "j,dual_cost,agg_residual,mu_step"]
    for j in range(run.iters):
        cost = "" if run.dual_costs is None else repr(float(run.dual_costs[j]))
        lines.append(
            f"{j + 1},{cost},{run.agg_residuals[j]!r},{run.mu_steps[j]!r}"
        )
    return "\n".join(lines) + "\n"
