"""Semi-decentralized accelerated dual ascent.

Agent i's inner problem at the measured state x and a coupling price lambda
is

    min_u  0.5 u' H_i u + (G_i x_i + E_i' lambda)' u   s.t.   C_i u <= c_i - D_i x_i,

whose minimizer's first stage is the input agent i applies.  One round:
every agent solves its inner QP at the broadcast price lambda_j, the
coordinator gathers the aggregate coupling image sum_i F_i x_i + E_i u_i,
takes a projected gradient step with momentum extrapolation on the
regularized dual, and broadcasts the new price.  A round is a batched
piecewise-affine map: one broadcast product Gx + E_all' lambda, one
qpcore.law_test per shape group on the affine laws of the agents' warm
active sets (rebuilt only where a set changed), DenseQP.solve for the
agents it refuses, and one gather product E_all u.  `batched_solves` is the
one inner-solve path of every caller, `recovered_law` (the scheme's law at
a price) among them.  The regularized dual cost evaluated here is

    psi_eps(lam, x) = sum_i (h_i(., x_i))*(-E_i' lam) + (eps/2) ||lam||^2
                      + lam' (b - sum_i F_i x_i),      lam >= 0,

whose gradient step matches the coordinator update exactly (the eps * lam
drift term and the eps-strong convexity both come from the (eps/2) factor).
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .condense import eval_condensed_cost
from .errors import DomainError
from .qpcore import law_test

# A batched call's inner solves: the stacked inputs u (z_i = u_i), the local
# multipliers nu stacked like the rows r_i, per agent the KKT residual and
# the rounds of a cold start, and the solves per path (LAW, POLISH, COLD).
Solves = namedtuple("Solves", "u nu res iters paths")
LAW, POLISH, COLD = range(3)  # the path a certified inner solve took


def lipschitz_constant(g, eps):
    """Gradient Lipschitz constant of the smooth dual part:
    eps + sqrt(sum_i ||E_i H_i^{-1} E_i'||^2)."""
    return float(eps + math.sqrt(sum(v * v for v in g.coupling_norms)))


def default_step(L):
    """Step just inside the admissible open interval (0, 1/L)."""
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return 0.99 / L


def batched_solves(g, terms, lam, warm=None):
    """Every agent's inner QP at price lam, from the state terms
    `g.state_terms(x)`, as Solves.  `warm`, a boolean mask over the stacked
    local rows such as an earlier Solves.nu > 0, gives the agents' warm
    active sets (empty if None); neither it nor the laws the groups kept
    change the certified result.  Raises Infeasible when an agent's
    {u : C_i u <= c_i - D_i x_i} is empty (the state has left the feasible
    parameter set) and MaxIters on a stall."""
    Gx, r, _ = terms
    q = Gx + g.E_all.T @ np.asarray(lam, dtype=float)
    M = len(g.agents)
    u, nu, res = np.empty(q.size), np.empty(r.size), np.empty(M)
    iters, paths = np.zeros(M, dtype=int), np.array([M, 0, 0])
    for grp in g.groups:
        qs, rs = q[grp.u_rows], r[grp.r_rows]
        mask = np.zeros_like(grp.law_mask) if warm is None else warm[grp.r_rows]
        if mask.tobytes() != grp.law_mask.tobytes():
            for j in np.flatnonzero((mask != grp.law_mask).any(1)):
                grp.laws[j] = g.agents[grp.idx[j]].qp.law(np.flatnonzero(mask[j]))
            grp.law_mask[:] = mask
        z, nus, rg, ok = law_test(grp.K, grp.laws, qs, rs)
        for j in ([] if ok.all() else np.flatnonzero(~ok)):
            i = grp.idx[j]
            sol = g.agents[i].qp.solve(qs[j], rs[j], np.flatnonzero(mask[j]).tolist())
            z[j], nus[j], rg[j], iters[i] = sol.z, sol.nu, sol.kkt_residual, sol.iters
            paths[[LAW, COLD if iters[i] else POLISH]] += (-1, 1)
        u[grp.u_rows], nu[grp.r_rows], res[grp.idx] = z, nus, rg
    return Solves(u, nu, res, iters, paths)


def recovered_law(g, x, lam):
    """The scheme's law at price lam: the first-stage inputs of the agents'
    inner problems at state x."""
    return g.first_inputs(batched_solves(g, g.state_terms(x), lam).u)


@dataclass
class AdaRun:
    """Result of an ell-round run: final iterates plus per-round diagnostics.
    mu is the projected (feasible) iterate; lam may leave the nonnegative
    orthant through extrapolation; theta is the momentum weight; terms are
    the state terms `g.state_terms(x)` the rounds used; warm masks the last
    round's active sets.  Telemetry of the rounds' inner solves: `paths`
    counts them per path (LAW, POLISH, COLD), `active_rows` sums their
    active-set sizes, `kkt_max` is their largest KKT residual."""

    lam: np.ndarray
    mu: np.ndarray
    theta: float
    agg_residuals: np.ndarray
    mu_steps: np.ndarray
    dual_costs: np.ndarray | None
    warm: np.ndarray | None
    iters: int
    terms: tuple
    paths: np.ndarray
    active_rows: int
    kkt_max: float


def run_ada(lam_init, x, iters, g, eps, alpha=None, record_cost=False,
            warm=None):
    """Apply `iters` rounds from the standard initialization (mu_0 = lam_0,
    theta_0 = 1).  With iters == 0 the input price is returned unchanged.
    `warm` takes the active-set mask of an earlier run (`AdaRun.warm`) as
    warm starts; the closed loop chains its sampling times this way.
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

    agg_res, mu_steps = np.zeros(iters), np.zeros(iters)
    costs = np.zeros(iters) if record_cost else None
    paths, active_rows, kkt = np.zeros(3, dtype=int), 0, np.zeros(len(g.agents))
    for j in range(iters):
        s = batched_solves(g, terms, lam, warm)
        warm = s.nu > 0.0
        paths += s.paths
        active_rows += np.count_nonzero(warm)
        np.maximum(kkt, s.res, out=kkt)
        viol = terms[2] + g.E_all @ s.u - g.b
        mu_next = np.maximum(lam + alpha * (viol - eps * lam), 0.0)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        step = mu_next - mu
        lam = mu_next + ((theta - 1.0) / theta_next) * step
        viol = np.maximum(viol, 0.0)
        agg_res[j], mu_steps[j] = math.sqrt(viol @ viol), math.sqrt(step @ step)
        mu, theta = mu_next, theta_next
        if record_cost:
            costs[j] = _dual_cost(mu, x, g, eps, terms, warm)
    return AdaRun(lam=lam, mu=mu, theta=theta, agg_residuals=agg_res,
                  mu_steps=mu_steps, dual_costs=costs, warm=warm, iters=iters,
                  terms=terms, paths=paths, active_rows=int(active_rows),
                  kkt_max=float(kkt.max(initial=0.0)))


def dual_cost(lam, x, g, eps):
    """Regularized dual objective psi_eps(lam, x) for lam >= 0 (componentwise,
    up to -1e-12).  Conjugate terms are evaluated through the inner solves,
    each as f_i(u_i, x_i) + lambda' E_i u_i including the state-only cost
    0.5 x_i' W_i x_i."""
    eps = checked_eps(eps)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size and float(lam.min()) < -1e-12:
        raise DomainError("dual cost requires a componentwise nonnegative price")
    lam = np.maximum(lam, 0.0)
    return _dual_cost(lam, x, g, eps, g.state_terms(x), None)


def _dual_cost(lam, x, g, eps, terms, warm):
    """psi_eps at a nonnegative lam from the state terms of x:
    (eps/2) ||lam||^2 + lam' (b - F x - E u) - f(u, x) at the inner
    solves' u."""
    u = batched_solves(g, terms, lam, warm).u
    return 0.5 * eps * float(lam @ lam) \
        + float(lam @ (g.b - terms[2] - g.E_all @ u)) - eval_condensed_cost(g, u, x)


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
