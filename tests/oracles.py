"""Independent reference computations for the tests.

Everything here is derived directly from the problem statement (explicit
rollouts, brute-force rank tests, random feasible probing) and deliberately
avoids the package's own condensation/solver code paths.
"""

from itertools import combinations

import numpy as np


def rollout_states(A, B, x0, u_traj):
    """Explicit state rollout; u_traj has shape (N, m)."""
    xs = [np.asarray(x0, dtype=float)]
    for u in u_traj:
        xs.append(A @ xs[-1] + B @ u)
    return np.array(xs)


def sparse_cost(agents, N, u_stacked, x_stacked):
    """Stage/terminal cost evaluated by explicit rollout, agent by agent."""
    u_stacked = np.asarray(u_stacked, dtype=float)
    x_stacked = np.asarray(x_stacked, dtype=float)
    total = 0.0
    ou = ox = 0
    for a in agents:
        u = u_stacked[ou:ou + N * a.m].reshape(N, a.m)
        x0 = x_stacked[ox:ox + a.n]
        xs = rollout_states(a.A, a.B, x0, u)
        for k in range(N):
            total += 0.5 * xs[k] @ a.Q @ xs[k] + 0.5 * u[k] @ a.R @ u[k]
        total += 0.5 * xs[N] @ a.P @ xs[N]
        ou += N * a.m
        ox += a.n
    return total


def controllable(A, B):
    """Kalman rank test on [B, AB, ..., A^(n-1)B]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


def stage_coupling_residuals(scenario, u_stacked, x_stacked):
    """Residuals of the per-stage shared-resource rows along the rollout,
    stages 1..N, shape (N, p)."""
    N = scenario.horizon
    rows = scenario.coupling.rows
    per_agent_states = []
    per_agent_inputs = []
    ou = ox = 0
    u_stacked = np.asarray(u_stacked, dtype=float)
    x_stacked = np.asarray(x_stacked, dtype=float)
    for a in scenario.agents:
        u = u_stacked[ou:ou + N * a.m].reshape(N, a.m)
        per_agent_inputs.append(u)
        per_agent_states.append(rollout_states(a.A, a.B, x_stacked[ox:ox + a.n], u))
        ou += N * a.m
        ox += a.n
    out = np.zeros((N, len(rows)))
    for k in range(1, N + 1):
        for j, row in enumerate(rows):
            v = -row.b
            for i, ex in row.Ex.items():
                v += float(ex @ per_agent_states[i][k])
            for i, eu in row.Eu.items():
                v += float(eu @ per_agent_inputs[i][k - 1])
            out[k - 1, j] = v
    return out


def condensed_by_rollout(agent, N, rows, i):
    """Agent i's condensed blocks (H, G, W, C, D, c, E, F, Ahat, Bhat) and
    its coupling norm ||E H^-1 E'||, built from explicit rollouts of unit
    vectors and assembled stage by stage; `rows` are the scenario's
    CouplingRows."""
    n, m = agent.n, agent.m
    Ahat = np.column_stack([rollout_states(agent.A, agent.B, e, np.zeros((N, m))).ravel()
                            for e in np.eye(n)])
    Bhat = np.column_stack([rollout_states(agent.A, agent.B, np.zeros(n),
                                           e.reshape(N, m)).ravel()
                            for e in np.eye(N * m)])
    Ak, Bk = Ahat.reshape(N + 1, n, n), Bhat.reshape(N + 1, n, N * m)
    Uk = np.eye(N * m).reshape(N, m, N * m)  # u_k = Uk[k] u
    weights = [agent.Q] * N + [agent.P]
    out = {"Ahat": Ahat, "Bhat": Bhat,
           "H": sum(Uk[k].T @ agent.R @ Uk[k] for k in range(N)),
           "G": np.zeros((N * m, n)), "W": np.zeros((n, n))}
    for k, Wk in enumerate(weights):
        out["H"] += Bk[k].T @ Wk @ Bk[k]
        out["G"] += Bk[k].T @ Wk @ Ak[k]
        out["W"] += Ak[k].T @ Wk @ Ak[k]
    local = []  # (C row, D row, c) stage by stage: inputs, states, terminal
    for k in range(N):
        local += [(a @ Uk[k], np.zeros(n), b) for a, b in
                  zip(agent.input_poly.C, agent.input_poly.c)]
    for k in range(N):
        local += [(a @ Bk[k], a @ Ak[k], b) for a, b in
                  zip(agent.state_poly.C, agent.state_poly.c)]
    local += [(a @ Bk[N], a @ Ak[N], b) for a, b in
              zip(agent.terminal_poly.C, agent.terminal_poly.c)]
    out["C"] = np.array([r[0] for r in local]).reshape(-1, N * m)
    out["D"] = np.array([r[1] for r in local]).reshape(-1, n)
    out["c"] = np.array([r[2] for r in local])
    coupling = []  # (E row, F row) for predicted stages 1..N, row by row
    for k in range(1, N + 1):
        for row in rows:
            ex, eu = row.Ex.get(i, np.zeros(n)), row.Eu.get(i, np.zeros(m))
            coupling.append((ex @ Bk[k] + eu @ Uk[k - 1], ex @ Ak[k]))
    out["E"] = np.array([r[0] for r in coupling]).reshape(-1, N * m)
    out["F"] = np.array([r[1] for r in coupling]).reshape(-1, n)
    gram = out["E"] @ np.linalg.inv(out["H"]) @ out["E"].T
    out["norm"] = float(np.linalg.eigvalsh(gram).max()) if gram.size else 0.0
    return out


def probe_qp_optimality(H, g, C, r, u_star, rng, trials=200, radius=1.0):
    """Check u_star against random feasible points: no probe may beat its
    objective.  Returns the worst (most negative) objective margin."""
    H = np.atleast_2d(H)
    def obj(v):
        return 0.5 * v @ H @ v + g @ v
    worst = np.inf
    base = obj(u_star)
    for _ in range(trials):
        v = u_star + rng.normal(scale=radius, size=u_star.size)
        if C.shape[0] and np.any(C @ v > r):
            # project the step direction until feasible by shrinking
            lo, hi = 0.0, 1.0
            d = v - u_star
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if C.shape[0] and np.any(C @ (u_star + mid * d) > r):
                    hi = mid
                else:
                    lo = mid
            v = u_star + 0.98 * lo * d
            if C.shape[0] and np.any(C @ v > r + 1e-12):
                continue
        worst = min(worst, obj(v) - base)
    return worst


def qp_by_enumeration(P, q, A, r, feas_tol=1e-10, dual_tol=1e-9):
    """Minimizer of 0.5 z'Pz + q'z s.t. A z <= r (P positive definite) by
    trying every set of linearly independent rows as equalities: each KKT
    system is solved directly, and the best primal-feasible point with
    nonnegative multipliers wins.  Exponential in the row count (k <= 8)."""
    P, A = np.atleast_2d(P), np.atleast_2d(A)
    n, k = P.shape[0], A.shape[0]
    best, best_val = None, np.inf
    for size in range(min(n, k) + 1):
        for S in combinations(range(k), size):
            S = list(S)
            As = A[S]
            if size and np.linalg.matrix_rank(As) < size:
                continue
            kkt = np.block([[P, As.T], [As, np.zeros((size, size))]])
            sol = np.linalg.solve(kkt, np.concatenate([-q, r[S]]))
            z, w = sol[:n], sol[n:]
            if np.any(A @ z > r + feas_tol) or np.any(w < -dual_tol):
                continue
            val = 0.5 * z @ P @ z + q @ z
            if val < best_val:
                best, best_val = z, val
    return best


def coupled_kkt_residual(g, x, u, nu, lam, eps):
    """KKT residual of the coupled condensed QP at state x, assembled agent
    by agent from the condensed blocks: stationarity H_i u_i + G_i x_i +
    C_i' nu_i + E_i' lam, local slacks c_i - D_i x_i - C_i u_i, and the
    coupling slack b - sum_i F_i x_i + eps lam - sum_i E_i u_i (the
    regularization's relaxation eliminated); the largest violation of
    stationarity, feasibility, sign and complementarity."""
    stat, slack, mult = [], [], []
    coupling = g.b + eps * lam
    ou = ox = ok = 0
    for ca in g.agents:
        ui, xi = u[ou:ou + ca.nu], x[ox:ox + ca.n]
        nui = nu[ok:ok + ca.C.shape[0]]
        stat.append(ca.H @ ui + ca.G @ xi + ca.C.T @ nui + ca.E.T @ lam)
        slack.append(ca.c - ca.D @ xi - ca.C @ ui)
        mult.append(nui)
        coupling = coupling - ca.F @ xi - ca.E @ ui
        ou, ox, ok = ou + ca.nu, ox + ca.n, ok + ca.C.shape[0]
    stat, slack = np.concatenate(stat), np.concatenate(slack + [coupling])
    mult = np.concatenate(mult + [lam])
    return float(max(np.abs(stat).max(initial=0.0), (-slack).max(),
                     (-mult).max(), np.abs(mult * slack).max()))


def golden_ratio():
    return 0.5 * (1.0 + np.sqrt(5.0))
