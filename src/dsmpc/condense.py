"""Condensed QP construction: per-agent prediction matrices, quadratic cost
blocks, stacked local constraint rows, and the coupling blocks over the
horizon.  Predicted states are eliminated through the dynamics, so the only
decision variables are the input trajectories.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .errors import DimensionError
from .qpcore import DenseQP


@dataclass
class CondensedAgent:
    """Horizon-condensed data for one agent.

    Local constraint rows are ordered: input rows for stages 0..N-1, then
    state rows for stages 0..N-1, then terminal rows.  Coupling blocks E, F
    cover predicted stages 1..N (the measured state is not a decision
    variable); they are zero-row until the coupling is attached.  `qp` is
    the factorized inner-problem workspace on (H, C), built here once.
    """

    index: int
    name: str
    n: int
    m: int
    N: int
    H: np.ndarray
    G: np.ndarray
    W: np.ndarray
    C: np.ndarray
    D: np.ndarray
    c: np.ndarray
    E: np.ndarray
    F: np.ndarray
    Ahat: np.ndarray
    Bhat: np.ndarray
    qp: DenseQP = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.qp = DenseQP(self.H, self.C)

    @property
    def nu(self):
        """Number of decision variables (N * m)."""
        return self.N * self.m


def prediction_matrices(A, B, N):
    """Stacked prediction maps: xi = Ahat x0 + Bhat nu, stages 0..N."""
    n, m = B.shape
    Ahat = np.zeros(((N + 1) * n, n))
    Bhat = np.zeros(((N + 1) * n, N * m))
    Ahat[:n] = np.eye(n)
    powers = [np.eye(n)]
    for k in range(1, N + 1):
        powers.append(powers[-1] @ A)
        Ahat[k * n:(k + 1) * n] = powers[k]
    for k in range(1, N + 1):
        for j in range(k):
            Bhat[k * n:(k + 1) * n, j * m:(j + 1) * m] = powers[k - 1 - j] @ B
    return Ahat, Bhat


def condense_agent(agent, N, index=0):
    """Build the condensed cost and local constraint matrices for one agent,
    the `index`-th of its scenario."""
    if N < 1:
        raise DimensionError(f"horizon must be >= 1, got {N}")
    n, m = agent.n, agent.m
    Ahat, Bhat = prediction_matrices(agent.A, agent.B, N)
    Hhat = block_diag(np.kron(np.eye(N), agent.Q), agent.P)

    H = Bhat.T @ Hhat @ Bhat + np.kron(np.eye(N), agent.R)
    H = 0.5 * (H + H.T)
    G = Bhat.T @ Hhat @ Ahat
    W = Ahat.T @ Hhat @ Ahat
    W = 0.5 * (W + W.T)

    Cx, cx = agent.state_poly.C, agent.state_poly.c
    CN, cN = agent.terminal_poly.C, agent.terminal_poly.c
    Cu, cu = agent.input_poly.C, agent.input_poly.c
    Lhat = block_diag(np.kron(np.eye(N), Cx), CN) if (Cx.size or CN.size) else \
        np.zeros((0, (N + 1) * n))

    C = np.vstack([np.kron(np.eye(N), Cu), Lhat @ Bhat])
    D = np.vstack([np.zeros((N * Cu.shape[0], n)), Lhat @ Ahat])
    c = np.concatenate([np.tile(cu, N), np.tile(cx, N), cN])

    return CondensedAgent(
        index=index,
        name=agent.name,
        n=n,
        m=m,
        N=N,
        H=H,
        G=G,
        W=W,
        C=C,
        D=D,
        c=c,
        E=np.zeros((0, N * m)),
        F=np.zeros((0, n)),
        Ahat=Ahat,
        Bhat=Bhat,
    )


def build_coupling(stage_Eu, stage_Ex, bbar, condensed):
    """Stack the per-agent stage blocks (`CouplingSpec.stage_matrices`) and
    the stage bound bbar over the horizon.

    Returns (E_list, F_list, b): per-agent E (Np x Nm) and F (Np x n) built
    from the predicted block rows 1..N of Bhat / Ahat, and b = 1_N (x) bbar.
    """
    p = bbar.size
    E_list, F_list = [], []
    for ca, Eu_s, Ex_s in zip(condensed, stage_Eu, stage_Ex):
        n, N = ca.n, ca.N
        rows = slice(n, (N + 1) * n)  # predicted stages 1..N
        if p == 0:
            E_list.append(np.zeros((0, ca.nu)))
            F_list.append(np.zeros((0, n)))
            continue
        IEx = np.kron(np.eye(N), Ex_s)
        F_list.append(IEx @ ca.Ahat[rows])
        E_list.append(IEx @ ca.Bhat[rows] + np.kron(np.eye(N), Eu_s))
    b = np.tile(bbar, condensed[0].N)
    return E_list, F_list, b


@dataclass
class GlobalQP:
    """All condensed agents plus the stacked coupling data, in agent order.

    Built at construction from the agents' blocks: `coupling_norms` holds
    ||E_i H_i^{-1} E_i'|| per agent, the top eigenvalue of the nu x nu Gram
    matrix W W' with W = L^{-1} E_i' on the agent's Cholesky factor (W' W has
    the same nonzero eigenvalues); `E_all` = [E_1 ... E_M]; `groups` holds,
    per inner-problem shape (nu, k), the agent indices, their (len, nu)
    positions in the stacked inputs and (len, k) in the stacked local rows,
    and the stacked H_i, C_i and H_i^-1.  `oracle_ws` holds the oracle's
    stacked blocks and its DenseQP per eps, built on first use.
    """

    agents: list
    b: np.ndarray
    p_stage: int
    N: int
    stage_Eu: list
    stage_Ex: list
    bbar: np.ndarray
    digest: str = ""
    coupling_norms: list = field(init=False, repr=False, compare=False)
    E_all: np.ndarray = field(init=False, repr=False, compare=False)
    groups: list = field(init=False, repr=False, compare=False)
    oracle_ws: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.coupling_norms = []
        for ca in self.agents:
            W = solve_triangular(ca.qp.chol, ca.E.T, lower=True)
            self.coupling_norms.append(float(np.linalg.eigvalsh(W @ W.T)[-1]))
        self.E_all = np.hstack([ca.E for ca in self.agents])
        u_off = self.input_offsets()
        r_off = np.cumsum([0] + [ca.qp.k for ca in self.agents])
        shapes = {}
        for i, ca in enumerate(self.agents):
            shapes.setdefault((ca.nu, ca.qp.k), []).append(i)
        self.groups = [
            (idx, u_off[idx][:, None] + np.arange(nu),
             r_off[idx][:, None] + np.arange(k),
             *(np.stack([getattr(self.agents[i].qp, a) for i in idx])
               for a in ("P", "A", "Pinv")))
            for (nu, k), idx in shapes.items()]

    @property
    def n_total(self):
        return sum(ca.n for ca in self.agents)

    @property
    def m_total(self):
        return sum(ca.m for ca in self.agents)

    @property
    def n_dual(self):
        """Stacked coupling dual dimension N * p."""
        return self.N * self.p_stage

    def input_offsets(self):
        return np.cumsum([0] + [ca.nu for ca in self.agents])

    def state_offsets(self):
        return np.cumsum([0] + [ca.n for ca in self.agents])

    def split_states(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n_total:
            raise DimensionError(
                f"state vector has length {x.size}, expected {self.n_total}"
            )
        off = self.state_offsets()
        return [x[off[i]:off[i + 1]] for i in range(len(self.agents))]

    def split_inputs(self, u):
        u = np.asarray(u, dtype=float)
        off = self.input_offsets()
        if u.size != off[-1]:
            raise DimensionError(
                f"input trajectory has length {u.size}, expected {off[-1]}"
            )
        return [u[off[i]:off[i + 1]] for i in range(len(self.agents))]

    def first_inputs(self, u):
        """First-stage input blocks of a stacked input trajectory."""
        return np.concatenate([ui[: ca.m] for ca, ui in
                               zip(self.agents, self.split_inputs(u))])

    def state_terms(self, x):
        """The parts of the inner problems fixed by a measured state x: the
        agents' G_i x_i stacked like the inputs, their r_i = c_i - D_i x_i
        stacked in agent order, and sum_i F_i x_i over the stacked horizon
        rows."""
        x_parts = self.split_states(x)
        Gx = np.concatenate([ca.G @ xi for ca, xi in zip(self.agents, x_parts)])
        r = np.concatenate([ca.c - ca.D @ xi for ca, xi in zip(self.agents, x_parts)])
        Fx = np.zeros(self.n_dual)
        for ca, xi in zip(self.agents, x_parts):
            Fx += ca.F @ xi
        return Gx, r, Fx

    def stage_violation(self, x, u_first):
        """Positive part of the stage coupling rows at a realized (x, u)."""
        resid = -self.bbar.copy()
        for Ex, Eu, xi, ui in zip(
            self.stage_Ex, self.stage_Eu, self.split_states(x),
            np.split(np.asarray(u_first, dtype=float),
                     np.cumsum([ca.m for ca in self.agents])[:-1]),
        ):
            resid += Ex @ xi + Eu @ ui
        return np.maximum(resid, 0.0)


def condense_scenario(scenario):
    """Condense every agent and attach the stacked coupling blocks."""
    N = scenario.horizon
    condensed = [condense_agent(agent, N, index=i)
                 for i, agent in enumerate(scenario.agents)]
    bbar = scenario.coupling.bbar
    stage_Eu, stage_Ex = scenario.coupling.stage_matrices(scenario.agents)
    E_list, F_list, b = build_coupling(stage_Eu, stage_Ex, bbar, condensed)
    for ca, E, F in zip(condensed, E_list, F_list):
        ca.E, ca.F = E, F
    return GlobalQP(
        agents=condensed,
        b=b,
        p_stage=scenario.coupling.p,
        N=N,
        stage_Eu=stage_Eu,
        stage_Ex=stage_Ex,
        bbar=bbar,
        digest=scenario.digest(),
    )


def eval_condensed_cost(g, u, x):
    """Total condensed cost sum_i 0.5 ||(u_i, x_i)||^2 in the M_i metric."""
    total = 0.0
    for ca, ui, xi in zip(g.agents, g.split_inputs(u), g.split_states(x)):
        total += 0.5 * (ui @ ca.H @ ui) + ui @ (ca.G @ xi) + 0.5 * (xi @ ca.W @ xi)
    return float(total)


def rollout_cost(scenario, u, x):
    """Sparse-form cost: roll the inputs through the dynamics and sum the
    stage, input, and terminal terms.  Used by self-checks; tests carry
    their own independent version.
    """
    N = scenario.horizon
    off_u = np.cumsum([0] + [a.m * N for a in scenario.agents])
    off_x = np.cumsum([0] + [a.n for a in scenario.agents])
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i, a in enumerate(scenario.agents):
        ui = u[off_u[i]:off_u[i + 1]].reshape(N, a.m)
        state = x[off_x[i]:off_x[i + 1]].copy()
        for k in range(N):
            total += 0.5 * (state @ a.Q @ state + ui[k] @ a.R @ ui[k])
            state = a.A @ state + a.B @ ui[k]
        total += 0.5 * state @ a.P @ state
    return float(total)


def dump_matrices(g):
    """Matrix dump of the condensed data in the scenario file encoding."""
    out = {"horizon": g.N, "coupling_rows_per_stage": g.p_stage,
           "b": g.b.tolist(), "agents": []}
    for ca in g.agents:
        out["agents"].append(
            {
                "name": ca.name,
                "H": ca.H.tolist(),
                "G": ca.G.tolist(),
                "W": ca.W.tolist(),
                "C": ca.C.tolist(),
                "D": ca.D.tolist(),
                "c": ca.c.tolist(),
                "E": ca.E.tolist(),
                "F": ca.F.tolist(),
                "Ahat": ca.Ahat.tolist(),
                "Bhat": ca.Bhat.tolist(),
            }
        )
    return out
