"""Condensed QP construction.  Predicted states are eliminated through the
dynamics, so the only decision variables are the input trajectories.

The agents of a scenario are condensed in one stacked pass per agent shape
(n, m and the input, state and terminal row counts): the powers of A, the
prediction maps Ahat and Bhat, the cost blocks H, G, W, the local rows C, D,
c and the coupling blocks E, F over the horizon are batched products over
the group's stacked models, and each agent keeps its slice.  Condensing is a
structured batch of small dense products (Frison and Jorgensen, CDC 2013);
homogeneous agents make that batch one stack.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import DimensionError
from .qpcore import DenseQP


@dataclass(eq=False)
class CondensedAgent:
    """Horizon-condensed data for one agent.

    Local constraint rows are ordered: input rows for stages 0..N-1, then
    state rows for stages 0..N-1, then terminal rows.  Coupling blocks E, F
    cover predicted stages 1..N (the measured state is not a decision
    variable); they are zero-row when the agent is condensed alone.  `qp` is
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
    qp: DenseQP = field(init=False, repr=False)

    def __post_init__(self):
        self.qp = DenseQP(self.H, self.C)

    @property
    def nu(self):
        """Number of decision variables (N * m)."""
        return self.N * self.m


def _stacker(items):
    """np.stack of one (dotted) attribute over `items`."""
    return lambda path: np.stack([attrgetter(path)(it) for it in items])


def _block_diagonal(X, N):
    """kron(I_N, X_j) for every matrix X_j of a stack (g, r, s)."""
    g, r, s = X.shape
    out = np.zeros((g, N, r, N, s))
    stages = np.arange(N)
    out[:, stages, :, stages, :] = X
    return out.reshape(g, N * r, N * s)


def _condense_group(models, index, N, Eu, Ex):
    """Condense agents of one shape in one stacked pass: `models` are their
    AgentModels, `index` their places in the scenario, Eu (g, p, m) and
    Ex (g, p, n) their coupling stage blocks.  Returns a CondensedAgent per
    model, in order."""
    if N < 1:
        raise DimensionError(f"horizon must be >= 1, got {N}")
    stack = _stacker(models)
    A, B = stack("A"), stack("B")
    g, n, m = B.shape
    # Ax[:, k] = A^k maps x_0 to x_k; Bx[:, k, j] = A^(k-1-j) B maps input
    # j < k to x_k.
    Ax = np.empty((g, N + 1, n, n))
    Ax[:, 0] = np.eye(n)
    for k in range(1, N + 1):
        Ax[:, k] = Ax[:, k - 1] @ A
    AB = Ax[:, :N] @ B[:, None]
    Bx = np.zeros((g, N + 1, N, n, m))
    k, j = np.tril_indices(N)
    Bx[:, k + 1, j] = AB[:, k - j]
    Ahat = Ax.reshape(g, (N + 1) * n, n)
    Bhat = Bx.transpose(0, 1, 3, 2, 4).reshape(g, (N + 1) * n, N * m)
    Bs = Bhat.reshape(g, N + 1, n, N * m)

    # Bhat' Hhat and Ahat' Hhat for Hhat = blkdiag(Q, ..., Q, P), one stage
    # block at a time; H, G and W are then (X' Hhat) Y.
    Qs = np.concatenate([np.broadcast_to(stack("Q")[:, None], (g, N, n, n)),
                         stack("terminal_cost")[:, None]], axis=1)
    BtQ, AtQ = ((X.transpose(0, 1, 3, 2) @ Qs).transpose(0, 2, 1, 3)
                .reshape(g, X.shape[-1], (N + 1) * n) for X in (Bs, Ax))
    H = BtQ @ Bhat + _block_diagonal(stack("R"), N)
    H = 0.5 * (H + H.transpose(0, 2, 1))
    G = BtQ @ Ahat
    W = AtQ @ Ahat
    W = 0.5 * (W + W.transpose(0, 2, 1))

    Cu, Cx = stack("input_poly.C"), stack("state_poly.C")
    CN = stack("terminal_set.C")

    def state_rows(X):  # [I_N (x) Cx, 0; 0, CN] applied to stage maps X
        return np.concatenate([(Cx[:, None] @ X[:, :N]).reshape(g, -1, X.shape[-1]),
                               CN @ X[:, N]], axis=1)

    C = np.concatenate([_block_diagonal(Cu, N), state_rows(Bs)], axis=1)
    D = np.concatenate([np.zeros((g, N * Cu.shape[1], n)), state_rows(Ax)], axis=1)
    c = np.concatenate([np.tile(stack("input_poly.c"), N),
                        np.tile(stack("state_poly.c"), N),
                        stack("terminal_set.c")], axis=1)

    # Coupling rows of predicted stages 1..N: Ex x_k + Eu u_(k-1).
    p = Eu.shape[1]
    E = (Ex[:, None] @ Bs[:, 1:]).reshape(g, N * p, N * m) + _block_diagonal(Eu, N)
    F = (Ex[:, None] @ Ax[:, 1:]).reshape(g, N * p, n)

    return [CondensedAgent(index=i, name=a.name, n=n, m=m, N=N, H=H[s], G=G[s],
                           W=W[s], C=C[s], D=D[s], c=c[s], E=E[s], F=F[s],
                           Ahat=Ahat[s], Bhat=Bhat[s])
            for s, (i, a) in enumerate(zip(index, models))]


def condense_agent(agent, N, index=0):
    """Condense one agent alone, the `index`-th of its scenario: the
    one-agent case of the stacked pass, with zero coupling rows."""
    return _condense_group([agent], [index], N, np.zeros((1, 0, agent.m)),
                           np.zeros((1, 0, agent.n)))[0]


# The agents of one inner-problem shape (n, nu, k) in a GlobalQP: indices,
# (len, nu) positions in the stacked inputs, (len, k) in the stacked local
# rows and (len, n) in the stacked states; stacked KKT matrices
# [H_i C_i'; C_i 0], cost metrics M_i = [H_i G_i; G_i' W_i], G_i, D_i, c_i;
# and the laws of the rounds (DenseQP.law, padded to (nu+k) x (nu+k)), with
# the (len, k) masks of their sets.
ShapeGroup = namedtuple("ShapeGroup",
                        "idx u_rows r_rows x_rows K M G D c laws law_mask")


@dataclass(eq=False)
class GlobalQP:
    """The condensed coupled problem: the condensed agents, in agent order,
    and the stacked coupling bound `b` of the rows sum_i E_i u_i + F_i x_i
    <= b over predicted stages 1..N.  The horizon N and the rows per stage
    `p_stage` follow from the agents and from b.  Built at construction from
    the agents' blocks: `E_all` = [E_1 ... E_M] and `F_all` = [F_1 ... F_M];
    `groups`, one ShapeGroup per inner-problem shape, whose laws and masks
    the coordinator's rounds keep up to date; and `coupling_norms`, per agent
    ||E_i H_i^{-1} E_i'||, the top eigenvalue of the nu x nu Gram matrix
    W W' = L^{-1} E_i' E_i L^{-T} on the agent's Cholesky factor (W' W has
    the same nonzero eigenvalues), one batched eigvalsh per group.  It
    and its agents compare and hash by identity, so they can key a cache.
    """

    agents: list
    b: np.ndarray
    coupling_norms: list = field(init=False, repr=False)
    E_all: np.ndarray = field(init=False, repr=False)
    F_all: np.ndarray = field(init=False, repr=False)
    groups: list = field(init=False, repr=False)
    first_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.E_all = np.hstack([ca.E for ca in self.agents])
        self.F_all = np.hstack([ca.F for ca in self.agents])
        u_off = np.cumsum([0] + [ca.nu for ca in self.agents])
        x_off = self.state_offsets()
        r_off = np.cumsum([0] + [ca.qp.k for ca in self.agents])
        self.first_rows = np.concatenate([o + np.arange(ca.m) for o, ca in
                                          zip(u_off, self.agents)])
        shapes = {}
        for i, ca in enumerate(self.agents):
            shapes.setdefault((ca.n, ca.nu, ca.qp.k), []).append(i)
        norms = np.zeros(len(self.agents))
        self.groups = []
        for (n, nu, k), idx in shapes.items():
            stack = _stacker([self.agents[i] for i in idx])
            E, Linv = stack("E"), np.linalg.inv(stack("qp.chol"))
            WWt = Linv @ (E.transpose(0, 2, 1) @ E) @ Linv.transpose(0, 2, 1)
            norms[idx] = np.linalg.eigvalsh(WWt)[:, -1]
            H, C, G = stack("qp.P"), stack("qp.A"), stack("G")
            K, laws = np.zeros((2, len(idx), nu + k, nu + k))
            M = np.zeros((len(idx), nu + n, nu + n))
            K[:, :nu, :nu], K[:, :nu, nu:], K[:, nu:, :nu] = \
                H, C.transpose(0, 2, 1), C
            M[:, :nu, :nu], M[:, :nu, nu:] = H, G
            M[:, nu:, :nu], M[:, nu:, nu:] = G.transpose(0, 2, 1), stack("W")
            laws[:, :nu, :nu] -= stack("qp.Pinv")  # = DenseQP.law([]), cheaper
            self.groups.append(ShapeGroup(
                idx, u_off[idx][:, None] + np.arange(nu),
                r_off[idx][:, None] + np.arange(k),
                x_off[idx][:, None] + np.arange(n), K, M, G,
                stack("D"), stack("c"), laws,
                np.zeros((len(idx), k), dtype=bool)))
        self.coupling_norms = norms.tolist()

    @property
    def N(self):
        """Prediction horizon."""
        return self.agents[0].N

    @property
    def p_stage(self):
        """Coupling rows per predicted stage."""
        return self.b.size // self.N

    @property
    def n_total(self):
        return sum(ca.n for ca in self.agents)

    @property
    def n_dual(self):
        """Stacked coupling dual dimension N * p."""
        return self.b.size

    def state_offsets(self):
        return np.cumsum([0] + [ca.n for ca in self.agents])

    def _states(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n_total:
            raise DimensionError(
                f"state vector has length {x.size}, expected {self.n_total}"
            )
        return x

    def split_states(self, x):
        return np.split(self._states(x), self.state_offsets()[1:-1])

    def _inputs(self, u):
        u = np.asarray(u, dtype=float)
        if u.size != self.E_all.shape[1]:
            raise DimensionError(f"input trajectory has length {u.size}, "
                                 f"expected {self.E_all.shape[1]}")
        return u

    def first_inputs(self, u):
        """First-stage input blocks of a stacked input trajectory."""
        return self._inputs(u)[self.first_rows]

    def state_terms(self, x):
        """The parts of the inner problems fixed by a measured state x: the
        agents' G_i x_i stacked like the inputs, their r_i = c_i - D_i x_i
        stacked in agent order, and sum_i F_i x_i over the stacked horizon
        rows; one product per shape group."""
        x = self._states(x)
        Gx = np.empty(self.E_all.shape[1])
        r = np.empty(sum(grp.r_rows.size for grp in self.groups))
        for grp in self.groups:
            xs = x[grp.x_rows][..., None]
            Gx[grp.u_rows] = (grp.G @ xs)[..., 0]
            r[grp.r_rows] = grp.c - (grp.D @ xs)[..., 0]
        return Gx, r, self.F_all @ x


def condense_scenario(scenario):
    """Condense every agent, one stacked pass per agent shape, with the
    coupling blocks attached; agents keep their scenario order."""
    N, agents = scenario.horizon, scenario.agents
    Eu, Ex, b = scenario.stage
    u_off = np.cumsum([0] + [a.m for a in agents])
    x_off = np.cumsum([0] + [a.n for a in agents])
    shapes = {}
    for i, a in enumerate(agents):
        shapes.setdefault((a.n, a.m, a.input_poly.rows, a.state_poly.rows,
                           a.terminal_set.rows), []).append(i)
    condensed = []
    for (n, m, *_), idx in shapes.items():
        Eu_g = Eu[:, u_off[idx][:, None] + np.arange(m)].transpose(1, 0, 2)
        Ex_g = Ex[:, x_off[idx][:, None] + np.arange(n)].transpose(1, 0, 2)
        condensed += _condense_group([agents[i] for i in idx], idx, N, Eu_g, Ex_g)
    condensed.sort(key=lambda ca: ca.index)
    return GlobalQP(agents=condensed, b=np.tile(b, N))


def eval_condensed_cost(g, u, x):
    """Total condensed cost sum_i 0.5 ||(u_i, x_i)||^2 in the M_i metric,
    one product per shape group."""
    u, x = g._inputs(u), g._states(x)
    total = 0.0
    for grp in g.groups:
        v = np.concatenate([u[grp.u_rows], x[grp.x_rows]], 1)
        total += 0.5 * float(np.vdot(v, (grp.M @ v[..., None])[..., 0]))
    return total


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
        total += 0.5 * state @ a.terminal_cost @ state
    return float(total)


def dump_matrices(g):
    """Matrix dump of the condensed data in the scenario file encoding."""
    return {"horizon": g.N, "coupling_rows_per_stage": g.p_stage,
            "b": g.b.tolist(),
            "agents": [{"name": ca.name, **{k: getattr(ca, k).tolist() for k in
                                            ("H", "G", "W", "C", "D", "c", "E",
                                             "F", "Ahat", "Bhat")}}
                       for ca in g.agents]}
