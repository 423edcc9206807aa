"""Closed-loop simulation of the plant-optimizer interconnection: at each
sampling time the running price estimate is advanced by a fixed number of
ascent rounds at the current measurement, the first-stage inputs are
recovered, and the plant steps forward under a bounded disturbance.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .condense import condense_scenario
from .coordinator import (batched_solves, default_step, lipschitz_constant,
                          run_ada)
from .errors import DimensionError, Infeasible, UnknownKind
from .model import shift_to_target

_setup = (None, None, None)  # the last (digest, shifted, g)


def prepared(scenario):
    """(digest, shifted scenario, condensed problem), kept for the last digest."""
    global _setup
    digest = scenario.digest()
    if digest != _setup[0]:
        shifted = shift_to_target(scenario)
        _setup = digest, shifted, condense_scenario(shifted)
    return _setup


def plant_step(x, u, d, agents):
    """Blockwise affine update x+ = A x + B u + d across all agents, batched
    over the agents of each shape (n, m)."""
    x, u, d = (np.asarray(v, dtype=float) for v in (x, u, d))
    shapes = {}
    for i, a in enumerate(agents):
        shapes.setdefault(a.B.shape, []).append(i)
    off = np.cumsum([(0, 0)] + [a.B.shape for a in agents], axis=0)
    n_total, m_total = off[-1]
    if x.size != n_total or u.size != m_total or d.size != n_total:
        raise DimensionError(f"plant_step: got sizes x={x.size}, u={u.size}, "
                             f"d={d.size}, expected x=d={n_total}, u={m_total}")
    out = d.copy()
    for (n, m), idx in shapes.items():
        xr, ur = off[idx, :1] + np.arange(n), off[idx, 1:] + np.arange(m)
        A, B = (np.array([getattr(agents[i], k) for i in idx]) for k in "AB")
        out[xr] += (A @ x[xr][..., None] + B @ u[ur][..., None])[..., 0]
    return out


@dataclass
class Disturbance:
    """Seeded disturbance sequence on an axis-aligned box.

    kinds: 'zero'; 'uniform' (i.i.d. uniform on [-bound, bound]);
    'constant_worst' (constant at a vertex, sign pattern from `vertex`).
    """

    kind: str
    bound: np.ndarray
    seed: int = 0
    vertex: np.ndarray | None = None

    def __post_init__(self):
        self.bound = np.asarray(self.bound, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.bound) & (self.bound >= 0)):
            raise ValueError("disturbance bound must be finite and "
                             "componentwise >= 0")
        if self.kind not in ("zero", "uniform", "constant_worst"):
            raise UnknownKind(f"unknown disturbance kind {self.kind!r}")
        if self.vertex is not None:
            self.vertex = np.sign(np.asarray(self.vertex, dtype=float)).reshape(-1)

    def realize(self, steps):
        """Materialize the sequence, shape (steps, dim).  Same seed, same
        sequence."""
        n = self.bound.size
        if self.kind == "zero":
            return np.zeros((steps, n))
        if self.kind == "constant_worst":
            sign = self.vertex if self.vertex is not None else np.ones(n)
            return np.tile(sign * self.bound, (steps, 1))
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-1.0, 1.0, size=(steps, n)) * self.bound


def make_disturbance(kind, bound, seed=0, vertex=None):
    return Disturbance(kind=kind, bound=bound, seed=seed, vertex=vertex)


@dataclass
class ClosedLoopTrace:
    """Time-indexed closed-loop record, in original (unshifted) coordinates."""

    states: np.ndarray          # (T+1, n) realized states
    inputs: np.ndarray          # (T, m) applied first-stage inputs
    prices: np.ndarray          # (T, Np) dual iterate after each update
    disturbances: np.ndarray    # (T, n)
    violations: np.ndarray      # (T, p) stage coupling violations, positive part
    wall_clock: np.ndarray      # (T,) seconds per sampling step
    ell: int
    epsilon: float
    alpha: float
    seed: int
    scenario_digest: str
    targets: np.ndarray
    infeasible_at: int | None = None
    # per step, one (j, ||(agg - b)_+||, ||mu_j - mu_{j-1}||) per round
    dual_diagnostics: list = field(default_factory=list)
    # totals over the inner solves of rounds and input recovery: per path, LP
    # certificates (a run stops at its first), active rows, largest residual
    inner_solves: dict = field(default_factory=dict)

    @property
    def steps(self):
        return self.inputs.shape[0]

    def replay_residual(self, agents):
        """Max deviation when the stored inputs/disturbances are replayed
        through the dynamics; a self-consistency check."""
        worst = 0.0
        for t in range(self.steps):
            pred = plant_step(self.states[t], self.inputs[t],
                              self.disturbances[t], agents)
            worst = max(worst, float(np.max(np.abs(pred - self.states[t + 1]))))
        return worst

    def to_csv(self):
        """Trace as CSV text.  Wall-clock times are deliberately excluded so
        identical runs produce identical bodies."""
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        p = self.violations.shape[1]
        cols = ["t"]
        cols += [f"x{i}" for i in range(n)]
        cols += [f"u{i}" for i in range(m)]
        cols += [f"viol{i}" for i in range(p)]
        cols += ["dual_norm"]
        lines = ["# dsmpc-trace-v1", ",".join(cols)]
        for t in range(self.steps):
            row = [str(t)]
            row += [repr(float(v)) for v in self.states[t]]
            row += [repr(float(v)) for v in self.inputs[t]]
            row += [repr(float(v)) for v in self.violations[t]]
            row.append(repr(float(np.linalg.norm(self.prices[t]))))
            lines.append(",".join(row))
        # closing row carries the terminal state
        tail = [str(self.steps)]
        tail += [repr(float(v)) for v in self.states[self.steps]]
        tail += [""] * (m + p + 1)
        lines.append(",".join(tail))
        return "\n".join(lines) + "\n"

    def metadata(self):
        return {
            "schema": "dsmpc-trace-v1",
            "scenario_digest": self.scenario_digest,
            "ell": self.ell,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "seed": self.seed,
            "steps": self.steps,
            "infeasible_at": self.infeasible_at,
            "targets": self.targets.tolist(),
            "total_wall_clock": float(self.wall_clock.sum()),
            "inner_solves": self.inner_solves,
        }

    def save(self, csv_path, meta_path=None):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        if meta_path is not None:
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump(self.metadata(), fh, indent=2, sort_keys=True)
                fh.write("\n")


def simulate_closed_loop(scenario, ell=None, steps=None, dist=None, alpha=None):
    """Run the interconnection for `steps` sampling times.

    The scenario is shifted so its targets sit at the origin; the trace is
    reported back in original coordinates.  The price estimate warm-starts
    from the previous sampling time (lam_0 = 0 at t = 0).  If a measured
    state leaves the feasible parameter set the run is truncated and the
    partial trace is returned with `infeasible_at` set.
    """
    ell = scenario.iterations if ell is None else int(ell)
    steps = scenario.sim_steps if steps is None else int(steps)
    digest, shifted, g = prepared(scenario)
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, shifted.epsilon))
    if dist is None:
        dist = make_disturbance("zero", np.zeros(shifted.n_total),
                                seed=scenario.seed)
    d_seq = dist.realize(steps)
    if d_seq.shape[1] != shifted.n_total:
        raise DimensionError(
            f"disturbance dimension {d_seq.shape[1]} != state dimension "
            f"{shifted.n_total}"
        )
    xbar, ubar = shifted.shift
    Eu, Ex, b = shifted.stage
    n, m = shifted.n_total, shifted.m_total

    states, inputs = np.zeros((steps + 1, n)), np.zeros((steps, m))
    prices, viols = np.zeros((steps, g.n_dual)), np.zeros((steps, b.size))
    clocks, diag = np.zeros(steps), []

    x = shifted.x0_stacked()
    lam = np.zeros(g.n_dual)
    states[0] = x + xbar
    warm = infeasible_at = None
    eps = shifted.epsilon
    paths, active_rows, kkt_max = np.zeros(3, dtype=int), 0, 0.0

    for t in range(steps):
        tic = time.perf_counter()
        try:
            run = run_ada(lam, x, ell, g, eps, alpha=alpha, warm=warm)
            lam = run.lam
            rec = batched_solves(g, run.terms, lam, run.warm)
        except Infeasible:
            infeasible_at = t
            break
        warm = rec.nu > 0.0
        paths += run.paths + rec.paths
        active_rows += run.active_rows + int(np.count_nonzero(warm))
        kkt_max = max(kkt_max, run.kkt_max, float(rec.res.max(initial=0.0)))
        u_first = g.first_inputs(rec.u)
        viols[t] = np.maximum(Ex @ x + Eu @ u_first - b, 0.0)
        x_next = plant_step(x, u_first, d_seq[t], shifted.agents)
        clocks[t] = time.perf_counter() - tic
        prices[t] = lam
        inputs[t] = u_first + ubar
        states[t + 1] = x_next + xbar
        diag.append([(j + 1, float(r), float(d)) for j, (r, d) in
                     enumerate(zip(run.agg_residuals, run.mu_steps))])
        x = x_next

    if infeasible_at is not None:
        t = infeasible_at
        states = states[: t + 1]
        inputs, prices, viols, clocks = inputs[:t], prices[:t], viols[:t], clocks[:t]

    return ClosedLoopTrace(
        states=states, inputs=inputs, prices=prices,
        disturbances=d_seq[: inputs.shape[0]], violations=viols,
        wall_clock=clocks, ell=ell, epsilon=eps, alpha=float(alpha),
        seed=dist.seed, scenario_digest=digest,
        targets=scenario.targets_stacked(), infeasible_at=infeasible_at,
        dual_diagnostics=diag,
        inner_solves=dict(zip(("law", "polish", "cold"), paths.tolist()),
                          lp_certificate=int(infeasible_at is not None),
                          active_rows=active_rows, kkt_max=kkt_max),
    )
