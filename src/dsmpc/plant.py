"""Closed-loop simulation of the plant-optimizer interconnection: at each
sampling time a feedback law maps the measurement to first-stage inputs and
a price, and the plant steps forward under a bounded disturbance.  One loop
runs the scheme's law (fixed-budget ascent, input recovery) and the oracle's.

Nothing is built again per step: the condensed problem is kept per scenario
digest (`prepared`), the plant's stacked A and B per agent tuple
(`_stacks`), and a run's rows are stacked once, when it ends.
"""

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=1)
def _stacks(agents):
    """((n_total, m_total), ((state rows, input rows, A, B) per shape (n, m))):
    the agents of one shape batched, kept for the last agent tuple."""
    groups = {}
    for i, a in enumerate(agents):
        groups.setdefault(a.B.shape, []).append(i)
    off = np.cumsum([(0, 0)] + [a.B.shape for a in agents], axis=0)
    return tuple(off[-1]), tuple(
        (off[idx, :1] + np.arange(n), off[idx, 1:] + np.arange(m),
         np.array([agents[i].A for i in idx]), np.array([agents[i].B for i in idx]))
        for (n, m), idx in groups.items())


def plant_step(x, u, d, agents):
    """Blockwise affine update x+ = A x + B u + d across all agents, batched
    over the agents of each shape (n, m)."""
    x, u, d = (np.asarray(v, dtype=float) for v in (x, u, d))
    (n_total, m_total), stacks = _stacks(tuple(agents))
    if x.size != n_total or u.size != m_total or d.size != n_total:
        raise DimensionError(f"plant_step: got sizes x={x.size}, u={u.size}, "
                             f"d={d.size}, expected x=d={n_total}, u={m_total}")
    out = d.copy()
    for xr, ur, A, B in stacks:
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
            if self.vertex.size != self.bound.size:
                raise DimensionError(f"disturbance vertex has {self.vertex.size}"
                                     f" entries, bound {self.bound.size}")
            if not np.all(np.abs(self.vertex) == 1.0):  # a zero or NaN entry
                raise ValueError("disturbance vertex entries must be nonzero")

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
    prices: np.ndarray          # (T, Np) price after each update (oracle: lam)
    disturbances: np.ndarray    # (T, n)
    violations: np.ndarray      # (T, p) stage coupling violations, positive part
    wall_clock: np.ndarray      # (T,) seconds per sampling step
    ell: int | None             # ell and alpha: None for the oracle's law
    epsilon: float
    alpha: float | None
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
        T, widths = self.steps, {"x": self.states.shape[1], "u": self.inputs.shape[1],
                                 "viol": self.violations.shape[1]}
        cols = ["t", *(f"{k}{i}" for k, w in widths.items() for i in range(w)),
                "dual_norm"]
        body = np.column_stack([self.states[:T], self.inputs, self.violations,
                                [np.linalg.norm(lam) for lam in self.prices]])
        lines = ["# dsmpc-trace-v1", ",".join(cols)]
        lines += [f"{t}," + ",".join(map(repr, row))
                  for t, row in enumerate(body.tolist())]
        # closing row carries the terminal state
        lines.append(",".join([str(T), *map(repr, self.states[T].tolist())])
                     + "," * (widths["u"] + widths["viol"] + 1))
        return "\n".join(lines) + "\n"

    def metadata(self):
        keys = ("scenario_digest", "ell", "epsilon", "alpha", "seed", "steps",
                "infeasible_at")
        return {"schema": "dsmpc-trace-v1", **{k: getattr(self, k) for k in keys},
                "targets": self.targets.tolist(),
                "total_wall_clock": float(self.wall_clock.sum()),
                "inner_solves": self.inner_solves}

    def save(self, csv_path, meta_path=None):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        if meta_path is not None:
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump(self.metadata(), fh, indent=2, sort_keys=True)
                fh.write("\n")


def _closed_loop(scenario, law, steps, dist, **fields):
    """The sampling-time loop every law shares.  `law(x)` maps the shifted
    state to (first-stage inputs, price) and may raise Infeasible, which
    truncates the run; `fields` are the law's trace fields (ell, alpha, ...)."""
    steps = scenario.sim_steps if steps is None else int(steps)
    digest, shifted, g = prepared(scenario)
    if dist is None:
        dist = make_disturbance("zero", np.zeros(shifted.n_total),
                                seed=scenario.seed)
    d_seq = dist.realize(steps)
    if d_seq.shape[1] != shifted.n_total:
        raise DimensionError(f"disturbance dimension {d_seq.shape[1]} != "
                             f"state dimension {shifted.n_total}")
    xbar, ubar = shifted.shift
    Eu, Ex, b = shifted.stage
    x = shifted.x0_stacked()
    states, inputs, prices, viols, clocks = [x + xbar], [], [], [], []
    for t in range(steps):
        tic = time.perf_counter()
        try:
            u_first, lam = law(x)
        except Infeasible:
            break
        viols.append(np.maximum(Ex @ x + Eu @ u_first - b, 0.0))
        x = plant_step(x, u_first, d_seq[t], shifted.agents)
        clocks.append(time.perf_counter() - tic)
        prices.append(lam)
        inputs.append(u_first + ubar)
        states.append(x + xbar)

    T = len(inputs)  # a run shorter than `steps` was truncated
    return ClosedLoopTrace(
        states=np.array(states), inputs=np.reshape(inputs, (T, shifted.m_total)),
        prices=np.reshape(prices, (T, g.n_dual)), disturbances=d_seq[:T],
        violations=np.reshape(viols, (T, b.size)), wall_clock=np.array(clocks),
        seed=dist.seed, scenario_digest=digest, targets=scenario.targets_stacked(),
        infeasible_at=T if T < steps else None, **fields)


def simulate_closed_loop(scenario, ell=None, steps=None, dist=None, alpha=None):
    """Run the interconnection for `steps` sampling times.

    The scenario is shifted so its targets sit at the origin; the trace is
    reported back in original coordinates.  The price estimate warm-starts
    from the previous sampling time (lam_0 = 0 at t = 0).  If a measured
    state leaves the feasible parameter set the run is truncated and the
    partial trace is returned with `infeasible_at` set.
    """
    ell = scenario.iterations if ell is None else int(ell)
    _, shifted, g = prepared(scenario)
    eps = shifted.epsilon
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, eps))
    lam, warm, diag = np.zeros(g.n_dual), None, []
    paths, active_rows, kkt_max = np.zeros(3, dtype=int), 0, 0.0

    def law(x):
        nonlocal lam, warm, paths, active_rows, kkt_max
        run = run_ada(lam, x, ell, g, eps, alpha=alpha, warm=warm)
        lam = run.lam
        rec = batched_solves(g, run.terms, lam, run.warm)
        warm = rec.nu > 0.0
        paths += run.paths + rec.paths
        active_rows += run.active_rows + int(np.count_nonzero(warm))
        kkt_max = max(kkt_max, run.kkt_max, float(rec.res.max(initial=0.0)))
        diag.append([(j + 1, float(r), float(d)) for j, (r, d) in
                     enumerate(zip(run.agg_residuals, run.mu_steps))])
        return g.first_inputs(rec.u), lam

    trace = _closed_loop(scenario, law, steps, dist, ell=ell, epsilon=eps,
                         alpha=float(alpha), dual_diagnostics=diag)
    trace.inner_solves = dict(zip(("law", "polish", "cold"), paths.tolist()),
                              lp_certificate=int(trace.infeasible_at is not None),
                              active_rows=active_rows, kkt_max=kkt_max)
    return trace
