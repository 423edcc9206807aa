"""Problem data: agent models, coupling constraints, scenario files, and
standing-assumption checks (stabilizability, origin interiority, weight
definiteness, terminal decrease) backed by a PBH test and a Riccati solver.
"""

import hashlib
import json
import math
from copy import copy
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_discrete_are

from .errors import DimensionError, NoConvergence, NotEquilibrium, ParseError

DARE_RESIDUAL_TOL = 1e-10
PBH_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-9
TERMINAL_TOL = 1e-8     # largest eigenvalue allowed in the decrease residual


def _matrix(obj, what, rows=None, cols=None):
    try:
        M = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: not a numeric matrix") from exc
    if not np.all(np.isfinite(M)):
        raise ParseError(f"{what}: non-finite entry")
    if M.ndim == 1 and M.size == 0:
        M = M.reshape(0, cols if cols is not None else 0)
    if M.ndim != 2:
        raise DimensionError(f"{what}: expected a 2-d matrix, got shape {M.shape}")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{what}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{what}: expected {cols} columns, got {M.shape[1]}")
    return M


def _vector(obj, what, size=None):
    try:
        v = np.array(obj, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: not a numeric vector") from exc
    if not np.all(np.isfinite(v)):
        raise ParseError(f"{what}: non-finite entry")
    if size is not None and v.size != size:
        raise DimensionError(f"{what}: expected length {size}, got {v.size}")
    return v


def _scalar(obj, what, kind=int):
    try:
        value = kind(obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} is not a finite {kind.__name__} ({obj!r})") from exc
    if kind is int and isinstance(obj, float) and obj != value:
        raise ParseError(f"{what} is not an integer ({obj!r})")
    return value


def _object(obj, what):
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected an object")
    return obj


@dataclass
class Polytope:
    """Halfspace set {z : C z <= c}.  Zero rows describe the whole space."""

    C: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        if self.C.shape[0] != self.c.size:
            raise DimensionError(
                f"polytope: {self.C.shape[0]} rows but {self.c.size} offsets"
            )

    @staticmethod
    def unconstrained(dim):
        return Polytope(np.zeros((0, dim)), np.zeros(0))

    @staticmethod
    def box(lo, hi):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise DimensionError("box: bound lengths differ")
        eye = np.eye(lo.size)
        return Polytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @property
    def rows(self):
        return self.C.shape[0]

    @property
    def dim(self):
        return self.C.shape[1]

    def contains(self, z, tol=0.0):
        if self.rows == 0:
            return True
        return bool(np.all(self.C @ np.asarray(z, dtype=float) <= self.c + tol))

    def shifted(self, z):
        """Polytope of w such that w + z lies in this set."""
        return Polytope(self.C.copy(), self.c - self.C @ z)

    def to_dict(self):
        return {"C": self.C.tolist(), "c": self.c.tolist()}


@dataclass
class AgentModel:
    """One agent's LTI dynamics, quadratic costs, and local constraint sets."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    input_poly: Polytope
    state_poly: Polytope
    terminal_poly: Polytope
    terminal_equality: bool
    disturbance_bound: np.ndarray
    x0: np.ndarray
    target: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.A = _matrix(self.A, "A")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise DimensionError(f"agent {self.name}: A must be square")
        self.B = _matrix(self.B, "B", rows=n)
        m = self.B.shape[1]
        self.Q = _matrix(self.Q, "Q", rows=n, cols=n)
        self.R = _matrix(self.R, "R", rows=m, cols=m)
        self.P = _matrix(self.P, "P", rows=n, cols=n)
        self.check_polytopes()
        self.disturbance_bound = _vector(
            self.disturbance_bound, f"agent {self.name}: disturbance bound", size=n
        )
        if np.any(self.disturbance_bound < 0):
            raise ValueError(f"agent {self.name}: disturbance bound must be >= 0")
        self.x0 = _vector(self.x0, f"agent {self.name}: x0", size=n)
        if self.target is not None:
            self.target = _vector(self.target, f"agent {self.name}: target", size=n)

    def check_polytopes(self):
        for poly, dim, what in (
            (self.input_poly, self.m, "input polytope"),
            (self.state_poly, self.n, "state polytope"),
            (self.terminal_poly, self.n, "terminal polytope"),
        ):
            if poly.dim != dim:
                raise DimensionError(
                    f"agent {self.name}: {what} has dimension {poly.dim}, expected {dim}"
                )

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @classmethod
    def from_dict(cls, d, name=""):
        name = _object(d, f"agent {name}").get("name", name)
        for key in ("A", "B", "Q", "R"):
            if key not in d:
                raise ParseError(f"agent {name}: missing '{key}'")
        A = _matrix(d["A"], f"agent {name}: A")
        n = A.shape[0]
        B = _matrix(d["B"], f"agent {name}: B", rows=n)
        m = B.shape[1]
        target = d.get("target")
        if target is not None:
            target = _vector(target, f"agent {name}: target", size=n)

        def poly_of(key, dim):
            val = d.get(key)
            if val is None:
                return Polytope.unconstrained(dim)
            if "box" in _object(val, f"agent {name}: {key}"):
                lo, hi = val["box"]
                return Polytope.box(lo, hi)
            return Polytope(
                _matrix(val.get("C", []), f"agent {name}: {key}.C", cols=dim),
                _vector(val.get("c", []), f"agent {name}: {key}.c"),
            )

        term = d.get("terminal")
        term = {} if term is None else _object(term, f"agent {name}: terminal")
        terminal_equality = False
        if term.get("mode", "none") == "none":
            terminal_poly = Polytope.unconstrained(n)
        elif term.get("mode") == "equality":
            # Pins the terminal state to the target (the origin once shifted).
            terminal_equality = True
            xbar = target if target is not None else np.zeros(n)
            terminal_poly = Polytope(
                np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([xbar, -xbar])
            )
        elif term.get("mode") == "polytope":
            terminal_poly = Polytope(
                _matrix(term.get("C", []), f"agent {name}: terminal.C", cols=n),
                _vector(term.get("c", []), f"agent {name}: terminal.c"),
            )
        else:
            raise ParseError(f"agent {name}: unknown terminal mode {term.get('mode')!r}")

        Q = _matrix(d["Q"], f"agent {name}: Q", rows=n, cols=n)
        R = _matrix(d["R"], f"agent {name}: R", rows=m, cols=m)
        if d.get("P") is not None:
            P = _matrix(d["P"], f"agent {name}: P", rows=n, cols=n)
        elif terminal_equality:
            # Terminal state pinned to the origin, so no terminal cost is needed.
            P = np.zeros((n, n))
        else:
            P, _ = solve_dare(A, B, Q, R)

        return cls(
            A=A, B=B, Q=Q, R=R, P=P, input_poly=poly_of("input_poly", m),
            state_poly=poly_of("state_poly", n), terminal_poly=terminal_poly,
            terminal_equality=terminal_equality,
            disturbance_bound=d.get("disturbance_bound", np.zeros(n)),
            x0=d.get("x0", np.zeros(n)), target=target, name=name,
        )

    def to_dict(self):
        term_mode = "equality" if self.terminal_equality else (
            "polytope" if self.terminal_poly.rows else "none"
        )
        term = {"mode": term_mode}
        if term_mode == "polytope":
            term.update(self.terminal_poly.to_dict())
        return {
            "name": self.name,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "P": self.P.tolist(),
            "input_poly": self.input_poly.to_dict(),
            "state_poly": self.state_poly.to_dict(),
            "terminal": term,
            "disturbance_bound": self.disturbance_bound.tolist(),
            "x0": self.x0.tolist(),
            "target": None if self.target is None else self.target.tolist(),
        }


@dataclass
class CouplingRow:
    """One scalar shared-resource row: sum_i Eu_i u_i + Ex_i x_i <= b."""

    Eu: dict
    Ex: dict
    b: float

    def agents(self):
        return sorted(set(self.Eu) | set(self.Ex))


@dataclass
class CouplingSpec:
    """All coupling rows, stored in scalar (one row per constraint) form."""

    rows: list

    @property
    def p(self):
        return len(self.rows)

    def stage_matrices(self, agents):
        """The stage rows stacked in agent order, (Eu, Ex, b): Eu (p, sum m_i)
        and Ex (p, sum n_i), so that row k reads Eu u + Ex x <= b_k.  Raises
        on a row that names no agent, has a block off the agents' index range
        or of the wrong length, or has an entry that is not finite."""
        u_off = np.cumsum([0] + [a.m for a in agents])
        x_off = np.cumsum([0] + [a.n for a in agents])
        Eu, Ex = np.zeros((self.p, u_off[-1])), np.zeros((self.p, x_off[-1]))
        for k, row in enumerate(self.rows):
            if not row.agents():
                raise ParseError(f"coupling row {k}: references no agents")
            for key, blocks, out, off in (("Eu", row.Eu, Eu, u_off),
                                          ("Ex", row.Ex, Ex, x_off)):
                for i, v in blocks.items():
                    if not (isinstance(i, (int, np.integer)) and 0 <= i < len(agents)):
                        raise ParseError(
                            f"coupling row {k}: agent index {i!r} out of range")
                    if np.size(v) != off[i + 1] - off[i]:
                        raise DimensionError(
                            f"coupling row {k}: {key} block for agent {i} has "
                            f"length {np.size(v)}, expected {off[i + 1] - off[i]}")
                    out[k, off[i]:off[i + 1]] = v
        b = np.array([row.b for row in self.rows], dtype=float)
        bad = ~np.isfinite(np.column_stack([Eu, Ex, b])).all(1)
        if bad.any():
            raise ValueError(f"coupling row {bad.argmax()}: entry is not finite")
        return Eu, Ex, b

    @classmethod
    def from_list(cls, items):
        if not isinstance(items, list):
            raise ParseError("'coupling' must be a list")
        rows = []
        for k, item in enumerate(items):
            _object(item, f"coupling row {k}")
            if "abs_state_diff" in item or item.get("type") == "abs_state_diff":
                spec = _object(item.get("abs_state_diff", item),
                               f"coupling row {k}: abs_state_diff")
                try:
                    (i, j), sel, bound = spec["agents"], spec["select"], spec["bound"]
                except KeyError as exc:
                    raise ParseError(f"coupling row {k}: abs_state_diff is "
                                     f"missing {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"coupling row {k}: abs_state_diff needs "
                                     f"a pair of agents") from exc
                sel = _matrix(sel, f"coupling row {k}: select")
                bound = _vector(bound, f"coupling row {k}: bound", sel.shape[0])
                for r in range(sel.shape[0]):
                    s = sel[r]
                    rows.append(CouplingRow({}, {i: s.copy(), j: -s}, float(bound[r])))
                    rows.append(CouplingRow({}, {i: -s, j: s.copy()}, float(bound[r])))
                continue
            b = _vector(item.get("b", []), f"coupling row {k}: b")
            nrows = b.size
            if nrows == 0:
                raise ParseError(f"coupling row {k}: empty right-hand side")
            eu, ex = ({int(i): _matrix(v, f"coupling row {k}: {key}[{i}]", rows=nrows)
                       for i, v in _object(item.get(key) or {},
                                           f"coupling row {k}: {key}").items()}
                      for key in ("Eu", "Ex"))
            for r in range(nrows):
                rows.append(
                    CouplingRow(
                        {i: v[r].copy() for i, v in eu.items()},
                        {i: v[r].copy() for i, v in ex.items()},
                        float(b[r]),
                    )
                )
        return cls(rows)

    def to_dict(self):
        out = []
        for row in self.rows:
            out.append(
                {
                    "agents": row.agents(),
                    "Eu": {str(i): [v.tolist()] for i, v in sorted(row.Eu.items())},
                    "Ex": {str(i): [v.tolist()] for i, v in sorted(row.Ex.items())},
                    "b": [row.b],
                }
            )
        return out


@dataclass
class Scenario:
    """A full problem instance: agents, coupling, horizon, and run defaults."""

    agents: list
    coupling: CouplingSpec
    horizon: int
    epsilon: float
    iterations: int = 1
    sim_steps: int = 50
    seed: int = 0
    name: str = "scenario"
    shift: tuple | None = None  # (xbar, ubar) stacked, set by shift_to_target
    # the coupling's (Eu, Ex, b), stacked and checked at construction
    stage: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario has no agents")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.sim_steps < 1:
            raise ValueError(f"sim_steps must be >= 1, got {self.sim_steps}")
        self.stage = self.coupling.stage_matrices(self.agents)

    @property
    def n_total(self):
        return sum(a.n for a in self.agents)

    @property
    def m_total(self):
        return sum(a.m for a in self.agents)

    def x0_stacked(self):
        return np.concatenate([a.x0 for a in self.agents])

    def targets_stacked(self):
        return np.concatenate(
            [a.target if a.target is not None else np.zeros(a.n) for a in self.agents]
        )

    def digest(self):
        doc = self.to_dict()  # + terminal equality rows: the set-up reads them
        for a, agent in zip(self.agents, doc["agents"]):
            if a.terminal_equality:
                agent["terminal"].update(a.terminal_poly.to_dict())
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ParseError("expected a JSON object")
        if "agents" not in d:
            raise ParseError("missing 'agents'")
        if not isinstance(d["agents"], list):
            raise ParseError("'agents' must be a list")
        agents = [AgentModel.from_dict(a, name=f"agent{i}")
                  for i, a in enumerate(d["agents"])]
        if not agents:
            raise ValueError("scenario has no agents")
        coupling = CouplingSpec.from_list(d.get("coupling", []))
        try:
            horizon = _scalar(d["horizon"], "horizon")
            epsilon = _scalar(d["epsilon"], "epsilon", float)
        except KeyError as exc:
            raise ParseError(f"missing {exc}") from exc
        return cls(
            agents=agents,
            coupling=coupling,
            horizon=horizon,
            epsilon=epsilon,
            iterations=_scalar(d.get("iterations", 1), "iterations"),
            sim_steps=_scalar(d.get("sim_steps", 50), "sim_steps"),
            seed=_scalar(d.get("seed", 0), "seed"),
            name=str(d.get("name", "scenario")),
        )

    def to_dict(self):
        return {
            "name": self.name,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "iterations": self.iterations,
            "sim_steps": self.sim_steps,
            "seed": self.seed,
            "agents": [a.to_dict() for a in self.agents],
            "coupling": self.coupling.to_dict(),
        }


def load_scenario(path):
    """Load and dimension-check a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return Scenario.from_dict(raw)


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def solve_dare(A, B, Q, R):
    """Solve the discrete-time algebraic Riccati equation.  Returns (P, K)
    with K the optimal feedback gain.

    The pair (A, B) is first checked for stabilizability by the PBH (Hautus)
    test: every eigenvalue lam of A with |lam| >= 1 needs rank [A - lam I, B]
    = n.  A failed test, a failed Schur solve or a residual above tolerance
    raises NoConvergence.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    rank_tol = PBH_TOL * max(1.0, np.linalg.norm(A), np.linalg.norm(B))
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - PBH_TOL and np.linalg.matrix_rank(
                np.hstack([A - lam * np.eye(n), B]), tol=rank_tol) < n:
            raise NoConvergence(
                f"pair (A, B) is not stabilizable: mode {lam:.6g} is uncontrollable")
    try:
        P = solve_discrete_are(A, B, Q, R)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Riccati solve failed ({exc})") from exc
    P = 0.5 * (P + P.T)
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    resid = np.linalg.norm(A.T @ P @ A - (A.T @ P @ B) @ K + Q - P, "fro")
    if resid > DARE_RESIDUAL_TOL * max(1.0, np.linalg.norm(P, "fro")):
        raise NoConvergence(f"DARE residual {resid:.3e} above tolerance")
    return P, K


@dataclass
class AssumptionCheck:
    agent: int
    item: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def by_item(self, agent, item):
        for c in self.checks:
            if c.agent == agent and c.item == item:
                return c
        raise KeyError((agent, item))


def _min_eig(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


def validate_assumptions(scenario):
    """Check the standing assumptions agent by agent.

    Items per agent: 'stabilizable', 'origin_interior', 'weights_pd',
    'terminal_decrease'.  Failures are reported, never raised.
    """
    report = ValidationReport()
    for idx, a in enumerate(scenario.agents):
        try:
            P_ric, K = solve_dare(a.A, a.B, a.Q, a.R)
            report.checks.append(AssumptionCheck(idx, "stabilizable", True))
        except (NoConvergence, np.linalg.LinAlgError) as exc:
            P_ric, K = None, None
            report.checks.append(AssumptionCheck(idx, "stabilizable", False, str(exc)))

        interior = (
            (a.input_poly.rows == 0 or np.all(a.input_poly.c > 0))
            and (a.state_poly.rows == 0 or np.all(a.state_poly.c > 0))
        )
        report.checks.append(AssumptionCheck(
            idx, "origin_interior", bool(interior),
            "" if interior else "origin not strictly inside the local sets"))

        q_min, r_min = _min_eig(a.Q), _min_eig(a.R)
        pd = q_min > 1e-12 and r_min > 1e-12
        report.checks.append(AssumptionCheck(
            idx, "weights_pd", bool(pd), f"min eig Q={q_min:.3e}, R={r_min:.3e}"))

        if a.terminal_equality:
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", True,
                "terminal equality constraint; P = 0 is valid"))
        elif K is not None:
            P = a.P if _min_eig(a.P) > 0 else P_ric
            Acl = a.A - a.B @ K
            resid = Acl.T @ P @ Acl - P + a.Q + K.T @ a.R @ K
            top = float(np.linalg.eigvalsh(0.5 * (resid + resid.T)).max())
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", top <= TERMINAL_TOL,
                f"max eig of decrease residual = {top:.3e}"))
            if a.terminal_poly.rows:
                report.warnings.append(
                    f"agent {idx}: invariance of the supplied terminal polytope "
                    "is taken on faith"
                )
        else:
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", False, "no Riccati solution available"))
    return report


def shift_to_target(scenario):
    """Return an equivalent scenario in coordinates where the targets sit at
    the origin.  Constraint offsets and coupling bounds are adjusted; the
    applied shift is recorded on the result for un-shifting outputs.  The
    agents' matrices were validated when they were built, so the shifted
    agents share them.
    """
    xbars, ubars, agents = [], [], []
    for a in scenario.agents:
        xbar = a.target if a.target is not None else np.zeros(a.n)
        rhs = xbar - a.A @ xbar
        ubar = np.zeros(a.m)
        if np.abs(rhs).max(initial=0.0) > EQUILIBRIUM_TOL:
            ubar, *_ = np.linalg.lstsq(a.B, rhs, rcond=None)
            resid = float(np.max(np.abs(a.B @ ubar - rhs)))
            if resid > EQUILIBRIUM_TOL:
                raise NotEquilibrium(
                    f"agent {a.name}: target is not an equilibrium "
                    f"(residual {resid:.3e})"
                )
        shifted = copy(a)
        shifted.input_poly = a.input_poly.shifted(ubar)
        shifted.state_poly = a.state_poly.shifted(xbar)
        shifted.terminal_poly = a.terminal_poly.shifted(xbar)
        shifted.x0, shifted.target = a.x0 - xbar, None
        shifted.check_polytopes()
        xbars.append(xbar)
        ubars.append(ubar)
        agents.append(shifted)

    xbar, ubar = np.concatenate(xbars), np.concatenate(ubars)
    Eu, Ex, _ = scenario.stage
    rows = [CouplingRow(dict(row.Eu), dict(row.Ex), row.b - float(offset))
            for row, offset in zip(scenario.coupling.rows, Ex @ xbar + Eu @ ubar)]
    return replace(scenario, agents=agents, coupling=CouplingSpec(rows),
                   shift=(xbar, ubar))
