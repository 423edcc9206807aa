"""Problem data: agent models, coupling constraints, scenario files, and
standing-assumption checks (stabilizability, origin interiority, weight
definiteness, terminal decrease) backed by a PBH test and a Riccati solver.

The model types are immutable values with read-only arrays; a change is a
`dataclasses.replace`, which validates again.  A caller's array is always
copied and checked; only an array this module froze is taken as is.  Values
compare and hash by identity; equal content has equal `Scenario.digest()`.
"""

import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np
from scipy.linalg import solve_discrete_are

from .errors import DimensionError, NoConvergence, NotEquilibrium, ParseError

DARE_RESIDUAL_TOL = 1e-10
PBH_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-9
TERMINAL_TOL = 1e-8     # largest eigenvalue allowed in the decrease residual
_made = weakref.WeakValueDictionary()  # id -> each array `_frozen` returned


def _frozen(M):
    """M made read-only, owning its memory, so that no view can write it, and
    registered as one that `_is_frozen` trusts."""
    if M.base is not None:
        M = M.copy()
    M.setflags(write=False)
    _made[id(M)] = M
    return M


def _is_frozen(obj, ndim):
    """Whether obj is an array of `ndim` dimensions that `_frozen` made.  A
    caller's array never is, even read-only: its owner can make it writable."""
    return _made.get(id(obj)) is obj and obj.ndim == ndim


def _set(obj, **fields):
    """Set fields of a frozen instance while it is being constructed."""
    vars(obj).update(fields)


def _matrix(obj, what, rows=None, cols=None):
    if not _is_frozen(obj, 2):
        try:
            M = np.array(obj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{what}: not a numeric matrix") from exc
        if not np.isfinite(M).all():
            raise ParseError(f"{what}: non-finite entry")
        if M.ndim == 1 and M.size == 0:
            M = M.reshape(0, cols if cols is not None else 0)
        if M.ndim != 2:
            raise DimensionError(f"{what}: expected a 2-d matrix, got shape {M.shape}")
        obj = _frozen(M)
    if rows is not None and obj.shape[0] != rows:
        raise DimensionError(f"{what}: expected {rows} rows, got {obj.shape[0]}")
    if cols is not None and obj.shape[1] != cols:
        raise DimensionError(f"{what}: expected {cols} columns, got {obj.shape[1]}")
    return obj


def _vector(obj, what, size=None):
    if not _is_frozen(obj, 1):
        try:
            v = np.asarray(obj, dtype=float).flatten()
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{what}: not a numeric vector") from exc
        if not np.isfinite(v).all():
            raise ParseError(f"{what}: non-finite entry")
        obj = _frozen(v)
    if size is not None and obj.size != size:
        raise DimensionError(f"{what}: expected length {size}, got {obj.size}")
    return obj


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


@dataclass(frozen=True, eq=False)
class Polytope:
    """Halfspace set {z : C z <= c}.  Zero rows describe the whole space."""

    C: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        C, c = _matrix(self.C, "polytope: C"), _vector(self.c, "polytope: c")
        if C.shape[0] != c.size:
            raise DimensionError(f"polytope: {C.shape[0]} rows but {c.size} offsets")
        _set(self, C=C, c=c)

    @staticmethod
    @cache  # one shared instance per dimension: a polytope cannot change
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

    def contains(self, z):
        if self.rows == 0:
            return True
        return bool(np.all(self.C @ np.asarray(z, dtype=float) <= self.c))

    def shifted(self, z):
        """Polytope of w such that w + z lies in this set."""
        return Polytope(self.C, self.c - self.C @ z) if self.rows and z.any() else self

    def to_dict(self):
        return {"C": self.C.tolist(), "c": self.c.tolist()}


@dataclass(frozen=True, eq=False)
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
        A = _matrix(self.A, "A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError(f"agent {self.name}: A must be square")
        B = _matrix(self.B, "B", rows=n)
        m = B.shape[1]
        for poly, dim, what in ((self.input_poly, m, "input polytope"),
                                (self.state_poly, n, "state polytope"),
                                (self.terminal_poly, n, "terminal polytope")):
            if poly.dim != dim:
                raise DimensionError(f"agent {self.name}: {what} has dimension "
                                     f"{poly.dim}, expected {dim}")
        bound = _vector(self.disturbance_bound,
                        f"agent {self.name}: disturbance bound", size=n)
        if (bound < 0).any():
            raise ValueError(f"agent {self.name}: disturbance bound must be >= 0")
        _set(self, A=A, B=B, Q=_matrix(self.Q, "Q", rows=n, cols=n),
             R=_matrix(self.R, "R", rows=m, cols=m),
             P=_matrix(self.P, "P", rows=n, cols=n), disturbance_bound=bound,
             x0=_vector(self.x0, f"agent {self.name}: x0", size=n),
             target=None if self.target is None else
             _vector(self.target, f"agent {self.name}: target", size=n))

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
        target = None if target is None else _vector(target, f"agent {name}: target", n)

        def poly_of(key, dim):
            val = d.get(key)
            if val is None:
                return Polytope.unconstrained(dim)
            what = f"agent {name}: {key}"
            if "box" in _object(val, what):
                if not isinstance(val["box"], list) or len(val["box"]) != 2:
                    raise ParseError(f"{what}.box: expected [lo, hi]")
                return Polytope.box(*(_vector(v, f"{what}.box", size=dim)
                                      for v in val["box"]))
            return Polytope(_matrix(val.get("C", []), f"{what}.C", cols=dim),
                            _vector(val.get("c", []), f"{what}.c"))

        term = d.get("terminal")
        term = {} if term is None else _object(term, f"agent {name}: terminal")
        mode = term.get("mode", "none")
        terminal_equality = mode == "equality"
        if mode == "none":
            terminal_poly = Polytope.unconstrained(n)
        elif terminal_equality:
            # Pins the terminal state to the target (the origin once shifted).
            xbar = target if target is not None else np.zeros(n)
            terminal_poly = Polytope.box(xbar, xbar)
        elif mode == "polytope":
            terminal_poly = Polytope(
                _matrix(term.get("C", []), f"agent {name}: terminal.C", cols=n),
                _vector(term.get("c", []), f"agent {name}: terminal.c"))
        else:
            raise ParseError(f"agent {name}: unknown terminal mode {mode!r}")

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
        term = {"mode": "equality" if self.terminal_equality else
                "polytope" if self.terminal_poly.rows else "none"}
        if term["mode"] == "polytope":
            term.update(self.terminal_poly.to_dict())
        return {
            "name": self.name,
            **{key: getattr(self, key).tolist() for key in "ABQRP"},
            "input_poly": self.input_poly.to_dict(),
            "state_poly": self.state_poly.to_dict(),
            "terminal": term,
            "disturbance_bound": self.disturbance_bound.tolist(),
            "x0": self.x0.tolist(),
            "target": None if self.target is None else self.target.tolist(),
        }


@dataclass(frozen=True, eq=False)
class CouplingRow:
    """One scalar shared-resource row: sum_i Eu_i u_i + Ex_i x_i <= b.  The
    blocks are read-only; the scenario checks them against its agents."""

    Eu: MappingProxyType
    Ex: MappingProxyType
    b: float

    def __post_init__(self):
        def frozen(blocks):  # the scenario checks the entries
            return MappingProxyType({
                i: v if _is_frozen(v, 1) else _frozen(np.asarray(v, float).flatten())
                for i, v in blocks.items()})
        _set(self, Eu=frozen(self.Eu), Ex=frozen(self.Ex), b=float(self.b))

    def agents(self):
        return sorted(set(self.Eu) | set(self.Ex))


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """All coupling rows, stored in scalar (one row per constraint) form."""

    rows: tuple

    def __post_init__(self):
        _set(self, rows=tuple(self.rows))

    @property
    def p(self):
        return len(self.rows)

    def stage_matrices(self, agents):
        """The stage rows stacked in agent order, (Eu, Ex, b): Eu (p, sum m_i)
        and Ex (p, sum n_i), so that row k reads Eu u + Ex x <= b_k.  Raises
        on a row that names no agent, has a block off the agents' index range
        or of the wrong length, or has an entry that is not finite."""
        u_off = np.cumsum([0] + [a.m for a in agents]).tolist()
        x_off = np.cumsum([0] + [a.n for a in agents]).tolist()
        Eu, Ex = np.zeros((self.p, u_off[-1])), np.zeros((self.p, x_off[-1]))
        for k, row in enumerate(self.rows):
            if not (row.Eu or row.Ex):
                raise ParseError(f"coupling row {k}: references no agents")
            for key, blocks, out, off in (("Eu", row.Eu, Eu, u_off),
                                          ("Ex", row.Ex, Ex, x_off)):
                for i, v in blocks.items():
                    if not (isinstance(i, (int, np.integer)) and 0 <= i < len(agents)):
                        raise ParseError(
                            f"coupling row {k}: agent index {i!r} out of range")
                    lo, hi = off[i], off[i + 1]
                    if v.size != hi - lo:
                        raise DimensionError(
                            f"coupling row {k}: {key} block for agent {i} has "
                            f"length {v.size}, expected {hi - lo}")
                    out[k, lo:hi] = v
        b = np.array([row.b for row in self.rows], dtype=float)
        bad = ~np.isfinite(np.column_stack([Eu, Ex, b])).all(1)
        if bad.any():
            raise ValueError(f"coupling row {bad.argmax()}: entry is not finite")
        return _frozen(Eu), _frozen(Ex), _frozen(b)

    @classmethod
    def from_list(cls, items):
        if not isinstance(items, list):
            raise ParseError("'coupling' must be a list")
        rows = []
        for k, item in enumerate(items):
            _object(item, f"coupling row {k}")
            if "abs_state_diff" in item:
                spec = _object(item["abs_state_diff"],
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
                    rows.append(CouplingRow({}, {i: s, j: -s}, bound[r]))
                    rows.append(CouplingRow({}, {i: -s, j: s}, bound[r]))
                continue
            b = _vector(item.get("b", []), f"coupling row {k}: b")
            if b.size == 0:
                raise ParseError(f"coupling row {k}: empty right-hand side")
            eu, ex = ({int(i): _matrix(v, f"coupling row {k}: {key}[{i}]", rows=b.size)
                       for i, v in _object(item.get(key) or {},
                                           f"coupling row {k}: {key}").items()}
                      for key in ("Eu", "Ex"))
            rows += [CouplingRow({i: v[r] for i, v in eu.items()},
                                 {i: v[r] for i, v in ex.items()}, b[r])
                     for r in range(b.size)]
        return cls(rows)

    def to_dict(self):
        return [{"agents": row.agents(),
                 **{key: {str(i): [v.tolist()] for i, v in sorted(blocks.items())}
                    for key, blocks in (("Eu", row.Eu), ("Ex", row.Ex))},
                 "b": [row.b]} for row in self.rows]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full problem instance: agents, coupling, horizon, and run defaults."""

    agents: tuple
    coupling: CouplingSpec
    horizon: int
    epsilon: float
    iterations: int = 1
    sim_steps: int = 50
    seed: int = 0
    name: str = "scenario"
    shift: tuple | None = None  # (xbar, ubar) stacked, set by shift_to_target
    # the coupling's (Eu, Ex, b), stacked and checked at construction
    stage: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario has no agents")
        for key in ("horizon", "iterations", "sim_steps"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        _set(self, agents=tuple(self.agents),
             stage=self.coupling.stage_matrices(self.agents),
             shift=None if self.shift is None else
             tuple(_vector(v, "shift") for v in self.shift))

    @property
    def n_total(self):
        return sum(a.n for a in self.agents)

    @property
    def m_total(self):
        return sum(a.m for a in self.agents)

    def x0_stacked(self):
        return np.concatenate([a.x0 for a in self.agents])

    def targets_stacked(self):
        return np.concatenate([a.target if a.target is not None else np.zeros(a.n)
                               for a in self.agents])

    def digest(self):
        """SHA-256 of the content, hashed on the first call only."""
        return self._digest

    @cached_property
    def _digest(self):
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
        try:
            agents, horizon, epsilon = d["agents"], d["horizon"], d["epsilon"]
        except KeyError as exc:
            raise ParseError(f"missing {exc}") from exc
        if not isinstance(agents, list):
            raise ParseError("'agents' must be a list")
        return cls(
            agents=[AgentModel.from_dict(a, f"agent{i}") for i, a in enumerate(agents)],
            coupling=CouplingSpec.from_list(d.get("coupling", [])),
            horizon=_scalar(horizon, "horizon"),
            epsilon=_scalar(epsilon, "epsilon", float),
            iterations=_scalar(d.get("iterations", 1), "iterations"),
            sim_steps=_scalar(d.get("sim_steps", 50), "sim_steps"),
            seed=_scalar(d.get("seed", 0), "seed"), name=str(d.get("name", "scenario")))

    def to_dict(self):
        return {**{key: getattr(self, key) for key in (
                    "name", "horizon", "epsilon", "iterations", "sim_steps", "seed")},
                "agents": [a.to_dict() for a in self.agents],
                "coupling": self.coupling.to_dict()}


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
        xbars.append(xbar)
        ubars.append(ubar)
        agents.append(replace(
            a, input_poly=a.input_poly.shifted(ubar),
            state_poly=a.state_poly.shifted(xbar),
            terminal_poly=a.terminal_poly.shifted(xbar), x0=a.x0 - xbar,
            target=None))

    xbar, ubar = np.concatenate(xbars), np.concatenate(ubars)
    Eu, Ex, _ = scenario.stage
    rows = [CouplingRow(row.Eu, row.Ex, row.b - float(offset))
            for row, offset in zip(scenario.coupling.rows, Ex @ xbar + Eu @ ubar)]
    return replace(scenario, agents=agents, coupling=CouplingSpec(rows),
                   shift=(xbar, ubar))
