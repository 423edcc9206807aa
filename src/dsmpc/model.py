"""Problem data: agent models, coupling constraints, scenario files, and
standing-assumption checks (stabilizability, target interiority, weight
definiteness, terminal decrease) backed by a PBH test and a Riccati solver.

The model types are immutable values; a change is a `dataclasses.replace`,
which validates again.  A value's constructor alone converts and checks its
fields, each array into a read-only copy of its own; the file parsers only
map the JSON onto constructor arguments and name where a value came from.
What a value works out from its fields (`Scenario.stage`, an agent's
`terminal_cost` and `terminal_set`) is derived again by every `replace`.
Values compare and hash by identity; equal content has equal `digest()`.
"""

import hashlib
import json
import math
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


def _frozen(M):
    """The fresh array M made read-only, owning its memory, so that no view
    can write it."""
    if M.base is not None:
        M = M.copy()
    M.setflags(write=False)
    return M


def _set(obj, **fields):
    """Set fields of a frozen instance while it is being constructed."""
    vars(obj).update(fields)


def _matrix(obj, what, rows=None, cols=None):
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
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{what}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{what}: expected {cols} columns, got {M.shape[1]}")
    return _frozen(M)


def _vector(obj, what, size=None):
    try:
        v = np.asarray(obj, dtype=float).flatten()
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: not a numeric vector") from exc
    if not np.isfinite(v).all():
        raise ParseError(f"{what}: non-finite entry")
    if size is not None and v.size != size:
        raise DimensionError(f"{what}: expected length {size}, got {v.size}")
    return _frozen(v)


def _scalar(obj, what, kind=int):
    try:
        if isinstance(obj, (bool, str)):  # not numbers, although kind() takes them
            raise TypeError(type(obj).__name__)
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


def _polytope(spec, what):
    """The polytope of a file's {"box": [lo, hi]} or {"C": .., "c": ..}."""
    if spec is None:
        return None
    if "box" in _object(spec, what):
        if not isinstance(spec["box"], list) or len(spec["box"]) != 2:
            raise ParseError(f"{what}.box: expected [lo, hi]")
        return Polytope.box(*(_vector(v, f"{what}.box") for v in spec["box"]))
    try:
        return Polytope(spec.get("C", []), spec.get("c", []))
    except ValueError as exc:  # ParseError or DimensionError: name the field
        raise type(exc)(f"{what}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class AgentModel:
    """One agent's LTI dynamics, quadratic costs, and local constraint sets.
    None is a file's null: an input or state set the whole space (as zero
    rows are), x0 and the disturbance bound 0.  P and terminal_poly stay as
    given; the controller uses `terminal_cost` (P, else the Riccati solution,
    0 under a terminal equality) and `terminal_set` (terminal_poly, else a
    terminal equality's box at the target, else the whole space)."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray | None
    input_poly: Polytope | None
    state_poly: Polytope | None
    terminal_poly: Polytope | None
    terminal_equality: bool
    disturbance_bound: np.ndarray | None
    x0: np.ndarray | None
    target: np.ndarray | None = None
    name: str = ""
    terminal_cost: np.ndarray = field(init=False, repr=False)
    terminal_set: Polytope = field(init=False, repr=False)

    def __post_init__(self):
        what = f"agent {self.name}"
        A = _matrix(self.A, f"{what}: A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError(f"{what}: A must be square")
        B = _matrix(self.B, f"{what}: B", rows=n)
        m = B.shape[1]
        Q = _matrix(self.Q, f"{what}: Q", rows=n, cols=n)
        R = _matrix(self.R, f"{what}: R", rows=m, cols=m)
        P = None if self.P is None else _matrix(self.P, f"{what}: P", rows=n, cols=n)
        bound = _vector(np.zeros(n) if self.disturbance_bound is None else
                        self.disturbance_bound, f"{what}: disturbance_bound", n)
        x0 = _vector(np.zeros(n) if self.x0 is None else self.x0, f"{what}: x0", n)
        if (bound < 0).any():
            raise ValueError(f"{what}: disturbance bound must be >= 0")
        target = None if self.target is None else \
            _vector(self.target, f"{what}: target", n)
        _set(self, A=A, B=B, Q=Q, R=R, P=P, disturbance_bound=bound, x0=x0,
             target=target, terminal_cost=_frozen(  # pinned: no terminal cost
                 P if P is not None else np.zeros((n, n)) if self.terminal_equality
                 else solve_dare(A, B, Q, R)[0]))
        for key, dim in (("input_poly", m), ("state_poly", n), ("terminal_poly", n)):
            poly = getattr(self, key)
            if poly is None and key == "terminal_poly" and self.terminal_equality:
                poly = Polytope.box(*2 * [np.zeros(n) if target is None else target])
            elif poly is None or (poly.dim != dim and not poly.rows):
                poly = Polytope.unconstrained(dim)
            elif poly.dim != dim:
                raise DimensionError(f"{what}: {key} has dimension {poly.dim} != {dim}")
            _set(self, **{"terminal_set" if key == "terminal_poly" else key: poly})

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @classmethod
    def from_dict(cls, d, name=""):
        name = _object(d, f"agent {name}").get("name", name)
        what = f"agent {name}"
        for key in ("A", "B", "Q", "R"):
            if key not in d:
                raise ParseError(f"{what}: missing '{key}'")
        term = d.get("terminal")
        term = {} if term is None else _object(term, f"{what}: terminal")
        mode = term.get("mode", "none")
        if mode not in ("none", "equality", "polytope"):
            raise ParseError(f"{what}: unknown terminal mode {mode!r}")
        return cls(
            A=d["A"], B=d["B"], Q=d["Q"], R=d["R"], P=d.get("P"),
            **{key: _polytope(d.get(key), f"{what}: {key}")
               for key in ("input_poly", "state_poly")},
            terminal_poly=None if mode != "polytope" else
            _polytope({k: term.get(k, []) for k in "Cc"}, f"{what}: terminal"),
            terminal_equality=mode == "equality",
            disturbance_bound=d.get("disturbance_bound"), x0=d.get("x0"),
            target=d.get("target"), name=name)

    def to_dict(self):
        term = {"mode": "equality" if self.terminal_equality else
                "polytope" if self.terminal_set.rows else "none"}
        if term["mode"] == "polytope":
            term.update(self.terminal_set.to_dict())
        return {
            "name": self.name,
            **{key: getattr(self, key).tolist() for key in "ABQR"},
            "P": self.terminal_cost.tolist(),
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
            return MappingProxyType({i: _frozen(np.asarray(v, float).flatten())
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
            what = f"coupling row {k}"
            if "abs_state_diff" in _object(item, what):  # |S x_i - S x_j| <= bound:
                # the raw item whose Ex_i interleaves the rows S_r and -S_r, Ex_j
                # is their negation, and b repeats each bound twice
                where = f"{what}: abs_state_diff"
                spec = _object(item["abs_state_diff"], where)
                try:
                    (i, j), S, b = spec["agents"], spec["select"], spec["bound"]
                except KeyError as exc:
                    raise ParseError(f"{where} is missing {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"{where} needs a pair of agents") from exc
                S = _matrix(S, f"{what}: select")
                X = np.stack([S, -S], axis=1).reshape(-1, S.shape[1])
                blocks = [("Ex", i, X), ("Ex", j, -X)]
                b = _vector(b, f"{what}: bound", S.shape[0]).repeat(2)
            else:
                blocks = [(key, i, v) for key in ("Eu", "Ex") for i, v in
                          _object(item.get(key) or {}, f"{what}: {key}").items()]
                b = _vector(item.get("b", []), f"{what}: b")
            if b.size == 0:
                raise ParseError(f"{what}: empty right-hand side")
            eu, ex = {}, {}
            for key, i, v in blocks:
                out = eu if key == "Eu" else ex
                i = _scalar(int(i) if isinstance(i, str) and i.isdecimal() else i,
                            f"{what}: agent key")
                if i in out:  # keys such as "0" and "00"
                    raise ParseError(f"{what}: {key} names agent {i} twice")
                if not isinstance(v, (list, np.ndarray)) or len(v) != b.size:
                    raise DimensionError(f"{what}: {key}[{i}]: expected {b.size} rows")
                out[i] = v
            try:
                rows += [CouplingRow({i: v[r] for i, v in eu.items()},
                                     {i: v[r] for i, v in ex.items()}, b[r])
                         for r in range(b.size)]
            except (TypeError, ValueError) as exc:  # an entry is not a number
                raise ParseError(f"{what}: {exc}") from exc
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
        _set(self, epsilon=_scalar(self.epsilon, "epsilon", float),
             **{key: _scalar(getattr(self, key), key)
                for key in ("horizon", "iterations", "sim_steps", "seed")})
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
                agent["terminal"].update(a.terminal_set.to_dict())
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_dict(cls, d):
        _object(d, "scenario")
        try:
            agents, horizon, epsilon = d["agents"], d["horizon"], d["epsilon"]
        except KeyError as exc:
            raise ParseError(f"missing {exc}") from exc
        if not isinstance(agents, list):
            raise ParseError("'agents' must be a list")
        return cls(
            agents=[AgentModel.from_dict(a, f"agent{i}") for i, a in enumerate(agents)],
            coupling=CouplingSpec.from_list(d.get("coupling", [])),
            horizon=horizon, epsilon=epsilon, name=str(d.get("name", "scenario")),
            **{key: d[key] for key in ("iterations", "sim_steps", "seed") if key in d})

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

    Items per agent: 'stabilizable', 'origin_interior' (the target's (x̄, ū),
    the shifted origin, strictly inside the state and input sets),
    'weights_pd', 'terminal_decrease'.  Failures are reported, never raised.
    """
    report = ValidationReport()
    for idx, a in enumerate(scenario.agents):
        try:
            _, K = solve_dare(a.A, a.B, a.Q, a.R)
            report.checks.append(AssumptionCheck(idx, "stabilizable", True))
        except (NoConvergence, np.linalg.LinAlgError) as exc:
            K = None
            report.checks.append(AssumptionCheck(idx, "stabilizable", False, str(exc)))

        try:  # at the target: the origin of the shifted coordinates
            xbar, ubar = _equilibrium(a)
            interior = bool(np.all(a.input_poly.C @ ubar < a.input_poly.c)
                            and np.all(a.state_poly.C @ xbar < a.state_poly.c))
            detail = "" if interior else "target not strictly inside the local sets"
        except NotEquilibrium as exc:
            interior, detail = False, str(exc)
        report.checks.append(AssumptionCheck(idx, "origin_interior", interior, detail))

        q_min, r_min = _min_eig(a.Q), _min_eig(a.R)
        pd = q_min > 1e-12 and r_min > 1e-12
        report.checks.append(AssumptionCheck(
            idx, "weights_pd", bool(pd), f"min eig Q={q_min:.3e}, R={r_min:.3e}"))

        if a.terminal_equality:
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", True,
                "terminal equality constraint; P = 0 is valid"))
        elif K is not None:
            Acl, P = a.A - a.B @ K, a.terminal_cost
            resid = Acl.T @ P @ Acl - P + a.Q + K.T @ a.R @ K
            top = float(np.linalg.eigvalsh(0.5 * (resid + resid.T)).max())
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", top <= TERMINAL_TOL,
                f"max eig of decrease residual = {top:.3e}"))
            if a.terminal_set.rows:
                report.warnings.append(
                    f"agent {idx}: invariance of the supplied terminal polytope "
                    "is taken on faith"
                )
        else:
            report.checks.append(AssumptionCheck(
                idx, "terminal_decrease", False, "no Riccati solution available"))
    return report


def _equilibrium(a):
    """(x̄, ū): agent a's target (0 without one) and an input that holds it
    there.  Raises NotEquilibrium if no input does."""
    xbar = a.target if a.target is not None else np.zeros(a.n)
    rhs = xbar - a.A @ xbar
    ubar = np.zeros(a.m)
    if np.abs(rhs).max(initial=0.0) > EQUILIBRIUM_TOL:
        ubar, *_ = np.linalg.lstsq(a.B, rhs, rcond=None)
        resid = float(np.max(np.abs(a.B @ ubar - rhs)))
        if resid > EQUILIBRIUM_TOL:
            raise NotEquilibrium(f"agent {a.name}: target is not an equilibrium "
                                 f"(residual {resid:.3e})")
    return xbar, ubar


def shift_to_target(scenario):
    """Return an equivalent scenario in coordinates where the targets sit at
    the origin.  Constraint offsets and coupling bounds are adjusted; the
    applied shift is recorded on the result for un-shifting outputs.  Like
    every model value, the result holds its own checked copy of each array,
    the matrices it did not change included.
    """
    xbars, ubars = zip(*map(_equilibrium, scenario.agents))
    agents = [replace(a, P=a.terminal_cost, input_poly=a.input_poly.shifted(ubar),
                      state_poly=a.state_poly.shifted(xbar),
                      terminal_poly=a.terminal_set.shifted(xbar),
                      x0=a.x0 - xbar, target=None)
              for a, xbar, ubar in zip(scenario.agents, xbars, ubars)]
    xbar, ubar = np.concatenate(xbars), np.concatenate(ubars)
    Eu, Ex, _ = scenario.stage
    rows = [CouplingRow(row.Eu, row.Ex, row.b - float(offset))
            for row, offset in zip(scenario.coupling.rows, Ex @ xbar + Eu @ ubar)]
    return replace(scenario, agents=agents, coupling=CouplingSpec(rows),
                   shift=(xbar, ubar))
