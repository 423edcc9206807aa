"""The benchmark's workloads, their seeded inputs and their checks.

Each workload has `setup(seed)`, which builds the scenario and the fixed
inputs of one run; `op(ctx, item)`, one timed operation on one input;
`check(ctx, k, out)`, the correctness checks of the output of pool input k,
run after the timed phase; and `same(a, b)`, whether a repeat reproduced an
output.  `run_checks(ctx)` holds the checks that concern the whole run.
The program sees only the generated scenarios, states and disturbances;
the generators below are the benchmark's own.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.optimize import linprog

from dsmpc import analysis, condense, coordinator, model, oracle, plant, scenarios

import checks

ELL = 5                 # rounds per sampling time in the closed loops
STEPS = 10              # sampling times per episode
DIST_BOUND = 0.01       # uniform disturbance bound, every state component
CHAIN_AGENTS = 30
CHAIN_HORIZON = 5
CHAIN_EPSILON = 1e-3
CHAIN_SPACING = 1.0     # distance between neighbouring targets
CHAIN_GAP = 1.1         # spacing rows |p_i - p_{i+1}| <= gap
# One eps and ell = 25 give an operation of about 250 ms whose time splits
# between dual_cost, the ADA rounds and the oracle as close to acceptance 02
# and 07 together as a run of over 100 operations allows (bench/README.md).
VERIFY_EPS = (1e-4,)
VERIFY_ELL = 25
VERIFY_SPREAD = 0.02    # verification states: x0 + U(-spread, spread)
QP_SAMPLES = 3          # inner QPs per run solved again by scipy


def _disturbances(rng, n, k):
    return [plant.make_disturbance("uniform", DIST_BOUND * np.ones(n), seed=int(s))
            for s in rng.integers(0, 2**31 - 1, size=k)]


def _qp_samples(rng, n_items, n_agents):
    return {(int(rng.integers(n_items)), int(rng.integers(STEPS)),
             int(rng.integers(n_agents))) for _ in range(QP_SAMPLES)}


def _condensed(scenario):
    shifted = model.shift_to_target(scenario)
    g = condense.condense_scenario(shifted)
    lip = coordinator.lipschitz_constant(g, shifted.epsilon)
    return shifted, g, lip


def chain_scenario(seed):
    """Double-integrator agents on a line, targets CHAIN_SPACING apart, each
    neighbouring pair sharing the spacing rows |p_i - p_{i+1}| <= CHAIN_GAP.
    Initial positions and velocities are seeded perturbations of the
    targets, so some spacing rows start violated."""
    rng = np.random.default_rng(seed)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    Q, R = np.eye(2), np.eye(1)
    P = solve_discrete_are(A, B, Q, R)
    members = []
    for i in range(CHAIN_AGENTS):
        target = np.array([i * CHAIN_SPACING, 0.0])
        x0 = target + rng.uniform([-0.3, -0.1], [0.3, 0.1])
        members.append(model.AgentModel(
            A=A, B=B, Q=Q, R=R, P=P,
            input_poly=model.Polytope.box([-0.2], [0.2]),
            state_poly=model.Polytope.unconstrained(2),
            terminal_poly=model.Polytope.unconstrained(2),
            terminal_equality=False, disturbance_bound=np.full(2, DIST_BOUND),
            x0=x0, target=target, name=f"c{i}",
        ))
    pos = np.array([1.0, 0.0])
    rows = []
    for i in range(CHAIN_AGENTS - 1):
        rows.append(model.CouplingRow({}, {i: pos, i + 1: -pos}, CHAIN_GAP))
        rows.append(model.CouplingRow({}, {i: -pos, i + 1: pos}, CHAIN_GAP))
    return model.Scenario(agents=members, coupling=model.CouplingSpec(rows),
                          horizon=CHAIN_HORIZON, epsilon=CHAIN_EPSILON,
                          iterations=ELL, sim_steps=STEPS, seed=seed,
                          name=f"chain{CHAIN_AGENTS}")


def run_checks(ctx):
    """Checks on the whole run: the step-size constant of the set-up."""
    return checks.lipschitz(ctx.g, ctx.shifted.epsilon, ctx.lipschitz)


class ClosedLoop:
    """One closed-loop episode per operation, each with its own seeded
    disturbance; `to_csv` adds the trace export to the operation."""

    def __init__(self, make_scenario, pool, to_csv):
        self.make_scenario = make_scenario
        self.pool = pool
        self.to_csv = to_csv

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        scenario = self.make_scenario(seed)
        shifted, g, lip = _condensed(scenario)
        return SimpleNamespace(
            scenario=scenario, shifted=shifted, g=g, lipschitz=lip,
            items=_disturbances(rng, scenario.n_total, self.pool),
            qp_samples=_qp_samples(rng, self.pool, len(scenario.agents)),
        )

    def op(self, ctx, dist):
        trace = plant.simulate_closed_loop(ctx.scenario, ell=ELL, steps=STEPS,
                                           dist=dist)
        return trace, trace.to_csv() if self.to_csv else None

    def check(self, ctx, k, out):
        trace, text = out
        errors = checks.closed_loop(ctx.scenario, trace, STEPS)
        if not errors and text is not None:
            errors += checks.csv_matches(trace, text)
        for item, t, i in sorted(ctx.qp_samples):
            if item == k and not errors:
                errors += checks.applied_input(ctx.g, ctx.shifted.shift, trace, t, i)
        return errors

    @staticmethod
    def same(a, b):
        return (np.array_equal(a[0].states, b[0].states)
                and np.array_equal(a[0].inputs, b[0].inputs) and a[1] == b[1])


def feasible(g, x):
    """The coupled problem at x has a feasible input trajectory (HiGHS LP
    on the stacked local and coupling rows)."""
    st = checks.Stacked(g, x)
    res = linprog(np.zeros(st.H.shape[0]), A_ub=np.vstack([st.C, st.E]),
                  b_ub=np.concatenate([st.r, st.b]), bounds=(None, None),
                  method="highs")
    return res.status == 0


class Formation3Verify:
    """One verification query per operation: the regularization sweep and
    the suboptimality curve at one seeded state near the start of the
    formation3 manoeuvre."""

    pool = 16

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        scenario = scenarios.load("formation3")
        shifted, g, lip = _condensed(scenario)
        x0 = shifted.x0_stacked()
        states = []
        while len(states) < self.pool:
            x = x0 + rng.uniform(-VERIFY_SPREAD, VERIFY_SPREAD, size=x0.size)
            if feasible(g, x):
                states.append(x)
        # Oracle solves at the scenario's own initial state factorise the
        # oracle's workspace for every eps here, the same work for every
        # seed, so that each operation then does the same work.
        for eps in (0.0,) + VERIFY_EPS + (shifted.epsilon,):
            oracle.solve_centralized(g, x0, eps)
        return SimpleNamespace(scenario=scenario, shifted=shifted, g=g,
                               lipschitz=lip, items=states)

    def op(self, ctx, x):
        sweep = analysis.regularization_sweep(ctx.g, [x], VERIFY_EPS)
        curve = analysis.suboptimality_curve(ctx.g, x, None, VERIFY_ELL,
                                             ctx.shifted.epsilon)
        return sweep, curve

    def check(self, ctx, k, out):
        sweep, curve = out
        g, x, eps = ctx.g, ctx.items[k], ctx.shifted.epsilon
        stacked = checks.Stacked(g, x)
        sol0 = oracle.solve_centralized(g, x, 0.0)
        errors = checks.certified(stacked, sol0, 0.0, "eps = 0")
        kappa_eps = []
        for e in VERIFY_EPS:
            sol = oracle.solve_centralized(g, x, e)
            errors += checks.certified(stacked, sol, e, f"eps = {e:g}")
            errors += checks.dual_value_at_optimum(
                stacked, sol, e, coordinator.dual_cost(sol.lam, x, g, e))
            kappa_eps.append(sol.u[stacked.first])
        mu = min(float(np.linalg.eigvalsh(ca.H)[0]) for ca in g.agents)
        errors += checks.below_sqrt_eps_envelope(
            sweep, x, VERIFY_EPS, sol0.u[stacked.first], kappa_eps, sol0.lam, mu)
        sol = oracle.solve_centralized(g, x, eps)
        errors += checks.certified(stacked, sol, eps, f"eps = {eps:g}")
        errors += checks.dual_value_at_optimum(
            stacked, sol, eps, coordinator.dual_cost(sol.lam, x, g, eps))
        errors += checks.gaps_below_rate_bound(curve, sol.lam, ctx.lipschitz)
        return errors

    @staticmethod
    def same(a, b):
        return all(np.array_equal(ra.series[key], rb.series[key])
                   for ra, rb in zip(a, b) for key in ra.series)


WORKLOADS = {
    "f3_loop": ClosedLoop(lambda seed: scenarios.load("formation3"), pool=16,
                          to_csv=True),
    "chain30": ClosedLoop(chain_scenario, pool=8, to_csv=True),
    "f3_verify": Formation3Verify(),
}
