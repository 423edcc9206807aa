from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dsmpc import plant
from dsmpc.condense import GlobalQP, condense_agent
from dsmpc.coordinator import batched_solves
from dsmpc.errors import Infeasible, MaxIters
from dsmpc.model import (AgentModel, CouplingRow, CouplingSpec, Polytope,
                         Scenario)
from dsmpc.oracle import recovered_law
from dsmpc.qpcore import TOL, DenseQP, QPResult, kkt_verdict, law_test

from conftest import make_axis_agent
from oracles import probe_qp_optimality, qp_by_enumeration


def boxed_scalar_agent(lo=-10.0, hi=10.0, coupling_rows=1):
    a = AgentModel(
        A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], P=[[1.0]],
        input_poly=Polytope.box([lo], [hi]),
        state_poly=Polytope.unconstrained(1),
        terminal_poly=Polytope.unconstrained(1), terminal_equality=False,
        disturbance_bound=[0.0], x0=[0.0], name="b",
    )
    ca = condense_agent(a, 1)
    ca.E = np.ones((coupling_rows, 1))
    ca.F = np.zeros((coupling_rows, 1))
    return ca


def one_agent(ca):
    """A GlobalQP holding the single condensed agent `ca`."""
    return GlobalQP(agents=[ca], b=np.zeros(ca.E.shape[0]))


def per_agent(g, s):
    """The batched Solves `s` split into one QPResult per agent (z = u_i)."""
    zs = np.split(s.u, np.cumsum([ca.nu for ca in g.agents])[:-1])
    nus = np.split(s.nu, np.cumsum([ca.qp.k for ca in g.agents])[:-1])
    return [QPResult(z, nu, tuple(np.flatnonzero(nu > 0.0).tolist()),
                     float(res), int(it))
            for z, nu, res, it in zip(zs, nus, s.res, s.iters)]


def solve_one(ca, x, lam, warm=None):
    """Agent ca's inner solve at (x, lam) through coordinator.batched_solves,
    warm-started from the active set of the QPResult `warm`."""
    g = one_agent(ca)
    return per_agent(g, batched_solves(g, g.state_terms(x), lam,
                                       None if warm is None else warm.nu > 0.0))[0]


def first_input(ca, x, lam):
    """Agent ca's first-stage input through oracle.recovered_law."""
    return recovered_law(one_agent(ca), x, lam)


class TestSolveLocal:
    def test_origin_unconstrained_minimum(self):
        ca = boxed_scalar_agent()
        sol = solve_one(ca, np.zeros(1), np.zeros(1))
        assert np.allclose(sol.z, 0.0)
        assert sol.kkt_residual <= 1e-9

    def test_closed_form_inactive_constraint(self):
        # H=2, G=1, E=1: minimizer of 0.5 H u^2 + (Gx + lam)u is -(Gx+lam)/H
        ca = boxed_scalar_agent()
        sol = solve_one(ca, np.zeros(1), np.ones(1))
        assert sol.z[0] == pytest.approx(-0.5, abs=1e-10)
        assert sol.active == ()

    def test_active_box(self):
        ca = boxed_scalar_agent(lo=-0.2, hi=0.2)
        sol = solve_one(ca, np.zeros(1), 3.0 * np.ones(1))
        assert sol.z[0] == pytest.approx(-0.2, abs=1e-10)
        assert sol.kkt_residual <= 1e-9

    def test_empty_polytope_raises(self):
        a = AgentModel(
            A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], P=[[1.0]],
            # u <= -1 and u >= 1 simultaneously: empty
            input_poly=Polytope(np.array([[1.0], [-1.0]]),
                                np.array([-1.0, -1.0])),
            state_poly=Polytope.unconstrained(1),
            terminal_poly=Polytope.unconstrained(1), terminal_equality=False,
            disturbance_bound=[0.0], x0=[0.0], name="e",
        )
        ca = condense_agent(a, 1)
        ca.E = np.ones((1, 1))
        ca.F = np.zeros((1, 1))
        with pytest.raises(Infeasible):
            solve_one(ca, np.zeros(1), np.zeros(1))

    def test_feasibility_and_kkt_contract(self, formation3_global):
        shifted, g = formation3_global
        rng = np.random.default_rng(2)
        x_parts = g.split_states(shifted.x0_stacked())
        for ca, xi in zip(g.agents, x_parts):
            for _ in range(5):
                lam = np.abs(rng.normal(scale=2.0, size=g.n_dual))
                sol = solve_one(ca, xi, lam)
                assert sol.kkt_residual <= 1e-9
                assert np.all(ca.D @ xi + ca.C @ sol.z <= ca.c + 1e-8)

    def test_probing_cannot_beat_solution(self, formation3_global):
        shifted, g = formation3_global
        rng = np.random.default_rng(4)
        ca = g.agents[0]
        xi = g.split_states(shifted.x0_stacked())[0]
        lam = np.abs(rng.normal(scale=1.0, size=g.n_dual))
        sol = solve_one(ca, xi, lam)
        margin = probe_qp_optimality(
            ca.H, ca.G @ xi + ca.E.T @ lam, ca.C, ca.c - ca.D @ xi,
            sol.z, rng, trials=150,
        )
        assert margin >= -1e-8

    def test_variational_characterization_on_vertices(self):
        # (Hu + g)'(v - u) >= 0 for all vertices v of the box
        ca = boxed_scalar_agent(lo=-0.3, hi=0.4)
        x = np.array([0.5])
        lam = np.array([2.0])
        sol = solve_one(ca, x, lam)
        grad = ca.H @ sol.z + ca.G @ x + ca.E.T @ lam
        for v in (np.array([-0.3]), np.array([0.4])):
            assert grad @ (v - sol.z) >= -1e-8

    def test_determinism(self, formation3_global):
        shifted, g = formation3_global
        ca = g.agents[1]
        xi = g.split_states(shifted.x0_stacked())[1]
        lam = np.linspace(0.0, 1.0, g.n_dual)
        s1 = solve_one(ca, xi, lam)
        s2 = solve_one(ca, xi, lam)
        assert np.array_equal(s1.z, s2.z)
        assert np.array_equal(s1.nu, s2.nu)

    def test_warm_start_matches_cold(self, formation3_global):
        shifted, g = formation3_global
        ca = g.agents[0]
        xi = g.split_states(shifted.x0_stacked())[0]
        lam_a = np.full(g.n_dual, 0.1)
        lam_b = np.full(g.n_dual, 0.11)
        warm = solve_one(ca, xi, lam_a)
        hot = solve_one(ca, xi, lam_b, warm=warm)
        cold = solve_one(ca, xi, lam_b)
        assert np.allclose(hot.z, cold.z, atol=1e-8)
        assert hot.kkt_residual <= 1e-9


class TestRecoverInput:
    def test_zero_at_origin(self, formation3_global):
        shifted, g = formation3_global
        ca = g.agents[0]
        u0 = first_input(ca, np.zeros(ca.n), np.zeros(g.n_dual))
        assert np.allclose(u0, 0.0)

    def test_first_block_of_unconstrained_solve(self):
        agent = make_axis_agent([0.0, 0.0], box=50.0)
        ca = condense_agent(agent, 2)
        ca.E = np.zeros((0, 2))
        ca.F = np.zeros((0, 2))
        x = np.array([1.0, -0.5])
        full = np.linalg.solve(ca.H, -(ca.G @ x))
        u0 = first_input(ca, x, np.zeros(0))
        assert u0.shape == (1,)
        assert u0[0] == pytest.approx(full[0], abs=1e-9)

    def test_lipschitz_in_price(self, formation3_global):
        # rigorous bound ||E||_2 / lambda_min(H) (the selection matrix has
        # unit norm); the unconstrained-piece value ||H^-1 E'|| is reported
        # by construction smaller
        shifted, g = formation3_global
        ca = g.agents[2]
        xi = g.split_states(shifted.x0_stacked())[2]
        bound = np.linalg.norm(ca.E, 2) / np.linalg.eigvalsh(ca.H).min()
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(20):
            l1 = np.abs(rng.normal(scale=1.5, size=g.n_dual))
            l2 = np.abs(rng.normal(scale=1.5, size=g.n_dual))
            d = np.linalg.norm(l1 - l2)
            if d < 1e-9:
                continue
            q1 = first_input(ca, xi, l1)
            q2 = first_input(ca, xi, l2)
            worst = max(worst, np.linalg.norm(q1 - q2) / d)
        assert worst <= bound + 1e-9


class TestDenseQP:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            DenseQP(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros((0, 2)))

    def test_equality_like_double_rows(self):
        # z pinned to 0.3 via a doubled row pair; multipliers recoverable
        P = np.array([[2.0]])
        A = np.array([[1.0], [-1.0]])
        qp = DenseQP(P, A)
        res = qp.solve(np.array([1.0]), np.array([0.3, -0.3]))
        assert res.z[0] == pytest.approx(0.3, abs=1e-10)
        assert res.kkt_residual <= 1e-9

    def test_random_problems_certified(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            n = rng.integers(2, 6)
            k = rng.integers(1, 10)
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.5 * np.eye(n)
            A = rng.normal(size=(k, n))
            z0 = rng.normal(size=n)
            r = A @ z0 + rng.uniform(0.05, 1.0, size=k)  # z0 strictly feasible
            q = rng.normal(size=n)
            res = DenseQP(P, A).solve(q, r)
            assert res.kkt_residual <= 1e-9
            margin = probe_qp_optimality(P, q, A, r, res.z, rng, trials=60)
            assert margin >= -1e-7

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           n_ineq=st.integers(1, 6), n_dup=st.integers(0, 2),
           n_eq=st.integers(0, 1), cut=st.sampled_from([0.0, 1.0]))
    def test_matches_enumeration_with_dependent_rows(self, seed, n, n_ineq,
                                                     n_dup, n_eq, cut):
        # duplicated rows and +/- equality pairs make the active rows
        # linearly dependent, up to 6 random rows give k > n, and cut > 0
        # moves the random rows' right-hand sides below the point z0 so that
        # some instances are empty; cold and warm-started solves must land on
        # the unique minimizer, or raise Infeasible exactly when HiGHS finds
        # no point
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        z0 = rng.normal(size=n)
        A = rng.normal(size=(n_ineq, n))
        r = A @ z0 + rng.uniform(-cut, 1.0, size=n_ineq)
        dup = rng.integers(0, n_ineq, size=n_dup)
        A, r = np.vstack([A, A[dup]]), np.concatenate([r, r[dup]])
        for _ in range(n_eq):
            a = rng.normal(size=n)
            A = np.vstack([A, a, -a])
            c = a @ z0 - rng.uniform(0.0, cut)  # a z = c: one shift, both rows
            r = np.concatenate([r, [c, -c]])
        q = -P @ (z0 + rng.normal(scale=3.0, size=n))
        empty = linprog(np.zeros(n), A_ub=A, b_ub=r, bounds=[(None, None)] * n,
                        method="highs").status == 2
        qp = DenseQP(P, A)
        wrong = tuple(np.flatnonzero(rng.random(A.shape[0]) < 0.5).tolist())
        if empty:
            for warm in (None, wrong):
                with pytest.raises(Infeasible):
                    qp.solve(q, r, warm_active=warm)
            return
        expected = qp_by_enumeration(P, q, A, r)
        cold = qp.solve(q, r)
        for warm in (None, wrong, cold.active):
            res = qp.solve(q, r, warm_active=warm)
            assert res.kkt_residual <= 1e-9
            assert np.max(np.abs(res.z - expected)) <= 1e-9

    def test_infeasible_only_after_lp_certificate(self):
        # rows z <= -1 and -z <= -1 leave no point; with the LP certificate
        # withheld the solver must stall, never report emptiness itself
        qp = DenseQP(np.eye(1), np.array([[1.0], [-1.0]]))
        r = np.array([-1.0, -1.0])
        with pytest.raises(Infeasible):
            qp.solve(np.zeros(1), r)
        qp._certify_infeasible = lambda r: False
        for warm in (None, (0,), (0, 1)):
            with pytest.raises(MaxIters):
                qp.solve(np.zeros(1), r, warm_active=warm)

    def test_cold_start_with_more_rows_than_variables(self):
        # 12 random rows on 3 variables: the cold start counts its rounds,
        # and a warm start from its active set returns that set with none
        rng = np.random.default_rng(3)
        P = np.diag([1.0, 2.0, 3.0])
        A = rng.normal(size=(12, 3))
        r = rng.uniform(0.1, 0.5, size=12)
        q = -P @ rng.normal(scale=4.0, size=3)
        qp = DenseQP(P, A)
        cold = qp.solve(q, r)
        assert cold.iters >= len(cold.active) > 0
        assert np.max(np.abs(cold.z - qp_by_enumeration(P, q, A, r))) <= 1e-9
        warm = qp.solve(q, r, warm_active=cold.active)
        assert warm.iters == 0
        assert warm.active == cold.active
        assert np.max(np.abs(warm.z - cold.z)) <= 1e-12

    def test_ndarray_warm_set_same_as_tuple(self):
        # z1 <= 0 and z2 <= 5 both bind at z = (0, 5); an array warm set is
        # the same set as the equal tuple, a one-element array [0] included
        qp = DenseQP(np.eye(2), np.eye(2))
        r = np.array([0.0, 5.0])
        for q, warm in ((np.array([-1.0, -10.0]), (0, 1)),
                        (np.array([-1.0, 0.0]), (0,))):
            want = qp.solve(q, r, warm_active=warm)
            got = qp.solve(q, r, warm_active=np.array(warm))
            assert want.iters == 0 and want.active == warm
            assert got.iters == want.iters and got.active == want.active
            assert np.array_equal(got.z, want.z)
            assert np.array_equal(got.nu, want.nu)
            assert got.kkt_residual == want.kkt_residual

    def test_wrong_sign_equality_row_polishes_without_iterations(self):
        # z0 = 0.3 pinned by the pair (rows 0, 1) with a multiplier of 6e-9 on
        # row 0; a warm set holding row 1 must be repaired by the polish
        # itself (drop row 1, add row 0), not by gradient iterations
        P = np.diag([1.0, 2.0])
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        r = np.array([0.3, -0.3, 5.0])
        q = np.array([-(0.3 + 6e-9), 1.0])
        res = DenseQP(P, A).solve(q, r, warm_active=(1,))
        assert res.iters == 0
        assert res.active == (0,)
        assert res.nu[0] == pytest.approx(6e-9, rel=1e-6)
        assert res.z == pytest.approx([0.3, -0.5], abs=1e-12)
        assert res.kkt_residual <= 1e-9


def shaped_agent(m, box=None, state_box=None, seed=0):
    """A two-state agent with m inputs, an input box of half-width `box`
    and a state box of half-width `state_box` (None: no rows)."""
    rng = np.random.default_rng(seed)
    return AgentModel(
        A=[[1.0, 0.2], [0.0, 0.9]], B=rng.normal(size=(2, m)), Q=np.eye(2),
        R=np.eye(m), P=np.eye(2),
        input_poly=Polytope.unconstrained(m) if box is None else
        Polytope.box(-box * np.ones(m), box * np.ones(m)),
        state_poly=Polytope.unconstrained(2) if state_box is None else
        Polytope.box(-state_box * np.ones(2), state_box * np.ones(2)),
        terminal_poly=Polytope.unconstrained(2), terminal_equality=False,
        disturbance_bound=[0.0, 0.0], x0=[0.0, 0.0], name=f"s{seed}",
    )


def mixed_global(models, p_stage, seed=0, N=2):
    """A GlobalQP over the condensed `models` with random coupling rows,
    N * p_stage of them (none for p_stage = 0)."""
    rng = np.random.default_rng(seed)
    agents = []
    for i, a in enumerate(models):
        ca = condense_agent(a, N, index=i)
        ca.E = rng.normal(size=(N * p_stage, ca.nu))
        ca.F = np.zeros((N * p_stage, ca.n))
        agents.append(ca)
    return GlobalQP(agents=agents, b=np.zeros(N * p_stage))


def per_agent_solves(g, x, lam, warm=None):
    """Each agent's inner QP solved alone by DenseQP.solve, from its own
    blocks."""
    return [ca.qp.solve(ca.G @ xi + ca.E.T @ lam, ca.c - ca.D @ xi,
                        warm_active=None if warm is None else warm[i].active)
            for i, (ca, xi) in enumerate(zip(g.agents, g.split_states(x)))]


def chain_scenario(M=30, seed=0):
    """Double-integrator agents on a line, targets one apart, neighbours
    sharing the spacing rows |p_i - p_(i+1)| <= 1.1."""
    rng = np.random.default_rng(seed)
    agents = [make_axis_agent(np.array([i, 0.0]) + rng.uniform([-0.3, -0.1],
                                                               [0.3, 0.1]),
                              target=[float(i), 0.0], box=0.2, name=f"c{i}")
              for i in range(M)]
    pos = np.array([1.0, 0.0])
    rows = [CouplingRow({}, {i: s * pos, i + 1: -s * pos}, 1.1)
            for i in range(M - 1) for s in (1.0, -1.0)]
    return Scenario(agents=agents, coupling=CouplingSpec(rows), horizon=5,
                    epsilon=1e-3, iterations=5, sim_steps=10, seed=seed,
                    name=f"chain{M}")


class TestBatchedInnerSolves:
    """coordinator.batched_solves batches the broadcast and one law test per
    agent shape; it must return what each agent's own DenseQP.solve
    returns, from any warm sets."""

    MODELS = [shaped_agent(1, box=0.3, seed=0), shaped_agent(1, box=0.5, seed=1),
              shaped_agent(2, box=0.2, seed=2), shaped_agent(1, seed=3),
              shaped_agent(1, box=0.3, state_box=2.0, seed=4),
              shaped_agent(1, seed=5)]

    @staticmethod
    def assert_same(batched, single):
        for b, s in zip(batched, single, strict=True):
            assert np.max(np.abs(b.z - s.z), initial=0.0) <= 1e-12
            assert b.active == s.active
            # the same path, except that the law of the empty set is what a
            # single solve finds in its first cold round
            assert b.iters == s.iters or (b.iters, s.iters, b.active) == (0, 1, ())
            assert b.kkt_residual <= 1e-9 and s.kkt_residual <= 1e-9

    @pytest.mark.parametrize("p_stage", [0, 2])
    def test_matches_per_agent_solves(self, p_stage):
        g = mixed_global(self.MODELS, p_stage, seed=p_stage)
        assert sorted((u_rows.shape[1], r_rows.shape[1], len(idx))
                      for idx, u_rows, r_rows, *_ in g.groups) == \
            [(2, 0, 2), (2, 4, 2), (2, 12, 1), (4, 8, 1)]
        rng = np.random.default_rng(7)
        paths = set()
        for trial in range(40):
            x = rng.normal(scale=0.3, size=g.n_total)
            lam = np.abs(rng.normal(scale=trial / 10.0, size=g.n_dual))
            terms = g.state_terms(x)
            solves = batched_solves(g, terms, lam)
            cold = per_agent(g, solves)
            self.assert_same(cold, per_agent_solves(g, x, lam))
            near = lam * 1.05 + 0.01
            self.assert_same(
                per_agent(g, batched_solves(g, terms, near, solves.nu > 0.0)),
                per_agent_solves(g, x, near, warm=cold))
            paths.update(bool(sol.active) for sol in cold)
        assert paths == {False, True}  # trivial returns and active rows

    def test_empty_agent_polytope_raises(self):
        empty = replace(shaped_agent(1, seed=6),
                        input_poly=Polytope(np.array([[1.0], [-1.0]]),
                                            np.array([-1.0, -1.0])))
        g = mixed_global([shaped_agent(1, box=0.3, seed=0), empty], 1)
        with pytest.raises(Infeasible):
            batched_solves(g, g.state_terms(np.zeros(g.n_total)),
                           np.zeros(g.n_dual))

    @pytest.mark.parametrize("wrong", ["extra", "missing", "mirrored", "all"])
    def test_wrong_warm_sets_match_per_agent_solves(self, wrong):
        # warm sets with rows the solution does not hold, without rows it
        # holds, with each active row next to its mirror (dependent rows),
        # or with every row (more rows than variables), in groups with and
        # without local rows (k = 0): the batched path and each agent's own
        # DenseQP.solve from the same set take the same path to the same z
        g = mixed_global(self.MODELS, 2, seed=2)
        rng = np.random.default_rng(8)
        r_off = np.cumsum([0] + [ca.qp.k for ca in g.agents])

        def mirrors(C):  # row i -> the agent's row -C_i, if it has one
            return [next((j for j, cj in enumerate(C) if np.allclose(cj, -ci)), i)
                    for i, ci in enumerate(C)]

        mirror = np.concatenate([a + np.array(mirrors(ca.C), dtype=int)
                                 for a, ca in zip(r_off[:-1], g.agents)])
        paths = set()
        for trial in range(30):
            x = rng.normal(scale=0.3, size=g.n_total)
            lam = np.abs(rng.normal(scale=trial / 5.0, size=g.n_dual))
            terms = g.state_terms(x)
            warm = batched_solves(g, terms, lam).nu > 0.0
            if wrong == "extra":
                warm |= rng.random(warm.size) < 0.3
            elif wrong == "missing":
                warm &= rng.random(warm.size) < 0.5
            elif wrong == "mirrored":
                warm[mirror[warm]] = True
            else:
                warm[:] = True
            batched = per_agent(g, batched_solves(g, terms, lam * 1.05, warm))
            single = [ca.qp.solve(
                ca.G @ xi + ca.E.T @ (lam * 1.05), ca.c - ca.D @ xi,
                warm_active=tuple(np.flatnonzero(warm[a:b]).tolist()))
                for ca, xi, a, b in zip(g.agents, g.split_states(x),
                                        r_off[:-1], r_off[1:])]
            self.assert_same(batched, single)
            paths.update(len(sol.active) > 0 for sol in batched)
        assert paths == {False, True}

    def test_result_independent_of_kept_laws(self):
        # the same (x, lam, warm) gives bit-identical z and nu whatever laws
        # the groups kept from earlier calls, and on a fresh GlobalQP
        g = mixed_global(self.MODELS, 2, seed=2)
        rng = np.random.default_rng(5)
        x = rng.normal(scale=0.3, size=g.n_total)
        lam = np.abs(rng.normal(scale=2.0, size=g.n_dual))
        terms = g.state_terms(x)
        warm = batched_solves(g, terms, lam).nu > 0.0
        assert warm.any()
        first = batched_solves(g, terms, lam, warm)
        for other in (None, ~warm, rng.random(warm.size) < 0.5, warm):
            batched_solves(g, terms, 2.0 * lam, other)
            again = batched_solves(g, terms, lam, warm)
            assert np.array_equal(again.u, first.u)
            assert np.array_equal(again.nu, first.nu)
        fresh = mixed_global(self.MODELS, 2, seed=2)
        again = batched_solves(fresh, fresh.state_terms(x), lam, warm)
        assert np.array_equal(again.u, first.u)
        assert np.array_equal(again.nu, first.nu)

    def test_law_test_checks_stationarity(self):
        # a feasible point that is not the minimizer is refused, for one QP
        # (kkt_verdict) and in a stack of two (law_test)
        P, A = np.diag([2.0, 1.0]), np.eye(2)
        q, r = np.array([1.0, -1.0]), np.full(2, 5.0)
        z, nu = -q / np.diag(P), np.zeros(2)
        for dz, accepted in ((0.0, True), (1e-6, False)):
            res, ok = kkt_verdict(P @ (z + dz) + q, r - A @ (z + dz), nu)
            assert bool(ok) == accepted and bool(res <= TOL) == accepted
        K = np.block([[P, A.T], [A, np.zeros((2, 2))]])
        law = np.zeros((4, 4))
        law[:2, :2] = -np.linalg.inv(P)
        zs, _, res, ok = law_test(np.stack([K, K]),
                                  np.stack([law, (1.0 + 1e-6) * law]),
                                  np.stack([q, q]), np.stack([r, r]))
        assert ok.tolist() == [True, False] and res[1] > TOL
        assert np.all(r - A @ zs[1] > 0.0)  # feasible, yet refused

    @pytest.mark.parametrize("which", ["formation3", "chain30"])
    def test_loop_results_certified(self, which, formation3):
        scenario = formation3 if which == "formation3" else chain_scenario()
        dist = plant.make_disturbance("uniform", 0.01 * np.ones(scenario.n_total),
                                      seed=3)
        trace = plant.simulate_closed_loop(scenario, ell=5, steps=10, dist=dist)
        assert trace.infeasible_at is None
        tel = trace.metadata()["inner_solves"]
        assert tel["law"] + tel["polish"] + tel["cold"] == \
            6 * 10 * len(scenario.agents)
        assert tel["lp_certificate"] == 0
        assert tel["kkt_max"] <= 1e-9
        assert tel["active_rows"] > 0
