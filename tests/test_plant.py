from dataclasses import replace

import numpy as np
import pytest

from dsmpc import oracle, plant
from dsmpc.analysis import iss_experiment
from dsmpc.condense import condense_scenario
from dsmpc.coordinator import run_ada
from dsmpc.errors import DimensionError, UnknownKind
from dsmpc.model import CouplingSpec, Polytope, Scenario, shift_to_target
from dsmpc.oracle import _stacked_qp, simulate_optimal_closed_loop
from dsmpc.plant import (make_disturbance, plant_step, prepared,
                         simulate_closed_loop)
from dsmpc.scenarios import load

from conftest import formation3_doc, make_pair_scenario


class TestPlantStep:
    def test_zero_everything(self, formation3):
        n, m = formation3.n_total, formation3.m_total
        out = plant_step(np.zeros(n), np.zeros(m), np.zeros(n),
                         formation3.agents)
        assert np.all(out == 0.0)

    def test_double_integrator_axis(self, formation3):
        x = np.zeros(formation3.n_total)
        x[0], x[1] = 1.0, 0.5  # agent1 px, vx
        out = plant_step(x, np.zeros(formation3.m_total),
                         np.zeros(formation3.n_total), formation3.agents)
        assert out[0] == pytest.approx(1.5)
        assert out[1] == pytest.approx(0.5)

    def test_disturbance_additivity(self, formation3):
        n, m = formation3.n_total, formation3.m_total
        d = np.full(n, 0.05)
        base = plant_step(np.ones(n), np.zeros(m), np.zeros(n),
                          formation3.agents)
        shifted = plant_step(np.ones(n), np.zeros(m), d, formation3.agents)
        assert np.allclose(shifted - base, d)

    def test_mixed_shapes_match_per_agent_update(self, formation3):
        # agents of three shapes, interleaved: the batched update equals
        # A_i x_i + B_i u_i + d_i agent by agent
        rng = np.random.default_rng(4)
        agents = []
        for n, m in [(2, 1), (3, 2), (2, 1), (2, 2), (3, 2), (2, 1)]:
            agents.append(replace(
                formation3.agents[0], A=rng.normal(size=(n, n)),
                B=rng.normal(size=(n, m)), Q=np.eye(n), R=np.eye(m),
                P=np.eye(n), input_poly=Polytope.unconstrained(m),
                state_poly=Polytope.unconstrained(n),
                terminal_poly=Polytope.unconstrained(n),
                terminal_equality=False, disturbance_bound=np.zeros(n),
                x0=np.zeros(n), target=None))
        x, d = rng.normal(size=14), rng.normal(size=14)
        u = rng.normal(size=9)
        expected, ox, ou = [], 0, 0
        for a in agents:
            n, m = a.B.shape
            expected.append(a.A @ x[ox:ox + n] + a.B @ u[ou:ou + m] + d[ox:ox + n])
            ox, ou = ox + n, ou + m
        out = plant_step(x, u, d, agents)
        assert np.max(np.abs(out - np.concatenate(expected))) <= 1e-12

    def test_dimension_check(self, formation3):
        with pytest.raises(DimensionError):
            plant_step(np.zeros(3), np.zeros(formation3.m_total),
                       np.zeros(formation3.n_total), formation3.agents)

    def test_loop_checks_the_disturbance_dimension(self, formation3):
        dist = make_disturbance("uniform", 0.01 * np.ones(3), seed=1)
        with pytest.raises(DimensionError,
                           match="disturbance dimension 3 != state dimension 12"):
            simulate_closed_loop(formation3, ell=1, steps=2, dist=dist)

    def test_loop_stacks_once(self):
        # the kept set-up's agent tuple finds its stacks at every step
        s = load("formation3")
        plant._stacks.cache_clear()
        simulate_closed_loop(s, ell=1, steps=60)
        info = plant._stacks.cache_info()
        assert (info.misses, info.hits) == (1, 59)

    def test_second_agent_tuple_gets_its_own_stacks(self, formation3):
        # agent tuples of one shape but other dynamics, called in turn
        first = formation3.agents
        second = tuple(replace(a, A=2.0 * a.A, B=-a.B) for a in first)
        rng = np.random.default_rng(6)
        x, d = rng.normal(size=(2, formation3.n_total))
        u = rng.normal(size=formation3.m_total)
        plant._stacks.cache_clear()
        for agents in (first, second, first):
            want = np.concatenate([
                a.A @ xi + a.B @ ui for a, xi, ui in zip(
                    agents, np.split(x, np.cumsum([a.n for a in agents])[:-1]),
                    np.split(u, np.cumsum([a.m for a in agents])[:-1]))]) + d
            assert np.max(np.abs(plant_step(x, u, d, agents) - want)) <= 1e-12
        assert plant._stacks.cache_info().misses == 3


class TestMakeDisturbance:
    def test_zero_kind(self):
        d = make_disturbance("zero", np.ones(4))
        assert np.all(d.realize(10) == 0.0)

    def test_uniform_degenerate_box(self):
        d = make_disturbance("uniform", np.zeros(3), seed=5)
        assert np.all(d.realize(20) == 0.0)

    def test_uniform_within_box(self):
        bound = np.array([0.1, 0.4, 0.0])
        d = make_disturbance("uniform", bound, seed=11)
        seq = d.realize(10_000)
        assert np.all(np.abs(seq) <= bound[None, :] + 1e-15)
        # the box is actually explored
        assert np.max(np.abs(seq[:, 0])) > 0.09

    def test_seed_reproducibility(self):
        a = make_disturbance("uniform", np.ones(2), seed=3).realize(50)
        b = make_disturbance("uniform", np.ones(2), seed=3).realize(50)
        c = make_disturbance("uniform", np.ones(2), seed=4).realize(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_constant_worst_vertex(self):
        d = make_disturbance("constant_worst", np.array([0.2, 0.3]),
                             vertex=[-1.0, 1.0])
        seq = d.realize(4)
        assert np.allclose(seq, np.tile([-0.2, 0.3], (4, 1)))

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            make_disturbance("gaussian", np.ones(2))

    @pytest.mark.parametrize("vertex, bound", [
        ([-1.0], np.ones(2)), ([1.0, -1.0, 1.0], np.ones(4))],
        ids=["broadcast", "short"])
    def test_vertex_length_checked(self, vertex, bound):
        with pytest.raises(DimensionError, match="vertex"):
            make_disturbance("constant_worst", bound, vertex=vertex)

    @pytest.mark.parametrize("vertex", [[1.0, 0.0], [np.nan, 1.0]],
                             ids=["zero", "nan"])
    def test_vertex_entries_nonzero(self, vertex):
        with pytest.raises(ValueError, match="vertex"):
            make_disturbance("constant_worst", np.ones(2), vertex=vertex)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            make_disturbance("zero", np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_disturbance("uniform", np.array([0.1, bad]))


class TestSimulateClosedLoop:
    def test_equilibrium_stays_put(self, formation3):
        s = shift_to_target(formation3)
        # place every agent exactly at its (shifted) target
        s = replace(s, agents=[replace(a, x0=np.zeros(a.n)) for a in s.agents])
        tr = simulate_closed_loop(s, ell=2, steps=8)
        assert np.max(np.abs(tr.states)) <= 1e-12
        assert np.max(np.abs(tr.inputs)) <= 1e-12
        assert np.max(np.abs(tr.prices)) == 0.0  # warm start stays at zero
        assert tr.violations.max() == 0.0

    def test_replay_self_consistency(self, formation3):
        tr = simulate_closed_loop(formation3, ell=2, steps=10)
        assert tr.replay_residual(formation3.agents) <= 1e-12

    def test_replay_with_disturbance(self, formation3):
        dist = make_disturbance("uniform", 0.02 * np.ones(formation3.n_total),
                                seed=8)
        tr = simulate_closed_loop(formation3, ell=2, steps=10, dist=dist)
        assert tr.replay_residual(formation3.agents) <= 1e-12
        assert np.array_equal(tr.disturbances, dist.realize(10))

    def test_local_input_constraints_hold_exactly(self, formation3):
        tr = simulate_closed_loop(formation3, ell=1, steps=25)
        assert np.max(np.abs(tr.inputs)) <= 1.0 + 1e-8

    def test_violations_recorded_not_clipped(self, formation3):
        tr = simulate_closed_loop(formation3, ell=1, steps=25)
        assert tr.violations.max() > 1e-3  # the maneuver strains the tether

    def test_violations_are_the_coupling_rows_positive_part(self, formation3):
        # max(sum_i Eu_i u_i + Ex_i x_i - b, 0) row by row, from the rows as
        # written, at the trace's states and inputs in original coordinates
        dist = make_disturbance("uniform", 0.01 * np.ones(formation3.n_total),
                                seed=3)
        tr = simulate_closed_loop(formation3, ell=1, steps=25, dist=dist)
        u_off = np.cumsum([0] + [a.m for a in formation3.agents])
        x_off = np.cumsum([0] + [a.n for a in formation3.agents])
        want = np.zeros_like(tr.violations)
        for t in range(tr.steps):
            for k, row in enumerate(formation3.coupling.rows):
                lhs = sum(v @ tr.inputs[t, u_off[i]:u_off[i + 1]]
                          for i, v in row.Eu.items())
                lhs += sum(v @ tr.states[t, x_off[i]:x_off[i + 1]]
                           for i, v in row.Ex.items())
                want[t, k] = max(lhs - row.b, 0.0)
        assert tr.violations.shape == (25, formation3.coupling.p)
        assert np.count_nonzero(want) > 0
        assert np.max(np.abs(tr.violations - want)) <= 1e-12

    def test_converges_with_one_round(self, formation3):
        tr = simulate_closed_loop(formation3, ell=1, steps=60)
        err = np.linalg.norm(tr.states[-1] - tr.targets)
        assert err <= 1e-2

    def test_trace_csv_deterministic(self, formation3):
        t1 = simulate_closed_loop(formation3, ell=1, steps=12)
        t2 = simulate_closed_loop(formation3, ell=1, steps=12)
        assert t1.to_csv() == t2.to_csv()

    def test_infeasible_start_truncates(self):
        # initial gap drift makes the stage-1 tether impossible: positions
        # 0.2 apart but separating at 1.0 per step against a 0.3 cap is
        # fine locally (no local rows hit), so force a local infeasibility
        # through a tight input box and an unreachable terminal pin
        s = make_pair_scenario(box=0.01)
        pin = Polytope(np.array([[1.0], [-1.0]]), np.zeros(2))
        s = replace(s, agents=[
            replace(a, terminal_equality=True, terminal_poly=pin, P=np.zeros((1, 1)))
            for a in s.agents])
        tr = simulate_closed_loop(s, ell=1, steps=5)
        assert tr.infeasible_at == 0
        assert tr.states.shape[0] == 1

    @pytest.mark.parametrize("box, x0, push, at", [
        (0.01, (0.8, 0.7), 0.0, 0), (0.1, (0.1, 0.1), 1.0, 2)])
    def test_truncated_trace_shapes(self, box, x0, push, at):
        # a pinned pair that starts outside its feasible set, or is pushed
        # out of it by a constant disturbance after two steps
        s = make_pair_scenario(x0=x0, box=box)
        pin = Polytope(np.array([[1.0], [-1.0]]), np.zeros(2))
        s = replace(s, agents=[
            replace(a, terminal_equality=True, terminal_poly=pin, P=np.zeros((1, 1)))
            for a in s.agents])
        dist = make_disturbance("constant_worst", push * np.ones(2))
        tr = simulate_closed_loop(s, ell=2, steps=10, dist=dist)
        g = prepared(s)[2]
        assert tr.infeasible_at == at and tr.steps == at
        assert tr.states.shape == (at + 1, 2)
        assert tr.inputs.shape == (at, s.m_total)
        assert tr.prices.shape == (at, g.n_dual)
        assert tr.violations.shape == (at, s.coupling.p)
        assert tr.disturbances.shape == (at, 2) and tr.wall_clock.shape == (at,)
        assert tr.to_csv().count("\n") == at + 3


class TestDualDiagnostics:
    def test_always_recorded(self, formation3):
        tr = simulate_closed_loop(formation3, ell=3, steps=4)
        assert len(tr.dual_diagnostics) == 4
        assert all(len(step) == 3 for step in tr.dual_diagnostics)
        j, agg_res, mu_step = tr.dual_diagnostics[0][0]
        assert j == 1 and agg_res >= 0.0 and mu_step >= 0.0

    def test_first_step_is_run_ada(self, formation3):
        # the loop's price update is run_ada from lam_0 = 0 on the shifted
        # scenario; its per-round diagnostics are the run's
        tr = simulate_closed_loop(formation3, ell=3, steps=1)
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        run = run_ada(None, shifted.x0_stacked(), 3, g, shifted.epsilon)
        assert np.array_equal(tr.prices[0], run.lam)
        assert tr.dual_diagnostics == [
            [(j + 1, run.agg_residuals[j], run.mu_steps[j]) for j in range(3)]
        ]


class TestNonzeroEquilibriumInput:
    def test_holds_target_with_steady_input(self):
        # A=0.5, B=1, target 1 requires the steady input u = 0.5; the loop
        # must settle on the target while reporting original-frame inputs
        from dsmpc.model import AgentModel, solve_dare

        P, _ = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        agent = AgentModel(
            A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], P=P,
            input_poly=Polytope.box([-1.0], [1.0]),
            state_poly=Polytope.unconstrained(1),
            terminal_poly=Polytope.unconstrained(1), terminal_equality=False,
            disturbance_bound=[0.0], x0=[0.0], target=[1.0], name="steady",
        )
        s = Scenario(agents=[agent], coupling=CouplingSpec([]), horizon=6,
                     epsilon=0.5, sim_steps=40, name="steady")
        shifted = shift_to_target(s)
        xbar, ubar = shifted.shift
        assert xbar[0] == pytest.approx(1.0)
        assert ubar[0] == pytest.approx(0.5)
        # the origin stays strictly inside the shifted input set
        assert shifted.agents[0].input_poly.contains([0.0])
        tr = simulate_closed_loop(s, ell=1, steps=40)
        assert tr.states[-1, 0] == pytest.approx(1.0, abs=1e-6)
        assert tr.inputs[-1, 0] == pytest.approx(0.5, abs=1e-6)


def fingerprint(tr):
    """Everything a closed-loop run reports except its wall-clock times."""
    return (tr.states.tobytes(), tr.inputs.tobytes(), tr.prices.tobytes(),
            tr.to_csv(), tr.inner_solves, tr.dual_diagnostics,
            tr.infeasible_at, tr.scenario_digest)


EMPTY = (None, None, None)


def with_entry(array, index, value):
    """A copy of `array` with one entry set."""
    out = array.copy()
    out[index] = value
    return out


def with_agent(scenario, i, **changes):
    """A copy of `scenario` whose agent i has the fields given."""
    agents = list(scenario.agents)
    agents[i] = replace(agents[i], **changes)
    return replace(scenario, agents=agents)


def cold(run, scenario, **kw):
    """`run` on the scenario with no kept set-up, leaving the kept one
    alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plant, "_setup", EMPTY)
        return run(scenario, **kw)


def uniform(scenario, seed):
    return make_disturbance("uniform", 0.01 * np.ones(scenario.n_total),
                            seed=seed)


class TestPreparedSetup:
    def test_cache_hit_gives_the_cold_result(self, monkeypatch):
        s = load("formation3")
        monkeypatch.setattr(plant, "_setup", EMPTY)
        loop = cold(simulate_closed_loop, s, ell=3, steps=15,
                    dist=uniform(s, 5))
        optimal = cold(simulate_optimal_closed_loop, s, steps=5).states
        # runs that leave their laws and masks in the shared condensed
        # problem, and an optimal loop its eps factor in the oracle's store,
        # before the same runs again
        simulate_closed_loop(s, ell=40, steps=15, dist=uniform(s, 6))
        g, used = prepared(s)[2], []

        def recorded(*key):  # the factors the optimal loop solves with
            used.append(_stacked_qp(*key))
            return used[-1]

        monkeypatch.setattr(oracle, "_stacked_qp", recorded)
        simulate_optimal_closed_loop(s, steps=3, eps=1e-3)
        assert used and all(qp is _stacked_qp(g, 1e-3) for qp in used)
        assert any(grp.law_mask.any() for grp in g.groups)
        hot = simulate_closed_loop(s, ell=3, steps=15, dist=uniform(s, 5))
        assert fingerprint(hot) == fingerprint(loop)
        simulate_closed_loop(s, ell=1, steps=15, dist=uniform(s, 7))
        assert np.array_equal(simulate_optimal_closed_loop(s, steps=5).states,
                              optimal)
        assert plant._setup[0] == s.digest() and prepared(s)[2] is g

    @pytest.mark.parametrize("change", [
        lambda s: with_agent(s, 0, A=with_entry(s.agents[0].A, (1, 1), 0.99)),
        lambda s: with_agent(s, 1, input_poly=replace(
            s.agents[1].input_poly, c=with_entry(s.agents[1].input_poly.c, 0, 0.5))),
        lambda s: replace(s, coupling=CouplingSpec(
            replace(row, b=0.9) if k == 1 else row
            for k, row in enumerate(s.coupling.rows))),
        lambda s: with_agent(s, 2, x0=with_entry(s.agents[2].x0, 0, 0.35)),
        lambda s: with_agent(s, 0, target=with_entry(s.agents[0].target, 0, 3.7)),
        lambda s: with_agent(s, 0, terminal_poly=replace(
            s.agents[0].terminal_set,
            c=with_entry(s.agents[0].terminal_set.c, 0, 3.7))),
    ], ids=["A", "input_bound", "coupling_b", "x0", "target", "terminal"])
    def test_in_place_change_gets_its_own_setup(self, monkeypatch, change):
        # a scenario cannot change in place, so each change is a changed copy
        s = load("formation3")
        monkeypatch.setattr(plant, "_setup", EMPTY)
        before = simulate_closed_loop(s, ell=2, steps=12, dist=uniform(s, 9))
        t = change(s)
        # the unchanged content still finds the kept set-up, untouched by
        # the copy changed from the scenario it was built from
        fresh = load("formation3")
        again = simulate_closed_loop(fresh, ell=2, steps=12,
                                     dist=uniform(fresh, 9))
        assert fingerprint(again) == fingerprint(before)
        after = simulate_closed_loop(t, ell=2, steps=12, dist=uniform(t, 9))
        assert fingerprint(after) == fingerprint(
            cold(simulate_closed_loop, t, ell=2, steps=12, dist=uniform(t, 9)))
        assert not np.array_equal(after.states, before.states)
        # one set-up is kept: the last content's
        assert plant._setup[0] == t.digest() != fresh.digest() == s.digest()

    def test_moved_target_is_the_fresh_load(self, monkeypatch):
        # a target moved by `replace` moves the terminal box with it: the copy
        # is the content that a file with the new target loads
        s = load("formation3")
        target = with_entry(s.agents[0].target, 0, s.agents[0].target[0] + 0.3)
        moved = with_agent(s, 0, target=target)
        fresh = Scenario.from_dict(formation3_doc(target=target.tolist()))
        monkeypatch.setattr(plant, "_setup", EMPTY)
        want = simulate_closed_loop(fresh, ell=5, steps=60)
        g = prepared(fresh)[2]
        assert moved.digest() == fresh.digest()
        assert prepared(moved)[2] is g
        assert simulate_closed_loop(moved, ell=5, steps=60).to_csv() == want.to_csv()

    def test_condenses_once_per_scenario_content(self, monkeypatch):
        calls = []

        def counting(scenario):
            calls.append(scenario)
            return condense_scenario(scenario)

        monkeypatch.setattr(plant, "condense_scenario", counting)
        monkeypatch.setattr(plant, "_setup", EMPTY)
        s = load("formation3")
        # five runs of one scenario, one per disturbance bound
        iss_experiment(s, 1, [0.0, 0.01, 0.02, 0.03, 0.04], [1], steps=3)
        assert len(calls) == 1
        x0 = s.agents[2].x0
        for k in range(5):
            t = with_agent(s, 2, x0=with_entry(x0, 0, x0[0] + 0.01 * (k + 1)))
            simulate_closed_loop(t, ell=1, steps=3)
        assert len(calls) == 6

    def test_caller_array_written_later(self, monkeypatch):
        # a read-only array passed in is copied: making it writable and
        # writing it later reaches neither the scenario nor its kept set-up
        s = load("formation3")
        monkeypatch.setattr(plant, "_setup", EMPTY)
        x0, block = s.agents[0].x0.copy(), s.coupling.rows[0].Ex[0].copy()
        for a in (x0, block):
            a.setflags(write=False)
        t = replace(with_agent(s, 0, x0=x0), coupling=CouplingSpec(
            [replace(s.coupling.rows[0], Ex={**s.coupling.rows[0].Ex, 0: block}),
             *s.coupling.rows[1:]]))
        first = simulate_closed_loop(t, ell=2, steps=12, dist=uniform(t, 9))
        digest, stage = t.digest(), [M.copy() for M in t.stage]
        for a in (x0, block):
            a.setflags(write=True)
            a[1] = -0.5
        assert t.agents[0].x0[1] != -0.5 != t.coupling.rows[0].Ex[0][1]
        assert t.digest() == digest == replace(t).digest() == s.digest()
        assert all(np.array_equal(M, N) for M, N in zip(t.stage, stage))
        again = simulate_closed_loop(t, ell=2, steps=12, dist=uniform(t, 9))
        assert fingerprint(again) == fingerprint(first) == fingerprint(
            cold(simulate_closed_loop, replace(t), ell=2, steps=12,
                 dist=uniform(t, 9)))

    def test_repeat_run_hashes_nothing(self, monkeypatch):
        # the digest is hashed once per scenario object, so a second run of
        # the same object finds the kept set-up without encoding the content
        s = load("formation3")
        monkeypatch.setattr(plant, "_setup", EMPTY)
        first = simulate_closed_loop(s, ell=1, steps=3)
        calls = []
        to_dict = Scenario.to_dict
        monkeypatch.setattr(Scenario, "to_dict",
                            lambda self: calls.append(self) or to_dict(self))
        again = simulate_closed_loop(s, ell=1, steps=3)
        assert calls == []
        assert fingerprint(again) == fingerprint(first)
