import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dsmpc.condense import condense_scenario
from dsmpc.model import (AgentModel, CouplingRow, CouplingSpec, Polytope,
                         Scenario, shift_to_target, solve_dare)
from dsmpc.scenarios import bundled_path, load


@pytest.fixture(scope="session")
def formation3():
    return load("formation3")


@pytest.fixture(scope="session")
def formation3_path():
    return bundled_path("formation3")


@pytest.fixture(scope="session")
def formation3_global(formation3):
    shifted = shift_to_target(formation3)
    return shifted, condense_scenario(shifted)


def formation3_doc(**agent0):
    """The bundled formation3 file as a dict, with the given fields of agent
    0 replaced."""
    with open(bundled_path("formation3"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["agents"][0].update(agent0)
    return doc


def terminal_box_doc():
    """formation3 whose agent 0 ends its horizon in the box terminal polytope
    |x - target| <= 0.5 (P from the Riccati equation)."""
    target = np.array(formation3_doc()["agents"][0]["target"])
    C = np.vstack([np.eye(4), -np.eye(4)])
    c = np.concatenate([target + 0.5, 0.5 - target])
    return formation3_doc(terminal={"mode": "polytope", "C": C.tolist(),
                                    "c": c.tolist()})


def unstabilizable_doc():
    """formation3 whose agent 0 is A = I, B = e1: three modes at 1 that no
    input reaches, so no Riccati solution exists (explicit P, no terminal
    set)."""
    return formation3_doc(A=np.eye(4).tolist(), B=[[1.0], [0.0], [0.0], [0.0]],
                          R=[[1.0]], P=np.eye(4).tolist(),
                          input_poly={"box": [[-1.0], [1.0]]},
                          terminal={"mode": "none"})


def make_axis_agent(x0, target=None, box=1.0, name="a", terminal="dare"):
    """Double-integrator axis agent (n=2, m=1)."""
    A = [[1.0, 1.0], [0.0, 1.0]]
    B = [[0.0], [1.0]]
    if terminal == "equality":
        xbar = np.zeros(2) if target is None else np.asarray(target, dtype=float)
        terminal_poly = Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                                 np.concatenate([xbar, -xbar]))
        P = np.zeros((2, 2))
        teq = True
    else:
        P, _ = solve_dare(A, B, np.eye(2), [[1.0]])
        terminal_poly = Polytope.unconstrained(2)
        teq = False
    return AgentModel(
        A=A, B=B, Q=np.eye(2), R=[[1.0]], P=P,
        input_poly=Polytope.box([-box], [box]),
        state_poly=Polytope.unconstrained(2),
        terminal_poly=terminal_poly, terminal_equality=teq,
        disturbance_bound=[0.0, 0.0], x0=x0, target=target, name=name,
    )


def make_pair_scenario(x0=(0.8, 0.7), bound=0.3, horizon=3,
                       epsilon=1.0, box=5.0):
    """Two scalar-state agents with a shared state-sum cap; small enough for
    hand analysis, with the coupling active at the default initial state."""
    def scalar_agent(x0v, name):
        P, _ = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        return AgentModel(
            A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], P=P,
            input_poly=Polytope.box([-box], [box]),
            state_poly=Polytope.unconstrained(1),
            terminal_poly=Polytope.unconstrained(1), terminal_equality=False,
            disturbance_bound=[0.0], x0=[x0v], name=name,
        )
    agents = [scalar_agent(x0[0], "p1"), scalar_agent(x0[1], "p2")]
    coupling = CouplingSpec([
        CouplingRow({}, {0: np.array([1.0]), 1: np.array([1.0])}, bound),
    ])
    return Scenario(agents=agents, coupling=coupling, horizon=horizon,
                    epsilon=epsilon, iterations=5, sim_steps=20, seed=0,
                    name="pair")


@pytest.fixture()
def pair_scenario():
    return make_pair_scenario()


@pytest.fixture()
def pair_global(pair_scenario):
    return pair_scenario, condense_scenario(pair_scenario)
