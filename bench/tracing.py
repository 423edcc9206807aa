"""Span tracing of dsmpc's public functions, installed from outside the
package.

Each traced name is replaced by a wrapper wherever it is looked up: a
module-level function is rebound in every loaded `dsmpc` module that holds
it (so `solve_local` is traced as called from `coordinator`, from `plant`
and from `localqp` itself), and a method is rebound on its class.  A span
records its name, start and end, its parent span and the operation it ran
in (-1 during set-up).  Spans stay in memory until `save`.  A name that no
longer exists is reported as missing and the run goes on.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced name.
TRACED = [
    ("model", "load_scenario"), ("model", "save_scenario"),
    ("model", "solve_dare"), ("model", "validate_assumptions"),
    ("model", "shift_to_target"), ("model", "unshift_states"),
    ("model", "unshift_inputs"),
    ("condense", "prediction_matrices"), ("condense", "condense_agent"),
    ("condense", "build_coupling"), ("condense", "condense_scenario"),
    ("condense", "eval_condensed_cost"), ("condense", "rollout_cost"),
    ("condense", "dump_matrices"),
    ("coordinator", "coupling_gram_norms"), ("coordinator", "lipschitz_constant"),
    ("coordinator", "default_step"), ("coordinator", "init_state"),
    ("coordinator", "ada_step"), ("coordinator", "run_ada"),
    ("coordinator", "dual_cost"), ("coordinator", "min_iterations"),
    ("coordinator", "contraction_factor"), ("coordinator", "diagnostics_csv"),
    ("localqp", "solve_local"), ("localqp", "inner_value"),
    ("localqp", "recover_input"),
    ("qpcore", "DenseQP.__init__"), ("qpcore", "DenseQP.solve"),
    ("oracle", "solve_centralized"), ("oracle", "primal_solution"),
    ("oracle", "dual_solution"), ("oracle", "value_function"),
    ("oracle", "feedback_laws"), ("oracle", "simulate_optimal_closed_loop"),
    ("plant", "plant_step"), ("plant", "make_disturbance"),
    ("plant", "simulate_closed_loop"), ("plant", "ClosedLoopTrace.to_csv"),
    ("analysis", "suboptimality_curve"), ("analysis", "contraction_estimate"),
    ("analysis", "violation_profile"), ("analysis", "regularization_sweep"),
    ("analysis", "iss_experiment"),
]


def _arg(sig, args, kwargs, name):
    try:
        return sig.bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _qp_solve(sig, args, kwargs, out):
    # (warm active set given, iterations, size of the returned active set)
    return (bool(_arg(sig, args, kwargs, "warm_active")), int(out.iters),
            len(out.active))


def _eps_is_zero(sig, args, kwargs, out):
    return float(_arg(sig, args, kwargs, "eps")) == 0.0


def _loop_rounds(sig, args, kwargs, out):
    return int(out.ell) * int(out.steps)


def _ada_rounds(sig, args, kwargs, out):
    return int(out.iters)


# Extra data kept for some spans, taken from the arguments and the result.
EXTRAS = {
    "qpcore.DenseQP.solve": _qp_solve,
    "oracle.solve_centralized": _eps_is_zero,
    "plant.simulate_closed_loop": _loop_rounds,
    "coordinator.run_ada": _ada_rounds,
}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")
        self.extra = {}
        self.stack = []
        self.current_op = -1
        self.missing = []
        self._patches = []

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        t = time.perf_counter()
        self.end[idx] = t
        self.stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._name_id[name] = name_id
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.extra[idx] = extra(sig, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every name in TRACED; names not found go to `missing`."""
        importlib.import_module("dsmpc")
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "dsmpc" or k.startswith("dsmpc."))]
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            try:
                mod = importlib.import_module(f"dsmpc.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = vars(holder).get(attr) if holder is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn)
            if owner:
                self._patch(holder, attr, fn, wrapped)
                continue
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, key, fn, wrapped)

    def _patch(self, holder, attr, orig, wrapped):
        setattr(holder, attr, wrapped)
        self._patches.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def arrays(self):
        """The spans as numpy arrays, one per field."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        return {
            "name": np.array(self.name, dtype=np.int32), "start": start,
            "end": end, "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "self_s": end - start - np.array(self.child, dtype=np.float64),
        }

    def save(self, path):
        """Write every span: the name table, one array per field, and the
        extra data as JSON keyed by span index."""
        extra = json.dumps({str(k): v for k, v in self.extra.items()})
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            extra=np.array(extra), **self.arrays())


def _median(values, scale):
    return float(np.median(values)) * scale if len(values) else 0.0


def _p90(values, scale):
    return float(np.percentile(values, 90)) * scale if len(values) else 0.0


def _share(hits, total):
    return hits / total if total else 0.0


def layer_metrics(tr, n_ops):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Times are per call: the median (or the 90th percentile) over every call
    in the run, set-up included; a time reads 0 for a function the workload
    never calls.  Counts and ratios are taken over the calls made inside
    operations; operations run in whole rounds of the same inputs, so these
    repeat exactly for a given seed."""
    a = tr.arrays()
    dur = a["end"] - a["start"]
    in_op = a["op"] >= 0

    def idx(name, ops_only=False):
        mask = a["name"] == tr._name_id.get(name, -1)
        return np.flatnonzero(mask & in_op if ops_only else mask)

    def med(name, scale):
        return _median(dur[idx(name)], scale)

    def per_op(name):
        return len(idx(name, ops_only=True)) / n_ops

    qp = [tr.extra[i] for i in idx("qpcore.DenseQP.solve", True) if i in tr.extra]
    warm = [iters for given, iters, _ in qp if given]
    oracle = idx("oracle.solve_centralized")
    eps0 = [dur[i] for i in oracle if tr.extra.get(i) is True]
    eps = [dur[i] for i in oracle if tr.extra.get(i) is False]
    loops = [i for name in ("plant.simulate_closed_loop", "coordinator.run_ada")
             for i in idx(name, True) if i in tr.extra]
    rounds = sum(tr.extra[i] for i in loops)
    loop_self = float(sum(a["self_s"][i] for i in loops))
    solve_local = dur[idx("localqp.solve_local")]
    qp_solve = dur[idx("qpcore.DenseQP.solve")]
    ms, us = 1e3, 1e6
    return {
        "model.shift_ms": (med("model.shift_to_target", ms), "ms"),
        "condense.condense_ms": (med("condense.condense_scenario", ms), "ms"),
        "coordinator.lipschitz_ms": (med("coordinator.lipschitz_constant", ms), "ms"),
        "coordinator.round_self_us":
            (loop_self / rounds * us if rounds else 0.0, "us"),
        "coordinator.run_ada_ms": (med("coordinator.run_ada", ms), "ms"),
        "coordinator.dual_cost_ms": (med("coordinator.dual_cost", ms), "ms"),
        "coordinator.dual_cost_calls": (per_op("coordinator.dual_cost"), "count/op"),
        "localqp.solve_calls": (per_op("localqp.solve_local"), "count/op"),
        "localqp.solve_us_p50": (_median(solve_local, us), "us"),
        "localqp.solve_us_p90": (_p90(solve_local, us), "us"),
        "qpcore.factor_ms": (med("qpcore.DenseQP.__init__", ms), "ms"),
        "qpcore.solve_calls": (per_op("qpcore.DenseQP.solve"), "count/op"),
        "qpcore.solve_us_p50": (_median(qp_solve, us), "us"),
        "qpcore.solve_us_p90": (_p90(qp_solve, us), "us"),
        "qpcore.apg_iters_per_solve":
            (_share(sum(iters for _, iters, _ in qp), len(qp)), "count"),
        "qpcore.warm_hit_ratio":
            (_share(sum(1 for iters in warm if iters == 0), len(warm)), "ratio"),
        "qpcore.trivial_ratio":
            (_share(sum(1 for *_, n_active in qp if n_active == 0), len(qp)),
             "ratio"),
        "oracle.solve_eps0_ms": (_median(eps0, ms), "ms"),
        "oracle.solve_eps_ms": (_median(eps, ms), "ms"),
        "oracle.solves_per_op": (per_op("oracle.solve_centralized"), "count"),
        "plant.step_us": (med("plant.plant_step", us), "us"),
        "plant.to_csv_ms": (med("plant.ClosedLoopTrace.to_csv", ms), "ms"),
        "analysis.regularization_sweep_ms":
            (med("analysis.regularization_sweep", ms), "ms"),
        "analysis.suboptimality_curve_ms":
            (med("analysis.suboptimality_curve", ms), "ms"),
    }
