"""Spans around biopt's layers, recorded from the benchmark's own code.

The traced run replaces module-level names (and the methods of each oracle
object) with wrappers that open a span on entry and close it on exit.  A
span is (name, start, end, parent, op id); spans stay in compact arrays in
memory and are written once, after the timed loop.  Self time is a span's
duration minus the durations of its direct children: the benchmark is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

import biopt.acceptance
import biopt.cli
import biopt.driver
import biopt.lower
import biopt.segment

# (module, attribute, span name) for every wrapped module-level function.
# Names are looked up through the module at call time, so patching the
# module attribute reaches every caller inside biopt.
FUNCTION_SPANS = (
    (biopt.driver, "step_inexact", "driver.step"),
    (biopt.driver, "step_exact", "driver.step"),
    (biopt.driver, "gap_certificate", "driver.certificate"),
    (biopt.driver, "psi_star", "driver.certificate"),
    (biopt.driver, "bisect_segment", "segment.bisect"),
    (biopt.driver, "solve_acceptable", "lower.solve_acceptable"),
    (biopt.segment, "solve_acceptable", "lower.solve_acceptable"),
    (biopt.segment, "sprox_quadratic", "segment.sprox_quadratic"),
    (biopt.lower, "subproblem_solve", "lower.subproblem"),
    (biopt.lower, "AcceptedPoint", "acceptance.point"),
    (biopt.cli, "run", "driver.run"),
    (biopt.cli, "verify_trace", "driver.verify"),
    (biopt.cli, "load_instance", "problems.load_instance"),
    (np.linalg, "solve", "numerics.solve"),
    (np.linalg, "eigh", "numerics.eigh"),
)
# prox_power is called tens of thousands of times per op; it is counted,
# not spanned, so its cost stays in its caller's self time.
COUNTED = ((biopt.lower, "prox_power"), (biopt.acceptance, "prox_power"))
TRACE_IO = ("write_ndjson", "write_csv", "from_ndjson")
ORACLE_METHODS = (("smooth", "value", "problems.value"),
                  ("smooth", "grad", "problems.grad"),
                  ("smooth", "hessian", "problems.hessian"),
                  ("smooth", "even_form", "problems.even_form"),
                  ("smooth", "even_form_grad", "problems.even_form"),
                  ("simple", "scaled_prox", "problems.scaled_prox"))
# Typed errors the lower level raises; each gets its own per-layer counter.
FAILURE_KINDS = ("SubproblemStall", "AcceptanceFailure")


class Tracer:
    """Span recorder; install() patches biopt, restore() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error: dict[int, str] = {}    # span -> exception type name
        self.iters: dict[int, int] = {}    # solve_acceptable span -> iterations
        self.opt_exit: set[int] = set()    # step spans ended by OptimalityReached
        self.prox_power_calls = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        except BaseException as exc:
            self.error[idx] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if name == "lower.solve_acceptable":
                self.iters[idx] = result[1]
            elif name == "driver.step" and result.get("branch") == "optimal":
                self.opt_exit.add(idx)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, attr, name in FUNCTION_SPANS:
            self._patch(module, attr, self.wrap(getattr(module, attr), name))
        for module, attr in COUNTED:
            self._patch(module, attr, self._counter(getattr(module, attr)))
        for attr in TRACE_IO:
            fn = self.wrap(getattr(biopt.driver.RunTrace, attr), "driver.trace_io")
            if attr == "from_ndjson":
                fn = staticmethod(fn)
            self._patch(biopt.driver.RunTrace, attr, fn)
        # the CLI builds its instance itself: wrap its oracles on the way in
        traced_run = biopt.cli.run

        def cli_run(instance, *args, **kwargs):
            self.wrap_instance(instance)
            return traced_run(instance, *args, **kwargs)
        self._patch(biopt.cli, "run", cli_run)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.prox_power_calls += self.op_id >= 0
            return fn(*args, **kwargs)
        return counted

    def wrap_instance(self, instance) -> None:
        """Wrap the oracle methods on the objects themselves: segment
        dispatches on isinstance, so a proxy class would change behaviour."""
        for part, method, name in ORACLE_METHODS:
            oracle = getattr(instance, part)
            if method not in vars(oracle):   # not wrapped yet
                setattr(oracle, method, self.wrap(getattr(oracle, method), name))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_ops: int, scale: np.ndarray) -> dict[str, float]:
        """Per-layer totals over the timed ops (op id >= 0), divided by the
        op count, with op i's durations calibrated by scale[i]; typed
        failures are counted over the whole traced run."""
        a = self.arrays()
        timed = a["op"] >= 0
        dur = (a["end"] - a["start"]) * np.where(timed, scale[a["op"]], 1.0)
        n = len(dur)
        child = np.bincount(a["parent"] + 1, weights=dur, minlength=n + 1)[1:]
        self_t = dur - child
        ok = np.ones(n, dtype=bool)
        ok[list(self.error)] = False

        def mask(*names):
            ids = [self._name_id[nm] for nm in names if nm in self._name_id]
            return np.isin(a["name"], ids) & timed

        def per_op(x) -> float:
            return float(np.sum(x)) / n_ops

        cli = mask("cli.run_cmd", "cli.verify_cmd")
        wrapped = mask("driver.run", "driver.verify")
        wrapped &= cli[np.maximum(a["parent"], 0)] & (a["parent"] >= 0)
        sa = mask("lower.solve_acceptable")
        bisect = mask("segment.bisect")
        halvings = sa & bisect[np.maximum(a["parent"], 0)] & (a["parent"] >= 0)
        sub = mask("lower.subproblem")
        iters = sum(self.iters[i] for i in np.flatnonzero(sa & ok))
        points = mask("acceptance.point") & ok
        out = {
            "cli.overhead_s": per_op(dur[cli]) - per_op(dur[wrapped]),
            "driver.outer_iters": per_op(mask("driver.step")),
            "driver.step_self_s": per_op(self_t[mask("driver.step")]),
            "driver.certificate_calls": per_op(mask("driver.certificate")),
            "driver.certificate_s": per_op(dur[mask("driver.certificate")]),
            "driver.trace_io_s": per_op(dur[mask("driver.trace_io")]),
            "driver.verify_s": per_op(dur[mask("driver.verify")]),
            "segment.bisections": per_op(halvings),
            "segment.bisect_self_s": per_op(self_t[bisect]),
            "segment.sprox_quadratic_calls": per_op(mask("segment.sprox_quadratic")),
            "segment.sprox_quadratic_s": per_op(dur[mask("segment.sprox_quadratic")]),
            "segment.reference_s": per_op(dur[mask("segment.reference")]),
            "segment.exact_1d_s": per_op(dur[mask("segment.exact_1d")]),
            "lower.solve_acceptable_calls": per_op(sa),
            "lower.acceptance_iters": iters / n_ops,
            "lower.accept_ratio": float(np.sum(sa & ok)) / max(int(np.sum(sub)), 1),
            "lower.solve_acceptable_self_s": per_op(self_t[sa]),
            "lower.subproblem_calls": per_op(sub),
            "lower.subproblem_s": per_op(dur[sub]),
            "acceptance.points": per_op(points),
            "acceptance.audit_s": per_op(dur[mask("acceptance.point")]),
            "numerics.linalg_solve_calls": per_op(mask("numerics.solve")),
            "numerics.eigh_calls": per_op(mask("numerics.eigh")),
            "numerics.linalg_s": per_op(dur[mask("numerics.solve", "numerics.eigh")]),
            "numerics.prox_power_calls": self.prox_power_calls / n_ops,
            "problems.oracle_s": per_op(dur[mask(*{nm for _, _, nm in ORACLE_METHODS})]),
        }
        for kind in ("value", "grad", "hessian", "even_form", "scaled_prox"):
            out[f"problems.{kind}_calls"] = per_op(mask(f"problems.{kind}"))
        failures = {}
        sa_id = self._name_id.get("lower.solve_acceptable")
        for idx, kind in self.error.items():
            if a["name"][idx] == sa_id and kind != "OptimalityReached":
                failures[kind] = failures.get(kind, 0) + 1
        for kind in FAILURE_KINDS:
            out[f"lower.failures.{kind}"] = failures.pop(kind, 0)
        out["lower.failures.other"] = sum(failures.values())
        return out

    def lower_counts(self) -> dict[int, tuple[int, int]]:
        """op id -> (acceptance iterations, bisection halvings) counted at the
        lower-level boundary, leaving out steps that ended in
        OptimalityReached (the trace records those with zero counts)."""
        bisect_id = self._name_id.get("segment.bisect", -2)
        step_id = self._name_id.get("driver.step", -2)
        counts: dict[int, list[int]] = {}
        for idx, iters in self.iters.items():
            parent, step = self.parent[idx], idx
            while step >= 0 and self.name[step] != step_id:
                step = self.parent[step]
            if step in self.opt_exit:
                continue
            c = counts.setdefault(self.op[idx], [0, 0])
            c[0] += iters
            c[1] += parent >= 0 and self.name[parent] == bisect_id
        return {op: (c[0], c[1]) for op, c in counts.items()}
