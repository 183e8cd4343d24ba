"""The benchmark's tracer (perfbench/tracing.py) patches biopt by name.

A change that drops or renames one of those names breaks a traced
benchmark run while every other test stays green; this test installs the
tracer over one superfast run and one in-process `biopt run` + `biopt
verify`, and checks that restore() puts every original object back.
"""

import importlib.util
import json
import pathlib
import sys

from click.testing import CliRunner

import biopt.cli
from biopt import build_logbar, run

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a fresh module, writing no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_run_restore(monkeypatch, tmp_path):
    tracer = load_tracing(monkeypatch).Tracer()
    originals = {}
    try:  # restore() undoes a partial install too
        tracer.install()
        # the first entry per name holds the original (biopt.cli.run is
        # wrapped twice)
        for owner, attr, orig in tracer._undo:
            originals.setdefault((owner, attr), orig)
        assert originals
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in originals.items())
        tracer.op_id = 0
        # seed 2 first bisects a segment at k = 90
        inst = build_logbar(10, 5, seed=2)
        tracer.wrap_instance(inst)
        run(inst, "superfast", p=3, beta=0.2, budget=91)
        trace_path = tmp_path / "t.ndjson"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": "quad-3", "mode": "exact", "p": 2,
                                   "H": 1.0, "budget": 10,
                                   "trace": str(trace_path)}))
        runner = CliRunner()
        assert runner.invoke(biopt.cli.main, ["run", "-c", str(cfg)]).exit_code == 0
        assert runner.invoke(biopt.cli.main, ["verify", str(trace_path)]).exit_code == 0
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in originals.items())
    assert {"driver.run", "driver.step", "driver.certificate", "driver.verify",
            "driver.trace_io", "segment.bisect", "segment.sprox_quadratic",
            "lower.solve_acceptable", "lower.subproblem",
            "acceptance.point"} <= set(tracer.names)
    assert tracer.prox_power_calls > 0
