import copy
import inspect
import json
import math
import pathlib
import random
import re
import string

import numpy as np
import pytest
from click.testing import CliRunner

import biopt.cli
import biopt.lower
import biopt.problems
from biopt.cli import main
from biopt import RunTrace
from biopt.config import CONFIG, INSTANCE
from biopt.driver import check_run, run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# instance files whose shapes disagree: (content, the error's message)
EYE2 = [[1.0, 0.0], [0.0, 1.0]]
BAD_INSTANCE_FILES = {
    "q-shape.json": ({"family": "quadratic", "Q": [[1.0, 0.0, 0.0]], "c": [1.0]},
                     "Q of shape (1, 3) and c of shape (1,): need n x n and n"),
    "c-shape.json": ({"family": "quadratic", "Q": EYE2, "c": [1.0, 2.0, 3.0]},
                     "Q of shape (2, 2) and c of shape (3,): need n x n and n"),
    "box-shape.json": ({"family": "quadratic", "Q": EYE2, "c": [1.0, 2.0],
                        "psi": {"kind": "box", "lo": [-1.0] * 3, "hi": 1.0}},
                       "box lo and hi need a scalar or 2 entries each"),
}


class TestRun:
    def test_single_run(self, runner, tmp_path):
        cfg = {"instance": "example1d", "mode": "exact", "p": 3, "H": 1.0,
               "x0": [2.0], "budget": 50}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        assert "example1d exact status=optimal" in result.output

    def test_writes_trace_and_summary(self, runner, tmp_path):
        trace_path = tmp_path / "out.ndjson"
        csv_path = tmp_path / "out.csv"
        cfg = {"instance": "quad-2", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 20, "trace": str(trace_path), "summary": str(csv_path)}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        trace = RunTrace.from_ndjson(str(trace_path))
        assert trace.config["instance"] == "quad-2"
        assert len(trace.records) >= 2
        header = csv_path.read_text().splitlines()[0]
        assert header == "k,F_gap,A,g_k,branch,bisections,lower_iters"

    def test_run_list(self, runner, tmp_path):
        cfg = {"runs": [
            {"instance": "example1d", "mode": "exact", "p": 3, "H": 1.0,
             "x0": [2.0], "budget": 20},
            {"instance": "quad-2", "mode": "exact", "p": 2, "H": 1.0,
             "budget": 20},
        ]}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        assert result.output.count("status=") == 2

    def test_bad_beta_is_usage_error(self, runner, tmp_path):
        cfg = {"instance": "example1d", "mode": "inexact", "p": 3, "H": 1.0,
               "beta": 0.9}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert "beta out of range" in result.output

    def test_inexact_without_H_is_usage_error(self, runner, tmp_path):
        cfg = {"instance": "example1d", "mode": "inexact", "p": 3, "beta": 0.1}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert "inexact mode needs H" in result.output

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "-c", str(tmp_path / "nope.json")])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["run", "-c", str(path)])
        assert result.exit_code == 2

    def test_unknown_builtin_is_usage_error(self, runner, tmp_path):
        cfg = {"instance": "rosenbrock", "mode": "exact", "H": 1.0}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2

    def test_solver_failure_exits_1(self, runner, tmp_path, monkeypatch):
        # a run that raises (here the acceptance cap) stops with exit 1
        monkeypatch.setattr(biopt.lower, "MAX_ACCEPTANCE_STEPS", 1)
        cfg = {"instance": "logbar-10-3", "mode": "inexact", "p": 2, "H": 1.0,
               "beta": 1e-4, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 1
        assert result.output.count("solver failure:") == 1
        assert "acceptance not reached" in result.output

    def test_nan_step_is_solver_failure(self, runner, tmp_path, monkeypatch):
        # a numerical failure inside a solve is exit 1; it was reported as
        # "config error: non-finite point" with exit 2
        monkeypatch.setattr(biopt.lower, "subproblem_solve",
                            lambda sf, *args: np.full(sf.y.shape, np.nan))
        cfg = {"instance": "quad-3", "mode": "inexact", "p": 2, "H": 1.0,
               "beta": 0.1, "budget": 5}
        with np.errstate(invalid="ignore"):
            result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 1
        assert result.output.count("solver failure:") == 1
        assert "non-finite point" in result.output
        assert "config error:" not in result.output

    def test_linalg_error_in_a_run_is_solver_failure(self, runner, tmp_path,
                                                     monkeypatch):
        # numpy's LinAlgError is a ValueError; mid-run it is not a config error
        def fail(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(biopt.lower, "subproblem_solve", fail)
        cfg = {"instance": "quad-3", "mode": "inexact", "p": 2, "H": 1.0,
               "beta": 0.1, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 1
        assert result.output.count("solver failure:") == 1
        assert "config error:" not in result.output

    @pytest.mark.parametrize("key", ["trace", "summary"])
    @pytest.mark.parametrize("path", ["t\0.ndjson", ["t.ndjson"], [], 0, {}])
    def test_bad_output_path_is_usage_error(self, runner, tmp_path, key, path):
        # refused before any run, as open() would fail only after the solve
        # (and would open a file descriptor given as an int); [], 0 and {}
        # once ran and wrote nothing
        cfg = {"instance": "quad-3", "mode": "inexact", "p": 2, "H": 1.0,
               "beta": 0.1, "budget": 5, key: path}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert f"{key} must be a file path" in result.output
        assert "status=" not in result.output

    def test_x0_outside_psi_is_usage_error(self, runner, tmp_path):
        # the run started at ones and wrote F_val = inf in record 0, a
        # trace that biopt verify refuses
        inst = write_config(tmp_path, {
            "family": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]], "c": [1.0, 0.0],
            "psi": {"kind": "box", "lo": -0.5, "hi": 0.5}}, "box.json")
        trace = tmp_path / "t.ndjson"
        cfg = {"instance": {"file": inst}, "mode": "inexact", "p": 2, "H": 1.0,
               "beta": 0.1, "budget": 20, "x0": [1.0, 1.0], "trace": str(trace)}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert "x0 lies outside the domain of psi: psi(x0) is not finite" \
            in result.output
        assert "status=" not in result.output
        assert not trace.exists()

    def test_failed_reference_solve_exits_1(self, runner, tmp_path,
                                            monkeypatch):
        # building logbar-10-5 runs Newton for x*; its cap fails the config
        # check with exit 1, before any run
        monkeypatch.setattr(biopt.problems, "MAX_NEWTON_STEPS", 1)
        cfg = {"instance": "logbar-10-5", "mode": "superfast", "p": 2,
               "beta": 0.2, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 1
        assert "solver failure:" in result.output
        assert "status=" not in result.output

    def test_list_with_non_object_is_usage_error(self, runner, tmp_path):
        # a non-object in the list, or a list of no runs at all
        cases = [([{"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0}, 3],
                  "config must be an object or a list of objects"),
                 ([], "config has no runs"),
                 ({"runs": []}, "config has no runs"),
                 # once read as one run of key "a", refused for want of H
                 ({"runs": {"a": 1}}, "runs must be a list of objects, got dict")]
        for cfg, message in cases:
            result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
            assert result.exit_code == 2, cfg
            assert result.output.count("config error:") == 1
            assert message in result.output

    def test_unwritable_trace_is_usage_error(self, runner, tmp_path):
        # the run completes, then writing its trace fails
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 5, "trace": str(tmp_path / "missing" / "t.ndjson")}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert "No such file or directory" in result.output

    def test_seed_env_override(self, runner, tmp_path):
        trace_a = tmp_path / "a.ndjson"
        trace_b = tmp_path / "b.ndjson"
        base = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
                "budget": 10, "seed": 0}
        cfg_a = dict(base, trace=str(trace_a))
        cfg_b = dict(base, trace=str(trace_b))
        r1 = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg_a)])
        r2 = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg_b, "b.json")],
                           env={"BIOPT_SEED": "7"})
        assert r1.exit_code == 0 and r2.exit_code == 0
        a = RunTrace.from_ndjson(str(trace_a))
        b = RunTrace.from_ndjson(str(trace_b))
        # a different seed builds a different instance, so F* moves
        assert a.config["F_star"] != b.config["F_star"]

    @pytest.mark.parametrize("seed", [math.inf, 1.5, True])
    def test_non_integer_seed_is_usage_error(self, runner, tmp_path, seed):
        # int() once raised OverflowError on Infinity and ran 1.5 and true
        # as seed 1
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 5, "seed": seed}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output == f"config error: seed must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_env_seed_is_usage_error(self, runner, tmp_path, value):
        # int()'s own message once stood alone: "invalid literal for int()
        # with base 10: 'abc'" named no input
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)],
                               env={"BIOPT_SEED": value})
        assert result.exit_code == 2
        assert result.output == (f"config error: BIOPT_SEED must be an integer, "
                                 f"got {value!r}\n")

    @pytest.mark.parametrize("mode, p, order", [("superfast", 6, 7),
                                                ("inexact", 8, 8)])
    def test_untabulated_softplus_order_is_usage_error(self, runner, tmp_path,
                                                        mode, p, order):
        # softplus derivatives are tabulated up to order 6: superfast at
        # p = 6 reads M_7 and inexact at p = 8 expands to order 8, which
        # once raised NotImplementedError tracebacks (exit 1), the inexact
        # one mid-run
        rng = np.random.default_rng(0)
        inst_path = tmp_path / "softplus.json"
        inst_path.write_text(json.dumps(
            {"family": "softplus", "A": rng.standard_normal((6, 3)).tolist(),
             "b": rng.standard_normal(6).tolist()}))
        cfg = {"instance": {"file": str(inst_path)}, "mode": mode, "p": p,
               "budget": 5, **({"H": 1.0} if mode == "inexact" else {})}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert f"up to order {order}; its oracle gives them up to order 6" \
            in result.output
        # one order lower is tabulated, and check_run passes it
        inst = biopt.problems.load_instance(str(inst_path))
        check_run(inst, mode, p=p - 1, **({"H": 1.0} if mode == "inexact" else {}))

    def test_instance_from_file(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(
            {"family": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]],
             "c": [1.0, -1.0], "name": "filed"}))
        cfg = {"instance": {"file": str(inst_path)}, "mode": "exact", "p": 2,
               "H": 1.0, "budget": 20}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        assert "filed exact" in result.output

    @pytest.mark.parametrize("c, code", [([1.0, 1.0, 0.0], 0),
                                         ([1.0, 1.0, 1.0], 2)])
    def test_singular_quadratic_file(self, runner, tmp_path, c, code):
        # a PSD Q with a zero eigenvalue runs when c is in its range; off
        # it, f is unbounded below, a config error
        inst_path = write_config(tmp_path, {
            "family": "quadratic", "Q": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                         [0.0, 0.0, 0.0]], "c": c}, "inst.json")
        cfg = {"instance": {"file": inst_path}, "mode": "exact", "p": 2,
               "H": 1.0, "x0": [1.0, 1.0, 1.0], "budget": 50}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == code
        if code:
            assert "config error: f is unbounded below" in result.output
        else:
            assert "status=optimal" in result.output

    def test_non_finite_quadratic_file(self, runner, tmp_path):
        # json.dumps writes NaN as the literal NaN; the run was once refused
        # at x0, as outside the domain of f
        inst_path = write_config(tmp_path, {
            "family": "quadratic", "Q": [[math.nan, 0.0], [0.0, 1.0]],
            "c": [1.0, 1.0]}, "inst.json")
        cfg = {"instance": {"file": inst_path}, "mode": "exact", "p": 2,
               "H": 1.0, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert "config error: Q has an entry that is NaN or infinite" in result.output

    @pytest.mark.parametrize("psi", [
        {"kind": "l1", "weight": -0.5},
        {"kind": "box", "lo": [1.0, 1.0], "hi": [-1.0, -1.0]},
    ])
    def test_invalid_psi_is_usage_error(self, runner, tmp_path, psi):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(
            {"family": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]],
             "c": [1.0, -1.0], "psi": psi}))
        cfg = {"instance": {"file": str(inst_path)}, "mode": "inexact", "p": 2,
               "H": 1.0, "beta": 0.1, "budget": 20}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert "config error" in result.output

    @pytest.mark.parametrize("file", [0, True, "inst\0.json"])
    def test_bad_instance_path_is_usage_error(self, runner, tmp_path, file):
        # open() took 0 as stdin's file descriptor, and closed it, and True
        # as stdout's
        cfg = {"instance": {"file": file}, "mode": "exact", "p": 2, "H": 1.0,
               "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error: instance file must be a "
                                   "file path") == 1

    @pytest.mark.parametrize("content, message", [
        ([1, 2], "instance file must hold a JSON object, got list"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "psi": ["l1"]},
         "psi must be a JSON object, got ['l1']"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "name": {"a": 1}},
         "instance name must be a string, got dict"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "name": 3},
         "instance name must be a string, got int"),
        ({"Q": EYE2, "c": [1.0, 1.0]}, "instance file lacks family"),
        ({"family": "quadratic", "Q": EYE2}, "instance file lacks c"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "box", "lo": -1.0}}, "psi lacks hi"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "A": EYE2},
         "instance file with family 'quadratic' takes no A"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "slack_min": 0.1},
         "instance file with family 'quadratic' takes no slack_min"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "l1", "lo": -1.0}}, "psi with kind 'l1' takes no lo"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0], "psi": {"weight": 3}},
         "psi with kind 'zero' takes no weight"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "l1", "weight": "3"}},
         "l1 psi needs a finite weight >= 0, got '3'"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "l1", "weight": True}},
         "l1 psi needs a finite weight >= 0, got True"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "box", "lo": -1.0, "hi": "1"}},
         "psi hi must be a number or a list of numbers, got '1'"),
        ({"family": "quadratic", "Q": EYE2, "c": [1.0, 1.0],
          "psi": {"kind": "box", "lo": [[-1.0], [-1.0, -2.0]], "hi": 1.0}},
         "psi lo must be a number or a list of numbers, got [[-1.0], [-1.0, -2.0]]"),
        ({"family": "quadratic", "Q": EYE2, "c": ["1", "-1"]},
         "c must be a number or a list of numbers, got ['1', '-1']"),
        ({"family": "quadratic", "Q": [[1.0], [0.0, 1.0]], "c": [1.0, 1.0]},
         "Q must be a number or a list of numbers, got [[1.0], [0.0, 1.0]]"),
        ({"family": "log_barrier", "A": [[1.0], [-1.0]], "b": [True, False]},
         "b must be a number or a list of numbers, got [True, False]"),
    ])
    def test_malformed_instance_file_is_usage_error(self, runner, tmp_path,
                                                    content, message):
        # the first two once raised a bare AttributeError, a traceback with
        # exit 1; a non-string name once ran and printed in the summary
        # line; a missing family, c or hi was a bare KeyError ('family');
        # a key the family or psi kind does not read was ignored; a weight
        # of "3" or true ran as 3.0 or 1.0, a hi of "1" as 1.0 and a c of
        # strings as numbers; a ragged Q was numpy's "setting an array
        # element with a sequence", which named no key
        inst_path = write_config(tmp_path, content, "inst.json")
        cfg = {"instance": {"file": inst_path}, "mode": "exact", "p": 2,
               "H": 1.0, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count(f"config error: {message}") == 1

    def test_empty_box_file_is_usage_error(self, runner, tmp_path):
        # json.dumps writes inf as the literal Infinity; a box with lo = hi
        # = +inf was accepted and failed mid-run on "non-finite point"
        inst_path = write_config(tmp_path, {
            "family": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]], "c": [1.0, -1.0],
            "psi": {"kind": "box", "lo": [math.inf, -1.0], "hi": [math.inf, 1.0]}},
            "inst.json")
        assert "Infinity" in (tmp_path / "inst.json").read_text()
        cfg = {"instance": {"file": inst_path}, "mode": "inexact", "p": 2,
               "H": 1.0, "beta": 0.1, "budget": 20}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error: box psi is empty") == 1

    @pytest.mark.parametrize("slack_min", [0.0, -0.5, float("nan")])
    def test_bad_slack_min_is_usage_error(self, runner, tmp_path, slack_min):
        # slack_min 0 once made superfast divide by zero in deriv_bound
        inst_path = write_config(tmp_path, {
            "family": "log_barrier", "A": [[1.0], [-1.0]], "b": [0.0, -2.0],
            "slack_min": slack_min}, "inst.json")
        cfg = {"instance": {"file": inst_path}, "mode": "superfast", "p": 2,
               "beta": 0.1, "x0": [1.0], "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error: slack_min must be a positive "
                                   "finite number") == 1

    @pytest.mark.parametrize("H", [0.0, -1.0])
    def test_nonpositive_H_is_usage_error(self, runner, tmp_path, H):
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": H,
               "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert "H must be positive" in result.output

    @pytest.mark.parametrize("change", [
        {"H": "1"}, {"R": "2"},
        {"mode": "superfast", "beta": 0.2, "M_next": "5"},
        {"epsilon": 0}, {"epsilon": -1}, {"R": -1}, {"R": 0, "epsilon": 1e-3},
        {"p": 2.5}, {"budget": -3}, {"x0": [1.0, 2.0]},
        {"instance": 5}, {"instance": {"path": "inst.json"}},
        {"instance": {"file": "q-shape.json"}}, {"instance": {"file": "c-shape.json"}},
        {"instance": {"file": "box-shape.json"}},
    ])
    def test_malformed_config_is_usage_error(self, runner, tmp_path, change):
        spec = change.get("instance")
        name = spec.get("file") if isinstance(spec, dict) else None
        if name is not None:  # an instance file with a shape mismatch
            content, message = BAD_INSTANCE_FILES[name]
            change = {"instance": {"file": write_config(tmp_path, content, name)}}
        cfg = dict({"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
                    "budget": 5}, **change)
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert "status=" not in result.output
        assert name is None or message in result.output

    @pytest.mark.parametrize("cfg, message", [
        ({"instance": "quad-3", "mdoe": "superfast", "budgt": 3, "p": 2, "H": 1.0},
         "config has unknown key 'mdoe'"),
        ({"instance": "quad-3", "mode": "exact", "budgt": 3, "p": 2, "H": 1.0},
         "config has unknown key 'budgt'"),
        ({"instance": "quad-3", "mode": "inexact", "p": 2, "H": 1.0, "beta": 0.1,
          "M_next": 5.0}, "config with mode 'inexact' takes no M_next"),
        ({"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "beta": 0.1},
         "config with mode 'exact' takes no beta"),
        ({"instance": "example1d", "mode": "exact", "p": 2, "H": 1.0, "seed": 5},
         "config with instance example1d takes no seed"),
        ({"instance": {"file": "inst.json"}, "mode": "exact", "p": 2, "H": 1.0,
          "seed": 5}, "config with instance file takes no seed"),
        ({"instance": {"file": "inst.json", "fiel": "inst.json"}, "mode": "exact",
          "p": 2, "H": 1.0}, "instance has unknown key 'fiel'"),
        ({"instance": "quad-2", "mode": "exact", "p": 2, "H": 1.0,
          "x0": ["1", "1"]}, "x0 must be a number or a list of numbers, "
                             "got ['1', '1']"),
    ])
    def test_key_the_mode_does_not_read_is_usage_error(self, runner, tmp_path,
                                                       cfg, message):
        # each was ignored: the first ran exact mode to optimal, exit 0, and
        # x0's strings ran as numbers
        trace = tmp_path / "t.ndjson"
        cfg = dict(cfg, trace=str(trace))
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"
        assert not trace.exists()

    def test_bad_config_in_list_stops_before_any_run(self, runner, tmp_path):
        # errors that need the instance (exact mode's oracle, superfast's
        # M_{p+1}) are found up front too: the first run writes no trace
        l1_file = write_config(tmp_path, {
            "family": "quadratic", "Q": EYE2, "c": [1.0, -1.0],
            "psi": {"kind": "l1", "weight": 0.5}}, "l1.json")
        trace = tmp_path / "first.ndjson"
        for second, message in [
            ({"instance": "quad-3", "mode": "exact", "p": 2, "budget": 5},
             "exact mode needs H"),
            ({"instance": {"file": l1_file}, "mode": "exact", "p": 2, "H": 1.0,
              "budget": 5}, "no exact segment-search oracle"),
            ({"instance": "quad-3", "mode": "superfast", "p": 2, "beta": 0.2,
              "budget": 5}, "needs a positive M_{p+1} bound"),
        ]:
            cfg = {"runs": [
                {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
                 "budget": 5, "trace": str(trace)},
                second,
            ]}
            result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
            assert result.exit_code == 2
            assert result.output.count("config error:") == 1
            assert message in result.output
            assert "status=" not in result.output
            assert not trace.exists()

    def test_wrong_x0_in_list_stops_before_any_run(self, runner, tmp_path):
        # the x0 length is checked against each config's instance up front
        cfg = {"runs": [
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "budget": 5,
             "x0": [1.0]},
        ]}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert "x0 has shape (1,)" in result.output
        assert "status=" not in result.output

    @pytest.mark.parametrize("cfg, message", [
        ({"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
          "x0": [float("nan"), 0.0, 0.0]}, "x0 lies outside the domain of f"),
        ({"instance": "logbar-10-5", "mode": "superfast", "p": 2, "beta": 0.2,
          "x0": [100.0] * 5}, "x0 lies outside the domain of f"),
        ({"instance": {"file": "indefinite.json"}, "mode": "inexact", "p": 2,
          "H": 1.0, "beta": 0.1}, "Q must be positive semidefinite"),
        ({"instance": "quad-3", "mode": "inexact", "p": 1, "H": 1.0,
          "beta": 0.1}, ">= 2 for inexact and superfast modes"),
    ])
    def test_refused_before_the_run(self, runner, tmp_path, cfg, message):
        # each of these once ran and exited 1 with a solver failure
        if isinstance(cfg["instance"], dict):
            cfg = dict(cfg, instance={"file": write_config(tmp_path, {
                "family": "quadratic", "Q": [[1.0, 0.0], [0.0, -1.0]],
                "c": [0.0, 0.0]}, cfg["instance"]["file"])})
        trace = tmp_path / "t.ndjson"
        cfg = dict(cfg, budget=20, trace=str(trace))
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert message in result.output
        assert "status=" not in result.output
        assert not trace.exists()

    def test_superfast_with_H_is_usage_error(self, runner, tmp_path):
        # superfast derives H from M_{p+1}; a given H was silently replaced
        cfg = {"instance": "logbar-10-3", "mode": "superfast", "p": 2,
               "beta": 0.2, "H": 5.0, "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 2
        assert result.output.count("config error:") == 1
        assert "takes no H" in result.output
        assert "status=" not in result.output

    def test_serial_run_builds_each_instance_once(self, runner, tmp_path,
                                                  monkeypatch):
        # the up-front check's instance is the one that runs
        built = []
        build = biopt.cli.build_builtin
        monkeypatch.setattr(biopt.cli, "build_builtin",
                            lambda *a, **k: built.append(a) or build(*a, **k))
        cfg = {"runs": [
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
            {"instance": "quad-2", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
        ]}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        assert result.output.count("status=") == 2
        assert built == [("quad-3",), ("quad-2",)]

    def test_parallel_jobs_build_each_instance_once(self, runner, tmp_path,
                                                    monkeypatch):
        # the workers run the instances the up-front check built; the spy
        # logs to a file, so a call in a (forked) worker would show too
        log = tmp_path / "built.log"
        build = biopt.cli.build_builtin

        def spy(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{args[0]}\n")
            return build(*args, **kwargs)
        monkeypatch.setattr(biopt.cli, "build_builtin", spy)
        cfg = {"runs": [
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
            {"instance": "logbar-10-3", "mode": "superfast", "p": 2,
             "beta": 0.2, "budget": 5},
        ]}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg),
                                      "--jobs", "2"])
        assert result.exit_code == 0
        assert result.output.count("status=") == 2
        assert log.read_text().split() == ["quad-3", "logbar-10-3"]

    def test_pool_takes_no_more_workers_than_configs(self, runner, tmp_path,
                                                     monkeypatch):
        # the fork start method launches every worker up front, so --jobs 64
        # forked 64 processes for two configs; the stub starts none
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)
        monkeypatch.setattr(biopt.cli.concurrent.futures, "ProcessPoolExecutor",
                            Pool)
        cfg = {"runs": [
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
            {"instance": "quad-2", "mode": "exact", "p": 2, "H": 1.0, "budget": 5},
        ]}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg),
                                      "--jobs", "64"])
        assert result.exit_code == 0
        assert result.output.count("status=") == 2
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_1_is_usage_error(self, runner, tmp_path, jobs):
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 5}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg),
                                      "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.output
        assert "status=" not in result.output

    def test_check_run_defaults_are_runs(self):
        # biopt run checks a config up front with check_run, which must then
        # judge the values run falls back to: the same parameters, in order
        check = inspect.signature(check_run).parameters
        full = inspect.signature(run).parameters
        for name, param in check.items():
            assert param.default == full[name].default, name
        assert list(check) == list(full)

    def test_parallel_jobs_match_serial(self, runner, tmp_path):
        # the process-pool path (two workers) prints the serial lines, in order
        cfg = {"runs": [
            {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
             "budget": 20},
            {"instance": "example1d", "mode": "inexact", "p": 3, "H": 1.0,
             "beta": 0.1, "x0": [2.0], "budget": 20},
        ]}
        path = write_config(tmp_path, cfg)
        serial = runner.invoke(main, ["run", "-c", path, "--jobs", "1"])
        parallel = runner.invoke(main, ["run", "-c", path, "--jobs", "2"])
        assert serial.exit_code == 0 and parallel.exit_code == 0
        assert len(serial.output.splitlines()) == 2
        assert parallel.output.splitlines() == serial.output.splitlines()


# each field of a valid config and instance file is replaced by each of
# these in turn, and once has its key misspelt (MISSPELT)
FUZZ_VALUES = [None, True, "1", [], {}, -1, 0, 1.5, math.nan, math.inf, "",
               "\u0000", [[1.0], [2.0, [3.0]]]]
MISSPELT = object()


def readme_table(header: str) -> list[list[str]]:
    """The cells of each row of README's table whose header line starts
    with header."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header)) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestSchema:
    def test_fuzzed_fields_exit_cleanly(self, runner, tmp_path):
        # a seeded misspelling per key; no size or budget is drawn.  Each
        # run exits 0, 1 or 2 without a traceback, a failed one with one
        # error line, and a misspelt key is refused by name
        rng = random.Random(0)
        inst = {"family": "quadratic", "name": "fuzz", "Q": EYE2, "c": [1.0, -1.0],
                "psi": {"kind": "l1", "weight": 0.5}}
        cfg = {"instance": {"file": "inst.json"}, "mode": "inexact", "p": 2,
               "beta": 0.1, "H": 1.0, "budget": 3, "epsilon": 1e-6, "R": 10.0,
               "x0": [1.0, 1.0], "trace": "t.ndjson",
               "summary": "s.csv"}
        fields = ([("cfg", key) for key in cfg] + [("cfg", "instance", "file")]
                  + [("inst", key) for key in inst]
                  + [("inst", "psi", key) for key in inst["psi"]])
        known = set(CONFIG) | set(INSTANCE) | set(INSTANCE["psi"][0]) | {"file"}
        with runner.isolated_filesystem(temp_dir=tmp_path):
            for field in fields:
                for value in FUZZ_VALUES + [MISSPELT]:
                    files = {"cfg": copy.deepcopy(cfg), "inst": copy.deepcopy(inst)}
                    parent = files[field[0]]
                    for key in field[1:-1]:
                        parent = parent[key]
                    key = field[-1]
                    if value is MISSPELT:
                        at = rng.randrange(len(key) + 1)
                        typo = key[:at] + rng.choice(string.ascii_lowercase) + key[at:]
                        assert typo not in known
                        parent[typo] = parent.pop(key)
                    else:
                        parent[key] = value
                    for name, content in files.items():
                        with open(f"{name}.json", "w") as fh:
                            json.dump(content, fh)
                    result = runner.invoke(main, ["run", "-c", "cfg.json"])
                    case = (field, "misspelt" if value is MISSPELT else value,
                            result.output)
                    assert result.exit_code in (0, 1, 2), case
                    assert isinstance(result.exception, (SystemExit, type(None))), case
                    assert "Traceback" not in result.output, case
                    if value is MISSPELT:  # once ignored, and run
                        assert result.exit_code == 2, case
                        assert f"unknown key {typo!r}" in result.output, case
                    if result.exit_code:
                        assert len(result.output.splitlines()) == 1, case
                        assert result.output.startswith(
                            ("config error: ", "solver failure: ")), case

    def test_readme_config_table_matches_the_schema(self):
        documented = {}
        for row in readme_table("| field "):
            key, = re.findall(r"`(\w+)`", row[0])
            documented[key] = (None if row[-1] == "all"
                               else set(re.findall(r"`(\w+)`", row[-1])))
        assert documented == {key: readers and set(readers)
                              for key, (_, _, readers) in CONFIG.items()}

    def test_readme_instance_table_matches_the_schema(self):
        # family and psi kind rows give each key's readers, * its being required
        documented = {}
        for row in readme_table("| family or ψ kind"):
            readers = None if row[0].startswith("every") \
                else set(re.findall(r"`(\w+)`", row[0]))
            for key, star in re.findall(r"`(\w+)`(\*?)", row[1]):
                before = documented.get(key, (set(),))[0]
                documented[key] = (readers and before | readers, star == "*")
        expected = {key: (readers and set(readers), required)
                    for table in (INSTANCE, INSTANCE["psi"][0])
                    for key, (_, required, readers) in table.items()}
        assert documented == expected


class TestRateFit:
    def make_trace_file(self, tmp_path, n=100):
        records = [{"k": k, "F_val": float(k) ** -3.5, "A": float(k)}
                   for k in range(1, n + 1)]
        trace = RunTrace(config={"F_star": 0.0, "p": 2}, records=records,
                         status="budget")
        path = tmp_path / "trace.ndjson"
        trace.write_ndjson(str(path))
        return str(path)

    def test_slope_output(self, runner, tmp_path):
        path = self.make_trace_file(tmp_path)
        result = runner.invoke(main, ["rate-fit", path, "--kmin", "10",
                                      "--kmax", "100"])
        assert result.exit_code == 0
        assert "slope=-3.500000" in result.output

    def test_gap_underflow_warns_and_truncates(self, runner, tmp_path):
        # from k = 41 the gap sits at the 1e-14 floor: the fit stops there
        path = self.make_trace_file(tmp_path)
        trace = RunTrace.from_ndjson(path)
        for rec in trace.records[40:]:
            rec["F_val"] = 1e-14
        trace.write_ndjson(path)
        result = runner.invoke(main, ["rate-fit", path])
        assert result.exit_code == 0
        assert "warning: gap underflow at k=41; truncating range" in result.output
        assert "slope=-3.500000" in result.output

    def test_too_few_points(self, runner, tmp_path):
        path = self.make_trace_file(tmp_path, n=5)
        result = runner.invoke(main, ["rate-fit", path])
        assert result.exit_code == 2
        assert "at least 10 usable points" in result.output

    def test_missing_trace(self, runner, tmp_path):
        result = runner.invoke(main, ["rate-fit", str(tmp_path / "no.ndjson")])
        assert result.exit_code == 2


class TestVerify:
    def run_and_trace(self, runner, tmp_path):
        trace_path = tmp_path / "t.ndjson"
        cfg = {"instance": "quad-3", "mode": "exact", "p": 2, "H": 1.0,
               "budget": 20, "trace": str(trace_path)}
        result = runner.invoke(main, ["run", "-c", write_config(tmp_path, cfg)])
        assert result.exit_code == 0
        return trace_path

    def test_clean_trace_passes(self, runner, tmp_path):
        trace_path = self.run_and_trace(runner, tmp_path)
        result = runner.invoke(main, ["verify", str(trace_path)])
        assert result.exit_code == 0
        assert "descent: pass" in result.output
        assert "FAIL" not in result.output

    def test_tampered_trace_fails(self, runner, tmp_path):
        trace_path = self.run_and_trace(runner, tmp_path)
        trace = RunTrace.from_ndjson(str(trace_path))
        trace.records[3]["F_val"] += 5.0
        trace.write_ndjson(str(trace_path))
        result = runner.invoke(main, ["verify", str(trace_path)])
        assert result.exit_code == 1
        assert "descent: FAIL" in result.output

    def test_zero_H_in_trace_is_usage_error(self, runner, tmp_path):
        trace_path = self.run_and_trace(runner, tmp_path)
        trace = RunTrace.from_ndjson(str(trace_path))
        trace.config["H"] = 0.0
        trace.write_ndjson(str(trace_path))
        result = runner.invoke(main, ["verify", str(trace_path)])
        assert result.exit_code == 2
        assert "H must be positive" in result.output

    @pytest.mark.parametrize("mode", ["bogus", 5])
    def test_unknown_mode_in_trace_is_usage_error(self, runner, tmp_path, mode):
        # a mode none of the drivers has is a malformed trace (exit 2), not
        # a replay with some other driver's rates that fails its checks
        trace_path = self.run_and_trace(runner, tmp_path)
        trace = RunTrace.from_ndjson(str(trace_path))
        trace.config["mode"] = mode
        trace.write_ndjson(str(trace_path))
        result = runner.invoke(main, ["verify", str(trace_path)])
        assert result.exit_code == 2
        assert f"trace error: unknown mode {mode!r}" in result.output

    def test_corrupt_trace_is_usage_error(self, runner, tmp_path):
        # exit 1 means a failed check or solver; a malformed trace is exit 2
        # for both commands that read one: not JSON, a line that is not an
        # object, a config or iteration record without a field every check
        # reads (the message names each missing field), a string F_val, p or
        # g_k or a huge F_val (the message names the field and its record)
        config = '{"type": "config", "F_star": 0.0, "p": 2}\n'
        full = ('{"type": "config", "mode": "exact", "p": 2, "H": 1.0, '
                '"beta": 0.0, "F_star": 0.0, "R": 1.0, "R0": 0.5}\n')
        record0 = '{"k": 0, "F_val": 1.0, "A": 0.0, "B_cert": 0.0}\n'
        no_config = "trace config lacks mode, H, beta, R, R0"
        junk = [("this is not ndjson\n", None, None), ('"x"\n', None, None),
                ("[1, 2]\n", None, None),
                (config + '{"k": 10, "A": 1.0}\n',
                 no_config, "trace record 0 lacks F_val"),
                (config + '{"k": 10, "A": 1.0, "F_val": "1.0"}\n',
                 no_config, None),
                (full + '{"k": 0, "F_val": 1.0}\n{"F_val": 0.5}\n',
                 "trace record 0 lacks A, B_cert", "trace record 1 lacks k"),
                (full + record0.replace("1.0", '"1.0"'),
                 "trace record 0 has F_val = '1.0', not a finite number",
                 "trace record 0 has F_val = '1.0', not a finite number"),
                # an integer beyond the float range
                (full + record0.replace("1.0", "1" + "0" * 400),
                 "trace record 0 has F_val = 1000", "trace record 0 has F_val = 1000"),
                # fields only verify reads: one message, verify alone
                (full.replace('"p": 2', '"p": "2"') + record0,
                 "trace config has p = '2', not a finite number"),
                (full + record0 + '{"k": 1, "F_val": 0.5, "A": 1.0, '
                 '"B_cert": 0.1, "a": 1.0, "g_k": "x"}\n',
                 "trace record 1 has g_k = 'x', not a finite number")]
        path = tmp_path / "junk.ndjson"
        for text, *messages in junk:
            path.write_text(text)
            for command, message in zip(("verify", "rate-fit"), messages):
                result = runner.invoke(main, [command, str(path)])
                assert result.exit_code == 2, (command, text)
                assert "trace error" in result.output
                assert message is None or message in result.output, \
                    (command, result.output)

    def test_empty_trace_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "empty.ndjson"
        trace = RunTrace(config={"p": 2}, records=[])
        trace.write_ndjson(str(path))
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2
