"""Benchmark command line: run drivers, fit empirical rates, verify traces."""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys

import click
import numpy as np

from .config import BioptError
from .driver import RunTrace, check_run, rate_fit, run, verify_trace
from .problems import build_builtin, load_instance

USAGE_EXIT = 2
SOLVER_EXIT = 1


def _load_config(path: str) -> list[dict]:
    with open(path) as fh:
        cfg = json.load(fh)
    if isinstance(cfg, dict) and "runs" in cfg:
        cfg = cfg["runs"]
    if isinstance(cfg, dict):
        cfg = [cfg]
    if not isinstance(cfg, list) or not all(isinstance(c, dict) for c in cfg):
        raise ValueError("config must be an object or a list of objects")
    if not cfg:
        raise ValueError("config has no runs")
    return cfg


def _file_path(key: str, path):
    """path if it is a string without a NUL, else a ValueError naming key
    (open() would take an int as a file descriptor)."""
    if not (isinstance(path, str) and "\0" not in path):
        raise ValueError(f"{key} must be a file path, got {path!r}")
    return path


def _build_instance(spec, seed: int):
    if isinstance(spec, str):
        return build_builtin(spec, seed=seed)
    if isinstance(spec, dict) and "file" in spec:
        return load_instance(_file_path("instance file", spec["file"]))
    raise ValueError("instance must be a builtin name or {\"file\": path}")


def _run_args(cfg: dict) -> dict:
    """The keyword arguments of run that a config sets (mode defaults to exact)."""
    return {"mode": cfg.get("mode", "exact"),
            **{k: cfg[k] for k in ("p", "beta", "H", "M_next", "budget",
                                   "epsilon", "R") if k in cfg}}


def _prepared(cfg: dict):
    """(instance, x0) of a config that passes every check run makes, and
    whose instance file, trace and summary paths, if given, are strings
    without a NUL."""
    for key in ("trace", "summary"):
        if cfg.get(key):
            _file_path(key, cfg[key])
    seed = int(os.environ.get("BIOPT_SEED", cfg.get("seed", 0)))
    instance = _build_instance(cfg.get("instance", "example1d"), seed)
    return instance, check_run(instance, x0=cfg.get("x0"), **_run_args(cfg))[3]


def _run_one(cfg: dict, prepared: tuple) -> str:
    """Run one config on its _prepared (instance, x0) and return its
    summary line."""
    instance, x0 = prepared
    trace = run(instance, x0=x0, **_run_args(cfg))
    if cfg.get("trace"):
        trace.write_ndjson(cfg["trace"])
    if cfg.get("summary"):
        trace.write_csv(cfg["summary"])
    last = trace.records[-1]
    gap = last.get("gap_cert")
    total_lower = sum(r.get("lower_iters") or 0 for r in trace.records)
    total_bis = sum(r.get("bisections") or 0 for r in trace.records)
    return (f"{instance.name} {trace.config['mode']} status={trace.status} "
            f"k={last['k']} gap={'n/a' if gap is None else '%.6e' % gap} "
            f"lower_iters={total_lower} bisections={total_bis}")


@click.group()
def main():
    """Composite-minimization benchmark harness."""


@main.command("run")
@click.option("-c", "--config", "config_path", required=True,
              type=click.Path(), help="JSON config (single run or list).")
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="Run independent configs in parallel.")
def cmd_run(config_path, jobs):
    """Run driver(s) described by a config file and write traces."""
    try:
        configs = _load_config(config_path)
        prepared = [_prepared(cfg) for cfg in configs]
    except BioptError as exc:  # a builtin's reference solve failed
        click.echo(f"solver failure: {exc}", err=True)
        sys.exit(SOLVER_EXIT)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    try:
        if jobs > 1 and len(configs) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(configs))) as ex:
                for line in ex.map(_run_one, configs, prepared):
                    click.echo(line)
        else:
            for line in map(_run_one, configs, prepared):
                click.echo(line)
    # every config passed _prepared, so a failure here is the solver's
    except (BioptError, np.linalg.LinAlgError) as exc:
        click.echo(f"solver failure: {exc}", err=True)
        sys.exit(SOLVER_EXIT)
    except OSError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(USAGE_EXIT)


@main.command("rate-fit")
@click.argument("trace_path", type=click.Path())
@click.option("--kmin", default=10, show_default=True)
@click.option("--kmax", default=200, show_default=True)
def cmd_rate_fit(trace_path, kmin, kmax):
    """Fit the empirical convergence-rate exponent of a trace."""
    try:
        trace = RunTrace.from_ndjson(trace_path)
        slope, warnings = rate_fit(trace, kmin, kmax)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"trace error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    except BioptError as exc:
        click.echo(f"rate-fit error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"slope={slope:.6f}")


@main.command("verify")
@click.argument("trace_path", type=click.Path())
def cmd_verify(trace_path):
    """Replay recorded per-iteration invariants and report pass/fail."""
    try:
        trace = RunTrace.from_ndjson(trace_path)
        if not trace.records:
            raise ValueError("trace has no iteration records")
        report = verify_trace(trace)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"trace error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    failed = False
    for name, res in sorted(report.items()):
        mark = "pass" if res["ok"] else f"FAIL at k={res['violations'][:5]}"
        click.echo(f"{name}: {mark}")
        failed = failed or not res["ok"]
    if failed:
        sys.exit(SOLVER_EXIT)


if __name__ == "__main__":
    main()
