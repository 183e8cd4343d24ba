"""Benchmark command line: run drivers, fit empirical rates, verify traces."""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys

import click
import numpy as np

from .config import CONFIG, INSTANCE_FILE, MODES, BioptError, check_keys
from .driver import RunTrace, check_run, rate_fit, run, verify_trace
from .problems import build_builtin, load_instance

USAGE_EXIT = 2
SOLVER_EXIT = 1


def _load_config(path: str) -> list[dict]:
    """The runs of a config file: one object, a list of them, or an object
    whose one key runs holds that list."""
    with open(path) as fh:
        cfg = json.load(fh)
    if isinstance(cfg, dict) and set(cfg) == {"runs"}:
        cfg = cfg["runs"]
        if not isinstance(cfg, list):
            raise ValueError(f"runs must be a list of objects, got "
                             f"{type(cfg).__name__}")
    elif isinstance(cfg, dict):
        cfg = [cfg]
    if not isinstance(cfg, list) or not all(isinstance(c, dict) for c in cfg):
        raise ValueError("config must be an object or a list of objects")
    if not cfg:
        raise ValueError("config has no runs")
    return cfg


def _run_args(cfg: dict) -> dict:
    """The keyword arguments of run that a config sets: its mode (exact by
    default) and its keys of kind "run" in config.CONFIG."""
    return {"mode": cfg.get("mode", MODES[0]),
            **{k: v for k, v in cfg.items() if CONFIG[k][0] == "run"}}


def _prepared(cfg: dict):
    """(instance, x0) of a config whose keys pass config.CONFIG, whose seed,
    if any, is for a quad or logbar builtin, and whose values pass every
    check run makes.  BIOPT_SEED, if set, overrides the seed and must read
    as an integer."""
    check_keys(cfg, CONFIG, "config")
    spec = cfg.get("instance", "example1d")
    if isinstance(spec, dict):
        check_keys(spec, INSTANCE_FILE, "instance", "instance ")
    if "seed" in cfg and (isinstance(spec, dict) or spec == "example1d"):
        raise ValueError(f"config with instance "
                         f"{'file' if isinstance(spec, dict) else spec} takes no seed")
    seed = cfg.get("seed", 0)
    env_seed = os.environ.get("BIOPT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValueError(f"BIOPT_SEED must be an integer, "
                             f"got {env_seed!r}") from None
    instance = (build_builtin(spec, seed=seed) if isinstance(spec, str)
                else load_instance(spec["file"]))
    return instance, check_run(instance, **_run_args(cfg))[3]


def _run_one(cfg: dict, prepared: tuple) -> str:
    """Run one config on its _prepared (instance, x0) and return its
    summary line."""
    instance, x0 = prepared
    trace = run(instance, **dict(_run_args(cfg), x0=x0))
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
    click.echo("\n".join(
        f"{name}: " + ("pass" if res["ok"] else f"FAIL at k={res['violations'][:5]}")
        for name, res in sorted(report.items())))
    if not all(res["ok"] for res in report.values()):
        sys.exit(SOLVER_EXIT)


if __name__ == "__main__":
    main()
