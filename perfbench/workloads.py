"""The benchmark's four workloads: inputs drawn from the seed, one op, its checks.

Each workload is a fixed panel of problems.  Every pass over the panel
draws fresh inputs from the seed: an isometry of each panel problem (a
rotation for psi = 0, a signed permutation for l1 and box, which those
norms are invariant under) or, on reference-1d, fresh query pairs.  So
every seed poses problems of the same difficulty with different
floating-point inputs, and run-to-run spread reflects the code rather than
which instances a seed happened to draw.  See README.md for why each panel
looks the way it does.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import click
import numpy as np

from biopt import (BioptError, RunTrace, build_builtin, build_example_1d,
                   build_quadratic, build_separable, exact_sprox_1d,
                   exact_sprox_1d_general, newton_minimize, run,
                   sprox_reference, verify_trace)
from biopt.cli import main as cli_main

GAP_TOL = 1e-9        # slack of the certificate chain, as in verify_trace
REF_1D_TOL = 1e-5     # criterion 1's accuracy bound for the closed forms

# superfast-logbar: (logbar-10-5 seed, p).  Seeds 0 and 4 need no or few
# bisections; seed 2 at p=3 needs ~165 iterations and ~170 bisections to
# reach eps (the bisection-heavy case).  The first op is set-up's warm-up.
SUPERFAST_PANEL = ((0, 3), (4, 3), (4, 2), (0, 2), (2, 3))
SUPERFAST_BUDGET = {2: 500, 3: 200}
SUPERFAST_EPS = 5e-3
# exact-quad: (d, quad-d seed, p)
EXACT_PANEL = tuple((d, s, p) for d in (5, 10) for s in (0, 1) for p in (2, 3))
EXACT_EPS = 1e-5
# composite-cli: (d, quad-d seed, psi, p); inexact driver with H = 1
COMPOSITE_PANEL = tuple((d, s, psi, p) for d in (5, 10) for s in (0, 1)
                        for psi in ("l1", "box") for p in (2, 3))
# Ops of the panel grid that fail at the parent commit (SubproblemStall).
# They are left out of the timed loop and run once per composite-cli run
# as a probe, so the failure stays visible without counting as a timed op.
COMPOSITE_KNOWN_FAILURES = ((10, 1, "l1", 2),)
COMPOSITE_EPS = 1e-4
PROBE_STREAM = 10 ** 6   # rng stream of the probe, past any pass index
PSI_WEIGHT = 0.5      # l1 weight; the box is [-PSI_WEIGHT, PSI_WEIGHT]^d
# reference-1d: (H, p); (1, 3) is exact_sprox_1d's closed-form cubic
REFERENCE_CASES = ((1.0, 3), (2.0, 2), (0.5, 4))
REFERENCE_PAIRS_PER_CASE = 4
TRACE_FILE, SUMMARY_FILE = "trace.ndjson", "summary.csv"   # in the work dir
# Short stages are timed several times and their median kept: the trace
# write/read/verify stage (1-10 ms) and the closed-form call (~0.4 ms).
VERIFY_REPEATS = 3
CLOSED_FORM_REPEATS = 5


@dataclass
class Result:
    label: str
    solve_s: float = 0.0
    verify_s: float = 0.0
    error: str | None = None       # why the op failed; None if it passed
    fingerprint: str = ""
    cert_gap: float | None = None
    lower_iters: int = 0
    bisections: int = 0
    trace_bytes: int = 0


@dataclass
class Context:
    """What an op needs besides its inputs: scratch paths and the tracer."""

    workdir: str
    tracer: object = None
    nd: str = field(init=False)
    csv: str = field(init=False)

    def __post_init__(self):
        self.nd = os.path.join(self.workdir, TRACE_FILE)
        self.csv = os.path.join(self.workdir, SUMMARY_FILE)

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


@dataclass
class Op:
    label: str
    fn: object
    args: tuple

    def __call__(self, ctx: Context) -> Result:
        return self.fn(ctx, self.label, *self.args)


# ---------------------------------------------------------------------------
# checks shared by the solve workloads
# ---------------------------------------------------------------------------

def check_records(records: list, status: str, x_star_known: bool,
                  F_ref: float | None = None) -> str | None:
    """The certificate chain F - F* <= gap_cert <= R^2/(2A) on every record
    with model mass; a missing field is a failure, not a skipped check."""
    if status not in ("optimal", "budget", "gap_reached"):
        return f"status {status}"
    for rec in records:
        if rec["A"] <= 0.0:
            continue
        cert, bound = rec.get("gap_cert"), rec.get("gap_bound")
        if cert is None or bound is None:
            return f"k={rec['k']}: gap_cert or gap_bound missing"
        if cert > bound + GAP_TOL:
            return f"k={rec['k']}: gap_cert {cert:.3e} > gap_bound {bound:.3e}"
        if x_star_known:
            if rec.get("F_gap") is None:
                return f"k={rec['k']}: F_gap missing"
            if rec["F_gap"] > cert + GAP_TOL:
                return f"k={rec['k']}: F_gap {rec['F_gap']:.3e} > gap_cert {cert:.3e}"
    if F_ref is not None:
        last = records[-1]
        excess = last["F_val"] - F_ref
        if last.get("gap_cert") is None or \
                excess > last["gap_cert"] + GAP_TOL * (1.0 + abs(F_ref)):
            return (f"F(x_K) - F*_ref = {excess:.3e} exceeds gap_cert "
                    f"{last.get('gap_cert')}")
    return None


def finish(res: Result, records: list, status: str, csv_bytes: bytes,
           nd_path: str) -> Result:
    last = records[-1]
    res.cert_gap = last.get("gap_cert")
    res.lower_iters = sum(r.get("lower_iters") or 0 for r in records)
    res.bisections = sum(r.get("bisections") or 0 for r in records)
    res.trace_bytes = os.path.getsize(nd_path) + len(csv_bytes)
    final = last["F_gap"] if last.get("F_gap") is not None else last["F_val"]
    res.fingerprint = (f"{status} k={last['k']} F={final!r} gap_cert="
                       f"{res.cert_gap!r} csv={hashlib.sha256(csv_bytes).hexdigest()[:16]}")
    return res


# ---------------------------------------------------------------------------
# op kinds
# ---------------------------------------------------------------------------

def timed(ctx: Context, repeats: int, fn):
    """Median wall time of `repeats` calls of fn, and the last call's result.
    A traced run calls fn once, so per-layer spans stay per op.  Every timed
    window starts with gc.collect(): a collection owed by earlier work must
    not land in a short window at random."""
    times = []
    for _ in range(1 if ctx.tracer else repeats):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def library_op(ctx: Context, label: str, instance, mode: str,
               kwargs: dict) -> Result:
    """run() -> NDJSON + CSV write -> read back -> verify_trace."""
    res = Result(label)
    if ctx.tracer is not None:
        ctx.tracer.wrap_instance(instance)
    gc.collect()
    t0 = time.perf_counter()
    try:
        with ctx.span("driver.run"):
            trace = run(instance, mode, **kwargs)
    except (BioptError, AssertionError) as exc:
        res.solve_s = time.perf_counter() - t0
        res.error = f"{type(exc).__name__}: {exc}"
        return res
    res.solve_s = time.perf_counter() - t0

    def verify():
        trace.write_ndjson(ctx.nd)
        trace.write_csv(ctx.csv)
        back = RunTrace.from_ndjson(ctx.nd)
        with ctx.span("driver.trace_io"):
            with open(ctx.csv, "rb") as fh:
                csv_bytes = fh.read()
        with ctx.span("driver.verify"):
            return back, csv_bytes, verify_trace(back)
    res.verify_s, (back, csv_bytes, report) = timed(ctx, VERIFY_REPEATS, verify)
    bad = sorted(name for name, v in report.items() if not v["ok"])
    if bad:
        res.error = f"verify_trace failed: {bad}"
    elif len(back.records) != len(trace.records) or back.status != trace.status:
        res.error = "NDJSON round trip changed the trace"
    else:
        res.error = check_records(back.records, back.status,
                                  instance.x_star is not None)
    return finish(res, back.records, back.status, csv_bytes, ctx.nd)


def invoke(args: list[str]) -> tuple[int, str]:
    """One in-process CLI command; returns (exit code, captured output)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            cli_main.main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except click.ClickException as exc:
        code = exc.exit_code
    return code, buf.getvalue()


def cli_op(ctx: Context, label: str, cfg_path: str, F_ref: float) -> Result:
    """biopt run -c cfg.json, then biopt verify trace.ndjson."""
    res = Result(label)
    gc.collect()
    t0 = time.perf_counter()
    with ctx.span("cli.run_cmd"):
        code, out = invoke(["run", "-c", cfg_path])
    res.solve_s = time.perf_counter() - t0
    if code != 0:
        res.error = f"biopt run exit {code}: {out.strip()}"
        return res

    def verify():
        with ctx.span("cli.verify_cmd"):
            return invoke(["verify", ctx.nd])
    res.verify_s, (vcode, vout) = timed(ctx, VERIFY_REPEATS, verify)
    lines = vout.split()
    records, status = [], None
    with open(ctx.nd) as fh:
        for line in fh:
            obj = json.loads(line)
            if obj["type"] == "iter":
                records.append(obj)
            elif obj["type"] == "status":
                status = obj["status"]
    with open(ctx.csv, "rb") as fh:
        csv_bytes = fh.read()
    if vcode != 0 or lines.count("pass") != 7 or not records:
        res.error = f"biopt verify exit {vcode}: {vout.strip()}"
        return res
    res.error = check_records(records, status, False, F_ref=F_ref)
    return finish(res, records, status, csv_bytes, ctx.nd)


def reference_op(ctx: Context, label: str, instance, xbar: float, ubar: float,
                 H: float, p: int) -> Result:
    """Closed-form segment prox (the solve), then the brute-force reference
    that verifies it."""
    res = Result(label)

    def closed_form():
        with ctx.span("segment.exact_1d"):
            if (H, p) == (1.0, 3):
                return exact_sprox_1d(xbar, ubar)
            return exact_sprox_1d_general(xbar, ubar, H, p)

    def reference():
        with ctx.span("segment.reference"):
            return sprox_reference(instance, np.array([xbar]),
                                   np.array([ubar]), H, p)[2]
    res.solve_s, cf = timed(ctx, CLOSED_FORM_REPEATS, closed_form)
    res.verify_s, ref = timed(ctx, 1, reference)
    err = abs(cf.objective - ref)
    if not err <= REF_1D_TOL:
        res.error = f"objective error {err:.3e} > {REF_1D_TOL:g}"
    res.fingerprint = (f"{cf.branch} x={float(cf.x_plus[0])!r} tau={cf.tau_plus!r} "
                       f"obj={cf.objective!r} ref={ref!r}")
    return res


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rotated_logbar(base, rng: np.random.Generator):
    """logbar instance seen in rotated coordinates, rows shuffled."""
    U = rotation(rng, base.dim)
    rows = rng.permutation(base.smooth.A.shape[0])
    inst = build_separable((base.smooth.A @ U.T)[rows], base.smooth.b[rows],
                           "log_barrier", slack_min=base.smooth.slack_min,
                           name=base.name)
    x_star = newton_minimize(inst.smooth, U @ base.x_star)
    inst.optimum = (x_star, inst.smooth.value(x_star))
    inst.meta["x0"] = U @ base.meta["x0"]
    return inst


def quad_data(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    base = build_builtin(f"quad-{d}", seed=seed)
    return base.smooth.Q, base.smooth.c


def reference_optimum(Q: np.ndarray, c: np.ndarray, psi: str, x0: np.ndarray):
    """min 1/2 x'Qx - c'x + psi(x) by proximal gradient, then an exact
    solve on the free coordinates; independent of biopt's solvers."""
    w = PSI_WEIGHT
    step = 1.0 / np.linalg.eigvalsh(Q)[-1]

    def prox(z):
        if psi == "l1":
            return np.sign(z) * np.maximum(np.abs(z) - step * w, 0.0)
        return np.clip(z, -w, w)

    def F(z):
        pen = w * np.sum(np.abs(z)) if psi == "l1" else 0.0
        return 0.5 * z @ Q @ z - c @ z + pen

    x = prox(x0)
    for _ in range(100000):
        nxt = prox(x - step * (Q @ x - c))
        if np.max(np.abs(nxt - x)) <= 1e-15 * (1.0 + np.max(np.abs(x))):
            break
        x = nxt
    free = np.abs(x) > 0 if psi == "l1" else np.abs(x) < w
    rhs = c[free] - Q[np.ix_(free, ~free)] @ x[~free]
    if psi == "l1":
        rhs -= w * np.sign(x[free])
    polished = x.copy()
    polished[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
    same_face = (np.all(np.sign(polished[free]) == np.sign(x[free]))
                 if psi == "l1" else np.all(np.abs(polished[free]) <= w))
    if same_face and F(polished) <= F(x):
        x = polished
    return x, float(F(x))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A panel of problems; pass k draws its inputs from rng([seed, k])."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        """Panel data every pass shares (part of set-up)."""

    def build_pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, ops: list[Op]) -> None:
        """Work the benchmark does for itself (reference optima); untimed."""

    def probe(self, ctx: Context) -> list[tuple[str, str]]:
        return []

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])


class SuperfastLogbar(Workload):
    def build(self):
        self.bases = {s: build_builtin("logbar-10-5", seed=s)
                      for s in sorted({s for s, _ in SUPERFAST_PANEL})}

    def build_pass(self, k):
        rng = self.rng(k)
        return [Op(f"logbar-10-5/s{s}/p{p}", library_op,
                   (rotated_logbar(self.bases[s], rng), "superfast",
                    dict(p=p, beta=0.2, budget=SUPERFAST_BUDGET[p],
                         epsilon=SUPERFAST_EPS)))
                for s, p in SUPERFAST_PANEL]


class ExactQuad(Workload):
    def build(self):
        self.data = {(d, s): quad_data(d, s) for d, s, _ in EXACT_PANEL}

    def build_pass(self, k):
        rng = self.rng(k)
        ops = []
        for d, s, p in EXACT_PANEL:
            Q, c = self.data[(d, s)]
            U = rotation(rng, d)
            QU = U @ Q @ U.T
            inst = build_quadratic(0.5 * (QU + QU.T), U @ c, name=f"quad-{d}")
            ops.append(Op(f"quad-{d}/s{s}/p{p}", library_op,
                          (inst, "exact", dict(p=p, H=1.0, budget=200,
                                               epsilon=EXACT_EPS,
                                               x0=U @ np.ones(d)))))
        return ops


class CompositeCli(Workload):
    """Instance files with psi = l1 or box through the in-process CLI."""

    def build(self):
        self.data = {(d, s): quad_data(d, s) for d, s, _, _ in
                     COMPOSITE_PANEL}

    def _ops(self, rng, panel, tag):
        ops = []
        for i, (d, s, psi, p) in enumerate(panel):
            Q, c = self.data[(d, s)]
            perm, sign = rng.permutation(d), rng.choice([-1.0, 1.0], size=d)
            Qs = Q[np.ix_(perm, perm)] * np.outer(sign, sign)
            cs = sign * c[perm]
            x0 = sign * (1.0 if psi == "l1" else 0.5 * PSI_WEIGHT)
            spec = {"family": "quadratic", "name": f"quad-{d}-{psi}",
                    "Q": Qs.tolist(), "c": cs.tolist(),
                    "psi": ({"kind": "l1", "weight": PSI_WEIGHT} if psi == "l1"
                            else {"kind": "box", "lo": [-PSI_WEIGHT] * d,
                                  "hi": [PSI_WEIGHT] * d})}
            path = os.path.join(self.workdir, f"{tag}{i}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            cfg = {"instance": {"file": path}, "mode": "inexact", "p": p,
                   "beta": 0.1, "H": 1.0, "budget": 200,
                   "epsilon": COMPOSITE_EPS, "x0": x0.tolist()}
            ops.append(Op(f"quad-{d}/s{s}/{psi}/p{p}", cli_op,
                          (os.path.join(self.workdir, f"{tag}{i}.cfg.json"),
                           (Qs, cs, psi, x0, cfg))))
        return ops

    def build_pass(self, k):
        panel = [e for e in COMPOSITE_PANEL if e not in COMPOSITE_KNOWN_FAILURES]
        return self._ops(self.rng(k), panel, "inst")

    def prepare(self, ops):
        """Reference optimum of each op; R and the check follow from it."""
        for op in ops:
            cfg_path, (Q, c, psi, x0, cfg) = op.args
            x_ref, F_ref = reference_optimum(Q, c, psi, x0)
            cfg = dict(cfg, R=1.01 * float(np.linalg.norm(x0 - x_ref)) + 1e-12,
                       trace=os.path.join(self.workdir, TRACE_FILE),
                       summary=os.path.join(self.workdir, SUMMARY_FILE))
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            op.args = (cfg_path, F_ref)

    def probe(self, ctx):
        """Run the known failures once; report how each ends today."""
        ops = self._ops(self.rng(PROBE_STREAM), COMPOSITE_KNOWN_FAILURES, "probe")
        self.prepare(ops)
        out = []
        for op in ops:
            res = op(ctx)
            out.append((op.label, res.error or "passed"))
        return out


class Reference1d(Workload):
    def build(self):
        self.instance = build_example_1d()

    def build_pass(self, k):
        rng = self.rng(k)
        ops = []
        for H, p in REFERENCE_CASES:
            for _ in range(REFERENCE_PAIRS_PER_CASE):
                xbar, ubar = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
                ops.append(Op(f"example1d/H{H:g}/p{p}", reference_op,
                              (self.instance, xbar, ubar, H, p)))
        return ops


WORKLOADS = {"superfast-logbar": SuperfastLogbar, "exact-quad": ExactQuad,
             "composite-cli": CompositeCli, "reference-1d": Reference1d}
