"""Accelerated upper-level drivers built on an estimating sequence.

The estimating function Psi_k(x) = 1/2||x - x0||^2 + <s, x> + const + A psi(x)
is stored compactly as the accumulated affine data (s, const) plus the psi
weight A; its minimizer is a single prox call.  Each step solves a (possibly
inexact) proximal-point subproblem along the segment [x_k, upsilon_k],
resolves the coefficient equation, and advances the sequence while carrying
the B_k certificate that makes the per-iteration invariants checkable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .acceptance import AcceptedPoint
from .config import (DEFAULT_CAPS, DEFAULT_TOL, BioptError, CertificateUndefined,
                     OptimalityReached, SolveCaps, Tolerances)
from .lower import RelSmoothParams, rel_smooth_params, solve_acceptable
from .numerics import (Metric, golden_section, power_mean_norm,
                       solve_step_coefficient)
from .problems import ProblemInstance, SimpleOracle
from .segment import bisect_segment, make_sprox_oracle


@dataclass
class EstimatingState:
    """Compact estimating-sequence state for one driver run."""

    x0: np.ndarray
    metric: Metric
    s: np.ndarray
    const: float
    A: float
    B_cert: float
    upsilon: np.ndarray
    x: np.ndarray
    k: int = 0


def new_state(instance: ProblemInstance, x0: np.ndarray) -> EstimatingState:
    x0 = np.asarray(x0, dtype=float).copy()
    return EstimatingState(x0=x0, metric=instance.metric,
                           s=np.zeros(instance.dim), const=0.0, A=0.0,
                           B_cert=0.0, upsilon=x0.copy(), x=x0.copy())


def estimating_min(state: EstimatingState, psi: SimpleOracle) -> np.ndarray:
    """argmin_x 1/2||x - x0||^2 + <s, x> + A psi(x), one prox call."""
    w = state.x0 - state.metric.solve(state.s)
    return psi.scaled_prox(state.A, w, state.metric)


def psi_value(state: EstimatingState, psi: SimpleOracle, x: np.ndarray) -> float:
    """Psi_k evaluated at x."""
    d = np.asarray(x, dtype=float) - state.x0
    quad = 0.5 * state.metric.norm(d) ** 2
    return quad + float(state.s @ x) + state.const + state.A * psi.value(x)


def psi_star(state: EstimatingState, psi: SimpleOracle) -> float:
    """Psi_k^* = min Psi_k, through the closed-form minimizer."""
    return psi_value(state, psi, estimating_min(state, psi))


def _absorb(state: EstimatingState, instance: ProblemInstance, a: float,
            pieces: list[tuple[float, np.ndarray]]) -> None:
    """Add a * (sum_j w_j l_{T_j}) to the affine accumulators.

    Each piece is (weight, T); l_T(x) = f(T) + <grad f(T), x - T>.
    """
    for w, T in pieces:
        gT = instance.smooth.grad(T)
        state.s = state.s + a * w * gT
        state.const += a * w * (instance.smooth.value(T) - float(gT @ T))


def step_exact(state: EstimatingState, instance: ProblemInstance, H: float,
               p: int, sprox_oracle) -> dict:
    """One iteration of the exact segment-search driver."""
    u = state.upsilon - state.x
    x_plus, tau, g = sprox_oracle(state.x, u)
    x_plus = np.asarray(x_plus, dtype=float)
    g = np.asarray(g, dtype=float)
    grad_f = instance.smooth.grad(x_plus)
    g_k = state.metric.dual_norm(grad_f + g)
    if g_k <= 1e-14:
        state.x = x_plus
        return {"status": "optimal", "g_k": g_k, "branch": "exact", "tau": tau}
    c = (1.0 / H) ** (1.0 / p) * g_k ** ((1.0 - p) / p)
    a = solve_step_coefficient(state.A, c)
    _absorb(state, instance, a, [(1.0, x_plus)])
    state.A += a
    state.B_cert += 0.5 * (1.0 / H) ** (1.0 / p) * state.A * g_k ** ((p + 1) / p)
    state.upsilon = estimating_min(state, instance.simple)
    state.x = x_plus
    state.k += 1
    return {"status": "running", "g_k": g_k, "a": a, "branch": "exact",
            "tau": tau, "residual": g_k}


def step_inexact(state: EstimatingState, instance: ProblemInstance, H: float,
                 p: int, beta: float, params: RelSmoothParams,
                 caps: SolveCaps = DEFAULT_CAPS, tol: Tolerances = DEFAULT_TOL,
                 coeff_factor: float = 0.25, acceptance_solver=None,
                 collect=None) -> dict:
    """One iteration of the inexact (three-branch) segment-search driver."""
    if acceptance_solver is None:
        acceptance_solver = solve_acceptable
    u = state.upsilon - state.x
    lower_iters = 0
    bisections = 0

    try:
        return _step_inexact_body(state, instance, H, p, beta, params, caps,
                                  tol, coeff_factor, acceptance_solver,
                                  collect, u, lower_iters, bisections)
    except OptimalityReached as opt:
        state.x = np.asarray(opt.point, dtype=float)
        return {"status": "optimal", "g_k": 0.0, "branch": "optimal",
                "lower_iters": 0, "bisections": 0, "residual": 0.0}


def _step_inexact_body(state, instance, H, p, beta, params, caps, tol,
                       coeff_factor, acceptance_solver, collect, u,
                       lower_iters, bisections) -> dict:
    ap0, it0 = acceptance_solver(instance, state.x, H, p, beta, params,
                                 caps=caps, tol=tol)
    lower_iters += it0
    if collect is not None:
        collect(ap0)
    prod0 = float(ap0.composite_grad() @ u)
    if state.metric.norm(u) == 0.0 or prod0 >= 0.0:
        branch = "case_i"
        pieces = [(1.0, ap0.T)]
        x_next = ap0.T
        g_k = ap0.grad_F_norm
        G_vec = ap0.composite_grad()
    else:
        ap1, it1 = acceptance_solver(instance, state.upsilon, H, p, beta,
                                     params, caps=caps, tol=tol)
        lower_iters += it1
        if collect is not None:
            collect(ap1)
        prod1 = float(ap1.composite_grad() @ u)
        if prod1 <= 0.0:
            branch = "case_ii"
            pieces = [(1.0, ap1.T)]
            x_next = ap1.T
            g_k = ap1.grad_F_norm
            G_vec = ap1.composite_grad()
        else:
            branch = "case_iii"
            seg = bisect_segment(instance, state.x, u, ap0, ap1, H, p, beta,
                                 params, caps=caps, tol=tol, collect=collect)
            bisections = seg.bisections
            lower_iters += seg.lower_iters
            alpha = seg.alpha
            x_next = alpha * seg.T1.T + (1.0 - alpha) * seg.T2.T
            g_k = seg.g_k
            G_vec = alpha * seg.T1.composite_grad() \
                + (1.0 - alpha) * seg.T2.composite_grad()
            bound = 2.0 ** (1.0 / (p + 1)) * g_k
            res = state.metric.dual_norm(G_vec)
            if res > bound * (1.0 + 1e-9) + 1e-12:
                raise AssertionError(
                    f"combined subgradient too large: {res:.3e} > {bound:.3e}")
            pieces = [(alpha, seg.T1.T), (1.0 - alpha, seg.T2.T)]

    residual = state.metric.dual_norm(G_vec)
    if g_k <= 1e-14:
        state.x = x_next
        return {"status": "optimal", "g_k": g_k, "branch": branch,
                "lower_iters": lower_iters, "bisections": bisections,
                "residual": residual}
    c = coeff_factor * ((1.0 - beta) / H) ** (1.0 / p) * g_k ** ((1.0 - p) / p)
    a = solve_step_coefficient(state.A, c)
    _absorb(state, instance, a, pieces)
    state.A += a
    state.B_cert += 0.25 * ((1.0 - beta) / H) ** (1.0 / p) \
        * state.A * g_k ** ((p + 1) / p)
    state.upsilon = estimating_min(state, instance.simple)
    state.x = x_next
    state.k += 1
    return {"status": "running", "g_k": g_k, "a": a, "branch": branch,
            "lower_iters": lower_iters, "bisections": bisections,
            "residual": residual}


# ---------------------------------------------------------------------------
# gap certificate
# ---------------------------------------------------------------------------

def gap_certificate(state: EstimatingState, instance: ProblemInstance,
                    R: float) -> float:
    """F(x_k) minus a certified lower bound of min over {||x-x0|| <= R} of
    the averaged linear model (s x + const)/A + psi(x).

    psi = 0 has the closed-form ball minimum; otherwise the Lagrangian dual
    of the ball constraint is maximized over the scalar multiplier, and any
    dual value is a sound lower bound, so the returned gap always dominates
    F(x_k) - F* when R >= ||x0 - x*||.
    """
    if state.A <= 0.0:
        raise CertificateUndefined("certificate undefined")
    psi = instance.simple
    m = state.metric
    s_hat = state.s / state.A
    c_hat = state.const / state.A
    F_val = instance.F(state.x)
    if psi.kind == "zero":
        lower = float(s_hat @ state.x0) - R * m.dual_norm(s_hat) + c_hat
        return F_val - lower

    def dual(lam: float) -> float:
        w = state.x0 - m.solve(s_hat) / lam
        xh = psi.scaled_prox(1.0 / lam, w, m)
        return (float(s_hat @ xh) + psi.value(xh) + c_hat
                + 0.5 * lam * (m.norm(xh - state.x0) ** 2 - R * R))

    # the dual is concave in lam, so unimodal in t = log(lam)
    _, neg_lower = golden_section(lambda t: -dual(math.exp(t)), -40.0, 40.0,
                                  iters=120)
    return F_val + neg_lower


# ---------------------------------------------------------------------------
# trace + run loop
# ---------------------------------------------------------------------------

@dataclass
class RunTrace:
    config: dict
    records: list = field(default_factory=list)
    status: str = "running"

    @property
    def final_gap(self) -> float | None:
        if not self.records:
            return None
        return self.records[-1].get("gap_cert")

    def write_ndjson(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "config", **self.config},
                                sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps({"type": "iter", **rec}, sort_keys=True) + "\n")
            fh.write(json.dumps({"type": "status", "status": self.status}) + "\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["k", "F_gap", "A", "g_k", "branch", "bisections",
                         "lower_iters"])
            for rec in self.records:
                gap = rec.get("F_gap")
                wr.writerow([
                    rec["k"],
                    "" if gap is None else "%.17g" % gap,
                    "%.17g" % rec["A"],
                    "" if rec.get("g_k") is None else "%.17g" % rec["g_k"],
                    rec.get("branch", ""),
                    rec.get("bisections", 0),
                    rec.get("lower_iters", 0),
                ])

    @staticmethod
    def from_ndjson(path: str) -> "RunTrace":
        config, records, status = {}, [], "unknown"
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                kind = obj.pop("type", "iter")
                if kind == "config":
                    config = obj
                elif kind == "status":
                    status = obj.get("status", "unknown")
                else:
                    records.append(obj)
        return RunTrace(config=config, records=records, status=status)


def _float_or_none(v):
    return None if v is None else float(v)


def run(instance: ProblemInstance, mode: str, p: int = 3,
        beta: float = 0.0, H: float | None = None, M_next: float | None = None,
        budget: int = 200, epsilon: float | None = None, R: float | None = None,
        x0: np.ndarray | None = None, coeff_factor: float = 0.25,
        caps: SolveCaps = DEFAULT_CAPS, tol: Tolerances = DEFAULT_TOL,
        collect=None, check_invariants: bool = True) -> RunTrace:
    """Drive one of the three methods to a certified stop or budget exhaustion.

    mode "exact" uses a closed-form segment-search oracle; "inexact" uses the
    lower-level acceptance solver with an explicit H; "superfast" derives H
    from the declared derivative bound M_{p+1} of the smooth part.
    """
    if mode not in ("exact", "inexact", "superfast"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "exact" and not 0.0 <= beta <= 3.0 / (3 * p + 2):
        raise ValueError("beta out of range [0, 3/(3p+2)]")
    if mode == "superfast":
        if M_next is None:
            M_next = instance.smooth.deriv_bound(p + 1)
        if M_next is None or M_next <= 0:
            raise ValueError("superfast mode needs a positive M_{p+1} bound")
        params = rel_smooth_params(p, M_next)
        H = params.H
    else:
        if H is None:
            raise ValueError(f"mode {mode!r} needs H")
        params = RelSmoothParams(xi=2.0, H=H, mu=0.5, L=1.5, kappa=1.0 / 3.0)

    if x0 is None:
        x0 = instance.meta.get("x0")
    if x0 is None:
        x0 = np.zeros(instance.dim)
    x0 = np.asarray(x0, dtype=float)

    state = new_state(instance, x0)
    psi = instance.simple
    x_star, F_star = instance.x_star, instance.F_star
    R0 = None if x_star is None else instance.metric.norm(x0 - x_star)
    if R is None and R0 is not None:
        R = 1.01 * R0 + 1e-12

    oracle = make_sprox_oracle(instance, H, p) if mode == "exact" else None

    config = {
        "instance": instance.name, "mode": mode, "p": p, "beta": beta,
        "H": H, "coeff_factor": coeff_factor, "budget": budget,
        "epsilon": epsilon, "R": _float_or_none(R),
        "F_star": _float_or_none(F_star), "R0": _float_or_none(R0),
        "x0": x0.tolist(),
    }
    trace = RunTrace(config=config)

    def record(step_info: dict | None) -> dict:
        F_val = instance.F(state.x)
        rec = {
            "k": state.k, "F_val": F_val, "A": state.A, "B_cert": state.B_cert,
            "F_gap": None if F_star is None else F_val - F_star,
            "g_k": None, "a": None, "branch": None, "bisections": 0,
            "lower_iters": 0, "residual": None,
        }
        if step_info is not None:
            for key in ("g_k", "a", "branch", "bisections", "lower_iters",
                        "residual"):
                if key in step_info:
                    rec[key] = step_info[key]
        ps = psi_star(state, psi)
        rec["psi_star"] = ps
        rec["AF_plus_B"] = state.A * F_val + state.B_cert
        if x_star is not None:
            rec["psi_at_xstar"] = psi_value(state, psi, x_star)
            rec["psi_xstar_bound"] = state.A * F_star + 0.5 * R0 * R0
            rec["dist_x"] = instance.metric.norm(state.x - x_star)
            rec["dist_upsilon"] = instance.metric.norm(state.upsilon - x_star)
        rec["u_norm"] = instance.metric.norm(state.upsilon - state.x)
        if state.A > 0.0 and R is not None:
            rec["gap_cert"] = gap_certificate(state, instance, R)
            rec["gap_bound"] = R * R / (2.0 * state.A)
        if check_invariants:
            slack = 1e-8 * (1.0 + abs(ps))
            if rec["AF_plus_B"] > ps + slack:
                raise AssertionError(
                    f"estimating-sequence lower invariant failed at k={state.k}: "
                    f"{rec['AF_plus_B']:.12e} > {ps:.12e}")
            if x_star is not None:
                ub = rec["psi_xstar_bound"]
                if rec["psi_at_xstar"] > ub + 1e-8 * (1.0 + abs(ub)):
                    raise AssertionError(
                        f"estimating-sequence upper invariant failed at k={state.k}")
        return rec

    trace.records.append(record(None))
    prev_F = trace.records[0]["F_val"]
    status = "budget"
    for _ in range(budget):
        if mode == "exact":
            info = step_exact(state, instance, H, p, oracle)
        else:
            info = step_inexact(state, instance, H, p, beta, params,
                                caps=caps, tol=tol, coeff_factor=coeff_factor,
                                collect=collect)
        if info["status"] == "optimal":
            status = "optimal"
            trace.records.append(record(info))
            break
        rec = record(info)
        if check_invariants and rec["F_val"] > prev_F + 1e-10 * (1.0 + abs(prev_F)):
            raise AssertionError(f"descent violated at k={state.k}")
        prev_F = rec["F_val"]
        trace.records.append(rec)
        if epsilon is not None:
            if rec.get("gap_cert") is not None and rec["gap_cert"] <= epsilon:
                status = "gap_reached"
                break
            if R is not None and state.A >= R * R / (2.0 * epsilon):
                status = "gap_reached"
                break
    trace.status = status
    return trace


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

def rate_fit(trace: RunTrace, k_min: int, k_max: int) -> tuple[float, list[str]]:
    """Least-squares slope of log(F(x_k) - F*) against log k on [k_min, k_max].

    Gaps at or below 1e-14 are dropped (double-precision floor); returns the
    slope and any warnings emitted along the way.
    """
    warnings = []
    F_star = trace.config.get("F_star")
    if F_star is None:
        raise BioptError("trace has no known optimal value")
    ks, gaps = [], []
    for rec in trace.records:
        k = rec["k"]
        if k < max(k_min, 1) or k > k_max:
            continue
        gap = rec["F_val"] - F_star
        if gap <= 1e-14:
            warnings.append(f"gap underflow at k={k}; truncating range")
            break
        ks.append(k)
        gaps.append(gap)
    if len(ks) < 10:
        raise BioptError("need at least 10 usable points for a rate fit")
    slope = float(np.polyfit(np.log(np.asarray(ks, dtype=float)),
                             np.log(np.asarray(gaps)), 1)[0])
    return slope, warnings


def verify_trace(trace: RunTrace) -> dict:
    """Replay every per-iteration invariant recorded in a trace.

    Returns {invariant: {"ok": bool, "violations": [k, ...]}}; purely
    arithmetic on the recorded fields, so tampered traces fail loudly.
    """
    cfg = trace.config
    p = cfg.get("p", 3)
    H = cfg.get("H")
    beta = cfg.get("beta", 0.0)
    factor = cfg.get("coeff_factor", 0.25)
    mode = cfg.get("mode", "inexact")
    checks = {name: [] for name in (
        "descent", "A_nondecreasing", "estimating_lower", "estimating_upper",
        "coefficient_equation", "residual_bound", "gap_bound")}
    prev = None
    for rec in trace.records:
        k = rec["k"]
        if prev is not None:
            if rec["F_val"] > prev["F_val"] + 1e-10 * (1.0 + abs(prev["F_val"])):
                checks["descent"].append(k)
            if rec["A"] < prev["A"] - 1e-12:
                checks["A_nondecreasing"].append(k)
            a = rec.get("a")
            g_k = rec.get("g_k")
            if a is not None and g_k is not None and g_k > 0 and H:
                if mode == "exact":
                    c = (1.0 / H) ** (1.0 / p) * g_k ** ((1.0 - p) / p)
                else:
                    c = factor * ((1.0 - beta) / H) ** (1.0 / p) \
                        * g_k ** ((1.0 - p) / p)
                lhs = a * a / rec["A"]
                if abs(lhs - c) > 1e-6 * max(c, 1e-300):
                    checks["coefficient_equation"].append(k)
        ps = rec.get("psi_star")
        if ps is not None and rec.get("AF_plus_B") is not None:
            if rec["AF_plus_B"] > ps + 1e-8 * (1.0 + abs(ps)):
                checks["estimating_lower"].append(k)
        if rec.get("psi_at_xstar") is not None:
            ub = rec["psi_xstar_bound"]
            if rec["psi_at_xstar"] > ub + 1e-8 * (1.0 + abs(ub)):
                checks["estimating_upper"].append(k)
        res, g_k = rec.get("residual"), rec.get("g_k")
        if res is not None and g_k is not None:
            if res > 2.0 ** (1.0 / (p + 1)) * g_k * (1.0 + 1e-9) + 1e-12:
                checks["residual_bound"].append(k)
        if rec.get("gap_cert") is not None and rec.get("gap_bound") is not None:
            if rec["gap_cert"] > rec["gap_bound"] + 1e-9:
                checks["gap_bound"].append(k)
            gap = rec.get("F_gap")
            if gap is not None and rec["gap_cert"] < gap - 1e-9:
                checks["gap_bound"].append(k)
        prev = rec
    return {name: {"ok": not bad, "violations": bad}
            for name, bad in checks.items()}
