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
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import (BioptError, CertificateUndefined, InvariantViolation,
                     OptimalityReached, RegionViolation)
from .lower import rel_smooth_params, solve_acceptable
from .numerics import Metric, solve_step_coefficient
from .problems import ProblemInstance, SimpleOracle
from .segment import bisect_segment, make_sprox_oracle, step_rates

# a step with g_k at or below this ends the run as optimal: x moves, k stays
OPTIMAL_G = 1e-14
# cuts of the psi != 0 dual path that gap_certificate reads per array
# operation: up to dim 15 all 2 dim + 2 at once; above it about log_32(2 dim)
# reads of 32, so a certificate costs O(dim log dim), not O(dim^2)
CUTS_PER_READ = 32
FAMILIES = ("descent", "A_nondecreasing", "estimating_lower",
            "estimating_upper", "coefficient_equation", "residual_bound",
            "gap_bound")


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


def _advance(state: EstimatingState, instance: ProblemInstance, rates,
             p: int, g_k: float, pieces, x_next: np.ndarray) -> float | None:
    """Step tail: move to x_next; unless it is optimal (then None), solve for
    a, add a * (sum_j w_j l_{T_j}) to the affine accumulators over the
    pieces (w_j, T_j, f(T_j), grad f(T_j)), l_T(x) = f(T) + <grad f(T),
    x - T>, and advance A, B_cert, upsilon and k."""
    state.x = x_next
    if g_k <= OPTIMAL_G:
        return None
    c0, b0 = rates
    a = solve_step_coefficient(state.A, c0 * g_k ** ((1.0 - p) / p))
    for w, T, fT, gT in pieces:
        state.s = state.s + a * w * gT
        state.const += a * w * (fT - float(gT @ T))
    state.A += a
    state.B_cert += b0 * state.A * g_k ** ((p + 1) / p)
    state.upsilon = estimating_min(state, instance.simple)
    state.k += 1
    return a


def step_exact(state: EstimatingState, instance: ProblemInstance, H: float,
               p: int, sprox_oracle) -> dict:
    """One iteration of the exact segment-search driver."""
    u = state.upsilon - state.x
    x_plus, _, g = sprox_oracle(state.x, u)
    x_plus = np.asarray(x_plus, dtype=float)
    g = np.asarray(g, dtype=float)
    f_plus, grad_f = instance.smooth.value_grad(x_plus)
    g_k = state.metric.dual_norm(grad_f + g)
    a = _advance(state, instance, step_rates("exact", H, p, None), p,
                 g_k, [(1.0, x_plus, f_plus, grad_f)], x_plus)
    return {"status": "optimal" if a is None else "running", "g_k": g_k,
            "a": a, "branch": "exact", "residual": g_k, "f": f_plus}


def step_inexact(state: EstimatingState, instance: ProblemInstance, H: float,
                 p: int, beta: float) -> dict:
    """One iteration of the inexact (three-branch) segment-search driver."""
    u = state.upsilon - state.x
    seg = None
    try:
        # OptimalityReached is raised here before any state changes
        ap0, lower_iters = solve_acceptable(instance, state.x, H, p, beta)
        ap, branch = ap0, "case_i"
        if state.metric.norm(u) != 0.0 and float(ap0.composite_grad() @ u) < 0.0:
            ap, it1 = solve_acceptable(instance, state.upsilon, H, p, beta)
            lower_iters += it1
            branch = "case_ii"
            if float(ap.composite_grad() @ u) > 0.0:
                branch = "case_iii"
                seg = bisect_segment(instance, state.x, u, ap0, ap, H, p, beta)
    except OptimalityReached as opt:
        state.x = np.asarray(opt.point, dtype=float)
        return {"status": "optimal", "g_k": 0.0, "branch": "optimal",
                "lower_iters": 0, "bisections": 0, "residual": 0.0}

    if seg is None:
        bisections, g_k, G_vec = 0, ap.grad_F_norm, ap.composite_grad()
        pieces = [(1.0, ap.T, ap.f, ap.grad_f)]
        x_next, f_next = ap.T, ap.f
    else:
        bisections, g_k, alpha = seg.bisections, seg.g_k, seg.alpha
        lower_iters += seg.lower_iters
        pieces = [(w, T.T, T.f, T.grad_f)
                  for w, T in ((alpha, seg.T1), (1.0 - alpha, seg.T2))]
        x_next, f_next = alpha * seg.T1.T + (1.0 - alpha) * seg.T2.T, None
        G_vec = alpha * seg.T1.composite_grad() \
            + (1.0 - alpha) * seg.T2.composite_grad()
    a = _advance(state, instance, step_rates("inexact", H, p, beta), p, g_k,
                 pieces, x_next)
    return {"status": "optimal" if a is None else "running", "g_k": g_k,
            "a": a, "branch": branch, "lower_iters": lower_iters,
            "bisections": bisections, "residual": state.metric.dual_norm(G_vec),
            "f": f_next}


# ---------------------------------------------------------------------------
# gap certificate
# ---------------------------------------------------------------------------

def gap_certificate(state: EstimatingState, instance: ProblemInstance,
                    R: float, F_val: float) -> float:
    """F(x_k) minus a certified lower bound of min over {||x-x0|| <= R} of
    the averaged linear model (s x + const)/A + psi(x); F_val = F(x_k).

    psi = 0 has the closed-form ball minimum.  Otherwise the bound is the
    Lagrangian dual of the ball constraint at a multiplier lam in
    [e^-40, e^40], with minimizer x(lam) = scaled_prox(1/lam,
    x0 - B^{-1}s_hat/lam).  The dual is concave with slope
    (||x(lam) - x0||^2 - R^2)/2 (Danskin), so it peaks where the
    nonincreasing ||x(lam) - x0||^2 falls to R^2, or at an end of the
    bracket when it does not cross R^2 there.  The path changes piece only
    at its cuts (SimpleOracle.path_cuts, at most 2 dim of them), and the
    cut where x(lam) enters the ball is found by reading ||x(lam) - x0||^2
    at CUTS_PER_READ cuts at a time (SimpleOracle.path_offsets): all of
    them at once for dim <= 15.  On the piece before it the set F of
    coordinates at which psi is smooth at x (SimpleOracle.face) is fixed;
    off F x stays put and on F (x - x0)_F is -(shift + psi'/b)_F/lam (B is
    diagonal), so ||x(lam) - x0||^2 = C + E/lam^2 there.  F is read at the
    piece's geometric midpoint, C and E at its lower end, where x - x0 is
    largest and least cancelled, and the crossing is
    lam = sqrt(E/(R^2 - C)), kept within the piece.  Any lam gives a sound
    lower bound, so the returned gap dominates F(x_k) - F* when
    R >= ||x0 - x*||; this one is the dual's maximizer up to roundoff.
    """
    if state.A <= 0.0:
        raise CertificateUndefined("certificate undefined")
    psi = instance.simple
    m = state.metric
    s_hat = state.s / state.A
    c_hat = state.const / state.A
    if psi.kind == "zero":
        lower = float(s_hat @ state.x0) - R * m.dual_norm(s_hat) + c_hat
        return F_val - lower
    shift, x0, R2 = m.solve(s_hat), state.x0, R * R

    def path(lam: float) -> np.ndarray:
        return psi.scaled_prox(1.0 / lam, x0 - shift / lam, m)

    lams = psi.path_cuts(x0, shift, m, math.exp(-40.0), math.exp(40.0))
    # x(lams[out]) lies outside the ball and x(lams[inn]) inside it (-1 and
    # len(lams): no such cut); narrow them to neighbours, reading up to
    # CUTS_PER_READ cuts between them at a time
    out, inn, row = -1, len(lams), None
    while inn - out > 1:
        idx = np.arange(out + 1, inn, -(-(inn - out - 1) // CUTS_PER_READ))
        dx, dist2 = psi.path_offsets(x0, shift, m, lams[idx])
        j = int(np.argmax(dist2 <= R2))
        if dist2[j] > R2:
            out, row = idx[-1], dx[-1]
        else:
            inn = idx[j]
            if j > 0:
                out, row = idx[j - 1], dx[j - 1]
    if inn == 0:  # inside the ball from the smallest lam on
        lam = float(lams[0])
    elif inn == len(lams):  # outside it up to the largest
        lam = float(lams[-1])
    else:  # the crossing lies on the piece [lams[out], lams[inn]]
        lo, hi = float(lams[out]), float(lams[inn])
        free = psi.face(path(math.sqrt(lo * hi)))[1]
        C = m.norm(np.where(free, 0.0, row)) ** 2
        E = (lo * m.norm(np.where(free, row, 0.0))) ** 2
        lam = hi if C >= R2 else min(max(math.sqrt(E / (R2 - C)), lo), hi)
    xh = path(lam)
    excess = m.norm(xh - x0) ** 2 - R2
    return F_val - (float(s_hat @ xh) + psi.value(xh) + c_hat + 0.5 * lam * excess)


# ---------------------------------------------------------------------------
# trace + run loop
# ---------------------------------------------------------------------------

@dataclass
class RunTrace:
    config: dict
    records: list = field(default_factory=list)
    status: str = "running"

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
                if not isinstance(obj, dict):
                    raise ValueError(f"trace line is not an object: {line[:40]}")
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


def _require(obj: dict, fields: tuple[str, ...], where: str,
             nullable: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming every one of fields that obj lacks, else the
    first of fields and nullable, mode aside, that is not a number (_number);
    one of nullable may also be null or absent."""
    missing = [name for name in fields if name not in obj]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    values = [obj[name] for name in fields]
    values += [v for v in map(obj.get, nullable) if v is not None]
    try:  # the common case first: finite numbers, no bool, null or string
        if set(map(type, values)) <= {float, int} and math.isfinite(sum(values)):
            return
    except OverflowError:  # an int beyond the float range
        pass
    for name in fields + nullable:
        v = obj.get(name)
        if name != "mode" and not (v is None and name in nullable or _number(v)):
            raise ValueError(f"{where} has {name} = {v!r}, not a finite number")


def _number(v, kind=numbers.Real) -> bool:
    """v is a number of that kind within the float range (a bool, a string,
    an infinity or a NaN is not)."""
    return isinstance(v, kind) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def check_run(instance: ProblemInstance, mode: str, p=3, beta=0.0, H=None,
              M_next=None, budget=200, epsilon=None, R=None, x0=None):
    """run's (H, slack_floor, oracle, x0) from its arguments, or ValueError
    unless they are well formed; run calls it first, biopt run on every
    config before it runs any.  Superfast H comes from M_{p+1} in the
    instance's norm: the oracle's Euclidean bound times
    lambda_min(B)^{-(p+1)/2}, as ||h||_2 <= lambda_min(B)^{-1/2} ||h||, or
    M_next as given; slack_floor is the oracle's slack_min when its bound
    set H.  oracle is the exact segment-search oracle (exact mode), x0 the
    given one, else the instance's, else zeros; f(x0) and psi(x0) must be
    finite.  The lower level's method is of order 2q, q = floor(p/2), so
    inexact and superfast modes need p >= 2."""
    if mode not in ("exact", "inexact", "superfast"):
        raise ValueError(f"unknown mode {mode!r}")
    if not _number(p, numbers.Integral) or p < (1 if mode == "exact" else 2):
        raise ValueError(f"p must be an integer >= 1 (>= 2 for inexact and "
                         f"superfast modes), got {p!r}")
    if not _number(budget, numbers.Integral) or budget < 0:
        raise ValueError(f"budget must be an integer >= 0, got {budget!r}")
    if not _number(beta) or mode != "exact" and not 0.0 <= beta <= 3.0 / (3 * p + 2):
        raise ValueError(f"beta out of range [0, 3/(3p+2)]: {beta!r}")
    if H is None and mode != "superfast":
        raise ValueError(f"{mode} mode needs H")
    if H is not None and mode == "superfast":
        raise ValueError("superfast mode derives H from M_next and takes no H")
    for name, v in (("H", H), ("M_next", M_next), ("epsilon", epsilon), ("R", R)):
        if v is not None and not (_number(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    smooth, slack_floor, oracle = instance.smooth, None, None
    if mode == "exact":
        oracle = make_sprox_oracle(instance, H, p)
    elif mode == "superfast":
        if M_next is None:
            M_next, slack_floor = smooth.deriv_bound(p + 1), smooth.slack_min
            if M_next is not None:
                M_next *= instance.metric.smallest_eigenvalue() ** (-(p + 1) / 2)
        if M_next is None or M_next <= 0:
            raise ValueError("superfast mode needs a positive M_{p+1} bound")
        H = rel_smooth_params(p, M_next).H
    if x0 is None:
        x0 = instance.meta.get("x0")
    x0 = np.zeros(instance.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (instance.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, the instance has "
                         f"dimension {instance.dim}")
    if not math.isfinite(smooth.value(x0)):
        raise ValueError("x0 lies outside the domain of f: f(x0) is not finite")
    if not math.isfinite(instance.simple.value(x0)):
        raise ValueError("x0 lies outside the domain of psi: psi(x0) is not finite")
    return H, slack_floor, oracle, x0


def run(instance: ProblemInstance, mode: str, p: int = 3,
        beta: float = 0.0, H: float | None = None, M_next: float | None = None,
        budget: int = 200, epsilon: float | None = None, R: float | None = None,
        x0: np.ndarray | None = None) -> RunTrace:
    """Drive one of the three methods to a certified stop or budget exhaustion.

    mode "exact" uses a closed-form segment-search oracle; "inexact" uses the
    lower-level acceptance solver with an explicit H; "superfast" derives H
    from the declared derivative bound M_{p+1} of the smooth part.
    Malformed arguments raise ValueError (check_run).  Each record carries,
    as min_slack, the smallest slack the oracle evaluated since the record
    before (SmoothOracle.pop_min_slack).
    When the oracle's own bound set H (superfast without M_next), a min_slack
    below the oracle's slack_min, where that bound no longer holds, raises
    RegionViolation.
    """
    H, slack_floor, oracle, x0 = check_run(instance, mode, p, beta, H, M_next,
                                           budget, epsilon, R, x0)

    state = new_state(instance, x0)
    psi = instance.simple
    x_star, F_star = instance.x_star, instance.F_star
    R0 = None if x_star is None else instance.metric.norm(x0 - x_star)
    if R is None and R0 is not None:
        R = 1.01 * R0 + 1e-12

    config = {
        "instance": instance.name, "mode": mode, "p": p, "beta": beta,
        "H": H, "budget": budget, "epsilon": epsilon, "R": _float_or_none(R),
        "F_star": _float_or_none(F_star), "R0": _float_or_none(R0),
        "x0": x0.tolist(),
    }
    trace = RunTrace(config=config)

    def record(step_info: dict | None) -> dict:
        # a step that evaluated f at its new x reports it as "f"
        f = None if step_info is None else step_info.get("f")
        F_val = instance.F(state.x) if f is None else f + psi.value(state.x)
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
        rec["psi_star"] = psi_value(state, psi, state.upsilon)  # argmin Psi_k
        if x_star is not None:
            rec["psi_at_xstar"] = psi_value(state, psi, x_star)
            rec["dist_x"] = instance.metric.norm(state.x - x_star)
            rec["dist_upsilon"] = instance.metric.norm(state.upsilon - x_star)
        if state.A > 0.0 and R is not None:
            rec["gap_cert"] = gap_certificate(state, instance, R, F_val)
            rec["gap_bound"] = R * R / (2.0 * state.A)
        min_slack = instance.smooth.pop_min_slack()
        if min_slack is not None:
            rec["min_slack"] = min_slack
            if slack_floor is not None and min_slack < slack_floor:
                raise RegionViolation(
                    f"slack {min_slack:.6g} below slack_min {slack_floor:.6g}: "
                    f"a point left the region where the bound M_{p + 1} that "
                    f"set H holds, at k={state.k}")
        bad = invariant_violations(
            config, trace.records[-1] if trace.records else None, rec)
        if bad:
            raise InvariantViolation(f"invariants {bad} failed at k={state.k}",
                                     k=state.k, families=bad)
        trace.records.append(rec)
        return rec

    instance.smooth.pop_min_slack()
    record(None)
    status = "budget"
    for _ in range(budget):
        if mode == "exact":
            info = step_exact(state, instance, H, p, oracle)
        else:
            info = step_inexact(state, instance, H, p, beta)
        rec = record(info)
        if info["status"] == "optimal":
            status = "optimal"
            break
        if epsilon is not None and (
                rec.get("gap_cert") is not None and rec["gap_cert"] <= epsilon
                or R is not None and state.A >= R * R / (2.0 * epsilon)):
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
    slope and any warnings emitted along the way.  ValueError names any k or
    F_val a record lacks or F_star, k or F_val of the wrong type.
    """
    warnings = []
    _require(trace.config, (), "trace config", nullable=("F_star",))
    F_star = trace.config.get("F_star")
    if F_star is None:
        raise BioptError("trace has no known optimal value")
    for i, rec in enumerate(trace.records):
        _require(rec, ("k", "F_val"), f"trace record {i}")
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


def invariant_violations(config: dict, prev: dict | None, rec: dict) -> list[str]:
    """The invariant families that record rec breaks after record prev (None
    for the first); run and verify_trace both call it.  Sums, bounds and
    recurrences are recomputed from the config and the recorded k, F_val, A,
    B_cert, a and g_k.  A field the config makes required fails each family
    that reads it when it is missing."""
    p, F_star, R, R0 = config["p"], config["F_star"], config["R"], config["R0"]
    c0, b0 = step_rates(config["mode"], config["H"], p, config["beta"])
    k, F, A, B = rec["k"], rec["F_val"], rec["A"], rec["B_cert"]
    a, g_k, res = rec.get("a"), rec.get("g_k"), rec.get("residual")
    g_ok = g_k is not None and g_k > 0.0
    step = prev is not None and k == prev["k"] + 1
    if prev is None:
        seq_ok, B_ok = k == 0 and A == 0.0, B == 0.0
    elif prev.get("g_k") is not None and prev["g_k"] <= OPTIMAL_G:
        seq_ok, B_ok = False, True  # nothing follows the final optimal record
    elif step:
        seq_ok = a is not None and a > 0.0 and abs(prev["A"] + a - A) <= 1e-12 * A
        B_ok = g_ok and abs(prev["B_cert"] + b0 * A * g_k ** ((p + 1) / p)
                            - B) <= 1e-12 * B
    else:  # the final optimal record repeats k, A and B_cert
        seq_ok = k == prev["k"] and A == prev["A"] \
            and g_k is not None and g_k <= OPTIMAL_G
        B_ok = B == prev["B_cert"]

    bad = []
    if prev is not None and F > prev["F_val"] + 1e-10 * (1.0 + abs(prev["F_val"])):
        bad.append("descent")
    if not seq_ok:
        bad.append("A_nondecreasing")
    ps = rec.get("psi_star")
    if not B_ok or ps is None or A * F + B > ps + 1e-8 * (1.0 + abs(ps)):
        bad.append("estimating_lower")
    if R0 is not None:
        ub = A * F_star + 0.5 * R0 * R0
        psx = rec.get("psi_at_xstar")
        if psx is None or psx > ub + 1e-8 * (1.0 + abs(ub)):
            bad.append("estimating_upper")
    if step:
        c = c0 * g_k ** ((1.0 - p) / p) if g_ok else math.nan
        if a is None or not (A > 0.0 and abs(a * a / A - c) <= 1e-6 * c):
            bad.append("coefficient_equation")
    if step or res is not None:
        if res is None or g_k is None \
                or res > 2.0 ** (1.0 / (p + 1)) * g_k * (1.0 + 1e-9) + 1e-12:
            bad.append("residual_bound")
    cert, F_gap = rec.get("gap_cert"), rec.get("F_gap")
    gap_ok = R is None or A <= 0.0 \
        or cert is not None and cert <= R * R / (2.0 * A) + 1e-9
    if F_star is not None:
        gap = F - F_star
        gap_ok = gap_ok and F_gap is not None and abs(F_gap - gap) <= 1e-9 \
            and (cert is None or cert >= gap - 1e-9)
    if not gap_ok:
        bad.append("gap_bound")
    return bad


def verify_trace(trace: RunTrace) -> dict:
    """Replay every per-iteration invariant of a trace.

    Returns {family: {"ok": bool, "violations": [k, ...]}}; purely
    arithmetic on the recorded fields and the config (see
    invariant_violations), so tampered or stripped traces fail loudly.
    ValueError names any field that every check reads and the config or a
    record lacks, and any field a check reads that has the wrong type.
    """
    _require(trace.config, ("mode", "p", "H", "beta", "F_star", "R", "R0"),
             "trace config", nullable=("F_star", "R", "R0"))
    checks = {name: [] for name in FAMILIES}
    prev = None
    for i, rec in enumerate(trace.records):
        _require(rec, ("k", "F_val", "A", "B_cert"), f"trace record {i}",
                 nullable=("a", "g_k", "residual", "psi_star", "psi_at_xstar",
                           "gap_cert", "F_gap"))
        for name in invariant_violations(trace.config, prev, rec):
            checks[name].append(rec["k"])
        prev = rec
    return {name: {"ok": not bad, "violations": bad}
            for name, bad in checks.items()}
