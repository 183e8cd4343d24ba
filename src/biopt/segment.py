"""Segment search: exact 1-D case table, brute-force reference, bisection.

The segment-search prox jointly minimizes F(x) + H d_{p+1}(x - xbar - tau*u)
over x and tau in [0, 1].  The closed-form case table covers the canonical
1-D instance; the reference oracle certifies it by grid scan + polish; the
bisection scheme produces the bracketing segment data the inexact driver
consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .acceptance import AcceptedPoint
from .config import DEFAULT_CAPS, BisectionStall, SolveCaps
from .lower import solve_acceptable
from .numerics import golden_section, monotone_root, power_mean_norm, radial_solver
from .problems import ProblemInstance, QuadraticOracle, SeparableOracle


@dataclass
class SproxResult:
    x_plus: np.ndarray
    tau_plus: float
    g_plus: float | None
    branch: str
    objective: float


def exact_sprox_1d(xbar: float, ubar: float) -> SproxResult:
    """Case-table segment-search prox for example1d: F(x) = x^2/2 + |x|,
    p = 3, H = 1 (exact_sprox_1d_general with these constants)."""
    return exact_sprox_1d_general(xbar, ubar, 1.0, 3)


def exact_sprox_1d_general(xbar: float, ubar: float, H: float, p: int,
                           weight: float = 1.0) -> SproxResult:
    """Case-table segment-search prox of F(x) = x^2/2 + weight*|x| with
    regularizer H|x - m|^{p+1}/(p+1), anchor m = xbar + tau*ubar.

    Candidates: the zero point on the interior of the segment (objective 0),
    and per endpoint anchor m the root x of the signed stationarity equation
    x + s*weight + H|x - m|^{p-1}(x - m) = 0, s = +-1, when s*x > 0, plus
    x = 0 with subgradient H|m|^{p-1}m when that lies in [-weight, weight].
    The equation's left side increases with slope 1 + pH|x - m|^{p-1}, so
    monotone_root's safeguarded Newton finds its one root from the bracket
    between 0 and s(|m| + weight + 1).  The winner minimizes the joint
    objective.
    """
    xbar, ubar, H = float(xbar), float(ubar), float(H)

    def objective(x, tau):
        m = xbar + tau * ubar
        return 0.5 * x * x + weight * abs(x) + H * abs(x - m) ** (p + 1) / (p + 1)

    candidates = []  # (x, tau, g, branch)
    if ubar != 0.0:
        ti = -xbar / ubar
        if 0.0 < ti < 1.0:
            candidates.append((0.0, ti, 0.0, "interior"))
    for tau, tag in ((0.0, "tau0"), (1.0, "tau1")):
        m = xbar + tau * ubar
        span = abs(m) + weight + 1.0
        for s, side in ((1.0, "pos"), (-1.0, "neg")):
            x = monotone_root(
                lambda x: x + s * weight + H * abs(x - m) ** (p - 1) * (x - m),
                min(0.0, s * span), max(0.0, s * span),
                lambda x: 1.0 + p * H * abs(x - m) ** (p - 1))
            if s * x > 1e-12:
                candidates.append((x, tau, s * weight, f"{tag}_{side}"))
        g0 = H * abs(m) ** (p - 1) * m
        if abs(g0) <= weight:
            side = "pos" if m >= 0.0 else "neg"
            candidates.append((0.0, tau, g0, f"{tag}_{side}"))
    x, tau, g, branch = min(candidates, key=lambda c: objective(c[0], c[1]))
    return SproxResult(np.array([x]), tau, g, branch, objective(x, tau))


def sprox_quadratic(instance: ProblemInstance, xbar: np.ndarray, u: np.ndarray,
                    H: float, p: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Exact segment-search prox for a quadratic f with psi = 0, identity metric.

    Inner problem at anchor m = xbar + tau*u: (Q + s I) h = -grad f(m) with
    the shift s = H ||h||^{p-1}, solved by radial_solver on one
    eigendecomposition of Q; x(tau) = m + h.  The tau-objective V(tau) =
    min_x f(x) + H d_{p+1}(x - m) is convex with the envelope slope
    V'(tau) = <grad f(x), u>, so tau is 0 when V'(0) >= 0, 1 when V'(1) <= 0,
    and the root of V' otherwise, by monotone_root's safeguarded Newton.

    Both slopes are formed without cancellation, so near the root they carry
    roundoff of their own size, not of the size of Qx and c:
    grad f(m) = grad f(xbar) + tau Q u, and grad f(x) = -s h by the inner
    equation, so V' = -s <h, u>.  Differentiating the inner equation in tau
    (m' = u) gives J x' = s u + k <h, u> h with J = Q + s I + k h h^T and
    k = (p-1) s / ||h||^2, and V'' = <Q u, x'>.  The point at each tau is
    memoized, so V'' and the returned x reuse the radial solve V' made.
    """
    sm = instance.smooth
    if instance.simple.kind != "zero" or not instance.metric.is_identity:
        raise ValueError("sprox_quadratic needs psi = 0 and the identity metric")
    if not isinstance(sm, QuadraticOracle):
        raise ValueError("sprox_quadratic needs a quadratic smooth part")
    radial = radial_solver(instance.metric, sm.Q, H, p)
    g0, Qu = sm.value_grad(xbar)[1], sm.Q @ u

    @cache
    def point(tau):  # x(tau), h, the shift s and V'(tau)
        h = radial(g0 + tau * Qu)
        s = H * float(np.linalg.norm(h)) ** (p - 1)
        return xbar + tau * u + h, h, s, -s * float(h @ u)

    def slope(tau):
        return point(tau)[3]

    def curvature(tau):  # never at h = 0: there V' = 0 ends the search
        _, h, s, _ = point(tau)
        k = (p - 1) * s / float(h @ h)
        J = sm.Q + s * np.eye(len(h)) + k * np.outer(h, h)
        return float(Qu @ np.linalg.solve(J, s * u + (k * float(h @ u)) * h))

    if slope(0.0) >= 0.0:
        tau = 0.0
    elif slope(1.0) <= 0.0:
        tau = 1.0
    else:
        tau = monotone_root(slope, 0.0, 1.0, curvature)
    return point(tau)[0], float(tau), np.zeros(instance.dim)


def make_sprox_oracle(instance: ProblemInstance, H: float, p: int):
    """Pick the exact segment-search oracle matching the instance structure."""
    sm = instance.smooth
    if (instance.dim == 1 and isinstance(sm, QuadraticOracle)
            and sm.Q[0, 0] == 1.0 and sm.c[0] == 0.0
            and instance.simple.kind == "l1"):
        w = instance.simple.weight

        def oracle(xbar, u):
            res = exact_sprox_1d_general(xbar[0], u[0], H, p, weight=w)
            return res.x_plus, res.tau_plus, np.array([res.g_plus])
        return oracle
    if instance.simple.kind == "zero" and isinstance(sm, QuadraticOracle) \
            and instance.metric.is_identity:
        return lambda xbar, u: sprox_quadratic(instance, xbar, u, H, p)
    raise ValueError(f"no exact segment-search oracle for {instance.name!r}")


# ---------------------------------------------------------------------------
# brute-force reference oracle
# ---------------------------------------------------------------------------

def _vectorized_1d(instance: ProblemInstance):
    """Elementwise objective F(x) for a 1-D instance, over an array of x."""
    sm = instance.smooth
    if isinstance(sm, QuadraticOracle):
        q = sm.Q[0, 0]
        c0 = sm.c[0]

        def fval(x):
            return 0.5 * q * x * x - c0 * x
    elif isinstance(sm, SeparableOracle):
        a_col = sm.A[:, 0]
        b = sm.b
        deriv, open_domain = sm.deriv, sm.open_domain

        def fval(x):
            t = np.multiply.outer(x, a_col) - b
            if open_domain:
                bad = np.any(t <= 0.0, axis=-1)
                t = np.where(t > 0.0, t, 1.0)
                out = np.sum(deriv(t, 0), axis=-1)
                return np.where(bad, np.inf, out)
            return np.sum(deriv(t, 0), axis=-1)
    else:  # pragma: no cover - all shipped oracles are handled above
        raise NotImplementedError("unsupported smooth oracle for 1-D reference")

    psi = instance.simple
    if psi.kind == "zero":
        pval = lambda x: 0.0
    elif psi.kind == "l1":
        w = psi.weight
        pval = lambda x: w * np.abs(x)
    else:
        lo, hi = psi.lo[0], psi.hi[0]
        pval = lambda x: np.where((x >= lo - 1e-12) & (x <= hi + 1e-12), 0.0, np.inf)

    return lambda x: fval(x) + pval(x)


def _inner_solver_1d(instance, anchor_lo, anchor_hi, H, p):
    """Vectorized solver of min_x F(x) + H|x - m|^{p+1}/(p+1) over anchors m.

    The F sample behind the level-set bracket (and the lower bound F_lb when
    F* is unknown) is taken once over [anchor_lo - 5, anchor_hi + 5], so every
    later call with anchors in that range reuses it.
    """
    F = _vectorized_1d(instance)
    sample = np.linspace(anchor_lo - 5.0, anchor_hi + 5.0, 4001)
    fs = F(sample)
    x_best = float(sample[np.argmin(fs)])
    F_lb = (instance.F_star if instance.F_star is not None
            else float(np.min(fs)) - 1e-9)

    def solve(anchors):
        m = np.asarray(anchors, dtype=float)

        def total(x):  # |x - m|^{p+1} by in-place products: np.power is slower
            reg = np.abs(x - m)
            a = reg.copy()
            for _ in range(p):
                reg *= a
            reg *= H / (p + 1)
            return F(x) + reg

        # level-set bracket: H d(T - m) <= F(base) + H d(base - m) - F_lb
        Fm = F(m)
        base = np.where(np.isfinite(Fm), m, x_best)
        base_val = total(base)
        R = ((p + 1) * np.maximum(base_val - F_lb, 0.0) / H) ** (1.0 / (p + 1)) + 1e-6
        R = R + np.abs(base - m)
        for _ in range(8):
            lo, hi = m - R, m + R
            if instance.simple.kind == "box":
                lo = np.maximum(lo, instance.simple.lo[0])
                hi = np.minimum(hi, instance.simple.hi[0])
            x, val = golden_section(total, lo, hi, iters=110)
            near_edge = (np.minimum(x - lo, hi - x) < 1e-3 * R) & (val > F_lb + 1e-12)
            if not np.any(near_edge):
                break
            R = np.where(near_edge, 4.0 * R, R)
        return x, val

    return solve


def sprox_reference(instance: ProblemInstance, xbar: np.ndarray, u: np.ndarray,
                    H: float, p: int,
                    grid_tau: int = 10000) -> tuple[np.ndarray, float, float]:
    """Grid-scan + polish minimization of the segment-search objective.

    Scans tau on a uniform grid, solves the inner x-problem at each tau by
    direct numerical minimization (no closed form, no stationarity
    equation), then polishes tau inside the two grid cells around the best
    grid point.  The tau-objective min_x F(x) + H d_{p+1}(x - xbar - tau*u) is
    a partial minimum of a jointly convex function, hence convex in tau, so
    its minimizer lies in that bracket.  In 1-D the polish zooms: each level
    solves the inner problem on 101 evenly spaced taus of the bracket in one
    vectorized call and shrinks the bracket to the two cells around the best
    of them.  In higher dimension it is a golden section with one lower-level
    solve per tau.  The best grid point is kept when the polish does not
    improve on it.  Desk-scale guardrails: dim <= 5, grid_tau <= 10^4.
    """
    if instance.dim > 5:
        raise ValueError("sprox_reference is limited to dim <= 5")
    if grid_tau > 10 ** 4:
        raise ValueError("grid_tau capped at 10^4")
    xbar = np.asarray(xbar, dtype=float)
    u = np.asarray(u, dtype=float)
    taus = np.linspace(0.0, 1.0, grid_tau + 1)

    if instance.dim == 1:
        anchors = xbar[0] + taus * u[0]
        solve = _inner_solver_1d(instance, float(np.min(anchors)),
                                 float(np.max(anchors)), H, p)
        xs, vals = solve(anchors)
        j = int(np.argmin(vals))
        best_x, best_tau, best_val = xs[j], taus[j], vals[j]
        lo_t, hi_t = taus[max(j - 1, 0)], taus[min(j + 1, grid_tau)]
        for _ in range(4):
            ts = np.linspace(lo_t, hi_t, 101)
            xz, vz = solve(xbar[0] + ts * u[0])
            i = int(np.argmin(vz))
            if vz[i] <= best_val:
                best_x, best_tau, best_val = xz[i], ts[i], vz[i]
            lo_t, hi_t = ts[max(i - 1, 0)], ts[min(i + 1, 100)]
        return np.array([best_x]), float(best_tau), float(best_val)

    # generic low-dimensional path: near-exact lower-level solve per tau
    def solve_at(tau):
        anchor = xbar + tau * u
        ap, _ = solve_acceptable(instance, anchor, H, p, beta=1e-8)
        dval = instance.metric.norm(ap.T - anchor) ** (p + 1) / (p + 1)
        return ap.T, instance.F(ap.T) + H * dval

    best_x, best_val, best_j = None, math.inf, 0
    for j, tau in enumerate(taus):
        xT, val = solve_at(tau)
        if val < best_val:
            best_x, best_val, best_j = xT, val, j
    lo_t = taus[max(best_j - 1, 0)]
    hi_t = taus[min(best_j + 1, grid_tau)]
    tau, val = golden_section(lambda t: solve_at(float(t))[1], lo_t, hi_t, iters=60)
    if val < best_val:
        xT, val = solve_at(tau)
        return xT, float(tau), float(val)
    return best_x, float(taus[best_j]), float(best_val)


# ---------------------------------------------------------------------------
# bisection scheme
# ---------------------------------------------------------------------------

@dataclass
class SegmentResult:
    tau1: float
    tau2: float
    T1: AcceptedPoint
    T2: AcceptedPoint
    beta1: float
    beta2: float
    alpha: float
    g_k: float
    bisections: int
    lower_iters: int = 0


def bisect_segment(instance: ProblemInstance, x_k: np.ndarray, u_k: np.ndarray,
                   end0: AcceptedPoint, end1: AcceptedPoint, H: float, p: int,
                   beta: float, caps: SolveCaps = DEFAULT_CAPS,
                   collect=None) -> SegmentResult:
    """Bracketing bisection on the directional products along the segment.

    Maintains tau1 < tau2 with beta1 <= 0 <= beta2; each halving solves the
    prox subproblem at the midpoint anchor and keeps the side whose sign
    matches.  Terminates when the weighted product drops below the driver's
    coefficient threshold (evaluated with the current bracket's g_k).
    """
    x_k = np.asarray(x_k, dtype=float)
    u_k = np.asarray(u_k, dtype=float)
    tau1, tau2 = 0.0, 1.0
    T1, T2 = end0, end1
    beta1 = float(T1.composite_grad() @ u_k)
    beta2 = float(T2.composite_grad() @ u_k)
    if not (beta1 < 0.0 < beta2):
        raise ValueError("bisection requires beta1 < 0 < beta2 at the endpoints")
    lower_total = 0
    threshold_c = 0.5 * ((1.0 - beta) / H) ** (1.0 / p)
    for i in range(caps.bisections + 1):
        alpha = beta2 / (beta2 - beta1)
        g_k = power_mean_norm(alpha, T1.grad_F_norm, T2.grad_F_norm, p)
        lhs = alpha * (tau2 - tau1) * (-beta1)
        rhs = threshold_c * g_k ** ((p + 1) / p)
        if lhs <= rhs:
            return SegmentResult(tau1, tau2, T1, T2, beta1, beta2, alpha, g_k,
                                 bisections=i, lower_iters=lower_total)
        tau_mid = 0.5 * (tau1 + tau2)
        anchor = x_k + tau_mid * u_k
        ap, iters = solve_acceptable(instance, anchor, H, p, beta, caps=caps)
        lower_total += iters
        if collect is not None:
            collect(ap)
        b_mid = float(ap.composite_grad() @ u_k)
        if b_mid <= 0.0:
            tau1, T1, beta1 = tau_mid, ap, b_mid
        else:
            tau2, T2, beta2 = tau_mid, ap, b_mid
    raise BisectionStall("bisection stall")
