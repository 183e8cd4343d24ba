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
from .config import BisectionStall
from .lower import solve_acceptable
from .numerics import golden_section, monotone_root, power_mean_norm, secular_shift
from .problems import ProblemInstance, QuadraticOracle

MAX_BISECTIONS = 60  # bisect_segment raises BisectionStall past it


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
    and one per endpoint anchor m, set by g0 = H|m|^{p-1}m: x = 0 with
    subgradient g0 when |g0| <= weight, else the root x of the stationarity
    equation x + s*weight + H|x - m|^{p-1}(x - m) = 0, s = sign(m).  The
    left side increases with slope 1 + pH|x - m|^{p-1} and is s*weight - g0
    at 0, so it has a root off 0 only on the s side and only when s*g0 >
    weight; it has the sign of s at s(|m| + weight + 1), where
    monotone_root's bracket ends.  The winner minimizes the joint objective.
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
        s, branch = (1.0, f"{tag}_pos") if m >= 0.0 else (-1.0, f"{tag}_neg")
        g0 = H * abs(m) ** (p - 1) * m
        if abs(g0) <= weight:
            candidates.append((0.0, tau, g0, branch))
            continue
        span = abs(m) + weight + 1.0
        x = monotone_root(
            lambda x: x + s * weight + H * abs(x - m) ** (p - 1) * (x - m),
            min(0.0, s * span), max(0.0, s * span),
            lambda x: 1.0 + p * H * abs(x - m) ** (p - 1))
        candidates.append((x, tau, s * weight, branch))
    x, tau, g, branch = min(candidates, key=lambda c: objective(c[0], c[1]))
    return SproxResult(np.array([x]), tau, g, branch, objective(x, tau))


def sprox_quadratic(instance: ProblemInstance, xbar: np.ndarray, u: np.ndarray,
                    H: float, p: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Exact segment-search prox for a quadratic f with psi = 0, identity metric.

    Inner problem at anchor m = xbar + tau*u: (Q + s I) h = -grad f(m) with
    the shift s = H ||h||^{p-1}; x(tau) = m + h.  The tau-objective V(tau) =
    min_x f(x) + H d_{p+1}(x - m) is convex with the envelope slope
    V'(tau) = <grad f(x), u>, so tau is where V' changes sign on [0, 1] (0,
    1 or the root of V'), found by monotone_root.

    The whole tau search runs on Python floats in Q's eigenbasis Q = S
    diag(lam) S^T, which the oracle computes once (QuadraticOracle.eigenbasis).
    grad f(m) = grad f(xbar) + tau Q u is affine in tau, so w = S^T grad f(m)
    comes from the transforms of grad f(xbar) and Q u, made once per call.
    At each tau, secular_shift gives s, h~ = S^T h = -w/(lam + s), and, as
    grad f(x) = -s h by the inner equation, V' = -s <h~, u~> with u~ = S^T u.
    Both slopes are formed without cancellation, so near the root they
    carry roundoff of their own size, not of the size of Qx and c.
    Differentiating the inner equation in tau (m' = u) gives J x' = s u +
    k <h, u> h with J = Q + s I + k h h^T and k = (p-1) s / ||h||^2, and
    V'' = <Q u, x'>.  In the eigenbasis J is diag(lam + s) + k h~ h~^T, so by
    Sherman-Morrison, with D = diag(1/(lam + s)),
    V'' = s <lam u~, D u~> + k G^2 / (1 + k <h~, D h~>), G = <lam h~, D u~>.
    The point at each tau is memoized, so V'' reuses the shift V' found, and
    S maps h~ back once, at the returned tau.
    """
    sm = instance.smooth
    if instance.simple.kind != "zero" or not instance.metric.is_identity:
        raise ValueError("sprox_quadratic needs psi = 0 and the identity metric")
    if not isinstance(sm, QuadraticOracle):
        raise ValueError("sprox_quadratic needs a quadratic smooth part")
    lam, S = sm.eigenbasis
    lam_list = lam.tolist()
    w0, w1 = S.T @ sm.value_grad(xbar)[1], S.T @ (sm.Q @ u)  # w = w0 + tau w1
    u_t = (S.T @ u).tolist()

    @cache
    def point(tau):  # h~(tau), the shift s and V'(tau)
        w = w0 + tau * w1
        s = secular_shift(lam_list, w, H, p)
        h, hu = [], 0.0
        for lam_i, w_i, u_i in zip(lam_list, w.tolist(), u_t):
            h_i = -w_i / (lam_i + s)
            h.append(h_i)
            hu += h_i * u_i
        return h, s, -s * hu

    def slope(tau):
        return point(tau)[2]

    def curvature(tau):  # never at h = 0: there V' = 0 ends the search
        h, s, _ = point(tau)
        A = G = E = n2 = 0.0
        for lam_i, h_i, u_i in zip(lam_list, h, u_t):
            d = 1.0 / (lam_i + s)
            A += lam_i * u_i * u_i * d
            G += lam_i * h_i * u_i * d
            E += h_i * h_i * d
            n2 += h_i * h_i
        k = (p - 1) * s / n2
        return s * A + k * G * G / (1.0 + k * E)

    tau = monotone_root(slope, 0.0, 1.0, curvature)
    return xbar + tau * u + S @ point(tau)[0], float(tau), np.zeros(instance.dim)


def make_sprox_oracle(instance: ProblemInstance, H: float, p: int):
    """Pick the exact segment-search oracle matching the instance structure;
    both solve the segment prox in the Euclidean norm, so both need B = I."""
    sm = instance.smooth
    if (instance.dim == 1 and isinstance(sm, QuadraticOracle)
            and sm.Q[0, 0] == 1.0 and sm.c[0] == 0.0
            and instance.simple.kind == "l1" and instance.metric.is_identity):
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

def _inner_solver_1d(instance: ProblemInstance, H: float, p: int):
    """Vectorized solver of min_x F(x) + H|x - m|^{p+1}/(p+1) over anchors m,
    for the one 1-D family the reference serves: F(x) = q x^2/2 - c x + w|x|
    with a known F*.

    The minimizer x satisfies F(x) + H|x - m|^{p+1}/(p+1) <= F(m) and
    F(x) >= F*, so it lies in the level set H|x - m|^{p+1}/(p+1) <= F(m) - F*,
    which brackets the golden section.
    """
    sm = instance.smooth
    if not (isinstance(sm, QuadraticOracle) and instance.simple.kind == "l1"
            and instance.F_star is not None):
        raise ValueError("the 1-D sprox_reference needs F(x) = q x^2/2 - c x "
                         "+ w|x| with a known F*")
    q, c0, w, F_star = sm.Q[0, 0], sm.c[0], instance.simple.weight, instance.F_star

    def F(x):
        return 0.5 * q * x * x - c0 * x + w * np.abs(x)

    def solve(anchors):
        m = np.asarray(anchors, dtype=float)

        def total(x):  # |x - m|^{p+1} by in-place products: np.power is slower
            reg = np.abs(x - m)
            a = reg.copy()
            for _ in range(p):
                reg *= a
            reg *= H / (p + 1)
            return F(x) + reg

        R = ((p + 1) * np.maximum(F(m) - F_star, 0.0) / H) ** (1.0 / (p + 1)) + 1e-6
        return golden_section(total, m - R, m + R, iters=110)

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
    its minimizer lies in that bracket.  The polish zooms: each of 4 levels
    solves the inner problem on 101 evenly spaced taus of the bracket and
    shrinks the bracket to the two cells around the best of them; the best
    tau seen is returned.  The inner solve is one vectorized call per set of
    taus in 1-D and one near-exact lower-level solve per tau in higher
    dimension.  Scope: in 1-D only F(x) = q x^2/2 - c x + w|x| with a known
    F* (ValueError otherwise), in dimension 2 to 5 any instance;
    grid_tau <= 10^4.
    """
    if instance.dim > 5:
        raise ValueError("sprox_reference is limited to dim <= 5")
    if grid_tau > 10 ** 4:
        raise ValueError("grid_tau capped at 10^4")
    xbar = np.asarray(xbar, dtype=float)
    u = np.asarray(u, dtype=float)

    if instance.dim == 1:
        inner = _inner_solver_1d(instance, H, p)

        def solve(taus):
            return inner(xbar[0] + taus * u[0])
    else:
        def solve(taus):
            xs, vals = [], []
            for tau in taus:
                anchor = xbar + tau * u
                ap, _ = solve_acceptable(instance, anchor, H, p, beta=1e-8)
                dval = instance.metric.norm(ap.T - anchor) ** (p + 1) / (p + 1)
                xs.append(ap.T)
                vals.append(instance.F(ap.T) + H * dval)
            return xs, np.array(vals)

    taus = np.linspace(0.0, 1.0, grid_tau + 1)
    xs, vals = solve(taus)
    j = int(np.argmin(vals))
    best_x, best_tau, best_val = xs[j], taus[j], vals[j]
    for _ in range(4):
        lo, hi = taus[max(j - 1, 0)], taus[min(j + 1, len(taus) - 1)]
        taus = np.linspace(lo, hi, 101)
        xs, vals = solve(taus)
        j = int(np.argmin(vals))
        if vals[j] <= best_val:
            best_x, best_tau, best_val = xs[j], taus[j], vals[j]
    return np.atleast_1d(best_x), float(best_tau), float(best_val)


# ---------------------------------------------------------------------------
# bisection scheme
# ---------------------------------------------------------------------------

def step_rates(mode: str, H: float, p: int,
               beta: float | None) -> tuple[float, float]:
    """(c0, b0): a_k^2/A_{k+1} = c0 g_k^{(1-p)/p} and B_cert grows by
    b0 A_{k+1} g_k^{(p+1)/p}; the exact driver ignores beta.  The driver's
    steps, bisect_segment and verify_trace call it, so it rejects a bad H
    or p, or a mode that is none of the three, with ValueError."""
    if mode not in ("exact", "inexact", "superfast"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (math.isfinite(H) and H > 0.0 and p >= 1):
        raise ValueError(f"H must be positive and finite and p >= 1, got "
                         f"H={H!r}, p={p!r}")
    if mode == "exact":
        factor, b, base = 1.0, 0.5, (1.0 / H) ** (1.0 / p)
    else:
        factor, b, base = 0.25, 0.25, ((1.0 - beta) / H) ** (1.0 / p)
    return factor * base, b * base


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
                   beta: float) -> SegmentResult:
    """Bracketing bisection on the directional products along the segment.

    Maintains tau1 < tau2 with beta1 <= 0 <= beta2; each halving solves the
    prox subproblem at the midpoint anchor and keeps the side whose sign
    matches.  Terminates when the weighted product drops below 2 c0
    g_k^{(p+1)/p}, c0 the inexact rate of step_rates, at the bracket's g_k.
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
    threshold_c = 2.0 * step_rates("inexact", H, p, beta)[0]
    for i in range(MAX_BISECTIONS + 1):
        alpha = beta2 / (beta2 - beta1)
        g_k = power_mean_norm(alpha, T1.grad_F_norm, T2.grad_F_norm, p)
        lhs = alpha * (tau2 - tau1) * (-beta1)
        rhs = threshold_c * g_k ** ((p + 1) / p)
        if lhs <= rhs:
            return SegmentResult(tau1, tau2, T1, T2, beta1, beta2, alpha, g_k,
                                 bisections=i, lower_iters=lower_total)
        tau_mid = 0.5 * (tau1 + tau2)
        anchor = x_k + tau_mid * u_k
        ap, iters = solve_acceptable(instance, anchor, H, p, beta)
        lower_total += iters
        b_mid = float(ap.composite_grad() @ u_k)
        if b_mid <= 0.0:
            tau1, T1, beta1 = tau_mid, ap, b_mid
        else:
            tau2, T2, beta2 = tau_mid, ap, b_mid
    raise BisectionStall("bisection stall")
