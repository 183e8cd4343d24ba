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
from .config import BisectionStall, DegenerateCoefficient
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

        def phi(x):
            a = abs(x - m) ** (p - 1)
            return x + s * weight + H * a * (x - m), 1.0 + p * H * a
        x = monotone_root(phi, min(0.0, s * span), max(0.0, s * span))
        candidates.append((x, tau, s * weight, branch))
    x, tau, g, branch = min(candidates, key=lambda c: objective(c[0], c[1]))
    return SproxResult(np.array([x]), tau, g, branch, objective(x, tau))


def sprox_quadratic(instance: ProblemInstance, xbar: np.ndarray, u: np.ndarray,
                    H: float, p: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Exact segment-search prox for a quadratic f with psi = 0, identity metric.

    Inner problem at anchor m = xbar + tau*u: (Q + s I) h = -grad f(m) with
    the shift s = H ||h||^{p-1}; x(tau) = m + h.  The tau-objective V(tau) =
    min_x f(x) + H d_{p+1}(x - m) is convex with the envelope slope
    V'(tau) = <grad f(x), u> = -s <h, u>, as grad f(x) = -s h by the inner
    equation.  So tau is 0 when V'(0) >= 0, 1 when V'(1) <= 0, and otherwise
    the interior point where h is orthogonal to u.

    Everything runs on Python floats in Q's eigenbasis Q = S diag(lam) S^T,
    which the oracle makes when it is built, from the eigendecomposition
    that also serves its PSD check and M_2 (QuadraticOracle.eigenbasis).
    grad f(m) = g0 + tau Q u with g0 = grad f(xbar) = Q xbar - c, so w =
    S^T grad f(m) = w0 + tau w1 comes from two transforms made once per
    call (the ends take w0 and w0 + w1), and h~ = S^T h =
    -w/(lam + s) (0 where w_i = 0: at s = 0 a zero eigenvalue would give
    0/0).  Each endpoint is one secular_shift solve, and S maps h~ back once.

    The interior point is one root in the shift s.  For a fixed s, <h, u> =
    0 is linear in tau: with D = diag(1/(lam + s)) and u~ = S^T u,
    tau(s) = -<w0, D u~>/<w1, D u~>, whose denominator <Q u, (Q + s I)^{-1} u>
    is positive unless Q u = 0.  Q u = 0 makes V' constant, so the endpoint
    tests end the call; a non-positive denominator here is roundoff and
    raises DegenerateCoefficient.  Minimizing out tau, h(s) solves
    (Qs + s I) h = -g^ on the complement of u, where Qs = Q - Q u u^T Q/<Q u, u>
    is the Schur complement and g^ = g0 + tau_f Q u, tau_f = -<g0, u>/<Q u, u>,
    is grad f at f's minimizer on the line.  On that complement Qs's
    eigenvalues lie in [lam_min, lam_max], as <Qs v, v> = min_t <Q(v + t u),
    v + t u>.  So phi(s) = 1/||h(s)|| - (H/s)^{1/(p-1)} is increasing and
    concave (1/||h|| is More & Sorensen's reciprocal form, and -(H/s)^{1/(p-1)}
    is concave), and Newton in s never passes the root from the left.
    secular_shift's bracket argument applied to ||g^||, with the eigenvalue
    bounds, puts the root in [H (b_lo/2)^{p-1}, H b_hi^{p-1}] with b_lo =
    min(||g^||/lam_max, (||g^||/H)^{1/p}) and b_hi = min(||g^||/lam_min,
    (||g^||/H)^{1/p}).  monotone_root solves it, reading phi and its slope
    phi'(s) = (<h~, D h~> + s <h~, D u~>^2/<w1, D u~>)/||h||^3
    + (H/s)^{1/(p-1)}/((p-1) s), from d||h||^2/ds = 2 <h, h'> and h~' =
    -D h~ - tau' D w1, where <h~', u~> = 0 gives tau' = -<h~, D u~>/<w1, D u~>
    and <h~, D w1> = <h~, u~> - s <h~, D u~> = -s <h~, D u~>.  For p = 1 the
    shift is H and tau = tau(H).  g^ = 0 means the line passes through a
    minimizer of f: then h = 0 and tau = tau_f.
    """
    sm = instance.smooth
    if instance.simple.kind != "zero" or not instance.metric.is_identity:
        raise ValueError("sprox_quadratic needs psi = 0 and the identity metric")
    if not isinstance(sm, QuadraticOracle):
        raise ValueError("sprox_quadratic needs a quadratic smooth part")
    lam, S = sm.eigenbasis
    lam_list = lam.tolist()
    w0, w1 = S.T @ (sm.Q @ xbar - sm.c), S.T @ (sm.Q @ u)  # w = w0 + tau w1
    u_t = (S.T @ u).tolist()

    def done(tau, h):  # roundoff can put an interior tau just outside [0, 1]
        tau = min(max(tau, 0.0), 1.0)
        return xbar + tau * u + S @ h, tau, np.zeros(instance.dim)

    def point(w):  # h~ and V' at the anchor where S^T grad f = w
        s = secular_shift(lam_list, w, H, p)
        h, hu = [], 0.0
        for lam_i, w_i, u_i in zip(lam_list, w.tolist(), u_t):
            h_i = 0.0 if w_i == 0.0 else -w_i / (lam_i + s)
            h.append(h_i)
            hu += h_i * u_i
        return h, -s * hu

    h, slope = point(w0)
    if slope >= 0.0:
        return done(0.0, h)
    h, slope = point(w0 + w1)
    if slope <= 0.0:
        return done(1.0, h)

    coef = list(zip(w0.tolist(), w1.tolist(), u_t))

    @cache
    def at(s):  # tau(s), h~(s), ||h||^2 and ||h||^3 times phi'(s)'s first term
        d = [1.0 / (lam_i + s) for lam_i in lam_list]
        num = den = 0.0
        for (w0_i, w1_i, u_i), d_i in zip(coef, d):
            num += w0_i * u_i * d_i
            den += w1_i * u_i * d_i
        if not den > 0.0:
            raise DegenerateCoefficient(
                f"segment prox: <Qu, (Q + sI)^-1 u> = {den!r} at an interior tau")
        tau = -num / den
        h, n2, E, P = [], 0.0, 0.0, 0.0
        for (w0_i, w1_i, u_i), d_i in zip(coef, d):
            w_i = w0_i + tau * w1_i
            h_i = 0.0 if w_i == 0.0 else -w_i * d_i  # d_i = inf if lam_i = 0, s tiny
            h.append(h_i)
            n2 += h_i * h_i
            E += h_i * h_i * d_i
            P += h_i * u_i * d_i
        return tau, h, n2, E + s * P * P / den

    e = p - 1
    if e == 0:
        s = H
    else:
        # tau_f minimizes f on the line; g^ = grad f there
        quu = sum(w1_i * u_i for _, w1_i, u_i in coef)
        if not quu > 0.0:
            raise DegenerateCoefficient(
                f"segment prox: <Qu, u> = {quu!r} at an interior tau")
        tau_f = -sum(w0_i * u_i for w0_i, _, u_i in coef) / quu
        g_hat = math.sqrt(sum((w0_i + tau_f * w1_i) ** 2 for w0_i, w1_i, _ in coef))
        if g_hat == 0.0:
            return done(tau_f, [0.0] * len(lam_list))
        root = (g_hat / H) ** (1.0 / p)
        b_lo = min(g_hat / lam_list[-1], root) if lam_list[-1] > 0.0 else root
        b_hi = min(g_hat / lam_list[0], root) if lam_list[0] > 0.0 else root

        def phi(s):  # (phi, phi')
            # -inf below the domain s > 0; h(s) = 0 puts a zero of grad f
            # on the line, so the root is left of s: +inf.  Both with an
            # infinite slope
            if s <= 0.0:
                return -math.inf, math.inf
            _, _, n2, slope = at(s)
            if not n2:
                return math.inf, math.inf
            n = math.sqrt(n2)
            power = (H / s) ** (1.0 / e)
            return 1.0 / n - power, slope / (n2 * n) + power / (e * s)

        s = monotone_root(phi, H * (0.5 * b_lo) ** e, H * b_hi ** e)
    tau, h, _, _ = at(s)
    return done(tau, h)


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
