"""Bregman composite-gradient lower level.

The scaling function is the truncated even-order Taylor expansion of the
smooth part at the prox center plus H d_{p+1}; the regularized objective is
relatively smooth and relatively strongly convex with respect to it, which
makes the non-Euclidean composite gradient loop linearly convergent and lets
it emit certified acceptable solutions of the prox subproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .acceptance import (ACCEPTANCE_ABS, ACCEPTANCE_REL, AcceptedPoint, evaluate,
                         subproblem_tol)
from .config import (DEFAULT_CAPS, AcceptanceFailure, DomainViolation,
                     OptimalityReached, SolveCaps, SubproblemStall)
from .numerics import Metric, prox_power, radial_solver
from .problems import ProblemInstance, SimpleOracle


@dataclass(frozen=True)
class RelSmoothParams:
    """Relative smoothness/strong-convexity constants of f^p w.r.t. rho."""

    xi: float
    H: float
    mu: float
    L: float
    kappa: float


REL_SMOOTH_L = 1.5  # L of the canonical xi = 2; the lower level's step uses 2L


def rel_smooth_params(p: int, M_next: float) -> RelSmoothParams:
    """Constants for the canonical choice xi = 2.

    H = 6 M_{p+1}(f) / (p-1)!, so xi (1 + xi) = (p-1)! H / M_{p+1} holds
    exactly; then mu = 1/2, L = 3/2, kappa = 1/3.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if M_next <= 0:
        raise ValueError("M_next must be > 0")
    H = 6.0 * M_next / math.factorial(p - 1)
    return RelSmoothParams(xi=2.0, H=H, mu=0.5, L=REL_SMOOTH_L, kappa=1.0 / 3.0)


class ScalingFunction:
    """rho_{y,H}(x) = sum_{k=1..q} D^{2k} f(y)[x-y]^{2k} / (2k)! + H d_{p+1}(x-y).

    Also the step subproblem's cache for this one anchor: D^2 f(y), its
    solvers and warm_start, the last call's step length and prox point.
    """

    def __init__(self, instance: ProblemInstance, y: np.ndarray, H: float, p: int):
        self.instance = instance
        self.y = np.asarray(y, dtype=float)
        self.H = float(H)
        self.p = int(p)
        self.q = p // 2
        self._face_solvers = {}
        self.warm_start = (1.0, None)

    @cached_property
    def expansion(self):
        """f(y), grad f(y), a thunk of D^2 f(y) and the even forms at y, from
        one oracle evaluation (SmoothOracle.expansion_at)."""
        expansion = self.instance.smooth.expansion_at(self.y, self.q)
        if expansion[1] is None:
            raise DomainViolation("anchor outside the domain of f")
        return expansion

    @cached_property
    def forms(self):
        """(h -> (D^{2k} f(y)[h]^{2k}, h-gradient), (2k)!) for k = 1..q, once per y."""
        return [(form, math.factorial(2 * k))
                for k, form in enumerate(self.expansion[3], 1)]

    def value_grad(self, x: np.ndarray, d=None) -> tuple[float, np.ndarray]:
        """rho and its gradient at x; d is prox_power(x - y) if already known."""
        h = np.asarray(x, dtype=float) - self.y
        dval, dgrad = prox_power(self.instance.metric, h, self.p) if d is None else d
        val = self.H * dval
        grad = self.H * dgrad
        for form, fac in self.forms:
            fv, fg = form(h)
            val += fv / fac
            grad = grad + fg / fac
        return val, grad

    @cached_property
    def K(self) -> np.ndarray:
        """D^2 f(y), once per y."""
        return self.expansion[2]()

    @cached_property
    def radial(self):
        """Solver g -> h of (D^2 f(y) + H ||h||^{p-1} B) h = -g, built once per y."""
        return radial_solver(self.instance.metric, self.K, self.H, self.p)

    def face_solver(self, free: np.ndarray):
        """(radial_solver of the free block F (diagonal metric): (g, a) -> h_F of
        (K_FF + H r^{p-1} B_FF) h_F = -g, r^2 = ||h_F||^2 + a^2, and the
        off-diagonal block K_FA); built once per anchor and free set, since
        consecutive steps mostly share a face."""
        key = free.tobytes()
        entry = self._face_solvers.get(key)
        if entry is None:
            m = self.instance.metric
            metric = Metric(None if m.is_identity else np.diag(np.diag(m.B)[free]),
                            dim=int(free.sum()))
            entry = (radial_solver(metric, self.K[np.ix_(free, free)], self.H, self.p),
                     self.K[np.ix_(free, ~free)])
            self._face_solvers[key] = entry
        return entry


def bregman(sf: ScalingFunction, x: np.ndarray, z: np.ndarray) -> float:
    """beta_rho(x, z) = rho(z) - rho(x) - <grad rho(x), z - x>; nonnegative."""
    vz, _ = sf.value_grad(z)
    vx, gx = sf.value_grad(x)
    d = np.asarray(z, dtype=float) - np.asarray(x, dtype=float)
    return vz - vx - float(gx @ d)


def reg_bregman(instance: ProblemInstance, anchor: np.ndarray, H: float,
                p: int, x: np.ndarray, z: np.ndarray) -> float:
    """Bregman distance of the regularized function f^p_{anchor,H}."""
    ez = evaluate(instance, anchor, H, p, z)
    ex = evaluate(instance, anchor, H, p, x)
    d = ez.x - ex.x
    return ez.reg_value - ex.reg_value - float(ex.reg_grad @ d)


def _shifted_grad(sf: ScalingFunction, L: float, c_shift: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """Gradient of the step subproblem's smooth part at the shifted h = z - y."""
    grad = c_shift + 2.0 * L * sf.H * prox_power(sf.instance.metric, h, sf.p)[1]
    for form, fac in sf.forms:
        grad = grad + 2.0 * L * form(h)[1] / fac
    return grad


def _face_step(sf: ScalingFunction, L: float, c_shift: np.ndarray,
               psi: SimpleOracle, x: np.ndarray, tried: set) -> np.ndarray | None:
    """Minimizer of the q = 1 step subproblem on the face of x, if inside it.

    The face holds the active coordinates A (l1: x_A = 0, signs sigma on
    the rest; box: x_A at lo or hi) and frees F.  With h_A fixed there, the
    step's stationarity on F is the secular equation
    (K_FF + H r^{p-1} B_FF) h_F = -(c_F/(2L) + [l1] w sigma_F/(2L) + K_FA h_A),
    r^2 = ||h_F||^2 + ||h_A||^2, solved by the face's radial solver with the
    norm offset ||h_A|| (Byrd, Chin, Nocedal & Oztoprak, Math. Program. 159,
    2016).  Returns the step h, or None when the face is in tried (which
    records it) or y + h leaves the face (a sign changes or a bound is
    reached): there the minimizer over the face is not the subproblem's.
    """
    y = sf.y
    if psi.kind == "l1":
        pattern = np.sign(x)
        free = pattern != 0.0
        x_face = np.zeros_like(x)
    else:
        pattern = np.where(x >= psi.hi, 1.0, np.where(x <= psi.lo, -1.0, 0.0))
        free = pattern == 0.0
        x_face = np.where(pattern > 0.0, psi.hi, psi.lo)
    key = pattern.tobytes()
    if key in tried:
        return None
    tried.add(key)
    h = np.where(free, 0.0, x_face - y)
    if not free.any():
        return h
    solve, K_FA = sf.face_solver(free)
    g = c_shift[free] / (2.0 * L) + K_FA @ h[~free]
    if psi.kind == "l1":
        g = g + psi.weight * pattern[free] / (2.0 * L)
    h[free] = solve(g, sf.instance.metric.norm(h))
    x_free = y[free] + h[free]
    if psi.kind == "l1":
        inside = np.all(np.sign(x_free) == pattern[free])
    else:
        lo, hi = (np.broadcast_to(b, x.shape)[free] for b in (psi.lo, psi.hi))
        inside = np.all((lo < x_free) & (x_free < hi))
    return h if inside else None


def subproblem_solve(sf: ScalingFunction, L: float, c_shift: np.ndarray,
                     psi: SimpleOracle, tol: float,
                     cap: int = DEFAULT_CAPS.inner_subproblem) -> np.ndarray:
    """Minimize <c,h> + 2L sum_k D^{2k}f(y)[h]^{2k}/(2k)! + psi(y+h) + 2LH d_{p+1}(h).

    psi = 0 with q = 1 takes the radial reduction (the step solves
    (2L D^2f(y) + 2LH ||h||^{p-1} B) h = -c); otherwise a backtracking
    proximal-gradient loop on the shifted objective s(h) + psi(y+h).

    Backtracking halves t until the curvature along the step d is at most
    1/t: (grad s(h+d) - grad s(h)) . d <= ||d||^2/t, and raises
    SubproblemStall with the last iterate after 80 halvings.  The test is
    scale-free (an absolute slack would decide it once ||d||^2/t is near
    roundoff).  For convex s it implies the descent lemma with constant 2/t,
    s(h+d) <= s(h) + grad s(h) . d + ||d||^2/t, a factor 2 looser than the
    classical test; proximal gradient still converges for steps t < 2/L.

    For q = 1, l1 or box psi and a diagonal metric, each step that misses
    the tolerance is followed by a face step: the first time a call meets
    a face, it jumps to the minimizer on that face when it lies strictly
    inside it (_face_step).  The next step's residual then accepts or
    rejects the point, so the stopping rule is the same as without it; a
    wrong face costs only the proximal-gradient steps that follow.

    Calls at one anchor (one sf) differ only in c, which the curvature test
    does not involve.  So a call stores its last t and prox point in
    sf.warm_start, and the next call at that anchor starts backtracking
    from that t after a face step on that point's face (Nesterov, Math.
    Program. 140, 2013, carries t likewise); the first starts from h = 0,
    t = 1.  Only the path changes: the residual test still stops the loop.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    m = sf.instance.metric
    if psi.kind == "zero" and sf.q == 1:
        return sf.radial(c_shift / (2.0 * L))

    y = sf.y
    faces = set() if sf.q == 1 and psi.kind != "zero" and m.is_diagonal else None
    t, x = sf.warm_start
    h = None if x is None or faces is None else \
        _face_step(sf, L, c_shift, psi, x, faces)
    if h is None:
        h = np.zeros(m.dim)
    sgrad = _shifted_grad(sf, L, c_shift, h)
    for _ in range(cap):
        for _ in range(80):
            w = h - t * m.solve(sgrad)
            x = psi.scaled_prox(t, y + w, m)
            trial = x - y
            d = trial - h
            sgrad_t = _shifted_grad(sf, L, c_shift, trial)
            if float((sgrad_t - sgrad) @ d) <= m.norm(d) ** 2 / t:
                break
            t *= 0.5
        else:  # no step length passed the curvature test (e.g. a NaN gradient)
            raise SubproblemStall("backtracking exhausted", best=h)
        residual = m.norm(d) / t
        h, sgrad = trial, sgrad_t
        if residual <= tol:
            sf.warm_start = (t, x)
            return h
        jump = None if faces is None else _face_step(sf, L, c_shift, psi, x, faces)
        if jump is not None:
            h, sgrad = jump, _shifted_grad(sf, L, c_shift, jump)
    raise SubproblemStall("subproblem stall", best=h)


def solve_acceptable(instance: ProblemInstance, y: np.ndarray, H: float, p: int,
                     beta: float,
                     caps: SolveCaps = DEFAULT_CAPS) -> tuple[AcceptedPoint, int]:
    """Non-Euclidean composite gradient loop producing an acceptable pair.

    Starts at z0 = y; each step minimizes the Bregman-linearized model with
    L = REL_SMOOTH_L, recovers the constructive psi-subgradient from the
    step's optimality condition, and tests acceptance on the freshest
    iterate.  The safeguard's PointEval of z_{i+1} (whose d gives grad rho)
    is the only evaluation of z_{i+1}: the test, the next step and the
    AcceptedPoint reuse it.  Likewise the anchor's one evaluation
    (ScalingFunction.expansion) gives f and grad f at z0 = y, D^2 f(y) and
    the even forms; outside the domain of f it raises DomainViolation.
    """
    y = np.asarray(y, dtype=float)
    L = REL_SMOOTH_L
    sf = ScalingFunction(instance, y, H, p)
    m = instance.metric
    psi = instance.simple
    z = evaluate(instance, y, H, p, y, fg=sf.expansion[:2])
    phi_z = z.reg_value + psi.value(y)  # the d_{p+1} term is 0 at z0 = y
    rho_grad_z = sf.value_grad(y, z.d)[1]
    history = []
    for i in range(1, caps.outer_acceptance + 1):
        c_shift = z.reg_grad - 2.0 * L * rho_grad_z
        subtol = subproblem_tol(m.dual_norm(c_shift))
        h = subproblem_solve(sf, L, c_shift, psi, subtol,
                             cap=caps.inner_subproblem)
        z_next = y + h
        # open-domain safeguard: halve toward z until feasible and nonincreasing
        for halvings in range(61):
            nxt = evaluate(instance, y, H, p, z_next)
            phi_next = nxt.reg_value + psi.value(z_next) \
                if math.isfinite(nxt.reg_value) else math.inf
            if phi_next <= phi_z + 1e-12 * (1.0 + abs(phi_z)) or halvings == 60:
                break  # after 60 halvings the last point is kept
            z_next = z.x + 0.5 * (z_next - z.x)
        if nxt.grad is None:
            raise DomainViolation("iterate outside the domain of f")
        rho_grad_next = sf.value_grad(z_next, nxt.d)[1]
        if psi.kind == "zero":
            g = np.zeros(m.dim)
        else:
            g = 2.0 * L * (rho_grad_z - rho_grad_next) - z.reg_grad
        lhs = m.dual_norm(nxt.reg_grad + g)
        rhs = m.dual_norm(nxt.grad + g)
        history.append(lhs)
        if rhs <= 100.0 * ACCEPTANCE_ABS:
            # composite gradient at the numerical floor: the point is optimal
            # and residual-ratio certificates would be pure roundoff
            raise OptimalityReached("anchor already optimal", point=z_next, g=g)
        if lhs <= beta * rhs + ACCEPTANCE_REL * rhs:
            return AcceptedPoint(instance, y, H, p, beta, z_next, g, ev=nxt), i
        z, rho_grad_z, phi_z = nxt, rho_grad_next, phi_next
    raise AcceptanceFailure("acceptance not reached", residual_history=history)
