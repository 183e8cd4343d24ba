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

from .acceptance import AcceptedPoint, evaluate
from .config import (DEFAULT_CAPS, DEFAULT_TOL, AcceptanceFailure,
                     DomainViolation, OptimalityReached, SolveCaps,
                     SubproblemStall, Tolerances)
from .numerics import prox_power, radial_solver
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
    """rho_{y,H}(x) = sum_{k=1..q} D^{2k} f(y)[x-y]^{2k} / (2k)! + H d_{p+1}(x-y)."""

    def __init__(self, instance: ProblemInstance, y: np.ndarray, H: float, p: int):
        self.instance = instance
        self.y = np.asarray(y, dtype=float)
        self.H = float(H)
        self.p = int(p)
        self.q = p // 2

    @cached_property
    def forms(self):
        """(h -> (D^{2k} f(y)[h]^{2k}, h-gradient), (2k)!) for k = 1..q, once per y."""
        smooth = self.instance.smooth
        return [(smooth.even_form_at(self.y, 2 * k), math.factorial(2 * k))
                for k in range(1, self.q + 1)]

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
    def radial(self):
        """Solver g -> h of (D^2 f(y) + H ||h||^{p-1} B) h = -g, built once per y."""
        return radial_solver(self.instance.metric,
                             self.instance.smooth.hessian(self.y), self.H, self.p)


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


def _shifted_smooth(sf: ScalingFunction, L: float, c_shift: np.ndarray,
                    h: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth part of the step subproblem in the shifted variable h = z - y."""
    dval, dgrad = prox_power(sf.instance.metric, h, sf.p)
    val = float(c_shift @ h) + 2.0 * L * sf.H * dval
    grad = c_shift + 2.0 * L * sf.H * dgrad
    for form, fac in sf.forms:
        fv, fg = form(h)
        val += 2.0 * L * fv / fac
        grad = grad + 2.0 * L * fg / fac
    return val, grad


def subproblem_solve(sf: ScalingFunction, L: float, c_shift: np.ndarray,
                     psi: SimpleOracle, tol: float,
                     cap: int = DEFAULT_CAPS.inner_subproblem) -> np.ndarray:
    """Minimize <c,h> + 2L sum_k D^{2k}f(y)[h]^{2k}/(2k)! + psi(y+h) + 2LH d_{p+1}(h).

    psi = 0 with q = 1 takes the radial reduction (the step solves
    (2L D^2f(y) + 2LH ||h||^{p-1} B) h = -c); otherwise a backtracking
    proximal-gradient loop on the shifted objective.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    m = sf.instance.metric
    if psi.kind == "zero" and sf.q == 1:
        return sf.radial(c_shift / (2.0 * L))

    y = sf.y
    h = np.zeros(m.dim)
    sval, sgrad = _shifted_smooth(sf, L, c_shift, h)
    t = 1.0
    for _ in range(cap):
        for _ in range(80):
            w = h - t * m.solve(sgrad)
            trial = psi.scaled_prox(t, y + w, m) - y
            d = trial - h
            sval_t, sgrad_t = _shifted_smooth(sf, L, c_shift, trial)
            quad = sval + float(sgrad @ d) + m.norm(d) ** 2 / (2.0 * t)
            if sval_t <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            t *= 0.5
        residual = m.norm(d) / t
        h, sval, sgrad = trial, sval_t, sgrad_t
        if residual <= tol:
            return h
    raise SubproblemStall("subproblem stall", best=h)


def solve_acceptable(instance: ProblemInstance, y: np.ndarray, H: float, p: int,
                     beta: float, caps: SolveCaps = DEFAULT_CAPS,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[AcceptedPoint, int]:
    """Non-Euclidean composite gradient loop producing an acceptable pair.

    Starts at z0 = y; each step minimizes the Bregman-linearized model with
    L = REL_SMOOTH_L, recovers the constructive psi-subgradient from the
    step's optimality condition, and tests acceptance on the freshest
    iterate.  The safeguard's PointEval of z_{i+1} (whose d gives grad rho)
    is the only evaluation of z_{i+1}: the test, the next step and the
    AcceptedPoint reuse it.
    """
    y = np.asarray(y, dtype=float)
    L = REL_SMOOTH_L
    sf = ScalingFunction(instance, y, H, p)
    m = instance.metric
    psi = instance.simple
    z = evaluate(instance, y, H, p, y)
    if z.grad is None:
        raise DomainViolation("anchor outside the domain of f")
    phi_z = z.reg_value + psi.value(y)  # the d_{p+1} term is 0 at z0 = y
    rho_grad_z = sf.value_grad(y, z.d)[1]
    history = []
    for i in range(1, caps.outer_acceptance + 1):
        c_shift = z.reg_grad - 2.0 * L * rho_grad_z
        subtol = max(1e-12, 1e-10 * m.dual_norm(c_shift))
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
        if rhs <= 100.0 * tol.acceptance_abs:
            # composite gradient at the numerical floor: the point is optimal
            # and residual-ratio certificates would be pure roundoff
            raise OptimalityReached("anchor already optimal", point=z_next, g=g)
        if lhs <= beta * rhs + tol.acceptance_rel * rhs:
            return AcceptedPoint(instance, y, H, p, beta, z_next, g, tol=tol,
                                 ev=nxt), i
        z, rho_grad_z, phi_z = nxt, rho_grad_next, phi_next
    raise AcceptanceFailure("acceptance not reached", residual_history=history)
