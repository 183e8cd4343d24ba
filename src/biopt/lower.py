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

import numpy as np

from .acceptance import (ACCEPTANCE_ABS, AcceptedPoint, acceptable, evaluate,
                         subproblem_tol)
from .config import (AcceptanceFailure, DomainViolation, OptimalityReached,
                     SubproblemStall)
from .numerics import eigen_radial_solver, prox_power, radial_solver
from .problems import ProblemInstance, QuadraticOracle, SimpleOracle


@dataclass(frozen=True)
class RelSmoothParams:
    """Relative smoothness/strong-convexity constants of f^p w.r.t. rho."""

    xi: float
    H: float
    mu: float
    L: float
    kappa: float


# L of the canonical xi = 2: on the operating region relative smoothness
# makes a lower-level step pass the relative descent test at gain 2 (the
# first power of two >= L; _composite_step)
REL_SMOOTH_L = 1.5
MAX_ACCEPTANCE_STEPS = 200  # solve_acceptable raises AcceptanceFailure past it
MAX_GAIN_DOUBLINGS = 60  # _composite_step raises past it
MAX_SUBPROBLEM_STEPS = 500  # subproblem_solve raises SubproblemStall past it


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

    rho(h) gives rho and its gradient at x = y + h; every caller in the
    lower level (the descent test, the carried dual point, the step
    subproblem's gradient) takes them from it.  Building it makes the
    anchor's one oracle evaluation, expansion = (f(y), grad f(y), a thunk of
    D^2 f(y), even) (SmoothOracle.expansion_at), and rho(h) is even(h), the
    sum over k with its h-gradient, plus H d_{p+1}(h).  D^2 f(y) (K) and its
    radial solver are built on first use, once for this one anchor; nothing
    carries one step subproblem into the next.  With the identity metric a
    quadratic f lends its decompositions instead: Q's eigenbasis for the
    radial solver and its face blocks' for the face steps (face_solver).
    """

    def __init__(self, instance: ProblemInstance, y: np.ndarray, H: float, p: int):
        self.instance = instance
        self.y = np.asarray(y, dtype=float)
        self.H = float(H)
        self.p = int(p)
        self.q = p // 2
        self.expansion = instance.smooth.expansion_at(self.y, self.q)
        if self.expansion[1] is None:
            raise DomainViolation("anchor outside the domain of f")
        self.even = self.expansion[3]
        self._K = self._radial = None
        smooth = instance.smooth
        self._quadratic = (smooth if instance.metric.is_identity
                           and isinstance(smooth, QuadraticOracle) else None)

    def rho(self, h: np.ndarray, d=None) -> tuple[float, np.ndarray]:
        """rho and its gradient at y + h; d is prox_power(h) if already known."""
        dval, dgrad = prox_power(self.instance.metric, h, self.p) if d is None else d
        val, grad = self.even(h)
        return self.H * dval + val, self.H * dgrad + grad

    @property
    def K(self) -> np.ndarray:
        """D^2 f(y)."""
        if self._K is None:
            self._K = self.expansion[2]()
        return self._K

    @property
    def radial(self):
        """Solver g -> h of (D^2 f(y) + H ||h||^{p-1} B) h = -g; with the
        identity metric a quadratic f lends it Q's eigenbasis, which the
        oracle makes when it is built (QuadraticOracle.eigenbasis)."""
        if self._radial is None:
            if self._quadratic is not None:
                self._radial = eigen_radial_solver(*self._quadratic.eigenbasis,
                                                   self.H, self.p)
            else:
                self._radial = radial_solver(self.K, self.H, self.p,
                                             self.instance.metric.W)
        return self._radial

    def face_solver(self, free: np.ndarray):
        """(K_FA, solver (g, a) -> h_F of the free block's secular equation
        (K_FF + H r^{p-1} B_FF) h_F = -g, r^2 = ||h_F||^2 + a^2) for the
        free mask free of a diagonal metric; K_FA couples F to the held
        coordinates.  With the identity metric a quadratic f lends the
        block's basis and Q_FA, decomposed once per face
        (QuadraticOracle.face_basis); otherwise K_FF is decomposed here."""
        if self._quadratic is not None:
            lam, S, K_FA = self._quadratic.face_basis(free)
            return K_FA, eigen_radial_solver(lam, S, self.H, self.p)
        W = self.instance.metric.W
        W = None if W is None else W[np.ix_(free, free)]
        return (self.K[np.ix_(free, ~free)],
                radial_solver(self.K[np.ix_(free, free)], self.H, self.p, W))


def bregman_term(vx: float, gx: np.ndarray, vz: float, d: np.ndarray) -> float:
    """vz - vx - <gx, d>: the Bregman distance between x and z = x + d of a
    function with values vx, vz at x, z and gradient gx at x."""
    return vz - vx - float(gx @ d)


def bregman(sf: ScalingFunction, x: np.ndarray, z: np.ndarray) -> float:
    """beta_rho(x, z) = rho(z) - rho(x) - <grad rho(x), z - x>; nonnegative."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    return bregman_term(*sf.rho(x - sf.y), sf.rho(z - sf.y)[0], z - x)


def reg_bregman(instance: ProblemInstance, anchor: np.ndarray, H: float,
                p: int, x: np.ndarray, z: np.ndarray) -> float:
    """Bregman distance of the regularized function f^p_{anchor,H}."""
    ez = evaluate(instance, anchor, H, p, z)
    ex = evaluate(instance, anchor, H, p, x)
    return bregman_term(ex.reg_value, ex.reg_grad, ez.reg_value, ez.x - ex.x)


def _face_step(sf: ScalingFunction, gain: float, c_shift: np.ndarray,
               psi: SimpleOracle, x: np.ndarray, tried: set) -> np.ndarray | None:
    """Minimizer of the q = 1 step subproblem on the face of x, if inside it.

    The face (SimpleOracle.face) holds the active coordinates A at their
    held values and frees F, where psi has the slope psi'_F.  With h_A
    fixed there, the step's stationarity on F is the secular equation
    (K_FF + H r^{p-1} B_FF) h_F = -(c_F/gain + K_FA h_A + psi'_F/gain),
    r^2 = ||h_F||^2 + ||h_A||^2, solved by a radial solver of the free block
    (the metric is diagonal) with the norm offset ||h_A|| (Byrd, Chin,
    Nocedal & Oztoprak, Math. Program. 159, 2016).  Returns the step h, or
    None when the face is in tried (which records it) or y + h leaves the
    face (its pattern on F is not x's): there the minimizer over the face
    is not the subproblem's.

    The block's solver comes from ScalingFunction.face_solver, which for a
    quadratic f under the identity metric reuses the last face's
    decomposition (QuadraticOracle.face_basis): the same eigh of the same
    block, so the step is unchanged bit for bit and
    TestFaceStep::test_second_call_matches_fresh_anchor still holds with ==.
    """
    pattern, free, held, slope = psi.face(x)
    key = pattern.tobytes()
    if key in tried:
        return None
    tried.add(key)
    h = np.where(free, 0.0, held - sf.y)
    if not free.any():
        return h
    K_FA, solve = sf.face_solver(free)
    g = c_shift[free] / gain + K_FA @ h[~free] + slope / gain
    h[free] = solve(g, sf.instance.metric.norm(h))
    return h if np.all(psi.face(sf.y + h)[0][free] == pattern[free]) else None


def subproblem_solve(sf: ScalingFunction, gain: float, c_shift: np.ndarray,
                     psi: SimpleOracle) -> np.ndarray:
    """Minimize <c,h> + gain (sum_k D^{2k}f(y)[h]^{2k}/(2k)! + H d_{p+1}(h)) + psi(y+h),
    i.e. <c,h> + gain rho(y+h) + psi(y+h), for the step's gain.

    psi = 0 with q = 1 takes the radial reduction (the step solves
    (D^2f(y) + H ||h||^{p-1} B) h = -c/gain), which needs no tolerance;
    otherwise a backtracking proximal-gradient loop on the shifted objective
    s(h) + psi(y+h), stopped at residual subproblem_tol(||c||_*), the error
    AcceptedPoint's witness tolerance allows for.

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
    inside it (_face_step).  The jump's point is returned when -grad s there
    is a subgradient of psi to within the tolerance (the subproblem's
    optimality condition, which AcceptedPoint checks of the step's witness
    g = -grad s); otherwise the next step's residual accepts or rejects it,
    so a wrong face costs only the proximal-gradient steps that follow.

    Each call starts with a face step on the anchor's face and backtracks
    from t = 1/gain; it depends only on its arguments.
    """
    if psi.kind == "zero" and sf.q == 1:
        return sf.radial(c_shift / gain)
    m = sf.instance.metric
    tol = subproblem_tol(m.dual_norm(c_shift))

    y = sf.y
    faces = set() if sf.q == 1 and m.is_diagonal else None
    t = 1.0 / gain
    h = None if faces is None else _face_step(sf, gain, c_shift, psi, y, faces)
    jumped = h is not None
    if h is None:
        h = np.zeros(m.dim)
    sgrad = c_shift + gain * sf.rho(h)[1]
    for _ in range(MAX_SUBPROBLEM_STEPS):
        if jumped and psi.in_subdifferential(y + h, -sgrad, tol):
            return h
        for _ in range(80):
            w = h - t * m.solve(sgrad)
            x = psi.scaled_prox(t, y + w, m)
            trial = x - y
            d = trial - h
            sgrad_t = c_shift + gain * sf.rho(trial)[1]
            if float((sgrad_t - sgrad) @ d) <= m.norm(d) ** 2 / t:
                break
            t *= 0.5
        else:  # no step length passed the curvature test (e.g. a NaN gradient)
            raise SubproblemStall("backtracking exhausted", best=h)
        residual = m.norm(d) / t
        h, sgrad = trial, sgrad_t
        if residual <= tol:
            return h
        jump = None if faces is None else _face_step(sf, gain, c_shift, psi, x, faces)
        jumped = jump is not None
        if jumped:
            h, sgrad = jump, c_shift + gain * sf.rho(jump)[1]
    raise SubproblemStall("subproblem stall", best=h)


def solve_acceptable(instance: ProblemInstance, y: np.ndarray, H: float, p: int,
                     beta: float) -> tuple[AcceptedPoint, int]:
    """Non-Euclidean composite gradient loop producing an acceptable pair.

    Starts at z0 = y; each step minimizes the Bregman-linearized model
    <grad f^p(z_i), x - z_i> + psi(x) + gain beta_rho(z_i, x) with the
    step's gain (_composite_step; linear rate factor at most 1 - mu/2 on
    the operating region), recovers the constructive psi-subgradient from
    the step's optimality condition, and tests acceptable on the freshest
    iterate.  The step's PointEval of z_{i+1} is the only evaluation of
    z_{i+1}: the gain's test, the acceptance test, the next step and the
    AcceptedPoint, which certifies it, reuse it.  Likewise the
    anchor's one evaluation (ScalingFunction.expansion) gives f and grad f
    at z0 = y, D^2 f(y) and the even part; outside the domain of f it
    raises DomainViolation.

    The loop carries rho(z_i) and the dual point grad rho(z_i), which the
    gain's test and the step's linear term c_i = grad f^p(z_i) - gain
    grad rho(z_i) need, and on the psi != 0 paths the witness g, built from
    the difference of the two dual points.  rho(z0) = 0 and grad rho(z0) =
    0, since rho is smallest at its anchor; each step takes both at z_{i+1}
    from ScalingFunction.rho at the rounded iterate, with the d_{p+1} pair
    of its PointEval.
    """
    y = np.asarray(y, dtype=float)
    sf = ScalingFunction(instance, y, H, p)
    m = instance.metric
    psi = instance.simple
    z = evaluate(instance, y, H, p, y, fg=sf.expansion[:2])
    rho_z = 0.0, np.zeros(m.dim)
    history = []
    zero = np.zeros(m.dim) if psi.kind == "zero" else None
    for i in range(1, MAX_ACCEPTANCE_STEPS + 1):
        nxt, rho_next, gain = _composite_step(sf, psi, z, rho_z)
        if psi.kind == "zero":  # g = 0
            g, lhs, rhs = zero, m.dual_norm(nxt.reg_grad), m.dual_norm(nxt.grad)
        else:
            g = gain * (rho_z[1] - rho_next[1]) - z.reg_grad
            lhs, rhs = m.dual_norm(nxt.reg_grad + g), m.dual_norm(nxt.grad + g)
        history.append(lhs)
        if rhs <= 100.0 * ACCEPTANCE_ABS:
            # composite gradient at the numerical floor: the point is optimal
            # and residual-ratio certificates would be pure roundoff
            raise OptimalityReached("anchor already optimal", point=nxt.x)
        if acceptable(lhs, rhs, beta):
            return AcceptedPoint(instance, beta, nxt, g), i
        z, rho_z = nxt, rho_next
    raise AcceptanceFailure("acceptance not reached", residual_history=history)


def _composite_step(sf: ScalingFunction, psi: SimpleOracle, z,
                    rho_z: tuple[float, np.ndarray]):
    """One step of solve_acceptable's loop from z (a PointEval) with
    (rho(z), grad rho(z)) = rho_z: the PointEval of z_{i+1},
    (rho(z_{i+1}), grad rho(z_{i+1})) and the step's gain.

    The gain runs through 1, 2, 4, ... and the step is the first trial
    point inside the domain of f that passes the relative descent
    inequality beta_{f^p}(z, z+) <= gain beta_rho(z, z+) up to a
    roundoff-level slack; after MAX_GAIN_DOUBLINGS doublings it
    raises DomainViolation if the last trial point left the domain, else
    SubproblemStall.  The Bregman composite gradient's linear rate uses
    only this inequality along the iterates, with factor 1 - mu/gain
    (Bauschke, Bolte & Teboulle, Math. Oper. Res. 42(2), 2017; backtracking
    on the gain: Hanzely, Richtarik & Xiao, Comput. Optim. Appl. 79, 2021);
    on the operating region relative smoothness passes gain 2 >= L, so the
    factor there is at most 1 - mu/2.  A kept step has phi(z+) <= phi(z),
    phi = f^p + psi, as it minimizes the model.  f^p - rho is f less its
    even Taylor terms at y, so the two Bregman distances nearly agree and
    gain 1 mostly passes.  The test needs no oracle call: f^p(z+) is in
    z+'s PointEval and rho(z+) comes from its d_{p+1} and the even part.
    """
    instance, y = sf.instance, sf.y
    gain = 1.0
    for _ in range(MAX_GAIN_DOUBLINGS + 1):
        h = subproblem_solve(sf, gain, z.reg_grad - gain * rho_z[1], psi)
        nxt = evaluate(instance, y, sf.H, sf.p, y + h)
        if nxt.grad is not None:
            rho_next = sf.rho(nxt.x - y, nxt.d)
            d = nxt.x - z.x
            slack = 1e-12 * (1.0 + abs(z.reg_value) + gain * rho_z[0])
            if (bregman_term(z.reg_value, z.reg_grad, nxt.reg_value, d)
                    <= gain * bregman_term(*rho_z, rho_next[0], d) + slack):
                return nxt, rho_next, gain
        gain *= 2.0
    if nxt.grad is None:
        raise DomainViolation("iterate outside the domain of f")
    raise SubproblemStall("no gain passed the relative descent test", best=h)
