"""Regularized function f^p_{xbar,H}, the acceptance set, and its diagnostics.

An accepted pair (T, g), g a subgradient of psi at T, is one whose
regularized composite gradient is dominated by the plain composite gradient:
||grad f^p_{xbar,H}(T) + g||_* <= beta ||grad f(T) + g||_*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import InvariantViolation
from .numerics import prox_power
from .problems import ProblemInstance


# slacks of the acceptance inequality, in solve_acceptable and AcceptedPoint
ACCEPTANCE_ABS = 1e-12
ACCEPTANCE_REL = 1e-12


def subproblem_tol(scale: float) -> float:
    """Residual tolerance of the lower level's step subproblem whose linear
    term has dual norm scale: relative 1e-10, floored at 1e-12."""
    return max(1e-12, 1e-10 * scale)


@dataclass(frozen=True)
class PointEval:
    """f, grad f and f^p_{anchor,H} = f + H d_{p+1}(. - anchor) at x, from one
    oracle call; d = prox_power(x - anchor).  Outside the domain of f:
    value and reg_value inf, the rest None."""

    x: np.ndarray
    value: float
    grad: np.ndarray | None
    reg_value: float
    reg_grad: np.ndarray | None
    d: tuple[float, np.ndarray] | None


def evaluate(instance: ProblemInstance, anchor: np.ndarray, H: float, p: int,
             x: np.ndarray, fg=None) -> PointEval:
    """One smooth-oracle evaluation at x, with the regularizer added; fg is
    (f, grad f) at x when the caller already has them."""
    x = np.asarray(x, dtype=float)
    value, grad = instance.smooth.value_grad(x) if fg is None else fg
    if grad is None:
        return PointEval(x, value, None, math.inf, None, None)
    dval, dgrad = d = prox_power(instance.metric, x - anchor, p)
    return PointEval(x, value, grad, value + H * dval, grad + H * dgrad, d)


class AcceptedPoint:
    """A certified acceptable solution of the prox subproblem at anchor ybar.

    Construction asserts g in the subdifferential of psi at T, the defining
    inequality and the first-order consequences (the two-sided residual
    bracket and the descent inner product); an AcceptedPoint that exists is
    always valid.  The lower level's g errs by at most its subproblem
    residual, subproblem_tol(||c||_*) for the step's linear term c, which is
    not known here; so membership allows 100 subproblem_tol(||grad f(T)||_*
    + ||g||_*).  On the 84 accepted points of the quad l1/box cells, warm
    start or not, ||c||_* <= 7.3 times that scale and the error <= 6.1e-6
    subproblem_tol (face steps end on exact face minimizers; proximal
    gradient alone ended there up to 0.66 subproblem_tol).  ev, the
    caller's evaluation at T, is refused unless taken at T itself; the
    regularizer term is recomputed here, so its anchor, H and p cannot differ.
    """

    def __init__(self, instance: ProblemInstance, anchor: np.ndarray, H: float,
                 p: int, beta: float, T: np.ndarray, g: np.ndarray,
                 ev: PointEval | None = None):
        self._instance = instance
        self.T = np.asarray(T, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.anchor = np.asarray(anchor, dtype=float)
        self.beta_used = float(beta)
        self.H = float(H)
        self.p = int(p)
        m = instance.metric
        if ev is None:
            ev = evaluate(instance, self.anchor, H, p, self.T)
        elif not np.array_equal(ev.x, self.T):
            raise InvariantViolation("evaluation was taken at a point other than T")
        if ev.grad is None:
            raise InvariantViolation("accepted point outside the domain of f")
        self.f, self.grad_f = ev.value, ev.grad
        reg_grad = self.grad_f + H * prox_power(m, self.T - self.anchor, p)[1]
        self.r = m.norm(self.T - self.anchor)
        witness_tol = 100.0 * subproblem_tol(m.dual_norm(self.grad_f)
                                             + m.dual_norm(self.g))
        if not instance.simple.in_subdifferential(self.T, self.g, tol=witness_tol):
            raise InvariantViolation("g is not in the subdifferential of psi at T")
        self.grad_F_norm = m.dual_norm(self.grad_f + self.g)
        self.reg_grad_norm = m.dual_norm(reg_grad + self.g)
        slack = ACCEPTANCE_ABS + ACCEPTANCE_REL * self.grad_F_norm
        if self.reg_grad_norm > beta * self.grad_F_norm + slack:
            raise InvariantViolation(
                "acceptance inequality violated: "
                f"{self.reg_grad_norm:.3e} > {beta:.3g} * {self.grad_F_norm:.3e}")
        rep = check_lemma_properties(self, H, p, x_star=None)
        bad = [k for k, v in rep.items() if v is not None and not v["ok"]]
        if bad:
            raise InvariantViolation(f"accepted-point property failed: {bad}",
                                     families=bad)

    def composite_grad(self) -> np.ndarray:
        """grad f(T) + g (the dual vector whose norm drives the drivers)."""
        return self.grad_f + self.g


def check_lemma_properties(accepted: AcceptedPoint, H: float, p: int,
                           x_star: np.ndarray | None = None) -> dict:
    """Diagnostic report for the first-order consequences of acceptance.

    Checks the residual bracket
      (1-beta) ||grad f(T)+g||_* <= H r^p <= (1+beta) ||grad f(T)+g||_*,
    the descent inner product
      <grad f(T)+g, xbar - T> >= (H/(1+beta)) r^{p+1},
    its norm form (only when beta <= 1/p), and, when x* is known and
    beta <= 3/8, the contraction ||T - x*|| <= (5/4) ||xbar - x*||.  The
    relative slack is fixed here, so no caller can loosen the audit.
    """
    rel_slack = 1e-9
    inst = accepted._instance
    m = inst.metric
    beta = accepted.beta_used
    gn = accepted.grad_F_norm
    r = accepted.r
    comp = accepted.composite_grad()
    hrp = H * r ** p
    scale = max(gn, hrp, 1e-300)

    def entry(ok, lhs, rhs):
        return {"ok": bool(ok), "lhs": float(lhs), "rhs": float(rhs)}

    report = {}
    report["residual_bracket_lower"] = entry(
        (1.0 - beta) * gn <= hrp + rel_slack * scale, (1.0 - beta) * gn, hrp)
    report["residual_bracket_upper"] = entry(
        hrp <= (1.0 + beta) * gn + rel_slack * scale, hrp, (1.0 + beta) * gn)
    ip = float(comp @ (accepted.anchor - accepted.T))
    rhs2 = (H / (1.0 + beta)) * r ** (p + 1)
    report["descent_inner_product"] = entry(
        ip >= rhs2 - rel_slack * max(abs(ip), rhs2, 1e-300), ip, rhs2)
    if beta <= 1.0 / p:
        rhs3 = ((1.0 - beta) / H) ** (1.0 / p) * gn ** ((p + 1) / p)
        report["descent_norm_form"] = entry(
            ip >= rhs3 - rel_slack * max(abs(ip), rhs3, 1e-300), ip, rhs3)
    else:
        report["descent_norm_form"] = None
    if x_star is not None and beta <= 3.0 / 8.0:
        lhs4 = m.norm(accepted.T - x_star)
        rhs4 = 1.25 * m.norm(accepted.anchor - x_star)
        report["contraction_5_4"] = entry(lhs4 <= rhs4 + rel_slack * max(rhs4, 1e-300),
                                          lhs4, rhs4)
    else:
        report["contraction_5_4"] = None
    return report
