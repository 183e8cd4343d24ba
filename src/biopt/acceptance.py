"""Regularized function f^p_{xbar,H}, the acceptance set, and its diagnostics.

An accepted pair (T, g), g a subgradient of psi at T, is one whose
regularized composite gradient is dominated by the plain composite gradient:
||grad f^p_{xbar,H}(T) + g||_* <= beta ||grad f(T) + g||_*.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import InvariantViolation
from .numerics import prox_power
from .problems import ProblemInstance


# slacks of the acceptance inequality (acceptable)
ACCEPTANCE_ABS = 1e-12
ACCEPTANCE_REL = 1e-12


def acceptable(reg_norm: float, grad_norm: float, beta: float) -> bool:
    """||grad f^p(T) + g||_* <= beta ||grad f(T) + g||_* from the two norms,
    with slack ACCEPTANCE_ABS + ACCEPTANCE_REL ||grad f(T) + g||_*."""
    return reg_norm <= beta * grad_norm + (ACCEPTANCE_ABS + ACCEPTANCE_REL * grad_norm)


def subproblem_tol(scale: float) -> float:
    """Residual tolerance of the lower level's step subproblem whose linear
    term has dual norm scale: relative 1e-10, floored at 1e-12."""
    return max(1e-12, 1e-10 * scale)


class PointEval(NamedTuple):
    """f, grad f and f^p_{anchor,H} = f + H d_{p+1}(. - anchor) at x, from one
    oracle call; d = prox_power(x - anchor).  Outside the domain of f: value
    and reg_value inf, grad, reg_grad and d None."""

    x: np.ndarray
    anchor: np.ndarray
    H: float
    p: int
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
        return PointEval(x, anchor, H, p, value, None, math.inf, None, None)
    dval, dgrad = d = prox_power(instance.metric, x - anchor, p)
    return PointEval(x, anchor, H, p, value, grad, value + H * dval,
                     grad + H * dgrad, d)


class AcceptedPoint:
    """A certified acceptable pair (T, g) of the prox subproblem that ev, the
    evaluation at T = ev.x, regularizes: anchor, H, p, f and gradients are ev's.

    Construction asserts g in the subdifferential of psi at T, the defining
    inequality (acceptable) and the first-order consequences (the two-sided
    residual bracket and the descent inner product); an AcceptedPoint that
    exists is always valid.  The lower level's g errs by at most its
    subproblem residual, subproblem_tol(||c||_*) for the step's linear term
    c, which is not known here; so membership allows 100
    subproblem_tol(||grad f(T)||_* + ||g||_*).  On the 83 accepted points of
    the quad l1/box cells, where c carries the step's gain, ||c||_* <= 2.6
    times that scale and the error <= 9.7e-6 subproblem_tol(||c||_*), as
    face steps end on exact face minimizers.
    """

    def __init__(self, instance: ProblemInstance, beta: float, ev: PointEval,
                 g: np.ndarray):
        if ev.grad is None:
            raise InvariantViolation("accepted point outside the domain of f")
        self._instance = instance
        self.T, self.anchor, self.H, self.p = ev.x, ev.anchor, ev.H, ev.p
        self.g = np.asarray(g, dtype=float)
        if self.g.shape != self.T.shape:
            raise InvariantViolation(f"g has shape {self.g.shape}, T has shape "
                                     f"{self.T.shape}")
        self.beta_used = float(beta)
        self.f, self.grad_f = ev.value, ev.grad
        m = instance.metric
        self.r = m.norm(self.T - self.anchor)
        witness_tol = 100.0 * subproblem_tol(m.dual_norm(self.grad_f)
                                             + m.dual_norm(self.g))
        if not instance.simple.in_subdifferential(self.T, self.g, tol=witness_tol):
            raise InvariantViolation("g is not in the subdifferential of psi at T")
        self._composite = self.grad_f + self.g
        self._composite.flags.writeable = False
        self.grad_F_norm = m.dual_norm(self._composite)
        self.reg_grad_norm = m.dual_norm(ev.reg_grad + self.g)
        if not acceptable(self.reg_grad_norm, self.grad_F_norm, beta):
            raise InvariantViolation(
                "acceptance inequality violated: "
                f"{self.reg_grad_norm:.3e} > {beta:.3g} * {self.grad_F_norm:.3e}")
        bad = [k for k, v in check_lemma_properties(self).items() if v is False]
        if bad:
            raise InvariantViolation(f"accepted-point property failed: {bad}",
                                     families=bad)

    def composite_grad(self) -> np.ndarray:
        """grad f(T) + g, read-only (the dual vector whose norm drives the drivers)."""
        return self._composite


def check_lemma_properties(accepted: AcceptedPoint,
                           x_star: np.ndarray | None = None) -> dict:
    """Diagnostic report for the first-order consequences of acceptance, with
    the point's own H and p: each property maps to True or False, or to None
    where it does not apply.

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
    beta, H, p = accepted.beta_used, accepted.H, accepted.p
    gn = accepted.grad_F_norm
    r = accepted.r
    comp = accepted.composite_grad()
    hrp = H * r ** p
    scale = max(gn, hrp, 1e-300)

    report = {}
    report["residual_bracket_lower"] = bool(
        (1.0 - beta) * gn <= hrp + rel_slack * scale)
    report["residual_bracket_upper"] = bool(
        hrp <= (1.0 + beta) * gn + rel_slack * scale)
    ip = float(comp @ (accepted.anchor - accepted.T))
    rhs2 = (H / (1.0 + beta)) * r ** (p + 1)
    report["descent_inner_product"] = bool(
        ip >= rhs2 - rel_slack * max(abs(ip), rhs2, 1e-300))
    if beta <= 1.0 / p:
        rhs3 = ((1.0 - beta) / H) ** (1.0 / p) * gn ** ((p + 1) / p)
        report["descent_norm_form"] = bool(
            ip >= rhs3 - rel_slack * max(abs(ip), rhs3, 1e-300))
    else:
        report["descent_norm_form"] = None
    if x_star is not None and beta <= 3.0 / 8.0:
        rhs4 = 1.25 * m.norm(accepted.anchor - x_star)
        report["contraction_5_4"] = bool(
            m.norm(accepted.T - x_star) <= rhs4 + rel_slack * max(rhs4, 1e-300))
    else:
        report["contraction_5_4"] = None
    return report
