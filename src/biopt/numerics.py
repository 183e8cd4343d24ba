"""Metric-aware vector arithmetic and the scalar solvers shared by all drivers.

Points live in a Euclidean space E whose norm is induced by a symmetric
positive-definite operator B: ||x|| = <Bx, x>^{1/2}, with dual norm
||g||_* = <g, B^{-1}g>^{1/2}.  The prox powers d_{p+1}(x) = ||x||^{p+1}/(p+1)
and their gradients are the regularizers used everywhere.

The scalar solvers: monotone_root (bisection of a nondecreasing function to
floating-point resolution), radial_solver (the secular equation
(K + c||h||^{p-1}B) h = -g in r = ||h||, on one eigendecomposition of K) and
golden_section (minimization of a unimodal function on an interval).
"""

from __future__ import annotations

import math

import numpy as np

from .config import BracketFailure, DegenerateCoefficient


class Metric:
    """Euclidean metric induced by a dense SPD operator B.

    B = I is the default and keeps a fast path (no factorization applied).
    """

    def __init__(self, B: np.ndarray | None = None, dim: int | None = None):
        if B is None:
            if dim is None:
                raise ValueError("need B or dim")
            self.dim = int(dim)
            self.B = np.eye(self.dim)
            self.is_identity = True
            self._chol = None
        else:
            B = np.asarray(B, dtype=float)
            if B.ndim != 2 or B.shape[0] != B.shape[1]:
                raise ValueError("B must be square")
            if not np.allclose(B, B.T, atol=1e-12):
                raise ValueError("B must be symmetric")
            self.dim = B.shape[0]
            self.B = 0.5 * (B + B.T)
            self.is_identity = bool(np.array_equal(self.B, np.eye(self.dim)))
            if self.is_identity:
                self._chol = None
            else:
                try:
                    self._chol = np.linalg.cholesky(self.B)
                except np.linalg.LinAlgError as exc:
                    raise ValueError("B must be positive definite") from exc

    @property
    def is_diagonal(self) -> bool:
        return self.is_identity or bool(
            np.count_nonzero(self.B - np.diag(np.diag(self.B))) == 0
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """B x (primal -> dual)."""
        return x if self.is_identity else self.B @ x

    def solve(self, g: np.ndarray) -> np.ndarray:
        """B^{-1} g (dual -> primal), via the cached factorization."""
        if self.is_identity:
            return g
        y = np.linalg.solve(self._chol, g)
        return np.linalg.solve(self._chol.T, y)

    def norm(self, x: np.ndarray) -> float:
        if self.is_identity:
            return float(np.linalg.norm(x))
        return float(math.sqrt(max(float(x @ (self.B @ x)), 0.0)))

    def dual_norm(self, g: np.ndarray) -> float:
        if self.is_identity:
            return float(np.linalg.norm(g))
        return float(math.sqrt(max(float(g @ self.solve(g)), 0.0)))

    def inner(self, g: np.ndarray, x: np.ndarray) -> float:
        """Dual pairing <g, x>."""
        return float(g @ x)


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point")


def prox_power(metric: Metric, x: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Value and gradient of d_{p+1}(x) = ||x||^{p+1}/(p+1).

    Gradient: ||x||^{p-1} B x.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    r = metric.norm(x)
    value = r ** (p + 1) / (p + 1)
    grad = (r ** (p - 1)) * metric.apply(x)
    return value, grad


def prox_power_hessian(metric: Metric, x: np.ndarray, p: int) -> np.ndarray:
    """Hessian ||x||^{p-1} B + (p-1) ||x||^{p-3} (Bx)(Bx)^T of d_{p+1}."""
    x = np.asarray(x, dtype=float)
    r = metric.norm(x)
    if p == 1:
        return metric.B.copy()
    if r == 0.0:
        return np.zeros((metric.dim, metric.dim))
    bx = metric.apply(x)
    return (r ** (p - 1)) * metric.B + (p - 1) * (r ** (p - 3)) * np.outer(bx, bx)


def solve_step_coefficient(A: float, c: float) -> float:
    """Positive root of a^2 / (A + a) = c.

    The drivers read the paper's implicit equation a^2/(A_{k+1} + a) with
    A_{k+1} = A + a, i.e. a^2 = c (A + a); the positive root is
    (c + sqrt(c^2 + 4Ac)) / 2.
    """
    if A < 0:
        raise ValueError("A must be >= 0")
    if c <= 0:
        raise DegenerateCoefficient("degenerate coefficient")
    return 0.5 * (c + math.sqrt(c * c + 4.0 * A * c))


def power_mean_norm(alpha: float, n1: float, n2: float, p: int) -> float:
    """Weighted (p+1)/p power mean of two nonnegative norms.

    (alpha n1^{(p+1)/p} + (1-alpha) n2^{(p+1)/p})^{p/(p+1)}; always lies
    between min(n1, n2) and max(n1, n2).
    """
    q = (p + 1) / p
    mix = alpha * n1 ** q + (1.0 - alpha) * n2 ** q
    return mix ** (1.0 / q)


def uniform_convexity_gap(metric: Metric, x: np.ndarray, y: np.ndarray, p: int) -> float:
    """Slack of the 2^{1-p}-uniform-convexity lower bound of d_{p+1}.

    d_{p+1}(y) - d_{p+1}(x) - <grad d_{p+1}(x), y-x>
      - (2^{1-p}/(p+1)) ||y-x||^{p+1};  nonnegative for all x, y.
    """
    vy, _ = prox_power(metric, y, p)
    vx, gx = prox_power(metric, x, p)
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    lower = (2.0 ** (1 - p) / (p + 1)) * metric.norm(d) ** (p + 1)
    return vy - vx - float(gx @ d) - lower


_MAX_WIDENINGS = 200
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def monotone_root(phi, lo: float, hi: float) -> float:
    """Root of a nondecreasing scalar function phi from the guess [lo, hi].

    Doubles the bracket away from the side whose sign is wrong, at most
    _MAX_WIDENINGS times in all, and raises BracketFailure when that finds
    no phi(lo) <= 0 <= phi(hi).  Then bisects (phi(mid) < 0 moves lo) until
    the midpoint equals an endpoint, i.e. to floating-point resolution.
    """
    for _ in range(_MAX_WIDENINGS):
        if phi(lo) > 0.0:
            lo = hi - 2.0 * (hi - lo)
        elif phi(hi) < 0.0:
            hi = lo + 2.0 * (hi - lo)
        else:
            break
    else:
        raise BracketFailure(f"no sign change of phi on [{lo!r}, {hi!r}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def radial_solver(metric: Metric, K: np.ndarray, c: float, p: int):
    """Solver g -> h of (K + c ||h||^{p-1} B) h = -g for symmetric PSD K, c > 0.

    With B = L L^T (Cholesky; L = I for the identity metric), the basis
    S = L^{-T} V, where V diagonalizes L^{-1} K L^{-T} = V diag(lam) V^T,
    gives S^T K S = diag(lam) and S^T B S = I.  So h = -S (w / (lam + c r^{p-1}))
    with w = S^T g and r = ||h|| = ||w / (lam + c r^{p-1})||, a 1-D equation
    solved by monotone_root.  K is decomposed once, here.
    """
    K = np.asarray(K, dtype=float)
    if metric.is_identity:
        lam, S = np.linalg.eigh(K)
    else:
        Linv = np.linalg.inv(metric._chol)
        lam, V = np.linalg.eigh(Linv @ K @ Linv.T)
        S = Linv.T @ V
    lam = np.maximum(lam, 0.0)  # K is PSD: negative eigenvalues are roundoff
    e = p - 1

    def solve(g: np.ndarray) -> np.ndarray:
        w = S.T @ g
        if not np.any(w):
            return np.zeros_like(w)

        def norm_h(r):  # nonincreasing in r; inf where lam + c r^{p-1} hits 0
            den = lam + c * r ** e
            return float(np.linalg.norm(w / den)) if den[0] > 0.0 else math.inf

        hi = max(norm_h(0.0) if lam[0] > 0.0 else 1.0, 1e-12)
        r = monotone_root(lambda r: r - norm_h(r), 0.0, hi)
        return -(S @ (w / (lam + c * r ** e)))

    return solve


def golden_section(obj, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section minimization of a unimodal obj on [lo, hi]: one new
    evaluation per step; returns the final bracket's midpoint and its value."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = obj(d)
    x = 0.5 * (a + b)
    return x, obj(x)
