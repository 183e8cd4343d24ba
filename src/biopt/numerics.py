"""Metric-aware vector arithmetic and the scalar solvers shared by all drivers.

Points live in a Euclidean space E whose norm is induced by a symmetric
positive-definite operator B: ||x|| = <Bx, x>^{1/2}, with dual norm
||g||_* = <g, B^{-1}g>^{1/2}.  The prox powers d_{p+1}(x) = ||x||^{p+1}/(p+1)
and their gradients are the regularizers used everywhere.

The scalar solvers: monotone_root, biopt's one scalar root finder (root of
a nondecreasing function: safeguarded Newton when a slope is given,
bisection to floating-point resolution otherwise); radial_solver (the
secular equation (K + c r^{p-1}B) h = -g with r^2 = ||h||^2 + a^2, on one
eigendecomposition of K, by Newton on its reciprocal form, evaluated on
Python floats because a numpy call costs more than a small loop at the
sizes the lower level meets); golden_section
(vectorized over per-element brackets; only the brute-force segment-search
reference minimizes by it).
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
            return math.sqrt(float(x @ x))
        return float(math.sqrt(max(float(x @ (self.B @ x)), 0.0)))

    def dual_norm(self, g: np.ndarray) -> float:
        if self.is_identity:
            return math.sqrt(float(g @ g))
        return float(math.sqrt(max(float(g @ self.solve(g)), 0.0)))


def prox_power(metric: Metric, x: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Value and gradient of d_{p+1}(x) = ||x||^{p+1}/(p+1).

    Gradient: ||x||^{p-1} B x.  A non-finite entry of x is a ValueError.
    It makes ||x|| non-finite, so with B = I the entries are scanned only
    then; otherwise they are scanned first, as B x of an inf would warn.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = np.asarray(x, dtype=float)
    if not metric.is_identity and not np.isfinite(x).all():
        raise ValueError("non-finite point")
    r = metric.norm(x)
    if not math.isfinite(r) and not np.isfinite(x).all():
        raise ValueError("non-finite point")
    value = r ** (p + 1) / (p + 1)
    grad = (r ** (p - 1)) * metric.apply(x)
    return value, grad


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
_PHI2 = 1.0 - _INV_PHI


def monotone_root(phi, lo: float, hi: float, dphi=None) -> float:
    """Root of a nondecreasing scalar function phi from the guess [lo, hi].

    A guess lo == hi is returned if phi(lo) = 0 and otherwise first widened
    to [lo, lo + max(|lo|, 1)], a width that doubling can move.

    Doubles the bracket away from the side whose sign is wrong, at most
    _MAX_WIDENINGS times in all, and raises BracketFailure when that finds
    no phi(lo) <= 0 <= phi(hi).  Without the slope dphi it then bisects
    (phi(mid) < 0 moves lo) until the midpoint equals an endpoint, i.e. to
    floating-point resolution.  With the slope dphi it takes Newton steps
    from the bracket end with the smaller |phi| and keeps the bracket by the
    same rule.  A step that leaves the bracket, or is longer than half the
    step before the last, is replaced by the midpoint, so the steps halve at
    least every other iteration.  It stops when a Newton step is below one
    ulp or gains nothing on |phi| without a sign change (phi at roundoff
    level), or when the midpoint equals an endpoint.  Noise of size eta in
    phi ends the search where |phi| is a few eta, but the band it masks may
    be halved to resolution, so callers keep phi's own roundoff small (see
    sprox_quadratic).  A step that gains nothing across the root is no stop:
    two values and slopes cannot tell noise from a convex phi such as
    exp(x) - 1, where Newton from the left lands far right of the root.
    """
    f_lo = phi(lo)
    if lo == hi:
        if f_lo == 0.0:
            return lo
        hi = lo + max(abs(lo), 1.0)
    f_hi = phi(hi)
    for _ in range(_MAX_WIDENINGS):
        if f_lo > 0.0:
            lo = hi - 2.0 * (hi - lo)
            f_lo = phi(lo)
        elif f_hi < 0.0:
            hi = lo + 2.0 * (hi - lo)
            f_hi = phi(hi)
        else:
            break
    else:
        raise BracketFailure(f"no sign change of phi on [{lo!r}, {hi!r}]")
    if dphi is None:
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            if phi(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    step = step_before = hi - lo
    while True:
        x, fx = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
        if fx == 0.0:
            return x
        d = dphi(x)
        new = x - fx / d if d > 0.0 else math.nan
        if abs(new - x) < math.ulp(x):
            return x
        newton = lo < new < hi and abs(new - x) <= 0.5 * step_before
        if not newton:
            new = 0.5 * (lo + hi)
            if new == lo or new == hi:
                return new
        step_before, step = step, abs(new - x)
        f_new = phi(new)
        if newton and (f_new < 0.0) == (fx < 0.0) and abs(f_new) >= abs(fx):
            return x  # a Newton step that gains nothing: phi is at roundoff level
        if f_new < 0.0:
            lo, f_lo = new, f_new
        else:
            hi, f_hi = new, f_new


def radial_solver(metric: Metric, K: np.ndarray, c: float, p: int):
    """Solver (g, a) -> h of (K + c r^{p-1} B) h = -g, r^2 = ||h||^2 + a^2,
    for symmetric PSD K, c > 0 and a norm offset a >= 0 (default 0).

    The offset is the norm of a block of the point held fixed elsewhere (a
    face of the composite step); a = 0 is the plain secular equation.  With
    B = L L^T (Cholesky; L = I for the identity metric), the basis
    S = L^{-T} V, where V diagonalizes L^{-1} K L^{-T} = V diag(lam) V^T,
    gives S^T K S = diag(lam) and S^T B S = I.  So h = -S (w / (lam + s))
    with w = S^T g, the shift s = c r^{p-1}, n(s) = ||w / (lam + s)|| and
    r = r(s) = (n(s)^2 + a^2)^{1/2}.  K is decomposed once, here.

    The 1-D equation is solved in s as phi(s) = 1/r(s) - (c/s)^{1/(p-1)} = 0,
    with the slope sum(w^2/(lam+s)^3)/r^3 + (c/s)^{1/(p-1)}/((p-1) s).  phi
    is increasing; for a = 0 it is also concave (1/n is the reciprocal form
    of More & Sorensen), so a Newton step never passes the root from the
    left and lands left of it from the right.  For a > 0 concavity is not
    guaranteed; monotone_root's midpoint safeguard keeps the bracket and the
    halving of the steps either way.  The bracket comes from the 1-D roots
    rho_i of lam_i rho + c rho^p = |w_i|: each lies in [b_i/2, b_i] with
    b_i = min(|w_i|/lam_i, (|w_i|/c)^{1/p}), and max_i rho_i <= n <= ||rho||,
    so the offset-free root s_0 lies in [c (max(b)/2)^{p-1}, c ||b||^{p-1}].
    An offset only lowers phi, so the root s* >= s_0 and n(s*) <= n(s_0)
    <= ||b||; and r >= a gives s* >= c a^{p-1}.  Hence s* lies in
    [max(c (max(b)/2)^{p-1}, c a^{p-1}), c (||b||^2 + a^2)^{(p-1)/2}].

    Only the eigen-coefficients change between evaluations of phi, so each
    solve holds them once as a list of (lam_i, w_i) float pairs and runs
    phi and its slope as one Python loop over it; numpy does the two basis
    changes S^T g and S (w/(lam + s)).  Evaluated with numpy arrays, phi
    costs about 4.5 us of call overhead at any n up to 200; the loop takes
    0.8 us at n = 5, 4.7 us at n = 50 and 9 us at n = 100.  Above n ~ 45 it
    is the slower one, but there the eigh of K (0.3 ms at n = 50, 0.9 ms at
    n = 100, once per K) outweighs it.
    (See More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983, and
    Nesterov & Polyak, Math. Program. 108, 2006, section 5.)
    """
    K = np.asarray(K, dtype=float)
    if metric.is_identity:
        lam, S = np.linalg.eigh(K)
    else:
        Linv = np.linalg.inv(metric._chol)
        lam, V = np.linalg.eigh(Linv @ K @ Linv.T)
        S = Linv.T @ V
    lam = np.maximum(lam, 0.0)  # K is PSD: negative eigenvalues are roundoff
    lam_list = lam.tolist()
    e = p - 1

    def solve(g: np.ndarray, a: float = 0.0) -> np.ndarray:
        w = S.T @ g
        if not w.any():
            return np.zeros_like(w)
        if e == 0:  # p = 1: the shift is c, the system is linear
            return -(S @ (w / (lam + c)))
        w_list = w.tolist()
        # b_i = min(|w_i|/lam_i, (|w_i|/c)^{1/p}): 0 where w_i = 0, the power
        # root where lam_i = 0.  The roots use numpy's power, not Python's,
        # which differs in the last bit on a few percent of inputs
        roots = ((np.abs(w) / c) ** (1.0 / p)).tolist()
        b = [0.0 if w_i == 0.0 else root if lam_i == 0.0
             else min(abs(w_i) / lam_i, root)
             for lam_i, w_i, root in zip(lam_list, w_list, roots)]
        s_lo = max(c * (0.5 * max(b)) ** e, c * a ** e)
        s_hi = c * math.hypot(*b, a) ** e
        if s_hi == 0.0:  # the shift underflows: lam + s == lam
            return -(S @ (w / lam))
        if s_lo == s_hi:  # a dwarfs w: r = a, and the bracket is one float
            return -(S @ (w / (lam + s_hi)))
        # r(s) = scale ||(z, a_hat)||, z = w_hat/(lam + s): a_hat <= 1 and
        # |z| <= 1 at s_hi, so z*z does not overflow on the bracket nor
        # underflow to 0 unless a_hat dominates it, and r_hat^3 is finite;
        # scale is a power of two, so the scaling itself rounds nothing
        z_max = max(abs(w_i) / (lam_i + s_hi) for lam_i, w_i in zip(lam_list, w_list))
        scale = math.ldexp(1.0, math.frexp(max(z_max, a))[1])
        coef = [(lam_i, w_i / scale) for lam_i, w_i in zip(lam_list, w_list)]
        a_hat = a / scale

        memo_s, memo = None, None

        def terms(s):  # r(s) and sum(w^2/(lam+s)^3)/r(s)^3, for the last s:
            nonlocal memo_s, memo  # monotone_root asks dphi(s) after phi(s)
            if s != memo_s:
                n2 = slope = 0.0
                for lam_i, w_i in coef:
                    v = 1.0 / (lam_i + s)
                    z = w_i * v
                    q = z * z
                    n2 += q
                    slope += q * v
                r_hat = math.hypot(math.sqrt(n2), a_hat)
                memo_s = s
                memo = scale * r_hat, slope / (scale * r_hat ** 3)
            return memo

        def phi(s):  # -inf and an infinite slope below the domain s > 0
            return 1.0 / terms(s)[0] - (c / s) ** (1.0 / e) if s > 0.0 else -math.inf

        def dphi(s):
            if s <= 0.0:
                return math.inf
            return terms(s)[1] + (c / s) ** (1.0 / e) / (e * s)

        s = monotone_root(phi, s_lo, s_hi, dphi)
        return -(S @ (w / (lam + s)))

    return solve


def golden_section(obj, lo, hi, iters):
    """Vectorized golden-section minimization over per-element brackets.

    Bracket [a, a + w], interior points a + PHI2 w and a + PHI w (PHI2 =
    1 - PHI = PHI^2).  Keeping the better point's side makes that point the
    other interior point of the new bracket, so each step evaluates obj
    once.  Masks enter by arithmetic: np.where is slow on irregular masks.
    Returns the final brackets' midpoints and their values.
    """
    a = np.asarray(lo, dtype=float).copy()
    w = np.asarray(hi, dtype=float) - a
    f_new = obj(a + _PHI2 * w)  # the left interior point
    f_keep = obj(a + _INV_PHI * w)
    new_left = np.ones(a.shape, dtype=bool)
    for _ in range(iters):
        # keep [a, a + PHI w] when the left point is no worse than the right
        left = (f_new == f_keep) | ((f_new < f_keep) == new_left)
        f_keep = np.fmin(f_new, f_keep)
        a = a + ~left * (_PHI2 * w)
        w = _INV_PHI * w
        new_left = left  # the kept point moves to the other interior slot
        f_new = obj(a + (_INV_PHI - (_INV_PHI - _PHI2) * left) * w)
    x = a + 0.5 * w
    return x, obj(x)
