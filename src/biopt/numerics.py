"""Metric-aware vector arithmetic and the scalar solvers shared by all drivers.

Points live in a Euclidean space E whose norm is induced by a symmetric
positive-definite operator B: ||x|| = <Bx, x>^{1/2}, with dual norm
||g||_* = <g, B^{-1}g>^{1/2}.  The prox powers d_{p+1}(x) = ||x||^{p+1}/(p+1)
and their gradients are the regularizers used everywhere.

The scalar solvers: monotone_root, biopt's one scalar root finder (the sign
change of a nondecreasing function on a bracket, clamped to the bracket's
ends, by safeguarded Newton; the caller's phi(x) returns the pair (phi(x),
phi'(x)), so each point is evaluated once); secular_shift, the
one secular core (the shift of (diag(lam) + s I) h = -w with s = c r^{p-1}
and r^2 = ||h||^2 + a^2, over eigen-coefficients (lam_i, w_i), by Newton on
its reciprocal form, evaluated on Python floats because a numpy call costs
more than a small loop at the sizes biopt meets); radial_solver (the
secular equation (K + c r^{p-1}B) h = -g, on one eigendecomposition of K,
through secular_shift, or on a basis the caller has: eigen_radial_solver;
sprox_quadratic calls the core directly in Q's eigenbasis at the segment's
ends, and solves an interior segment position as one more secular equation
in the shift, whose bracket follows secular_shift's argument); golden_section
(vectorized over per-element brackets; the brute-force segment-search
reference minimizes by it, and the softplus derivative bound polishes its
grid maxima with it).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DegenerateCoefficient, NonFinitePoint


class Metric:
    """Euclidean metric induced by an SPD operator B, factored once, here.

    W = L^{-T} for the Cholesky factor B = L L^T, so W^T B W = I and
    B^{-1} = W W^T; W is None for B = I, which keeps a fast path.  W is
    diagonal whenever B is.  is_identity, is_diagonal and diagonal (B's;
    ones for B = I) are set here.
    """

    def __init__(self, B: np.ndarray | None = None, dim: int | None = None):
        if B is None:  # B = I: nothing to check or factor
            if dim is None:
                raise ValueError("need B or dim")
            self.dim = int(dim)
            self.B = np.eye(self.dim)
            self.is_identity = self.is_diagonal = True
            self.W = None
            self.diagonal = np.ones(self.dim)
            return
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be square")
        if not np.isfinite(B).all():
            raise ValueError("B has an entry that is NaN or infinite")
        if not np.allclose(B, B.T, atol=1e-12):
            raise ValueError("B must be symmetric")
        self.dim = B.shape[0]
        self.B = 0.5 * (B + B.T)
        self.is_identity = bool(np.array_equal(self.B, np.eye(self.dim)))
        self.W = None
        if not self.is_identity:
            try:
                self.W = np.linalg.inv(np.linalg.cholesky(self.B)).T
            except np.linalg.LinAlgError as exc:
                raise ValueError("B must be positive definite") from exc
        self.diagonal = np.diag(self.B)
        self.is_diagonal = not np.count_nonzero(self.B - np.diag(self.diagonal))

    def smallest_eigenvalue(self) -> float:
        """lambda_min(B), so that ||h||_2 <= lambda_min(B)^{-1/2} ||h||."""
        if self.is_diagonal:
            return float(self.diagonal.min())
        return float(np.linalg.eigvalsh(self.B)[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """B x (primal -> dual)."""
        return x if self.is_identity else self.B @ x

    def solve(self, g: np.ndarray) -> np.ndarray:
        """B^{-1} g = W (W^T g) (dual -> primal)."""
        return g if self.W is None else self.W @ (self.W.T @ g)

    def norm(self, x: np.ndarray) -> float:
        if self.is_identity:
            return math.sqrt(float(x @ x))
        return float(math.sqrt(max(float(x @ (self.B @ x)), 0.0)))

    def dual_norm(self, g: np.ndarray) -> float:
        """||W^T g||, as <g, B^{-1} g> = ||W^T g||^2."""
        v = g if self.W is None else self.W.T @ g
        return math.sqrt(float(v @ v))


def prox_power(metric: Metric, x: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Value and gradient of d_{p+1}(x) = ||x||^{p+1}/(p+1).

    Gradient: ||x||^{p-1} B x.  A non-finite entry of x is a solver failure,
    NonFinitePoint.  It makes ||x|| non-finite, so with B = I the entries
    are scanned only then; otherwise first, as B x of an inf would warn.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = np.asarray(x, dtype=float)
    if not metric.is_identity and not np.isfinite(x).all():
        raise NonFinitePoint("non-finite point")
    r = metric.norm(x)
    if not math.isfinite(r) and not np.isfinite(x).all():
        raise NonFinitePoint("non-finite point")
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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PHI2 = 1.0 - _INV_PHI


def monotone_root(phi, lo: float, hi: float) -> float:
    """The point of [lo, hi] where the nondecreasing phi changes sign.

    That is lo when phi(lo) >= 0 (one evaluation), hi when phi(hi) <= 0,
    and otherwise a root of phi inside the bracket; lo == hi returns that
    point.  The root is found by Newton steps with the slope phi', taken
    from the bracket end with the smaller |phi|, and the bracket is kept by
    the sign rule (phi(x) < 0 moves lo).  A step that leaves the bracket,
    or is longer than half the step before the last, is replaced by the
    midpoint, so the steps halve at least every other iteration.  It stops
    when a Newton step is below one ulp or gains nothing on |phi| without a
    sign change (phi at roundoff level), or when the midpoint equals an
    endpoint.  Noise of size eta in phi ends the search where |phi| is a
    few eta, but the band it masks may be halved to resolution, so callers
    keep phi's own roundoff small (secular_shift and sprox_quadratic build
    phi from a norm of h, not from a residual).  A step that gains
    nothing across the root is no stop: two values and slopes cannot tell
    noise from a convex phi such as exp(x) - 1, where Newton from the left
    lands far right of the root.
    """
    f_lo, d_lo = phi(lo)
    if f_lo >= 0.0:
        return lo
    f_hi, d_hi = phi(hi)
    if f_hi <= 0.0:
        return hi
    step = step_before = hi - lo
    while True:
        x, fx, d = (lo, f_lo, d_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, d_hi)
        if fx == 0.0:
            return x
        new = x - fx / d if d > 0.0 else math.nan
        if abs(new - x) < math.ulp(x):
            return x
        newton = lo < new < hi and abs(new - x) <= 0.5 * step_before
        if not newton:
            new = 0.5 * (lo + hi)
            if new == lo or new == hi:
                return new
        step_before, step = step, abs(new - x)
        f_new, d_new = phi(new)
        if newton and (f_new < 0.0) == (fx < 0.0) and abs(f_new) >= abs(fx):
            return x  # a Newton step that gains nothing: phi is at roundoff level
        if f_new < 0.0:
            lo, f_lo, d_lo = new, f_new, d_new
        else:
            hi, f_hi, d_hi = new, f_new, d_new


def secular_shift(lam: list[float], w: np.ndarray, c: float, p: int,
                  a: float = 0.0) -> float:
    """The shift s = c r^{p-1} of the secular equation in an eigenbasis:
    (diag(lam) + s I) h = -w, r^2 = ||h||^2 + a^2, over the pairs (lam_i,
    w_i) with lam_i >= 0 (a list of floats), c > 0 and an offset a >= 0.
    Returns c for p = 1 (the system is linear) and 0 when the shift
    underflows (then lam + s == lam).

    The 1-D equation is solved in s as phi(s) = 1/r(s) - (c/s)^{1/(p-1)} = 0,
    with the slope sum(w^2/(lam+s)^3)/r^3 + (c/s)^{1/(p-1)}/((p-1) s).  phi
    is increasing; for a = 0 it is also concave (1/n is the reciprocal form
    of More & Sorensen), so a Newton step never passes the root from the
    left and lands left of it from the right.  For a > 0 concavity is not
    guaranteed; monotone_root's midpoint safeguard keeps the bracket and the
    halving of the steps either way.  The bracket comes from the 1-D roots
    rho_i of lam_i rho + c rho^p = |w_i|: each lies in [b_i/2, b_i] with
    b_i = min(|w_i|/lam_i, (|w_i|/c)^{1/p}), and max_i rho_i <= n <= ||rho||
    with n = ||h||, so the offset-free root s_0 lies in
    [c (max(b)/2)^{p-1}, c ||b||^{p-1}].  An offset only lowers phi, so the
    root s* >= s_0 and n(s*) <= n(s_0) <= ||b||; and r >= a gives
    s* >= c a^{p-1}.  Hence s* lies in
    [max(c (max(b)/2)^{p-1}, c a^{p-1}), c (||b||^2 + a^2)^{(p-1)/2}].

    phi and its slope run as one Python loop over the pairs: evaluated with
    numpy arrays, phi costs about 4.5 us of call overhead at any n up to
    200; the loop takes 0.8 us at n = 5, 4.7 us at n = 50 and 9 us at
    n = 100.  Above n ~ 45 it is the slower one, but there the eigh that
    gives the basis (0.3 ms at n = 50, 0.9 ms at n = 100) outweighs it.
    (See More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983, and
    Nesterov & Polyak, Math. Program. 108, 2006, section 5.)
    """
    e = p - 1
    if e == 0:
        return c
    pairs = list(zip(lam, w.tolist()))
    # b_i = min(|w_i|/lam_i, (|w_i|/c)^{1/p}): 0 where w_i = 0, the power
    # root where lam_i = 0.  The roots use numpy's power, not Python's,
    # which differs in the last bit on a few percent of inputs
    roots = ((np.abs(w) / c) ** (1.0 / p)).tolist()
    b = [0.0 if w_i == 0.0 else root if lam_i == 0.0
         else min(abs(w_i) / lam_i, root)
         for (lam_i, w_i), root in zip(pairs, roots)]
    s_lo = max(c * (0.5 * max(b)) ** e, c * a ** e)
    s_hi = c * math.hypot(*b, a) ** e
    if s_hi == 0.0:
        return 0.0
    # r(s) = scale ||(z, a_hat)||, z = w_hat/(lam + s): a_hat <= 1 and
    # |z| <= 1 at s_hi, so z*z does not overflow on the bracket nor
    # underflow to 0 unless a_hat dominates it, and r_hat^3 is finite;
    # scale is a power of two, so the scaling itself rounds nothing
    z_max = max(abs(w_i) / (lam_i + s_hi) for lam_i, w_i in pairs)
    scale = math.ldexp(1.0, math.frexp(max(z_max, a))[1])
    coef = [(lam_i, w_i / scale) for lam_i, w_i in pairs]
    a_hat = a / scale
    inv_e = 1.0 / e

    def phi(s):  # (phi, phi'); -inf and an infinite slope below s > 0
        if s <= 0.0:
            return -math.inf, math.inf
        n2 = slope = 0.0
        for lam_i, w_i in coef:
            v = 1.0 / (lam_i + s)
            z = w_i * v
            q = z * z
            n2 += q
            slope += q * v
        r_hat = math.hypot(math.sqrt(n2), a_hat)
        power = (c / s) ** inv_e
        return (1.0 / (scale * r_hat) - power,
                slope / (scale * r_hat ** 3) + power / (e * s))

    return monotone_root(phi, s_lo, s_hi)


def radial_solver(K: np.ndarray, c: float, p: int, W: np.ndarray | None = None):
    """Solver (g, a) -> h of (K + c r^{p-1} B) h = -g, r^2 = ||h||^2 + a^2,
    for symmetric PSD K, c > 0 and a norm offset a >= 0 (default 0).

    The offset is the norm of a block of the point held fixed elsewhere (a
    face of the composite step); a = 0 is the plain secular equation.  With
    B's factor W (Metric.W, W^T B W = I; None for B = I), the basis S = W V,
    where V diagonalizes W^T K W = V diag(lam) V^T, gives S^T K S =
    diag(lam) and S^T B S = I.  So h = -S (w / (lam + s)) with w = S^T g
    and the shift s from secular_shift.  K is decomposed once, here
    (radial_basis); each solve (eigen_radial_solver) makes the two basis
    changes S^T g and S (w/(lam + s)).
    """
    return eigen_radial_solver(*radial_basis(K, W), c, p)


def radial_basis(K: np.ndarray, W: np.ndarray | None = None):
    """radial_solver's basis (lam, S) of K under B's factor W: S^T K S =
    diag(lam), S^T B S = I, lam clamped at 0 (K is PSD: negative
    eigenvalues are roundoff).  One eigh; callers that keep the basis
    (QuadraticOracle.face_basis) hand it to eigen_radial_solver."""
    K = np.asarray(K, dtype=float)
    if W is None:
        lam, S = np.linalg.eigh(K)
    else:
        lam, V = np.linalg.eigh(W.T @ K @ W)
        S = W @ V
    return np.maximum(lam, 0.0), S


def eigen_radial_solver(lam: np.ndarray, S: np.ndarray, c: float, p: int):
    """radial_solver's (g, a) -> h in a basis S that is given: S^T K S =
    diag(lam) with lam >= 0 and S^T B S = I."""
    lam_list = lam.tolist()

    def solve(g: np.ndarray, a: float = 0.0) -> np.ndarray:
        w = S.T @ g
        if not w.any():
            return np.zeros_like(w)
        return -(S @ (w / (lam + secular_shift(lam_list, w, c, p, a))))

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
