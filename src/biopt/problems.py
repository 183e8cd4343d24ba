"""Oracles for the composite problem F = f + psi and concrete instance families.

The smooth part f answers two questions of the lower level, each from one
evaluation: f and grad f at a point (value_grad), and, at a prox center y,
the Hessian D^2 f(y) and the even Taylor part sum_k D^{2k} f(y)[h]^{2k} /
(2k)! with its h-gradient (expansion_at).  For separable
f(x) = sum_i f_i(<a_i, x> - b_i) these reduce to scalar derivative data of
the f_i at the slacks, which keeps every oracle call O(N * dim).
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .config import INSTANCE, BioptError, check_keys, number
from .numerics import Metric, block_basis, golden_section


# ---------------------------------------------------------------------------
# simple part
# ---------------------------------------------------------------------------

class SimpleOracle:
    """Simple convex part psi with closed-form scaled prox.

    Supported kinds: "zero", "l1" (weight * ||x||_1) and "box"
    (indicator of [lo, hi]).  scaled_prox solves
    min_x 1/2 ||x - w||^2 + lam * psi(x) in the metric norm; closed forms
    exist for identity/diagonal metrics, which is all the benchmarks use.
    """

    def __init__(self, kind: str = "zero", weight: float = 1.0,
                 lo: np.ndarray | float | None = None,
                 hi: np.ndarray | float | None = None):
        if kind not in ("zero", "l1", "box"):
            raise ValueError(f"unknown psi kind {kind!r}")
        if kind == "l1" and not (number(weight) and weight >= 0.0):
            raise ValueError(f"l1 psi needs a finite weight >= 0, got {weight!r}")
        self.kind = kind
        self.weight = float(weight)
        self.lo = None if lo is None else np.atleast_1d(floats("psi lo", lo))
        self.hi = None if hi is None else np.atleast_1d(floats("psi hi", hi))
        if kind == "box" and (self.lo is None or self.hi is None):
            raise ValueError("box psi needs lo and hi")
        if kind == "box" and (np.isnan(self.lo).any() or np.isnan(self.hi).any()):
            raise ValueError("box psi has a NaN bound")
        if kind == "box" and not np.all(self.lo <= self.hi):
            raise ValueError("box psi needs lo <= hi")
        if kind == "box" and (np.isposinf(self.lo).any() or np.isneginf(self.hi).any()):
            raise ValueError("box psi is empty: a bound has lo = +inf or hi = -inf")

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sum(np.abs(x)))
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else math.inf

    def scaled_prox(self, lam: float, w: np.ndarray, metric: Metric) -> np.ndarray:
        """argmin_x 1/2 ||x - w||_B^2 + lam * psi(x)."""
        w = np.asarray(w, dtype=float)
        if lam < 0:
            raise ValueError("lam must be >= 0")
        if self.kind == "zero":
            return w.copy()
        return self._prox(lam, w, self._diagonal(metric))

    @staticmethod
    def _diagonal(metric: Metric) -> np.ndarray:
        if not metric.is_diagonal:
            raise NotImplementedError("l1/box prox needs an identity or diagonal metric")
        return metric.diagonal

    def _prox(self, lam, w: np.ndarray, d: np.ndarray) -> np.ndarray:
        """scaled_prox for l1 or box with B = diag(d); a column of lam
        applies one lam per row of w."""
        if self.kind == "l1":
            thr = lam * self.weight / d
            return np.sign(w) * np.maximum(np.abs(w) - thr, 0.0)
        return np.clip(w, self.lo, self.hi)

    def path_cuts(self, x0: np.ndarray, shift: np.ndarray, metric: Metric,
                  lo: float, hi: float) -> np.ndarray:
        """lo, hi and the breakpoints between them, sorted, of the path
        x(lam) = scaled_prox(1/lam, x0 - shift/lam) of an l1 or box psi:
        where a coordinate changes piece, at most twice each (l1 where
        |b x0 lam - b shift| = weight, b = diag B; box where
        x0 - shift/lam meets lo or hi)."""
        d = self._diagonal(metric)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "l1":
                cuts = [(d * shift + g) / (d * x0) for g in (self.weight, -self.weight)]
            else:
                cuts = [shift / (x0 - self.lo), shift / (x0 - self.hi)]
        cuts = np.concatenate(cuts)
        return np.sort(np.concatenate(([lo, hi], cuts[(cuts > lo) & (cuts < hi)])))

    def path_offsets(self, x0: np.ndarray, shift: np.ndarray, metric: Metric,
                     lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows x(lam) - x0 of that path at each of lams and their
        squared norms ||x(lam) - x0||_B^2, in one array operation."""
        d = self._diagonal(metric)
        col = lams[:, None]
        dx = self._prox(1.0 / col, x0 - shift / col, d) - x0
        return dx, (dx * dx) @ d

    def face(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """(pattern, free, held, slope) of psi's face at x, for l1 or box:
        pattern keys the face (l1: sign x; box: +1 at or above hi, -1 at or
        below lo, 0 between), free masks where psi is smooth (l1: x != 0;
        box: lo < x < hi), held is where each other coordinate sits (l1: 0;
        box: hi or lo) and slope is psi's gradient on the free coordinates."""
        if self.kind == "l1":
            pattern = np.sign(x)
            free = x != 0.0
            return pattern, free, np.zeros_like(x), self.weight * pattern[free]
        pattern = np.where(x < self.hi, np.where(x > self.lo, 0.0, -1.0), 1.0)
        free = pattern == 0.0
        return (pattern, free, np.where(pattern > 0.0, self.hi, self.lo),
                np.zeros(np.count_nonzero(free)))

    def in_subdifferential(self, x: np.ndarray, g: np.ndarray, tol: float) -> bool:
        """Check g in partial psi(x) componentwise (diagonal-friendly kinds)."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if self.kind == "zero":  # a NaN max fails
            return bool(np.abs(g).max() <= tol)
        if self.kind == "l1":
            w = self.weight
            at_zero = np.abs(x) <= tol
            ok_zero = np.abs(g[at_zero]) <= w + tol
            ok_sign = np.abs(g[~at_zero] - w * np.sign(x[~at_zero])) <= tol
            return bool(np.all(ok_zero) and np.all(ok_sign))
        # box: normal cone of [lo, hi]
        ok = np.ones(x.shape, dtype=bool)
        interior = (x > self.lo + tol) & (x < self.hi - tol)
        ok &= ~interior | (np.abs(g) <= tol)
        ok &= (x > self.lo + tol) | (g <= tol)
        ok &= (x < self.hi - tol) | (g >= -tol)
        return bool(np.all(ok))

    @staticmethod
    def from_json(spec: dict) -> "SimpleOracle":
        """The psi of an instance file's psi object, whose keys
        config.INSTANCE has checked; kind "none" is "zero"."""
        kind = spec.get("kind", "zero")
        return SimpleOracle(**dict(spec, kind="zero" if kind == "none" else kind))


# ---------------------------------------------------------------------------
# scalar families for the separable smooth part
# ---------------------------------------------------------------------------

def _logbar_deriv(t: np.ndarray, n: int) -> np.ndarray:
    # f(t) = -log t, f^{(n)}(t) = (-1)^n (n-1)! / t^n
    if n == 0:
        return -np.log(t)
    return ((-1.0) ** n) * math.factorial(n - 1) / t ** n


def _power4_deriv(t: np.ndarray, n: int) -> np.ndarray:
    # f(t) = t^4 / 12
    if n == 0:
        return t ** 4 / 12.0
    if n == 1:
        return t ** 3 / 3.0
    if n == 2:
        return t ** 2
    if n == 3:
        return 2.0 * t
    if n == 4:
        return np.full_like(t, 2.0)
    return np.zeros_like(t)


def _softplus_deriv(t: np.ndarray, n: int) -> np.ndarray:
    # f(t) = log(1 + e^t); derivatives are polynomials in s = sigmoid(t)
    if n == 0:
        return np.logaddexp(0.0, t)
    s = 0.5 * (1.0 + np.tanh(0.5 * t))
    if n == 1:
        return s
    v = s * (1.0 - s)
    if n == 2:
        return v
    if n == 3:
        return v * (1.0 - 2.0 * s)
    if n == 4:
        return v * (1.0 - 6.0 * s + 6.0 * s * s)
    if n == 5:
        return v * (1.0 - 2.0 * s) * (1.0 - 12.0 * s + 12.0 * s * s)
    if n == 6:
        return v * (1.0 - 30.0 * s + 150.0 * s ** 2 - 240.0 * s ** 3 + 120.0 * s ** 4)
    raise NotImplementedError(f"softplus derivative order {n} not tabulated")


_FAMILIES = {  # (deriv fn, has open domain t > 0, highest order or None)
    "log_barrier": (_logbar_deriv, True, None),
    "power4": (_power4_deriv, False, None),
    "softplus": (_softplus_deriv, False, 6),
}


# ---------------------------------------------------------------------------
# smooth oracles
# ---------------------------------------------------------------------------

def floats(name: str, a) -> np.ndarray:
    """a as a float array; a ValueError naming it unless numpy reads a as
    numbers: a number or a (nested, not ragged) list of them, not a string
    or a list of only bools (a bool among numbers reads as 0 or 1)."""
    try:
        numeric = np.asarray(a).dtype.kind in "iuf"
    except ValueError:  # a ragged list
        numeric = False
    if not numeric:
        raise ValueError(f"{name} must be a number or a list of numbers, "
                         f"got {reprlib.repr(a)}")
    return np.asarray(a, dtype=float)


def _finite(name: str, a) -> np.ndarray:
    """floats(name, a); a ValueError naming it if an entry is NaN or
    infinite."""
    a = floats(name, a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has an entry that is NaN or infinite")
    return a


class SmoothOracle:
    """Interface of the smooth part f: four methods.

    value(x) gives f(x), inf outside the domain of f.  value_grad(x) gives
    (f, grad f) from one evaluation, the data of each lower-level point.
    expansion_at(y, q) gives, from one evaluation at a prox center y,
    (f, grad f, a thunk of D^2 f, h -> (sum_{k=1..q} D^{2k} f(y)[h]^{2k} /
    (2k)!, its h-gradient)), the data that build the scaling function
    rho_{y,H}; the oracle's _even_part folds the 1/(2k)! into its data once.
    Outside the domain both return inf and None in place of the rest.
    deriv_bound(order) gives a declared bound M_order(f), if any, which
    holds where every slack is at least slack_min (everywhere when None);
    pop_min_slack reports the smallest slack evaluated since its last call.
    max_order is the highest derivative order either can give (None: any).
    """

    slack_min: float | None = None
    max_order: int | None = None

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        raise NotImplementedError

    def expansion_at(self, y: np.ndarray, q: int):
        raise NotImplementedError

    def deriv_bound(self, order: int) -> float | None:
        """Uniform bound M_order(f) on the operating region, if declared."""
        return None

    def pop_min_slack(self) -> float | None:
        """The smallest slack of a point in the domain of f evaluated since
        the last call, which it forgets; None when f has no open domain of
        slacks or no point was evaluated."""
        return None

    # Derived from the primitives for perfbench's tracer only, which wraps
    # these names; nothing in the library calls them.  They go when the
    # tracer wraps value_grad and expansion_at instead.  An oracle's
    # _even_form(y, order) is its _even_part at the one order, coefficient 1.

    def grad(self, x: np.ndarray) -> np.ndarray | None:
        return self.value_grad(x)[1]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.expansion_at(x, 1)[2]()

    def even_form(self, y: np.ndarray, h: np.ndarray, order: int) -> float:
        """D^{order} f(y)[h]^{order} for even order."""
        return self._even_form_at(y, order)(h)[0]

    def even_form_grad(self, y: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
        """h-gradient of even_form: order * D^{order} f(y)[h]^{order-1}."""
        return self._even_form_at(y, order)(h)[1]

    def _even_form_at(self, y: np.ndarray, order: int):
        if order < 2 or order % 2:
            raise ValueError("order must be even and >= 2")
        return self._even_form(y, order)


class SeparableOracle(SmoothOracle):
    """f(x) = sum_i f_i(<a_i, x> - b_i) for a scalar family f_i.

    slack_min declares the operating region for log-barrier instances:
    derivative bounds are computed assuming all slacks stay >= slack_min.
    The log-barrier's domain test keeps the smallest slack of the points
    it admits, for pop_min_slack.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, family: str,
                 slack_min: float | None = None):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.A = _finite("A", A)
        self.b = _finite("b", b)
        if self.A.ndim != 2 or not self.A.size \
                or self.b.shape != (self.A.shape[0],):
            raise ValueError("A needs at least one row and one column, and its "
                             "rows must match b")
        if slack_min is not None and not (number(slack_min) and slack_min > 0.0):
            raise ValueError(f"slack_min must be a positive finite number, "
                             f"got {slack_min!r}")
        self.family = family
        self.deriv, self.open_domain, self.max_order = _FAMILIES[family]
        self.slack_min = slack_min
        self._min_slack = math.inf

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _slacks(self, x: np.ndarray) -> np.ndarray | None:
        """t = A x - b, or None outside the domain of f."""
        t = self.A @ np.asarray(x, dtype=float) - self.b
        if self.open_domain:
            low = t.min()
            if not low > 0.0:
                return None
            self._min_slack = min(self._min_slack, low)
        return t

    def pop_min_slack(self) -> float | None:
        low, self._min_slack = self._min_slack, math.inf
        return float(low) if low < math.inf else None

    def value(self, x: np.ndarray) -> float:
        t = self._slacks(x)
        return math.inf if t is None else float(self.deriv(t, 0).sum())

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        t = self._slacks(x)
        if t is None:
            return math.inf, None
        return float(self.deriv(t, 0).sum()), self.A.T @ self.deriv(t, 1)

    def expansion_at(self, y: np.ndarray, q: int):
        t = self._slacks(y)
        if t is None:
            return math.inf, None, None, None
        d2 = self.deriv(t, 2)
        return (float(self.deriv(t, 0).sum()), self.A.T @ self.deriv(t, 1),
                lambda: (self.A * d2[:, None]).T @ self.A,
                self._even_part([(2 * k, (d2 if k == 1 else self.deriv(t, 2 * k))
                                  / math.factorial(2 * k)) for k in range(1, q + 1)]))

    def _even_form(self, y: np.ndarray, order: int):
        return self._even_part([(order, self.deriv(self._slacks(y), order))])

    def _even_part(self, weights: list):
        """h -> (sum over (n, w) in weights of sum_i w_i s_i^n, its
        h-gradient), s = A h: one A h and one A^T product per call."""
        terms = [(n, w, n * w) for n, w in weights]

        def even(h: np.ndarray) -> tuple[float, np.ndarray]:
            s = self.A @ np.asarray(h, dtype=float)
            val = slope = 0.0
            for n, w, nw in terms:
                val += (w * s ** n).sum()
                slope = slope + nw * s ** (n - 1)
            return float(val), self.A.T @ slope
        return even

    def deriv_bound(self, order: int) -> float | None:
        row_norms = np.linalg.norm(self.A, axis=1)
        if self.family == "log_barrier":
            if self.slack_min is None:
                return None
            # sum_i |<a_i, h>|^k is at most sum_i ||a_i||^k ||h||^k and, for
            # k >= 2, max_i |<a_i, h>|^{k-2} ||A h||^2
            # <= max_i ||a_i||^{k-2} ||A||_2^2 ||h||^k; ||A||_2^2 is the top
            # eigenvalue of A^T A (an SVD would take 0.25 MB more memory)
            per_row = math.factorial(order - 1) / self.slack_min ** order
            total = np.sum(row_norms ** order)
            if order >= 2:
                total = min(total, np.max(row_norms) ** (order - 2)
                            * np.linalg.eigvalsh(self.A.T @ self.A)[-1])
            return float(per_row * total)
        if self.family == "power4":
            if order >= 5:
                return 0.0
            if order == 4:
                return float(2.0 * np.sum(row_norms ** 4))
            return None  # unbounded below order 4 (t unbounded)
        if self.family == "softplus":
            # grid maxima of |f^(order)|, each polished over its two cells:
            # the grid alone misses the peak by up to 3e-6 relative
            grid = np.linspace(-40.0, 40.0, 20001)
            vals = np.abs(self.deriv(grid, order))
            i = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
            _, neg = golden_section(lambda t: -np.abs(self.deriv(t, order)),
                                    grid[i - 1], grid[i + 1], iters=60)
            peak = max(float(np.max(vals)), -float(np.min(neg)))
            return float(peak * np.sum(row_norms ** order))
        return None


class QuadraticOracle(SmoothOracle):
    """f(x) = 1/2 <Qx, x> - <c, x> with Q symmetric PSD; one Q x per point.

    Q is the oracle's own read-only copy, and its one eigendecomposition is
    made here, when the oracle is built: eigenbasis = (lam, S) with
    Q = S diag(lam) S^T and S orthogonal.  It refuses a Q that is not PSD
    (lam_min below -1e-12 max |lam|), gives M_2 = lam_max (deriv_bound),
    and serves the exact segment prox and the radial solver.  lam is
    clamped at 0, as the negative eigenvalues that pass are roundoff.

    face_basis(free, W) serves the lower level's radial and face solves
    under B's factor W (lower.ScalingFunction.face_solver): Q and B are the
    same at every anchor, so each face's block is decomposed once, not once
    per solve, by numerics.block_basis, the eigh that radial_solver makes of
    it; every solve equals one with a fresh radial_solver bit for bit, and
    all free under B = I reads eigenbasis.  Only the last face and W are
    kept, and the all-free face under W apart from it, as a run may return
    there after another face (W by identity, so a reassigned
    instance.metric is never served another's basis): a composite-cli
    panel run makes 9.07 face solves, which this memo serves with 3.47
    decompositions and an unbounded one would with 3.40.  The memo holds
    arrays, not closures, so a prepared instance still pickles.
    """

    def __init__(self, Q: np.ndarray, c: np.ndarray):
        self.Q = np.array(_finite("Q", Q))
        self.Q.flags.writeable = False
        self.c = _finite("c", c)
        if self.c.ndim != 1 or not self.c.size or self.Q.shape != (self.c.size,) * 2:
            raise ValueError(f"Q of shape {self.Q.shape} and c of shape "
                             f"{self.c.shape}: need n x n and n with n >= 1")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        lam, S = np.linalg.eigh(self.Q)
        if lam[0] < -1e-12 * np.abs(lam).max():
            raise ValueError(f"Q must be positive semidefinite, its smallest "
                             f"eigenvalue is {lam[0]:.6g}")
        self.eigenbasis = (np.maximum(lam, 0.0), S)
        # (free.tobytes(), W, lam_F, S_F, Q_FA) of the last face with a held
        # coordinate, and of the last all-free face
        self._face = [None, None]

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def face_basis(self, free: np.ndarray, W: np.ndarray | None = None):
        """numerics.block_basis(Q, free, W), (lam_F, S_F, Q_FA), which
        callers must not write to."""
        whole = bool(free.all())
        if W is None and whole:  # Q's own basis, already made
            return (*self.eigenbasis, self.Q[:, :0])
        key, slot = free.tobytes(), self._face[whole]
        if slot is None or slot[0] != key or slot[1] is not W:
            slot = self._face[whole] = (key, W, *block_basis(self.Q, free, W))
        return slot[2:]

    def value(self, x: np.ndarray) -> float:
        return self.value_grad(x)[0]

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        Qx = self.Q @ x
        return 0.5 * float(x @ Qx) - float(self.c @ x), Qx - self.c

    def expansion_at(self, y: np.ndarray, q: int):
        value, grad = self.value_grad(y)
        return value, grad, self.Q.copy, self._even_part(0.5)

    def _even_form(self, y: np.ndarray, order: int):
        return self._even_part(1.0 if order == 2 else 0.0)

    def _even_part(self, c: float):
        """h -> (c <Q h, h>, 2c Q h): D^2 f[h]^2 at coefficient c, as the
        higher forms of a quadratic vanish."""
        def even(h: np.ndarray) -> tuple[float, np.ndarray]:
            h = np.asarray(h, dtype=float)
            Qh = self.Q @ h
            return c * float(h @ Qh), (2.0 * c) * Qh
        return even

    def deriv_bound(self, order: int) -> float | None:
        if order == 2:
            return float(self.eigenbasis[0][-1])
        if order >= 3:
            return 0.0
        return None


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------

@dataclass
class ProblemInstance:
    smooth: SmoothOracle
    simple: SimpleOracle
    metric: Metric
    dim: int
    name: str = "instance"
    optimum: tuple[np.ndarray, float] | None = None  # (x*, F*)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        psi = self.simple
        if psi.kind == "box" and {psi.lo.shape, psi.hi.shape} - {(1,), (self.dim,)}:
            raise ValueError(f"box lo and hi need a scalar or {self.dim} entries each")

    def F(self, x: np.ndarray) -> float:
        pv = self.simple.value(x)
        if not math.isfinite(pv):
            return math.inf
        return self.smooth.value(x) + pv

    @property
    def x_star(self) -> np.ndarray | None:
        return None if self.optimum is None else self.optimum[0]

    @property
    def F_star(self) -> float | None:
        return None if self.optimum is None else self.optimum[1]


def _quadratic_minimizer(Q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A minimizer x* of f(x) = 1/2 <Qx, x> - <c, x> for a PSD Q: Q x* = c.

    Where numpy's solve finds Q singular, f has minimizers exactly when c
    lies in Q's range; then x* is the least-squares solution, whose
    residual is roundoff.  Otherwise f is unbounded below, a ValueError.
    """
    try:
        return np.linalg.solve(Q, c)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(Q, c, rcond=None)[0]
    scale = np.linalg.norm(Q, 2) * np.linalg.norm(x) + np.linalg.norm(c)
    if np.linalg.norm(Q @ x - c) > 1e-10 * scale:
        raise ValueError("f is unbounded below: Q is singular and c is not "
                         "in its range")
    return x


def build_quadratic(Q: np.ndarray, c: np.ndarray,
                    psi: SimpleOracle | None = None,
                    name: str = "quadratic") -> ProblemInstance:
    smooth = QuadraticOracle(Q, c)
    psi = psi or SimpleOracle("zero")
    metric = Metric(dim=smooth.dim)
    optimum = None
    if psi.kind == "zero":
        x_star = _quadratic_minimizer(smooth.Q, smooth.c)
        optimum = (x_star, smooth.value(x_star))
    return ProblemInstance(smooth, psi, metric, smooth.dim, name=name, optimum=optimum)


def build_example_1d() -> ProblemInstance:
    """F(x) = 1/2 x^2 + |x| on the line; unique minimizer x* = 0."""
    smooth = QuadraticOracle(np.array([[1.0]]), np.array([0.0]))
    psi = SimpleOracle("l1", weight=1.0)
    return ProblemInstance(smooth, psi, Metric(dim=1), 1, name="example1d",
                           optimum=(np.array([0.0]), 0.0))


def build_separable(a_rows: np.ndarray, b: np.ndarray, family: str,
                    psi: SimpleOracle | None = None,
                    slack_min: float | None = None,
                    name: str | None = None) -> ProblemInstance:
    smooth = SeparableOracle(a_rows, b, family, slack_min=slack_min)
    psi = psi or SimpleOracle("zero")
    return ProblemInstance(smooth, psi, Metric(dim=smooth.dim), smooth.dim,
                           name=name or f"separable-{family}")


NEWTON_TOL = 1e-13  # newton_minimize stops at ||grad f|| <= NEWTON_TOL
MAX_NEWTON_STEPS = 200  # newton_minimize raises BioptError past it


def newton_minimize(smooth: SmoothOracle, x0: np.ndarray) -> np.ndarray:
    """Damped Newton for a smooth strictly convex f; feasibility-safe steps.

    Stops at ||grad f|| <= NEWTON_TOL or once the Newton decrement
    lambda^2 = <grad f, step> falls below f's resolution eps * max(|f|, 1)
    (Boyd & Vandenberghe, Convex Optimization, 2004, sec. 9.5).  Where the
    Armijo decrease 1e-4 lambda^2 is below it, rounding would decide the
    test, so the full step is taken (this deep in the quadratic phase it
    stays in the domain).  Raises BioptError after MAX_NEWTON_STEPS.
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(MAX_NEWTON_STEPS):
        fx, g, hessian, _ = smooth.expansion_at(x, 1)
        if np.linalg.norm(g) <= NEWTON_TOL:
            return x
        try:
            step = np.linalg.solve(hessian() + 1e-14 * np.eye(len(x)), g)
        except np.linalg.LinAlgError:
            step = g
        decrement = float(g @ step)
        resolution = np.finfo(float).eps * max(abs(fx), 1.0)
        if 1e-4 * decrement <= resolution:
            x = x - step
            if decrement <= resolution:
                return x
            continue
        t = 1.0
        for _ in range(60):
            if smooth.value(x - t * step) <= fx - 1e-4 * t * decrement:
                break
            t *= 0.5
        x = x - t * step
    raise BioptError(f"newton_minimize: no convergence in {MAX_NEWTON_STEPS} iterations")


def build_logbar(N: int, dim: int, seed: int = 0) -> ProblemInstance:
    """Bounded log-barrier instance: rows [G; -G] with x = ones interior.

    Pairing each Gaussian row with its negation bounds the feasible polytope,
    so f has a unique (analytic-center-like) minimizer, computed to high
    accuracy for benchmarking.
    """
    if N % 2:
        raise ValueError("N must be even (paired rows)")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N // 2, dim))
    e = np.ones(dim)
    s_up = rng.uniform(0.5, 1.5, size=N // 2)
    s_dn = rng.uniform(0.5, 1.5, size=N // 2)
    A = np.vstack([G, -G])
    b = np.concatenate([G @ e - s_up, -(G @ e) - s_dn])
    smooth = SeparableOracle(A, b, "log_barrier")
    x_star = newton_minimize(smooth, e)
    slack_star = np.min(A @ x_star - b)
    slack_x0 = np.min(A @ e - b)
    smooth.slack_min = 0.25 * float(min(slack_star, slack_x0))
    inst = ProblemInstance(smooth, SimpleOracle("zero"), Metric(dim=dim), dim,
                           name=f"logbar-{N}-{dim}",
                           optimum=(x_star, smooth.value(x_star)))
    inst.meta["x0"] = e
    return inst


def build_builtin(name: str, seed: int = 0) -> ProblemInstance:
    """Builtin benchmark instances: example1d, quad-<d>, logbar-<N>-<d>;
    a name of any other form is a ValueError."""
    if name == "example1d":
        return build_example_1d()
    quad = re.fullmatch("quad-([0-9]+)", name)
    logbar = re.fullmatch("logbar-([0-9]+)-([0-9]+)", name)
    if quad:
        dim = int(quad[1])
        rng = np.random.default_rng(seed)
        Gm = rng.standard_normal((dim, dim))
        Q = Gm.T @ Gm / dim + 0.5 * np.eye(dim)
        c = rng.standard_normal(dim)
        inst = build_quadratic(Q, c, name=name)
        inst.meta["x0"] = np.ones(dim)
        return inst
    if logbar:
        return build_logbar(int(logbar[1]), int(logbar[2]), seed=seed)
    raise ValueError(f"unknown builtin instance {name!r}")


def load_instance(path: str) -> ProblemInstance:
    """Load an instance from a JSON file whose keys config.INSTANCE lists:
    Q and c for family "quadratic", A and b (and slack_min) otherwise."""
    with open(path) as fh:
        spec = json.load(fh)
    check_keys(spec, INSTANCE, "instance file", "instance ")
    psi = SimpleOracle.from_json(spec.get("psi", {}))
    family = spec["family"]
    if family == "quadratic":
        return build_quadratic(spec["Q"], spec["c"], psi=psi,
                               name=spec.get("name", "quadratic"))
    return build_separable(spec["A"], spec["b"], family, psi=psi,
                           slack_min=spec.get("slack_min"), name=spec.get("name"))
