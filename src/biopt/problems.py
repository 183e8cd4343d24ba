"""Oracles for the composite problem F = f + psi and concrete instance families.

The smooth part f answers two questions of the lower level, each from one
evaluation: f and grad f at a point (value_grad), and, at a prox center y,
the contracted even-order forms D^{2k} f(y)[h]^{2k} with their h-gradients
and the Hessian D^2 f(y) (expansion_at).  For separable
f(x) = sum_i f_i(<a_i, x> - b_i) these reduce to scalar derivative data of
the f_i at the slacks, which keeps every oracle call O(N * dim).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import BioptError
from .numerics import Metric


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
        self.kind = kind
        self.weight = float(weight)
        self.lo = None if lo is None else np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = None if hi is None else np.atleast_1d(np.asarray(hi, dtype=float))
        if kind == "l1" and not self.weight >= 0.0:
            raise ValueError(f"l1 psi needs a weight >= 0, got {self.weight!r}")
        if kind == "box" and (self.lo is None or self.hi is None):
            raise ValueError("box psi needs lo and hi")
        if kind == "box" and not np.all(self.lo <= self.hi):
            raise ValueError("box psi needs lo <= hi")

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
        if not metric.is_diagonal:
            raise NotImplementedError("l1/box prox needs an identity or diagonal metric")
        d = np.diag(metric.B) if not metric.is_identity else np.ones_like(w)
        if self.kind == "l1":
            thr = lam * self.weight / d
            return np.sign(w) * np.maximum(np.abs(w) - thr, 0.0)
        return np.clip(w, self.lo, self.hi)

    def in_subdifferential(self, x: np.ndarray, g: np.ndarray, tol: float = 1e-8) -> bool:
        """Check g in partial psi(x) componentwise (diagonal-friendly kinds)."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if self.kind == "zero":
            return bool(np.all(np.abs(g) <= tol))
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
    def from_json(spec: dict | None) -> "SimpleOracle":
        if not spec or spec.get("kind") in (None, "none", "zero"):
            return SimpleOracle("zero")
        kind = spec["kind"]
        if kind == "l1":
            return SimpleOracle("l1", weight=spec.get("weight", 1.0))
        if kind == "box":
            return SimpleOracle("box", lo=spec["lo"], hi=spec["hi"])
        raise ValueError(f"unknown psi kind {kind!r}")


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


_FAMILIES = {
    "log_barrier": (_logbar_deriv, True),   # (deriv fn, has open domain t > 0)
    "power4": (_power4_deriv, False),
    "softplus": (_softplus_deriv, False),
}


# ---------------------------------------------------------------------------
# smooth oracles
# ---------------------------------------------------------------------------

class SmoothOracle:
    """Interface of the smooth part f: four methods.

    value(x) gives f(x), inf outside the domain of f.  value_grad(x) gives
    (f, grad f) from one evaluation, the data of each lower-level point.
    expansion_at(y, q) gives, from one evaluation at a prox center y,
    (f, grad f, a thunk of D^2 f, [h -> (D^{2k} f(y)[h]^{2k}, its h-gradient)
    for k = 1..q]), the data that build the scaling function rho_{y,H}.
    Outside the domain both return inf and None in place of the rest.
    deriv_bound(order) gives a declared bound M_order(f), if any.
    """

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        raise NotImplementedError

    def expansion_at(self, y: np.ndarray, q: int):
        raise NotImplementedError

    def deriv_bound(self, order: int) -> float | None:
        """Uniform bound M_order(f) on the operating region, if declared."""
        return None

    # Derived from the primitives for perfbench's tracer only, which wraps
    # these names; nothing in the library calls them.  They go when the
    # tracer wraps value_grad and expansion_at instead.

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
        return self.expansion_at(y, order // 2)[3][-1]


class SeparableOracle(SmoothOracle):
    """f(x) = sum_i f_i(<a_i, x> - b_i) for a scalar family f_i.

    slack_min declares the operating region for log-barrier instances:
    derivative bounds are computed assuming all slacks stay >= slack_min.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, family: str,
                 slack_min: float | None = None):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A rows must match b")
        self.family = family
        self.deriv, self.open_domain = _FAMILIES[family]
        self.slack_min = slack_min

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _slacks(self, x: np.ndarray) -> np.ndarray | None:
        """t = A x - b, or None outside the domain of f."""
        t = self.A @ np.asarray(x, dtype=float) - self.b
        return t if not self.open_domain or (t > 0.0).all() else None

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
        forms = [self._form(d2 if k == 1 else self.deriv(t, 2 * k), 2 * k)
                 for k in range(1, q + 1)]
        return (float(self.deriv(t, 0).sum()), self.A.T @ self.deriv(t, 1),
                lambda: (self.A * d2[:, None]).T @ self.A, forms)

    def _form(self, w: np.ndarray, order: int):
        """h -> (sum_i w_i s_i^order, its h-gradient), s = A h."""
        def form(h: np.ndarray) -> tuple[float, np.ndarray]:
            s = self.A @ np.asarray(h, dtype=float)
            return (float((w * s ** order).sum()),
                    order * (self.A.T @ (w * s ** (order - 1))))
        return form

    def deriv_bound(self, order: int) -> float | None:
        row_norms = np.linalg.norm(self.A, axis=1)
        if self.family == "log_barrier":
            if self.slack_min is None:
                return None
            per_row = math.factorial(order - 1) / self.slack_min ** order
            return float(per_row * np.sum(row_norms ** order))
        if self.family == "power4":
            if order >= 5:
                return 0.0
            if order == 4:
                return float(2.0 * np.sum(row_norms ** 4))
            return None  # unbounded below order 4 (t unbounded)
        if self.family == "softplus":
            grid = np.linspace(-40.0, 40.0, 20001)
            peak = float(np.max(np.abs(self.deriv(grid, order))))
            return float(peak * np.sum(row_norms ** order))
        return None


class QuadraticOracle(SmoothOracle):
    """f(x) = 1/2 <Qx, x> - <c, x> with Q symmetric PSD; one Q x per point."""

    def __init__(self, Q: np.ndarray, c: np.ndarray):
        self.Q = np.asarray(Q, dtype=float)
        self.c = np.asarray(c, dtype=float)
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def value(self, x: np.ndarray) -> float:
        return self.value_grad(x)[0]

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        Qx = self.Q @ x
        return 0.5 * float(x @ Qx) - float(self.c @ x), Qx - self.c

    def expansion_at(self, y: np.ndarray, q: int):
        value, grad = self.value_grad(y)
        zero = np.zeros_like(self.Q)
        return (value, grad, self.Q.copy,
                [self._form(self.Q if k == 1 else zero) for k in range(1, q + 1)])

    @staticmethod
    def _form(Q: np.ndarray):
        """h -> (<Q h, h>, 2 Q h)."""
        def form(h: np.ndarray) -> tuple[float, np.ndarray]:
            h = np.asarray(h, dtype=float)
            Qh = Q @ h
            return float(h @ Qh), 2.0 * Qh
        return form

    def deriv_bound(self, order: int) -> float | None:
        if order == 2:
            return float(np.linalg.norm(self.Q, 2))
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


def build_quadratic(Q: np.ndarray, c: np.ndarray,
                    psi: SimpleOracle | None = None,
                    name: str = "quadratic") -> ProblemInstance:
    smooth = QuadraticOracle(Q, c)
    psi = psi or SimpleOracle("zero")
    metric = Metric(dim=smooth.dim)
    optimum = None
    if psi.kind == "zero":
        x_star = np.linalg.solve(smooth.Q, smooth.c)
        optimum = (x_star, smooth.value(x_star))
    return ProblemInstance(smooth, psi, metric, smooth.dim, name=name, optimum=optimum)


def build_example_1d() -> ProblemInstance:
    """F(x) = 1/2 x^2 + |x| on the line; unique minimizer x* = 0."""
    smooth = QuadraticOracle(np.array([[1.0]]), np.array([0.0]))
    psi = SimpleOracle("l1", weight=1.0)
    inst = ProblemInstance(smooth, psi, Metric(dim=1), 1, name="example1d",
                           optimum=(np.array([0.0]), 0.0))
    return inst


def build_separable(a_rows: np.ndarray, b: np.ndarray, family: str,
                    psi: SimpleOracle | None = None,
                    slack_min: float | None = None,
                    name: str | None = None) -> ProblemInstance:
    smooth = SeparableOracle(a_rows, b, family, slack_min=slack_min)
    psi = psi or SimpleOracle("zero")
    return ProblemInstance(smooth, psi, Metric(dim=smooth.dim), smooth.dim,
                           name=name or f"separable-{family}")


def newton_minimize(smooth: SmoothOracle, x0: np.ndarray, tol: float = 1e-13,
                    max_iter: int = 200) -> np.ndarray:
    """Damped Newton for a smooth strictly convex f; feasibility-safe steps.

    Stops at ||grad f|| <= tol or once the Newton decrement
    lambda^2 = <grad f, step> falls below f's resolution eps * max(|f|, 1)
    (Boyd & Vandenberghe, Convex Optimization, 2004, sec. 9.5).  Where the
    Armijo decrease 1e-4 lambda^2 is below it, rounding would decide the
    test, so the full step is taken (this deep in the quadratic phase it
    stays in the domain).  Raises BioptError when max_iter runs out.
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        fx, g, hessian, _ = smooth.expansion_at(x, 1)
        if np.linalg.norm(g) <= tol:
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
    raise BioptError(f"newton_minimize: no convergence in {max_iter} iterations")


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
    """Builtin benchmark instances: example1d, quad-<d>, logbar-<N>-<d>."""
    if name == "example1d":
        return build_example_1d()
    if name.startswith("quad-"):
        dim = int(name.split("-")[1])
        rng = np.random.default_rng(seed)
        Gm = rng.standard_normal((dim, dim))
        Q = Gm.T @ Gm / dim + 0.5 * np.eye(dim)
        c = rng.standard_normal(dim)
        inst = build_quadratic(Q, c, name=name)
        inst.meta["x0"] = np.ones(dim)
        return inst
    if name.startswith("logbar-"):
        _, N, dim = name.split("-")
        return build_logbar(int(N), int(dim), seed=seed)
    raise ValueError(f"unknown builtin instance {name!r}")


def load_instance(path: str) -> ProblemInstance:
    """Load an instance description from a JSON file.

    Schema: {"family": ..., "A": [[...]], "b": [...],
             "psi": {"kind": "none|l1|box", ...}, "slack_min": ...}.
    family "quadratic" reads "Q" and "c" instead of "A"/"b".
    """
    with open(path) as fh:
        spec = json.load(fh)
    psi = SimpleOracle.from_json(spec.get("psi"))
    family = spec["family"]
    if family == "quadratic":
        return build_quadratic(np.asarray(spec["Q"], dtype=float),
                               np.asarray(spec["c"], dtype=float), psi=psi,
                               name=spec.get("name", "quadratic"))
    return build_separable(np.asarray(spec["A"], dtype=float),
                           np.asarray(spec["b"], dtype=float), family, psi=psi,
                           slack_min=spec.get("slack_min"),
                           name=spec.get("name"))
