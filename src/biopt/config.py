"""The typed solver errors, and the one table of the keys that configs and
instance files may hold."""

from __future__ import annotations

import numbers
import reprlib
import sys


class BioptError(Exception):
    """Base class for solver errors."""


class DomainViolation(BioptError):
    """Smooth-part oracle evaluated outside its domain."""


class NonFinitePoint(BioptError):
    """A point with a NaN or infinite entry reached the regularizer."""


class DegenerateCoefficient(BioptError):
    """Coefficient equation has no positive root (zero residual norm)."""


class SubproblemStall(BioptError):
    """Inner subproblem iteration cap exceeded."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class OptimalityReached(BioptError):
    """Anchor of a prox subproblem is already optimal to numerical precision.

    Carried upward so drivers can terminate cleanly instead of certifying an
    accepted point whose residuals are pure roundoff.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class AcceptanceFailure(BioptError):
    """Lower-level loop hit its cap before producing an acceptable point."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class RegionViolation(BioptError):
    """A point was evaluated outside the operating region on which the
    derivative bound that set H holds: a slack below slack_min."""


class BisectionStall(BioptError):
    """Segment-search bisection cap exceeded."""


class CertificateUndefined(BioptError):
    """Gap certificate requested before any model mass accumulated."""


class InvariantViolation(BioptError):
    """Invariant families failed, at driver iteration k (None elsewhere)."""

    def __init__(self, message: str, k: int | None = None, families=()):
        super().__init__(message)
        self.k = k
        self.families = list(families)


def number(v, kind=numbers.Real) -> bool:
    """v is a number of that kind within the float range (a bool, a string,
    an infinity or a NaN is not)."""
    return isinstance(v, kind) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


# kind: (what a value must be, its test), or None where the value's reader
# checks it: driver.check_run for run's arguments ("run"), the oracle
# constructors for an instance's data ("data")
KINDS = {
    "run": None,
    "data": None,
    "integer": ("an integer", lambda v: number(v, numbers.Integral)),
    "instance": ('a builtin name or {"file": path}',
                 lambda v: isinstance(v, (str, dict))),
    "string": ("a string", lambda v: isinstance(v, str)),
    "path": ("a file path", lambda v: isinstance(v, str) and v != "" and "\0" not in v),
}
# The keys of each kind of JSON object: key -> (kind, required, readers).  A
# kind is a name in KINDS, the table of a nested object, or a tuple of the
# values a table's first key may take (the first is its default), which
# picks who reads the object: readers are those of its values that read a
# key (None: all), and a key is required only where it is read.
MODES = ("exact", "inexact", "superfast")
CONFIG = {  # a run of biopt run
    "mode": (MODES, False, None),
    "instance": ("instance", False, None),
    "p": ("run", False, None),
    "beta": ("run", False, ("inexact", "superfast")),
    "H": ("run", False, ("exact", "inexact")),
    "M_next": ("run", False, ("superfast",)),
    "budget": ("run", False, None),
    "epsilon": ("run", False, None),
    "R": ("run", False, None),
    "x0": ("run", False, None),
    "seed": ("integer", False, None),  # read by a quad or logbar builtin
    "trace": ("path", False, None),
    "summary": ("path", False, None),
}
SEPARABLE = ("log_barrier", "power4", "softplus")
INSTANCE = {  # an instance file
    "family": (("quadratic", *SEPARABLE), True, None),
    "name": ("string", False, None),
    "Q": ("data", True, ("quadratic",)),
    "c": ("data", True, ("quadratic",)),
    "A": ("data", True, SEPARABLE),
    "b": ("data", True, SEPARABLE),
    "slack_min": ("data", False, ("log_barrier",)),
    "psi": ({
        "kind": (("zero", "none", "l1", "box"), False, None),
        "weight": ("data", False, ("l1",)),
        "lo": ("data", True, ("box",)),
        "hi": ("data", True, ("box",)),
    }, False, None),
}
INSTANCE_FILE = {"file": ("path", True, None)}  # a config's {"file": path}


def check_keys(obj, table: dict, where: str, prefix: str = "") -> None:
    """ValueError unless obj is an object of table's keys, each of its kind,
    with every key its reader requires and none it does not read.  Messages
    name obj as where, a nested object by its key and any other key as
    prefix + key; a value that should be a string shows its type, any
    other value its repr."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must hold a JSON object, got {type(obj).__name__}")
    for key, v in obj.items():
        if key not in table:
            raise ValueError(f"{where} has unknown key {key!r}")
        kind = table[key][0]
        if isinstance(kind, dict):
            if not isinstance(v, dict):
                raise ValueError(f"{key} must be a JSON object, got {reprlib.repr(v)}")
            check_keys(v, kind, key, key + " ")
        elif isinstance(kind, tuple) and v not in kind:
            raise ValueError(f"{prefix}{key} must be one of {', '.join(kind)}, "
                             f"got {reprlib.repr(v)}")
        elif isinstance(kind, str) and KINDS[kind] and not KINDS[kind][1](v):
            shown = type(v).__name__ if kind == "string" else reprlib.repr(v)
            raise ValueError(f"{prefix}{key} must be {KINDS[kind][0]}, got {shown}")
    reader, (kind, _, _) = next(iter(table.items()))
    value = obj.get(reader, kind[0]) if isinstance(kind, tuple) else None
    for key, (_, required, readers) in table.items():
        read = readers is None or value in readers
        if key in obj and not read:
            raise ValueError(f"{where} with {reader} {value!r} takes no {key}")
        if required and read and key not in obj:
            raise ValueError(f"{where} lacks {key}")
