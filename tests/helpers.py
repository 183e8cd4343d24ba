"""Helpers shared by the test modules."""

import numpy as np

from biopt.numerics import monotone_root


def fd_grad(fun, x, eps=1e-6):
    """Central-difference gradient of the scalar function fun at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g


def recording_root(searches):
    """A monotone_root that appends to searches the list of the points each
    of its searches evaluates, in order."""
    def root(phi, lo, hi):
        points = []
        searches.append(points)

        def recorded(x):
            points.append(x)
            return phi(x)
        return monotone_root(recorded, lo, hi)
    return root
