"""Helpers shared by the test modules."""

import numpy as np


def fd_grad(fun, x, eps=1e-6):
    """Central-difference gradient of the scalar function fun at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g
