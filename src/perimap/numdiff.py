"""Finite-difference helpers shared by the assumption checks and the embedding."""
import numpy as np

EPS = float(np.finfo(float).eps)

# truncation/rounding balance: cbrt(eps) for first, eps^(1/4) for second differences
STEP_FIRST = EPS ** (1.0 / 3.0)
STEP_SECOND = EPS ** 0.25


def first_step(x):
    return STEP_FIRST * np.maximum(1.0, np.abs(x))


def second_step(x):
    return STEP_SECOND * np.maximum(1.0, np.abs(x))


def central_jacobian(fun, x0):
    """Jacobian of ``fun`` at ``x0`` from a single batched central-difference stencil.

    ``fun`` maps an (n, d) batch of row vectors to (n, m), and the step of
    coordinate i is ``first_step(x0[i])``.  The whole +/- h stencil goes
    through one call so that, for evaluators backed by adaptive integrators,
    the step-size sequence is shared and evaluation errors cancel in the
    differences.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    d = x0.size
    h = first_step(x0)
    stencil = np.concatenate([x0 + np.diag(h), x0 - np.diag(h)], axis=0)
    vals = np.asarray(fun(stencil), dtype=float)
    plus, minus = vals[:d], vals[d:]
    return (plus - minus).T / (2.0 * h)
