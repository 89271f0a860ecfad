"""Finite-difference steps, the package's one central-difference stencil
(its rows, and the step from their values to f(x0) and J) and the row
blocks of the sampled stencils."""
import numpy as np

EPS = float(np.finfo(float).eps)

# truncation/rounding balance: cbrt(eps) for first, eps^(1/4) for second differences
STEP_FIRST = EPS ** (1.0 / 3.0)
STEP_SECOND = EPS ** 0.25


def first_step(x):
    return STEP_FIRST * np.maximum(1.0, np.abs(x))


def second_step(x):
    return STEP_SECOND * np.maximum(1.0, np.abs(x))


def coordinate_probes(Z, probes):
    """Row blocks of a stencil on the rows ``Z``: Z itself, then for every
    coordinate j (the last axis) and each array P of ``probes``, shaped
    like Z, a copy of Z whose coordinate j is P's."""
    blocks = [Z]
    for j in range(Z.shape[-1]):
        for P in probes:
            moved = Z.copy()
            moved[..., j] = P[..., j]
            blocks.append(moved)
    return blocks


def central_rows(x0):
    """The rows of the central-difference stencil at ``x0`` (d,): x0, then
    x0 + h_i e_i, x0 - h_i e_i, x0 + (h_i / 2) e_i and x0 - (h_i / 2) e_i
    for every i, with h = ``first_step(x0)``: (1 + 4 d, d)."""
    x0 = np.asarray(x0, dtype=float).ravel()
    h = first_step(x0)
    steps = [sign * np.diag(s) for s in (h, h / 2.0) for sign in (1.0, -1.0)]
    return np.vstack([x0] + [x0 + s for s in steps])


def central_difference(vals, x0):
    """f(x0), the central-difference Jacobian J and its Richardson defect
    from ``vals`` (1 + 4 d, m), the values of f at the `central_rows` of
    ``x0``.

    J comes from the step-h pairs; the defect is max|J - J_half| /
    max(1, max|J|), J_half from the step-h/2 pairs.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    h = first_step(x0)
    vals = np.asarray(vals, float)
    plus, minus, plus_half, minus_half = vals[1:].reshape(4, x0.size, -1)
    J = (plus - minus).T / (2.0 * h)
    J_half = (plus_half - minus_half).T / h
    scale = max(1.0, float(np.max(np.abs(J))))
    return vals[0], J, float(np.max(np.abs(J - J_half))) / scale


def central_jacobian(fun, x0):
    """`central_difference` of one batched call of ``fun`` ((n, d) rows to
    (n, m)) on the `central_rows` of ``x0``: f(x0), J and the defect.

    In one call, evaluators backed by adaptive integrators share one
    step-size sequence, so their evaluation errors cancel in the
    differences.
    """
    return central_difference(fun(central_rows(x0)), x0)
