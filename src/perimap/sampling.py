"""Deterministic stratified sampling used by the sup-norm and Lipschitz
estimates, the check that a count of samples or lanes is at least 1, and the
check that a scale (a period or a radius) is positive and finite."""
import math

import numpy as np


def require_count(name, n):
    """Raise `ValueError` naming ``name`` unless the count ``n`` is >= 1."""
    if not n >= 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def require_positive(name, value):
    """Raise `ValueError` naming ``name`` unless ``value`` is a finite number
    > 0 (None, nan and inf included)."""
    if value is None or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def latin_hypercube(rng, n, d):
    """(n, d) Latin-hypercube sample in [0, 1); deterministic for a given rng state."""
    perm = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return (perm + rng.random((n, d))) / n


def scale_to(u, lo, hi):
    return lo + u * (hi - lo)


def ball_points(u, radius):
    """Map unit-cube rows to the closed ball of ``radius``.

    The cube is rescaled to [-radius, radius]^k and exterior points are pulled
    radially onto the sphere, so both the interior and the boundary get mass.
    """
    y = (2.0 * u - 1.0) * radius
    nrm = np.linalg.norm(y, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(nrm > radius, radius / nrm, 1.0)
    return y * scale


def stratified_groups(rng, n_samples, min_groups, omega, eps, x, y_radius,
                      k1, k2):
    """max(``min_groups``, min(8, n_samples // 4)) groups of about
    n_samples / n_groups rows (omega, eps, x, y), stacked as one (G, m,
    2 + k1 + k2) array: a Latin hypercube over the ``omega`` x ``eps`` box
    gives each group its constant omega and eps columns, then one per group
    draws X in the ``x`` range and Y in the ``y_radius`` ball.  An ``omega``
    range of (0, 1) leaves each omega as its hypercube coordinate u, exactly,
    so `embedding.certificate` draws once and rescales that column per
    ladder rung to the bits of a draw over the rung's range."""
    n_groups = max(min_groups, min(8, n_samples // 4))
    m = max(2, int(np.ceil(n_samples / n_groups)))
    rows = np.empty((n_groups, m, 2 + k1 + k2))
    oe = latin_hypercube(rng, n_groups, 2)
    rows[:, :, 0] = scale_to(oe[:, :1], *omega)
    rows[:, :, 1] = scale_to(oe[:, 1:], *eps)
    for group in rows:
        u = latin_hypercube(rng, m, k1 + k2)
        group[:, 2:2 + k1] = scale_to(u[:, :k1], *x)
        group[:, 2 + k1:] = ball_points(u[:, k1:], y_radius)
    return rows
