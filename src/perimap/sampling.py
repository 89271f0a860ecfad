"""Deterministic stratified sampling used by the sup-norm and Lipschitz
estimates, and the check that a count of samples or lanes is at least 1."""
import numpy as np


def require_count(name, n):
    """Raise `ValueError` naming ``name`` unless the count ``n`` is >= 1."""
    if not n >= 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


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
