"""Seeded sample generation and the start-wise descent shared by the searches.

All randomness flows through :func:`rng_stream`, which derives an independent
generator from a base seed plus an integer path.  Batches and multi-start
searches key their streams by index, so results never depend on scheduling
order.  :func:`descend` is the finite-difference line search that both
multi-start searches run from each start.
"""
from __future__ import annotations

import numpy as np

from .spaces import Schatten

__all__ = [
    "rng_stream",
    "gaussian_batch",
    "structured_vectors",
    "structured_pairs",
    "descend",
]


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, path...)."""
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


def gaussian_batch(space, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` standard Gaussian elements of the space.

    Real spaces get (count, dim) float rows; Schatten spaces get
    (count, d, d) complex matrices with independent real and imaginary parts
    scaled to unit total variance per entry.
    """
    if isinstance(space, Schatten):
        d = space.d
        re = rng.standard_normal((count, d, d))
        im = rng.standard_normal((count, d, d))
        return (re + 1j * im) / np.sqrt(2.0)
    return rng.standard_normal((count, space.dim))


def _real_structured(dim: int, cap: int = 8) -> list:
    out = []
    for i in range(min(dim, cap)):
        e = np.zeros(dim)
        e[i] = 1.0
        out.append(e)
    out.append(np.ones(dim))
    alt = np.ones(dim)
    alt[1::2] = -1.0
    out.append(alt)
    return out


def _matrix_structured(d: int) -> list:
    out = []
    for i in range(min(d, 3)):
        for j in range(min(d, 3)):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    out.append(np.eye(d, dtype=complex))
    out.append(np.ones((d, d), dtype=complex))
    checker = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (d, d))
    out.append(checker.astype(complex))
    return out


def structured_vectors(space) -> list:
    """Deterministic corner cases: basis directions, ones, alternating signs.

    For Schatten spaces these become matrix units, the identity, the all-ones
    matrix and a checkerboard.
    """
    if isinstance(space, Schatten):
        return _matrix_structured(space.d)
    return _real_structured(space.dim)


def structured_pairs(space) -> list:
    """Deterministic seed pairs covering equality and extremal cases.

    Includes basis pairs (e_i, e_j) with i = j allowed, collinear pairs, the
    (ones, alternating) pair that is extremal for l_p parallelogram defects,
    and a (x, 0) pair.
    """
    vecs = structured_vectors(space)
    basis = vecs[:-2]
    ones, alt = vecs[-2], vecs[-1]
    pairs = []
    cap = min(len(basis), 4)
    for i in range(cap):
        for j in range(cap):
            pairs.append((basis[i], basis[j]))
    pairs.append((ones, alt))
    pairs.append((alt, ones))
    pairs.append((ones, ones))
    if basis:
        pairs.append((basis[0], 0.5 * basis[0]))
        pairs.append((basis[0], np.zeros_like(basis[0])))
    return pairs


FD_STEP = 1e-6
_HALVINGS = 0.5 ** np.arange(24)


def descend(objective, theta, first_step: float, max_steps: int, tol: float, project=None):
    """Finite-difference steepest descent from one start; returns (value, theta, evals).

    `objective` maps a (k, n) stack of rows to k values.  Each step probes the
    2n central differences, then takes the best of 24 halving steps from
    `first_step` along the normalized negative gradient, until the gradient
    vanishes or no step gains more than `tol`.  `project` maps the start and
    every accepted point back onto the constraint set.
    """
    project = project or (lambda th: th)
    theta = project(np.asarray(theta, dtype=float))
    value = float(objective(theta[None, :])[0])
    evals = 1
    n = theta.shape[0]
    h = FD_STEP * np.eye(n)
    steps = first_step * _HALVINGS
    for _ in range(max_steps):
        vals = objective(np.vstack([theta + h, theta - h]))
        evals += 2 * n
        grad = (vals[:n] - vals[n:]) / (2.0 * FD_STEP)
        gn = float(np.linalg.norm(grad))
        if not 0.0 < gn < np.inf:
            break
        cands = theta[None, :] - steps[:, None] * (grad / gn)[None, :]
        cvals = objective(cands)
        evals += steps.shape[0]
        j = int(np.argmin(cvals))
        if cvals[j] >= value - tol:
            break
        value = float(cvals[j])
        theta = project(cands[j])
    return value, theta, evals
