"""Isometric embeddings into hilbertian extensions, and what they preserve.

The central construction embeds a space E0 isometrically into E0 + H (a
hilbertian direct sum with H Euclidean) and iterates the compression P T,
where P is the split projection onto E0.  For honest inclusions the iteration
is stationary; the counterexample embedding built here instead rotates a
one-dimensional hilbertian summand of E0 into H, so the iteration loses that
coordinate in one step while the telescoping identity

    ||x||^2 = ||(PT)^n x||^2 + sum_{k<n} ||Q T (PT)^k x||^2

keeps exact books on where the mass went.  A two-projection search decides
whether a space has any one-dimensional hilbertian summand at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import descend, gaussian_batch, rng_stream, stop_counts, stream_normals, structured_vectors
from .spaces import Euclid, TwoSum, as_real_vector

__all__ = [
    "LinearMap",
    "IsometryCheck",
    "is_isometric_embedding",
    "TwoProjectionCandidate",
    "SummandSearchResult",
    "find_one_dim_two_summand",
    "two_summand_grid_floor",
    "build_counterexample_embedding",
    "build_inclusion_embedding",
    "IterationTrace",
    "pt_iterate",
    "LimitIsometryReport",
    "limit_isometry_check",
    "AmbiguousRankError",
    "range_intersection_dim",
]

# each check's fixed tolerance or size, named once
_ISOMETRY_TOL = 1e-10       # relative deviation that still counts as isometric
_ISOMETRY_SUITE = 512       # samples an isometry check measures the deviation on
_SUMMAND_SUITE = 64         # samples a summand search scores its candidates on
_FOUND_RESIDUAL = 1e-8      # a summand search's residual that counts as found
_LIMIT_TOL = 1e-8           # slack of lim ||(PT)^n x|| = ||x|| and of the projected isometry
_CAUCHY_TOL = 1e-9          # spread of a Cauchy trace's norms five steps apart
_RANK_TOL = 1e-8            # a principal-angle cosine above 1 - this counts toward the rank


@dataclass(frozen=True)
class LinearMap:
    """A real matrix together with its domain and codomain descriptors."""

    matrix: np.ndarray
    domain: object
    codomain: object

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match codomain x domain "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ as_real_vector(x, self.domain.dim)


def _domain_suite(space, samples: int, seed: int) -> np.ndarray:
    rand = gaussian_batch(space, samples, rng_stream(seed, 999983))
    return np.vstack([np.stack(structured_vectors(space)), rand])


def _nonzero_suite(space, samples: int, seed: int) -> tuple:
    """The nonzero rows of the domain suite, and their squared norms."""
    suite = _domain_suite(space, samples, seed)
    n2 = space.norm_batch(suite) ** 2
    keep = n2 > 0.0
    return suite[keep], n2[keep]


@dataclass(frozen=True)
class IsometryCheck:
    isometric: bool
    max_deviation: float
    tolerance: float


def is_isometric_embedding(t: LinearMap, seed: int = 0) -> IsometryCheck:
    """Max relative deviation | ||Tx|| - ||x|| | / ||x|| on _ISOMETRY_SUITE samples, isometric within _ISOMETRY_TOL."""
    suite = _domain_suite(t.domain, _ISOMETRY_SUITE, seed)
    nx = t.domain.norm_batch(suite)
    keep = nx > 0.0
    images = suite[keep] @ t.matrix.T
    dev = np.abs(t.codomain.norm_batch(images) - nx[keep]) / nx[keep]
    worst = float(dev.max()) if dev.size else 0.0
    return IsometryCheck(worst <= _ISOMETRY_TOL, worst, _ISOMETRY_TOL)


# ---------------------------------------------------------------------------
# one-dimensional hilbertian summands via two-projection candidates


@dataclass(frozen=True)
class TwoProjectionCandidate:
    """Direction xi with a functional phi, phi(xi) = 1; P x = phi(x) xi."""

    xi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", as_real_vector(self.xi))
        object.__setattr__(self, "phi", as_real_vector(self.phi))


#: Residual rows per norm call of the summand search at most, unless one
#: candidate has more.  Whole residual stacks run to hundreds of thousands of
#: rows, and their freshly mapped temporaries cost more in page faults than
#: the norms cost in arithmetic; blocks this size stay in the cache.  Only
#: spaces of d >= 3 norm residuals: in the plane the search and the angle
#: grid score the quadratic form of _plane_forms instead.
_BLOCK_ROWS = 8192


def _plane_monomials(suite: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """The rows (u_0^2, 2 u_0 u_1, u_1^2) of u = x / ||x|| for each suite row x of the plane."""
    x0, x1 = suite[:, 0], suite[:, 1]
    mono = np.stack([np.square(x0), 2.0 * x0 * x1, np.square(x1)], axis=1)
    return np.divide(mono, n2[:, None], out=mono)


def _plane_forms(mono: np.ndarray, xi: np.ndarray, phi: np.ndarray, perp2: np.ndarray) -> np.ndarray:
    """Q(u) = u^T M u for each monomial row u and each of k candidates, shape (n_s, k).

    With phi(xi) = 1, the residual x - phi(x) xi lies on the kernel of phi,
    the line of phi_perp = (-phi_1, phi_0), and xi x phi_perp = phi(xi) = 1
    makes it (xi_0 x_1 - xi_1 x_0) phi_perp, so in every norm
    ||x - phi(x) xi||^2 = ||phi_perp||^2 (xi_perp . x)^2, xi_perp = (-xi_1, xi_0).
    The defect | ||x||^2 - phi(x)^2 - ||x - phi(x) xi||^2 | / ||x||^2 is then
    |1 - Q(x / ||x||)| with M = phi phi^T + ||phi_perp||^2 xi_perp xi_perp^T.
    xi and phi are (k, 2) rows (or one xi of shape (2,) for all k) and perp2
    holds ||phi_perp||^2.  The columns (M_00, M_01, M_11) go into one product
    with the monomial rows; a lone column goes in twice, since a one-column
    product takes a matrix-vector BLAS path with other bits, so a candidate's
    Q has the same bits at any stack height.
    """
    x0, x1 = xi[..., 0], xi[..., 1]
    p0, p1 = phi[:, 0], phi[:, 1]
    cols = np.stack([np.square(p0) + perp2 * np.square(x1),
                     p0 * p1 - perp2 * (x0 * x1),
                     np.square(p1) + perp2 * np.square(x0)])       # (3, k)
    k = cols.shape[1]
    return (mono @ np.repeat(cols, 1 + (k == 1), axis=1))[:, :k]


def _worst_defects(space, suite: np.ndarray, n2: np.ndarray, f: np.ndarray,
                   xi_cols: np.ndarray) -> np.ndarray:
    """Worst relative defect |n2 - f^2 - ||x - f xi||^2| / n2 over the suite, per column of f.

    Column j of f holds phi_j(x) for each suite row x, and column j of the
    (d, k) xi_cols its direction xi_j.  The
    residuals are normed in blocks of whole columns of at most _BLOCK_ROWS
    rows; a row's norm depends on that row alone, so no bit depends on the
    block size.  The search calls it for d >= 3 only; in the plane
    _plane_forms gives the same defects without a residual.
    """
    n_s, k = f.shape
    d = suite.shape[1]
    # C-ordered, so each block's product reads its directions in order
    xi_cols = np.ascontiguousarray(xi_cols)
    step = max(1, _BLOCK_ROWS // n_s)
    out = np.empty(k)
    for lo in range(0, k, step):
        cols = slice(lo, lo + step)
        fb = f[:, cols]
        # r is C-ordered (d, n_s, cols), so the norm kernel reads its transpose contiguously
        r = np.multiply(fb[None], xi_cols[:, None, cols], order="C")
        np.subtract(suite.T[:, :, None], r, out=r)
        rn = space.norm_batch(r.reshape(d, -1).T).reshape(fb.shape)
        defect = np.square(fb)
        np.add(defect, np.square(rn, out=rn), out=defect)
        np.subtract(n2[:, None], defect, out=defect)
        np.abs(defect, out=defect)
        out[cols] = np.divide(defect, n2[:, None], out=defect).max(axis=0)
    return out


def _candidate_violations(space, xi_raw: np.ndarray, phi_raw: np.ndarray,
                          suite: np.ndarray, suite_norm2: np.ndarray) -> np.ndarray:
    """Batched objective over rows of (xi_raw, phi_raw) parameter stacks.

    Invalid rows (vanishing xi norm or phi(xi) too close to 0) score 1e6.
    In the plane a candidate's worst defect is max(1 - min Q, max Q - 1) of
    its quadratic form (_plane_forms), for one more norm_batch call, on the
    phi_perp rows; for d >= 3 _worst_defects norms its residuals.
    """
    k = xi_raw.shape[0]
    out = np.full(k, 1e6)
    nxi = space.norm_batch(xi_raw)
    ok = nxi > 1e-12
    if not np.any(ok):
        return out
    xi = xi_raw[ok] / nxi[ok, None]
    pv = np.einsum("kd,kd->k", phi_raw[ok], xi)
    ok2 = np.abs(pv) > 1e-9
    if not np.any(ok2):
        return out
    phi = phi_raw[ok][ok2] / pv[ok2, None]
    rows = np.nonzero(ok)[0][ok2]
    if space.dim == 2:
        perp2 = np.square(space.norm_batch(np.stack([-phi[:, 1], phi[:, 0]], axis=1)))
        q = _plane_forms(_plane_monomials(suite, suite_norm2), xi[ok2], phi, perp2)
        out[rows] = np.maximum(1.0 - q.min(axis=0), q.max(axis=0) - 1.0)
        return out
    # one product for every candidate, never one per block, and never of one
    # column: that takes a matrix-vector BLAS path, with other bits, so a lone
    # candidate's phi goes in twice.  A candidate's f then has the same bits
    # at any stack height.
    lone = len(phi) == 1
    f = (suite @ np.repeat(phi, 1 + lone, axis=0).T)[:, :len(phi)]     # (n_s, k')
    out[rows] = _worst_defects(space, suite, suite_norm2, f, xi[ok2].T)
    return out


@dataclass(frozen=True)
class SummandSearchResult:
    found: bool
    candidate: TwoProjectionCandidate | None
    residual: float
    starts: int
    stops: dict     # starts per way their descent ended, keyed by sampling.STOPS


def find_one_dim_two_summand(space, budget: int = 16, seed: int = 0) -> SummandSearchResult:
    """Search for a one-dimensional hilbertian summand by descent on (xi, phi).

    Multi-start finite-difference minimization of the two-projection defect
    over _SUMMAND_SUITE fixed samples; success means a residual of _FOUND_RESIDUAL.
    Structured starts pair each basis direction with its own coordinate
    functional, the remaining starts are Gaussian with per-start streams.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    d = space.dim
    suite, n2 = _nonzero_suite(space, _SUMMAND_SUITE, seed)

    def objective(stack: np.ndarray) -> np.ndarray:
        return _candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)

    structured = np.tile(np.eye(d)[:min(8, budget)], 2)
    starts = np.concatenate([structured, stream_normals(seed, budget - len(structured), 2 * d)])

    # the first start (in index order) at or below the cut ends the search
    run = descend(objective, starts, first_step=0.5, max_steps=150, tol=1e-15, cut=_FOUND_RESIDUAL * 1e-2)
    best_val, best_theta = math.inf, None
    for val, theta in zip(run.values.tolist(), run.thetas):
        if val < best_val:
            best_val, best_theta = val, theta

    found = best_val <= _FOUND_RESIDUAL
    candidate = None
    if found:
        xi_raw, phi_raw = best_theta[:d], best_theta[d:]
        xi = xi_raw / space.norm(xi_raw)
        phi = phi_raw / float(phi_raw @ xi)
        candidate = TwoProjectionCandidate(xi, phi)
    return SummandSearchResult(found, candidate, float(best_val), len(starts), stop_counts(run.stops))


def two_summand_grid_floor(space, n_xi: int = 720, n_phi: int = 720,
                           samples: int = 128, seed: int = 0) -> float:
    """Exhaustive angle-grid floor of the two-projection defect, d = 2 only.

    Scans xi and phi directions over half-turns (signs cancel after the
    phi(xi) = 1 rescaling) and returns the smallest worst-case defect.  A
    floor bounded away from zero certifies that no one-dimensional
    hilbertian summand exists anywhere near the grid.

    With phi = <b, .> / <b, xi> the quadratic form of _plane_forms is that
    of the unit b, with ||b_perp||^2 for ||phi_perp||^2, over <b, xi>^2, so
    the worst defect of a cell is max(1 - min Q / <b, xi>^2,
    max Q / <b, xi>^2 - 1) with Q the form of (xi, b).  The b_perp
    directions are normed once, and no residual is built.
    """
    if space.dim != 2:
        raise ValueError("the angle grid applies to two-dimensional spaces only")
    if n_xi < 1 or n_phi < 1:
        raise ValueError(f"the angle grid needs at least one step per angle, got {n_xi} x {n_phi}")
    suite, n2 = _nonzero_suite(space, samples, seed)
    mono = _plane_monomials(suite, n2)

    b = np.arange(n_phi) * math.pi / n_phi
    dirs_b = np.stack([np.cos(b), np.sin(b)], axis=1)
    perp2 = np.square(space.norm_batch(np.stack([-dirs_b[:, 1], dirs_b[:, 0]], axis=1)))
    xi_dirs = np.array([[math.cos(a), math.sin(a)] for a in np.arange(n_xi) * math.pi / n_xi])
    floor = math.inf
    # one (n_s, n_phi) form per xi: no array grows with n_xi
    for xi in xi_dirs / space.norm_batch(xi_dirs)[:, None]:
        pv = dirs_b @ xi
        valid = np.abs(pv) > 1e-9
        if not np.any(valid):
            continue
        q = _plane_forms(mono, xi, dirs_b, perp2)
        pv2 = np.square(pv[valid])
        lo = q.min(axis=0)[valid] / pv2
        hi = q.max(axis=0)[valid] / pv2
        floor = min(floor, float(np.maximum(1.0 - lo, hi - 1.0).min()))
    return floor


# ---------------------------------------------------------------------------
# embeddings and the compression iteration


def _two_part_space(space):
    """The first part E of a two-part sum E + F, which fixes the split."""
    if not (isinstance(space, TwoSum) and len(space.parts) == 2):
        raise ValueError(f"expected a two-part TwoSum with a distinguished split, got {space!r}")
    return space.parts[0]


def build_inclusion_embedding(e0, h_dim: int = 4) -> LinearMap:
    """The honest inclusion of E0 into E0 + H (zero H-component)."""
    codomain = TwoSum((e0, Euclid(h_dim)))
    m = np.zeros((codomain.dim, e0.dim))
    m[:e0.dim, :e0.dim] = np.eye(e0.dim)
    return LinearMap(m, e0, codomain)


def build_counterexample_embedding(e1, h_dim: int = 4) -> LinearMap:
    """Isometry of E0 = E1 + R into E0 + H that moves the line into H.

    Acts as the identity on E1 and sends the distinguished unit vector of
    the scalar summand to the first basis vector of H.  Both coordinates are
    hilbertian, so norms are preserved exactly, yet the range meets H in a
    one-dimensional subspace and the compression P T kills the line.
    """
    e0 = TwoSum((e1, Euclid(1)))
    codomain = TwoSum((e0, Euclid(h_dim)))
    d0 = e0.dim
    m = np.zeros((codomain.dim, d0))
    m[:e1.dim, :e1.dim] = np.eye(e1.dim)
    m[d0, d0 - 1] = 1.0
    return LinearMap(m, e0, codomain)


@dataclass(frozen=True)
class IterationTrace:
    """Norms ||(PT)^n x||, residuals ||QT(PT)^n x||^2 and telescoping defects.

    defects[n-1] is the relative error of the telescoping identity after n
    steps (relative to ||x||^2).
    """

    norms: np.ndarray
    residuals: np.ndarray
    defects: np.ndarray

    @property
    def cauchy(self) -> bool:
        """Whether the last norms five steps apart lie within _CAUCHY_TOL; never under five steps."""
        return len(self.norms) > 5 and bool(abs(self.norms[-1] - self.norms[-6]) <= _CAUCHY_TOL)


def pt_iterate(t: LinearMap, x, n_max: int = 50) -> IterationTrace:
    """Iterate the compression P T from x, with exact mass bookkeeping."""
    if _two_part_space(t.codomain).dim != t.domain.dim:
        raise ValueError("the split E0-part must match the domain")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    y = as_real_vector(x, t.domain.dim)
    k0 = t.domain.dim
    nx = t.domain.norm(y)
    base = nx * nx
    denom = base if base > 0.0 else 1.0
    norms = [nx]
    residuals: list = []
    defects: list = []
    for _ in range(n_max):
        z = t.matrix @ y
        zh = z[k0:]
        residuals.append(float(zh @ zh))
        y = z[:k0]
        norms.append(t.domain.norm(y))
        defects.append(abs(base - (norms[-1] ** 2 + math.fsum(residuals))) / denom)
    return IterationTrace(np.array(norms), np.array(residuals), np.array(defects))


@dataclass(frozen=True)
class LimitSample:
    norm_x: float
    limit: float
    cauchy_ok: bool
    passed: bool


@dataclass(frozen=True)
class LimitIsometryReport:
    entries: tuple
    all_passed: bool
    non_cauchy: tuple
    summand_found: bool | None
    projection_isometric: bool | None


def limit_isometry_check(t: LinearMap, xs, n_max: int = 60, seed: int = 0) -> LimitIsometryReport:
    """Does lim ||(PT)^n x|| recover ||x|| within _LIMIT_TOL on the given samples?

    Each trace must be Cauchy at n_max (the last two recorded norms five
    steps apart within _CAUCHY_TOL); traces that are not are reported, never
    silently truncated.  When every sample passes and an 8-start search
    finds no one-dimensional hilbertian summand of the domain, the
    projected map must already be isometric, which is then verified
    directly.
    """
    if n_max < 6:
        raise ValueError("n_max must be at least 6 for the Cauchy check")
    entries = []
    non_cauchy = []
    for i, x in enumerate(xs):
        trace = pt_iterate(t, x, n_max)
        limit = float(trace.norms[-1])
        if not trace.cauchy:
            non_cauchy.append(i)
        nx = float(trace.norms[0])
        passed = trace.cauchy and abs(limit - nx) <= _LIMIT_TOL
        entries.append(LimitSample(nx, limit, trace.cauchy, passed))
    all_passed = all(e.passed for e in entries)
    summand_found = None
    projection_isometric = None
    if all_passed and entries:
        search = find_one_dim_two_summand(t.domain, budget=8, seed=seed)
        summand_found = search.found
        if not search.found:
            k0 = t.domain.dim
            worst = 0.0
            for x in xs:
                z = t.apply(x)
                worst = max(worst, abs(t.domain.norm(z[:k0]) - t.codomain.norm(z)))
            projection_isometric = worst <= _LIMIT_TOL
    return LimitIsometryReport(
        tuple(entries), all_passed, tuple(non_cauchy), summand_found,
        projection_isometric,
    )


class AmbiguousRankError(ValueError):
    """Raised when singular values sit too close to the rank threshold."""

    def __init__(self, sigmas):
        super().__init__(f"rank decision ambiguous near the tolerance: sigmas = {sigmas}")
        self.sigmas = sigmas


def range_intersection_dim(t: LinearMap) -> int:
    """Dimension of range(T) meet H by principal angles.

    Orthonormalizes the range, takes singular values of its overlap with the
    H coordinate block, and counts cosines above 1 - ``_RANK_TOL``.  Values crowding
    the threshold from below raise :class:`AmbiguousRankError` instead of
    silently rounding.
    """
    k0 = _two_part_space(t.codomain).dim
    u, s, _ = np.linalg.svd(t.matrix, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(t.matrix.shape) * np.finfo(float).eps))
    basis = u[:, :rank]
    overlap = basis[k0:, :].T
    if overlap.size == 0:
        return 0
    sigmas = np.linalg.svd(overlap, compute_uv=False)
    sigmas = np.clip(sigmas, 0.0, 1.0)
    near = (sigmas > 1.0 - 50.0 * _RANK_TOL) & (sigmas <= 1.0 - _RANK_TOL)
    if np.any(near):
        raise AmbiguousRankError(sigmas[near])
    return int(np.sum(sigmas > 1.0 - _RANK_TOL))
