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

from .sampling import (argmin_selection, descend, gaussian_batch, rng_stream, stop_counts, stream_normals,
                       structured_vectors)
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


def _residual_norms(space, x: np.ndarray, f: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """||x - f xi|| of one block of residuals, shape f.shape; x and xi carry the coordinates on their first axis."""
    d = xi.shape[0]
    # r is C-ordered (d, ...), so the norm kernel reads its transpose contiguously
    r = np.multiply(f[None], xi, order="C")
    np.subtract(x, r, out=r)
    return space.norm_batch(r.reshape(d, -1).T).reshape(f.shape)


def _defects(space, x: np.ndarray, n2: np.ndarray, f: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Relative defects |n2 - f^2 - ||x - f xi||^2| / n2 of one block of residuals, shape f.shape.

    x and xi carry the coordinates on their first axis; their other axes
    and n2 broadcast to f's shape.  Every step acts element by element, so
    an entry's bits depend on its own row and candidate alone, whatever
    block or subset of rows it is scored in.

    Accuracy: with kappa the norm's ``norm_ulps`` and u = 2^-53, a defect
    is within (16 + 2 kappa) u S^2 / n2 of the exact defect of the same x,
    n2, xi and phi, where S = sqrt(n2) + |f| + ||r|| + d ||x||_2 ||phi||_2.
    The dot product f errs by d u ||x||_2 ||phi||_2; the residual's
    coordinates by u (|x_i| + 2 |f xi_i|), which in the monotone norms of
    Lp, Euclid and their TwoSum is at most u (sqrt(n2) + 2 |f|); the norm
    by kappa u ||r||; and the squares, the sum, the difference and the
    quotient round once each.  To first order in u, and for n2 of normal
    range.
    """
    rn = _residual_norms(space, x, f, xi)
    defect = np.square(f)
    np.add(defect, np.square(rn, out=rn), out=defect)
    np.subtract(n2, defect, out=defect)
    np.abs(defect, out=defect)
    return np.divide(defect, n2, out=defect)


def _pair_defects(space, suite: np.ndarray, n2: np.ndarray, f: np.ndarray, xi: np.ndarray,
                  rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The defects of the (suite row, candidate) pairs that rows and cols index, broadcast together.

    f is the (n_s, k) product of _functional_values and xi the (k, d)
    directions.  Along the first axis each index array has the full length
    or 1, and the pairs are scored in blocks along it of at most
    _BLOCK_ROWS pairs (or one entry); a row's norm depends on that row
    alone, so no bit depends on the block or on the other pairs.
    """
    shape = np.broadcast_shapes(rows.shape, cols.shape)
    out = np.empty(shape)
    step = max(1, _BLOCK_ROWS * shape[0] // max(1, out.size))
    for lo in range(0, shape[0], step):
        r, c = (a if a.shape[0] == 1 else a[lo:lo + step] for a in (rows, cols))
        out[lo:lo + step] = _defects(space, suite.T[:, r], n2[r], f[r, c], xi.T[:, c])
    return out


def _worst_defects(space, suite: np.ndarray, n2: np.ndarray, f: np.ndarray,
                   xi_cols: np.ndarray) -> np.ndarray:
    """Worst relative defect |n2 - f^2 - ||x - f xi||^2| / n2 over the suite, per column of f.

    Column j of f holds phi_j(x) for each suite row x, and column j of the
    (d, k) xi_cols its direction xi_j.  The residuals are normed in blocks
    of whole columns, of at most _BLOCK_ROWS rows, sliced rather than
    gathered as _pair_defects would.  The search calls it for d >= 3 only;
    in the plane _plane_forms gives the same defects without a residual.
    """
    n_s, k = f.shape
    # C-ordered, so each block's product reads its directions in order
    xi_cols = np.ascontiguousarray(xi_cols)
    out = np.empty(k)
    step = max(1, _BLOCK_ROWS // n_s)
    for lo in range(0, k, step):
        cols = slice(lo, lo + step)
        out[cols] = _defects(space, suite.T[:, :, None], n2[:, None], f[:, cols], xi_cols[:, None, cols]).max(axis=0)
    return out


def _valid_candidates(space, xi_raw: np.ndarray, phi_raw: np.ndarray) -> tuple:
    """(rows, xi, phi): the valid rows of a (xi_raw, phi_raw) stack, xi normed and phi(xi) = 1.

    A row is invalid when its xi has norm at most 1e-12 or its phi_raw(xi)
    lies within 1e-9 of 0.
    """
    nxi = space.norm_batch(xi_raw)
    ok = nxi > 1e-12
    xi = xi_raw[ok] / nxi[ok, None]
    pv = np.einsum("kd,kd->k", phi_raw[ok], xi)
    ok2 = np.abs(pv) > 1e-9
    return np.flatnonzero(ok)[ok2], xi[ok2], phi_raw[ok][ok2] / pv[ok2, None]


def _functional_values(suite: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f = suite @ phi.T, (n_s, k): phi_j(x) for each suite row x and candidate j.

    One product for every candidate, never one per block, and never of one
    column: that takes a matrix-vector BLAS path, with other bits, so a
    lone candidate's phi goes in twice.  A candidate's f then has the same
    bits at any stack height.
    """
    lone = len(phi) == 1
    return (suite @ np.repeat(phi, 1 + lone, axis=0).T)[:, :len(phi)]


def _candidate_violations(space, xi_raw: np.ndarray, phi_raw: np.ndarray,
                          suite: np.ndarray, suite_norm2: np.ndarray, mono=None) -> np.ndarray:
    """Batched objective over rows of (xi_raw, phi_raw) parameter stacks.

    Invalid rows (vanishing xi norm or phi(xi) too close to 0) score 1e6.
    In the plane a candidate's worst defect is max(1 - min Q, max Q - 1) of
    its quadratic form (_plane_forms), for one more norm_batch call, on the
    phi_perp rows; `mono` holds the suite's monomial rows there, if the
    caller built them once.  For d >= 3 _worst_defects norms the residuals.
    """
    out = np.full(xi_raw.shape[0], 1e6)
    rows, xi, phi = _valid_candidates(space, xi_raw, phi_raw)
    if not rows.size:
        return out
    if space.dim == 2:
        if mono is None:
            mono = _plane_monomials(suite, suite_norm2)
        perp2 = np.square(space.norm_batch(np.stack([-phi[:, 1], phi[:, 0]], axis=1)))
        q = _plane_forms(mono, xi, phi, perp2)
        out[rows] = np.maximum(1.0 - q.min(axis=0), q.max(axis=0) - 1.0)
        return out
    out[rows] = _worst_defects(space, suite, suite_norm2, _functional_values(suite, phi), xi.T)
    return out


#: Suite rows each halving step of the pruned selection is bounded on: the
#: rows where its start's smallest step is worst.
_BOUND_ROWS = 8


def _defect_ceiling(space, defect: np.ndarray, scale: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """A computed defect bound widened by every rounding behind it: (80 + 8 kappa + 2 d) u scale^2 / n2.

    kappa is the norm's ``norm_ulps`` and u = 2^-53; `scale` bounds the S
    of _defects for the base and for every probe.  In units of u scale^2 /
    n2, the widening covers the rounding bound of _defects twice, on the
    base and on a probe, 32 + 4 kappa; the Lipschitz terms, below scale^2 /
    n2 in size and computed from products with a relative error under
    (d + kappa + 8) u, twice that; their cross terms with the base's errors,
    kappa + 10; and the sums that form the bound, 11.  That is 69 + 7 kappa
    + 2 d to first order in u; the rest of the widening covers the higher
    orders.
    """
    return defect + (80.0 + 8.0 * space.norm_ulps + 2.0 * space.dim) * 2.0 ** -53 * np.square(scale) / n2


def _probe_ceilings(space, suite: np.ndarray, n2: np.ndarray, xn: np.ndarray, base: tuple,
                    probes: tuple) -> np.ndarray:
    """(n_s, m) upper bounds on the defect of every probe of each of m starts, per suite row.

    xn holds the suite rows' Euclidean norms, base the (xi, phi, f) of the
    m base points and probes the (xi, phi) of their k probes each, start by
    start.  On a row x with the base's f = phi(x) and r = x - f xi, a probe
    (xi', phi') has |f' - f| at most df = ||x||_2 max ||phi' - phi||_2, and
    its residual r' - r = f (xi - xi') + (f - f') xi' a norm at most
    dr = df + |f| max ||xi' - xi||, since ||xi'|| = 1.  So its defect is at
    most (|n2 - f^2 - ||r||^2| + df (2|f| + df) + dr (2 ||r|| + dr)) / n2,
    with no constant of the space, widened by _defect_ceiling.
    """
    xi_b, phi_b, f_b = base
    xi, phi = probes
    m, d = xi_b.shape
    n_s = len(suite)
    step = max(1, _BLOCK_ROWS // n_s)
    rn = np.concatenate([_residual_norms(space, suite.T[:, :, None], f_b[:, lo:lo + step],
                                         xi_b.T[:, None, lo:lo + step]) for lo in range(0, m, step)], axis=1)
    dphi = np.sqrt(np.square(phi.reshape(m, -1, d) - phi_b[:, None]).sum(axis=2)).max(axis=1)
    dxi = space.norm_batch((xi.reshape(m, -1, d) - xi_b[:, None]).reshape(-1, d)).reshape(m, -1).max(axis=1)
    xn, n2 = xn[:, None], n2[:, None]
    af = np.abs(f_b)
    df = xn * dphi
    dr = df + af * dxi
    defect = np.abs(n2 - (np.square(f_b) + np.square(rn))) + df * (2.0 * af + df) + dr * (2.0 * rn + dr)
    phin = np.sqrt(np.square(phi_b).sum(axis=1))
    scale = np.sqrt(n2) + af + rn + d * xn * (phin + dphi) + df + dr
    return _defect_ceiling(space, defect / n2, scale, n2)


def _pruned_selection(space, suite: np.ndarray, n2: np.ndarray, objective):
    """The exact-maximum helper of the d >= 3 summand search: a halving selection and its `probe`.

    A candidate's value is its worst defect over the suite rows, and a
    row's defect has the same bits in any block, so the worst over any
    subset of rows is an exact lower bound on the value, and a row whose
    upper bound lies below a lower bound cannot hold the maximum.

    The returned selection, for sampling.descend's `select`, prunes the
    halving steps by lower bounds.  Each start's smallest step is scored
    in full; the other steps are bounded on the _BOUND_ROWS rows where it
    is worst.  The step of least bound is scored in full, then every step
    whose bound is at or below the least full value so far.  A step left
    out has a value strictly above that least value, so the least value
    and the first index that reaches it are those of
    sampling.argmin_selection, the default.

    Its attribute `probe`, for descend's `probe`, screens the rows of the
    central differences by upper bounds.  The base's residuals are normed
    once per start, which bounds every (row, start) pair over all of the
    start's probes (_probe_ceilings).  Each probe is scored on its start's
    row of highest bound; then every probe of the start on each other row
    whose bound reaches the least of those values.  Every row left out
    lies below its probe's value, so the maximum over the scored rows is
    the objective's, bit for bit.

    Stacks of one block of residuals at most take the plain call, since
    one norm call costs less than the extra calls save, as do stacks with
    an invalid candidate (they score 1e6), stacks with a non-finite f or
    xi, where a NaN could sit in a row no bound looked at, and probe
    stacks with a bound that is not finite.
    """
    full = argmin_selection(objective)
    d, n_s = space.dim, len(suite)
    xn = np.sqrt(np.square(suite).sum(axis=1))

    def prepared(flat: np.ndarray):
        # (xi, phi, f) of a stack, or None if a candidate is invalid or f or xi not finite
        rows, xi, phi = _valid_candidates(space, flat[:, :d], flat[:, d:])
        if rows.size < len(flat):
            return None
        f = _functional_values(suite, phi)
        # no coordinate of a normed xi exceeds 1, so with f and xi finite every
        # residual is finite, and no row's norm or defect is NaN
        if not (np.isfinite(f).all() and np.isfinite(xi).all()):
            return None
        return xi, phi, f

    def select(cands: np.ndarray) -> tuple:
        m, h, n = cands.shape
        got = prepared(cands.reshape(-1, n)) if m * h * n_s > _BLOCK_ROWS else None
        if got is None:
            return full(cands)
        xi, _, f = got
        smallest = np.arange(m) * h + h - 1
        others = (np.arange(m) * h)[:, None] + np.arange(h - 1)
        vals = np.full((m, h), np.inf)
        defect = _pair_defects(space, suite, n2, f, xi, np.arange(n_s)[None], smallest[:, None])
        vals[:, h - 1] = defect.max(axis=1)
        worst = np.argpartition(defect, -_BOUND_ROWS, axis=1)[:, -_BOUND_ROWS:]
        bound = _pair_defects(space, suite, n2, f, xi, worst[:, :, None], others[:, None]).max(axis=1)

        def score(starts, steps):
            ids = others[starts, steps]
            vals[starts, steps] = _worst_defects(space, suite, n2, f[:, ids], xi[ids].T)

        least = bound.argmin(axis=1)
        first = np.flatnonzero(bound[np.arange(m), least] <= vals[:, h - 1])
        score(first, least[first])
        pending = bound <= vals.min(axis=1)[:, None]
        pending[first, least[first]] = False
        score(*np.nonzero(pending))
        j = np.argmin(vals, axis=1)
        return j, vals[np.arange(m), j]

    def probe(bases: np.ndarray, cands: np.ndarray) -> np.ndarray:
        m, k, n = cands.shape
        flat = cands.reshape(-1, n)
        got = prepared(flat) if m * k * n_s > _BLOCK_ROWS else None
        base = prepared(bases) if got is not None else None
        ceiling = _probe_ceilings(space, suite, n2, xn, base, got[:2]) if base is not None else None
        if ceiling is None or not np.isfinite(ceiling).all():
            return objective(flat).reshape(m, k)
        xi, _, f = got
        ids = np.arange(m * k).reshape(m, k)
        top = ceiling.argmax(axis=0)
        vals = _pair_defects(space, suite, n2, f, xi, top[:, None], ids)
        # every probe of a start on each other row whose bound reaches its least probe value
        near = ceiling >= vals.min(axis=1)
        near[top, np.arange(m)] = False
        rows, starts = np.nonzero(near)
        np.maximum.at(vals, starts, _pair_defects(space, suite, n2, f, xi, rows[:, None], ids[starts]))
        return vals

    select.probe = probe
    return select


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
    mono = _plane_monomials(suite, n2) if d == 2 else None

    def objective(stack: np.ndarray) -> np.ndarray:
        return _candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2, mono)

    structured = np.tile(np.eye(d)[:min(8, budget)], 2)
    starts = np.concatenate([structured, stream_normals(seed, budget - len(structured), 2 * d)])

    # the first start (in index order) at or below the cut ends the search
    select = _pruned_selection(space, suite, n2, objective) if d >= 3 else None
    run = descend(objective, starts, first_step=0.5, max_steps=150, tol=1e-15, cut=_FOUND_RESIDUAL * 1e-2,
                  select=select, probe=getattr(select, "probe", None))
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
