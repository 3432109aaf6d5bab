"""Convex modulars and the Luxemburg norm.

Every modular shipped here is a finite sum of terms ``||x_i||_{E_i} ** q_i``
with exponents q_i in [1, inf).  That structure is exploited by the norm
solver: a modular reduces a whole batch of points to flat (norm, exponent)
term arrays in one ``batch_terms`` call, after which the setup and the
Newton iteration run on the contiguous ``(terms, rows)`` transpose of the
padded terms and never touch the vectors again.  Only the Newton start
log(m) / q_max and the equal-exponent closed form are libm's ``log`` and
``pow``, mapped over lists, because numpy's vector log and power round some
values differently and every norm keeps the bits it has when solved alone.

Theta itself has one kernel, :func:`_theta_rows`, behind :func:`modular_eval`
(through ``ScaleProfile``), ``nakano.nakano_modular`` and the tail defect of
``geomconst``: each term is a libm pow, summed left to right.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .spaces import Euclid, Schatten, _sum_columns, as_matrix, as_real_vector, reduce_rows

__all__ = [
    "ConvexModular",
    "PowerModular",
    "square",
    "DirectSumModular",
    "LuxemburgSpace",
    "ScaleProfile",
    "modular_eval",
    "luxemburg_norm",
    "luxemburg_norms",
    "NumericalFailure",
    "modular_sum_norm_with_scalar",
    "scalar_sum_expansion_ratio",
]

class NumericalFailure(ValueError):
    """A modular value or a Luxemburg norm that is not a finite float."""


def _theta_rows(norms: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Theta of each row of a ``(rows, w)`` term-norm array: sum_j norms[i, j] ** exps[j].

    Each term is a libm pow, Python's float ``**``, which ``np.power`` does
    not match in the last bit for every term.  The terms are summed left to
    right, one column at a time at every width, as a plain ``total += nrm **
    p`` loop does; numpy's reduce along a row regroups from 8 terms on.  So a
    row's Theta has the same bits at any batch height, and a zero norm adds
    exactly +0.0.  An overflowing term or a non-finite total raises
    ``NumericalFailure``.
    """
    rows = norms.shape[0]
    total = np.zeros(rows)
    try:
        with np.errstate(over="ignore"):
            for column, p in zip(norms.T.tolist(), exps.tolist()):
                total += np.fromiter(map(pow, column, itertools.repeat(p, rows)), float, rows)
    except OverflowError:
        # a float ** that overflows raises instead of giving inf
        raise NumericalFailure("modular value is not finite") from None
    if not np.isfinite(total).all():
        raise NumericalFailure("modular value is not finite")
    return total


class ScaleProfile:
    """Evaluates t -> Theta(t * x) from precomputed (norm, exponent) terms,
    through :func:`_theta_rows`."""

    __slots__ = ("norms", "exps")

    def __init__(self, norms, exps):
        self.norms = np.asarray(norms, dtype=float)
        self.exps = np.asarray(exps, dtype=float)

    def __call__(self, t: float) -> float:
        return float(_theta_rows((self.norms * t)[None, :], self.exps)[0])


class ConvexModular:
    """Base class: convex, symmetric, faithful, Theta(0) = 0."""

    def batch_terms(self, points) -> tuple:
        """(norms, exponents, counts) with Theta(x) = sum n_i ** q_i: every
        point's terms in turn as two flat float arrays, and each point's
        number of terms."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerModular(ConvexModular):
    """Theta(x) = ||x|| ** q over a fixed normed space."""

    space: object
    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (1.0 <= q < math.inf):
            raise ValueError(f"power exponent must lie in [1, inf), got {q!r}")
        object.__setattr__(self, "q", q)

    def batch_terms(self, points):
        """The points' norms from one ``space.norm_batch`` call on their stack,
        each point validated as ``space.norm`` validates it."""
        space = self.space
        if isinstance(space, Schatten):
            stack = [as_matrix(x, space.d) for x in points]
        else:
            stack = [as_real_vector(x, space.dim) for x in points]
        norms = np.asarray(space.norm_batch(np.stack(stack)), dtype=float) if stack else np.empty(0)
        return norms, np.full(norms.size, self.q), np.ones(norms.size, dtype=np.intp)


def square(space) -> PowerModular:
    """The squared-norm modular over a space."""
    return PowerModular(space, 2.0)


@dataclass(frozen=True)
class DirectSumModular(ConvexModular):
    """Theta(x_1, ..., x_k) = Theta_1(x_1) + ... + Theta_k(x_k)."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("direct sum needs at least one part")
        object.__setattr__(self, "parts", parts)

    def batch_terms(self, points):
        """One ``batch_terms`` call per part for the whole batch; a stable sort
        on the point index then gathers each point's terms, in part order."""
        points = list(points)
        for point in points:
            if len(point) != len(self.parts):
                raise ValueError(
                    f"direct-sum point has {len(point)} coordinates, expected {len(self.parts)}"
                )
        terms = [theta.batch_terms([point[j] for point in points]) for j, theta in enumerate(self.parts)]
        owner = np.concatenate([np.repeat(np.arange(len(points)), c) for _, _, c in terms])
        order = np.argsort(owner, kind="stable")
        norms = np.concatenate([n for n, _, _ in terms])[order]
        exps = np.concatenate([e for _, e, _ in terms])[order]
        return norms, exps, sum(c for _, _, c in terms)


def modular_eval(theta: ConvexModular, point) -> float:
    """Theta(x), with the point validated by the modular's own spaces."""
    return ScaleProfile(*theta.batch_terms((point,))[:2])(1.0)


def luxemburg_norm(theta: ConvexModular, point) -> float:
    """The Luxemburg norm of one point; see :func:`luxemburg_norms`."""
    return float(luxemburg_norms(theta, (point,))[0])


def luxemburg_norms(theta: ConvexModular, points) -> np.ndarray:
    """The norms inf{lam > 0 : Theta(x / lam) <= 1} of many points, by Newton.

    The terms of all points are read in one ``theta.batch_terms`` call and
    set up as padded ``(rows, terms)`` arrays: a non-finite term raises, and
    zero terms, or terms that underflow to 0 against their row's largest,
    leave their row.  With s the largest term norm of a point, a_i =
    log(n_i / s) and u = log(lam / s), the norm solves g(u) = log sum
    exp(q_i (a_i - u)) = 0.  As a log-sum-exp of affine maps g is convex and
    decreasing, so Newton's step

        u <- u + log(W) * W / sum q_i w_i,   w_i = exp(q_i (a_i - u)), W = sum w_i,

    started at u0 = log(m) / q_max, where g(u0) >= 0 for m = Theta(x / s),
    rises monotonically to the root from its left and needs no bracket.  A
    row stops once its step is at most 4e-16 * max(1, |u|); the test is
    signed, so a round-off step past the root ends the row too.  Steps stay
    above that size only while u climbs toward the root, so the loop ends
    without a cap.  The zero vector gets norm 0 by definition, a point with
    m = 1 has norm s, and a point whose exponents are all equal has the
    closed form s * m ** (1/q).  A norm above the largest float raises.

    Newton runs in place on the ``(terms, rows)`` transpose.  u0 and the
    closed form are ``math.log`` and ``pow`` mapped over lists: numpy's
    vector log and power round some values differently, and every norm
    keeps the bits it had when each point was set up on its own.  All
    points are solved in lockstep, each taking exactly the steps it would
    take alone, so a norm has the same bits in any batch.
    """
    return _solve_terms(*theta.batch_terms(points))


def _solve_terms(norms, exps, counts) -> np.ndarray:
    """The Luxemburg norms of points given as ``batch_terms`` output."""
    out = np.zeros(counts.size)
    # count_nonzero and ufunc reduces are plain C calls; any(), all(), max() and min() go through Python
    if np.count_nonzero(np.isfinite(norms)) < norms.size:
        raise NumericalFailure("modular value is not finite")
    if not norms.size:
        return out
    width = int(np.maximum.reduce(counts))
    if np.minimum.reduce(counts) == width:
        n = norms.reshape(-1, width)
        q = exps.reshape(-1, width)
    else:
        pad = np.arange(width) < counts[:, None]
        n = np.zeros(pad.shape)
        q = np.ones(pad.shape)
        n[pad] = norms
        q[pad] = exps
    # Solve on max-normalized terms: with s the largest term norm,
    # Theta(x / (s*mu)) stays representable even when Theta(x) itself
    # under- or overflows, and the root u is O(1).  The zero vector keeps 0.
    s = reduce_rows(np.maximum, n)
    rows = np.flatnonzero(s)
    if not rows.size:
        return out
    if rows.size < s.size:
        n, q, s = n[rows], q[rows], s[rows]
    n = n / s[:, None]
    # zero terms, and terms that underflow to 0 against the largest one,
    # contribute nothing at any scale
    live = n > 0.0
    if np.count_nonzero(live[:, 1:] > live[:, :-1]):
        # a zero term ahead of a live one would regroup the sums below, so
        # each row's live terms move to its front, in their order
        order = np.argsort(~live, axis=1, kind="stable")
        n, q, live = (np.take_along_axis(v, order, axis=1) for v in (n, q, live))
    # a dead term takes its row's first exponent, which leaves the row's
    # exponent range as it is; its n = 0 adds 0 to m and w at any exponent
    q = np.where(live, q, q[:, :1])
    # rows of fewer than 8 terms are summed left to right (see
    # spaces.reduce_rows), so padding them with zero terms up to 7 columns
    # changes no bit; wider rows would regroup, so they go unpadded, by live count
    if width < 8:
        _solve_rows(out, rows, s, n, q)
        return out
    keys = np.maximum(live.sum(axis=1), 7)
    for key in np.unique(keys).tolist():
        g = keys == key
        _solve_rows(out, rows[g], s[g], n[g, :key], q[g, :key])
    return out


def _solve_rows(out, rows, s, n, q) -> None:
    """out[rows] from max-normalized terms (n, q) whose live (nonzero) terms lead each row."""
    n, q = np.ascontiguousarray(n.T), np.ascontiguousarray(q.T)
    qmax = np.maximum.reduce(q, 0)
    m = _sum_columns(np.power(n, q)).tolist()
    # a row of equal exponents, or with m = 1 (1.0 ** x is 1.0), has the closed form
    # s * m ** (1/q), and the others start Newton at log(m) / q_max: libm on lists
    closed = list(map(operator.or_, (np.minimum.reduce(q, 0) == qmax).tolist(),
                      map(operator.eq, m, itertools.repeat(1.0))))
    if any(closed):
        inverse = map(operator.truediv, itertools.repeat(1.0), itertools.compress(qmax.tolist(), closed))
        lam = list(map(operator.mul, itertools.compress(s.tolist(), closed),
                       map(pow, itertools.compress(m, closed), inverse)))
        if not all(map(math.isfinite, lam)):
            raise NumericalFailure("Luxemburg norm is not finite")
        if all(closed):
            # a lone row, or a batch of closed rows only, needs no mask
            out[rows] = lam
            return
        m = list(itertools.compress(m, map(operator.not_, closed)))
        closed = np.array(closed)
        out[rows[closed]] = lam
        newton = ~closed
        rows, s, n, q, qmax = rows[newton], s[newton], n[:, newton], q[:, newton], qmax[newton]
    u0 = np.fromiter(map(math.log, m), float, len(m)) / qmax
    # a dead term has a = -inf, so its w is exactly 0
    a = np.log(n, out=np.full(n.shape, -np.inf), where=n > 0.0)
    with np.errstate(over="ignore"):
        lam = s * np.exp(_newton(a, q, u0))
    if not np.isfinite(lam).all():
        raise NumericalFailure("Luxemburg norm is not finite")
    out[rows] = lam


def _newton(a, q, u) -> np.ndarray:
    """The roots u of the columns (a, q) solved in lockstep from the starts u."""
    active = np.ones(u.shape, dtype=bool)
    w = np.empty(a.shape)
    while np.count_nonzero(active):
        # w = exp(q (a - u)) and then q w, in place, with the rows' own bits
        np.exp(np.multiply(q, np.subtract(a, u, out=w), out=w), out=w)
        total = _sum_columns(w)
        step = np.log(total) * total / _sum_columns(np.multiply(q, w, out=w))
        # a stopped row keeps its root while the others go on
        np.add(u, step, out=u, where=active)
        active &= step > 4e-16 * np.maximum(1.0, np.abs(u))
    return u


def modular_sum_norm_with_scalar(theta_m, x, t: float) -> float:
    """Norm of (x, t) in the modular direct sum of theta_m with squared scalars.

    The scalar summand carries Theta(t) = t**2, so adjoining it to a space is
    norm-compatible with a one-dimensional Hilbert summand.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("scalar coordinate must be finite")
    ds = DirectSumModular((theta_m, square(Euclid(1))))
    return luxemburg_norm(ds, (x, np.array([t])))


def scalar_sum_expansion_ratio(theta_m, x) -> float:
    """Ratio (||x + 1||_m - 1) / (Theta(x)/2) for small modular values.

    Here ||x + 1||_m is the norm of (x, 1) in the modular sum with a squared
    scalar coordinate.  As Theta(x) -> 0 the ratio tends to 1, quantifying
    the first-order expansion of the norm around the unit scalar.
    """
    m = modular_eval(theta_m, x)
    if m == 0.0:
        raise ValueError("modular value of x is zero")
    if m > 0.1 * (1.0 + 1e-9):
        raise ValueError(f"modular value {m} too large; the expansion needs Theta(x) <= 0.1")
    lam = modular_sum_norm_with_scalar(theta_m, x, 1.0)
    return (lam - 1.0) / (0.5 * m)


@dataclass(frozen=True)
class LuxemburgSpace:
    """Space view of a modular direct sum over concatenated coordinates.

    ``modulars`` is a tuple of PowerModular parts; the norm of a flat vector
    is the Luxemburg norm of its split against the direct-sum modular.
    ``norm_batch`` reads each part's norms with one ``norm_batch`` call on
    its columns and solves all rows in one pass; ``norm`` is ``norm_batch``
    on one validated row.
    """

    modulars: tuple

    def __post_init__(self):
        mods = tuple(self.modulars)
        if not mods:
            raise ValueError("LuxemburgSpace needs at least one part")
        for m in mods:
            if not isinstance(m, PowerModular):
                raise TypeError("LuxemburgSpace parts must be PowerModular instances")
        object.__setattr__(self, "modulars", mods)

    @property
    def dim(self) -> int:
        return sum(m.space.dim for m in self.modulars)

    def offsets(self) -> list:
        offs = [0]
        for m in self.modulars:
            offs.append(offs[-1] + m.space.dim)
        return offs

    def split(self, x) -> list:
        arr = as_real_vector(x, self.dim)
        offs = self.offsets()
        return [arr[offs[i]:offs[i + 1]] for i in range(len(self.modulars))]

    def norm(self, x) -> float:
        return float(self.norm_batch(as_real_vector(x, self.dim)[None, :])[0])

    def norm_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected a stack of {self.dim}-vectors, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            raise ValueError("vector has non-finite entries")
        offs = self.offsets()
        # row i's terms are row i of the (rows, parts) norm array, in part order
        norms = np.stack([m.space.norm_batch(xs[:, offs[i]:offs[i + 1]])
                          for i, m in enumerate(self.modulars)], axis=1)
        exps = np.tile([m.q for m in self.modulars], xs.shape[0])
        return _solve_terms(norms.ravel(), exps, np.full(xs.shape[0], len(self.modulars)))
