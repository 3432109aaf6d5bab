"""Convex modulars and the Luxemburg norm.

Every modular shipped here is a finite sum of terms ``||x_i||_{E_i} ** q_i``
with exponents q_i in [1, inf).  That structure is exploited by the norm
solver: a modular first reduces its argument to the list of (norm, exponent)
pairs, after which the scaling profile t -> Theta(t * x) is a cheap function
of two small arrays and the Newton iteration never touches the vectors again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import Euclid, as_real_vector

__all__ = [
    "ConvexModular",
    "PowerModular",
    "square",
    "DirectSumModular",
    "LuxemburgSpace",
    "ScaleProfile",
    "modular_eval",
    "delta2_constant",
    "luxemburg_norm",
    "luxemburg_norms",
    "NumericalFailure",
    "modular_sum_norm_with_scalar",
    "scalar_sum_expansion_ratio",
]

class NumericalFailure(ValueError):
    """A modular value that is not finite, so it has no Luxemburg norm."""


class ScaleProfile:
    """Evaluates t -> Theta(t * x) from precomputed (norm, exponent) terms.

    Zero-norm terms are dropped; they contribute nothing at any scale and
    would otherwise pollute the exponent range the solver starts from.
    """

    __slots__ = ("norms", "exps")

    def __init__(self, norms, exps):
        norms = np.asarray(norms, dtype=float)
        exps = np.asarray(exps, dtype=float)
        keep = norms > 0.0
        self.norms = norms[keep]
        self.exps = exps[keep]

    def __call__(self, t: float) -> float:
        if t == 0.0 or self.norms.size == 0:
            return 0.0
        return float(np.power(self.norms * t, self.exps).sum())

    def is_zero(self) -> bool:
        return self.norms.size == 0


class ConvexModular:
    """Base class: convex, symmetric, faithful, Theta(0) = 0."""

    def scale_terms(self, point) -> tuple:
        """Return (norms, exponents) arrays with Theta(x) = sum n_i ** q_i."""
        raise NotImplementedError

    def exponent_range(self) -> tuple:
        """Global exponent bounds (q_min, q_max) of the modular kind."""
        raise NotImplementedError

    def value(self, point) -> float:
        return self.profile(point)(1.0)

    def profile(self, point) -> ScaleProfile:
        norms, exps = self.scale_terms(point)
        return ScaleProfile(norms, exps)


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

    def scale_terms(self, point):
        return [self.space.norm(point)], [self.q]

    def exponent_range(self):
        return (self.q, self.q)


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

    def scale_terms(self, point):
        if len(point) != len(self.parts):
            raise ValueError(
                f"direct-sum point has {len(point)} coordinates, expected {len(self.parts)}"
            )
        norms: list = []
        exps: list = []
        for theta, xi in zip(self.parts, point):
            n, e = theta.scale_terms(xi)
            norms.extend(n)
            exps.extend(e)
        return norms, exps

    def exponent_range(self):
        ranges = [theta.exponent_range() for theta in self.parts]
        return (min(r[0] for r in ranges), max(r[1] for r in ranges))


def modular_eval(theta: ConvexModular, point) -> float:
    """Theta(x), with the point validated by the modular's own spaces."""
    v = theta.value(point)
    if not math.isfinite(v):
        raise NumericalFailure("modular value is not finite")
    return v


def delta2_constant(theta: ConvexModular) -> float:
    """A constant C with Theta(2x) <= C * Theta(x): C = 2 ** q_max."""
    _, qmax = theta.exponent_range()
    return 2.0 ** qmax


def luxemburg_norm(theta: ConvexModular, point) -> float:
    """The Luxemburg norm of one point; see :func:`luxemburg_norms`."""
    return float(luxemburg_norms(theta, (point,))[0])


def luxemburg_norms(theta: ConvexModular, points) -> np.ndarray:
    """The norms inf{lam > 0 : Theta(x / lam) <= 1} of many points, by Newton.

    With s the largest term norm, a_i = log(n_i / s) and u = log(lam / s),
    the norm solves g(u) = log sum exp(q_i (a_i - u)) = 0.  As a log-sum-exp
    of affine maps g is convex and decreasing, so Newton's step

        u <- u + log(W) * W / sum q_i w_i,   w_i = exp(q_i (a_i - u)), W = sum w_i,

    started at u0 = log(m) / q_max, where g(u0) >= 0 for m = Theta(x / s),
    rises monotonically to the root from its left and needs no bracket.  A
    row stops once its step is at most 4e-16 * max(1, |u|); the test is
    signed, so a round-off step past the root ends the row too.  Steps stay
    above that size only while u climbs toward the root, so the loop ends
    without a cap.  The zero vector gets norm 0 by definition, and a vector
    whose exponents are all equal has the closed form s * m ** (1/q).

    All points are solved in lockstep, each taking exactly the steps it
    would take alone, so a norm has the same bits in any batch.
    """
    out = np.zeros(len(points))
    blocks: dict = {}
    for i, point in enumerate(points):
        raw = theta.profile(point)
        if raw.is_zero():
            continue
        if not np.isfinite(raw.norms).all():
            raise NumericalFailure("modular value is not finite")
        # Solve on the max-normalized profile: with s the largest term norm,
        # Theta(x / (s*mu)) stays representable even when Theta(x) itself
        # under- or overflows, and the root u is O(1).
        s = float(raw.norms.max())
        prof = ScaleProfile(raw.norms / s, raw.exps)
        m = prof(1.0)
        if m == 1.0:
            out[i] = s
            continue
        qmax = float(prof.exps.max())
        if prof.exps.min() == qmax:
            out[i] = s * m ** (1.0 / qmax)
            continue
        # numpy sums a row of fewer than 8 terms left to right, so padding it
        # with zero terms up to 7 columns changes no bit; from 8 terms on its
        # pairwise summation regroups, so those rows go unpadded, by count
        blocks.setdefault(max(prof.norms.size, 7), []).append((i, s, prof, math.log(m) / qmax))
    for rows in blocks.values():
        idx, s, profs, u0 = zip(*rows)
        out[list(idx)] = np.array(s) * np.exp(_newton(profs, np.array(u0)))
    return out


def _newton(profs, u) -> np.ndarray:
    """The roots u of profiles solved in lockstep from the starts u."""
    sizes = np.array([prof.norms.size for prof in profs])
    live = np.arange(sizes.max()) < sizes[:, None]
    # a padding term has a = -inf, so its w is exactly 0
    a = np.full(live.shape, -np.inf)
    q = np.ones(live.shape)
    a[live] = np.log(np.concatenate([prof.norms for prof in profs]))
    q[live] = np.concatenate([prof.exps for prof in profs])
    active = np.ones(u.shape, dtype=bool)
    while active.any():
        w = np.exp(q * (a - u[:, None]))
        total = w.sum(axis=1)
        step = np.log(total) * total / (q * w).sum(axis=1)
        # a stopped row keeps its root while the others go on
        u = np.where(active, u + step, u)
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
        return luxemburg_norm(DirectSumModular(self.modulars), tuple(self.split(x)))

    def norm_batch(self, xs) -> np.ndarray:
        theta = DirectSumModular(self.modulars)
        return luxemburg_norms(theta, [tuple(self.split(row)) for row in np.asarray(xs, dtype=float)])
