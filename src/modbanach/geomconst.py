"""Jordan-von Neumann constants and parallelogram asymptotics.

The JvN constant of a space X is

    a(X) = (1/2) sup { ||x+y||^2 + ||x-y||^2 : ||x||^2 + ||y||^2 = 1 },

equivalently 2 sup { ||x||^2 + ||y||^2 : ||x+y||^2 + ||x-y||^2 = 1 }.  It
always lies in [1, 2], equals 1 exactly on inner-product spaces, and is
invariant under duality.  The estimator below produces certified lower
bounds by multi-start projected ascent; Clarkson's inequalities give the
matching upper bound 2 ** (2 |1/2 - 1/p|) for l_p and Schatten-p factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modular import _theta_rows
from .nakano import FormulaExponents, NakanoSpec, P_MAX, _check_index
from .sampling import Descent, _complex_normals, descend, stop_counts, stream_normals, structured_pairs
from .spaces import Lp, Schatten, dual_exponent

__all__ = [
    "WitnessPair",
    "JvnEstimate",
    "AsymptoticsReport",
    "jvn_lower_bound",
    "jvn_upper_bound_clarkson",
    "duality_gap",
    "alpha_beta",
    "clarkson_alpha_upper",
    "clarkson_alpha_tail_bound",
    "tail_parallelogram_defect",
]


# -- parameter packing: pairs live in a flat real parameter vector ----------


def _pack(space, x, y) -> np.ndarray:
    if isinstance(space, Schatten):
        xa = np.asarray(x, dtype=complex).ravel()
        ya = np.asarray(y, dtype=complex).ravel()
        return np.concatenate([xa.real, xa.imag, ya.real, ya.imag])
    return np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])


def _unpack_stack(space, thetas: np.ndarray) -> tuple:
    k = thetas.shape[0]
    if isinstance(space, Schatten):
        d2 = space.dim
        xr, xi = thetas[:, :d2], thetas[:, d2:2 * d2]
        yr, yi = thetas[:, 2 * d2:3 * d2], thetas[:, 3 * d2:]
        x = (xr + 1j * xi).reshape(k, space.d, space.d)
        y = (yr + 1j * yi).reshape(k, space.d, space.d)
        return x, y
    half = thetas.shape[1] // 2
    return thetas[:, :half], thetas[:, half:]


def _ratio_stack(space, thetas: np.ndarray) -> np.ndarray:
    x, y = _unpack_stack(space, thetas)
    # a row's norm depends on that row alone, so one call norms all four stacks
    n_sum, n_diff, n_x, n_y = space.norm_batch(np.concatenate([x + y, x - y, x, y])).reshape(4, -1)
    num = n_sum ** 2 + n_diff ** 2
    den = 2.0 * (n_x ** 2 + n_y ** 2)
    out = np.full(den.shape, -np.inf)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def _normalize(space, thetas: np.ndarray) -> np.ndarray:
    """Each row scaled to ||x||^2 + ||y||^2 = 1; a zero row stays zero."""
    x, y = _unpack_stack(space, thetas)
    norms = space.norm_batch(np.concatenate([x, y])).reshape(2, -1).tolist()
    # squares of Python floats: `**` calls libm pow, whose bits numpy's square does not always match
    s = np.array([math.sqrt(a ** 2 + b ** 2) for a, b in zip(*norms)])
    return thetas / np.where(s > 0.0, s, 1.0)[:, None]


def _ascend(space, thetas: np.ndarray) -> Descent:
    """Projected ascent of the ratio from every row of a (starts, n) stack, in lockstep."""
    run = descend(lambda stack: -_ratio_stack(space, stack), thetas,
                  first_step=0.25, max_steps=200, tol=1e-13,
                  project=lambda th: _normalize(space, th))
    return run._replace(values=-run.values)


def _starts(space, budget: int, seed: int) -> np.ndarray:
    """The (budget, n) stack of packed start pairs: structured, then Gaussian.

    A budget with no room for a Gaussian start leads with (ones, alternating)
    and (e_0, e_1), extremal for p > 2 and p < 2; a Schatten class of d >= 2
    puts their diagonal forms (I, diag(1, -1, 1, ...)) and (E_00, E_11)
    first.  Gaussian start i is x and then y drawn from stream i of `seed`,
    each as one ``gaussian_batch(space, 1, rng_stream(seed, i))`` draws it:
    a Schatten element takes its real and then its imaginary normals.
    """
    pairs = structured_pairs(space)
    if budget <= len(pairs):
        # (ones, alternating) is pairs[-5] and (e_0, e_1) pairs[1], which is pairs[-5] in one dimension
        lead = list(dict.fromkeys((len(pairs) - 5, 1)))
        pairs = [pairs[i] for i in lead] + [q for i, q in enumerate(pairs) if i not in lead]
        if isinstance(space, Schatten) and space.d > 1:
            eye = np.eye(space.d, dtype=complex)
            alt = np.diag([(-1.0) ** i for i in range(space.d)]).astype(complex)
            pairs = [(eye, alt), (np.diag(eye[0]), np.diag(eye[1]))] + pairs
    starts = [_pack(space, x, y) for x, y in pairs[:budget]]
    n = (4 if isinstance(space, Schatten) else 2) * space.dim
    rand = stream_normals(seed, budget - len(starts), n)
    if isinstance(space, Schatten):
        x_re, x_im, y_re, y_im = np.split(rand, 4, axis=1)
        x, y = _complex_normals(x_re, x_im), _complex_normals(y_re, y_im)
        rand = np.concatenate([x.real, x.imag, y.real, y.imag], axis=1)
    return np.concatenate([np.reshape(starts, (-1, n)), rand])


@dataclass(frozen=True)
class WitnessPair:
    x: np.ndarray
    y: np.ndarray
    value: float


@dataclass(frozen=True)
class JvnEstimate:
    lower_bound: float
    witness: WitnessPair
    starts: int
    evaluations: int
    seed: int
    stops: dict     # starts per way their ascent ended, keyed by sampling.STOPS


def jvn_lower_bound(space, budget: int = 64, seed: int = 0) -> JvnEstimate:
    """Certified lower bound on a(X) by multi-start finite-difference ascent.

    Starts are the structured seed pairs followed by Gaussian pairs, each
    with its own RNG stream keyed by (seed, start index); the best pair is
    re-ascended after the half-sum/half-difference substitution, which maps
    near-extremal pairs of one formulation onto the other.  Every reported
    value is an actual ratio evaluation, so the bound can exceed a(X) only
    by round-off.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    starts = _starts(space, budget, seed)
    run = _ascend(space, starts)
    best_val, best_theta = -np.inf, None
    for val, theta in zip(run.values.tolist(), run.thetas):
        if val > best_val:
            best_val, best_theta = val, theta
    # half-sum / half-difference substitution of the incumbent, then one more ascent
    bx, by = _unpack_stack(space, best_theta[None, :])
    sub = _pack(space, (bx[0] + by[0]) / math.sqrt(2.0), (bx[0] - by[0]) / math.sqrt(2.0))
    again = _ascend(space, sub[None, :])
    if again.values[0] > best_val:
        best_val, best_theta = float(again.values[0]), again.thetas[0]
    wx, wy = _unpack_stack(space, best_theta[None, :])
    witness = WitnessPair(wx[0], wy[0], best_val)
    evaluations = int(run.evals.sum() + again.evals.sum())
    return JvnEstimate(best_val, witness, starts.shape[0] + 1, evaluations, int(seed),
                       stop_counts(run.stops + again.stops))


def jvn_upper_bound_clarkson(p: float) -> float:
    """Clarkson bound a(X) <= 2 ** (2 |1/2 - 1/p|) for an l_p or Schatten-p factor."""
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p!r}")
    return 2.0 ** (2.0 * abs(0.5 - 1.0 / p))


def duality_gap(p: float, d: int, seed: int = 0) -> float:
    """|a-estimate(l_p^d) - a-estimate(l_p'^d)| at the default budget; vanishes in exact arithmetic."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"duality gap needs p in (1, inf), got {p!r}")
    lb = jvn_lower_bound(Lp(p, d), seed=seed).lower_bound
    lb_dual = jvn_lower_bound(Lp(dual_exponent(p), d), seed=seed).lower_bound
    return abs(lb - lb_dual)


# ---------------------------------------------------------------------------
# parallelogram asymptotics along a block sequence


@dataclass(frozen=True)
class AsymptoticsReport:
    exponents: np.ndarray
    jvn_values: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    tail_bound: float | None


def alpha_beta(exponents, jvn_values, tail_bound: float | None = None) -> AsymptoticsReport:
    """Blockwise parallelogram factors alpha_n and their suffix sups beta_n.

    alpha_n = a(E_n) ** (p_n / 2) * max(1, 2 ** (p_n - 2)) controls the
    two-point modular inequality on block n; beta_n = sup_{k >= n} alpha_k is
    computed over the given finite horizon, optionally floored by an analytic
    bound for the tail beyond it.
    """
    ps = np.asarray(exponents, dtype=float)
    avals = np.asarray(jvn_values, dtype=float)
    if ps.size == 0:
        raise ValueError("empty exponent list")
    if ps.shape != avals.shape:
        raise ValueError("exponents and JvN values must have equal length")
    if np.any((ps < 1.0) | (ps > P_MAX)):
        raise ValueError(f"exponents must lie in [1, {P_MAX}]")
    if np.any(avals < 1.0 - 1e-9):
        raise ValueError("JvN constants below 1 - 1e-9 are invalid")
    alpha = np.maximum(avals, 1.0) ** (ps / 2.0) * np.maximum(1.0, 2.0 ** (ps - 2.0))
    beta = np.maximum.accumulate(alpha[::-1])[::-1]
    if tail_bound is not None:
        beta = np.maximum(beta, float(tail_bound))
    return AsymptoticsReport(ps, avals, alpha, beta, tail_bound)


def clarkson_alpha_upper(p: float) -> float:
    """Upper bound on alpha_n from the Clarkson JvN bound alone."""
    p = float(p)
    if p >= 2.0:
        return 2.0 ** (1.5 * (p - 2.0))
    return 2.0 ** (0.5 * (2.0 - p))


def clarkson_alpha_tail_bound(exponents: FormulaExponents, horizon: int) -> float:
    """sup_{k > horizon} of the Clarkson alpha bound for a formula family.

    Exact: every formula family moves toward 2 monotonically from n = 1 on
    (see :class:`FormulaExponents`), and the alpha bound is monotone in
    |p - 2|, so the sup sits at k = horizon + 1.
    """
    if not isinstance(exponents, FormulaExponents):
        raise TypeError("analytic tail bound requires a formula exponent family")
    return clarkson_alpha_upper(float(exponents.values([horizon + 1])[0]))


#: the blocks cutoff, ..., cutoff + 7 that the tail defect's pairs are supported on
_TAIL_WINDOW = 8


def _tail_pairs(samples: int, seed: int, dims: list) -> tuple:
    """x and y of the sampled pairs, one ``(samples, d)`` array each per window block.

    Pair i is row i of ``stream_normals(seed, samples, 2 * sum(dims))``: x
    and then y over all window coordinates, the values that one draw per
    block from ``rng_stream(seed, i)`` gives, in the same order.
    """
    x, y = np.split(stream_normals(seed, samples, 2 * sum(dims)), 2, axis=1)
    offs = np.cumsum(dims)[:-1]
    return np.split(x, offs, axis=1), np.split(y, offs, axis=1)


def tail_parallelogram_defect(spec: NakanoSpec, cutoff: int, samples: int = 1000, seed: int = 0) -> float:
    """Max of (Theta(x+y) + Theta(x-y)) / (2 (Theta(x) + Theta(y))) on the tail.

    The pairs are sampled on the window of blocks cutoff, ..., cutoff + 7,
    so the max ratio never exceeds the suffix bound beta_cutoff.  Each
    block's norms of x+y, x-y, x and y come from one ``norm_batch`` call,
    and Theta is the kernel of ``modular_eval`` and ``nakano_modular``, so
    the defect has the bits of one ``nakano_modular`` call per vector.
    """
    support = list(range(_check_index(cutoff), _check_index(cutoff + _TAIL_WINDOW - 1) + 1))
    exps = spec.exponents.values(np.array(support, dtype=np.intp))
    blocks = [spec.blocks.block(n, p) for n, p in zip(support, exps.tolist())]
    rows = max(samples, 0)
    xs, ys = _tail_pairs(rows, seed, [blk.dim for blk in blocks])
    norms = np.empty((4 * rows, len(blocks)))
    for j, (blk, x, y) in enumerate(zip(blocks, xs, ys)):
        norms[:, j] = blk.norm_batch(np.concatenate((x + y, x - y, x, y)))
    theta = _theta_rows(norms, exps).reshape(4, -1)
    with np.errstate(over="ignore"):
        num = theta[0] + theta[1]
        den = 2.0 * (theta[2] + theta[3])
    live = den != 0.0
    return float((num[live] / den[live]).max(initial=0.0))
