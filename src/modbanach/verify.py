"""Randomized and grid-based verifiers for two-point norm inequalities.

Each verifier sweeps structured seed pairs plus seeded Gaussian batches,
reports the worst normalized violation together with the witness pair, and
never hides a violation: the verdict is "violated" as soon as the max
exceeds the tolerance.  Batches draw their RNG streams from (seed, batch
index), so reports are identical regardless of how many worker threads run
them.

Violations are measured relative to the magnitude of the bounding side of
the inequality (with an absolute floor of 1e-14); the parallelogram checks
report the absolute deviation, since for them the deviation itself is the
quantity of interest.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .modular import modular_sum_norm_with_scalar
from .nakano import BlockVector, NakanoModular, NakanoSpec, _unit_block, nakano_norms
from .sampling import gaussian_batch, rng_stream, structured_pairs
from .spaces import Lp, Schatten, as_real, space_from_dict, space_to_dict

__all__ = [
    "ViolationReport",
    "PairCheck",
    "PAIR_CHECKS",
    "verify_pair",
    "verify_lp_pair",
    "verify_beckner",
    "far_block_limit_gaps",
    "reevaluate_witness",
    "clarkson_rhs",
]

_FLOOR = 1e-14
_BATCH = 4096


def _array_to_json(arr) -> object:
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


@dataclass(frozen=True)
class ViolationReport:
    check: str
    params: dict
    samples: int
    max_violation: float
    worst_witness: tuple
    tolerance: float
    seed: int | None
    verdict: str

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "verdict": self.verdict,
            "worst_witness": [_array_to_json(w) for w in self.worst_witness],
        }


def _report(check, params, samples, max_violation, witness, tolerance, seed) -> ViolationReport:
    verdict = "violated" if max_violation > tolerance else "holds"
    if not math.isfinite(max_violation):
        verdict = "numerical_failure"
    return ViolationReport(
        check, params, int(samples), float(max_violation), tuple(witness),
        float(tolerance), seed, verdict,
    )


def _pair_campaign(check, params, space, batch_fn, samples, seed, tolerance, jobs=1):
    """Worst violation of batch_fn over structured seeds plus Gaussian batches."""
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    tasks = [(-1, 0)]
    remaining = samples
    b = 0
    while remaining > 0:
        take = min(_BATCH, remaining)
        tasks.append((b, take))
        remaining -= take
        b += 1

    struct = structured_pairs(space)

    def run(task):
        idx, count = task
        if idx < 0:
            x = np.stack([np.asarray(p[0]) for p in struct])
            y = np.stack([np.asarray(p[1]) for p in struct])
        else:
            rng = rng_stream(seed, idx)
            x = gaussian_batch(space, count, rng)
            y = gaussian_batch(space, count, rng)
        v = batch_fn(x, y)
        k = int(np.argmax(v))
        return float(v[k]), (x[k].copy(), y[k].copy())

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    # argmax stops at the first NaN, so a NaN batch cannot hide behind a finite one
    worst, witness = results[int(np.argmax([v for v, _ in results]))]
    total = len(struct) + samples
    return _report(check, params, total, worst, witness, tolerance, seed)


def clarkson_rhs(space, p: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The term 2 (||x||^p + ||y||^p) ** (2/p) on stacked pairs.

    At p = 2 this is exactly the parallelogram right-hand side, which is why
    the lower and upper Clarkson verifiers meet there.
    """
    nx = space.norm_batch(x)
    ny = space.norm_batch(y)
    return 2.0 * (nx ** p + ny ** p) ** (2.0 / p)


def _parallelogram_lhs(space, x, y):
    return space.norm_batch(x + y) ** 2 + space.norm_batch(x - y) ** 2


def _space_p(space) -> float:
    if not isinstance(space, (Lp, Schatten)):
        raise TypeError(f"space {space!r} carries no exponent p")
    if not math.isfinite(space.p):
        raise ValueError(f"space {space!r} needs a finite exponent p")
    return space.p


# ---------------------------------------------------------------------------
# the pair checks: preconditions giving the report params, then the violation
# on stacked pairs (x, y)


def _space_params(space) -> dict:
    return {"space": space_to_dict(space)}


def _clarkson_params(space, lower: bool) -> dict:
    p = _space_p(space)
    if lower and not p > 2.0:
        raise ValueError(f"the lower Clarkson bound needs p > 2, got {p}")
    if not lower and not p < 2.0:
        raise ValueError(f"the upper Clarkson bound needs p < 2, got {p}")
    return {"space": space_to_dict(space), "p": p}


def _clarkson_batch(space, params, x, y, lower: bool):
    lhs = _parallelogram_lhs(space, x, y)
    rhs = clarkson_rhs(space, params["p"], x, y)
    raw = (rhs - lhs) if lower else (lhs - rhs)
    return raw / np.maximum(np.abs(rhs), _FLOOR)


def _two_smooth_params(space, c=None) -> dict:
    if c is None:
        p = _space_p(space)
        if p < 2.0:
            raise ValueError(f"default constant needs p >= 2, got {p}")
        c = math.sqrt(p - 1.0)
    return {"space": space_to_dict(space), "c": as_real(c, "c")}


def _two_smooth_batch(space, params, x, y):
    c = params["c"]
    lhs = _parallelogram_lhs(space, x, y)
    rhs = 2.0 * (space.norm_batch(x) ** 2 + (c * c) * space.norm_batch(y) ** 2)
    return (lhs - rhs) / np.maximum(np.abs(rhs), _FLOOR)


def _schatten_inf_params(space) -> dict:
    if not (isinstance(space, Schatten) and space.p == math.inf):
        raise ValueError(f"schatten_inf needs an operator-norm Schatten space, got {space!r}")
    return _space_params(space)


def _schatten_inf_batch(space, params, x, y):
    lhs = 0.5 * _parallelogram_lhs(space, x, y)
    rhs = np.maximum(space.norm_batch(x), space.norm_batch(y)) ** 2
    return (rhs - lhs) / np.maximum(np.abs(rhs), _FLOOR)


def _endpoint_2_params(space) -> dict:
    p = _space_p(space)
    if p != 2.0:
        raise ValueError(f"endpoint check needs p = 2, got {p}")
    return _space_params(space)


def _parallelogram_batch(space, params, x, y):
    lhs = _parallelogram_lhs(space, x, y)
    rhs = 2.0 * (space.norm_batch(x) ** 2 + space.norm_batch(y) ** 2)
    return np.abs(lhs - rhs)


class PairCheck(NamedTuple):
    params: Callable   # (space, **options) -> report params; raises on a failed precondition
    batch: Callable    # (space, params, x, y) -> violation on the stacked pairs (x, y)


PAIR_CHECKS = {
    # ||x+y||^2 + ||x-y||^2 >= 2 (||x||^p + ||y||^p) ** (2/p) for p > 2
    "clarkson_lower": PairCheck(partial(_clarkson_params, lower=True),
                                partial(_clarkson_batch, lower=True)),
    # ||x+y||^2 + ||x-y||^2 <= 2 (||x||^p + ||y||^p) ** (2/p) for p < 2
    "clarkson_upper": PairCheck(partial(_clarkson_params, lower=False),
                                partial(_clarkson_batch, lower=False)),
    # ||x+y||^2 + ||x-y||^2 <= 2 (||x||^2 + C^2 ||y||^2), by default with
    # C = sqrt(p-1): holds for l_p and Schatten-p with p >= 2; shrinking C
    # below 1 breaks it already on collinear pairs, which the structured
    # seeds cover
    "two_smooth": PairCheck(_two_smooth_params, _two_smooth_batch),
    # (||x+y||^2 + ||x-y||^2) / 2 >= max(||x||, ||y||)^2 in Schatten(inf, d),
    # the operator norm
    "schatten_inf": PairCheck(_schatten_inf_params, _schatten_inf_batch),
    # absolute deviation | ||x+y||^2 + ||x-y||^2 - 2(||x||^2 + ||y||^2) |:
    # zero exactly on inner-product spaces; elsewhere the report's witness is
    # a certified non-Hilbert pair
    "parallelogram": PairCheck(_space_params, _parallelogram_batch),
    # at p = 2 the whole inequality chain collapses to the parallelogram law
    "endpoint_2": PairCheck(_endpoint_2_params, _parallelogram_batch),
}


def verify_pair(check: str, space, samples=10000, seed=0, tolerance=1e-10, jobs=1, **options):
    """Run the pair check ``check`` of :data:`PAIR_CHECKS` on ``space``.

    ``options`` go to the check's params builder (only two_smooth takes one,
    its constant ``c``).
    """
    entry = PAIR_CHECKS[check]
    params = entry.params(space, **options)
    batch_fn = partial(entry.batch, space, params)
    return _pair_campaign(check, params, space, batch_fn, samples, seed, tolerance, jobs)


# ---------------------------------------------------------------------------
# checks outside the pair table


def verify_lp_pair(space, x, y, p=None, lambdas=None, tolerance=1e-10):
    """Check ||x + lam y|| ** p = 1 + |lam| ** p over a grid of scalars.

    Requires ||x|| = 1.  Pairs passing this for all lam behave like disjoint
    unit vectors in l_p; basis pairs in l_p and matrix-unit pairs without a
    shared row or column in Schatten-p are the canonical examples.
    """
    p = _space_p(space) if p is None else as_real(p, "p")
    xa, ya = np.asarray(x), np.asarray(y)
    nx = space.norm(xa)
    if abs(nx - 1.0) > 1e-10:
        raise ValueError(f"x must be normalized, got ||x|| = {nx}")
    if lambdas is None:
        lambdas = np.linspace(-2.0, 2.0, 81)
    lambdas = np.asarray(lambdas, dtype=float)
    shaped = (xa[None, ...] + lambdas.reshape((-1,) + (1,) * xa.ndim) * ya[None, ...])
    devs = np.abs(space.norm_batch(shaped) ** p - (1.0 + np.abs(lambdas) ** p))
    k = int(np.argmax(devs))
    params = {"space": space_to_dict(space), "p": p}
    return _report(
        "lp_pair", params, lambdas.size, float(devs[k]),
        (xa, ya, np.array([lambdas[k]])), tolerance, None,
    )


def _beckner_violation(p, c, xs, ys):
    lhs = 0.5 * (np.abs(xs + ys) ** p + np.abs(xs - ys) ** p)
    rhs = (0.5 * ((xs + c * ys) ** 2 + (xs - c * ys) ** 2)) ** (p / 2.0)
    return (lhs - rhs) / np.maximum(np.abs(rhs), _FLOOR)


def verify_beckner(p, grid: int = 401, extent: float = 2.0, tolerance: float = 1e-12):
    """Two-point scalar inequality with constant sqrt(p - 1), p >= 2:

        (|x+y|^p + |x-y|^p) / 2 <= ((|x + Cy|^2 + |x - Cy|^2) / 2) ** (p/2).

    Checked on a uniform grid over [-extent, extent]^2; equality holds
    identically at p = 2.
    """
    p = as_real(p, "p")
    if p < 2.0:
        raise ValueError(f"the scalar two-point bound needs p >= 2, got {p}")
    c = math.sqrt(p - 1.0)
    axis = np.linspace(-extent, extent, grid)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    v = _beckner_violation(p, c, xs, ys)
    k = np.unravel_index(int(np.argmax(v)), v.shape)
    params = {"p": p, "c": c, "grid": grid, "extent": extent}
    witness = (np.array([xs[k]]), np.array([ys[k]]))
    return _report("beckner", params, v.size, float(v[k]), witness, tolerance, None)


def far_block_limit_gaps(spec: NakanoSpec, x: BlockVector, t: float, schedule) -> np.ndarray:
    """Gaps | ||x + t u_n|| - ||(x, t)|| | along a schedule of far blocks.

    u_n is the norm-one first basis direction of block n, which must lie
    outside the support of x; the reference is the norm of (x, t) in the
    modular sum with a square scalar coordinate.  When the exponents tend to
    2 along the schedule the gaps shrink to zero.
    """
    t = float(t)
    for n in schedule:
        if n in x.support:
            raise ValueError(f"schedule index {n} lies inside the support of x")
    target = modular_sum_norm_with_scalar(NakanoModular(spec), x, t)
    # every x + t u_n, read in one pass
    shifted = ((*x.items, (int(n), t * _unit_block(spec, n))) for n in schedule)
    return np.abs(nakano_norms(spec, shifted) - target)


def reevaluate_witness(report: ViolationReport) -> float:
    """Recompute the violation of a report's stored witness from scratch."""
    w = [np.asarray(v) for v in report.worst_witness]
    check, params = report.check, report.params
    if check in PAIR_CHECKS:
        space = space_from_dict(params["space"])
        return float(PAIR_CHECKS[check].batch(space, params, w[0][None, ...], w[1][None, ...])[0])
    if check == "beckner":
        return float(_beckner_violation(params["p"], params["c"], w[0], w[1])[0])
    if check == "lp_pair":
        space = space_from_dict(params["space"])
        lam = float(w[2][0])
        val = space.norm(w[0] + lam * w[1])
        return abs(val ** params["p"] - (1.0 + abs(lam) ** params["p"]))
    raise ValueError(f"unknown check {check!r}")
