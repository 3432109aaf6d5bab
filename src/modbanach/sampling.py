"""Seeded sample generation and the start-wise descent shared by the searches.

Every random draw comes from a stream keyed by a base seed and an integer
index: stream i of seed s is ``np.random.default_rng([s, i])``.  Batches and
multi-start searches key their streams by index, so results never depend on
scheduling order.  :func:`rng_stream` hands out one stream as a live
generator (the verify batches draw from it inside their thread pool);
:func:`stream_normals` gives the first normals of many streams at once, bit
for bit, without building a generator per stream.  :func:`descend` is the
finite-difference line search that both multi-start searches run, all of a
search's starts in lockstep as one stack.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spaces import Schatten

__all__ = [
    "rng_stream",
    "stream_normals",
    "gaussian_batch",
    "structured_vectors",
    "structured_pairs",
    "STOPS",
    "Descent",
    "stop_counts",
    "descend",
]


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, path...)."""
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


# SeedSequence's hash (numpy/random/bit_generator.pyx) and PCG64's seeding
# step (numpy/random/src/pcg64/pcg64.h), whose streams NEP 19 keeps stable.
# The hash works on C uint32_t, which numpy's uint32 arithmetic wraps like.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


@lru_cache
def _multipliers(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash multiplier of `calls` hashmix calls, as a (calls + 1, 1) column."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """hashmix of `values` by consecutive calls, one call per row of the result."""
    h = (values ^ mults[:-1]) * mults[1:]
    return h ^ h >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _seed_words(seed: int) -> list:
    """A seed as SeedSequence reads an integer: little-endian 32-bit words, one word for 0."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return words


def stream_normals(seed: int, count: int, width: int) -> np.ndarray:
    """(count, width) array whose row i is the first `width` standard normals of stream i.

    Row i has the bits of ``rng_stream(seed, i).standard_normal(width)``,
    and so of any split of those draws into several calls: the float64
    ziggurat carries nothing from one call to the next.  SeedSequence's pool
    hash of the entropy ``[seed, i]`` runs over all indices at once in
    numpy; PCG64's seeding step runs in Python integers, and one PCG64 that
    this call owns takes each row's state through its ``state`` property.
    That reproduces NumPy's streams as long as NEP 19's stability promise
    for SeedSequence and PCG64 holds; ``tests/test_sampling.py`` compares
    the rows with ``default_rng`` draws.  Indices must stay below 2**32.
    """
    words = _seed_words(int(seed))
    entropy = np.empty((len(words) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count)
    # SeedSequence.mix_entropy: hash the first words into the pool (zeros past
    # the entropy), mix every pool word into the others, then mix each
    # remaining entropy word into every pool word
    extra = entropy[_POOL:]
    mults = _multipliers(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    pool = np.zeros((_POOL, count), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, mults[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], mults[k:k + _POOL]))
        k += _POOL - 1
    for word in extra:
        pool = _mix(pool, _hashmix(word, mults[k:k + _POOL + 1]))
        k += _POOL
    # SeedSequence.generate_state(4, np.uint64): eight words that cycle
    # through the pool, paired little-endian into (seed high, seed low,
    # increment high, increment low)
    state = _hashmix(pool[[0, 1, 2, 3] * 2], _multipliers(_INIT_B, _MULT_B, 2 * _POOL))
    state = state.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (state[0::2] | state[1::2] << 32).tolist()
    out = np.empty((count, width))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).standard_normal
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, s_hi, s_lo, q_hi, q_lo in zip(out, seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, one LCG step from 0,
        # add initstate, one more LCG step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK_128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK_128
        pcg["inc"] = inc
        bits.state = full
        draw(out=row)
    return out


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
        return _complex_normals(re, im)
    return rng.standard_normal((count, space.dim))


def _complex_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex normals of unit total variance from real and imaginary standard normals."""
    return (re + 1j * im) / np.sqrt(2.0)


def _real_structured(dim: int) -> list:
    out = []
    for i in range(min(dim, 8)):
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
#: Objective rows per call at most (beyond one start's own probes): larger
#: searches run in index-order chunks of starts.  This bounds objective rows,
#: not the rows of a norm call: the summand search expands each objective row
#: into one residual row per suite vector, and blocks those itself.
_CHUNK_ROWS = 4096
#: How a start's descent ended: its gradient vanished or was not finite, no
#: halving step gained more than `tol`, it ran `max_steps` steps, or an
#: earlier start reached the cut first.
STOPS = ("converged", "stalled", "capped", "dropped")
_CONVERGED, _STALLED, _CAPPED, _DROPPED = range(4)


class Descent(NamedTuple):
    """Per-start outcome of :func:`descend`; a dropped start's value is NaN."""

    values: np.ndarray    # (starts,)
    thetas: np.ndarray    # (starts, n)
    evals: np.ndarray     # (starts,) objective rows spent on each start
    stops: tuple          # one name of STOPS per start


def stop_counts(stops: tuple) -> dict:
    """How many starts ended each way, keyed by every name of :data:`STOPS`."""
    return {name: stops.count(name) for name in STOPS}


def descend(objective, thetas, first_step: float, max_steps: int, tol: float,
            project=None, cut: float | None = None) -> Descent:
    """Finite-difference steepest descent from every row of a (starts, n) stack.

    `objective` maps a (k, n) stack of rows to k values, and `project` maps a
    stack of points back onto the constraint set; it is applied to the starts
    and to every accepted point.  All live starts advance together: each
    step makes one objective call on their 2n central differences, then one
    on their 24 halving steps from `first_step` along the normalized negative
    gradient.  A start leaves when its gradient vanishes or is not finite,
    when no halving step gains more than `tol`, or after `max_steps` steps.
    Every start gets the bits it would get alone, as long as `objective`
    scores a row with the same bits at any stack height.  With a `cut`, the
    first start (in index order) whose final value is at or below it ends
    the search: every later start is dropped, every earlier one runs to its
    end.
    """
    project = project or (lambda th: th)
    thetas = np.array(thetas, dtype=float)
    k, n = thetas.shape
    values = np.full(k, np.nan)
    evals = np.zeros(k, dtype=int)
    stops = np.full(k, _DROPPED)
    size = max(1, _CHUNK_ROWS // max(2 * n, _HALVINGS.shape[0]))
    for lo in range(0, k, size):
        part = slice(lo, lo + size)
        thetas[part], values[part], evals[part], stops[part] = _lockstep(
            objective, thetas[part], first_step, max_steps, tol, project, cut)
        if cut is not None and np.any(values[part] <= cut):
            break
    return Descent(values, thetas, evals, tuple(STOPS[s] for s in stops))


def _first_hit(value: np.ndarray, cut: float | None) -> int:
    """Index of the first start at or below the cut, or the number of starts."""
    hit = np.flatnonzero(value <= cut) if cut is not None else ()
    return int(hit[0]) if len(hit) else value.shape[0]


def _lockstep(objective, theta, first_step, max_steps, tol, project, cut):
    """:func:`descend` on one chunk of starts; returns (thetas, values, evals, stops)."""
    k, n = theta.shape
    theta = project(theta)
    value = np.array(objective(theta), dtype=float)
    evals = np.ones(k, dtype=int)
    stops = np.full(k, _CAPPED)
    probe = FD_STEP * np.eye(n)
    steps = first_step * _HALVINGS
    live = np.arange(k)
    for _ in range(max_steps):
        live = live[live <= _first_hit(value, cut)]
        if not live.size:
            break
        th = theta[live]
        vals = objective(np.concatenate([th[:, None, :] + probe, th[:, None, :] - probe], axis=1)
                         .reshape(-1, n)).reshape(-1, 2 * n)
        evals[live] += 2 * n
        grad = (vals[:, :n] - vals[:, n:]) / (2.0 * FD_STEP)
        # the row-wise dot product takes the same BLAS path as np.linalg.norm of one row
        gn = np.sqrt(np.matmul(grad[:, None, :], grad[:, :, None])[:, 0, 0])
        ok = (0.0 < gn) & (gn < np.inf)
        stops[live[~ok]] = _CONVERGED
        live, th = live[ok], th[ok]
        if not live.size:
            break
        unit = grad[ok] / gn[ok, None]
        cands = th[:, None, :] - steps[None, :, None] * unit[:, None, :]
        cvals = objective(cands.reshape(-1, n)).reshape(-1, steps.shape[0])
        evals[live] += steps.shape[0]
        j = np.argmin(cvals, axis=1)
        best = cvals[np.arange(live.size), j]
        # not `best < value - tol`: a NaN best is taken, as a lone start's loop took it
        gain = ~(best >= value[live] - tol)
        stops[live[~gain]] = _STALLED
        live = live[gain]
        value[live] = best[gain]
        theta[live] = project(cands[gain, j[gain]])
    last = _first_hit(value, cut)
    stops[last + 1:] = _DROPPED
    value[last + 1:] = np.nan
    return theta, value, evals, stops
