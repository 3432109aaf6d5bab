"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against plain numpy / math only,
avoiding the library's own code paths (no shared norm helpers, no shared
bisection), so that agreement is evidence rather than tautology.
"""
import decimal
import math

import numpy as np

#: 60 digits, with exponents wide enough for any float's powers up to 1e300^16
_DECIMAL = decimal.Context(prec=60, Emin=-10 ** 6, Emax=10 ** 6)


def lp_norm_direct(x, p):
    """Plain power-sum l_p norm (no overflow guards; fine for test ranges)."""
    x = np.asarray(x, dtype=float)
    if math.isinf(p):
        return float(np.max(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def schatten_norm_svd(m, p):
    """Schatten norm via numpy's SVD (the library route uses eigvalsh)."""
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    if math.isinf(p):
        return float(s[0])
    return float(np.sum(s ** p) ** (1.0 / p))


def luxemburg_bisect(theta, x, max_expand=200):
    """Solve theta(x / lam) = 1 by naive bracket-and-bisect on a callable."""
    if theta(x) == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(max_expand):
        if theta(x / hi) <= 1.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if theta(x / mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def jvn_ratio(space, x, y):
    """(||x+y||^2 + ||x-y||^2) / (2 (||x||^2 + ||y||^2)) from four ``space.norm`` calls; (x, y) must not vanish."""
    xa, ya = np.asarray(x), np.asarray(y)
    nx, ny = space.norm(xa), space.norm(ya)
    den = 2.0 * (nx * nx + ny * ny)
    if den == 0.0:
        raise ValueError("x and y must not both vanish")
    ns, nd = space.norm(xa + ya), space.norm(xa - ya)
    return (ns * ns + nd * nd) / den


def jvn_ratio_lp2(p, ax, ay, s):
    """Parallelogram ratios in l_p^2 for unit x at angles ax, y = s * unit at angles ay.

    ax, ay and s are 1-d grids; the result has shape (len(s), len(ay), len(ax)).
    """

    def nrm(u, v):
        return (np.abs(u) ** p + np.abs(v) ** p) ** (1.0 / p)

    xu, xv = np.cos(ax), np.sin(ax)
    xn = nrm(xu, xv)
    x0, x1 = xu / xn, xv / xn
    yu, yv = np.cos(ay), np.sin(ay)
    yn = nrm(yu, yv)
    y0 = (s[:, None] * yu) / yn
    y1 = (s[:, None] * yv) / yn
    lhs = (nrm(x0 + y0[..., None], x1 + y1[..., None]) ** 2
           + nrm(x0 - y0[..., None], x1 - y1[..., None]) ** 2)
    return lhs / (2.0 * (1.0 + s * s))[:, None, None]


def jvn_grid_oracle(p, coarse=180, rounds=3):
    """Angle-grid estimate of the Jordan-von Neumann constant of l_p^2.

    Coarse sweep over (angle(x), angle(y), log ||y||), then a few local
    refinement rounds around the incumbent.  Good to ~1e-8 for smooth maxima.
    """

    def sweep(a_grid, b_grid, s_grid):
        vals = jvn_ratio_lp2(p, a_grid, b_grid, s_grid)
        # the first maximum in (s, b, a) order, as a loop over s, b, a would keep
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return (float(vals[i, j, k]), float(a_grid[k]), float(b_grid[j]), float(s_grid[i]))

    a_grid = np.linspace(0.0, math.pi, coarse, endpoint=False)
    b_grid = np.linspace(0.0, math.pi, coarse, endpoint=False)
    s_grid = np.exp(np.linspace(math.log(0.5), math.log(2.0), 15))
    best = sweep(a_grid, b_grid, s_grid)
    da, ds = math.pi / coarse, math.log(2.0) / 7.0
    for _ in range(rounds):
        _, a0, b0, s0 = best
        a_grid = np.linspace(a0 - da, a0 + da, 21)
        b_grid = np.linspace(b0 - da, b0 + da, 21)
        s_grid = s0 * np.exp(np.linspace(-ds, ds, 11))
        cand = sweep(a_grid, b_grid, s_grid)
        if cand[0] > best[0]:
            best = cand
        da, ds = da / 8.0, ds / 4.0
    return best[0]


def alpha_beta_loop(exponents, avalues):
    """Reference alpha/beta recursion as explicit python loops."""
    alphas = []
    for p, a in zip(exponents, avalues):
        alphas.append(max(a, 1.0) ** (p / 2.0) * max(1.0, 2.0 ** (p - 2.0)))
    betas = []
    for i in range(len(alphas)):
        betas.append(max(alphas[i:]))
    return alphas, betas


def condition_log_terms(kind, ns, c, a=1.0, b=0.0, s=1.0, p=None):
    """log c ** r_n with r_n = 2 p_n / |p_n - 2|, from each family's closed form.

    For p_n = 2 + a / D_n, r_n = 4 D_n / |a| + 2 sign(a), where D_n is n**s
    (power), log(n + b) (log) or log(log(n + b)) (loglog); a constant p has
    r = 2 p / |p - 2|.  No p_n - 2 is ever formed.
    """
    ns = np.asarray(ns, dtype=float)
    if kind == "constant":
        return np.full(ns.shape, 2.0 * p / abs(p - 2.0) * math.log(c))
    if kind == "power":
        d = ns ** s
    elif kind == "log":
        d = np.log(ns + b)
    else:
        d = np.log(np.log(ns + b))
    return (4.0 * d / abs(a) + 2.0 * math.copysign(1.0, a)) * math.log(c)


def nakano_block_terms(spec, points):
    """Block norms, exponents and per-point term counts, read block by block.

    Each block asks the spec for its exponent and its space and goes through
    that space's own ``norm``, one call per block.
    """
    norms, exps, counts = [], [], []
    for point in points:
        for n, arr in point.items:
            p = spec.exponent(n)
            blk = spec.blocks.block(n, p)
            if arr.shape[0] != blk.dim:
                raise ValueError(f"block {n} has {arr.shape[0]} coordinates, expected {blk.dim}")
            norms.append(blk.norm(arr))
            exps.append(p)
        counts.append(len(point.items))
    return norms, exps, counts


def nakano_theta_loop(spec, x):
    """Theta(x) as a plain left-to-right loop of Python float ``**`` over
    the block norms of :func:`nakano_block_terms`."""
    norms, exps, _ = nakano_block_terms(spec, (x,))
    total = 0.0
    for nrm, p in zip(norms, exps):
        total += nrm ** p
    return total


def block_sum(x, y, sign=1.0):
    """The block vector x + sign * y, block by block over the union of the supports."""
    out = dict(x.items)
    for n, arr in y.items:
        out[n] = out[n] + sign * arr if n in out else sign * arr
    return type(x)(tuple(out.items()))


def tail_defect_loop(spec, pairs):
    """max (Theta(x+y) + Theta(x-y)) / (2 (Theta(x) + Theta(y))) over the pairs,
    one :func:`nakano_theta_loop` per vector and :func:`block_sum` for x + y and x - y."""
    worst = 0.0
    for x, y in pairs:
        num = nakano_theta_loop(spec, block_sum(x, y)) + nakano_theta_loop(spec, block_sum(x, y, -1.0))
        den = 2.0 * (nakano_theta_loop(spec, x) + nakano_theta_loop(spec, y))
        if den != 0.0:
            worst = max(worst, num / den)
    return worst


def luxemburg_lone(norms, exps):
    """The Luxemburg norm of sum n_i ** q_i from its terms, solved alone.

    Max-normalized nonzero terms on one unpadded row; the exits m = 1 and
    equal exponents; then Newton on log sum exp(q_i (a_i - u)) from
    u0 = log(m) / q_max until a step is at most 4e-16 * max(1, |u|).
    """
    norms = np.asarray(norms, dtype=float)
    exps = np.asarray(exps, dtype=float)
    keep = norms > 0.0
    if not keep.any():
        return 0.0
    s = float(norms[keep].max())
    n, q = norms[keep] / s, exps[keep]
    keep = n > 0.0
    n, q = n[keep], q[keep]
    m = float(np.power(n, q).sum())
    if m == 1.0:
        return s
    qmax = float(q.max())
    if q.min() == qmax:
        return s * m ** (1.0 / qmax)
    a, q = np.log(n)[None, :], q[None, :]
    u = np.array([math.log(m) / qmax])
    while True:
        w = np.exp(q * (a - u[:, None]))
        total = w.sum(axis=1)
        step = np.log(total) * total / (q * w).sum(axis=1)
        u = u + step
        if not step[0] > 4e-16 * max(1.0, abs(float(u[0]))):
            return float(s * np.exp(u)[0])


def grid_floor_by_residuals(space, suite, n2, n_xi, n_phi):
    """The angle-grid floor of the two-projection defect, norming every residual.

    For each of n_xi directions xi (unit in ``space``) and n_phi functionals
    phi = <b, .> with |phi(xi)| > 1e-9, the worst |n2 - f^2 - ||x - f xi||^2| / n2
    over the suite rows x (squared norms n2), f = phi(x) / phi(xi); each
    direction's residual stack goes to ``space.norm_batch`` whole.  The
    smallest worst defect is the floor; inf when every cell is skipped.
    """
    b = np.arange(n_phi) * math.pi / n_phi
    dirs_b = np.stack([np.cos(b), np.sin(b)], axis=1)
    xb = suite @ dirs_b.T
    xi_dirs = np.array([[math.cos(a), math.sin(a)] for a in np.arange(n_xi) * math.pi / n_xi])
    floor = math.inf
    for xi in xi_dirs / space.norm_batch(xi_dirs)[:, None]:
        pv = dirs_b @ xi
        valid = np.abs(pv) > 1e-9
        if not np.any(valid):
            continue
        f = xb[:, valid] / pv[valid][None, :]                           # (n_s, k)
        r = suite[:, None, :] - f[:, :, None] * xi[None, None, :]        # (n_s, k, 2)
        rn = space.norm_batch(r.reshape(-1, 2)).reshape(f.shape)
        defect = np.abs(n2[:, None] - (f ** 2 + rn ** 2)) / n2[:, None]
        floor = min(floor, float(defect.max(axis=0).min()))
    return floor


def norm_decimal(space, x) -> decimal.Decimal:
    """The exact norm of the row x (floats or decimals) to 60 digits, in decimal arithmetic.

    Knows Lp and Euclid by their exponent (``space.p``, 2 when absent) and a
    sum of parts by ``space.parts``, the Euclidean length of the parts' norms.
    """
    c = _DECIMAL
    xs = [abs(v if isinstance(v, decimal.Decimal) else decimal.Decimal(float(v))) for v in x]
    if hasattr(space, "parts"):
        lo, total = 0, decimal.Decimal(0)
        for part in space.parts:
            n = norm_decimal(part, x[lo:lo + part.dim])
            total = c.add(total, c.multiply(n, n))
            lo += part.dim
        return c.sqrt(total)
    p = getattr(space, "p", 2.0)
    if math.isinf(p):
        return max(xs)
    if p == 1.0:
        total = decimal.Decimal(0)
        for v in xs:
            total = c.add(total, v)
        return total
    dp = decimal.Decimal(p)
    total = decimal.Decimal(0)
    for v in xs:
        total = c.add(total, c.power(v, dp) if v else v)
    return c.power(total, c.divide(1, dp)) if total else total


def defect_decimal(space, x, n2, xi, phi) -> decimal.Decimal:
    """|n2 - f^2 - ||x - f xi||^2| / n2, f = phi(x), for the float rows x, xi, phi and float n2, to 60 digits."""
    c = _DECIMAL
    d = [decimal.Decimal(float(v)) for v in x]
    f = decimal.Decimal(0)
    for a, b in zip(d, phi):
        f = c.add(f, c.multiply(a, decimal.Decimal(float(b))))
    rn = norm_decimal(space, [c.subtract(a, c.multiply(f, decimal.Decimal(float(b)))) for a, b in zip(d, xi)])
    n = decimal.Decimal(float(n2))
    return c.divide(abs(c.subtract(c.subtract(n, c.multiply(f, f)), c.multiply(rn, rn))), n)
