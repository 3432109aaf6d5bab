"""Concrete finite-dimensional normed spaces.

Space descriptors are small frozen dataclasses; norm evaluation is a pure
function of the descriptor and the input array.  Scalars are real everywhere
except for Schatten spaces, which own complex d x d matrices (their ambient
dimension is d*d).  ``norm_batch`` takes a stack of inputs and does not
validate them; ``norm`` validates one input and returns ``norm_batch`` of it
as a one-row stack, so the two agree bit for bit at any stack height.
Rows of every width are normed column by column on the ``(d, N)``
transpose, with numpy's pairwise sum reproduced one column at a time (see
:func:`reduce_rows`): pass a column-major stack as the transposed view of
its ``(d, N)`` array and it is not copied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

__all__ = [
    "INF",
    "Lp",
    "Euclid",
    "Schatten",
    "TwoSum",
    "lp_norms_stack",
    "reduce_rows",
    "singular_values_stack",
    "dual_exponent",
    "as_real",
    "as_real_vector",
    "as_matrix",
    "space_to_dict",
    "space_from_dict",
]


class ConfigError(ValueError):
    """Invalid campaign config; maps to exit code 2."""


REQUIRED = object()   # the default of a key that a descriptor must give


def _read_object(table: dict, obj, where: str) -> dict:
    """The values of the JSON object ``obj`` at path ``where``, read through its key table.

    The table maps each key to ``(reader, default)``: ``reader(value, path)``
    reads a given value, and ``default`` stands in for an absent key unless
    it is ``REQUIRED``.  A key not in the table is rejected, never dropped.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown key")
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in obj:
            raise ConfigError(f"{prefix}{key}: missing required key")
    return {key: read(obj[key], prefix + key) if key in obj else default for key, (read, default) in table.items()}


def _read_kind(kinds: dict, obj, where: str, tag: str = "kind"):
    """``build(**values)`` for the JSON object ``obj``, where ``kinds[obj[tag]]`` is ``(build, table)``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {obj!r}")
    kind = obj.get(tag)
    if not isinstance(kind, str) or kind not in kinds:
        path = f"{where}.{tag}" if where else tag
        raise ConfigError(f"{path}: unknown {tag} {kind!r}, expected one of {sorted(kinds)}")
    build, table = kinds[kind]
    return build(**_read_object(table, {key: v for key, v in obj.items() if key != tag}, where))


def _int_reader(lo=-math.inf, hi=math.inf):
    """The reader of an integer in [lo, hi]; a float or a boolean is rejected, not truncated."""
    def read(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
            raise ConfigError(f"{where}: expected an integer in [{lo}, {hi}], got {value!r}")
        return int(value)
    return read


def _list_reader(read):
    """The reader of a JSON list whose entries ``read`` reads, entry i at path ``where[i]``."""
    def read_list(value, where: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [read(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return read_list


def as_real(value, where: str) -> float:
    """A real parameter as a float; a string, a boolean, an integer beyond the float range or a NaN is rejected.

    Every real number a config gives is read through here, so a bad one is a
    rejected parameter, a :class:`ConfigError`, never an ``OverflowError``.
    """
    if isinstance(value, (str, bytes, bool)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except TypeError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    except OverflowError:
        raise ConfigError(f"{where}: an integer too large for a float") from None
    if math.isnan(x):
        raise ConfigError(f"{where}: NaN is not a number")
    return x


def _check_exponent(p: float) -> float:
    p = as_real(p, "norm exponent")
    if p < 1.0:
        raise ValueError(f"norm exponent must lie in [1, inf], got {p!r}")
    return p


def _check_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return int(d)


def as_real_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite real 1-d float array, optionally of fixed length."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise TypeError("complex entries are only supported in Schatten spaces")
    arr = arr.astype(float, copy=False)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_matrix(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite complex square matrix.

    Accepts either a (d, d) array or a flat length d*d vector (row-major).
    """
    arr = np.asarray(x)
    if arr.ndim == 1:
        side = math.isqrt(arr.shape[0])
        if side * side != arr.shape[0]:
            raise ValueError(f"flat matrix input of length {arr.shape[0]} is not square")
        arr = arr.reshape(side, side)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if d is not None and arr.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected {d}x{d}, got {arr.shape[0]}x{arr.shape[1]}")
    arr = arr.astype(complex, copy=False)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("matrix has non-finite entries")
    return arr


def _sum_columns(t: np.ndarray) -> np.ndarray:
    """The column sums of a C-ordered 2-d ``t``, each in numpy's pairwise order.

    Column j gets the bits of numpy's own sum of ``t[:, j]`` as a contiguous
    row: fewer than 8 terms are added left to right; 8 to 128 terms go to 8
    running sums over strides of 8, combined as ((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7)), and the terms past the last multiple of 8 are added
    in order; more terms are split at half their count rounded down to a
    multiple of 8, and each part is summed so.  numpy adds the whole sum to
    its start +0.0, so a column of -0.0 sums to +0.0.
    """
    n, width = t.shape
    if n < 8:
        # np.add.reduce starts from np.add's identity +0.0
        return np.add.reduce(t, 0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_columns(t[:half]) + _sum_columns(t[half:])
    tail = n - n % 8
    r = np.add.reduce(t[:tail].reshape(tail // 8, 8, width), 0) if tail > 8 else t[:8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    out = r[0] + r[1]
    for row in t[tail:]:
        out += row
    out += 0.0
    return out


def reduce_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` for np.add, np.maximum or np.minimum, bit for bit.

    numpy's reduce along a row pays a cost per row, which dominates on rows
    of a few columns.  So every row is reduced column by column over the
    contiguous ``(d, N)`` transpose (free for the transposed view of a
    ``(d, N)`` array), in a number of numpy calls that does not grow with
    the height.  A max or min does not round, so its order is free; a sum
    follows numpy's pairwise order column by column (see
    :func:`_sum_columns`), in about d/8 calls, which on a stack of a few
    wide rows costs more than numpy's one.  A row's result so depends on
    the row alone, whatever the stack's memory layout.
    """
    t = np.ascontiguousarray(a.T)
    return _sum_columns(t) if ufunc is np.add else ufunc.reduce(t, 0)


def _lp_rows(a: np.ndarray, p: float) -> np.ndarray:
    """Row-wise l_p norm of a real 2-d array; a zero or NaN row keeps its max."""
    # every step, the abs too, runs in reduce_rows' layout, on one fresh array
    t = np.abs(a.T, order="C")
    m = np.maximum.reduce(t, 0)
    if p == INF:
        return m
    if p == 1.0:
        return _sum_columns(t)
    # a zero row is divided by 1 and sums to 0, and a NaN row is divided by
    # its NaN max, so its powers stay NaN and never overflow
    safe = m if m.all() else np.where(m == 0.0, 1.0, m)
    np.divide(t, safe, out=t)
    np.power(t, p, out=t)
    s = _sum_columns(t)
    # a root of p = 2 is a sqrt, as numpy's ``s ** 0.5`` and lp_norms_stack take it
    if p == 2.0:
        np.sqrt(s, out=s)
    else:
        np.power(s, 1.0 / p, out=s)
    return np.multiply(safe, s, out=s)


def lp_norms_stack(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Norms of the real rows of a (k, d) stack, row i in l_{ps[i]}^d.

    Each row gets the bits of ``Lp(ps[i], d).norm`` of that row alone: the
    sums run over rows of the same length, and the powers and roots are the
    vector ones that ``Lp.norm_batch`` takes with its scalar exponent.  For a
    scalar 2 numpy squares and roots by ``sqrt``, while a per-row exponent
    array would take the general power, so p = 2 rows are squared and rooted
    by ``sqrt`` here.
    """
    a = np.abs(xs)
    m = reduce_rows(np.maximum, a)
    if a.shape[1] == 1:
        return m
    out = np.where(ps == 1.0, reduce_rows(np.add, a), m)
    root = (m > 0.0) & (ps != 1.0) & (ps < INF)
    two = ps == 2.0
    # a row's square and root, or its powers, depend on the row alone, so
    # each kind is computed on its own rows only
    rows = np.flatnonzero(root & two)
    if rows.size:
        r = a[rows] / m[rows, None]
        out[rows] = m[rows] * np.sqrt(reduce_rows(np.add, r * r))
    rows = np.flatnonzero(root & ~two)
    if rows.size:
        mr, pr = m[rows], ps[rows]
        r = a[rows] / mr[:, None]
        out[rows] = mr * np.power(reduce_rows(np.add, np.power(r, pr[:, None])), 1.0 / pr)
    return out


def singular_values_stack(ms: np.ndarray) -> np.ndarray:
    """Singular values of each square matrix of a (..., d, d) stack, descending.

    Computed through the Hermitian eigendecomposition of m* m; eigenvalues
    pushed slightly negative by round-off are clamped at zero before the
    square root.  Each matrix is divided by a power of two near its largest
    real or imaginary part before m* m is formed, so the product neither
    overflows nor drowns; the scaling is exact and changes no bit where m* m
    stays in range.
    """
    # the real and imaginary parts side by side, as a (..., d, 2d) float view
    parts = np.ascontiguousarray(ms, dtype=complex).view(float)
    # frexp(0) has exponent 0, so a zero matrix is left as it is
    e = np.frexp(np.abs(parts).max(axis=(-2, -1)))[1][..., None, None]
    a = np.ldexp(parts, -e).view(complex)
    h = np.conj(np.swapaxes(a, -1, -2)) @ a
    w = np.linalg.eigvalsh(h)
    return np.ldexp(np.sqrt(np.clip(w, 0.0, None)), e[..., 0])[..., ::-1]


@dataclass(frozen=True)
class Lp:
    """Real l_p space of dimension d, p in [1, inf]."""

    p: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        object.__setattr__(self, "d", _check_dim(self.d))

    @property
    def dim(self) -> int:
        return self.d

    def norm(self, x) -> float:
        return float(self.norm_batch(as_real_vector(x, self.d)[None, :])[0])

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
        return _lp_rows(np.asarray(xs, dtype=float), self.p)


@dataclass(frozen=True)
class Euclid:
    """Real Euclidean space of dimension d."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _check_dim(self.d))

    @property
    def dim(self) -> int:
        return self.d

    def norm(self, x) -> float:
        return float(self.norm_batch(as_real_vector(x, self.d)[None, :])[0])

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
        # not np.linalg.norm: that squares without rescaling and drowns
        # at ~1e-154 / overflows at ~1e154
        return _lp_rows(np.asarray(xs, dtype=float), 2.0)


@dataclass(frozen=True)
class Schatten:
    """Schatten p-class over complex d x d matrices.

    The norm is the l_p norm of the singular value vector; p = inf gives the
    operator norm.  Ambient dimension is d*d.
    """

    p: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        object.__setattr__(self, "d", _check_dim(self.d))

    @property
    def dim(self) -> int:
        return self.d * self.d

    def norm(self, x) -> float:
        return float(self.norm_batch(as_matrix(x, self.d)[None])[0])

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
        a = np.asarray(xs, dtype=complex)
        if a.ndim == 2:
            a = a.reshape(a.shape[0], self.d, self.d)
        s = singular_values_stack(a)
        return _lp_rows(s, self.p)


@dataclass(frozen=True)
class TwoSum:
    """Hilbertian direct sum of real-scalar spaces.

    The norm of a concatenated vector is the Euclidean length of the tuple
    of part norms.  Used wherever a split of the coordinates matters, e.g.
    for the two-projection experiments.
    """

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("TwoSum needs at least one part")
        for s in parts:
            if isinstance(s, Schatten):
                raise TypeError("TwoSum parts must use real scalars")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.parts)

    def offsets(self) -> list:
        offs = [0]
        for s in self.parts:
            offs.append(offs[-1] + s.dim)
        return offs

    def norm(self, x) -> float:
        return float(self.norm_batch(as_real_vector(x, self.dim)[None, :])[0])

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        offs = self.offsets()
        pns = [s.norm_batch(arr[:, offs[i]:offs[i + 1]]) for i, s in enumerate(self.parts)]
        # scaling by a power of two is exact: it keeps the squares in range and
        # changes no bit of the plain sum where no square over- or underflows
        e = np.frexp(np.maximum.reduce(pns))[1]
        return np.ldexp(np.sqrt(sum(np.ldexp(pn, -e) ** 2 for pn in pns)), e)


def dual_exponent(p: float) -> float:
    """Conjugate exponent: 1/p + 1/p' = 1, with 1 and inf swapped."""
    p = _check_exponent(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    if p == 2.0:
        return 2.0
    return p / (p - 1.0)


def space_to_dict(space) -> dict:
    """JSON-friendly descriptor for the serializable space kinds."""
    if isinstance(space, Lp):
        return {"kind": "lp", "p": space.p, "d": space.d}
    if isinstance(space, Euclid):
        return {"kind": "euclid", "d": space.d}
    if isinstance(space, Schatten):
        return {"kind": "schatten", "p": space.p, "d": space.d}
    if isinstance(space, TwoSum):
        return {"kind": "two_sum", "parts": [space_to_dict(s) for s in space.parts]}
    raise TypeError(f"space {space!r} has no serializable descriptor")


def space_from_dict(desc: dict, where: str = "space"):
    """Inverse of :func:`space_to_dict`; ``where`` is the descriptor's path in error messages."""
    space = _read_kind(_SPACE_KINDS, desc, where)
    if space.dim > _COORDS_MAX:
        # only a two_sum gets here: each part's d has its own bound
        raise ConfigError(f"{where}.parts: {space.dim} coordinates in all, more than {_COORDS_MAX}")
    return space


#: The most elements a config may make any one array hold (16 GiB of
#: floats).  Every size key's upper bound derives from it, so a larger value
#: is a rejected config, never a MemoryError.
_ELEMENTS_MAX = 2 ** 31
#: The most real coordinates of a space (a Schatten d x d matrix has 2 d^2):
#: the JvN ascent differences each start along all 2n of its n = 2 * coordinates
#: parameters, an array of 8 * coordinates^2 elements.
_COORDS_MAX = math.isqrt(_ELEMENTS_MAX // 8)
_DIM = (_int_reader(1, _COORDS_MAX), REQUIRED)
_SCHATTEN_D = (_int_reader(1, math.isqrt(_COORDS_MAX // 2)), REQUIRED)
#: each space kind's constructor and the keys of its descriptor
_SPACE_KINDS = {
    "lp": (Lp, {"p": (as_real, REQUIRED), "d": _DIM}),
    "euclid": (Euclid, {"d": _DIM}),
    "schatten": (Schatten, {"p": (as_real, REQUIRED), "d": _SCHATTEN_D}),
    "two_sum": (TwoSum, {"parts": (_list_reader(space_from_dict), REQUIRED)}),
}
