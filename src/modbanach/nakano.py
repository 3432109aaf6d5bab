"""Nakano-type modular sequence spaces with variable exponents.

A space is described by an exponent sequence (p_n) and a block family (E_n);
the modular of a finitely supported block vector is

    Theta(x) = sum_n ||x(n)||_{E_n} ** p_n

and the norm is the Luxemburg norm of that modular.  The module also carries
the summability test deciding whether sum_n c ** (2 p_n / |p_n - 2|) is
finite, which governs the existence of an equivalent hilbertian norm.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import spaces
from .modular import ConvexModular, luxemburg_norm, luxemburg_norms, modular_eval
from .spaces import (_DIM, REQUIRED, Euclid, Lp, _check_dim, _list_reader, _read_kind, _read_object, as_real,
                     space_from_dict)

__all__ = [
    "P_MAX",
    "ConstantExponents",
    "ExplicitExponents",
    "FormulaExponents",
    "UniformBlocks",
    "CycledBlocks",
    "ExplicitBlocks",
    "MatchedLpBlocks",
    "NakanoSpec",
    "BlockVector",
    "NakanoModular",
    "nakano_modular",
    "nakano_norm",
    "nakano_norms",
    "ConditionTermSeries",
    "ConditionVerdict",
    "ConditionReport",
    "nakano_condition_terms",
    "nakano_condition_verdict",
    "SOME_CONVERGES",
    "NONE_IN_GRID",
    "spec_from_dict",
]

#: hard ceiling for exponents; keeps powers well inside double range
P_MAX = 64.0

SOME_CONVERGES = "some-c-converges"
NONE_IN_GRID = "none-in-grid"


#: The largest block index: indices are read into intp arrays.
_INDEX_MAX = int(np.iinfo(np.intp).max)


def _check_index(n) -> int:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= _INDEX_MAX:
        raise ValueError(f"block index must be a positive integer up to {_INDEX_MAX}, got {n!r}")
    return int(n)


def _check_p(p: float, n: int) -> float:
    if not (1.0 <= p <= P_MAX):
        raise ValueError(f"exponent p_{n} = {p!r} outside [1, {P_MAX}]")
    return float(p)


@dataclass(frozen=True)
class ConstantExponents:
    """p_n = p for every n."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(as_real(self.p, "exponent p"), 1))

    def values(self, ns) -> np.ndarray:
        ns = np.asarray(ns)
        return np.full(ns.shape, self.p)

    def critical_c(self) -> float:
        if self.p == 2.0:
            raise ValueError("exponent equals 2 at every index; the series is undefined there")
        return 0.0


@dataclass(frozen=True)
class ExplicitExponents:
    """A finite list of exponents; indices beyond the list are an error."""

    exponents: tuple

    def __post_init__(self):
        vals = tuple(_check_p(as_real(p, f"exponent p_{i + 1}"), i + 1) for i, p in enumerate(self.exponents))
        if not vals:
            raise ValueError("explicit exponent list must be nonempty")
        object.__setattr__(self, "exponents", vals)

    def values(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.intp)
        bad = (ns < 1) | (ns > len(self.exponents))
        if bad.any():
            n = _check_index(int(ns[bad].flat[0]))
            raise ValueError(f"index {n} beyond the {len(self.exponents)} explicit exponents")
        return np.array(self.exponents)[ns - 1]

    def critical_c(self) -> float:
        raise ValueError(f"the {len(self.exponents)} explicit exponents are a finite list, "
                         "which has no tail to decide the series by")


@dataclass(frozen=True)
class FormulaExponents:
    """One of the closed-form families converging to 2.

    form "power":  p_n = 2 + a / n**s
    form "log":    p_n = 2 + a / log(n + b)
    form "loglog": p_n = 2 + a / log(log(n + b))

    Every family the constructor accepts moves toward 2 monotonically from
    n = 1 on, without crossing it: |p_n - 2| is |a| over a denominator that
    is positive at n = 1 and increasing in n.

    - power: the denominator n**s increases, as s > 0;
    - log: the n = 1 check, log(1 + b) > 0, forces b > 0, and log(n + b)
      increases;
    - loglog: log(log(n + b)) increases and is positive from n = 1 on.

    So beyond any index the exponent farthest from 2 is the next one, which
    :func:`geomconst.clarkson_alpha_tail_bound` reads alone.  Values are
    validated to lie in [1, P_MAX].
    """

    form: str
    a: float
    b: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.form not in ("power", "log", "loglog"):
            raise ValueError(f"unknown exponent formula {self.form!r}")
        object.__setattr__(self, "a", as_real(self.a, "formula a"))
        object.__setattr__(self, "b", as_real(self.b, "formula b"))
        object.__setattr__(self, "s", as_real(self.s, "formula s"))
        if self.a == 0.0:
            raise ValueError("formula family needs a != 0 (otherwise use a constant)")
        if self.form == "power" and self.s <= 0.0:
            raise ValueError("power family needs s > 0")
        # denominators must stay positive from n = 1 on; log(1 + b) is NaN for
        # b < -1, and that is rejected, not warned about
        with np.errstate(invalid="ignore", divide="ignore"):
            self.values([1])

    def _raw(self, ns: np.ndarray) -> np.ndarray:
        ns = ns.astype(float)
        if self.form == "power":
            # n**s overflowing to inf gives p_n = 2, its limit
            with np.errstate(over="ignore"):
                return 2.0 + self.a / ns ** self.s
        base = np.log(ns + self.b)
        if self.form == "loglog":
            base = np.log(base)
        # a NaN (b < -1) or infinite (b = inf) denominator is rejected too
        if np.any(~(np.isfinite(base) & (base > 0.0))):
            log = "log(n + b)" if self.form == "log" else "log(log(n + b))"
            raise ValueError(f"{self.form} family needs a finite {log} > 0 from n = 1 on")
        return 2.0 + self.a / base

    def values(self, ns) -> np.ndarray:
        ns = np.asarray(ns)
        vals = self._raw(ns)
        bad = ~((vals >= 1.0) & (vals <= P_MAX))
        if np.any(bad):
            where = int(np.asarray(ns).ravel()[np.argmax(bad.ravel())])
            raise ValueError(f"exponent at index {where} outside [1, {P_MAX}]")
        return vals

    def critical_c(self) -> float:
        if self.form == "log":
            return math.exp(-abs(self.a) / 4.0)
        return 1.0 if self.form == "power" else 0.0


# ---------------------------------------------------------------------------
# block families


@dataclass(frozen=True)
class UniformBlocks:
    """The same space at every index."""

    space: object

    def block(self, n: int, p: float):
        return self.space


#: every block the scalar line: the default block family, and the "scalar" kind
_SCALAR = UniformBlocks(Euclid(1))


@dataclass(frozen=True)
class CycledBlocks:
    """A finite list of spaces repeated cyclically."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("cycled block list must be nonempty")
        object.__setattr__(self, "blocks", blocks)

    def block(self, n: int, p: float):
        return self.blocks[(n - 1) % len(self.blocks)]


@dataclass(frozen=True)
class ExplicitBlocks:
    """A finite list of spaces; indices beyond the list are an error."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("explicit block list must be nonempty")
        object.__setattr__(self, "blocks", blocks)

    def block(self, n: int, p: float):
        if n > len(self.blocks):
            raise ValueError(f"index {n} beyond the {len(self.blocks)} explicit blocks")
        return self.blocks[n - 1]


# one validated Lp per (p, d), shared by every block with that exponent
_matched_lp = functools.lru_cache(maxsize=4096)(Lp)


@dataclass(frozen=True)
class MatchedLpBlocks:
    """Block n is l_{p_n}^d, reusing the exponent sequence for the blocks."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _check_dim(self.d))

    def block(self, n: int, p: float):
        return _matched_lp(p, self.d)


@dataclass(frozen=True)
class NakanoSpec:
    """Exponent sequence plus block family."""

    exponents: object
    blocks: object = _SCALAR

    def exponent(self, n: int) -> float:
        return float(self.exponents.values([_check_index(n)])[0])

    def block(self, n: int):
        return self.blocks.block(n, self.exponent(n))


# ---------------------------------------------------------------------------
# block vectors


_NOT_A_FLOAT = "block has an integer too large for a float"
#: the coordinate types a flat read takes: JSON's numbers, and booleans,
#: which numpy reads as 1 and 0 either way
_NUMBERS = frozenset((float, int, bool))
_first, _second = operator.itemgetter(0), operator.itemgetter(1)


#: block vectors as columns, every vector's blocks in turn by increasing index: the indices, each vector's
#: block count, each block's size, every coordinate (one read-only array) and which blocks are complex
_Columns = collections.namedtuple("_Columns", "ns counts sizes flat cplx")


def _number_lists(values) -> bool:
    """Whether every block is a list of numbers (two type scans, in C)."""
    return {list}.issuperset(map(type, values)) and _NUMBERS.issuperset(
        map(type, itertools.chain.from_iterable(values)))


def _checked(a: np.ndarray) -> np.ndarray:
    # isfinite of a complex entry is False once either part is inf or NaN
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError("block has non-finite entries")
    return a


def _coerce_block(arr) -> np.ndarray:
    # the blocks are joined into one fresh array, so an array is read without
    # a copy here, and the cast below copies only when the dtype changes
    a = np.asarray(arr)
    if a.dtype.kind in "SU":
        raise ValueError("block has a string coordinate")
    try:
        a = a.astype(complex if a.dtype.kind == "c" else float, copy=False)
    except OverflowError:
        raise ValueError(_NOT_A_FLOAT) from None
    return _checked(a if a.ndim == 1 else a.ravel())


def _index_fault(keys: list, counts) -> None:
    """Raise the first vector's first fault: a key ``int`` does not read, an index out of range, a repeat."""
    for start, end in itertools.pairwise(itertools.accumulate(counts.tolist(), initial=0)):
        support = sorted(map(int, keys[start:end]))
        if support:
            _check_index(support[0] if support[0] < 1 else support[-1])
        if len(set(support)) < len(support):
            raise ValueError(f"duplicate block index {next(n for n, m in zip(support, support[1:]) if n == m)}")


def _read_items(vectors) -> _Columns:
    """The columns of many vectors, each given as ``(index, block)`` pairs, read in one pass.

    The indices are read by ``int`` (JSON makes them strings) into one intp
    array, sorted within each vector by one ``np.lexsort`` and checked as
    arrays.  When every block is a list of numbers, all coordinates go into
    one float array, checked once; otherwise each block is read by
    ``np.array``, flattened, cast to float or complex and checked, in block
    order.  Both ways give a list of numbers the same bits; a string, a
    coordinate that is not finite or an integer too large for a float
    raises ``ValueError``.
    """
    vectors = list(map(list, vectors))
    pairs = list(itertools.chain.from_iterable(vectors))
    keys, values = list(map(_first, pairs)), list(map(_second, pairs))
    counts = np.fromiter(map(len, vectors), np.intp, len(vectors))
    try:
        ns = np.array(list(map(int, keys)), dtype=np.intp)
    except (ValueError, TypeError, OverflowError):
        _index_fault(keys, counts)
        raise
    owner = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((ns, owner))
    ns = ns[order]
    same = ns[1:] == ns[:-1]
    if np.count_nonzero(ns < 1) or np.count_nonzero(same) and np.count_nonzero(same & (owner[1:] == owner[:-1])):
        _index_fault(keys, counts)
    values = list(map(values.__getitem__, order.tolist()))
    if _number_lists(values):
        try:
            flat = _checked(np.array(list(itertools.chain.from_iterable(values)), dtype=float))
        except OverflowError:
            raise ValueError(_NOT_A_FLOAT) from None
    else:
        values = list(map(_coerce_block, values))
        flat = np.concatenate(values) if values else np.empty(0)
    flat.flags.writeable = False
    complex_blocks = (block.dtype.kind == "c" for block in values)
    cplx = np.fromiter(complex_blocks, bool, len(values)) if flat.dtype.kind == "c" else np.zeros(len(values), bool)
    return _Columns(ns, counts, np.fromiter(map(len, values), np.intp, len(values)), flat, cplx)


def _join(points) -> _Columns:
    """The columns of many block vectors; columns are taken as they are."""
    if isinstance(points, _Columns):
        return points
    parts = [x.columns for x in points]
    if len(parts) < 2:
        return parts[0] if parts else _read_items([])
    return _Columns(*map(np.concatenate, zip(*parts)))


@dataclass(frozen=True)
class BlockVector:
    """Finitely supported vector over the blocks; index -> coordinate array.

    Entries are stored sorted by block index and are immutable.  Every block
    vector is read by ``_read_items``, from its pairs here and from a dict in
    :meth:`from_dict`, and keeps the ``columns`` read; each block of
    ``items`` views them.
    """

    items: tuple

    def __post_init__(self):
        self._hold(_read_items([[(_check_index(n), arr) for n, arr in self.items]]))

    def _hold(self, columns: _Columns) -> "BlockVector":
        stops = list(itertools.accumulate(columns.sizes.tolist(), initial=0))
        blocks = map(columns.flat.__getitem__, map(slice, stops, stops[1:]))
        if columns.flat.dtype.kind == "c":
            blocks = [block if c else block.real for block, c in zip(blocks, columns.cplx.tolist())]
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "items", tuple(zip(columns.ns.tolist(), blocks)))
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "BlockVector":
        """The block vector of an ``{index: coordinates}`` dict, whose keys ``int`` reads."""
        return object.__new__(cls)._hold(_read_items((d.items(),)))

    @property
    def support(self) -> tuple:
        return tuple(n for n, _ in self.items)

    def scale(self, t: float) -> "BlockVector":
        # the indices stay as read, and the scaled coordinates are checked again
        flat = _checked(self.columns.flat * t)
        flat.flags.writeable = False
        return object.__new__(BlockVector)._hold(self.columns._replace(flat=flat))


def nakano_modular(spec: NakanoSpec, x: BlockVector) -> float:
    """Theta(x) = sum over the support of ||x(n)|| ** p_n."""
    return modular_eval(NakanoModular(spec), x)


def _lp_exponent(blk) -> float:
    kind = type(blk)
    return 2.0 if kind is Euclid else blk.p if kind is Lp else 0.0


@dataclass(frozen=True)
class NakanoModular(ConvexModular):
    """ConvexModular wrapper around a NakanoSpec."""

    spec: NakanoSpec

    def batch_terms(self, points):
        """The block norms and exponents of all points, read in one pass.

        ``points`` are block vectors, whose columns are joined, or columns.
        The exponents come from one ``values`` call over the index column,
        and each distinct index gets one ``block`` call.  Real blocks of an
        l_p or Euclidean space are gathered by dimension from the coordinate
        column and normed by one :func:`spaces.lp_norms_stack` call per
        dimension, with the bits of ``blk.norm``; every other block, complex
        ones included, goes through ``blk.norm`` and keeps its errors.
        """
        ns, counts, sizes, flat, cplx = _join(points)
        exps = self.spec.exponents.values(ns)
        if not ns.size:
            return np.empty(0), exps, counts
        # each distinct index's block, its dimension and its l_p exponent
        # (0 for a block that is not l_p or Euclidean)
        ns_list = ns.tolist()
        blks = {n: self.spec.blocks.block(n, p) for n, p in dict(zip(ns_list, exps.tolist())).items()}
        dim_of = {n: blk.dim for n, blk in blks.items()}
        p_of = {n: _lp_exponent(blk) for n, blk in blks.items()}
        dims = np.fromiter(map(dim_of.__getitem__, ns_list), np.intp, ns.size)
        bad = sizes != dims
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise ValueError(f"block {ns_list[i]} has {sizes[i]} coordinates, expected {dims[i]}")
        ps = np.fromiter(map(p_of.__getitem__, ns_list), float, ns.size)
        if flat.dtype.kind != "c" and 0.0 not in p_of.values() and len(set(dim_of.values())) == 1:
            # one stack takes every block, in order
            return spaces.lp_norms_stack(flat.reshape(ns.size, -1), ps), exps, counts
        stacked = (ps > 0.0) & ~cplx
        norms = np.empty(ns.size)
        ends = np.cumsum(sizes)
        starts, real = ends - sizes, flat.real
        for i in np.flatnonzero(~stacked).tolist():
            norms[i] = blks[ns_list[i]].norm((flat if cplx[i] else real)[starts[i]:ends[i]])
        for d in np.unique(dims[stacked]).tolist():
            rows = np.flatnonzero(stacked & (dims == d))
            norms[rows] = spaces.lp_norms_stack(real[starts[rows, None] + np.arange(d)], ps[rows])
        return norms, exps, counts


def nakano_norm(spec: NakanoSpec, x: BlockVector) -> float:
    """Luxemburg norm of a block vector in the Nakano space."""
    return luxemburg_norm(NakanoModular(spec), x)


def nakano_norms(spec: NakanoSpec, vectors) -> np.ndarray:
    """The Luxemburg norms of many vectors of ``(index, block)`` pairs, read in one pass with BlockVector's checks."""
    return luxemburg_norms(NakanoModular(spec), _read_items(vectors))


def _unit_block(spec: NakanoSpec, n: int) -> np.ndarray:
    """The first basis direction of block n, scaled to norm one."""
    blk = spec.block(n)
    e = np.zeros(blk.dim)
    e[0] = 1.0
    return e / blk.norm(e)


# ---------------------------------------------------------------------------
# summability test for the equivalent hilbertian norm


def _check_c(c: float) -> float:
    if not (0.0 < c < 1.0):
        raise ValueError(f"c must lie in (0, 1), got {c!r}")
    return c


def _log_terms(exponents, ns: np.ndarray, c: float) -> np.ndarray:
    _check_c(c)
    ps = exponents.values(ns)
    gap = np.abs(ps - 2.0)
    if np.any(gap == 0.0):
        where = int(ns[np.argmax(gap == 0.0)])
        raise ValueError(f"exponent equals 2 at index {where}; the series is undefined there")
    return (2.0 * ps / gap) * math.log(c)


@dataclass(frozen=True)
class ConditionTermSeries:
    """First terms of sum c ** (2 p_n / |p_n - 2|)."""

    c: float
    indices: np.ndarray
    terms: np.ndarray
    log_terms: np.ndarray


def nakano_condition_terms(exponents, c: float, count: int = 64) -> ConditionTermSeries:
    """Terms t_n = c ** (2 p_n / |p_n - 2|) for n = 1..count.

    log t_n is computed directly from the exponent formula (the terms
    themselves may underflow to zero harmlessly).
    """
    if count < 2:
        raise ValueError("need at least two terms")
    ns = np.arange(1, count + 1)
    log_t = _log_terms(exponents, ns, c)
    with np.errstate(under="ignore"):
        terms = np.exp(log_t)
    return ConditionTermSeries(float(c), ns, terms, log_t)


@dataclass(frozen=True)
class ConditionVerdict:
    c: float
    verdict: str


@dataclass(frozen=True)
class ConditionReport:
    verdicts: tuple
    overall: str
    critical_c: float


def nakano_condition_verdict(exponents, c_grid) -> ConditionReport:
    """Decide whether sum c ** (2 p_n / |p_n - 2|) converges, for each c on the grid.

    The series is Nakano's condition for l_(p_n) = l_2 with equivalent norms
    (Nakano, Modulared sequence spaces, Proc. Japan Acad. 27, 1951;
    Lindenstrauss-Tzafriri, Classical Banach Spaces I, 1977, Ch. 4).  With
    r_n = 2 p_n / |p_n - 2| and sigma = sign(a), every family has a closed
    form, and the series converges exactly for c < critical_c:

    - power, p_n = 2 + a / n**s: r_n = 4 n**s / |a| + 2 sigma, so
      critical_c = 1 (every c converges);
    - log, p_n = 2 + a / log(n + b): c ** r_n = c ** (2 sigma) *
      (n + b) ** (4 ln c / |a|), so critical_c = exp(-|a| / 4), where the
      series diverges;
    - loglog: c ** r_n = c ** (2 sigma) * log(n + b) ** (4 ln c / |a|), so
      critical_c = 0 (no c converges);
    - constant p != 2: every term is the same positive number, so
      critical_c = 0.

    A constant p = 2 makes every term undefined, and a finite explicit list
    has no tail; both raise ValueError.  The overall verdict reports whether
    any c in the grid converges; critical_c = 0 says that no c at all does.
    """
    c_grid = [_check_c(float(c)) for c in c_grid]
    if not c_grid:
        raise ValueError("the c grid must not be empty")
    critical_c = exponents.critical_c()
    verdicts = tuple(ConditionVerdict(c, "converges" if c < critical_c else "diverges") for c in c_grid)
    overall = SOME_CONVERGES if any(v.verdict == "converges" for v in verdicts) else NONE_IN_GRID
    return ConditionReport(verdicts, overall, critical_c)


# ---------------------------------------------------------------------------
# space descriptions read from JSON


#: each exponent kind's constructor and the keys of its description
_EXPONENT_KINDS = {
    "constant": (ConstantExponents, {"p": (as_real, REQUIRED)}),
    "explicit": (lambda values: ExplicitExponents(values), {"values": (_list_reader(as_real), REQUIRED)}),
    "power": (functools.partial(FormulaExponents, "power"), {"a": (as_real, REQUIRED), "s": (as_real, 1.0)}),
    "log": (functools.partial(FormulaExponents, "log"), {"a": (as_real, REQUIRED), "b": (as_real, 0.0)}),
    "loglog": (functools.partial(FormulaExponents, "loglog"), {"a": (as_real, REQUIRED), "b": (as_real, 0.0)}),
}


_SPACES = (_list_reader(space_from_dict), REQUIRED)
#: each block kind's constructor and the keys of its description
_BLOCK_KINDS = {
    "scalar": (lambda: _SCALAR, {}),
    "uniform": (UniformBlocks, {"space": (space_from_dict, REQUIRED)}),
    "cycle": (lambda spaces: CycledBlocks(spaces), {"spaces": _SPACES}),
    "list": (lambda spaces: ExplicitBlocks(spaces), {"spaces": _SPACES}),
    "lp_matched": (MatchedLpBlocks, {"d": _DIM}),
}


_SPEC_KEYS = {"exponents": (functools.partial(_read_kind, _EXPONENT_KINDS), REQUIRED),
              "blocks": (functools.partial(_read_kind, _BLOCK_KINDS), _SCALAR)}


def spec_from_dict(d: dict, where: str = "nakano") -> NakanoSpec:
    """A Nakano space from its JSON description; ``where`` is its path in error messages."""
    return NakanoSpec(**_read_object(_SPEC_KEYS, d, where))
