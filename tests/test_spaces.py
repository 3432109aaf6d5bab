import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modbanach.modular import LuxemburgSpace, PowerModular, square
from modbanach.spaces import (
    INF,
    Euclid,
    Lp,
    Schatten,
    TwoSum,
    dual_exponent,
    lp_norms_stack,
    reduce_rows,
    singular_values_stack,
    space_from_dict,
    space_to_dict,
)

import oracles


def test_lp_norm_matches_direct_power_sum():
    rng = np.random.default_rng(7)
    for p in (1.0, 1.5, 2.0, 2.5, 4.0, 7.3):
        for d in (1, 2, 5, 17):
            space = Lp(p, d)
            x = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            assert space.norm(x) == pytest.approx(oracles.lp_norm_direct(x, p), rel=1e-14)


def test_lp_inf_is_max_abs():
    space = Lp(INF, 4)
    assert space.norm(np.array([1.0, -3.0, 2.0, 0.0])) == 3.0


def test_lp_norm_overflow_safe():
    # max-scaling keeps huge/tiny vectors finite where the naive sum overflows
    space = Lp(4.0, 3)
    big = np.array([1e200, 1e200, 0.0])
    assert space.norm(big) == pytest.approx(1e200 * 2.0 ** 0.25)
    tiny = np.array([1e-210, 0.0, 1e-210])
    # abs=0: the default absolute slack of 1e-12 would accept 0 here
    assert space.norm(tiny) == pytest.approx(1e-210 * 2.0 ** 0.25, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, INF])
def test_one_coordinate_norm_is_abs(p):
    for v in (5e-324, 1e-300, 1.0, 1e300):
        for x in (v, -v):
            assert Lp(p, 1).norm(np.array([x])) == v
            assert Euclid(1).norm(np.array([x])) == v


def test_euclid_is_l2():
    x = np.array([3.0, 4.0])
    assert Euclid(2).norm(x) == 5.0
    assert Lp(2.0, 2).norm(x) == pytest.approx(5.0)


def test_norm_batch_agrees_with_scalar_norm():
    rng = np.random.default_rng(0)
    for space in (Lp(3.0, 4), Euclid(6), Schatten(4.0, 3), TwoSum((Lp(4.0, 2), Euclid(3)))):
        if isinstance(space, Schatten):
            xs = rng.standard_normal((8, space.d, space.d)) + 1j * rng.standard_normal((8, space.d, space.d))
        else:
            xs = rng.standard_normal((8, space.dim))
        got = space.norm_batch(xs)
        expected = [space.norm(x) for x in xs]
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-300])
def test_norm_batch_agrees_with_scalar_norm_at_extreme_scales(scale):
    # sums of squared part norms, and the m* m of Schatten, overflow at 1e200
    # and drown at 1e-170
    spaces = (
        Lp(4.0, 3),
        Euclid(3),
        TwoSum((Lp(4.0, 2), Euclid(3))),
        Schatten(4.0, 3),
        LuxemburgSpace((square(Euclid(2)), PowerModular(Lp(4.0, 2), 4.0))),
    )
    for space in spaces:
        x = np.ones(space.dim) * scale
        want = space.norm(np.ones(space.dim)) * scale
        # explicit relative check: approx would add an absolute 1e-12 slack
        for got in (space.norm_batch(x[None, :])[0], space.norm(x)):
            assert abs(got - want) <= 1e-14 * want


_BIT_PS = (1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, INF)
_BIT_SCALES = (5e-324, 1e-300, 1.0, 1e300)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _axis_lp_rows(a, p):
    """Row l_p norms with numpy's axis reductions: the formula the kernels had
    before they reduced short rows column by column."""
    m = a.max(axis=1)
    if p == INF:
        return m
    if p == 1.0:
        return a.sum(axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    out = safe * np.power(a / safe[:, None], p).sum(axis=1) ** (1.0 / p)
    return np.where(m > 0.0, out, m)


def _axis_lp_norms_stack(xs, ps):
    a = np.abs(xs)
    m = a.max(axis=1)
    if a.shape[1] == 1:
        return m
    out = np.where(ps == 1.0, a.sum(axis=1), m)
    root = np.flatnonzero((m > 0.0) & (ps != 1.0) & (ps < INF))
    if root.size:
        mr, pr = m[root], ps[root, None]
        r = a[root] / mr[:, None]
        sums = np.where(pr == 2.0, r * r, np.power(r, pr)).sum(axis=1)
        # numpy roots a scalar ** 0.5 by sqrt, every other exponent by its power
        out[root] = mr * np.where(pr[:, 0] == 2.0, np.sqrt(sums), np.power(sums, 1.0 / pr[:, 0]))
    return out


def _bit_rows(rng, d, scale, special=True):
    xs = rng.standard_normal((60, d)) * scale
    if special:
        xs[1] = 0.0
        xs[2, -1] = np.nan
        xs[3, 0] = np.inf
        xs[4, :] = -np.inf
    return xs


@pytest.mark.parametrize("d", [*range(1, 10), 15, 16, 17, 64, 127, 128, 129, 300])
def test_row_kernels_keep_axis_reduction_bits(d):
    # every width is reduced column by column: left to right under 8 columns,
    # then 8 running sums, then split in halves above 128
    rng = np.random.default_rng(100 + d)
    with np.errstate(over="ignore", invalid="ignore"):
        _check_row_kernel_bits(rng, d)


def _check_row_kernel_bits(rng, d):
    for scale in _BIT_SCALES:
        xs = _bit_rows(rng, d, scale)
        for p in _BIT_PS:
            assert np.array_equal(_bits(Lp(p, d).norm_batch(xs)), _bits(_axis_lp_rows(np.abs(xs), p)))
        assert np.array_equal(_bits(Euclid(d).norm_batch(xs)), _bits(_axis_lp_rows(np.abs(xs), 2.0)))
        assert Lp(3.0, d).norm_batch(xs[:0]).shape == Euclid(d).norm_batch(xs[:0]).shape == (0,)
        ps = rng.choice(_BIT_PS, size=xs.shape[0])
        want = _axis_lp_norms_stack(xs, ps)
        got = lp_norms_stack(xs, ps)
        assert np.array_equal(_bits(got), _bits(want))
        for x, p, g in zip(xs, ps, got):
            if np.isfinite(x).all():
                assert _bits(g) == _bits(Lp(p, d).norm(x))
        assert lp_norms_stack(xs[:0], ps[:0]).shape == (0,)
        if d > 17:
            # Lp reaches these widths; eigvalsh on d x d matrices would cost seconds
            continue
        # eigvalsh does not take non-finite matrices, so Schatten gets finite rows
        ms = (_bit_rows(rng, d * d, scale, special=False)
              + 1j * _bit_rows(rng, d * d, scale, special=False)).reshape(-1, d, d)
        ms[1] = 0.0
        s = singular_values_stack(ms)
        for p in _BIT_PS:
            assert np.array_equal(_bits(Schatten(p, d).norm_batch(ms)), _bits(_axis_lp_rows(s, p)))
        assert Schatten(3.0, d).norm_batch(ms[:0]).shape == (0,)


def test_lp_norms_stack_keeps_bits_on_mixed_exponent_rows():
    # 12k rows, squared and rooted or powered each on its own: the bits of
    # the formula that took both for every row and kept one
    rng = np.random.default_rng(12)
    for d in (2, 3, 7, 8, 9, 16):
        xs = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-300.0, 300.0, (2000, 1))
        xs[rng.uniform(size=2000) < 0.05] = 0.0
        ps = rng.choice(_BIT_PS + (2.0, 2.0), size=2000)
        free = rng.uniform(size=2000) < 0.3
        ps[free] = rng.uniform(1.0, 64.0, int(free.sum()))
        assert np.array_equal(_bits(lp_norms_stack(xs, ps)), _bits(_axis_lp_norms_stack(xs, ps)))
        for two in (ps == 2.0, ps != 2.0):
            assert np.array_equal(_bits(lp_norms_stack(xs[two], ps[two])),
                                  _bits(_axis_lp_norms_stack(xs[two], ps[two])))


def _hypothesis_space(kind, d, p):
    if kind == "lp":
        return Lp(p, d)
    if kind == "euclid":
        return Euclid(d)
    if kind == "schatten":
        return Schatten(p, d)
    half = (d + 1) // 2
    if kind == "two_sum":
        return TwoSum((Lp(p, half), Euclid(d - half)) if d > 1 else (Lp(p, 1),))
    first = PowerModular(Lp(p, half), 3.0)
    return LuxemburgSpace((first, square(Euclid(d - half))) if d > 1 else (first,))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["lp", "euclid", "schatten", "two_sum", "luxemburg"]),
       d=st.integers(1, 9), p=st.sampled_from(_BIT_PS),
       log_scale=st.floats(-320.0, 300.0), seed=st.integers(0, 2**32 - 1),
       height=st.integers(2, 40))
def test_scalar_and_batch_norms_agree_at_any_height(kind, d, p, log_scale, seed, height):
    # from subnormal scales (10 ** -320) up to 1e300
    space = _hypothesis_space(kind, d, p)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    if kind == "schatten":
        xs = (rng.standard_normal((height, d, d)) + 1j * rng.standard_normal((height, d, d))) * scale
    else:
        xs = rng.standard_normal((height, space.dim)) * scale
    tall = space.norm_batch(xs)
    for i in (0, height - 1):
        assert _bits(space.norm(xs[i])) == _bits(tall[i])
        assert _bits(space.norm_batch(xs[i:i + 1])) == _bits(tall[i:i + 1])


@st.composite
def _signed_stack(draw):
    """A signed stack of width 1-300, with rows of -0.0 and NaN and +-inf entries, and a layout of it."""
    width = draw(st.integers(1, 300))
    height = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((height, width)) * 10.0 ** rng.uniform(-300.0, 300.0, (height, 1))
    xs[rng.uniform(size=height) < 0.2] = -0.0
    for value in (np.nan, np.inf, -np.inf):
        xs[rng.uniform(size=height) < 0.1, rng.integers(width)] = value
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return xs, np.asfortranarray(xs)
    if layout == "strided":
        big = np.zeros((height, 2 * width))
        big[:, ::2] = xs
        return xs, big[:, ::2]
    return xs, xs


def _negative_zeros(width):
    xs = np.full((3, width), -0.0)
    return xs, xs


@settings(max_examples=150, deadline=None)
@given(case=_signed_stack(), ufunc=st.sampled_from([np.add, np.maximum, np.minimum]))
# numpy adds a row's sum to its start +0.0, so a row of -0.0 sums to +0.0
@example(case=_negative_zeros(8), ufunc=np.add)
@example(case=_negative_zeros(9), ufunc=np.add)
@example(case=_negative_zeros(129), ufunc=np.add)
def test_reduce_rows_is_numpys_row_reduce(case, ufunc):
    xs, layout = case
    with np.errstate(invalid="ignore"):
        want = ufunc.reduce(np.ascontiguousarray(xs), axis=1)
        assert np.array_equal(_bits(reduce_rows(ufunc, layout)), _bits(want))


@st.composite
def _layout_case(draw):
    """A space of width 1-12, 16 or 130 and a stack for it, with zero and NaN rows."""
    kind = draw(st.sampled_from(["lp", "euclid", "schatten", "two_sum"]))
    p = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, INF]))
    if kind == "schatten":
        d = draw(st.integers(1, 3))
        space, width = Schatten(p, d), d * d
    else:
        width = draw(st.integers(1, 12) | st.sampled_from([16, 130]))
        if kind == "two_sum" and width > 1:
            k = draw(st.integers(1, width - 1))
            space = TwoSum((Lp(p, k), Euclid(width - k)))
        else:
            space = Euclid(width) if kind == "euclid" else Lp(p, width)
    # wide stacks are capped at about as many entries as a 5000-row stack of width 12
    height = draw(st.integers(1, 60000 // max(width, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # row scales spread by 1e+-4 about 10 ** log_scale, kept inside the float range
    scale = 10.0 ** (draw(st.floats(-300.0, 300.0)) + rng.uniform(-4.0, 4.0, (height, 1)))
    xs = rng.standard_normal((height, width)) * scale
    if kind == "schatten":
        xs = xs + 1j * rng.standard_normal((height, width)) * scale
    xs[rng.uniform(size=height) < 0.05] = 0.0
    if kind != "schatten":  # eigvalsh does not take non-finite matrices
        xs[rng.uniform(size=height) < 0.05, rng.integers(width)] = np.nan
    return space, xs


@settings(max_examples=120, deadline=None)
@given(_layout_case())
def test_norm_batch_bits_do_not_depend_on_stack_layout(case):
    # rows are normed on the contiguous transposed stack: a Fortran-ordered
    # copy or a strided view of the same rows must give the bits of the
    # C-ordered stack, at widths under 8, to 128 and past 128
    space, xs = case
    big = np.zeros((xs.shape[0], 2 * xs.shape[1]), dtype=xs.dtype)
    big[:, ::2] = xs
    # the reference formula divides a NaN row by 1, not by its max, so its
    # powers may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        want = _bits(space.norm_batch(xs))
        for layout in (np.asfortranarray(xs), big[:, ::2]):
            assert np.array_equal(_bits(space.norm_batch(layout)), want)
        if isinstance(space, Lp):
            # and those are the bits of numpy's reductions along the rows
            assert np.array_equal(want, _bits(_axis_lp_rows(np.abs(xs), space.p)))


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, INF])
def test_schatten_norm_matches_svd_oracle(p):
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert Schatten(p, d).norm(m) == pytest.approx(oracles.schatten_norm_svd(m, p), rel=1e-12)


def test_schatten_closed_forms():
    # for [[1,2],[3,4]]: squared singular values solve s^2 - 30 s + 4 = 0,
    # so S_1 = sqrt(30 + 2*2) and S_2 = sqrt(30)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert Schatten(1.0, 2).norm(m) == pytest.approx(math.sqrt(34.0), abs=1e-12)
    assert Schatten(2.0, 2).norm(m) == pytest.approx(math.sqrt(30.0), abs=1e-12)
    assert Schatten(4.0, 2).norm(m) == pytest.approx(892.0 ** 0.25, abs=1e-12)
    assert Schatten(INF, 2).norm(m) == pytest.approx(math.sqrt(15.0 + math.sqrt(221.0)), abs=1e-12)


def test_schatten_accepts_flat_vectors():
    s = Schatten(2.0, 2)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert s.norm(m.ravel()) == s.norm(m)
    assert s.dim == 4


def test_singular_values_sorted_nonnegative():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4))
    s = singular_values_stack(m)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-10)


def test_real_spaces_reject_complex_input():
    with pytest.raises(TypeError, match="complex entries are only supported in Schatten"):
        Lp(3.0, 2).norm(np.array([1.0 + 1j, 0.0]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Euclid(3).norm(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Schatten(2.0, 2).norm(np.zeros((3, 3)))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        Lp(2.0, 2).norm(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Lp(2.0, 2).norm(np.array([np.inf, 0.0]))


def test_norm_batch_keeps_nan_rows():
    # the batch path does not validate, so a NaN row must stay NaN, never 0
    rows = np.array([[np.nan, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    for space in (Lp(3.0, 3), Euclid(3), TwoSum((Lp(3.0, 2), Euclid(1)))):
        got = space.norm_batch(rows)
        assert math.isnan(got[0])
        assert got[1] == 0.0
        assert got[2] == pytest.approx(space.norm(rows[2]), rel=1e-14)


def test_nan_row_powers_do_not_overflow():
    # a NaN row among large entries is divided by its NaN max, not by 1
    rows = np.array([[np.nan, 1e200, 1e200], [1.0, 2.0, 3.0]])
    with np.errstate(over="raise"):
        got = Lp(3.0, 3).norm_batch(rows)
    assert math.isnan(got[0]) and _bits(got[1]) == _bits(Lp(3.0, 3).norm(rows[1]))


def test_lp_validates_exponent():
    with pytest.raises(ValueError):
        Lp(0.5, 2)
    with pytest.raises(ValueError):
        Lp(2.0, 0)


def test_two_sum_is_hilbertian_combination():
    ts = TwoSum((Lp(4.0, 2), Euclid(3)))
    assert ts.dim == 5
    x = np.array([1.0, 1.0, 3.0, 0.0, 4.0])
    expected = math.hypot(Lp(4.0, 2).norm(x[:2]), 5.0)
    assert ts.norm(x) == pytest.approx(expected, rel=1e-14)
    assert ts.offsets() == [0, 2, 5]


def test_two_sum_rejects_schatten_parts():
    with pytest.raises(TypeError):
        TwoSum((Schatten(2.0, 2), Euclid(1)))


def test_norm_properties_random():
    rng = np.random.default_rng(23)
    spaces = [Lp(1.5, 4), Lp(3.0, 4), Euclid(4), TwoSum((Lp(4.0, 2), Euclid(2)))]
    for space in spaces:
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            t = rng.standard_normal()
            nx, ny = space.norm(x), space.norm(y)
            assert space.norm(t * x) == pytest.approx(abs(t) * nx, rel=1e-12, abs=1e-300)
            assert space.norm(x + y) <= nx + ny + 1e-12 * (nx + ny)
        assert space.norm(np.zeros(4)) == 0.0


def test_dual_exponent_table():
    assert dual_exponent(1.0) == INF
    assert dual_exponent(INF) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert dual_exponent(dual_exponent(4.0)) == pytest.approx(4.0, rel=1e-12)
    assert dual_exponent(3.0) == pytest.approx(1.5, rel=1e-15)


def test_holder_duality_random():
    # |<x, y>| <= ||x||_p ||y||_q with q the dual exponent
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0, 4.0):
        q = dual_exponent(p)
        for _ in range(25):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            lhs = abs(float(x @ y))
            rhs = Lp(p, 6).norm(x) * Lp(q, 6).norm(y)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_space_round_trip_through_dict():
    for space in (Lp(3.0, 4), Euclid(2), Schatten(1.5, 3), TwoSum((Lp(4.0, 2), Euclid(1)))):
        again = space_from_dict(space_to_dict(space))
        assert again == space


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        space_from_dict({"kind": "sobolev", "d": 2})
