import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbanach.modular import (
    DirectSumModular,
    LuxemburgSpace,
    NumericalFailure,
    PowerModular,
    delta2_constant,
    luxemburg_norm,
    luxemburg_norms,
    modular_eval,
    modular_sum_norm_with_scalar,
    scalar_sum_expansion_ratio,
    square,
)
from modbanach.nakano import BlockVector, ExplicitExponents, MatchedLpBlocks, NakanoModular, NakanoSpec
from modbanach.spaces import Euclid, Lp

import oracles

GOLDEN = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)


# direct-sum modulars take one vector per part, so test points mirror the
# shape argument: an int for atomic kinds, a tuple of ints for sums
def _kinds():
    return [
        (square(Euclid(3)), 3),
        (PowerModular(Lp(3.0, 2), 3.0), 2),
        (PowerModular(Lp(4.0, 2), 4.0), 2),
        (PowerModular(Lp(1.5, 4), 2.5), 4),
        (DirectSumModular((square(Euclid(2)), PowerModular(Lp(4.0, 2), 4.0))), (2, 2)),
        (DirectSumModular((PowerModular(Lp(3.0, 1), 3.0), square(Euclid(1)))), (1, 1)),
    ]


def _point(rng, shape, scale=1.0):
    if isinstance(shape, tuple):
        return tuple(_point(rng, s, scale) for s in shape)
    return rng.standard_normal(shape) * scale


def _zero(shape):
    if isinstance(shape, tuple):
        return tuple(_zero(s) for s in shape)
    return np.zeros(shape)


def _scale(point, t):
    if isinstance(point, tuple):
        return tuple(_scale(p, t) for p in point)
    return t * point


def _add(a, b):
    if isinstance(a, tuple):
        return tuple(_add(p, q) for p, q in zip(a, b))
    return a + b


def test_modular_eval_examples():
    assert modular_eval(square(Euclid(2)), np.array([3.0, 4.0])) == 25.0
    ds = DirectSumModular((square(Euclid(1)), PowerModular(Lp(3.0, 1), 3.0)))
    assert modular_eval(ds, (np.array([2.0]), np.array([1.0]))) == 5.0
    assert modular_eval(PowerModular(Lp(4.0, 2), 4.0), np.array([1.0, 1.0])) == pytest.approx(2.0, rel=1e-14)


def test_direct_sum_additivity_exact():
    rng = np.random.default_rng(1)
    parts = (square(Euclid(2)), PowerModular(Lp(3.0, 3), 3.0))
    ds = DirectSumModular(parts)
    for _ in range(20):
        a, b = rng.standard_normal(2), rng.standard_normal(3)
        total = modular_eval(parts[0], a) + modular_eval(parts[1], b)
        assert modular_eval(ds, (a, b)) == total


def test_modular_axioms_sampled():
    rng = np.random.default_rng(2)
    for theta, shape in _kinds():
        assert modular_eval(theta, _zero(shape)) == 0.0
        for _ in range(10):
            x = _point(rng, shape)
            y = _point(rng, shape)
            t = rng.uniform()
            assert modular_eval(theta, _scale(x, -1.0)) == pytest.approx(modular_eval(theta, x), rel=1e-14)
            assert modular_eval(theta, x) > 0.0
            lhs = modular_eval(theta, _add(_scale(x, t), _scale(y, 1 - t)))
            rhs = t * modular_eval(theta, x) + (1 - t) * modular_eval(theta, y)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_delta2_constant():
    assert delta2_constant(square(Euclid(5))) == 4.0
    assert delta2_constant(PowerModular(Lp(2.0, 1), 3.0)) == 8.0
    mixed = DirectSumModular((square(Euclid(1)), PowerModular(Lp(3.0, 1), 2.5)))
    assert delta2_constant(mixed) == pytest.approx(2.0 ** 2.5, rel=1e-15)


def test_delta2_bound_sampled():
    rng = np.random.default_rng(3)
    for theta, shape in _kinds():
        c = delta2_constant(theta)
        for _ in range(10):
            x = _point(rng, shape)
            assert modular_eval(theta, _scale(x, 2.0)) <= c * modular_eval(theta, x) * (1.0 + 1e-12)


def test_luxemburg_zero_is_zero():
    assert luxemburg_norm(square(Euclid(3)), np.zeros(3)) == 0.0


def test_luxemburg_power_equals_space_norm():
    # for a single power modular the unit ball is the space's own unit ball
    rng = np.random.default_rng(4)
    for q in (1.0, 2.0, 3.7):
        theta = PowerModular(Lp(3.0, 4), q)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert luxemburg_norm(theta, x) == pytest.approx(Lp(3.0, 4).norm(x), rel=1e-12)


def test_luxemburg_two_squares_is_hypot():
    ds = DirectSumModular((square(Euclid(1)), square(Euclid(1))))
    assert luxemburg_norm(ds, (np.array([3.0]), np.array([4.0]))) == pytest.approx(5.0, rel=1e-13)


def test_luxemburg_golden_ratio_closed_form():
    # exponents (2, 4) on scalars, x = (1, 1): with u = 1/lam^2 the defining
    # equation becomes u + u^2 = 1, so lam^2 = (1 + sqrt 5)/2
    ds = DirectSumModular((square(Euclid(1)), PowerModular(Euclid(1), 4.0)))
    assert luxemburg_norm(ds, (np.array([1.0]), np.array([1.0]))) == pytest.approx(GOLDEN, abs=1e-10)


def test_luxemburg_matches_naive_bisection():
    rng = np.random.default_rng(5)
    for theta, shape in _kinds():
        for scale in (1e-6, 1.0, 1e6):
            x = _point(rng, shape, scale)
            lam = luxemburg_norm(theta, x)
            ref = oracles.luxemburg_bisect(
                lambda v: modular_eval(theta, _scale(x, v)), 1.0,
            )
            assert lam == pytest.approx(ref, rel=1e-12)


def test_luxemburg_residual_contract():
    rng = np.random.default_rng(6)
    for theta, shape in _kinds():
        for _ in range(50):
            x = _point(rng, shape, 10.0 ** rng.integers(-8, 9))
            lam = luxemburg_norm(theta, x)
            assert abs(modular_eval(theta, _scale(x, 1.0 / lam)) - 1.0) <= 1e-14


def test_luxemburg_rejects_nonfinite():
    with pytest.raises(ValueError):
        luxemburg_norm(square(Euclid(2)), np.array([np.nan, 1.0]))


def test_luxemburg_overflowing_modular_is_numerical_failure():
    # the l_1 norm of the block overflows, so the modular has no finite value
    theta = PowerModular(Lp(1.0, 2), 2.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="modular value is not finite"):
        luxemburg_norm(theta, np.array([1e308, 1e308]))
    assert issubclass(NumericalFailure, ValueError)


def test_scale_profile_matches_direct_eval():
    rng = np.random.default_rng(7)
    for theta, shape in _kinds():
        x = _point(rng, shape)
        prof = theta.profile(x)
        for t in (0.25, 1.0, 3.0):
            assert prof(t) == pytest.approx(modular_eval(theta, _scale(x, t)), rel=1e-13)


def test_modular_sum_norm_with_scalar_examples():
    assert modular_sum_norm_with_scalar(square(Euclid(2)), np.zeros(2), -3.0) == pytest.approx(3.0, rel=1e-13)
    assert modular_sum_norm_with_scalar(square(Euclid(2)), np.array([3.0, 4.0]), 12.0) == pytest.approx(13.0, rel=1e-12)
    got = modular_sum_norm_with_scalar(PowerModular(Lp(4.0, 1), 4.0), np.array([1.0]), 1.0)
    assert got == pytest.approx(GOLDEN, abs=1e-10)


def test_modular_sum_norm_agrees_with_explicit_direct_sum():
    # the scalar-augmented norm must be the same number as building the
    # augmented direct sum by hand and solving that; two code paths on purpose
    rng = np.random.default_rng(8)
    theta = PowerModular(Lp(3.0, 3), 3.0)
    augmented = DirectSumModular((theta, square(Euclid(1))))
    for _ in range(20):
        x = rng.standard_normal(3)
        t = rng.standard_normal()
        via_op = modular_sum_norm_with_scalar(theta, x, t)
        via_sum = luxemburg_norm(augmented, (x, np.array([t])))
        assert via_op == pytest.approx(via_sum, rel=1e-12)


def test_expansion_ratio_square_closed_form():
    # square over scalars: ratio = (sqrt(1+s^2) - 1) / (s^2/2) = 1 - s^2/4 + O(s^4)
    theta = square(Euclid(1))
    s = 0.01
    got = scalar_sum_expansion_ratio(theta, np.array([s]))
    exact = (math.sqrt(1.0 + s * s) - 1.0) / (s * s / 2.0)
    assert got == pytest.approx(exact, abs=1e-9)
    assert got == pytest.approx(0.999975, abs=1e-6)


def test_expansion_ratio_quartic_near_one():
    theta = PowerModular(Lp(4.0, 1), 4.0)
    got = scalar_sum_expansion_ratio(theta, np.array([0.1]))
    assert abs(got - 1.0) < 0.01


def test_expansion_ratio_monotone_toward_one():
    for theta in (square(Euclid(1)), PowerModular(Lp(4.0, 1), 4.0)):
        gaps = []
        for m in (1e-2, 1e-3, 1e-4):
            x = np.array([m ** (1.0 / theta.q)])
            ratio = scalar_sum_expansion_ratio(theta, x)
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] + 1e-6 >= gaps[1] >= gaps[2] - 1e-6


def test_expansion_ratio_domain_errors():
    theta = square(Euclid(1))
    with pytest.raises(ValueError):
        scalar_sum_expansion_ratio(theta, np.array([0.0]))
    with pytest.raises(ValueError):
        scalar_sum_expansion_ratio(theta, np.array([1.0]))  # modular value 1 > 0.1


_SCALES = (1.0, 1e-300, 1e-150, 1e150, 1e300)


def test_luxemburg_wide_rows_unpadded():
    # 300 terms per row take the unpadded path, grouped by exact count
    squares = DirectSumModular(tuple(square(Euclid(1)) for _ in range(300)))
    assert luxemburg_norm(squares, tuple(np.ones(1) for _ in range(300))) == pytest.approx(
        math.sqrt(300.0), rel=1e-12)
    theta = DirectSumModular(tuple(PowerModular(Euclid(1), (1.0, 4.0, 2.5)[k % 3]) for k in range(300)))
    rng = np.random.default_rng(14)
    x = tuple(rng.standard_normal(1) for _ in range(300))
    points = [_scale(x, s) for s in _SCALES]
    got = luxemburg_norms(theta, points)
    for point, lam in zip(points, got):
        assert abs(modular_eval(theta, _scale(point, 1.0 / lam)) - 1.0) <= 1e-14
    assert [float.hex(v) for v in got] == [float.hex(luxemburg_norm(theta, point)) for point in points]


def _pinned_kind_points():
    rng = np.random.default_rng(12)
    cases = []
    for theta, shape in _kinds():
        x = _point(rng, shape)
        cases += [(theta, _scale(x, s)) for s in _SCALES]
    # m == 1: the second term, (1e-12) ** 3, vanishes against the first
    ds = DirectSumModular((square(Euclid(1)), PowerModular(Lp(3.0, 1), 3.0)))
    cases.append((ds, (np.array([3.0]), np.array([3e-12]))))
    return cases


_PINNED_SPEC = NakanoSpec(
    ExplicitExponents((3.0, 2.0, 3.0, 1.5, 3.0, 2.5, 4.0, 3.0, 1.25, 2.0, 3.0, 6.0, 1.0, 2.2)),
    MatchedLpBlocks(2),
)


def _pinned_block_vectors():
    # 1 to 12 live blocks with a zero block among them, three of them at
    # extreme scales, an m == 1 vector and one with exponent 3 on every block
    rng = np.random.default_rng(13)
    base = []
    for live in range(1, 13):
        items = [(n, rng.standard_normal(2) * 10.0 ** rng.uniform(-3.0, 3.0)) for n in range(1, live + 2)]
        items[live // 2] = (items[live // 2][0], np.zeros(2))
        base.append(BlockVector(tuple(items)))
    vecs = list(base)
    vecs += [x.scale(s) for x in (base[2], base[8], base[11]) for s in _SCALES[1:]]
    vecs.append(BlockVector(((1, np.array([1.0, 0.0])), (2, np.array([1e-12, 0.0])))))
    vecs.append(BlockVector(tuple((n, rng.standard_normal(2)) for n in (1, 3, 5, 8, 11))))
    return vecs


# float.hex of the norms above as the one-point-at-a-time Newton solve gives them
_KIND_NORMS = [
    '0x1.4847f15e99111p+0', '0x1.b7b1e7135314ap-997', '0x1.0ca5e3d0b041cp-498', '0x1.9126abc3fb43dp+498',
    '0x1.ea32461bb6213p+996', '0x1.aa69660c1ce01p+0', '0x1.1d909c82ebc83p-996', '0x1.5cf3f9685e43bp-498',
    '0x1.048839a890ea7p+499', '0x1.3e5d16e9b0766p+997', '0x1.3a1e385f1c967p+0', '0x1.a4b9a94eb68bbp-997',
    '0x1.010ec9cd2e125p-498', '0x1.7fd8215317e11p+498', '0x1.d50c440b61b86p+996', '0x1.de61b1dec7ddcp+0',
    '0x1.405e675eff39cp-996', '0x1.877b8387d7b2dp-498', '0x1.2448fb1a3415ep+499', '0x1.652a38d3c68b5p+997',
    '0x1.02068b5fc7e4dp+1', '0x1.59988420d4f7cp-996', '0x1.a64f29a4f7151p-498', '0x1.3b4cf8ce8d8dfp+499',
    '0x1.814a15c58de9ep+997', '0x1.ec38f8f4c22d1p+0', '0x1.49a34fc6a8b43p-996', '0x1.92cf2592191d1p-498',
    '0x1.2cbde0e10f99ep+499', '0x1.6f7fabf487760p+997', '0x1.8000000000000p+1',
]
_BLOCK_NORMS = [
    '0x1.3b0a973fd05acp+9', '0x1.0919c8ab4ba62p+9', '0x1.2331e698a10e4p+1', '0x1.4c5e0e5463903p+9',
    '0x1.124722f93643cp+9', '0x1.de40efcc8d0b1p+5', '0x1.13796f43cf889p+10', '0x1.131767e738134p+10',
    '0x1.24f96b83fa9d8p+8', '0x1.2b5d239e5eac3p+8', '0x1.43839c814e87bp+8', '0x1.7b0aa2da6b372p+10',
    '0x1.8605b7c6cb5c0p-996', '0x1.dc98ecfb87060p-498', '0x1.63d53175964ccp+499', '0x1.b2d19037b7bc7p+997',
    '0x1.8867d575c352fp-989', '0x1.df8278cccbce5p-491', '0x1.6601d37a798c1p+506', '0x1.b579c12b749ffp+1004',
    '0x1.fbaecf4dd0811p-987', '0x1.3630110ff3d9dp-488', '0x1.cf2ddafaf350fp+508', '0x1.1aff1dd4354a5p+1007',
    '0x1.0000000000000p+0', '0x1.7a6b81e5198b7p+1',
]


def test_luxemburg_norm_bits_pinned():
    got = [float.hex(luxemburg_norm(theta, x)) for theta, x in _pinned_kind_points()]
    assert got == _KIND_NORMS
    theta = NakanoModular(_PINNED_SPEC)
    assert [float.hex(luxemburg_norm(theta, x)) for x in _pinned_block_vectors()] == _BLOCK_NORMS


def test_luxemburg_norms_batch_keeps_pinned_bits():
    # one mixed batch: rows of 1 to 7 live terms share a padded block, rows
    # of 8 to 12 each get their own; reversed so the two kinds interleave
    vecs = _pinned_block_vectors()[::-1]
    got = luxemburg_norms(NakanoModular(_PINNED_SPEC), vecs)
    assert got.dtype == float
    assert [float.hex(v) for v in got] == _BLOCK_NORMS[::-1]
    cases = _pinned_kind_points()
    for k, (theta, _) in enumerate(_kinds()):
        points = [x for _, x in cases[5 * k:5 * k + 5]]
        assert [float.hex(v) for v in luxemburg_norms(theta, points)] == _KIND_NORMS[5 * k:5 * k + 5]


def test_luxemburg_space_norm_batch():
    space = LuxemburgSpace((square(Euclid(2)), PowerModular(Lp(4.0, 2), 4.0)))
    assert space.dim == 4
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((6, 4))
    xs[2] = 0.0
    got = space.norm_batch(xs)
    assert got.tolist() == [space.norm(x) for x in xs]
    assert got[2] == 0.0
    empty = space.norm_batch(np.zeros((0, 4)))
    assert empty.shape == (0,) and empty.dtype == float


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    t=st.floats(-100.0, 100.0),
)
def test_luxemburg_norm_is_homogeneous(coords, t):
    theta = DirectSumModular((square(Euclid(1)), PowerModular(Lp(3.0, 2), 3.0)))
    x = (np.asarray(coords[:1]), np.asarray(coords[1:]))
    lam = luxemburg_norm(theta, x)
    scaled = luxemburg_norm(theta, _scale(x, t))
    assert scaled == pytest.approx(abs(t) * lam, rel=1e-10, abs=1e-250)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    b=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
)
def test_luxemburg_norm_triangle(a, b):
    theta = DirectSumModular((square(Euclid(2)), PowerModular(Lp(4.0, 1), 4.0)))
    x = (np.asarray(a[:2]), np.asarray(a[2:]))
    y = (np.asarray(b[:2]), np.asarray(b[2:]))
    nx, ny = luxemburg_norm(theta, x), luxemburg_norm(theta, y)
    assert luxemburg_norm(theta, _add(x, y)) <= nx + ny + 1e-10 * max(1.0, nx + ny)


def test_unit_ball_characterization():
    # modular at most 1 exactly when the norm is at most 1
    rng = np.random.default_rng(10)
    theta = DirectSumModular((square(Euclid(2)), PowerModular(Lp(4.0, 2), 4.0)))
    for _ in range(200):
        x = _point(rng, (2, 2), rng.uniform(0.2, 2.0))
        m = modular_eval(theta, x)
        lam = luxemburg_norm(theta, x)
        if m < 1.0 - 1e-12:
            assert lam <= 1.0 + 1e-10
        elif m > 1.0 + 1e-12:
            assert lam >= 1.0 - 1e-10


def test_empty_direct_sum_rejected():
    with pytest.raises(ValueError):
        DirectSumModular(())
