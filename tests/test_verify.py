import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbanach.modular import modular_sum_norm_with_scalar
from modbanach.nakano import BlockVector, ExplicitExponents, FormulaExponents, NakanoModular, NakanoSpec, nakano_norm
from modbanach.sampling import structured_pairs
from modbanach.spaces import _operator_norm_bounds
from modbanach.verify import (
    PAIR_CHECKS,
    _worst_pair,
    clarkson_rhs,
    far_block_limit_gaps,
    reevaluate_witness,
    verify_beckner,
    verify_lp_pair,
    verify_pair,
)
from modbanach.spaces import Euclid, Lp, Schatten, TwoSum

import oracles


def bv(**blocks):
    return BlockVector(tuple((int(k[1:]), np.asarray(v, dtype=float)) for k, v in blocks.items()))


def test_clarkson_lower_holds():
    for space in (Lp(3.0, 3), Lp(4.0, 2), Schatten(2.5, 2)):
        rep = verify_pair("clarkson_lower", space, samples=2000, seed=0)
        assert rep.verdict == "holds"
        assert rep.max_violation <= 1e-12
        assert rep.samples > 2000  # structured pairs ride along


def test_clarkson_upper_holds():
    for space in (Lp(1.0, 3), Lp(1.5, 2), Schatten(1.5, 2)):
        rep = verify_pair("clarkson_upper", space, samples=2000, seed=0)
        assert rep.verdict == "holds"
        assert rep.max_violation <= 1e-12


def test_clarkson_exponent_domain():
    with pytest.raises(ValueError, match="p > 2"):
        verify_pair("clarkson_lower", Lp(1.5, 2), samples=10)
    with pytest.raises(ValueError, match="p < 2"):
        verify_pair("clarkson_upper", Lp(3.0, 2), samples=10)
    with pytest.raises(TypeError):
        verify_pair("clarkson_lower", Euclid(2), samples=10)
    with pytest.raises(ValueError, match="finite exponent"):
        verify_pair("clarkson_lower", Lp(math.inf, 2), samples=10)


def test_clarkson_rhs_meets_parallelogram_at_two():
    rng = np.random.default_rng(0)
    space = Lp(2.0, 3)
    x, y = rng.standard_normal((2, 5, 3))
    rhs = clarkson_rhs(space, 2.0, x, y)
    para = 2.0 * (space.norm_batch(x) ** 2 + space.norm_batch(y) ** 2)
    np.testing.assert_allclose(rhs, para, rtol=1e-13)


def test_clarkson_equality_on_disjoint_pairs():
    # disjoint unit vectors attain the bound: both sides are 2 * 2^(2/p)
    space = Lp(3.0, 2)
    x = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1.0]])
    lhs = (space.norm(x[0] + y[0]) ** 2 + space.norm(x[0] - y[0]) ** 2)
    rhs = clarkson_rhs(space, 3.0, x, y)[0]
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_parallelogram_dichotomy():
    assert verify_pair("parallelogram", Euclid(3), samples=500, seed=0).verdict == "holds"
    rep = verify_pair("parallelogram", Lp(4.0, 2), samples=500, seed=0)
    assert rep.verdict == "violated"
    assert rep.max_violation > 1e-3


def test_endpoint_two_collapses_to_parallelogram():
    rep = verify_pair("endpoint_2", Lp(2.0, 4), samples=500, seed=0)
    assert rep.check == "endpoint_2"
    assert rep.verdict == "holds"
    with pytest.raises(ValueError, match="p = 2"):
        verify_pair("endpoint_2", Lp(3.0, 2), samples=10)


def test_two_smooth_holds_with_optimal_constant():
    for p in (2.0, 3.0, 4.0):
        rep = verify_pair("two_smooth", Lp(p, 3), samples=1500, seed=0)
        assert rep.verdict == "holds"
        assert rep.params["c"] == pytest.approx(math.sqrt(p - 1.0), rel=1e-15)


def test_two_smooth_catches_false_constant():
    # c = 1 asserts the parallelogram upper bound, false in l_4: disjoint
    # unit vectors give lhs = 2 * 2^(1/2) > 4 = rhs ... in l_4 lhs = 2*sqrt(2)
    rep = verify_pair("two_smooth", Lp(4.0, 2), c=1.0, samples=200, seed=0)
    assert rep.verdict == "violated"
    # the structured pseudo-batch finds the disjoint pair deterministically
    expected = (2.0 * 2.0 ** 0.5 - 4.0) / 4.0
    assert rep.max_violation >= expected - 1e-12


def test_two_smooth_needs_constant_below_two():
    with pytest.raises(ValueError):
        verify_pair("two_smooth", Lp(1.5, 2), samples=10)  # no default c for p < 2


def test_schatten_inf_holds():
    rep = verify_pair("schatten_inf", Schatten(math.inf, 2), samples=1000, seed=0)
    assert rep.verdict == "holds"
    rep3 = verify_pair("schatten_inf", Schatten(math.inf, 3), samples=500, seed=1)
    assert rep3.verdict == "holds"
    # two batches and a part, so the screen runs on full batches
    rep4 = verify_pair("schatten_inf", Schatten(math.inf, 4), samples=9000, seed=2)
    assert rep4.verdict == "holds"


def test_schatten_inf_scores_few_pairs_exactly(monkeypatch):
    # each 4096-pair batch scores exactly its pair of highest ceiling and the
    # pairs that can reach that pair's violation: here at most 41 (1%), where
    # 10% is the bound; and the report is the one that scores every pair
    entry = PAIR_CHECKS["schatten_inf"]
    scored = []

    def counted(space, params, x, y):
        scored.append(len(x))
        return entry.batch(space, params, x, y)

    space = Schatten(math.inf, 4)
    plain = verify_pair("schatten_inf", space, samples=3 * 4096, seed=7)
    monkeypatch.setitem(PAIR_CHECKS, "schatten_inf", entry._replace(batch=counted))
    screened = verify_pair("schatten_inf", space, samples=3 * 4096, seed=7)
    assert json.dumps(screened.to_dict()) == json.dumps(plain.to_dict())
    # two calls per batch, the structured one first: the top pair, then the kept ones
    assert len(scored) == 8 and scored[::2] == [1] * 4
    assert all(n <= 41 for n in scored[3::2]), scored
    no_ceiling = entry._replace(batch=counted, ceiling=lambda space, params, x, y: None)
    monkeypatch.setitem(PAIR_CHECKS, "schatten_inf", no_ceiling)
    scored.clear()
    unscreened = verify_pair("schatten_inf", space, samples=3 * 4096, seed=7)
    assert scored == [len(structured_pairs(space))] + [4096] * 3
    assert json.dumps(unscreened.to_dict()) == json.dumps(plain.to_dict())


@st.composite
def _operator_pairs(draw):
    """(space, x, y): 1-5000 pairs in Schatten(inf, d), d = 1-5, at scales 1e-150 to 1e150.

    Gaussian pairs, with rows made zero, rank-one or a scaled matrix unit,
    y made 0 or +-x, pairs copied to later rows, the structured pairs, and
    some non-finite entries.
    """
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian():
        m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        return m * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1, 1))

    x, y = gaussian(), gaussian()
    same = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    y[same] *= np.abs(x[same, :1, :1]) / np.maximum(np.abs(y[same, :1, :1]), 1e-300)

    def rows(share):
        return np.flatnonzero(rng.uniform(size=n) < share)

    for m in (x, y):
        m[rows(draw(st.sampled_from([0.0, 0.05])))] = 0.0
        r = rows(draw(st.sampled_from([0.0, 0.1])))
        m[r] = (rng.standard_normal((len(r), d, 1)) + 1j * rng.standard_normal((len(r), d, 1))) * (
            rng.standard_normal((len(r), 1, d)) * 10.0 ** rng.uniform(-150.0, 150.0, (len(r), 1, 1)))
        r = rows(draw(st.sampled_from([0.0, 0.1, 0.5])))
        m[r] = 0.0
        m[r, rng.integers(d, size=len(r)), rng.integers(d, size=len(r))] = (
            rng.choice([1, -1, 1j, -1j], size=len(r)) * 10.0 ** rng.uniform(-150.0, 150.0, len(r)))
    r = rows(draw(st.sampled_from([0.0, 0.05])))
    y[r] = 0.0
    r = rows(draw(st.sampled_from([0.0, 0.1])))
    y[r] = rng.choice([1.0, -1.0], size=(len(r), 1, 1)) * x[r]
    if n > 1 and draw(st.booleans()):
        src = rng.integers(n - 1, size=n // 4 + 1)
        dst = src + 1 + rng.integers(n - 1 - src)
        x[dst], y[dst] = x[src], y[src]
    space = Schatten(math.inf, d)
    if draw(st.booleans()):
        pairs = structured_pairs(space)[:n]
        x[:len(pairs)] = [p[0] for p in pairs]
        y[:len(pairs)] = [p[1] for p in pairs]
    if draw(st.integers(0, 9)) == 0:
        bad = rng.integers(n, size=2)
        x[bad[0], 0, d - 1] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        y[bad[1], d - 1, 0] = draw(st.sampled_from([np.nan, np.inf]))
    return space, x, y


@settings(max_examples=100, deadline=None)
@given(_operator_pairs())
def test_screened_worst_pair_is_the_argmax(case):
    # the screen leaves out only pairs below the maximum, so it finds
    # np.argmax's pair and value, bit for bit
    space, x, y = case
    entry = PAIR_CHECKS["schatten_inf"]
    params = entry.params(space)
    screened = partial(_worst_pair, partial(entry.batch, space, params), partial(entry.ceiling, space, params))
    with np.errstate(all="ignore"):
        # d = 1 scores every pair, as if no pair had a finite ceiling
        ceiling = entry.ceiling(space, params, x, y)
        ceiling = np.full(len(x), np.nan) if ceiling is None else ceiling
        lo, hi = _operator_norm_bounds(x)
        try:
            v = entry.batch(space, params, x, y)
        except np.linalg.LinAlgError:
            # eigvalsh refuses a NaN, and the screen then fails as the plain batch does
            assert not np.isfinite(ceiling).all()
            with pytest.raises(np.linalg.LinAlgError):
                screened(x, y)
            return
        k, worst = screened(x, y)
        norms = space.norm_batch(x)
    assert (k, float.hex(worst)) == (int(np.argmax(v)), float.hex(float(v[np.argmax(v)])))
    finite = np.isfinite(ceiling)
    assert np.all(v[finite] <= ceiling[finite])
    bounded = np.isfinite(lo) & np.isfinite(hi) & np.isfinite(norms)
    assert np.all(lo[bounded] <= norms[bounded]) and np.all(norms[bounded] <= hi[bounded])


def test_beckner_grid():
    for p in (2.0, 2.5, 3.0, 4.0):
        rep = verify_beckner(p, grid=101)
        assert rep.verdict == "holds", p
    # equality at the endpoint: the two sides coincide identically
    rep2 = verify_beckner(2.0, grid=101)
    assert abs(rep2.max_violation) <= 1e-12
    with pytest.raises(ValueError):
        verify_beckner(1.5)


def test_lp_pair_basis_vectors():
    space = Lp(3.0, 4)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    rep = verify_lp_pair(space, x, y)
    assert rep.verdict == "holds"
    assert rep.max_violation <= 1e-12


def test_lp_pair_schatten_matrix_units():
    space = Schatten(3.0, 2)
    x = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    rep = verify_lp_pair(space, x, y)
    assert rep.verdict == "holds"


def test_lp_pair_rejects_unnormalized():
    space = Lp(3.0, 2)
    with pytest.raises(ValueError, match="normalized"):
        verify_lp_pair(space, np.array([2.0, 0.0]), np.array([0.0, 1.0]))


def test_lp_pair_flags_overlapping_pair():
    space = Lp(3.0, 2)
    x = np.array([1.0, 0.0])
    rep = verify_lp_pair(space, x, x)
    assert rep.verdict == "violated"
    assert rep.worst_witness[2][0] != 0.0  # a nonzero scalar witnesses it


def test_witness_reevaluation_matches_report():
    # one case per pair check; a check added to the table without a case fails here
    cases = {
        "clarkson_lower": (Schatten(3.0, 2), {}),
        "clarkson_upper": (Lp(1.5, 3), {}),
        "two_smooth": (Lp(4.0, 2), {"c": 1.0}),
        "schatten_inf": (Schatten(math.inf, 2), {}),
        "parallelogram": (Lp(4.0, 2), {}),
        "endpoint_2": (Lp(2.0, 3), {}),
    }
    reports = [
        verify_pair(check, cases[check][0], samples=300, seed=2, **cases[check][1])
        for check in PAIR_CHECKS
    ]
    reports += [
        verify_beckner(3.0, grid=51),
        verify_lp_pair(Lp(3.0, 2), np.array([1.0, 0.0]), np.array([1.0, 0.0])),
    ]
    assert {rep.check for rep in reports} == set(PAIR_CHECKS) | {"beckner", "lp_pair"}
    for rep in reports:
        assert reevaluate_witness(rep) == pytest.approx(rep.max_violation, abs=1e-10)


_WITNESS_SPACES = [
    Lp(1.0, 2), Lp(4.0 / 3.0, 2), Lp(1.5, 3), Lp(2.0, 2), Lp(2.0, 3), Lp(3.0, 2), Lp(3.0, 3),
    Lp(4.0, 2), Lp(math.inf, 2), Euclid(2), Euclid(3), Schatten(1.5, 2), Schatten(2.0, 2),
    Schatten(3.0, 2), Schatten(math.inf, 2), TwoSum((Lp(4.0, 2), Euclid(1))),
]


def _applies(check, space):
    try:
        PAIR_CHECKS[check].params(space)
    except (TypeError, ValueError):
        return False
    return True


@pytest.mark.parametrize("check", sorted(PAIR_CHECKS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(0, 300))
def test_witness_reevaluation_is_exact(check, data, seed, samples):
    # a witness's violation, recomputed in a batch of one, has the report's bits
    space = data.draw(st.sampled_from([s for s in _WITNESS_SPACES if _applies(check, s)]))
    rep = verify_pair(check, space, samples=samples, seed=seed)
    assert reevaluate_witness(rep) == rep.max_violation


def test_report_round_trips_to_json():
    rep = verify_pair("clarkson_lower", Schatten(3.0, 2), samples=300, seed=0)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["check"] == "clarkson_lower"
    assert back["verdict"] == "holds"


def test_reports_identical_across_jobs():
    one = verify_pair("clarkson_lower", Lp(3.0, 3), samples=9000, seed=5, jobs=1)
    many = verify_pair("clarkson_lower", Lp(3.0, 3), samples=9000, seed=5, jobs=8)
    assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(many.to_dict(), sort_keys=True)


def test_far_block_gaps_shrink():
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    x = bv(n1=[1.0], n2=[-0.5])
    gaps = far_block_limit_gaps(spec, x, 0.8, [10, 100, 1000, 10000])
    assert np.all(np.diff(gaps) <= 1e-12)
    assert gaps[-1] < 1e-4
    with pytest.raises(ValueError, match="inside the support"):
        far_block_limit_gaps(spec, x, 0.8, [2])


def test_far_block_gaps_match_single_solves():
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    x = bv(n1=[1.0], n3=[-0.5], n4=[2.0])
    schedule = [10, 30, 100, 300, 1000, 3000]
    gaps = far_block_limit_gaps(spec, x, 0.7, schedule)
    target = modular_sum_norm_with_scalar(NakanoModular(spec), x, 0.7)
    expected = [abs(nakano_norm(spec, oracles.block_sum(x, bv(**{f"n{n}": [0.7]}))) - target) for n in schedule]
    assert gaps.tolist() == expected
    # a later index inside the support is rejected too
    with pytest.raises(ValueError, match="schedule index 3 lies inside"):
        far_block_limit_gaps(spec, x, 0.7, [10, 3])


def test_far_block_gap_vanishes_at_exact_two():
    # with p_n = 2 beyond the support the augmented norm is already exact
    spec = NakanoSpec(ExplicitExponents((4.0, 2.0, 2.0, 2.0)))
    x = bv(n1=[1.0])
    gaps = far_block_limit_gaps(spec, x, 0.7, [2, 3, 4])
    assert np.all(gaps <= 1e-12)
