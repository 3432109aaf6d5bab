import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from modbanach.nakano import (
    P_MAX,
    BlockVector,
    ConstantExponents,
    CycledBlocks,
    ExplicitBlocks,
    ExplicitExponents,
    FormulaExponents,
    MatchedLpBlocks,
    NakanoModular,
    NakanoSpec,
    UniformBlocks,
    nakano_condition_terms,
    nakano_condition_verdict,
    nakano_modular,
    nakano_norm,
    nakano_norms,
    spec_from_dict,
)
from modbanach.geomconst import tail_parallelogram_defect
from modbanach.modular import NumericalFailure, _theta_rows, luxemburg_norm, luxemburg_norms, modular_eval
from modbanach.spaces import Euclid, Lp, Schatten

import oracles

GOLDEN = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)


def bv(**blocks):
    return BlockVector(tuple((int(k[1:]), np.asarray(v, dtype=float)) for k, v in blocks.items()))


# --- exponent families -----------------------------------------------------


def test_constant_exponents():
    e = ConstantExponents(2.5)
    assert e.values([1])[0] == 2.5
    assert e.values([10 ** 9])[0] == 2.5
    np.testing.assert_array_equal(e.values(np.array([1, 5])), [2.5, 2.5])


def test_explicit_exponents_strict_length():
    e = ExplicitExponents((2.0, 4.0, 3.0))
    assert e.values([2])[0] == 4.0
    with pytest.raises(ValueError, match="beyond the 3 explicit exponents"):
        e.values([4])


def test_formula_exponents_values():
    power = FormulaExponents("power", 1.0)
    assert power.values([1])[0] == 3.0
    assert power.values([4])[0] == 2.25
    log = FormulaExponents("log", 1.0, b=1.0)
    assert log.values([1])[0] == pytest.approx(2.0 + 1.0 / math.log(2.0))
    loglog = FormulaExponents("loglog", 1.0, b=3.0)
    assert loglog.values([1])[0] == pytest.approx(2.0 + 1.0 / math.log(math.log(4.0)))


_MONOTONE_NS = np.concatenate([np.arange(1, 4097), [10 ** 6, 10 ** 12]])


@settings(max_examples=300, deadline=None)
@given(form=st.sampled_from(["power", "log", "loglog"]),
       a=st.floats(-1e3, 1e3).filter(bool),
       b=st.one_of(st.floats(-2.0, 20.0), st.floats(20.0, 1e12)),
       s=st.floats(1e-6, 50.0))
def test_formula_exponents_monotone_to_two(form, a, b, s):
    # every accepted family moves toward 2 from n = 1 on, never crossing it,
    # so geomconst.clarkson_alpha_tail_bound reads the index past its horizon alone
    try:
        e = FormulaExponents(form, a, b, s)
    except ValueError:
        reject()
    vals = e.values(_MONOTONE_NS)
    assert np.all(np.diff(np.abs(vals - 2.0)) <= 0.0)
    assert np.all((vals - 2.0) * a >= 0.0)


@pytest.mark.parametrize("form", ["log", "loglog"])
@pytest.mark.parametrize("b", [-1.5, -math.inf, math.inf])
def test_formula_rejects_a_nan_or_infinite_denominator(form, b):
    # log(1 + b) is NaN for b < -1 and inf for b = inf; either is rejected,
    # and without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="family needs a finite"):
            FormulaExponents(form, 1.0, b)


def test_exponents_clipped_to_valid_range():
    with pytest.raises(ValueError):
        ConstantExponents(0.5)
    with pytest.raises(ValueError):
        ConstantExponents(P_MAX + 1.0)
    with pytest.raises(ValueError):
        ExplicitExponents((2.0, 0.0))


# --- block vectors ----------------------------------------------------------


def test_block_vector_basics():
    x = bv(n3=[1.0, 2.0], n1=[5.0])
    assert x.support == (1, 3)
    np.testing.assert_array_equal(dict(x.items)[3], [1.0, 2.0])
    assert 2 not in dict(x.items)
    with pytest.raises(ValueError):
        BlockVector(((1, np.array([1.0])), (1, np.array([2.0]))))


def test_block_vector_arithmetic():
    # scaling is the one arithmetic a block vector has; sums are oracles.block_sum
    x = bv(n1=[1.0], n2=[2.0])
    y = bv(n2=[3.0], n5=[1.0])
    s = oracles.block_sum(x, y)
    assert s.support == (1, 2, 5)
    np.testing.assert_array_equal(dict(s.items)[2], [5.0])
    d = oracles.block_sum(x, y, -1.0)
    np.testing.assert_array_equal(dict(d.items)[2], [-1.0])
    np.testing.assert_array_equal(dict(x.scale(-2.0).items)[1], [-2.0])
    assert not hasattr(x, "__add__") and not hasattr(x, "__sub__")


def test_block_vector_immutable():
    x = bv(n1=[1.0, 2.0])
    with pytest.raises(ValueError):
        dict(x.items)[1][0] = 9.0


def test_block_vector_copies_and_casts_each_block():
    src = np.array([1.0, 2.0])
    x = BlockVector(((1, src), (2, [3, 4]), (3, [1j, 2.0])))
    src[0] = 9.0
    blocks = dict(x.items)
    np.testing.assert_array_equal(blocks[1], [1.0, 2.0])
    assert blocks[2].dtype == float and blocks[3].dtype == complex
    assert not any(arr.flags.writeable for arr in blocks.values())
    with pytest.raises(ValueError):
        BlockVector(((1, ["a"]),))


def test_block_vector_round_trip():
    x = bv(n2=[1.0, -1.0], n7=[0.5])
    again = BlockVector.from_dict({"7": [0.5], "2": [1.0, -1.0]})
    assert again.support == x.support
    for (_, a), (_, b) in zip(again.items, x.items):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("ds,coordinates", [
    # blocks of one size, and of several
    ([{"3": [1.0, -2.0], "1": [0.5, 4]}, {}, {"2": [True, 1e-300]}], [0.5, 4.0, 1.0, -2.0, 1.0, 1e-300]),
    ([{"3": [1.0], "1": [0.5, 4, 7]}, {}, {"2": [False, -0.0]}], [0.5, 4.0, 7.0, 1.0, 0.0, -0.0]),
])
def test_from_dict_reads_one_read_only_array(ds, coordinates):
    xs = [BlockVector.from_dict(d) for d in ds]
    assert [x.support for x in xs] == [(1, 3), (), (2,)]
    for x in xs:
        base = x.columns.flat
        assert not base.flags.writeable
        assert all(arr.base is base and arr.dtype == float and not arr.flags.writeable for _, arr in x.items)
    assert [float.hex(v) for x in xs for v in x.columns.flat.tolist()] == [float.hex(v) for v in coordinates]
    assert [len(arr) for x in xs for _, arr in x.items] == [len(ds[0]["1"]), len(ds[0]["3"]), 2]
    # the batch read of the same dicts gives every vector the norm it has alone
    dims = {int(n): len(v) for d in ds for n, v in d.items()}
    spec = NakanoSpec(ConstantExponents(3.0), ExplicitBlocks(tuple(Euclid(dims[n]) for n in sorted(dims))))
    norms = nakano_norms(spec, (d.items() for d in ds))
    assert [float.hex(v) for v in norms.tolist()] == [float.hex(nakano_norm(spec, x)) for x in xs]


def test_from_dict_reads_other_forms_block_by_block():
    # a block that is not a list of numbers is coerced as BlockVector does
    x, y = BlockVector.from_dict({"1": 3.0, "2": [[1.0], [2.0]]}), BlockVector.from_dict({"1": np.array([1j, 2.0])})
    assert [arr.tolist() for _, arr in x.items] == [[3.0], [1.0, 2.0]]
    (_, y1), = y.items
    assert y1.dtype == complex and not y1.flags.writeable
    # a fault in a later vector of a batch read is found, as in the vector alone
    spec = NakanoSpec(ConstantExponents(2.0))
    for ds, match in [([{"2": [1.0]}, {"1": [1.0], "01": [2.0]}], "duplicate block index 1"),
                      ([{"1": [1.0]}, {"0": [1.0]}], "positive integer"),
                      ([{"1": [1.0]}, {"1": [math.inf]}], "non-finite")]:
        with pytest.raises(ValueError, match=match):
            nakano_norms(spec, (d.items() for d in ds))
        with pytest.raises(ValueError, match=match):
            BlockVector.from_dict(ds[1])
    # an integer beyond the float range is a ValueError on both ways of reading
    for block in ([10 ** 400], 10 ** 400):
        with pytest.raises(ValueError, match="too large for a float"):
            nakano_norms(spec, (d.items() for d in [{"1": [1.0]}, {"2": block}]))
        with pytest.raises(ValueError, match="too large for a float"):
            BlockVector(((1, block),))


# --- modular and norm -------------------------------------------------------


def test_scalar_modular_example():
    spec = NakanoSpec(ExplicitExponents((2.0, 4.0)))
    x = bv(n1=[1.0], n2=[1.0])
    assert nakano_modular(spec, x) == 2.0
    assert nakano_norm(spec, x) == pytest.approx(GOLDEN, abs=1e-10)


def test_norm_matches_naive_bisection():
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = rng.choice(np.arange(1, 30), size=5, replace=False)
        x = BlockVector(tuple((int(n), rng.standard_normal(1)) for n in idx))
        lam = nakano_norm(spec, x)
        ref = oracles.luxemburg_bisect(lambda v: nakano_modular(spec, x.scale(float(v))), 1.0)
        assert lam == pytest.approx(ref, rel=1e-12)


def test_vector_valued_blocks():
    spec = NakanoSpec(ConstantExponents(3.0), UniformBlocks(Euclid(2)))
    x = bv(n1=[3.0, 4.0], n2=[1.0, 0.0])
    # modular = 5^3 + 1^3
    assert nakano_modular(spec, x) == pytest.approx(126.0, rel=1e-13)
    prof_norm = nakano_norm(spec, x)
    assert prof_norm == pytest.approx(126.0 ** (1.0 / 3.0), rel=1e-12)


def test_matched_lp_blocks():
    spec = NakanoSpec(ExplicitExponents((3.0, 4.0)), MatchedLpBlocks(2))
    assert spec.block(1) == Lp(3.0, 2)
    assert spec.block(2) == Lp(4.0, 2)
    x = bv(n2=[1.0, 1.0])
    # block norm 2^(1/4), modular (2^(1/4))^4 = 2
    assert nakano_modular(spec, x) == pytest.approx(2.0, rel=1e-13)


def test_cycled_blocks():
    spec = NakanoSpec(ConstantExponents(2.0), CycledBlocks((Euclid(1), Euclid(2))))
    assert spec.block(1).dim == 1
    assert spec.block(2).dim == 2
    assert spec.block(3).dim == 1


def test_block_dimension_validated():
    spec = NakanoSpec(ConstantExponents(2.0), UniformBlocks(Euclid(2)))
    with pytest.raises(ValueError):
        nakano_modular(spec, bv(n1=[1.0]))


def test_batch_terms_reads_each_exponent_once():
    calls = []

    class CountingExponents(ExplicitExponents):
        def values(self, ns):
            calls.append(list(ns))
            return super().values(ns)

    spec = NakanoSpec(CountingExponents((2.0, 3.0, 4.0)), MatchedLpBlocks(2))
    x = BlockVector(((1, [1.0, 2.0]), (3, [0.5, -1.0])))
    norms, exps, counts = NakanoModular(spec).batch_terms((x,))
    assert calls == [[1, 3]]
    assert exps.tolist() == [2.0, 4.0]
    assert norms.tolist() == [Lp(2.0, 2).norm([1.0, 2.0]), Lp(4.0, 2).norm([0.5, -1.0])]
    assert counts.tolist() == [2]
    bad = BlockVector(((1, [1.0, 2.0]), (3, [1.0])))
    with pytest.raises(ValueError, match=r"^block 3 has 1 coordinates, expected 2$"):
        NakanoModular(spec).batch_terms((bad,))


def test_batch_terms_asks_each_distinct_index_for_its_block_once():
    calls = []

    class CountingBlocks(MatchedLpBlocks):
        def block(self, n, p):
            calls.append(n)
            return super().block(n, p)

    spec = NakanoSpec(FormulaExponents("power", 1.0), CountingBlocks(2))
    points = [BlockVector(((3, [1.0, 2.0]), (5, [0.5, 0.0]))), BlockVector(((1, [1.0, 1.0]), (3, [2.0, -1.0])))]
    norms, exps, counts = NakanoModular(spec).batch_terms(points)
    assert sorted(calls) == [1, 3, 5]
    ref_norms, ref_exps, ref_counts = oracles.nakano_block_terms(spec, points)
    assert _hex(norms) == _hex(ref_norms) and _hex(exps) == _hex(ref_exps)
    assert counts.tolist() == ref_counts == [2, 2]


_MIXED = NakanoSpec(FormulaExponents("power", 1.0),
                    CycledBlocks((Euclid(2), Lp(3.0, 3), Schatten(2.5, 2), Lp(1.0, 2), Euclid(1), Lp(math.inf, 2))))


def test_batch_terms_gather_mixed_blocks_bitwise():
    # blocks of five dimensions and kinds in one batch, a complex Schatten
    # block among them: each gets the bits of its own block's norm
    rng = np.random.default_rng(34)
    points = []
    for _ in range(30):
        idx = rng.choice(np.arange(1, 25), int(rng.integers(1, 10)), replace=False)
        blocks = []
        for n in idx:
            d = _MIXED.block(int(n)).dim
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-200.0, 200.0)
            if d == 4 and rng.uniform() < 0.5:
                v = v + 1j * rng.standard_normal(d)
            blocks.append((int(n), v))
        points.append(BlockVector(tuple(blocks)))
    norms, exps, counts = NakanoModular(_MIXED).batch_terms(points)
    ref_norms, ref_exps, ref_counts = oracles.nakano_block_terms(_MIXED, points)
    assert _hex(norms) == _hex(ref_norms)
    assert _hex(exps) == _hex(ref_exps)
    assert counts.tolist() == ref_counts
    empty = NakanoModular(_MIXED).batch_terms([BlockVector(()), BlockVector(())])
    assert empty[0].shape == empty[1].shape == (0,) and empty[2].tolist() == [0, 0]


# --- batch term extraction and the batch solve keep every bit ----------------

# (spec, block dimension): scalar, Euclidean, matched l_p, l_1, l_inf and
# Schatten blocks; the explicit exponents put p = 2 rows among other p
_BIT_SPECS = [
    (NakanoSpec(FormulaExponents("power", 1.0)), 1),
    (NakanoSpec(FormulaExponents("log", 1.0, b=1.0), UniformBlocks(Euclid(2))), 2),
    (NakanoSpec(FormulaExponents("power", 1.0), MatchedLpBlocks(2)), 2),
    (NakanoSpec(FormulaExponents("loglog", 1.0, b=3.0), MatchedLpBlocks(3)), 3),
    (NakanoSpec(ExplicitExponents(tuple(2.0 if k % 3 == 0 else 1.0 + k / 7.0 for k in range(30))),
                MatchedLpBlocks(2)), 2),
    (NakanoSpec(FormulaExponents("power", -0.5, s=0.5), UniformBlocks(Lp(1.0, 3))), 3),
    (NakanoSpec(ConstantExponents(3.0), UniformBlocks(Lp(math.inf, 2))), 2),
    (NakanoSpec(ConstantExponents(2.5), UniformBlocks(Schatten(3.0, 2))), 4),
]


def _bit_vectors(rng, d, count):
    """Vectors of 1-24 blocks at scales 1, 1e+-150 and 1e+-300, about 10% of blocks zero."""
    out = []
    for _ in range(count):
        idx = rng.choice(np.arange(1, 31), int(rng.integers(1, 25)), replace=False)
        scale = rng.choice([1.0, 1e150, 1e-150, 1e300, 1e-300])
        blocks = []
        for n in idx:
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0) * scale
            if rng.uniform() < 0.1:
                v[:] = 0.0
            blocks.append((int(n), v))
        out.append(BlockVector(tuple(blocks)))
    return out


def _hex(values):
    return [float.hex(float(v)) for v in values]


@pytest.mark.parametrize("spec,d", _BIT_SPECS)
def test_batch_terms_match_block_by_block_bits(spec, d):
    points = _bit_vectors(np.random.default_rng(31), d, 40)
    norms, exps, counts = NakanoModular(spec).batch_terms(points)
    ref_norms, ref_exps, ref_counts = oracles.nakano_block_terms(spec, points)
    assert _hex(norms) == _hex(ref_norms)
    assert _hex(exps) == _hex(ref_exps)
    assert counts.tolist() == ref_counts


@pytest.mark.parametrize("spec,d", _BIT_SPECS)
def test_luxemburg_batch_matches_lone_solves_bitwise(spec, d):
    rng = np.random.default_rng(32)
    points = _bit_vectors(rng, d, 40)
    theta = NakanoModular(spec)
    norms, exps, counts = oracles.nakano_block_terms(spec, points)
    ends = np.cumsum(counts)
    lone = [oracles.luxemburg_lone(norms[e - c:e], exps[e - c:e]) for c, e in zip(counts, ends)]
    perm = rng.permutation(len(points))
    got = luxemburg_norms(theta, [points[i] for i in perm])
    assert _hex(got) == _hex([lone[i] for i in perm])
    assert _hex(luxemburg_norm(theta, points[i]) for i in range(0, 40, 7)) == _hex(lone[0:40:7])


def test_underflowing_terms_leave_their_row_before_grouping():
    # Rows of 9-14 terms, 1-3 of which underflow to 0 against the largest,
    # leaving at least 8 live: each row is solved on its live terms alone and
    # grouped by its live count; a row of 8 live terms summed over 9 columns
    # would be summed in another order.
    rng = np.random.default_rng(33)
    spec = NakanoSpec(ExplicitExponents(tuple(rng.uniform(1.0, 6.0, 16))))
    full, live = [], []
    for _ in range(24):
        idx = rng.choice(np.arange(1, 17), int(rng.integers(9, 15)), replace=False)
        tiny = set(rng.choice(idx, int(rng.integers(1, 4)), replace=False).tolist())
        if len(idx) - len(tiny) < 8:
            tiny = set(list(tiny)[:len(idx) - 8])
        blocks = [(int(n), np.array([1e-300 if n in tiny else 1e300 * rng.uniform(0.5, 2.0)])) for n in idx]
        full.append(BlockVector(tuple(blocks)))
        live.append(BlockVector(tuple(b for b in blocks if b[0] not in tiny)))
    theta = NakanoModular(spec)
    got = luxemburg_norms(theta, full + live)
    assert _hex(got[:24]) == _hex(got[24:])
    norms, exps, counts = oracles.nakano_block_terms(spec, full)
    ends = np.cumsum(counts)
    assert _hex(got[:24]) == _hex(
        oracles.luxemburg_lone(norms[e - c:e], exps[e - c:e]) for c, e in zip(counts, ends))


def test_complex_block_under_euclid_blocks_raises_type_error():
    spec = NakanoSpec(ConstantExponents(3.0), UniformBlocks(Euclid(2)))
    real = bv(n1=[1.0, 2.0])
    bad = BlockVector(((1, np.array([1.0, 0.5])), (2, np.array([1.0 + 1.0j, 0.0]))))
    with pytest.raises(TypeError, match="complex entries are only supported in Schatten spaces"):
        nakano_norm(spec, bad)
    with pytest.raises(TypeError, match="complex entries are only supported in Schatten spaces"):
        luxemburg_norms(NakanoModular(spec), [real, bad, real])


def test_disjoint_additivity():
    # Theta of a sum of disjointly supported vectors is the sum of their Thetas
    spec = NakanoSpec(FormulaExponents("power", 2.0))
    x = bv(n1=[0.5], n3=[1.5])
    y = bv(n2=[2.0], n8=[0.1])
    both = nakano_modular(spec, oracles.block_sum(x, y))
    assert abs(both - (nakano_modular(spec, x) + nakano_modular(spec, y))) <= 4 * math.ulp(both)


# p_1 = 3, so the one term of _HUGE is 1e900: a float ** raises there
_OVERFLOW_SPEC = NakanoSpec(FormulaExponents("power", 1.0))
_HUGE = BlockVector(((1, [1e300]),))
# a sampled block of l_1^100000 has a norm near 8e4, whose 64th power is beyond the float range
_OVERFLOW_TAIL = NakanoSpec(ConstantExponents(P_MAX), UniformBlocks(Lp(1.0, 10 ** 5)))


@pytest.mark.parametrize("call", [
    lambda: nakano_modular(_OVERFLOW_SPEC, _HUGE),
    lambda: tail_parallelogram_defect(_OVERFLOW_TAIL, 1, 1),
], ids=["nakano_modular", "tail_parallelogram_defect"])
def test_overflowing_term_raises_numerical_failure(call):
    with pytest.raises(NumericalFailure, match=r"^modular value is not finite$"):
        call()


def test_norm_monotone_in_coordinates():
    # coordinatewise domination of scalar sequences implies norm domination
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    rng = np.random.default_rng(1)
    for _ in range(25):
        idx = rng.choice(np.arange(1, 20), size=4, replace=False)
        small = rng.uniform(0.0, 1.0, size=4)
        big = small + rng.uniform(0.0, 1.0, size=4)
        x = BlockVector(tuple((int(n), np.array([s])) for n, s in zip(idx, small)))
        y = BlockVector(tuple((int(n), np.array([b])) for n, b in zip(idx, big)))
        assert nakano_norm(spec, x) <= nakano_norm(spec, y) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(-3.0, 3.0),
    n=st.integers(5, 200),
)
def test_weakly_null_surrogate_exact(t, n):
    # t times the unit of a scalar block n outside the support adds |t| ** p_n
    spec = NakanoSpec(FormulaExponents("log", 1.0, b=1.0))
    x = bv(n1=[1.0], n2=[-0.5])
    shifted = nakano_modular(spec, oracles.block_sum(x, BlockVector(((n, [t]),))))
    assert shifted == pytest.approx(nakano_modular(spec, x) + abs(t) ** spec.exponent(n), abs=1e-12)


def test_weakly_null_surrogate_drifts_to_square():
    # far out the added mass looks like t^2: exponents sink to 2
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    x = bv(n1=[1.0])
    t = 0.7
    gaps = []
    for n in (10, 100, 1000, 10000):
        shifted = nakano_modular(spec, oracles.block_sum(x, BlockVector(((n, [t]),))))
        gaps.append(abs(shifted - (nakano_modular(spec, x) + t * t)))
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_homogeneity_defect_bounded():
    # on blocks k >= n0, |Theta(lam x) - lam^2 Theta(x)| <= max_k ||lam|^p_k - lam^2| Theta(x),
    # which collapses as the exponents approach 2 along the tail
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    rng = np.random.default_rng(2)
    for n0 in (5, 50, 500):
        idx = (n0 + rng.choice(50, size=3, replace=False)).tolist()
        x = BlockVector(tuple((n, rng.standard_normal(1) * 0.5) for n in idx))
        theta = nakano_modular(spec, x)
        for lam in (0.5, 2.0, -1.5):
            defect = abs(nakano_modular(spec, x.scale(lam)) - lam ** 2 * theta)
            assert defect <= max(abs(abs(lam) ** spec.exponent(n) - lam ** 2) for n in idx) * theta + 1e-12


def test_homogeneity_defect_overflowing_scale():
    # lam x beyond the float range is rejected, never carried as inf into Theta(lam x)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="non-finite entries"):
        _HUGE.scale(1e10)


def test_homogeneity_bound_closed_form():
    # one unit block at n = 5, where p_5 = 2.2: Theta(2x) - 4 Theta(x) = 2^2.2 - 4
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    x = bv(n5=[1.0])
    defect = nakano_modular(spec, x.scale(2.0)) - 4.0 * nakano_modular(spec, x)
    assert defect == pytest.approx(2.0 ** 2.2 - 4.0, rel=1e-12)


def test_homogeneity_and_disjoint_additivity_are_the_loop_thetas():
    # Theta of x, y, lam x and x + y has the bits of the plain pow loop
    spec = NakanoSpec(FormulaExponents("power", 1.0), CycledBlocks((Euclid(1), Lp(3.0, 2))))
    rng = np.random.default_rng(4)

    def vec(idx):
        return BlockVector(tuple(
            (int(n), rng.standard_normal(spec.block(int(n)).dim) * 10.0 ** rng.uniform(-2, 2)) for n in idx))
    for _ in range(20):
        idx = rng.choice(np.arange(3, 40), size=12, replace=False)
        x, y = vec(idx[:7]), vec(idx[7:])
        lam = float(rng.uniform(-3.0, 3.0))
        for v in (x, y, x.scale(lam), oracles.block_sum(x, y)):
            assert nakano_modular(spec, v) == oracles.nakano_theta_loop(spec, v)


#: one block family of each kind; the cycle holds a Schatten block, whose
#: entries may be complex
_THETA_BLOCKS = [UniformBlocks(Euclid(1)), UniformBlocks(Euclid(2)), MatchedLpBlocks(3),
                 CycledBlocks((Euclid(1), Schatten(3.0, 2), Lp(1.5, 3)))]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), blocks=st.sampled_from(_THETA_BLOCKS), a=st.floats(-1.0, 4.0),
       s=st.floats(0.25, 2.0), support=st.sets(st.integers(1, 60), max_size=14))
def test_modular_eval_and_nakano_modular_are_the_pow_loop(data, blocks, a, s, support):
    """modular_eval, nakano_modular and the plain pow loop give Theta(x) the same bits."""
    if a == 0.0:
        reject()
    spec = NakanoSpec(FormulaExponents("power", a, s=s), blocks)
    items = []
    for n in sorted(support):
        blk = spec.block(n)
        scale = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        arr = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=blk.dim, max_size=blk.dim))) * scale
        if isinstance(blk, Schatten) and data.draw(st.booleans()):
            arr = arr + 1j * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=blk.dim,
                                                         max_size=blk.dim))) * scale
        items.append((n, arr))
    x = BlockVector(tuple(items))
    expected = float.hex(oracles.nakano_theta_loop(spec, x))
    assert float.hex(modular_eval(NakanoModular(spec), x)) == expected
    assert float.hex(nakano_modular(spec, x)) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), width=st.integers(1, 20), top=st.floats(-300.0, 300.0))
def test_theta_rows_is_the_left_to_right_pow_loop(data, rows, width, top):
    """Every row's Theta has the plain loop's bits at any batch height, and
    an overflow raises.  Norms lie in [10 ** low, 10 ** top] within
    [1e-300, 1e300]; a narrow range gives terms of one size, whose sum
    depends on the order of the additions."""
    low = data.draw(st.floats(-300.0, top))
    exps = data.draw(st.one_of(
        st.lists(st.floats(1.0, P_MAX), min_size=width, max_size=width),
        st.floats(1.0, P_MAX).map(lambda p: [p] * width)))
    magnitude = st.one_of(st.just(0.0), st.floats(low, top).map(lambda e: 10.0 ** e))
    norms = [data.draw(st.lists(magnitude, min_size=width, max_size=width)) for _ in range(rows)]
    expected = []
    for row in norms:
        total = 0.0
        try:
            for nrm, p in zip(row, exps):
                total += nrm ** p
        except OverflowError:
            total = math.inf
        expected.append(total)
    if all(math.isfinite(t) for t in expected):
        assert _hex(_theta_rows(np.array(norms), np.array(exps))) == _hex(expected)
    else:
        with pytest.raises(NumericalFailure, match=r"^modular value is not finite$"):
            _theta_rows(np.array(norms), np.array(exps))


# --- summability of the renorming series ------------------------------------


def test_condition_terms_log_space():
    e = FormulaExponents("log", 1.0, b=1.0)
    series = nakano_condition_terms(e, 0.5, count=32)
    assert series.indices[0] == 1
    assert len(series.terms) == 32
    # terms = c^(2p/|p-2|); check one directly
    p3 = e.values([3])[0]
    expected = 0.5 ** (2.0 * p3 / abs(p3 - 2.0))
    assert series.terms[2] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(np.exp(series.log_terms), series.terms, rtol=1e-12)


def test_condition_terms_reject_p_equal_two():
    with pytest.raises(ValueError, match="exponent equals 2"):
        nakano_condition_terms(ConstantExponents(2.0), 0.5)
    with pytest.raises(ValueError):
        nakano_condition_terms(FormulaExponents("power", 1.0), 1.5)


_C_GRID = [0.3, 0.5, 0.7, 0.9]
_POWERS = [(s, a) for s in (0.01, 0.1, 1.0) for a in (1.0, -1.0, 4.0)]


@pytest.mark.parametrize("a, b, c_star", [(1.0, 1.0, math.exp(-0.25)), (-2.0, 9.0, math.exp(-0.5))],
                         ids=["a=1", "a=-2"])
@pytest.mark.parametrize("offset, verdict", [(-1e-9, "converges"), (0.0, "diverges"), (1e-9, "diverges")],
                         ids=["below", "at", "above"])
def test_condition_verdict_log_family_threshold(a, b, c_star, offset, verdict):
    # sum c ** r_n is sum (n + b) ** (4 ln c / |a|) up to a constant factor:
    # it converges below c* = exp(-|a| / 4) and is harmonic at c* itself
    report = nakano_condition_verdict(FormulaExponents("log", a, b=b), [c_star + offset])
    assert report.critical_c == c_star
    assert [v.verdict for v in report.verdicts] == [verdict]


def test_condition_verdict_power_family_always_converges():
    # c ** r_n = c ** (4 n**s / |a| +- 2) decays faster than any power of n,
    # however small s is
    for s, a in _POWERS:
        report = nakano_condition_verdict(FormulaExponents("power", a, s=s), _C_GRID)
        assert report.critical_c == 1.0, (s, a)
        assert all(v.verdict == "converges" for v in report.verdicts), (s, a)
        assert report.overall == "some-c-converges"


def test_condition_verdict_loglog_family_never_converges_in_grid():
    e = FormulaExponents("loglog", 1.0, b=3.0)
    report = nakano_condition_verdict(e, _C_GRID)
    assert report.critical_c == 0.0
    assert all(v.verdict == "diverges" for v in report.verdicts)
    assert report.overall == "none-in-grid"


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_condition_verdict_constant_family_never_converges(p):
    report = nakano_condition_verdict(ConstantExponents(p), _C_GRID)
    assert report.critical_c == 0.0
    assert all(v.verdict == "diverges" for v in report.verdicts)
    assert report.overall == "none-in-grid"


def test_condition_verdict_rejects_a_finite_exponent_list():
    with pytest.raises(ValueError, match="no tail to decide the series"):
        nakano_condition_verdict(ExplicitExponents((3.0, 2.5)), [0.5])
    with pytest.raises(ValueError, match="exponent equals 2"):
        nakano_condition_verdict(ConstantExponents(2.0), [0.5])


@pytest.mark.parametrize("kind, params", [
    *[("power", {"a": a, "s": s}) for s, a in _POWERS],
    ("log", {"a": 1.0, "b": 1.0}), ("log", {"a": -2.0, "b": 9.0}),
    ("loglog", {"a": 1.0, "b": 3.0}), ("loglog", {"a": -0.25, "b": 3.0}),
    ("constant", {"p": 1.5}), ("constant", {"p": 3.0}),
], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x:g}" for k, x in v.items()))
def test_condition_closed_forms_match_the_terms(kind, params):
    # the closed forms behind critical_c, against log t_n as the series computes it
    exponents = ConstantExponents(**params) if kind == "constant" else FormulaExponents(kind, **params)
    c = 0.5
    series = nakano_condition_terms(exponents, c, count=10 ** 6)
    ps = exponents.values(series.indices)
    # fl(p_n) is within half an ulp, at most p_n * eps / 2, of 2 + a / D_n;
    # p_n - 2 then carries that absolute error, so log t_n carries a relative
    # error up to (p_n / |p_n - 2|) * eps / 2.  For power s = 1 at n = 10**6
    # that is 2e6 * eps / 2 = 2.2e-10.  Four times the bound leaves room for
    # the rounding of a / D_n and of the closed form itself.
    rtol = 4.0 * np.finfo(float).eps * float(np.max(ps / np.abs(ps - 2.0)))
    want = oracles.condition_log_terms(kind, series.indices, c, **params)
    np.testing.assert_allclose(series.log_terms, want, rtol=rtol, atol=0.0)


def test_condition_verdict_rejects_empty_grid():
    with pytest.raises(ValueError):
        nakano_condition_verdict(FormulaExponents("log", 1.0, b=1.0), [])
    with pytest.raises(ValueError, match="c must lie in"):
        nakano_condition_verdict(FormulaExponents("log", 1.0, b=1.0), [0.5, 1.0])


# --- serialization ----------------------------------------------------------


def test_spec_round_trip():
    specs = [
        ({"exponents": {"kind": "constant", "p": 3.0}},
         NakanoSpec(ConstantExponents(3.0))),
        ({"exponents": {"kind": "log", "a": 2.0, "b": 1.0},
          "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}},
         NakanoSpec(FormulaExponents("log", 2.0, b=1.0), UniformBlocks(Euclid(2)))),
        ({"exponents": {"kind": "explicit", "values": [2.0, 4.0]}, "blocks": {"kind": "lp_matched", "d": 3}},
         NakanoSpec(ExplicitExponents((2.0, 4.0)), MatchedLpBlocks(3))),
        ({"exponents": {"kind": "power", "a": 1.0, "s": 2.0},
          "blocks": {"kind": "cycle", "spaces": [{"kind": "euclid", "d": 1}, {"kind": "lp", "p": 3.0, "d": 2}]}},
         NakanoSpec(FormulaExponents("power", 1.0, s=2.0), CycledBlocks((Euclid(1), Lp(3.0, 2))))),
    ]
    for d, spec in specs:
        again = spec_from_dict(d)
        assert again == spec
        probes = (1, 2) if isinstance(spec.exponents, ExplicitExponents) else (1, 2, 5)
        for n in probes:
            assert again.exponent(n) == spec.exponent(n)
            assert again.block(n) == spec.block(n)
