import math

import numpy as np
import pytest

from modbanach import geomconst, sampling
from modbanach.geomconst import (
    alpha_beta,
    clarkson_alpha_tail_bound,
    clarkson_alpha_upper,
    duality_gap,
    jvn_lower_bound,
    jvn_upper_bound_clarkson,
    tail_parallelogram_defect,
)
from modbanach.nakano import (
    BlockVector,
    ConstantExponents,
    CycledBlocks,
    ExplicitBlocks,
    FormulaExponents,
    MatchedLpBlocks,
    NakanoSpec,
    UniformBlocks,
)
from modbanach.spaces import Euclid, Lp, Schatten, TwoSum

import oracles


def test_jvn_ratio_parallelogram_identity():
    rng = np.random.default_rng(0)
    space = Euclid(4)
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert oracles.jvn_ratio(space, x, y) == pytest.approx(1.0, rel=1e-12)


def test_jvn_ratio_rejects_double_zero():
    with pytest.raises(ValueError, match="not both vanish"):
        oracles.jvn_ratio(Euclid(2), np.zeros(2), np.zeros(2))


def test_jvn_lower_bound_euclid_is_one():
    for d in (2, 5, 8):
        est = jvn_lower_bound(Euclid(d), budget=16, seed=0)
        assert abs(est.lower_bound - 1.0) <= 1e-9


def test_jvn_lower_bound_l4_plane():
    est = jvn_lower_bound(Lp(4.0, 2), budget=64, seed=0)
    assert est.lower_bound == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert est.lower_bound <= jvn_upper_bound_clarkson(4.0) + 1e-12


def test_jvn_lower_bound_l1_plane_attains_two():
    # disjoint unit vectors make the parallelogram ratio equal 2 in l_1
    est = jvn_lower_bound(Lp(1.0, 2), budget=16, seed=0)
    assert est.lower_bound == pytest.approx(2.0, abs=1e-9)


def test_jvn_estimate_bounds_and_witness():
    for space in (Lp(3.0, 3), Schatten(4.0, 2)):
        est = jvn_lower_bound(space, budget=16, seed=1)
        assert 1.0 - 1e-9 <= est.lower_bound <= 2.0 + 1e-9
        # the recorded witness must reproduce the recorded value
        again = oracles.jvn_ratio(space, est.witness.x, est.witness.y)
        assert again == pytest.approx(est.witness.value, abs=1e-10)
        assert est.lower_bound == pytest.approx(est.witness.value, abs=1e-12)
        assert est.starts > 0 and est.evaluations > 0


def test_jvn_deterministic_for_fixed_seed():
    a = jvn_lower_bound(Lp(3.0, 2), budget=8, seed=7)
    b = jvn_lower_bound(Lp(3.0, 2), budget=8, seed=7)
    assert a.lower_bound == b.lower_bound
    np.testing.assert_array_equal(a.witness.x, b.witness.x)


# exact bounds and evaluation counts of small searches that no golden covers:
# any change to the descent, its starts or its stopping rule shows up here.
# A budget of 4 starts from (ones, alternating) and (e_0, e_1), so the direct
# sum reaches sqrt(2), the constant of its l_4^2 summand, and the Schatten
# class from (I, diag(1, -1)), so it reaches 2 ** (1/3)
@pytest.mark.parametrize("space, bound_hex, evaluations", [
    (Schatten(3.0, 2), "0x1.428a2f98d728ap+0", 261),
    (TwoSum((Lp(4.0, 2), Euclid(1))), "0x1.6a09e667f3a2fp+0", 965),
    (Lp(1.5, 3), "0x1.428a2f98d728ap+0", 545),
], ids=["schatten", "two_sum", "lp"])
def test_jvn_search_path_pinned(space, bound_hex, evaluations):
    est = jvn_lower_bound(space, budget=4, seed=5)
    assert est.lower_bound == float.fromhex(bound_hex)
    assert est.evaluations == evaluations
    assert est.starts == 5


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [4, 8])
def test_small_budget_reaches_the_lp_constant(p, d):
    # a budget below the 21 structured pairs keeps the extremal pairs of
    # either side of p = 2, so every budget from 2 on finds 2 ** |1 - 2/p|
    want = 2.0 ** abs(1.0 - 2.0 / p)
    for budget in range(2, 23):
        assert jvn_lower_bound(Lp(p, d), budget=budget).lower_bound == pytest.approx(want, abs=1e-9), budget


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_small_budget_reaches_the_schatten_constant(p):
    # the 21 structured pairs of a 2 x 2 Schatten class reach no more than 1
    # in their listed order; a budget of at most 21 leads with the diagonal
    # extremals (I, diag(1, -1)) and (E_00, E_11), and 22 adds a Gaussian start
    want = 2.0 ** abs(1.0 - 2.0 / p)
    for budget in range(2, 23):
        assert jvn_lower_bound(Schatten(p, 2), budget=budget).lower_bound == pytest.approx(want, abs=1e-9), budget


@pytest.mark.parametrize("space", [Lp(3.0, 2), Schatten(1.5, 3), TwoSum((Lp(4.0, 2), Euclid(1)))], ids=repr)
def test_starts_are_the_per_index_stream_draws(space):
    budget, seed = 40, 2 ** 33 + 5
    structured = [geomconst._pack(space, x, y) for x, y in sampling.structured_pairs(space)]
    drawn = []
    for i in range(budget - len(structured)):
        rng = sampling.rng_stream(seed, i)
        x, y = sampling.gaussian_batch(space, 1, rng)[0], sampling.gaussian_batch(space, 1, rng)[0]
        drawn.append(geomconst._pack(space, x, y))
    want = np.array(structured + drawn)
    assert geomconst._starts(space, budget, seed).tobytes() == want.tobytes()


# kinks and flat ridges (p near 1, p = inf), Schatten classes, rows of 8
# coordinates, a direct sum and a Hilbert space, whose starts end converged,
# stalled and capped
_LOCKSTEP_SPACES = [Lp(4.0 / 3.0, 2), Lp(1.0, 3), Lp(math.inf, 2), Lp(4.0, 8), Schatten(1.5, 3),
                    Schatten(3.0, 2), TwoSum((Lp(4.0, 2), Euclid(1))), Euclid(4)]


@pytest.mark.parametrize("chunk_rows", [sampling._CHUNK_ROWS, 1], ids=["one_chunk", "start_chunks"])
@pytest.mark.parametrize("space", _LOCKSTEP_SPACES, ids=repr)
def test_descend_stack_matches_lone_starts(space, chunk_rows, monkeypatch):
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", chunk_rows)
    starts = geomconst._starts(space, 16, seed=1)
    run = geomconst._ascend(space, starts)
    assert run.values.shape == (16,) and run.thetas.shape == starts.shape
    for i, theta0 in enumerate(starts):
        alone = geomconst._ascend(space, theta0[None, :])
        assert run.values[i].hex() == alone.values[0].hex()
        assert run.thetas[i].tobytes() == alone.thetas[0].tobytes()
        assert run.evals[i] == alone.evals[0]
        assert run.stops[i] == alone.stops[0]
    assert set(run.stops) <= {"converged", "stalled", "capped"}


def test_jvn_schatten_finds_hilbert_excess():
    # S_4 on 2x2 matrices contains an l_4^2 copy (diagonal matrices), so the
    # estimator must reach at least sqrt(2) there
    est = jvn_lower_bound(Schatten(4.0, 2), budget=48, seed=0)
    assert est.lower_bound >= math.sqrt(2.0) - 1e-6
    assert est.lower_bound <= jvn_upper_bound_clarkson(4.0) + 1e-9


def test_clarkson_upper_bound_values():
    assert jvn_upper_bound_clarkson(2.0) == 1.0
    assert jvn_upper_bound_clarkson(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert jvn_upper_bound_clarkson(1.0) == pytest.approx(2.0, rel=1e-15)
    assert jvn_upper_bound_clarkson(4.0 / 3.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        jvn_upper_bound_clarkson(0.5)


def test_estimates_never_exceed_clarkson():
    for p in (1.5, 2.5, 3.0, 4.0):
        est = jvn_lower_bound(Lp(p, 3), budget=24, seed=3)
        assert est.lower_bound <= jvn_upper_bound_clarkson(p) + 1e-9


def test_jvn_matches_angle_grid_oracle_l3():
    est = jvn_lower_bound(Lp(3.0, 2), budget=48, seed=0)
    ref = oracles.jvn_grid_oracle(3.0, coarse=90, rounds=3)
    assert est.lower_bound == pytest.approx(ref, abs=1e-6)


def test_duality_gap_small():
    assert duality_gap(3.0, 2, seed=0) <= 1e-3
    with pytest.raises(ValueError):
        duality_gap(1.0, 2)


def test_alpha_beta_matches_loop_oracle():
    ps = 2.0 + 1.0 / np.arange(1, 40)
    avals = np.array([jvn_upper_bound_clarkson(p) for p in ps])
    rep = alpha_beta(ps, avals)
    ref_alpha, ref_beta = oracles.alpha_beta_loop(ps, avals)
    np.testing.assert_allclose(rep.alpha, ref_alpha, rtol=1e-14)
    np.testing.assert_allclose(rep.beta, ref_beta, rtol=1e-14)


def test_alpha_beta_invariants():
    ps = 2.0 + 1.0 / np.arange(1, 200)
    avals = np.array([jvn_upper_bound_clarkson(p) for p in ps])
    rep = alpha_beta(ps, avals)
    assert np.all(np.diff(rep.beta) <= 0.0)
    assert np.all(rep.beta >= rep.alpha)
    assert np.all(rep.alpha >= 1.0 - 1e-12)
    # suffix property: beta_n is exactly the max of alpha over the tail
    k = 17
    assert rep.beta[k] == np.max(rep.alpha[k:])


def test_alpha_beta_tail_bound_floors():
    ps = np.array([2.5, 2.25])
    avals = np.ones(2)
    rep = alpha_beta(ps, avals, tail_bound=9.0)
    assert np.all(rep.beta == 9.0)


def test_alpha_beta_rejects_bad_input():
    with pytest.raises(ValueError):
        alpha_beta([], [])
    with pytest.raises(ValueError):
        alpha_beta([2.0, 3.0], [1.0])
    with pytest.raises(ValueError):
        alpha_beta([2.0], [0.5])
    with pytest.raises(ValueError):
        alpha_beta([0.2], [1.0])


def test_clarkson_alpha_upper_monotone_in_gap():
    assert clarkson_alpha_upper(2.0) == 1.0
    gaps = [clarkson_alpha_upper(2.0 + g) for g in (0.0, 0.1, 0.5, 1.0)]
    assert gaps == sorted(gaps)
    below = [clarkson_alpha_upper(2.0 - g) for g in (0.0, 0.1, 0.5)]
    assert below == sorted(below)


def test_clarkson_tail_bound_is_sup_at_horizon():
    e = FormulaExponents("power", 1.0)
    got = clarkson_alpha_tail_bound(e, horizon=100)
    assert got == pytest.approx(clarkson_alpha_upper(e.values([101])[0]), rel=1e-14)
    with pytest.raises(TypeError):
        clarkson_alpha_tail_bound(ConstantExponents(2.5), horizon=10)


def test_clarkson_beta_bound_decreases_with_cutoff():
    # beta_cutoff is the tail bound beyond cutoff - 1
    e = FormulaExponents("power", 1.0)
    vals = [clarkson_alpha_tail_bound(e, n - 1) for n in (1, 5, 10, 100)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.05


def test_clarkson_beta_bound_at_any_cutoff():
    # beta_cutoff, the tail bound beyond cutoff - 1, is the largest Clarkson
    # alpha bound from the cutoff on; checked over the next 4096 indices
    for e in (FormulaExponents("power", -0.5, s=0.5), FormulaExponents("log", 3.0, b=1.0),
              FormulaExponents("loglog", -0.4, b=20.0)):
        for cutoff in (1, 2000, 10 ** 15):
            window = e.values(np.arange(cutoff, cutoff + 4096))
            assert clarkson_alpha_tail_bound(e, cutoff - 1) == max(clarkson_alpha_upper(p) for p in window.tolist())


def test_tail_defect_below_beta_bound():
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    for cutoff in (5, 20):
        defect = tail_parallelogram_defect(spec, cutoff, samples=200, seed=0)
        assert defect <= clarkson_alpha_tail_bound(spec.exponents, cutoff - 1) + 1e-9
        assert defect >= 1.0 - 0.05  # near-parallelogram pairs exist in the sample


_POWER = NakanoSpec(FormulaExponents("power", 1.0))


# the defect's bits when every vector was a BlockVector with its own nakano_modular call
@pytest.mark.parametrize("spec, cutoff, kwargs, pinned", [
    (_POWER, 10, dict(samples=1000, seed=0), "0x1.0d6a5ba0795f7p+0"),
    (_POWER, 5, dict(samples=200, seed=0), "0x1.170c7554e7cedp+0"),
    (_POWER, 20, dict(samples=200, seed=0), "0x1.06cec57f28a14p+0"),
    (_POWER, 10, dict(samples=200, seed=1), "0x1.0ce36fea32067p+0"),
    (NakanoSpec(FormulaExponents("log", 1.0, b=1.0), UniformBlocks(Euclid(2))), 7,
     dict(samples=200, seed=3), "0x1.3efc769cde44dp+0"),
    (NakanoSpec(FormulaExponents("power", 1.0), MatchedLpBlocks(3)), 4,
     dict(samples=200, seed=4), "0x1.1562dd0fed882p+0"),
], ids=["criterion_06", "cutoff_5", "cutoff_20", "window_8", "uniform_euclid2", "lp_matched_3"])
def test_tail_defect_bits_pinned(spec, cutoff, kwargs, pinned):
    assert float.hex(tail_parallelogram_defect(spec, cutoff, **kwargs)) == pinned


def _sampled_pairs(spec, cutoff, samples, seed):
    """The tail defect's pairs as block vectors: pair i draws x and then y,
    one block after another over the blocks cutoff, ..., cutoff + 7, from
    ``rng_stream(seed, i)``."""
    blocks = range(cutoff, cutoff + 8)
    pairs = []
    for i in range(samples):
        rng = sampling.rng_stream(seed, i)
        x = BlockVector(tuple((n, rng.standard_normal(spec.block(n).dim)) for n in blocks))
        y = BlockVector(tuple((n, rng.standard_normal(spec.block(n).dim)) for n in blocks))
        pairs.append((x, y))
    return pairs


def test_tail_defect_samples_are_the_per_block_draws():
    spec = NakanoSpec(FormulaExponents("power", 1.0), CycledBlocks((Euclid(1), Lp(3.0, 2), Lp(1.0, 3))))
    got = tail_parallelogram_defect(spec, 6, samples=50, seed=11)
    assert got == oracles.tail_defect_loop(spec, _sampled_pairs(spec, 6, 50, 11))


@pytest.mark.parametrize("spec, cutoff", [
    (NakanoSpec(FormulaExponents("log", -0.5, b=2.0),
                CycledBlocks((Euclid(1), Lp(3.0, 2), Schatten(3.0, 2), Lp(float("inf"), 3)))), 4),
    (NakanoSpec(FormulaExponents("power", 1.0), MatchedLpBlocks(3)), 4),
    (NakanoSpec(ConstantExponents(3.0), CycledBlocks((Schatten(1.0, 2), Euclid(2)))), 1),
], ids=["log_mixed", "lp_matched_3", "constant_schatten"])
def test_tail_defect_sampled_pairs_match_loop_over_mixed_blocks(spec, cutoff):
    got = tail_parallelogram_defect(spec, cutoff, samples=40, seed=5)
    assert got == oracles.tail_defect_loop(spec, _sampled_pairs(spec, cutoff, 40, 5))


def test_tail_defect_rejects_bad_blocks():
    spec = NakanoSpec(ConstantExponents(3.0), ExplicitBlocks(tuple(Euclid(2) for _ in range(9))))
    # the window reaches block 10 of the nine listed
    with pytest.raises(ValueError, match="index 10 beyond the 9 explicit blocks"):
        tail_parallelogram_defect(spec, 3, samples=4)
    with pytest.raises(ValueError, match="block index must be a positive integer"):
        tail_parallelogram_defect(spec, 0, samples=4)


def test_tail_defect_window_must_fit_the_block_indices():
    spec = NakanoSpec(ConstantExponents(3.0))
    last = 2**63 - 1
    # the window's far end, not just its near end, must be a block index
    with pytest.raises(ValueError, match="block index must be a positive integer"):
        tail_parallelogram_defect(spec, last - 3, 3)
    assert 1.0 <= tail_parallelogram_defect(spec, last - 7, 3) <= 2.0
