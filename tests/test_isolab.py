import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modbanach import isolab
from modbanach.isolab import (
    AmbiguousRankError,
    LinearMap,
    build_counterexample_embedding,
    build_inclusion_embedding,
    find_one_dim_two_summand,
    is_isometric_embedding,
    limit_isometry_check,
    pt_iterate,
    range_intersection_dim,
    two_summand_grid_floor,
)
from modbanach.sampling import FD_STEP, argmin_selection, descend, rng_stream, stop_counts
from modbanach.spaces import Euclid, Lp, TwoSum


def test_split_space_norm():
    s = TwoSum((Lp(4.0, 2), Euclid(3)))
    assert s.dim == 5
    x = np.array([1.0, 1.0, 3.0, 0.0, 4.0])
    assert s.norm(x) == pytest.approx(math.hypot(Lp(4.0, 2).norm(x[:2]), 5.0), rel=1e-14)
    offs = s.offsets()
    assert [x[a:b].tolist() for a, b in zip(offs, offs[1:])] == [[1.0, 1.0], [3.0, 0.0, 4.0]]


def test_linear_map_validation_and_immutability():
    m = np.eye(3)
    t = LinearMap(m, Euclid(3), Euclid(3))
    with pytest.raises(ValueError):
        LinearMap(np.eye(2), Euclid(3), Euclid(3))
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 2.0
    m[0, 0] = 5.0  # the map keeps its own copy
    assert t.matrix[0, 0] == 1.0
    np.testing.assert_array_equal(t.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_inclusion_embedding_is_isometric():
    for e0 in (Euclid(3), Lp(4.0, 2), TwoSum((Lp(4.0, 2), Euclid(1)))):
        t = build_inclusion_embedding(e0, h_dim=4)
        chk = is_isometric_embedding(t, seed=0)
        assert chk.isometric
        assert chk.max_deviation <= 1e-12


def test_counterexample_embedding_is_isometric():
    t = build_counterexample_embedding(Lp(4.0, 2), h_dim=4)
    assert t.domain.dim == 3 and t.codomain.dim == 7
    chk = is_isometric_embedding(t, seed=0)
    assert chk.isometric
    assert chk.max_deviation <= 1e-12


def test_pt_iterate_inclusion_is_stationary():
    t = build_inclusion_embedding(Lp(4.0, 2), h_dim=3)
    trace = pt_iterate(t, np.array([1.0, -2.0]), n_max=10)
    np.testing.assert_allclose(trace.norms, trace.norms[0], rtol=1e-14)
    np.testing.assert_allclose(trace.residuals, 0.0, atol=1e-15)
    assert np.max(trace.defects) <= 1e-12
    # a stationary trace is Cauchy once it has five steps to compare
    assert trace.cauchy
    assert not pt_iterate(t, np.array([1.0, -2.0]), n_max=4).cauchy


def test_pt_iterate_counterexample_kills_the_line():
    t = build_counterexample_embedding(Lp(4.0, 2))
    xi0 = np.array([0.0, 0.0, 1.0])
    trace = pt_iterate(t, xi0, n_max=8)
    assert trace.norms[0] == 1.0
    np.testing.assert_allclose(trace.norms[1:], 0.0, atol=1e-15)
    assert trace.residuals[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(trace.defects) <= 1e-12


def test_pt_iterate_telescoping_on_mixed_vectors():
    t = build_counterexample_embedding(Lp(4.0, 2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        trace = pt_iterate(t, x, n_max=50)
        assert np.max(trace.defects) <= 1e-10


def test_pt_iterate_requires_split_codomain():
    with pytest.raises(ValueError, match="split"):
        pt_iterate(LinearMap(np.eye(2), Euclid(2), Euclid(2)), np.ones(2))


def test_limit_isometry_check_flags_exactly_xi0():
    t = build_counterexample_embedding(Lp(4.0, 2))
    xs = [np.eye(3)[i] for i in range(3)]
    report = limit_isometry_check(t, xs, n_max=12)
    assert not report.all_passed
    flags = [e.passed for e in report.entries]
    assert flags == [True, True, False]
    assert report.entries[2].norm_x == 1.0
    assert report.entries[2].limit == pytest.approx(0.0, abs=1e-15)
    assert report.non_cauchy == ()
    assert report.summand_found is None


def test_limit_isometry_check_passes_inclusion():
    t = build_inclusion_embedding(Lp(4.0, 2), h_dim=3)
    xs = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    report = limit_isometry_check(t, xs, n_max=12)
    assert report.all_passed
    # no one-dimensional hilbertian summand in l_4^2, so the projected map
    # itself must be isometric and is verified to be
    assert report.summand_found is False
    assert report.projection_isometric is True


def test_limit_isometry_check_euclid_reports_summand():
    t = build_inclusion_embedding(Euclid(2), h_dim=2)
    report = limit_isometry_check(t, [np.array([1.0, 2.0])], n_max=12)
    assert report.all_passed
    assert report.summand_found is True
    assert report.projection_isometric is None


def test_range_intersection_dims():
    assert range_intersection_dim(build_inclusion_embedding(Lp(4.0, 2))) == 0
    assert range_intersection_dim(build_counterexample_embedding(Lp(4.0, 2))) == 1


def test_range_intersection_ambiguous_rank():
    # a single range vector leaning into H with cosine inside the ambiguous
    # window must raise, not round
    e0 = Euclid(1)
    codomain = TwoSum((e0, Euclid(1)))
    sigma = 1.0 - 2e-8
    m = np.array([[math.sqrt(1.0 - sigma * sigma)], [sigma]])
    t = LinearMap(m, e0, codomain)
    with pytest.raises(AmbiguousRankError):
        range_intersection_dim(t)
    # well inside H: counted; well outside: not
    clear = LinearMap(np.array([[0.0], [1.0]]), e0, codomain)
    assert range_intersection_dim(clear) == 1
    askew = LinearMap(np.array([[math.sqrt(0.5)], [math.sqrt(0.5)]]), e0, codomain)
    assert range_intersection_dim(askew) == 0


def _two_projection_violation(space, xi, phi):
    # the summand search's objective at one candidate, on its own suite
    suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, 0)
    return float(isolab._candidate_violations(space, np.array([xi]), np.array([phi]), suite, n2)[0])


def test_two_projection_violation_euclid_zero():
    assert _two_projection_violation(Euclid(3), [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) <= 1e-12


def test_two_projection_violation_positive_in_l4():
    assert _two_projection_violation(Lp(4.0, 2), [1.0, 0.0], [1.0, 0.0]) > 1e-3


def test_summand_search_euclid_succeeds():
    res = find_one_dim_two_summand(Euclid(3), budget=8, seed=0)
    assert res.found
    assert res.residual <= 1e-8
    xi, phi = res.candidate.xi, res.candidate.phi
    assert Euclid(3).norm(xi) == pytest.approx(1.0, abs=1e-10)
    assert float(phi @ xi) == pytest.approx(1.0, abs=1e-10)


def test_summand_search_l4_fails():
    res = find_one_dim_two_summand(Lp(4.0, 2), budget=8, seed=0)
    assert not res.found
    assert res.residual > 1e-8


# exact residuals of small searches that no golden covers
@pytest.mark.parametrize("space, residual_hex, found", [
    (Lp(4.0, 2), "0x1.8c128d9c20a88p-2", False),
    (TwoSum((Lp(4.0, 2), Euclid(1))), "0x1.fb7d4c0f7b0eap-53", True),
], ids=["lp", "two_sum"])
def test_summand_search_path_pinned(space, residual_hex, found):
    res = find_one_dim_two_summand(space, budget=3, seed=2)
    assert res.residual == float.fromhex(residual_hex)
    if space.dim == 2:
        # the residual the search reached when it normed each residual
        assert res.residual == pytest.approx(0.38678952470454614, rel=1e-9)
    assert res.found is found
    assert res.starts == 3


def _summand_reference(space, budget, seed):
    """The summand search one start at a time, with the loop's old early stop.

    Returns (best value, best theta, stops of the starts run, the objective, the starts).
    """
    d = space.dim
    suite = isolab._domain_suite(space, 64, seed)
    n2 = space.norm_batch(suite) ** 2
    suite, n2 = suite[n2 > 0.0], n2[n2 > 0.0]

    def objective(stack):
        return isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)

    starts = [np.concatenate([e, e]) for e in np.eye(d)[:8]][:budget]
    starts += [rng_stream(seed, k).standard_normal(2 * d) for k in range(budget - len(starts))]
    best_val, best_theta, stops = math.inf, None, ()
    for theta0 in starts:
        run = descend(objective, theta0[None, :], first_step=0.5, max_steps=150, tol=1e-15)
        stops += run.stops
        if run.values[0] < best_val:
            best_val, best_theta = float(run.values[0]), run.thetas[0]
        if best_val <= 1e-10:
            break
    return best_val, best_theta, stops, objective, starts


@pytest.mark.parametrize("space", [Lp(4.0, 2), Lp(3.0, 3), Lp(4.0, 8), Euclid(3), TwoSum((Lp(4.0, 2), Euclid(1))),
                                   Euclid(2), TwoSum((Lp(4.0, 1), Euclid(1)))],
                         ids=["lp4", "lp3", "lp4_d8", "euclid", "two_sum", "euclid_plane", "two_lines"])
def test_summand_objective_scores_a_row_alike_at_any_height(space):
    # descend scores all its starts in one call, so a start's value must not
    # depend on the stack it is scored in; a one-column product of a lone row
    # would take a matrix-vector BLAS path, with other bits
    suite, n2 = isolab._nonzero_suite(space, 64, 0)
    d = space.dim
    stack = rng_stream(7, 0).standard_normal((128, 2 * d))
    whole = isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)
    alone = [isolab._candidate_violations(space, row[None, :d], row[None, d:], suite, n2)[0] for row in stack]
    assert whole.tolist() == alone
    for height in (2, 5, 33):
        part = isolab._candidate_violations(space, stack[:height, :d], stack[:height, d:], suite, n2)
        assert part.tolist() == alone[:height]


# in each case a start after the first one at or below the cut would reach a
# lower residual, so running every start to its end would change the result;
# in the two sums the first hit is the third start, so two starts end before it
@pytest.mark.parametrize("space, seed", [
    (Euclid(3), 4),
    (TwoSum((Lp(3.0, 2), Euclid(2))), 3),
    (TwoSum((Lp(1.5, 2), Euclid(3))), 2),
], ids=["euclid", "lp3_plus_plane", "lp1.5_plus_space"])
def test_summand_lockstep_keeps_ordered_early_stop(space, seed):
    budget = 12
    best_val, best_theta, stops, objective, starts = _summand_reference(space, budget, seed)
    ran = len(stops)
    res = find_one_dim_two_summand(space, budget=budget, seed=seed)
    assert res.residual.hex() == best_val.hex()
    assert res.found
    d = space.dim
    np.testing.assert_array_equal(res.candidate.xi, best_theta[:d] / space.norm(best_theta[:d]))
    assert res.stops == stop_counts(stops + ("dropped",) * (budget - ran))
    assert res.starts == budget
    later = descend(objective, np.array(starts[ran:]), first_step=0.5, max_steps=150, tol=1e-15)
    assert later.values.min() < best_val


def test_grid_floor_positive_for_l4_small_grid():
    floor = two_summand_grid_floor(Lp(4.0, 2), n_xi=90, n_phi=90, samples=64, seed=0)
    assert floor > 0.01


def test_grid_floor_pinned_for_l4():
    # the bits of the kernel-line formula; norming every residual gave
    # 0.17432493467530763, a few ulps away
    floor = two_summand_grid_floor(Lp(4.0, 2), n_xi=360, n_phi=360)
    assert floor == 0.17432493467530774
    assert floor == pytest.approx(0.17432493467530763, rel=1e-15)


def test_residual_stacks_reach_the_norm_as_transposed_views(monkeypatch):
    # the residual of the summand search reaches norm_batch as the transpose
    # of a C-ordered (d, rows) array, so the short-row kernel's transpose of
    # it copies nothing; and in blocks of at most _BLOCK_ROWS rows, where a
    # whole stack of the search's objective calls has more
    residuals, inside = [], []
    norm_batch, worst_defects = Lp.norm_batch, isolab._worst_defects

    def recording(space, stack):
        if inside:
            residuals.append(stack)
        return norm_batch(space, stack)

    def helper(*args):
        inside.append(True)
        try:
            return worst_defects(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Lp, "norm_batch", recording)
    monkeypatch.setattr(isolab, "_worst_defects", helper)
    # 8 starts probe 24 halvings at once: 192 candidates of 68 suite rows each
    find_one_dim_two_summand(Lp(3.0, 3), budget=8, seed=0)
    assert residuals
    for stack in residuals:
        assert stack.T.flags.c_contiguous and not stack.flags.c_contiguous
        assert stack.shape[0] <= isolab._BLOCK_ROWS
    assert 192 * isolab._domain_suite(Lp(3.0, 3), 64, 0).shape[0] > isolab._BLOCK_ROWS


def _defects_of_candidates(space):
    """_candidate_violations on 320 seeded candidates, 16 of them invalid."""
    suite, n2 = isolab._nonzero_suite(space, 64, 0)
    d = space.dim
    stack = rng_stream(5, 0).standard_normal((320, 2 * d))
    stack[::40, :d] = 0.0       # xi = 0
    stack[7::40, d:] = 0.0      # phi(xi) = 0
    return isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)


# of d >= 3 only: the plane's objective norms no residual, so has no blocks
_BLOCK_SPACES = [Lp(4.0, 3), Lp(3.0, 3), TwoSum((Lp(4.0, 2), Euclid(1)))]


# 10**9 is larger than any stack: each input is normed as one whole stack
@pytest.mark.parametrize("block", [1, 7, 97, 10**9])
def test_summand_defects_do_not_depend_on_the_block_size(monkeypatch, block):
    expected = [_defects_of_candidates(space) for space in _BLOCK_SPACES]
    monkeypatch.setattr(isolab, "_BLOCK_ROWS", block)
    for space, want in zip(_BLOCK_SPACES, expected):
        got = _defects_of_candidates(space)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        assert np.count_nonzero(got == 1e6) == 16


_LINES = st.one_of(st.just(Euclid(1)), st.floats(1.0, 8.0).map(lambda p: Lp(p, 1)))
_PLANES = st.one_of(
    st.floats(1.0, 8.0).map(lambda p: Lp(p, 2)),
    st.just(Euclid(2)),
    st.tuples(_LINES, _LINES).map(TwoSum),
)


def _agree(got, want):
    """Within 1e-12 relative, or within 1e-14 absolute below 1e-3."""
    return abs(got - want) <= (1e-14 if want < 1e-3 else 1e-12 * want)


@settings(max_examples=150, deadline=None)
@given(space=_PLANES, seed=st.integers(min_value=0), height=st.integers(1, 300),
       no_xi=st.sets(st.integers(0, 299), max_size=8), phi_off_xi=st.sets(st.integers(0, 299), max_size=8))
def test_plane_objective_matches_the_residual_defects(space, seed, height, no_xi, phi_off_xi):
    # the quadratic form against _worst_defects, which norms each residual
    suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, seed)
    stack = rng_stream(seed, 1).standard_normal((height, 4))
    for i in phi_off_xi:
        stack[i % height, 2:] = [-stack[i % height, 1], stack[i % height, 0]]   # phi(xi) = 0 exactly
    for i in no_xi:
        stack[i % height, :2] = 0.0
    got = isolab._candidate_violations(space, stack[:, :2], stack[:, 2:], suite, n2)

    nxi = space.norm_batch(stack[:, :2])
    xi = stack[:, :2] / np.where(nxi > 1e-12, nxi, 1.0)[:, None]
    pv = np.einsum("kd,kd->k", stack[:, 2:], xi)
    valid = (nxi > 1e-12) & (np.abs(pv) > 1e-9)
    assert np.all(got[~valid] == 1e6)
    assert not valid[[i % height for i in no_xi | phi_off_xi]].any()
    if valid.any():
        phi = stack[valid, 2:] / pv[valid, None]
        want = isolab._worst_defects(space, suite, n2, suite @ phi.T, xi[valid].T)
        assert all(_agree(g, w) for g, w in zip(got[valid].tolist(), want.tolist()))


@pytest.mark.parametrize("space", [Lp(4.0, 2), Euclid(2)], ids=["lp4", "euclid"])
@pytest.mark.parametrize("height", [1, 2, 5, 300])
def test_plane_objective_norms_two_stacks_and_no_residual(monkeypatch, space, height):
    # the xi rows and the phi_perp rows, whatever the stack height
    calls = []
    norm_batch = type(space).norm_batch

    def counting(self, stack):
        calls.append(len(stack))
        return norm_batch(self, stack)

    def no_residuals(*args):
        raise AssertionError("the plane's objective built a residual")

    suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, 0)
    stack = rng_stream(3, 0).standard_normal((height, 4))
    monkeypatch.setattr(type(space), "norm_batch", counting)
    monkeypatch.setattr(isolab, "_worst_defects", no_residuals)
    got = isolab._candidate_violations(space, stack[:, :2], stack[:, 2:], suite, n2)
    assert calls == [height, height]
    assert np.all(got < 1e6)


@pytest.mark.parametrize("seed", range(4))
def test_plane_search_reaches_the_l4_floor(seed):
    # Lp(4, 2) has no hilbertian summand; the least worst defect is 3 - 2 sqrt 2
    res = find_one_dim_two_summand(Lp(4.0, 2), budget=32, seed=seed)
    assert 0.0 <= res.residual - (3.0 - 2.0 * math.sqrt(2.0)) <= 1e-7


@pytest.mark.parametrize("space", [Euclid(2), TwoSum((Lp(4.0, 1), Euclid(1))), TwoSum((Lp(1.5, 1), Lp(3.0, 1)))],
                         ids=["euclid", "l4_line_plus_line", "two_lines"])
def test_plane_search_finds_hilbertian_summands(space):
    res = find_one_dim_two_summand(space, budget=8, seed=0)
    assert res.found
    assert res.residual <= 1e-8
    xi, phi = res.candidate.xi, res.candidate.phi
    assert float(phi @ xi) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_xi,n_phi", [(0, 4), (4, -3)])
def test_grid_floor_rejects_an_empty_grid(n_xi, n_phi):
    with pytest.raises(ValueError, match="at least one step per angle"):
        two_summand_grid_floor(Lp(4.0, 2), n_xi=n_xi, n_phi=n_phi)


def test_grid_floor_zero_for_euclid():
    floor = two_summand_grid_floor(Euclid(2), n_xi=45, n_phi=45, samples=32, seed=0)
    assert floor <= 1e-10


def test_grid_floor_requires_plane():
    with pytest.raises(ValueError):
        two_summand_grid_floor(Euclid(3))


def _matches_the_residual_grid(space, n_xi, n_phi, seed):
    floor = two_summand_grid_floor(space, n_xi=n_xi, n_phi=n_phi, seed=seed)
    suite, n2 = isolab._nonzero_suite(space, 128, seed)
    return _agree(floor, oracles.grid_floor_by_residuals(space, suite, n2, n_xi, n_phi))


@settings(max_examples=120, deadline=None)
@given(space=_PLANES, n_xi=st.integers(1, 48), n_phi=st.integers(1, 48), seed=st.integers(min_value=0))
def test_grid_floor_matches_the_residual_grid(space, n_xi, n_phi, seed):
    # the kernel-line formula against the grid that norms every residual
    assert _matches_the_residual_grid(space, n_xi, n_phi, seed)


def test_grid_floor_skips_cells_where_phi_vanishes_on_xi():
    # xi = e_0 and b = (cos pi/2, sin pi/2) give <b, xi> = 6e-17, and that cell is skipped
    assert abs(math.cos(math.pi / 2)) <= 1e-9
    assert _matches_the_residual_grid(Euclid(2), 2, 2, 0)
    assert two_summand_grid_floor(Euclid(2), n_xi=2, n_phi=2) <= 1e-15


@pytest.mark.parametrize("n_xi, n_phi", [(1, 1), (2, 2), (4, 4), (90, 30)])
def test_grid_floor_norms_three_stacks_and_warns_nowhere(monkeypatch, n_xi, n_phi):
    # the suite, the xi directions and the b_perp directions, whatever the grid size
    calls = []
    norm_batch = Lp.norm_batch

    def counting(space, stack):
        calls.append(len(stack))
        return norm_batch(space, stack)

    monkeypatch.setattr(Lp, "norm_batch", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_summand_grid_floor(Lp(4.0, 2), n_xi=n_xi, n_phi=n_phi)
    assert calls[1:] == [n_phi, n_xi]
    assert len(calls) == 3


# the grid that normed every residual peaked at 1.47 and 16.7 MiB here; one
# array of all n_xi x n_phi cells takes 2 MiB at 4096 x 64
@pytest.mark.parametrize("n_xi, n_phi, limit_mib", [(4096, 64, 2.0), (64, 4096, 16.7)])
def test_grid_floor_memory_does_not_grow_with_the_grid(n_xi, n_phi, limit_mib):
    tracemalloc.start()
    try:
        two_summand_grid_floor(Lp(4.0, 2), n_xi=n_xi, n_phi=n_phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


_SOLIDS = st.one_of(
    st.tuples(st.floats(1.0, 8.0), st.integers(3, 5)).map(lambda pd: Lp(*pd)),
    st.just(Euclid(3)),
    st.just(TwoSum((Lp(4.0, 2), Euclid(1)))),
)
#: a halving step whose candidate is made a copy of another step's: of the
#: smallest step (index 23) or of any, so that equal values occur
_COPIES = st.tuples(st.integers(0, 59), st.integers(0, 23), st.one_of(st.just(23), st.integers(0, 23)))
#: a candidate that scores 1e6 (xi = 0) or holds a non-finite entry
_SPOILS = st.one_of(st.none(), st.tuples(st.sampled_from(["no_xi", math.inf, math.nan]),
                                         st.integers(0, 60 * 24 - 1)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(space=_SOLIDS, seed=st.integers(0, 2 ** 32 - 1), starts=st.integers(1, 60),
       first_step=st.floats(1e-3, 4.0), copies=st.lists(_COPIES, max_size=12), spoil=_SPOILS)
def test_pruned_selection_matches_the_argmin(space, seed, starts, first_step, copies, spoil):
    # the same step and the same value bits as scoring every candidate, on
    # stacks of one block (default) and of several (pruned), with equal
    # values, candidates that score 1e6 and non-finite entries
    suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, seed % 8)
    d = space.dim
    rng = rng_stream(seed, 0)
    theta, unit = rng.standard_normal((2, starts, 2 * d))
    cands = theta[:, None] - (first_step * 0.5 ** np.arange(24))[None, :, None] * unit[:, None]
    for s, t, u in copies:
        cands[s % starts, t] = cands[s % starts, u]
    if spoil is not None:
        kind, i = spoil
        row = cands.reshape(-1, 2 * d)[i % (24 * starts)]
        if kind == "no_xi":
            row[:d] = 0.0
        else:
            row[d] = kind

    def objective(stack):
        return isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)

    want_j, want_v = argmin_selection(objective)(cands)
    got_j, got_v = isolab._pruned_selection(space, suite, n2, objective)(cands)
    assert got_j.tolist() == want_j.tolist()
    assert [v.hex() for v in got_v.tolist()] == [v.hex() for v in want_v.tolist()]


def test_pruned_search_norms_half_the_rows(monkeypatch):
    # the search of the benchmark's lp(3, 3) campaign, with and without the
    # pruning: the same result, from under 52% of the normed rows
    rows = []
    norm_batch = Lp.norm_batch

    def counting(space, stack):
        rows.append(len(stack))
        return norm_batch(space, stack)

    def search():
        rows.clear()
        res = find_one_dim_two_summand(Lp(3.0, 3), budget=64, seed=0)
        return res.residual.hex(), res.stops, sum(rows)

    monkeypatch.setattr(Lp, "norm_batch", counting)
    *pruned, pruned_rows = search()
    monkeypatch.setattr(isolab, "_pruned_selection", lambda space, suite, n2, objective: argmin_selection(objective))
    *plain, plain_rows = search()
    assert pruned == plain
    assert plain_rows == 7_718_269
    assert pruned_rows < 0.52 * plain_rows


def test_small_summand_stacks_keep_the_plain_selection(monkeypatch):
    # budget 8 leaves 1-3 live starts, one block of residuals per step, so
    # the two_sum search makes the norm calls it made before the pruning
    calls = []
    norm_batch = TwoSum.norm_batch

    def counting(space, stack):
        calls.append(len(stack))
        return norm_batch(space, stack)

    monkeypatch.setattr(TwoSum, "norm_batch", counting)
    find_one_dim_two_summand(TwoSum((Lp(4.0, 2), Euclid(1))), budget=8, seed=0)
    assert (len(calls), sum(calls)) == (192, 166_950)


# the search before the pruning peaked at 1.76 MiB (lp3) and 157 KiB (the
# golden summand_euclid3 search); bounding every step of a whole stack at
# once, unblocked, took the lp3 search to 2.77 MiB
@pytest.mark.parametrize("space, budget, seed, limit_kib", [
    (Lp(3.0, 3), 64, 0, 2048),
    (Euclid(3), 6, 3, 256),
], ids=["lp3", "golden_euclid3"])
def test_summand_search_memory(space, budget, seed, limit_kib):
    # a first search imports numpy.random, whose modules tracemalloc would count
    find_one_dim_two_summand(space, budget=1, seed=seed)
    tracemalloc.start()
    try:
        find_one_dim_two_summand(space, budget=budget, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_kib * 2 ** 10


@settings(max_examples=500, deadline=None)
@given(space=_SOLIDS, seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-150.0, 150.0))
def test_defects_are_within_their_stated_bound(space, seed, log_scale):
    # |computed - exact| <= (16 + 2 kappa) u S^2 / n2 against 60 decimal digits,
    # S = sqrt(n2) + |f| + ||r|| + d ||x||_2 ||phi||_2, at scales 1e-150 to 1e150
    d = space.dim
    rng = rng_stream(seed, 0)
    x = rng.standard_normal(d) * 10.0 ** log_scale
    n2 = space.norm_batch(x[None]) ** 2
    rows, xi, phi = isolab._valid_candidates(space, rng.standard_normal((1, d)), rng.standard_normal((1, d)))
    if not rows.size:
        return
    f = isolab._functional_values(x[None], phi)[0]
    got = isolab._defects(space, x[:, None], n2, f, xi.T)[0]
    rn = isolab._residual_norms(space, x[:, None], f, xi.T)[0]
    scale = math.sqrt(n2[0]) + abs(f[0]) + rn + d * np.linalg.norm(x) * np.linalg.norm(phi[0])
    exact = oracles.defect_decimal(space, x, n2[0], xi[0], phi[0])
    bound = (16 + 2 * space.norm_ulps) * 2.0 ** -53 * scale ** 2 / n2[0]
    assert abs(decimal.Decimal(float(got)) - exact) <= decimal.Decimal(bound)


def _probe_stacks(space, seed, starts, step, copies, spoil):
    """(bases, probes): seeded bases and their +-step probes along each axis, some copied or spoiled."""
    d = space.dim
    bases = rng_stream(seed, 1).standard_normal((starts, 2 * d))
    probes = np.concatenate([bases[:, None] + step * np.eye(2 * d), bases[:, None] - step * np.eye(2 * d)], axis=1)
    for s, t, u in copies:
        # a probe copied from another probe of its start, or from its base (u = -1)
        probes[s % starts, t % (4 * d)] = bases[s % starts] if u < 0 else probes[s % starts, u % (4 * d)]
    if spoil is not None:
        kind, i = spoil
        rows = np.concatenate([bases, probes.reshape(-1, 2 * d)])
        row = rows[i % len(rows)]
        if kind == "no_xi":
            row[:d] = 0.0
        else:
            row[d] = kind
        bases, probes = rows[:starts], rows[starts:].reshape(probes.shape)
    return bases, probes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(space=_SOLIDS, seed=st.integers(0, 2 ** 32 - 1), starts=st.integers(1, 60),
       step=st.one_of(st.just(FD_STEP), st.floats(1e-9, 0.1)),
       copies=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 19), st.integers(-1, 19)), max_size=12),
       spoil=st.one_of(st.none(), st.tuples(st.sampled_from(["no_xi", math.inf, math.nan, 1e200]),
                                            st.integers(0, 60 * 21 - 1))))
def test_screened_probes_match_the_objective(space, seed, starts, step, copies, spoil):
    # the same value bits as one objective call on the whole probe stack, on
    # stacks of one block (plain) and of several (screened), with copied
    # probes, candidates that score 1e6, non-finite entries and overflowing
    # squares; and on valid stacks no probe's defect on any row exceeds the
    # bound the screen gives that row
    suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, seed % 8)
    d = space.dim
    bases, probes = _probe_stacks(space, seed, starts, step, copies, spoil)

    def objective(stack):
        return isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)

    want = objective(probes.reshape(-1, 2 * d)).reshape(starts, 4 * d)
    with np.errstate(over="ignore", invalid="ignore"):
        got = isolab._pruned_selection(space, suite, n2, objective).probe(bases, probes)
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
        flat = probes.reshape(-1, 2 * d)
        rows, xi, phi = isolab._valid_candidates(space, flat[:, :d], flat[:, d:])
        b_rows, xi_b, phi_b = isolab._valid_candidates(space, bases[:, :d], bases[:, d:])
        if rows.size < len(flat) or b_rows.size < starts:
            return
        f, f_b = isolab._functional_values(suite, phi), isolab._functional_values(suite, phi_b)
        if not all(np.isfinite(a).all() for a in (xi, f, xi_b, f_b)):
            return
        xn = np.linalg.norm(suite, axis=1)
        ceiling = isolab._probe_ceilings(space, suite, n2, xn, (xi_b, phi_b, f_b), (xi, phi))
        every = np.arange(len(suite))[:, None], np.arange(len(xi))[None]
        defects = isolab._pair_defects(space, suite, n2, f, xi, *every)
    assert not np.any(defects.reshape(len(suite), starts, 4 * d) > ceiling[:, :, None])


@pytest.mark.parametrize("space", [Lp(3.0, 3), Lp(1.5, 4), Euclid(3), TwoSum((Lp(4.0, 2), Euclid(1)))],
                         ids=["lp3", "lp1.5_d4", "euclid", "two_sum"])
def test_screened_probes_keep_rounding_level_ties(space):
    # structured bases make rows of equal defect, and probes a few ulps away
    # move them by no more than rounding does: only the slack of
    # _defect_ceiling keeps the row that holds the maximum (dropping it
    # mismatches on Euclid(3) at steps of 1e-16)
    d = space.dim
    one = np.tile(np.eye(d), 2)
    bases = np.tile(np.concatenate([one, one + 0.5 * np.eye(d, 2 * d, d), np.ones((d, 2 * d))]), (8, 1))
    for seed in range(4):
        suite, n2 = isolab._nonzero_suite(space, isolab._SUMMAND_SUITE, seed)

        def objective(stack):
            return isolab._candidate_violations(space, stack[:, :d], stack[:, d:], suite, n2)

        probe = isolab._pruned_selection(space, suite, n2, objective).probe
        for step in (1e-17, 1e-16, 3e-16, 1e-15, 1e-12):
            probes = np.concatenate([bases[:, None] + step * np.eye(2 * d), bases[:, None] - step * np.eye(2 * d)],
                                    axis=1)
            want = objective(probes.reshape(-1, 2 * d)).reshape(len(bases), 4 * d)
            assert probe(bases, probes).tobytes() == want.tobytes()


_SEARCHES = [(Lp(3.0, 3), 16, 0), (Lp(1.5, 4), 16, 1), (Lp(8.0, 5), 12, 2), (Euclid(3), 16, 3),
             (TwoSum((Lp(4.0, 2), Euclid(1))), 16, 4)]


@pytest.mark.parametrize("space, budget, seed", _SEARCHES, ids=["lp3", "lp1.5_d4", "lp8_d5", "euclid", "two_sum"])
def test_every_screened_probe_call_of_a_search_is_the_objective(monkeypatch, space, budget, seed):
    # a search's probes sit where its starts have evened out their worst rows,
    # the ties that random candidates rarely make
    calls = []
    pruned = isolab._pruned_selection

    def checked(space, suite, n2, objective):
        select = pruned(space, suite, n2, objective)
        probe = select.probe

        def check(bases, cands):
            got = probe(bases, cands)
            want = objective(cands.reshape(-1, cands.shape[2])).reshape(cands.shape[:2])
            calls.append(got.tobytes() == want.tobytes())
            return got

        select.probe = check
        return select

    monkeypatch.setattr(isolab, "_pruned_selection", checked)
    find_one_dim_two_summand(space, budget=budget, seed=seed)
    assert calls and all(calls)


def test_screened_search_norms_under_2_1m_rows(monkeypatch):
    # the benchmark's lp(3, 3) search with and without the probe screen: the
    # same residual and stops, from at most 2.1M of the 3.81M rows it normed
    rows = []
    norm_batch, pruned = Lp.norm_batch, isolab._pruned_selection

    def counting(space, stack):
        rows.append(len(stack))
        return norm_batch(space, stack)

    def unscreened(*args):
        select = pruned(*args)
        del select.probe
        return select

    def search():
        rows.clear()
        res = find_one_dim_two_summand(Lp(3.0, 3), budget=64, seed=0)
        return res.residual.hex(), res.stops, sum(rows)

    monkeypatch.setattr(Lp, "norm_batch", counting)
    *screened, screened_rows = search()
    monkeypatch.setattr(isolab, "_pruned_selection", unscreened)
    *plain, plain_rows = search()
    assert screened == plain == ["0x1.53ca37ce48130p-3", {"converged": 0, "stalled": 60, "capped": 4, "dropped": 0}]
    assert plain_rows == 3_813_398
    assert screened_rows <= 2_100_000
