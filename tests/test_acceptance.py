"""Acceptance gate: ten quantitative criteria, one printed verdict line each.

Each test prints ``[criterion NN] PASS/FAIL <measured numbers>`` directly to
the terminal (bypassing capture) and then asserts, so a full ``pytest`` run
always shows the ten lines in order.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from modbanach.cli import run_campaign
from modbanach.geomconst import (
    alpha_beta,
    duality_gap,
    jvn_lower_bound,
    jvn_upper_bound_clarkson,
    tail_parallelogram_defect,
)
from modbanach.isolab import (
    build_counterexample_embedding,
    build_inclusion_embedding,
    find_one_dim_two_summand,
    is_isometric_embedding,
    limit_isometry_check,
    pt_iterate,
    range_intersection_dim,
    two_summand_grid_floor,
)
from modbanach.modular import (
    DirectSumModular,
    PowerModular,
    luxemburg_norm,
    modular_eval,
    scalar_sum_expansion_ratio,
    square,
)
from modbanach.nakano import (
    BlockVector,
    ConstantExponents,
    ExplicitExponents,
    FormulaExponents,
    NakanoModular,
    NakanoSpec,
    UniformBlocks,
    nakano_condition_verdict,
    nakano_norm,
)
from modbanach.spaces import Euclid, Lp, Schatten, TwoSum
from modbanach.verify import verify_beckner, verify_pair

import oracles

REPO = Path(__file__).resolve().parent.parent


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_luxemburg_residuals(capsys):
    """10^4 seeded solves across all modular kinds, residual <= 1e-10, <= 10 s."""
    rng = np.random.default_rng(2024)
    kinds = [
        (square(Euclid(5)), lambda: rng.standard_normal(5)),
        (PowerModular(Lp(3.0, 4), 3.0), lambda: rng.standard_normal(4)),
        (PowerModular(Lp(4.0, 2), 4.0), lambda: rng.standard_normal(2) * 100.0),
        (PowerModular(Lp(1.5, 3), 2.5), lambda: rng.standard_normal(3) * 0.01),
        (DirectSumModular((square(Euclid(2)), PowerModular(Lp(4.0, 2), 4.0))),
         lambda: (rng.standard_normal(2), rng.standard_normal(2))),
        (NakanoModular(NakanoSpec(FormulaExponents("power", 1.0))),
         lambda: BlockVector(tuple(
             (int(n), rng.standard_normal(1))
             for n in rng.choice(np.arange(1, 40), 5, replace=False)))),
        (NakanoModular(NakanoSpec(FormulaExponents("log", 1.0, b=1.0), UniformBlocks(Euclid(2)))),
         lambda: BlockVector(tuple(
             (int(n), rng.standard_normal(2))
             for n in rng.choice(np.arange(1, 40), 4, replace=False)))),
    ]
    count = 10000
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(count):
        theta, gen = kinds[i % len(kinds)]
        x = gen()
        lam = luxemburg_norm(theta, x)
        if isinstance(x, tuple):
            scaled = tuple(v / lam for v in x)
        elif isinstance(x, BlockVector):
            scaled = x.scale(1.0 / lam)
        else:
            scaled = x / lam
        worst = max(worst, abs(modular_eval(theta, scaled) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    _verdict(capsys, 1, ok,
             f"max residual {worst:.3e} over {count} solves in {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_02_golden_ratio_norm(capsys):
    """Scalar exponents (2,4), x=(1,1): norm = ((1+sqrt5)/2)^(1/2) to 1e-10."""
    spec = NakanoSpec(ExplicitExponents((2.0, 4.0)))
    x = BlockVector(((1, np.array([1.0])), (2, np.array([1.0]))))
    got = nakano_norm(spec, x)
    target = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
    err = abs(got - target)
    ok = err <= 1e-10 and abs(got - 1.2720196495) <= 1e-10
    _verdict(capsys, 2, ok, f"norm {got:.12f}, quadratic oracle gap {err:.3e}")
    assert ok


def test_criterion_03_clarkson_suites(capsys):
    """Zero violations beyond 1e-12 relative over the seeded pair suites, <= 60 s."""
    t0 = time.perf_counter()
    worst = 0.0
    suites = 0
    for d in (2, 3, 5):
        for p in (2.1, 2.5, 3.0, 4.0):
            rep = verify_pair("clarkson_lower", Lp(p, d), samples=100000, seed=suites, tolerance=1e-12, jobs=4)
            worst = max(worst, rep.max_violation)
            suites += 1
            assert rep.verdict == "holds", (p, d)
        for p in (1.0, 1.5, 1.9):
            rep = verify_pair("clarkson_upper", Lp(p, d), samples=100000, seed=suites, tolerance=1e-12, jobs=4)
            worst = max(worst, rep.max_violation)
            suites += 1
            assert rep.verdict == "holds", (p, d)
    for d in (2, 3):
        for p in (2.1, 2.5, 3.0, 4.0):
            rep = verify_pair("clarkson_lower", Schatten(p, d), samples=10000, seed=suites, tolerance=1e-12, jobs=4)
            worst = max(worst, rep.max_violation)
            suites += 1
            assert rep.verdict == "holds", ("schatten", p, d)
        for p in (1.0, 1.5, 1.9):
            rep = verify_pair("clarkson_upper", Schatten(p, d), samples=10000, seed=suites, tolerance=1e-12, jobs=4)
            worst = max(worst, rep.max_violation)
            suites += 1
            assert rep.verdict == "holds", ("schatten", p, d)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 60.0
    _verdict(capsys, 3, ok,
             f"{suites} suites, worst relative violation {worst:.3e}, {elapsed:.1f} s")
    assert ok


def test_criterion_04_beckner_grid(capsys):
    """401x401 grid holds for p in {2, 2.5, 3, 4}; equality at p = 2."""
    worst = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        rep = verify_beckner(p, grid=401)
        worst = max(worst, rep.max_violation)
        assert rep.verdict == "holds", p
    # endpoint equality: both sides agree identically on the grid at p = 2
    axis = np.linspace(-2.0, 2.0, 401)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    lhs = 0.5 * (np.abs(xs + ys) ** 2 + np.abs(xs - ys) ** 2)
    rhs = 0.5 * ((xs + ys) ** 2 + (xs - ys) ** 2)
    eq_gap = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-12 and eq_gap <= 1e-12
    _verdict(capsys, 4, ok,
             f"max violation {worst:.3e}, endpoint equality gap {eq_gap:.3e}")
    assert ok


def test_criterion_05_jvn_estimator(capsys):
    """Hilbert -> 1 to 1e-9; l_4^2 matches the angle-grid oracle to 1e-4 and
    stays below 2^(2/r); duality gaps <= 1e-3 for p in {3, 4}."""
    euclid_gap = 0.0
    for d in (2, 4, 8):
        est = jvn_lower_bound(Euclid(d), budget=16, seed=0)
        euclid_gap = max(euclid_gap, abs(est.lower_bound - 1.0))
    est4 = jvn_lower_bound(Lp(4.0, 2), budget=64, seed=0)
    oracle = oracles.jvn_grid_oracle(4.0)
    oracle_gap = abs(est4.lower_bound - oracle)
    bound = 2.0 ** (2.0 / 4.0)
    below_bound = est4.lower_bound <= bound + 1e-12
    gaps = {p: duality_gap(p, 2, seed=0) for p in (3.0, 4.0)}
    ok = (euclid_gap <= 1e-9 and oracle_gap <= 1e-4 and below_bound
          and all(g <= 1e-3 for g in gaps.values()))
    _verdict(capsys, 5, ok,
             f"hilbert gap {euclid_gap:.2e}, oracle gap {oracle_gap:.2e}, "
             f"duality gaps p=3: {gaps[3.0]:.2e}, p=4: {gaps[4.0]:.2e}")
    assert euclid_gap <= 1e-9
    assert oracle_gap <= 1e-4
    assert below_bound
    assert all(g <= 1e-3 for g in gaps.values())


def test_criterion_06_alpha_beta_diagnostics(capsys):
    """p_n = 2 + 1/n with Clarkson inputs: beta nonincreasing, beta_10 - 1 < 0.35,
    trend to 1 by n = 10^3; tail defect <= beta_n + 1e-9 on 10^3 samples."""
    ns = np.arange(1, 1001)
    ps = 2.0 + 1.0 / ns
    avals = np.array([jvn_upper_bound_clarkson(p) for p in ps])
    rep = alpha_beta(ps, avals)
    nonincreasing = bool(np.all(np.diff(rep.beta) <= 0.0))
    beta10 = float(rep.beta[9])
    tail_ok = bool(np.all(rep.beta[9:] - 1.0 <= beta10 - 1.0 + 1e-15))
    trend = float(rep.beta[-1] - 1.0)
    spec = NakanoSpec(FormulaExponents("power", 1.0))
    defect = tail_parallelogram_defect(spec, 10, samples=1000, seed=0)
    defect_ok = defect <= beta10 + 1e-9
    ok = nonincreasing and (beta10 - 1.0 < 0.35) and tail_ok and trend < 0.01 and defect_ok
    _verdict(capsys, 6, ok,
             f"beta_10 - 1 = {beta10 - 1.0:.4f}, beta_1000 - 1 = {trend:.5f}, "
             f"tail defect {defect:.6f} <= {beta10:.6f}")
    assert ok


def test_criterion_07_nakano_condition_verdicts(capsys):
    """Power family (s = 0.01 and 1) converges for every c, log family has
    critical c = exp(-1/4), loglog and constant p = 3 families admit no c."""
    grid = [0.3, 0.5, 0.7, 0.9]
    power = nakano_condition_verdict(FormulaExponents("power", 1.0), grid)
    slow_power = nakano_condition_verdict(FormulaExponents("power", 1.0, s=0.01), grid)
    log = nakano_condition_verdict(FormulaExponents("log", 1.0, b=1.0), grid)
    loglog = nakano_condition_verdict(FormulaExponents("loglog", 1.0, b=3.0), grid)
    constant = nakano_condition_verdict(ConstantExponents(3.0), grid)
    log_by_c = {v.c: v.verdict for v in log.verdicts}
    checks = [
        all(v.verdict == "converges" for v in power.verdicts + slow_power.verdicts),
        log.critical_c == math.exp(-0.25),
        log_by_c == {0.3: "converges", 0.5: "converges", 0.7: "converges", 0.9: "diverges"},
        loglog.overall == "none-in-grid",
        all(v.verdict == "diverges" for v in loglog.verdicts + constant.verdicts),
        loglog.critical_c == constant.critical_c == 0.0,
    ]
    ok = all(checks)
    _verdict(capsys, 7, ok,
             f"power s=0.01 {slow_power.overall}, log critical c {log.critical_c!r}, "
             f"loglog {loglog.overall}, constant p=3 {constant.overall}")
    assert ok


def test_criterion_08_expansion_ratio(capsys):
    """Square over scalars: ratio at Theta = 1e-4 equals 1 - Theta/4 to 1e-6;
    quartic modular: ratio climbs to 1 monotonically."""
    s = 0.01  # Theta(x) = s^2 = 1e-4
    got = scalar_sum_expansion_ratio(square(Euclid(1)), np.array([s]))
    target = 1.0 - s * s / 4.0
    square_gap = abs(got - target)
    quartic = PowerModular(Lp(4.0, 1), 4.0)
    ratios = [
        scalar_sum_expansion_ratio(quartic, np.array([m ** 0.25]))
        for m in (1e-2, 1e-3, 1e-4)
    ]
    gaps = [abs(r - 1.0) for r in ratios]
    monotone = gaps[0] >= gaps[1] >= gaps[2]
    ok = square_gap <= 1e-6 and monotone and gaps[-1] < 1e-3
    _verdict(capsys, 8, ok,
             f"square ratio gap {square_gap:.2e}, quartic |ratio-1|: "
             + " > ".join(f"{g:.1e}" for g in gaps))
    assert ok


def test_criterion_09_isometry_lab(capsys):
    """Telescoping <= 1e-10 up to n = 50 on every constructed embedding; the
    counterexample is isometric yet fails the limit check exactly at xi_0;
    intersection dims 1 vs 0; summand found in Euclid(3) but a grid floor
    > 0.01 in l_4^2."""
    rng = np.random.default_rng(0)
    embeddings = [
        build_inclusion_embedding(Euclid(3)),
        build_inclusion_embedding(Lp(4.0, 2)),
        build_inclusion_embedding(TwoSum((Lp(4.0, 2), Euclid(1)))),
        build_counterexample_embedding(Lp(4.0, 2)),
        build_counterexample_embedding(Lp(3.0, 3)),
        build_counterexample_embedding(Euclid(2)),
    ]
    worst_defect = 0.0
    for t in embeddings:
        for _ in range(10):
            x = rng.standard_normal(t.domain.dim)
            trace = pt_iterate(t, x, n_max=50)
            worst_defect = max(worst_defect, float(np.max(trace.defects)))
    t_cx = build_counterexample_embedding(Lp(4.0, 2))
    iso = is_isometric_embedding(t_cx, seed=0)
    basis = [np.eye(3)[i] for i in range(3)]
    limit = limit_isometry_check(t_cx, basis, n_max=12)
    flags = [e.passed for e in limit.entries]
    xi0_only = flags == [True, True, False]
    xi0_limit = limit.entries[2]
    dims_ok = (range_intersection_dim(t_cx) == 1
               and range_intersection_dim(build_inclusion_embedding(Lp(4.0, 2))) == 0)
    summand = find_one_dim_two_summand(Euclid(3), budget=8, seed=0)
    floor = two_summand_grid_floor(Lp(4.0, 2), n_xi=720, n_phi=720, samples=128, seed=0)
    ok = (worst_defect <= 1e-10
          and iso.isometric and iso.max_deviation <= 1e-12
          and xi0_only and xi0_limit.norm_x == 1.0 and abs(xi0_limit.limit) <= 1e-12
          and dims_ok
          and summand.found and summand.residual <= 1e-8
          and floor > 0.01)
    _verdict(capsys, 9, ok,
             f"telescoping {worst_defect:.2e}, isometry dev {iso.max_deviation:.2e}, "
             f"dims (1,0)={'ok' if dims_ok else 'BAD'}, summand residual "
             f"{summand.residual:.1e}, grid floor {floor:.3f}")
    assert ok


def test_criterion_10_determinism(capsys):
    """Golden campaigns reproduce byte-identical payloads, two runs each at
    jobs 1 and jobs 8."""
    configs = sorted((REPO / "configs" / "golden").glob("*.json"))
    assert configs, "golden configs missing"
    checked = 0
    all_ok = True
    for path in configs:
        base = json.loads(path.read_text())
        expected = (REPO / "tests" / "golden" / f"{base['name']}.payload.json").read_bytes().rstrip(b"\n")
        for jobs in (1, 8):
            for _ in range(2):
                config = {**base, "jobs": jobs}
                result = run_campaign(config)
                got = json.dumps(
                    result.to_json_obj(include_meta=False)["payload"], sort_keys=True
                ).encode()
                all_ok = all_ok and (got == expected)
                checked += 1
    _verdict(capsys, 10, all_ok,
             f"{checked} runs over {len(configs)} campaigns, all payloads byte-identical")
    assert all_ok
