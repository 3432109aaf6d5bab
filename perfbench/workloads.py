"""Workload generation for the modbanach benchmark.

A workload is a list of ops that one client (the benchmark process) runs back
to back; one such run over the list is a pass.  The ops' inputs are drawn
from the seed before any timing starts, so the same seed always yields the
same ops.  Every op goes through a public entry point of the package:
``cli.run_campaign`` for campaigns, or a library call at acceptance scale.

Each op carries its own output check, which the runner calls outside the
timed region.  A check returns ``None`` when the output is right and a short
message when it is not.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from modbanach import cli, geomconst, modular, nakano, sampling, spaces

#: The (primary, secondary) work classes whose rates each workload reports.
CLASSES = {
    "search": ("jvn", "summand"),
    "sweep": ("verify", "grid"),
    "solve": ("solves", "tail"),
}

#: Name and unit of work under which each class's rate is printed.
CLASS_RATES = {
    "jvn": ("jvn_starts_per_s", "starts"), "summand": ("summand_starts_per_s", "starts"),
    "verify": ("verify_pairs_per_s", "pairs"), "grid": ("grid_cells_per_s", "cells"),
    "solves": ("solves_per_s", "solves"), "tail": ("tail_pairs_per_s", "pairs"),
}

VERIFY_JOBS = 2


@dataclass
class Op:
    """One call into the package: what to run, how much work it is, how to check it."""

    name: str
    cls: str | None           # work class the op's units count towards
    call: Callable[[], object]
    units: Callable[[object], float]
    check: Callable[[object], str | None]
    campaign: bool            # True when the op is a cli.run_campaign call
    config: dict | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _campaign_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _campaign(name: str, cls: str | None, config: dict, units, check) -> Op:
    # Looked up at call time so a tracer that rebinds cli.run_campaign sees it.
    return Op(name, cls, lambda: cli.run_campaign(config), units, check, True, config)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# search: multi-start JvN ascent and 2-summand descent


def _clarkson(p: float) -> float:
    return 2.0 ** (2.0 * abs(0.5 - 1.0 / p))


def _jvn_check(target):
    """``target`` is the closed-form constant, or None for the two_sum bracket."""
    def check(res):
        lb = res.payload["lower_bound"]
        if not _finite(lb):
            return f"non-finite lower bound {lb!r}"
        if res.payload["starts"] != res.config["jvn"]["budget"] + 1:
            return f"starts {res.payload['starts']} != budget + 1"
        if target is None:
            if not math.sqrt(2.0) - 1e-4 <= lb <= 2.0:
                return f"two_sum bound {lb!r} outside [sqrt2 - 1e-4, 2]"
        elif abs(lb - target) > 1e-4 or lb > target + 1e-12:
            return f"lower bound {lb!r} vs closed form {target!r}"
        return None
    return check


def _summand_check(expect_found: bool):
    def check(res):
        p = res.payload
        if not _finite(p["residual"]):
            return f"non-finite residual {p['residual']!r}"
        if expect_found and not (p["found"] and p["residual"] <= 1e-8):
            return f"summand not found (residual {p['residual']!r})"
        if not expect_found and (p["found"] or p["residual"] <= 0.01):
            return f"unexpected summand (residual {p['residual']!r})"
        if "grid_floor" in p and not (_finite(p["grid_floor"]) and p["grid_floor"] > 0.01):
            return f"grid floor {p['grid_floor']!r} not above 0.01"
        return None
    return check


_L4_PLUS_LINE = {"kind": "two_sum", "parts": [{"kind": "lp", "p": 4.0, "d": 2},
                                              {"kind": "euclid", "d": 1}]}


def search_ops(seed: int) -> list:
    rng = _rng(seed, 1)
    ops = []
    jvn = [
        ({"kind": "lp", "p": 4.0, "d": 8}, 64, _clarkson(4.0)),
        ({"kind": "lp", "p": 1.5, "d": 2}, 64, _clarkson(1.5)),
        ({"kind": "lp", "p": 4.0, "d": 2}, 64, _clarkson(4.0)),
        ({"kind": "lp", "p": 3.0, "d": 2}, 64, _clarkson(3.0)),
        ({"kind": "schatten", "p": 3.0, "d": 2}, 32, _clarkson(3.0)),
        (_L4_PLUS_LINE, 32, None),
    ]
    for space, budget, target in jvn:
        cfg = {"command": "jvn", "seed": _campaign_seed(rng),
               "jvn": {"space": space, "budget": budget}}
        ops.append(_campaign(f"jvn {space['kind']}", "jvn", cfg,
                             lambda r: r.payload["starts"], _jvn_check(target)))
    # (space, budget, summand exists, campaigns).  How long a descent runs
    # depends on its start, so the not-found budgets are 8x the acceptance
    # sizes and the two_sum, whose search stops at the first success, runs
    # under 4 seeds: that keeps the pass's work within a few percent across
    # seeds.
    summand = [
        ({"kind": "lp", "p": 4.0, "d": 2}, 128, False, 1),
        ({"kind": "lp", "p": 3.0, "d": 3}, 64, False, 1),
        ({"kind": "euclid", "d": 3}, 8, True, 1),
        (_L4_PLUS_LINE, 8, True, 4),
    ]
    for space, budget, found, copies in summand:
        for _ in range(copies):
            cfg = {"command": "summand", "seed": _campaign_seed(rng),
                   "summand": {"space": space, "budget": budget}}
            ops.append(_campaign(f"summand {space['kind']}", "summand", cfg,
                                 lambda r: r.payload["starts"], _summand_check(found)))
    return ops


# ---------------------------------------------------------------------------
# sweep: large verify batches and the 2-summand angle grid


def _verify_check(res):
    p = res.payload
    if not _finite(p["max_violation"], p["tolerance"]):
        return f"non-finite violation {p['max_violation']!r}"
    if p["verdict"] != "holds" or p["max_violation"] > p["tolerance"]:
        return f"{p['check']} {p['verdict']} with max violation {p['max_violation']!r}"
    return None


SWEEP_VERIFY = [
    ("clarkson_lower", {"space": {"kind": "lp", "p": 3.0, "d": 3}}, 1_000_000),
    ("clarkson_upper", {"space": {"kind": "lp", "p": 1.5, "d": 16}}, 200_000),
    ("schatten_inf", {"d": 4}, 100_000),
    ("two_smooth", {"space": {"kind": "lp", "p": 4.0, "d": 4}}, 200_000),
    ("parallelogram", {"space": {"kind": "two_sum", "parts": [{"kind": "euclid", "d": 2},
                                                             {"kind": "euclid", "d": 3}]}},
     200_000),
    ("clarkson_lower", {"space": {"kind": "schatten", "p": 3.0, "d": 3}}, 20_000),
]
GRID = 360
GRID_CAMPAIGNS = 2


def verify_config(check: str, params: dict, samples: int, seed: int, jobs: int) -> dict:
    return {"command": "verify", "seed": seed, "jobs": jobs,
            "verify": {"check": check, "samples": samples, **params}}


def sweep_ops(seed: int) -> list:
    rng = _rng(seed, 2)
    ops = []
    for check, params, samples in SWEEP_VERIFY:
        cfg = verify_config(check, params, samples, _campaign_seed(rng), VERIFY_JOBS)
        ops.append(_campaign(f"verify {check}", "verify", cfg,
                             lambda r: r.payload["samples"], _verify_check))
    space = {"kind": "lp", "p": 4.0, "d": 2}
    suite_rows = len(sampling.structured_vectors(spaces.space_from_dict(space))) + 128
    # two grid campaigns under different seeds: with one 1.5 s op per pass
    # the grid's median rested on too few samples to be steady across runs
    for _ in range(GRID_CAMPAIGNS):
        cfg = {"command": "summand", "seed": _campaign_seed(rng),
               "summand": {"space": space, "budget": 1, "grid": {"n_xi": GRID, "n_phi": GRID}}}
        ops.append(_campaign("summand grid", "grid", cfg,
                             lambda r: GRID * GRID * suite_rows, _summand_check(False)))
    return ops


# ---------------------------------------------------------------------------
# solve: Luxemburg solves, Nakano arithmetic and per-campaign overhead

NORM_SPECS = [
    ({"exponents": {"kind": "power", "a": 1.0}}, 1),
    ({"exponents": {"kind": "log", "a": 1.0, "b": 1.0}}, 1),
    ({"exponents": {"kind": "loglog", "a": 1.0, "b": 3.0}}, 1),
    ({"exponents": {"kind": "log", "a": 1.0, "b": 1.0},
      "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}}, 2),
    ({"exponents": {"kind": "power", "a": 1.0},
      "blocks": {"kind": "lp_matched", "d": 2}}, 2),
]
NORM_CAMPAIGNS = 200
NORM_VECTORS = 40
C_GRID = (0.3, 0.5, 0.7, 0.9)
#: Criterion 07: the power family converges for every c < 1, the log family
#: for c < exp(-1/4) ~ 0.78, the loglog family for no c.
FAMILIES = {
    "power": ({"kind": "power", "a": 1.0}, lambda c: "converges"),
    "log": ({"kind": "log", "a": 1.0, "b": 1.0}, lambda c: "converges" if c < 0.78 else "diverges"),
    "loglog": ({"kind": "loglog", "a": 1.0, "b": 3.0}, lambda c: "diverges"),
}
NAKANO_PER_FAMILY = 7
FAR_CAMPAIGNS = 10
FAR_SCHEDULE = [10, 30, 100, 300, 1000, 3000]
TAIL_CUTOFF = 10
TAIL_PAIRS = 1000
TAIL_CALLS = 2
LUX_ROWS = 2000


def _block_vector(rng: np.random.Generator, dim: int) -> dict:
    count = int(rng.integers(1, 7))
    idx = rng.choice(np.arange(1, 41), count, replace=False)
    return {str(int(n)): (rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0)).tolist()
            for n in idx}


def _norm_check(spec_dict: dict):
    spec = nakano.spec_from_dict(spec_dict)

    def check(res):
        vectors = res.config["norm"]["vectors"]
        norms = res.payload["norms"]
        if len(norms) != len(vectors):
            return f"{len(norms)} norms for {len(vectors)} vectors"
        for v, lam in zip(vectors, norms):
            if not (_finite(lam) and lam > 0.0):
                return f"norm {lam!r} is not finite and positive"
            theta = nakano.nakano_modular(spec, nakano.BlockVector.from_dict(v).scale(1.0 / lam))
            if not abs(theta - 1.0) <= 1e-10:
                return f"|Theta(x/||x||) - 1| = {abs(theta - 1.0):.3e}"
        return None
    return check


def _nakano_check(expected):
    def check(res):
        got = {v["c"]: v["verdict"] for v in res.payload["verdicts"]}
        want = {c: expected(c) for c in res.config["nakano"]["c_grid"]}
        return None if got == want else f"verdicts {got} != {want}"
    return check


def _far_check(res):
    p = res.payload
    if not all(_finite(g) for g in p["gaps"]) or not _finite(p["max_violation"]):
        return "non-finite far-block gap"
    return None if p["verdict"] == "holds" else f"far-block limit {p['verdict']}"


def _golden_check(expected: bytes):
    def check(res):
        got = json.dumps(res.to_json_obj(include_meta=False)["payload"], sort_keys=True).encode()
        return None if got == expected else "payload differs from the stored golden"
    return check


def _beta(cutoff: int) -> float:
    """beta_cutoff of p_n = 2 + 1/n from Clarkson inputs over n <= 1000, as in criterion 06."""
    ps = 2.0 + 1.0 / np.arange(1, 1001)
    rep = geomconst.alpha_beta(ps, [geomconst.jvn_upper_bound_clarkson(p) for p in ps])
    return float(rep.beta[cutoff - 1])


def _tail_op(seed: int) -> Op:
    spec = nakano.NakanoSpec(nakano.FormulaExponents("power", 1.0))
    bound = _beta(TAIL_CUTOFF) + 1e-9

    def check(defect):
        if not _finite(defect) or defect > bound:
            return f"tail defect {defect!r} above beta_{TAIL_CUTOFF} + 1e-9 = {bound!r}"
        return None
    return Op("tail_parallelogram_defect", "tail",
              lambda: geomconst.tail_parallelogram_defect(spec, TAIL_CUTOFF, TAIL_PAIRS, seed),
              lambda r: TAIL_PAIRS, check, False)


def _luxemburg_op(rng: np.random.Generator) -> Op:
    mods = (modular.square(spaces.Euclid(2)), modular.PowerModular(spaces.Lp(4.0, 2), 4.0))
    lux = modular.LuxemburgSpace(mods)
    rows = rng.standard_normal((LUX_ROWS, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (LUX_ROWS, 1))
    theta = modular.DirectSumModular(mods)

    def check(norms):
        if norms.shape != (LUX_ROWS,) or not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
            return "LuxemburgSpace norms not finite and positive"
        for x, lam in zip(rows, norms):
            r = modular.modular_eval(theta, tuple(lux.split(x / lam)))
            if not abs(r - 1.0) <= 1e-10:
                return f"|Theta(x/||x||) - 1| = {abs(r - 1.0):.3e}"
        return None
    return Op("LuxemburgSpace.norm_batch", "solves", lambda: lux.norm_batch(rows),
              lambda r: LUX_ROWS, check, False)


def load_goldens(root: Path) -> list:
    """(config, expected payload bytes) for every stored golden campaign."""
    out = []
    for path in sorted((root / "configs" / "golden").glob("*.json")):
        config = json.loads(path.read_text())
        expected = (root / "tests" / "golden" / f"{config['name']}.payload.json").read_bytes()
        out.append((config, expected.rstrip(b"\n")))
    if not out:
        raise FileNotFoundError(f"no golden configs under {root / 'configs' / 'golden'}")
    return out


def solve_ops(seed: int, goldens: list) -> list:
    rng = _rng(seed, 3)
    ops = []
    for k in range(NORM_CAMPAIGNS):
        spec, dim = NORM_SPECS[k % len(NORM_SPECS)]
        vectors = [_block_vector(rng, dim) for _ in range(NORM_VECTORS)]
        cfg = {"command": "norm", "seed": 0, "norm": {"nakano": spec, "vectors": vectors}}
        ops.append(_campaign("norm nakano", "solves", cfg,
                             lambda r: len(r.payload["norms"]), _norm_check(spec)))
    for fam, (exponents, expected) in FAMILIES.items():
        for _ in range(NAKANO_PER_FAMILY):
            mask = rng.random(len(C_GRID)) < 0.5
            mask[int(rng.integers(len(C_GRID)))] = True
            grid = [c for c, keep in zip(C_GRID, mask) if keep]
            cfg = {"command": "nakano", "seed": 0,
                   "nakano": {"exponents": exponents, "c_grid": grid}}
            ops.append(_campaign(f"nakano {fam}", None, cfg, lambda r: 0, _nakano_check(expected)))
    for _ in range(FAR_CAMPAIGNS):
        count = int(rng.integers(1, 4))
        idx = rng.choice(np.arange(1, 6), count, replace=False)
        x = {str(int(n)): [float(rng.standard_normal())] for n in idx}
        cfg = {"command": "verify", "seed": 0,
               "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                          "x": x, "t": float(rng.uniform(0.5, 1.0)), "schedule": FAR_SCHEDULE}}
        ops.append(_campaign("verify far_block_limit", "solves", cfg,
                             lambda r: len(r.payload["schedule"]), _far_check))
    for config, expected in goldens:
        ops.append(_campaign(f"golden {config['name']}", None, config,
                             lambda r: 0, _golden_check(expected)))
    # two tail calls under different seeds, for the same reason as the two
    # grid campaigns of sweep
    ops.extend(_tail_op(_campaign_seed(rng)) for _ in range(TAIL_CALLS))
    ops.append(_luxemburg_op(rng))
    return ops


WORKLOADS = ("search", "sweep", "solve")


def make_ops(workload: str, seed: int, root: Path) -> list:
    """The ops of one pass of a workload, drawn from the seed."""
    if workload == "search":
        return search_ops(seed)
    if workload == "sweep":
        return sweep_ops(seed)
    return solve_ops(seed, load_goldens(root))


def with_jobs(op: Op, jobs: int) -> Op:
    """The same campaign op run with another ``jobs`` value."""
    return _campaign(op.name, op.cls, {**op.config, "jobs": jobs}, op.units, op.check)
