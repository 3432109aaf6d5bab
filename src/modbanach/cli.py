"""Campaign runner: JSON config in, JSON/CSV reports out.

A campaign is one command (norm evaluation, JvN estimate, inequality
verification, summability verdict, alpha/beta asymptotics, summand search,
or a compression-iteration trace) plus a seed.  The numerical payload of a
result is a pure function of the config: reruns are byte-identical, and the
jobs knob only widens the thread pool over pre-seeded sample batches.

Exit codes: 0 all verdicts hold, 1 a verified inequality was violated,
2 invalid config, 3 numerical failure (a non-finite modular value, a
non-Cauchy trace or an ambiguous rank decision).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, geomconst, isolab
from . import verify as vf
from .modular import NumericalFailure
from .nakano import (_EXPONENT_KINDS, _INDEX_MAX, BlockVector, FormulaExponents, nakano_condition_terms,
                     nakano_condition_verdict, nakano_norms, spec_from_dict)
from .spaces import (_COORDS_MAX, _ELEMENTS_MAX, _SCHATTEN_D, REQUIRED, ConfigError, Schatten, _int_reader,
                     _list_reader, _read_kind, _read_object, as_real, space_from_dict)

ENV_OUT = "MODBANACH_OUT"

__all__ = ["ConfigError", "CampaignResult", "run_campaign", "emit_plot_data", "main"]


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON dumping."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# readers of config values: reader(value, path) is the value read, or a
# ConfigError that names the path


def _block_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: block vector must map block indices to coordinate lists")
    return obj


def _floats(obj, where: str) -> np.ndarray:
    """An array of real parameters; a string, an integer beyond the float range or a NaN is a ConfigError."""
    arr = np.asarray(obj)
    if arr.dtype.kind in "SU":
        raise ConfigError(f"{where}: a string is not a number")
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError:
        raise ConfigError(f"{where}: an integer too large for a float") from None
    if np.isnan(arr).any():
        raise ConfigError(f"{where}: NaN is not a number")
    return arr


def _floats_or(word: str):
    return lambda obj, where: word if obj == word else _floats(obj, where)


def _lambdas(obj, where: str) -> np.ndarray:
    arr = _floats(obj, where)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{where}: expected a nonempty list of numbers, got {obj!r}")
    return arr


_block_index = _int_reader(1, _INDEX_MAX)


def _schedule(obj, where: str) -> list:
    # gaps are compared from near to far, so the blocks must move out
    ns = _list_reader(_block_index)(obj, where)
    if len(ns) < 2 or any(m >= n for m, n in zip(ns, ns[1:])):
        raise ConfigError(f"{where}: expected at least two strictly increasing block indices, got {obj!r}")
    return ns


def _text(pattern: str):
    def read(value, where: str) -> str:
        if not isinstance(value, str) or not re.fullmatch(pattern, value):
            raise ConfigError(f"{where}: expected a string matching {pattern!r}, got {value!r}")
        return value
    return read


@dataclass(frozen=True)
class CampaignResult:
    name: str
    config: dict
    payload: dict
    passed: bool
    violated: bool
    numerical_failure: bool
    wall_time: float
    version: str
    meta: dict = field(default_factory=dict)   # run facts outside the payload, e.g. stop counts

    def to_json_obj(self, include_meta: bool = True) -> dict:
        obj = {
            "name": self.name,
            "version": self.version,
            "config": _plain(self.config),
            "summary": {
                "passed": self.passed,
                "violated": self.violated,
                "numerical_failure": self.numerical_failure,
            },
            "payload": _plain(self.payload),
        }
        if include_meta:
            obj["meta"] = {"wall_time_s": self.wall_time, **self.meta}
        return obj


# ---------------------------------------------------------------------------
# command runners; each takes seed, jobs and its parameters as read by its
# key table, and returns (payload, passed, violated, numerical_failure); a
# search runner appends a meta dict of how its starts ended


def _run_norm(seed, jobs, space, nakano, vectors):
    if (space is None) == (nakano is None):
        raise ConfigError("norm: give exactly one of 'space' or 'nakano'")
    if space is not None:
        norms = [space.norm(_floats(v, "norm.vectors")) for v in vectors]
    else:
        norms = nakano_norms(nakano, (_block_dict(v, "norm.vectors").items() for v in vectors)).tolist()
    return {"norms": norms}, True, False, False


def _run_jvn(seed, jobs, space, budget):
    est = geomconst.jvn_lower_bound(space, budget=budget, seed=seed)
    upper = None
    if hasattr(space, "p") and math.isfinite(space.p):
        upper = geomconst.jvn_upper_bound_clarkson(space.p)
    witness = {"x": vf._array_to_json(est.witness.x), "y": vf._array_to_json(est.witness.y),
               "value": est.witness.value}
    payload = {"lower_bound": est.lower_bound, "upper_bound_clarkson": upper, "witness": witness,
               "starts": est.starts, "evaluations": est.evaluations}
    ok = 1.0 - 1e-9 <= est.lower_bound <= 2.0 + 1e-9
    if upper is not None:
        ok = ok and est.lower_bound <= upper + 1e-6
    return payload, ok, False, False, {"stops": est.stops}


def _report(rep: vf.ViolationReport):
    return rep.to_dict(), rep.verdict == "holds", rep.violated, rep.verdict == "numerical_failure"


def _run_pair(seed, jobs, check, **values):
    return _report(vf.verify_pair(check, seed=seed, jobs=jobs, **values))


def _run_far_block_limit(seed, jobs, nakano, x, t, schedule):
    gaps = vf.far_block_limit_gaps(nakano, x, t, schedule)
    steps = np.diff(gaps)
    holds = bool(np.all(steps <= 1e-12))
    payload = {"check": "far_block_limit", "schedule": schedule, "gaps": gaps.tolist(),
               "verdict": "holds" if holds else "violated", "max_violation": float(max(0.0, np.max(steps)))}
    return payload, holds, not holds, False


def _run_nakano(seed, jobs, exponents, c_grid, terms_count):
    report = nakano_condition_verdict(exponents, c_grid)
    terms = nakano_condition_terms(exponents, c_grid[0], count=terms_count)
    series = {"c": terms.c, "n": terms.indices.tolist(), "term": terms.terms.tolist()}
    payload = {"verdicts": [{"c": v.c, "verdict": v.verdict} for v in report.verdicts],
               "overall": report.overall, "critical_c": report.critical_c, "series": series}
    return payload, True, False, False


def _run_asymptotics(seed, jobs, exponents, start, horizon, jvn_values):
    if horizon < start:
        raise ConfigError(f"asymptotics.start: {start} is beyond the horizon {horizon}")
    if horizon - start >= _ELEMENTS_MAX:
        raise ConfigError(f"asymptotics.horizon: more than {_ELEMENTS_MAX} rows from start {start}")
    ns = np.arange(start, horizon + 1)
    ps = exponents.values(ns)
    tail = None
    if isinstance(jvn_values, str):
        jvn_values = np.array([geomconst.jvn_upper_bound_clarkson(p) for p in ps])
        if isinstance(exponents, FormulaExponents):
            tail = geomconst.clarkson_alpha_tail_bound(exponents, horizon)
    rep = geomconst.alpha_beta(ps, jvn_values, tail_bound=tail)
    payload = {"n": ns.tolist(), "exponent": ps.tolist(), "alpha": rep.alpha.tolist(), "beta": rep.beta.tolist(),
               "tail_bound": rep.tail_bound}
    return payload, True, False, False


def _run_summand(seed, jobs, space, budget, grid):
    if grid is not None and space.dim != 2:
        raise ConfigError("summand.grid: the angle grid needs a two-dimensional space")
    result = isolab.find_one_dim_two_summand(space, budget=budget, seed=seed)
    payload = {"found": result.found, "residual": result.residual, "starts": result.starts, "candidate": None}
    if result.candidate is not None:
        payload["candidate"] = {"xi": result.candidate.xi.tolist(), "phi": result.candidate.phi.tolist()}
    if grid is not None:
        payload["grid_floor"] = isolab.two_summand_grid_floor(space, **grid, seed=seed)
    return payload, True, False, False, {"stops": result.stops}


def _run_iterate(seed, jobs, embedding, x, n_max):
    t = embedding
    if isinstance(x, str):
        x = np.zeros(t.domain.dim)
        x[-1] = 1.0
    elif x.shape != (t.domain.dim,):
        raise ConfigError(f"iterate.x: expected {t.domain.dim} coordinates")
    trace = isolab.pt_iterate(t, x, n_max=n_max)
    iso = isolab.is_isometric_embedding(t, seed=seed)
    numerical_failure = not trace.cauchy
    try:
        inter_dim = isolab.range_intersection_dim(t)
    except isolab.AmbiguousRankError:
        inter_dim = None
        numerical_failure = True
    series = {"n": list(range(len(trace.norms))), "norm": trace.norms.tolist(),
              "residual": trace.residuals.tolist(), "defect": trace.defects.tolist()}
    payload = {"isometric": iso.isometric, "max_deviation": iso.max_deviation, "cauchy": trace.cauchy,
               "intersection_dim": inter_dim, "trace": series}
    max_defect = float(trace.defects.max()) if len(trace.defects) else 0.0
    passed = iso.isometric and trace.cauchy and max_defect <= 1e-10
    return payload, passed, False, numerical_failure


# ---------------------------------------------------------------------------
# key tables: key -> (reader, default or REQUIRED).  A key not in its
# object's table is rejected, so every key a config gives is read.


def _bound(run):
    # a build for _read_kind: run with the values read bound, waiting for seed and jobs
    return lambda **values: partial(run, **values)


def _params(run, table):
    # the reader of a command's parameter object: run with the values read bound
    return lambda obj, where: partial(run, **_read_object(table, obj, where))


_SPACE = (space_from_dict, REQUIRED)
_EXPONENTS = (partial(_read_kind, _EXPONENT_KINDS), REQUIRED)
_TOLERANCE = (as_real, 1e-10)
# the upper bounds of size keys, each keeping the largest array its key drives
# within _ELEMENTS_MAX elements
_BUDGET = _int_reader(1, _ELEMENTS_MAX // (2 * _COORDS_MAX))   # a start is a row of two points
_ANGLES = _int_reader(1, _ELEMENTS_MAX // 256)   # an angle takes a value per grid sample, under 256
_SAMPLED = {"samples": (_int_reader(0, _ELEMENTS_MAX), 10000), "tolerance": _TOLERANCE}
_PAIR = {"space": _SPACE, **_SAMPLED}
_H_DIM = (_int_reader(1, _COORDS_MAX), 4)

#: the tables of verify's checks, but for the plain pair checks that _read_verify adds
_CHECKS = {
    "two_smooth": (_bound(partial(_run_pair, check="two_smooth")), {**_PAIR, "c": (as_real, None)}),
    # the operator-norm space is named by its size alone
    "schatten_inf": (lambda d, **values: partial(_run_pair, check="schatten_inf",
                                                 space=Schatten(math.inf, d), **values),
                     {"d": _SCHATTEN_D, **_SAMPLED}),
    # vf's checks are looked up when they run, so a tracer that rebinds them sees the calls
    "beckner": (_bound(lambda seed, jobs, **values: _report(vf.verify_beckner(**values))),
                {"p": (as_real, REQUIRED), "grid": (_int_reader(1, math.isqrt(_ELEMENTS_MAX)), 401),   # grid^2 points
                 "extent": (as_real, 2.0), "tolerance": (as_real, 1e-12)}),
    "lp_pair": (_bound(lambda seed, jobs, **values: _report(vf.verify_lp_pair(**values))),
                {"space": _SPACE, "x": (_floats, REQUIRED), "y": (_floats, REQUIRED), "p": (as_real, None),
                 "lambdas": (_lambdas, None), "tolerance": _TOLERANCE}),
    "far_block_limit": (_bound(_run_far_block_limit),
                        {"nakano": (spec_from_dict, REQUIRED), "schedule": (_schedule, REQUIRED),
                         "x": (lambda obj, where: BlockVector.from_dict(_block_dict(obj, where)), REQUIRED),
                         "t": (as_real, 1.0)}),
}


def _read_verify(obj, where: str):
    # the pair checks are looked up as a config is read, since vf.PAIR_CHECKS may grow
    pairs = {check: (_bound(partial(_run_pair, check=check)), _PAIR) for check in vf.PAIR_CHECKS}
    return _read_kind({**pairs, **_CHECKS}, obj, where, tag="check")


_EMBEDDINGS = {
    "counterexample": (isolab.build_counterexample_embedding, {"e1": _SPACE, "h_dim": _H_DIM}),
    "inclusion": (isolab.build_inclusion_embedding, {"e0": _SPACE, "h_dim": _H_DIM}),
}


class _Command(NamedTuple):
    read: Callable     # (parameter object, path) -> the runner, waiting for seed and jobs
    metric: Callable   # payload -> the headline number of the CSV summary


_RUNNERS = {
    "norm": _Command(
        _params(_run_norm, {"space": (space_from_dict, None), "nakano": (spec_from_dict, None),
                            "vectors": (lambda vectors, where: vectors, REQUIRED)}),
        lambda p: p["norms"][0] if p["norms"] else 0.0),
    "jvn": _Command(_params(_run_jvn, {"space": _SPACE, "budget": (_BUDGET, 64)}),
                    lambda p: p["lower_bound"]),
    "verify": _Command(_read_verify, lambda p: p.get("max_violation", 0.0)),
    "nakano": _Command(
        _params(_run_nakano, {"exponents": _EXPONENTS, "c_grid": (_list_reader(as_real), REQUIRED),
                              "terms_count": (_int_reader(hi=_ELEMENTS_MAX), 64)}),
        lambda p: p["critical_c"]),
    "asymptotics": _Command(
        _params(_run_asymptotics, {"exponents": _EXPONENTS, "start": (_block_index, 1),
                                   "horizon": (_block_index, REQUIRED),
                                   "jvn_values": (_floats_or("clarkson"), "clarkson")}),
        lambda p: p["beta"][0] if p["beta"] else 0.0),
    "summand": _Command(
        _params(_run_summand, {"space": _SPACE, "budget": (_BUDGET, 16),
                               "grid": (partial(_read_object, {"n_xi": (_ANGLES, 720),
                                                               "n_phi": (_ANGLES, 720)}), None)}),
        lambda p: p.get("grid_floor", p["residual"])),
    "iterate": _Command(
        _params(_run_iterate, {"embedding": (partial(_read_kind, _EMBEDDINGS), REQUIRED),
                               "x": (_floats_or("xi0"), "xi0"),
                               "n_max": (_int_reader(6, _ELEMENTS_MAX - 1), 50)}),   # n_max + 1 norms
        lambda p: max(p["trace"]["defect"], default=0.0)),
}

#: the top level's keys besides the command and its parameter object
_TOP = {
    "seed": (_int_reader(0), REQUIRED),
    "jobs": (_int_reader(1, 256), 1),
    "name": (_text(r"[A-Za-z0-9._-]+"), "campaign"),   # the stem of the report files
    "out": (_text(r"(?s).*"), None),
    "format": (_text("json|csv|both"), "both"),
    "plot": (_text("trace|asymptotics|nakano_terms"), None),
}
_CONFIGS = {cmd: (dict, {**_TOP, cmd: (entry.read, REQUIRED)}) for cmd, entry in _RUNNERS.items()}


def validate_config(cfg: dict) -> dict:
    """The values of a campaign config, read through its key tables; under the
    command's name is its runner with the command's parameters bound.

    A key or value a table rejects is a ConfigError; a value a library
    constructor rejects may be a ValueError or a TypeError.
    """
    cmd = cfg.get("command") if isinstance(cfg, dict) else None
    if isinstance(cmd, str) and cmd in _RUNNERS and not isinstance(cfg.get(cmd), dict):
        raise ConfigError(f"command {cmd!r} needs a {cmd!r} object with its parameters")
    return _read_kind(_CONFIGS, cfg, "", tag="command")


def run_campaign(config: dict) -> CampaignResult:
    """Validate and execute one campaign config.

    A ValueError, KeyError or TypeError the config's reading or run raises
    is a rejected parameter, a ConfigError, except a NumericalFailure; a
    MemoryError is a ConfigError too, as the config asked for more than fits.
    """
    try:
        values = validate_config(config)
        t0 = time.perf_counter()
        payload, passed, violated, numfail, *meta = values[config["command"]](seed=values["seed"],
                                                                              jobs=values["jobs"])
    except (ConfigError, NumericalFailure):
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{config['command']}: {e}") from None
    except MemoryError as e:
        raise ConfigError(f"{config['command']}: out of memory: {e}") from None
    return CampaignResult(
        name=values["name"], config=config, payload=payload, passed=passed, violated=violated,
        numerical_failure=numfail, wall_time=time.perf_counter() - t0, version=__version__,
        meta=meta[0] if meta else {},
    )


# ---------------------------------------------------------------------------
# output files


def _f17(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_summary_csv(result: CampaignResult, path: Path) -> None:
    """One-row campaign summary; floats carry 17 significant digits."""
    row = {
        "name": result.name,
        "command": result.config["command"],
        "passed": result.passed,
        "violated": result.violated,
        "numerical_failure": result.numerical_failure,
        "metric": _f17(float(_RUNNERS[result.config["command"]].metric(result.payload))),
        "seed": result.config["seed"],
        "version": result.version,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(row.keys()))
        w.writeheader()
        w.writerow(row)


def emit_plot_data(result: CampaignResult, kind: str, path) -> None:
    """Write plot-ready CSV series extracted from a campaign result.

    Kinds: "trace" (n, norm, residual, defect), "asymptotics"
    (n, alpha, beta), "nakano_terms" (n, term).
    """
    p = result.payload
    if kind == "trace":
        if "trace" not in p:
            raise ValueError("result has no iteration trace")
        tr = p["trace"]
        cols = ["n", "norm", "residual", "defect"]
        rows = [
            (n, tr["norm"][n], tr["residual"][n - 1], tr["defect"][n - 1])
            for n in range(1, len(tr["residual"]) + 1)
        ]
    elif kind == "asymptotics":
        if "alpha" not in p:
            raise ValueError("result has no alpha/beta series")
        cols = ["n", "alpha", "beta"]
        rows = list(zip(p["n"], p["alpha"], p["beta"]))
    elif kind == "nakano_terms":
        if "series" not in p:
            raise ValueError("result has no term series")
        s = p["series"]
        cols = ["n", "term"]
        rows = list(zip(s["n"], s["term"]))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([_f17(float(v)) if isinstance(v, (int, float)) else v for v in row])


def _write_outputs(result: CampaignResult, out_dir: Path, fmt: str) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        jpath = out_dir / f"{result.name}.json"
        with open(jpath, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_obj(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(jpath)
    if fmt in ("csv", "both"):
        cpath = out_dir / f"{result.name}.csv"
        write_summary_csv(result, cpath)
        written.append(cpath)
    plot_kind = result.config.get("plot")
    if plot_kind:
        ppath = out_dir / f"{result.name}_{plot_kind}.csv"
        emit_plot_data(result, plot_kind, ppath)
        written.append(ppath)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modbanach",
        description="Run a modular-space verification campaign from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the campaign JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", type=int, default=None, help="worker threads for sample batches")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: config, then ${ENV_OUT}, then cwd)")
    parser.add_argument("--format", choices=["json", "csv", "both"], default=None,
                        help="report format (default: config value or both)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error: top-level JSON value must be an object", file=sys.stderr)
        return 2

    if args.seed is not None:
        config["seed"] = args.seed
    if args.jobs is not None:
        config["jobs"] = args.jobs
    if "name" not in config:
        config["name"] = Path(args.config).stem

    try:
        result = run_campaign(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3

    out_dir = Path(args.out or config.get("out") or os.environ.get(ENV_OUT) or ".")
    fmt = args.format or config.get("format", "both")
    written = _write_outputs(result, out_dir, fmt)
    status = "ok"
    code = 0
    if result.numerical_failure:
        status, code = "numerical failure", 3
    elif result.violated:
        status, code = "violated", 1
    print(f"{result.name}: {status} ({', '.join(str(w) for w in written)})")
    return code


if __name__ == "__main__":
    sys.exit(main())
