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
import functools
import importlib.resources
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import jsonschema
import numpy as np

from . import __version__, geomconst, isolab
from . import verify as vf
from .modular import NumericalFailure, luxemburg_norms
from .nakano import (
    BlockVector,
    FormulaExponents,
    NakanoModular,
    _exponents_from_dict,
    nakano_condition_terms,
    nakano_condition_verdict,
    spec_from_dict,
)
from .spaces import Schatten, space_from_dict

ENV_OUT = "MODBANACH_OUT"

__all__ = ["ConfigError", "CampaignResult", "run_campaign", "emit_plot_data", "main"]


class ConfigError(ValueError):
    """Invalid campaign config; maps to exit code 2."""


def _schema() -> dict:
    text = importlib.resources.files("modbanach").joinpath("schema/campaign.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    # what jsonschema.validate builds on every call, built once per process
    schema = _schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_config(cfg: dict) -> None:
    e = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if e is not None:
        path = "$" + "".join(f"[{p!r}]" for p in e.absolute_path)
        raise ConfigError(f"{path}: {e.message}")
    cmd = cfg["command"]
    if cmd not in cfg or not isinstance(cfg[cmd], dict):
        raise ConfigError(f"command {cmd!r} needs a {cmd!r} object with its parameters")


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


def _block_vector(obj, where: str) -> BlockVector:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: block vector must map block indices to coordinate lists")
    return BlockVector(tuple((int(k), np.asarray(v, dtype=float)) for k, v in obj.items()))


def _need(sub: dict, key: str, where: str):
    if key not in sub:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return sub[key]


def _integer(value, where: str) -> int:
    """An integer parameter; a float or a boolean is rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


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

    def payload_bytes(self) -> bytes:
        """Deterministic byte serialization of everything but the wall time."""
        return json.dumps(self.to_json_obj(include_meta=False), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# command runners; each returns (payload, passed, violated, numerical_failure),
# and a search runner appends a meta dict of how its starts ended.
# A ValueError, KeyError or TypeError a runner raises is a rejected parameter:
# run_campaign turns it into a ConfigError, except a NumericalFailure.


def _run_norm(sub: dict, seed: int, jobs: int):
    where = "norm"
    if ("space" in sub) == ("nakano" in sub):
        raise ConfigError(f"{where}: give exactly one of 'space' or 'nakano'")
    vectors = _need(sub, "vectors", where)
    if "space" in sub:
        space = space_from_dict(sub["space"])
        norms = [space.norm(np.asarray(v, dtype=float)) for v in vectors]
    else:
        theta = NakanoModular(spec_from_dict(sub["nakano"]))
        norms = luxemburg_norms(theta, [_block_vector(v, where + ".vectors") for v in vectors]).tolist()
    return {"norms": norms}, True, False, False


def _run_jvn(sub: dict, seed: int, jobs: int):
    space = space_from_dict(_need(sub, "space", "jvn"))
    budget = _integer(sub.get("budget", 64), "jvn.budget")
    est = geomconst.jvn_lower_bound(space, budget=budget, seed=seed)
    upper = None
    if hasattr(space, "p") and math.isfinite(space.p):
        upper = geomconst.jvn_upper_bound_clarkson(space.p)
    payload = {
        "lower_bound": est.lower_bound,
        "upper_bound_clarkson": upper,
        "witness": {
            "x": vf._array_to_json(est.witness.x),
            "y": vf._array_to_json(est.witness.y),
            "value": est.witness.value,
        },
        "starts": est.starts,
        "evaluations": est.evaluations,
    }
    ok = 1.0 - 1e-9 <= est.lower_bound <= 2.0 + 1e-9
    if upper is not None:
        ok = ok and est.lower_bound <= upper + 1e-6
    return payload, ok, False, False, {"stops": est.stops}


# verify keys every pair check shares; the rest go to the check's params builder
_PAIR_KEYS = ("check", "samples", "tolerance", "space", "d")


def _pair_space(sub: dict, where: str):
    # schatten_inf configs name the operator-norm space by its size d alone
    if "space" not in sub and "d" in sub:
        return Schatten(math.inf, _integer(sub["d"], where + ".d"))
    return space_from_dict(_need(sub, "space", where))


def _run_verify(sub: dict, seed: int, jobs: int):
    where = "verify"
    check = _need(sub, "check", where)
    tol = {} if sub.get("tolerance") is None else {"tolerance": float(sub["tolerance"])}
    if check in vf.PAIR_CHECKS:
        options = {k: v for k, v in sub.items() if k not in _PAIR_KEYS}
        rep = vf.verify_pair(
            check, _pair_space(sub, where), samples=_integer(sub.get("samples", 10000), where + ".samples"),
            seed=seed, jobs=jobs, **tol, **options,
        )
    elif check == "beckner":
        rep = vf.verify_beckner(
            float(_need(sub, "p", where)),
            grid=_integer(sub.get("grid", 401), where + ".grid"),
            extent=float(sub.get("extent", 2.0)),
            **tol,
        )
    elif check == "lp_pair":
        rep = vf.verify_lp_pair(
            space_from_dict(_need(sub, "space", where)),
            np.asarray(_need(sub, "x", where), dtype=float),
            np.asarray(_need(sub, "y", where), dtype=float),
            p=sub.get("p"),
            lambdas=sub.get("lambdas"),
            **tol,
        )
    elif check == "far_block_limit":
        spec = spec_from_dict(_need(sub, "nakano", where))
        x = _block_vector(_need(sub, "x", where), where + ".x")
        schedule = [_integer(n, where + ".schedule") for n in _need(sub, "schedule", where)]
        gaps = vf.far_block_limit_gaps(spec, x, float(sub.get("t", 1.0)), schedule)
        slack = 1e-12
        holds = bool(np.all(np.diff(gaps) <= slack))
        payload = {
            "check": check,
            "schedule": schedule,
            "gaps": gaps.tolist(),
            "verdict": "holds" if holds else "violated",
            "max_violation": float(max(0.0, np.max(np.diff(gaps)))) if len(gaps) > 1 else 0.0,
        }
        return payload, holds, not holds, False
    else:
        raise ConfigError(f"{where}.check: unknown check {check!r}")
    numerical_failure = rep.verdict == "numerical_failure"
    return rep.to_dict(), rep.verdict == "holds", rep.violated, numerical_failure


def _run_nakano(sub: dict, seed: int, jobs: int):
    where = "nakano"
    exponents = _exponents_from_dict(_need(sub, "exponents", where))
    c_grid = [float(c) for c in _need(sub, "c_grid", where)]
    window = tuple(_integer(w, where + ".window") for w in sub.get("window", (1000, 1000000)))
    count = _integer(sub.get("count", 60), where + ".count")
    terms_count = _integer(sub.get("terms_count", 64), where + ".terms_count")
    margin = float(sub.get("margin", 0.1))
    report = nakano_condition_verdict(exponents, c_grid, count=count, window=window, margin=margin)
    terms = nakano_condition_terms(exponents, c_grid[0], count=terms_count)
    payload = {
        "verdicts": [
            {"c": v.c, "slope": v.slope, "verdict": v.verdict} for v in report.verdicts
        ],
        "overall": report.overall,
        "window": list(report.window),
        "margin": report.margin,
        "series": {
            "c": terms.c,
            "n": terms.indices.tolist(),
            "term": terms.terms.tolist(),
            "log_slope": [float("nan")] + terms.log_slopes.tolist(),
        },
    }
    return payload, True, False, False


def _run_asymptotics(sub: dict, seed: int, jobs: int):
    where = "asymptotics"
    exponents = _exponents_from_dict(_need(sub, "exponents", where))
    start = _integer(sub.get("start", 1), where + ".start")
    horizon = _integer(_need(sub, "horizon", where), where + ".horizon")
    if horizon < start:
        raise ConfigError(f"{where}: horizon must be >= start")
    ns = np.arange(start, horizon + 1)
    ps = exponents.values(ns)
    source = sub.get("jvn_values", "clarkson")
    if source == "clarkson":
        avals = np.array([geomconst.jvn_upper_bound_clarkson(p) for p in ps])
    else:
        avals = np.asarray(source, dtype=float)
    tail = None
    if isinstance(exponents, FormulaExponents) and source == "clarkson":
        tail = geomconst.clarkson_alpha_tail_bound(exponents, horizon)
    rep = geomconst.alpha_beta(ps, avals, tail_bound=tail)
    payload = {
        "n": ns.tolist(),
        "exponent": ps.tolist(),
        "alpha": rep.alpha.tolist(),
        "beta": rep.beta.tolist(),
        "tail_bound": rep.tail_bound,
    }
    return payload, True, False, False


def _run_summand(sub: dict, seed: int, jobs: int):
    where = "summand"
    space = space_from_dict(_need(sub, "space", where))
    budget = _integer(sub.get("budget", 16), where + ".budget")
    grid = sub.get("grid")
    if grid is not None and not isinstance(grid, dict):
        raise ConfigError(f"{where}.grid: expected an object, got {grid!r}")
    if grid is not None and space.dim != 2:
        raise ConfigError(f"{where}.grid: the angle grid needs a two-dimensional space")
    result = isolab.find_one_dim_two_summand(space, budget=budget, seed=seed)
    payload = {
        "found": result.found,
        "residual": result.residual,
        "starts": result.starts,
        "candidate": None,
    }
    if result.candidate is not None:
        payload["candidate"] = {
            "xi": result.candidate.xi.tolist(),
            "phi": result.candidate.phi.tolist(),
        }
    if grid is not None:
        payload["grid_floor"] = isolab.two_summand_grid_floor(
            space, n_xi=_integer(grid.get("n_xi", 720), where + ".grid.n_xi"),
            n_phi=_integer(grid.get("n_phi", 720), where + ".grid.n_phi"), seed=seed,
        )
    return payload, True, False, False, {"stops": result.stops}


def _build_embedding(desc: dict, where: str) -> isolab.LinearMap:
    kind = _need(desc, "kind", where)
    h_dim = _integer(desc.get("h_dim", 4), where + ".h_dim")
    if kind == "counterexample":
        e1 = space_from_dict(_need(desc, "e1", where))
        return isolab.build_counterexample_embedding(e1, h_dim=h_dim)
    if kind == "inclusion":
        e0 = space_from_dict(_need(desc, "e0", where))
        return isolab.build_inclusion_embedding(e0, h_dim=h_dim)
    raise ConfigError(f"{where}.kind: unknown embedding kind {kind!r}")


def _run_iterate(sub: dict, seed: int, jobs: int):
    where = "iterate"
    t = _build_embedding(_need(sub, "embedding", where), where + ".embedding")
    xspec = sub.get("x", "xi0")
    if xspec == "xi0":
        x = np.zeros(t.domain.dim)
        x[-1] = 1.0
    else:
        x = np.asarray(xspec, dtype=float)
        if x.shape != (t.domain.dim,):
            raise ConfigError(f"{where}.x: expected {t.domain.dim} coordinates")
    n_max = _integer(sub.get("n_max", 50), where + ".n_max")
    if n_max < 6:
        raise ConfigError(f"{where}.n_max: must be at least 6")
    trace = isolab.pt_iterate(t, x, n_max=n_max)
    iso = isolab.is_isometric_embedding(t, seed=seed)
    cauchy = abs(trace.norms[-1] - trace.norms[-6]) <= 1e-9
    numerical_failure = not cauchy
    try:
        inter_dim = isolab.range_intersection_dim(t)
    except isolab.AmbiguousRankError:
        inter_dim = None
        numerical_failure = True
    payload = {
        "isometric": iso.isometric,
        "max_deviation": iso.max_deviation,
        "cauchy": bool(cauchy),
        "intersection_dim": inter_dim,
        "trace": {
            "n": list(range(len(trace.norms))),
            "norm": trace.norms.tolist(),
            "residual": trace.residuals.tolist(),
            "defect": trace.defects.tolist(),
        },
    }
    max_defect = float(trace.defects.max()) if len(trace.defects) else 0.0
    passed = iso.isometric and cauchy and max_defect <= 1e-10
    return payload, passed, False, numerical_failure


class _Command(NamedTuple):
    run: Callable      # (sub-config, seed, jobs) -> (payload, passed, violated, numerical_failure[, meta])
    metric: Callable   # payload -> the headline number of the CSV summary


_RUNNERS = {
    "norm": _Command(_run_norm, lambda p: p["norms"][0] if p["norms"] else 0.0),
    "jvn": _Command(_run_jvn, lambda p: p["lower_bound"]),
    "verify": _Command(_run_verify, lambda p: p.get("max_violation", 0.0)),
    "nakano": _Command(_run_nakano, lambda p: p["verdicts"][0]["slope"] if p["verdicts"] else 0.0),
    "asymptotics": _Command(_run_asymptotics, lambda p: p["beta"][0] if p["beta"] else 0.0),
    "summand": _Command(_run_summand, lambda p: p.get("grid_floor", p["residual"])),
    "iterate": _Command(_run_iterate, lambda p: max(p["trace"]["defect"], default=0.0)),
}


def run_campaign(config: dict) -> CampaignResult:
    """Validate and execute one campaign config."""
    validate_config(config)
    cmd = config["command"]
    seed = int(config["seed"])
    jobs = int(config.get("jobs", 1))
    name = config.get("name", "campaign")
    t0 = time.perf_counter()
    try:
        payload, passed, violated, numfail, *meta = _RUNNERS[cmd].run(config[cmd], seed, jobs)
    except (ConfigError, NumericalFailure):
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{cmd}: {e}") from None
    wall = time.perf_counter() - t0
    return CampaignResult(
        name=name, config=config, payload=payload, passed=passed,
        violated=violated, numerical_failure=numfail, wall_time=wall,
        version=__version__, meta=meta[0] if meta else {},
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
    (n, alpha, beta), "nakano_terms" (n, term, log_slope).
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
        cols = ["n", "term", "log_slope"]
        rows = list(zip(s["n"], s["term"], s["log_slope"]))
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
