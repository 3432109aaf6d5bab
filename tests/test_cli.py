import csv
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbanach import cli, geomconst
from modbanach import verify as vf
from modbanach.cli import CampaignResult, ConfigError, emit_plot_data, run_campaign, validate_config
from modbanach.nakano import BlockVector, nakano_norm, spec_from_dict
from modbanach.spaces import space_from_dict

ROOT = Path(__file__).parent.parent
GOLDEN_CONFIGS = sorted((ROOT / "configs" / "golden").glob("*.json"))
GOLDEN_DIR = Path(__file__).parent / "golden"


def _cfg_norm():
    return {
        "command": "norm",
        "seed": 0,
        "norm": {"space": {"kind": "lp", "p": 3.0, "d": 3}, "vectors": [[1, 1, 1], [2, 0, 0]]},
    }


def test_validate_accepts_minimal_config():
    validate_config(_cfg_norm())


_SCHEMA_INVALID = [
    {"seed": 0},  # no command
    {"command": "fly", "seed": 0},
    {"command": "norm", "seed": -3, "norm": {}},
    {"command": "norm", "seed": 0, "norm": {}, "bogus_key": 1},
]


def test_validate_rejects_garbage():
    for cfg in _SCHEMA_INVALID:
        with pytest.raises(ConfigError):
            validate_config(cfg)
    with pytest.raises(ConfigError, match="needs a 'norm' object"):
        validate_config({"command": "norm", "seed": 0})


def test_run_norm_command():
    res = run_campaign(_cfg_norm())
    assert res.passed and not res.violated
    assert res.payload["norms"][0] == pytest.approx(3.0 ** (1.0 / 3.0) , rel=1e-12)
    assert res.payload["norms"][1] == 2.0


_NORM_SPACES = {
    "lp": ({"kind": "lp", "p": 3.5, "d": 9}, 9),
    "euclid": ({"kind": "euclid", "d": 3}, 3),
    "schatten_flat": ({"kind": "schatten", "p": 3.0, "d": 2}, 4),
    "schatten_matrix": ({"kind": "schatten", "p": 3.0, "d": 2}, (2, 2)),
    "two_sum": ({"kind": "two_sum", "parts": [{"kind": "lp", "p": 4.0, "d": 2}, {"kind": "euclid", "d": 3}]}, 5),
}


@pytest.mark.parametrize("name", sorted(_NORM_SPACES))
def test_norm_campaign_on_a_space_has_each_vectors_norm_bits(name):
    # the campaign norms its vectors as one stack; each keeps the bits of its own space.norm
    desc, shape = _NORM_SPACES[name]
    rng = np.random.default_rng(23)
    vectors = [(rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300)).tolist() for _ in range(40)]
    vectors += [np.zeros(shape).tolist(), np.full(shape, 5e-324).tolist()]
    res = run_campaign({"command": "norm", "seed": 0, "norm": {"space": desc, "vectors": vectors}})
    space = space_from_dict(desc)
    assert [float.hex(v) for v in res.payload["norms"]] == [float.hex(space.norm(v)) for v in vectors]
    empty = run_campaign({"command": "norm", "seed": 0, "norm": {"space": desc, "vectors": []}})
    assert empty.payload["norms"] == []


def test_run_norm_nakano_variant():
    cfg = {
        "command": "norm",
        "seed": 0,
        "norm": {
            "nakano": {"exponents": {"kind": "explicit", "values": [2.0, 4.0]}},
            "vectors": [{"1": [1.0], "2": [1.0]}],
        },
    }
    res = run_campaign(cfg)
    golden = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
    assert res.payload["norms"][0] == pytest.approx(golden, abs=1e-10)


def test_run_norm_nakano_batch_matches_single_solves():
    nakano = {"exponents": {"kind": "power", "a": 1.0}, "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}}
    vectors = [{"1": [1.0, 2.0]}, {}, {"2": [0.0, 0.0], "5": [3.0, -1.0]},
               {str(n): [0.5 * n, 1.0] for n in range(1, 12)}, {"1": [1e-300, 0.0], "9": [2e-300, 1e-300]}]
    res = run_campaign({"command": "norm", "seed": 0, "norm": {"nakano": nakano, "vectors": vectors}})
    spec = spec_from_dict(nakano)
    assert res.payload["norms"] == [nakano_norm(spec, BlockVector.from_dict(v)) for v in vectors]


def test_run_norm_rejects_ambiguous_space():
    cfg = _cfg_norm()
    cfg["norm"]["nakano"] = {"exponents": {"kind": "constant", "p": 2.0}}
    with pytest.raises(ConfigError, match="exactly one"):
        run_campaign(cfg)


def test_run_verify_command_and_verdicts():
    cfg = {
        "command": "verify",
        "seed": 0,
        "verify": {"check": "clarkson_lower", "space": {"kind": "lp", "p": 3.0, "d": 2}, "samples": 500},
    }
    res = run_campaign(cfg)
    assert res.passed and not res.violated
    bad = {
        "command": "verify",
        "seed": 0,
        "verify": {"check": "two_smooth", "space": {"kind": "lp", "p": 4.0, "d": 2}, "c": 1.0, "samples": 200},
    }
    res2 = run_campaign(bad)
    assert res2.violated and not res2.passed


def test_run_verify_far_block_limit():
    cfg = {
        "command": "verify",
        "seed": 0,
        "verify": {
            "check": "far_block_limit",
            "nakano": {"exponents": {"kind": "power", "a": 1.0}},
            "x": {"1": [1.0]},
            "t": 0.8,
            "schedule": [10, 100, 1000],
        },
    }
    res = run_campaign(cfg)
    assert res.passed
    assert res.payload["verdict"] == "holds"
    assert len(res.payload["gaps"]) == 3


def test_run_verify_unknown_check():
    cfg = {"command": "verify", "seed": 0, "verify": {"check": "moonshine"}}
    with pytest.raises(ConfigError, match="unknown check"):
        run_campaign(cfg)


def test_run_iterate_command():
    cfg = {
        "command": "iterate",
        "seed": 0,
        "iterate": {
            "embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2}, "h_dim": 4},
            "x": "xi0",
            "n_max": 12,
        },
    }
    res = run_campaign(cfg)
    assert res.payload["isometric"] is True
    assert res.payload["cauchy"] is True
    assert res.payload["intersection_dim"] == 1
    assert res.payload["trace"]["norm"][0] == 1.0


def test_run_summand_command_with_grid():
    cfg = {
        "command": "summand",
        "seed": 0,
        "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 4,
                     "grid": {"n_xi": 60, "n_phi": 60}},
    }
    res = run_campaign(cfg)
    assert res.payload["found"] is False
    assert res.payload["grid_floor"] > 0.01


_L4_PLUS_LINE = {"kind": "two_sum", "parts": [{"kind": "lp", "p": 4.0, "d": 2}, {"kind": "euclid", "d": 1}]}


@pytest.mark.parametrize("cfg, extra_starts", [
    ({"command": "jvn", "seed": 5, "jvn": {"space": {"kind": "schatten", "p": 3.0, "d": 2}, "budget": 4}}, 1),
    ({"command": "summand", "seed": 2, "summand": {"space": _L4_PLUS_LINE, "budget": 8}}, 0),
], ids=["jvn", "summand"])
def test_stop_counts_in_meta_not_payload(cfg, extra_starts):
    res = run_campaign(cfg)
    stops = res.to_json_obj()["meta"]["stops"]
    assert set(stops) == {"converged", "stalled", "capped", "dropped"}
    # the JvN estimate counts its re-ascent as one more start
    assert sum(stops.values()) == res.payload["starts"] == cfg[cfg["command"]]["budget"] + extra_starts
    text = json.dumps(res.to_json_obj(include_meta=False), sort_keys=True)
    assert text == json.dumps(dataclasses.replace(res, meta={}).to_json_obj(include_meta=False), sort_keys=True)
    assert "stops" not in text
    if cfg["command"] == "summand":
        # the third start reaches the cut, so the five after it are dropped
        assert stops["dropped"] == 5


def test_campaign_payload_deterministic_across_jobs():
    cfg = {
        "command": "verify",
        "seed": 11,
        "verify": {"check": "clarkson_lower", "space": {"kind": "lp", "p": 4.0, "d": 3}, "samples": 9000},
    }
    one = run_campaign({**cfg, "jobs": 1})
    eight = run_campaign({**cfg, "jobs": 8})
    assert json.dumps(one.to_json_obj(include_meta=False), sort_keys=True) != ""
    # jobs is part of the config, so compare payloads, not whole results
    assert json.dumps(one.to_json_obj(include_meta=False)["payload"], sort_keys=True) == \
        json.dumps(eight.to_json_obj(include_meta=False)["payload"], sort_keys=True)


def test_csv_summary_format(tmp_path):
    res = run_campaign({
        "command": "jvn", "seed": 0,
        "jvn": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 8},
    })
    path = tmp_path / "summary.csv"
    cli.write_summary_csv(res, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    metric = rows[0]["metric"]
    assert "," not in metric and "." in metric  # decimal point, 17 significant digits
    assert float(metric) == pytest.approx(math.sqrt(2.0), abs=1e-4)
    assert rows[0]["command"] == "jvn"


def test_emit_plot_data_kinds(tmp_path):
    trace_res = run_campaign({
        "command": "iterate", "seed": 0,
        "iterate": {"embedding": {"kind": "inclusion", "e0": {"kind": "euclid", "d": 2}},
                     "x": [1.0, 1.0], "n_max": 8},
    })
    p = tmp_path / "trace.csv"
    emit_plot_data(trace_res, "trace", p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "norm", "residual", "defect"]
    assert len(rows) == 9

    asym_res = run_campaign({
        "command": "asymptotics", "seed": 0,
        "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 20},
    })
    p2 = tmp_path / "asym.csv"
    emit_plot_data(asym_res, "asymptotics", p2)
    with open(p2, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["n", "alpha", "beta"]

    nak_res = run_campaign({
        "command": "nakano", "seed": 0,
        "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5]},
    })
    p3 = tmp_path / "terms.csv"
    emit_plot_data(nak_res, "nakano_terms", p3)
    with open(p3, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["n", "term"]

    with pytest.raises(ValueError, match="no iteration trace"):
        emit_plot_data(asym_res, "trace", tmp_path / "x.csv")
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot_data(asym_res, "spectrum", tmp_path / "y.csv")


def test_main_writes_outputs(tmp_path):
    cfg_path = tmp_path / "basic_norm.json"
    cfg_path.write_text(json.dumps(_cfg_norm()))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--format", "both"])
    assert rc == 0
    data = json.loads((tmp_path / "basic_norm.json.out".replace(".json.out", ".json")).read_text())
    # the config file doubles as the campaign name
    assert data["name"] == "basic_norm"
    assert (tmp_path / "basic_norm.csv").exists()


def test_main_respects_env_out(tmp_path, monkeypatch):
    out_dir = tmp_path / "reports"
    monkeypatch.setenv(cli.ENV_OUT, str(out_dir))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg_norm()))
    rc = cli.main(["--config", str(cfg_path), "--format", "json"])
    assert rc == 0
    assert (out_dir / "c.json").exists()


def test_main_seed_override(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg_norm()))
    rc = cli.main(["--config", str(cfg_path), "--seed", "42", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "c.json").read_text())
    assert data["config"]["seed"] == 42


def test_main_exit_codes(tmp_path, monkeypatch):
    missing = cli.main(["--config", str(tmp_path / "nope.json")])
    assert missing == 2

    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{\"command\": \"norm\", \"seed\": 0}")
    assert cli.main(["--config", str(bad_path), "--out", str(tmp_path)]) == 2

    violated = tmp_path / "violated.json"
    violated.write_text(json.dumps({
        "command": "verify", "seed": 0,
        "verify": {"check": "two_smooth", "space": {"kind": "lp", "p": 4.0, "d": 2},
                    "c": 1.0, "samples": 200},
    }))
    assert cli.main(["--config", str(violated), "--out", str(tmp_path)]) == 1

    # numerical failure maps to 3 (simulated; no shipped config reaches it)
    def fake_run(config):
        return CampaignResult(
            name="x", config=config, payload={"norms": []}, passed=False,
            violated=False, numerical_failure=True, wall_time=0.0, version="0",
        )

    monkeypatch.setattr(cli, "run_campaign", fake_run)
    ok_path = tmp_path / "ok.json"
    ok_path.write_text(json.dumps(_cfg_norm()))
    assert cli.main(["--config", str(ok_path), "--out", str(tmp_path)]) == 3


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a run too large for the box is a config that asks for too much, not a violation
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setattr(geomconst, "jvn_lower_bound", no_memory)
    golden = Path(__file__).resolve().parents[1] / "configs" / "golden" / "jvn_l4_plane.json"
    assert cli.main(["--config", str(golden), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: jvn: out of memory: Unable to allocate 7.11 PiB\n"
    assert list(tmp_path.iterdir()) == []


_LP3 = {"kind": "lp", "p": 3.0, "d": 3}
_FAR_BLOCK = {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
              "x": {"1": [1.0]}, "schedule": [10, 100]}
_VERDICT = {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5], "terms_count": 8}
_REJECTED = {
    "jvn_budget_0": {"command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budget": 0}},
    "summand_budget_0": {"command": "summand", "seed": 0, "summand": {"space": _LP3, "budget": 0}},
    "norm_wrong_length": {"command": "norm", "seed": 0, "norm": {"space": _LP3, "vectors": [[1.0, 2.0]]}},
    "clarkson_lower_euclid": {"command": "verify", "seed": 0,
                              "verify": {"check": "clarkson_lower", "space": {"kind": "euclid", "d": 2},
                                         "samples": 10}},
    "negative_samples": {"command": "verify", "seed": 0,
                         "verify": {"check": "clarkson_lower", "space": _LP3, "samples": -5}},
    # a misspelt option must not fall back to the default constant
    "two_smooth_unknown_option": {"command": "verify", "seed": 0,
                                  "verify": {"check": "two_smooth", "space": {"kind": "lp", "p": 4.0, "d": 2},
                                             "C": 1.0, "samples": 10}},
    # non-object parameters must be rejected, not crash with an AttributeError
    "norm_nakano_exponents_scalar": {"command": "norm", "seed": 0,
                                     "norm": {"nakano": {"exponents": 5}, "vectors": [{"1": [1.0]}]}},
    "nakano_exponents_scalar": {"command": "nakano", "seed": 0,
                                "nakano": {"exponents": 5, "c_grid": [1.0]}},
    "norm_nakano_blocks_scalar": {"command": "norm", "seed": 0,
                                  "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}, "blocks": 5},
                                           "vectors": [{"1": [1.0]}]}},
    # a block vector entry that is not a number
    "norm_nakano_string_entry": {"command": "norm", "seed": 0,
                                 "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}},
                                          "vectors": [{"1": [1.0, "a"]}]}},
    "norm_nakano_null_entry": {"command": "norm", "seed": 0,
                               "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}},
                                        "vectors": [{"1": [None]}]}},
    "norm_nakano_object_entry": {"command": "norm", "seed": 0,
                                 "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}},
                                          "vectors": [{"1": [{"a": 1.0}]}]}},
    # log(1 + b) is NaN for b < -1, and a NaN denominator must fail its check
    "norm_log_exponents_nan_first": {"command": "norm", "seed": 0,
                                     "norm": {"nakano": {"exponents": {"kind": "log", "a": 1.0, "b": -1.5}},
                                              "vectors": [{"1": [2.0]}]}},
    "far_block_log_exponents_nan_first": {"command": "verify", "seed": 0,
                                          "verify": {"check": "far_block_limit",
                                                     "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": -1.5}},
                                                     "x": {"1": [1.0]}, "schedule": [10, 100]}},
    # log(log(n + inf)) is inf: p_n = 2 for every n, a constant family
    "norm_loglog_exponents_infinite_b": {"command": "norm", "seed": 0,
                                         "norm": {"nakano": {"exponents": {"kind": "loglog", "a": 1.0, "b": float("inf")}},
                                                  "vectors": [{"1": [2.0]}]}},
    "far_block_string_entry": {"command": "verify", "seed": 0,
                               "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                          "x": {"1": ["a"]}, "schedule": [10, 100]}},
    "summand_grid_scalar": {"command": "summand", "seed": 0,
                            "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1, "grid": 5}},
    # integer parameters must not be truncated from a float or read from a boolean
    "jvn_budget_float": {"command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budget": 1.5}},
    "jvn_budget_true": {"command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budget": True}},
    "summand_budget_float": {"command": "summand", "seed": 0, "summand": {"space": _LP3, "budget": 2.0}},
    "summand_n_xi_float": {"command": "summand", "seed": 0,
                           "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                       "grid": {"n_xi": 4.5, "n_phi": 4}}},
    "summand_n_phi_true": {"command": "summand", "seed": 0,
                           "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                       "grid": {"n_xi": 4, "n_phi": True}}},
    # an empty angle grid has no floor
    "summand_n_xi_0": {"command": "summand", "seed": 0,
                       "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                   "grid": {"n_xi": 0, "n_phi": 4}}},
    "summand_n_phi_negative": {"command": "summand", "seed": 0,
                               "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                           "grid": {"n_xi": 4, "n_phi": -3}}},
    "verify_samples_true": {"command": "verify", "seed": 0,
                            "verify": {"check": "clarkson_lower", "space": _LP3, "samples": True}},
    "verify_grid_float": {"command": "verify", "seed": 0, "verify": {"check": "beckner", "p": 4.0, "grid": 11.5}},
    "verify_d_float": {"command": "verify", "seed": 0, "verify": {"check": "schatten_inf", "d": 2.0, "samples": 10}},
    "verify_schedule_float": {"command": "verify", "seed": 0,
                              "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                         "x": {"1": [1.0]}, "schedule": [10, 100.5]}},
    # a block index beyond the intp range or below 1 is a bad config, not a traceback or a payload
    "verify_schedule_huge_int": {"command": "verify", "seed": 0,
                                 "verify": {"check": "far_block_limit",
                                            "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                            "x": {"1": [1.0]}, "schedule": [10, 10 ** 30]}},
    "norm_nakano_huge_index": {"command": "norm", "seed": 0,
                               "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}},
                                        "vectors": [{str(10 ** 30): [1.0]}]}},
    "asymptotics_start_negative": {"command": "asymptotics", "seed": 0,
                                   "asymptotics": {"exponents": {"kind": "constant", "p": 3.0}, "start": -1,
                                                   "horizon": 1}},
    "nakano_terms_count_float": {"command": "nakano", "seed": 0,
                                 "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5],
                                            "terms_count": 16.5}},
    "asymptotics_start_float": {"command": "asymptotics", "seed": 0,
                                "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "start": 1.5,
                                                "horizon": 10}},
    "asymptotics_horizon_float": {"command": "asymptotics", "seed": 0,
                                  "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 10.0}},
    "iterate_n_max_float": {"command": "iterate", "seed": 0,
                            "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2}},
                                        "n_max": 6.5}},
    # an integer too large for a float is a bad config, not a traceback
    "norm_nakano_huge_int": {"command": "norm", "seed": 0,
                             "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0}},
                                      "vectors": [{"1": [10 ** 400]}]}},
    "norm_space_huge_int": {"command": "norm", "seed": 0, "norm": {"space": _LP3, "vectors": [[10 ** 400, 0, 0]]}},
    "far_block_huge_int": {"command": "verify", "seed": 0,
                           "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                      "x": {"1": [10 ** 400]}, "schedule": [10, 100]}},
    "lp_pair_huge_int": {"command": "verify", "seed": 0,
                         "verify": {"check": "lp_pair", "space": {"kind": "lp", "p": 3.0, "d": 2},
                                    "x": [1.0, 0.0], "y": [0.0, 10 ** 400]}},
    "iterate_x_huge_int": {"command": "iterate", "seed": 0,
                           "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2}},
                                       "x": [10 ** 400], "n_max": 6}},
    "asymptotics_jvn_values_huge_int": {"command": "asymptotics", "seed": 0,
                                        "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 2,
                                                        "jvn_values": [1.5, 10 ** 400]}},
    "iterate_h_dim_float": {"command": "iterate", "seed": 0,
                            "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2},
                                                      "h_dim": 2.9}, "n_max": 6}},
    # a space dimension must not be truncated from a float or read from a boolean or a string
    "norm_space_d_float": {"command": "norm", "seed": 0,
                           "norm": {"space": {"kind": "lp", "p": 3, "d": 2.9}, "vectors": [[1, 2]]}},
    "norm_space_d_true": {"command": "norm", "seed": 0,
                          "norm": {"space": {"kind": "lp", "p": 3, "d": True}, "vectors": [[1]]}},
    "norm_space_d_string": {"command": "norm", "seed": 0,
                            "norm": {"space": {"kind": "lp", "p": 3, "d": "2"}, "vectors": [[1, 2]]}},
    "norm_nakano_lp_matched_d_float": {"command": "norm", "seed": 0,
                                       "norm": {"nakano": {"exponents": {"kind": "constant", "p": 3.0},
                                                           "blocks": {"kind": "lp_matched", "d": 2.5}},
                                                "vectors": [{"1": [1.0, 2.0]}]}},
    # nor may a real parameter be read from a string or a boolean
    "verify_tolerance_string": {"command": "verify", "seed": 0,
                                "verify": {"check": "clarkson_lower", "space": _LP3, "samples": 10,
                                           "tolerance": "1e-9"}},
    "far_block_t_true": {"command": "verify", "seed": 0,
                         "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                    "x": {"1": [1.0]}, "schedule": [10, 100], "t": True}},
    "norm_space_p_string": {"command": "norm", "seed": 0,
                            "norm": {"space": {"kind": "lp", "p": "3", "d": 2}, "vectors": [[1, 2]]}},
    # nor a coordinate from a string
    "norm_space_string_entry": {"command": "norm", "seed": 0,
                                "norm": {"space": {"kind": "lp", "p": 3, "d": 2}, "vectors": [["1.5", 2]]}},
    # a misspelt or foreign key is rejected, not dropped
    "jvn_budgte": {"command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budgte": 2}},
    "summand_gird": {"command": "summand", "seed": 0,
                     "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                 "gird": {"n_xi": 4, "n_phi": 4}}},
    "power_ss": {"command": "norm", "seed": 0,
                 "norm": {"nakano": {"exponents": {"kind": "power", "a": 1.0, "ss": 0.01}}, "vectors": [{"1": [1.0]}]}},
    "norm_space_pp": {"command": "norm", "seed": 0,
                      "norm": {"space": {"kind": "lp", "p": 3.0, "d": 2, "pp": 1.0}, "vectors": [[1.0, 2.0]]}},
    "config_version": {"config_version": 1, "command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budget": 1}},
    "beckner_samples": {"command": "verify", "seed": 0, "verify": {"check": "beckner", "p": 4.0, "samples": 10}},
    "far_block_tolerance": {"command": "verify", "seed": 0,
                            "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                       "x": {"1": [1.0]}, "schedule": [10, 100], "tolerance": 1e-9}},
    "norm_with_jvn_object": {"command": "norm", "seed": 0, "jvn": {"space": _LP3},
                             "norm": {"space": _LP3, "vectors": [[1.0, 0.0, 0.0]]}},
    # lambdas is a nonempty list of reals, not a scalar
    "lp_pair_scalar_lambdas": {"command": "verify", "seed": 0,
                               "verify": {"check": "lp_pair", "space": {"kind": "lp", "p": 3.0, "d": 2},
                                          "x": [1.0, 0.0], "y": [0.0, 1.0], "lambdas": 0.5}},
    # a far-block schedule holds at least two block indices, moving out
    "far_block_schedule_reversed": {"command": "verify", "seed": 0,
                                    "verify": {**_FAR_BLOCK, "schedule": [3000, 10]}},
    "far_block_schedule_empty": {"command": "verify", "seed": 0, "verify": {**_FAR_BLOCK, "schedule": []}},
    "far_block_schedule_single": {"command": "verify", "seed": 0, "verify": {**_FAR_BLOCK, "schedule": [10]}},
    # a size key beyond its bound is a bad config, not a MemoryError
    "nakano_terms_count_huge": {"command": "nakano", "seed": 0, "nakano": {**_VERDICT, "terms_count": 10 ** 15}},
    "jvn_budget_huge": {"command": "jvn", "seed": 0, "jvn": {"space": _LP3, "budget": 10 ** 15}},
    "summand_budget_huge": {"command": "summand", "seed": 0, "summand": {"space": _LP3, "budget": 10 ** 15}},
    "summand_n_phi_huge": {"command": "summand", "seed": 0,
                           "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                       "grid": {"n_xi": 4, "n_phi": 10 ** 15}}},
    "summand_n_xi_huge": {"command": "summand", "seed": 0,
                          "summand": {"space": {"kind": "lp", "p": 4.0, "d": 2}, "budget": 1,
                                      "grid": {"n_xi": 10 ** 15, "n_phi": 4}}},
    "jvn_space_d_huge": {"command": "jvn", "seed": 0, "jvn": {"space": {"kind": "lp", "p": 3.0, "d": 10 ** 15}}},
    "jvn_two_sum_too_wide": {"command": "jvn", "seed": 0,
                             "jvn": {"space": {"kind": "two_sum", "parts": [{"kind": "euclid", "d": 10 ** 4}] * 2}}},
    "iterate_h_dim_huge": {"command": "iterate", "seed": 0,
                           "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2},
                                                     "h_dim": 10 ** 15}}},
    "verify_samples_huge": {"command": "verify", "seed": 0,
                            "verify": {"check": "clarkson_lower", "space": _LP3, "samples": 10 ** 15}},
    "asymptotics_rows_huge": {"command": "asymptotics", "seed": 0,
                              "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 10 ** 15}},
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_main_rejected_parameter_exits_2(name, tmp_path, capsys):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(_REJECTED[name]))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("name, key", [("verify_schedule_huge_int", "verify.schedule"),
                                       ("asymptotics_start_negative", "asymptotics.start")])
def test_bad_block_index_names_its_key(name, key):
    with pytest.raises(cli.ConfigError, match=key.replace(".", r"\.")):
        cli.run_campaign(_REJECTED[name])


_LP4 = {"kind": "lp", "p": 4.0, "d": 2}
_VALID = [json.loads(p.read_text()) for p in GOLDEN_CONFIGS] + [
    {"command": "verify", "seed": 0, "verify": {"check": check, "space": space, "samples": 10, "tolerance": 1e-9}}
    for check, space in [("clarkson_upper", {"kind": "lp", "p": 1.5, "d": 2}), ("endpoint_2", {"kind": "lp", "p": 2, "d": 2}),
                         ("parallelogram", {"kind": "two_sum", "parts": [{"kind": "euclid", "d": 2}, _LP4]})]
] + [
    {"command": "verify", "seed": 0, "verify": {"check": "two_smooth", "space": _LP4, "samples": 10, "c": 1.8}},
    {"command": "verify", "seed": 0, "verify": {"check": "schatten_inf", "d": 2, "samples": 10, "tolerance": 1e-9}},
    {"command": "verify", "seed": 0, "verify": {"check": "beckner", "p": 4.0, "grid": 5, "extent": 1.0,
                                                "tolerance": 1e-9}},
    {"command": "verify", "seed": 0, "verify": {"check": "lp_pair", "space": {"kind": "schatten", "p": 3.0, "d": 2},
                                                "x": [1, 0, 0, 0], "y": [0, 0, 0, 1], "p": 3.0, "lambdas": [0.5],
                                                "tolerance": 1e-9}},
    {"command": "verify", "seed": 0, "verify": {**_FAR_BLOCK, "t": 0.5}},
    {"command": "asymptotics", "seed": 0, "jobs": 2, "out": "reports", "format": "json",
     "asymptotics": {"exponents": {"kind": "constant", "p": 3.0}, "horizon": 4, "jvn_values": [1.5] * 4}},
    {"command": "nakano", "seed": 0, "nakano": _VERDICT},
    {"command": "summand", "seed": 0, "summand": {"space": _LP4, "budget": 1, "grid": {"n_xi": 4, "n_phi": 4}}},
    {"command": "iterate", "seed": 0, "iterate": {"embedding": {"kind": "inclusion", "e0": {"kind": "euclid", "d": 2},
                                                                "h_dim": 2}, "x": [1.0, 0.0], "n_max": 6}},
] + [
    {"command": "norm", "seed": 0, "norm": {"nakano": {"exponents": exponents, "blocks": blocks}, "vectors": []}}
    for exponents, blocks in [
        ({"kind": "constant", "p": 3.0}, {"kind": "scalar"}),
        ({"kind": "explicit", "values": [2.0, 3.0]}, {"kind": "uniform", "space": _LP4}),
        ({"kind": "power", "a": 1.0, "s": 2.0}, {"kind": "cycle", "spaces": [{"kind": "euclid", "d": 1}, _LP4]}),
        ({"kind": "log", "a": 1.0, "b": 1.0}, {"kind": "list", "spaces": [{"kind": "schatten", "p": 2.0, "d": 2}]}),
        ({"kind": "loglog", "a": 1.0, "b": 3.0}, {"kind": "lp_matched", "d": 2}),
    ]
]


def _objects(node, path=()):
    """The path of every object in a config, but for block vectors, whose keys are block indices."""
    if isinstance(node, dict):
        yield path
        items = [(k, v) for k, v in node.items() if k not in ("vectors", "x")]
    else:
        items = enumerate(node) if isinstance(node, list) else []
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from _objects(v, path + (k,))


def _shown(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@pytest.mark.parametrize("cfg", _VALID, ids=lambda c: c.get("name") or c[c["command"]].get("check", c["command"]))
def test_unknown_key_at_every_level_exits_2_and_names_its_path(cfg, capsys):
    validate_config(cfg)
    paths = list(_objects(cfg))
    assert len(paths) >= 2
    for path in paths:
        bad = json.loads(json.dumps(cfg))
        node = bad
        for k in path:
            node = node[k]
        node["bogus"] = 1
        assert _exit_code(bad) == 2
        assert capsys.readouterr().err == f"config error: {_shown(path + ('bogus',))}: unknown key\n"


def _integer_key(cfg: dict, path: tuple) -> bool:
    """Whether the key at path takes only integers: 1.5 there is rejected as not one."""
    try:
        validate_config(_with_slot(cfg, path, 1.5))
    except (ValueError, TypeError) as e:
        return str(e).startswith(f"{_shown(path)}: expected an integer")
    return False


#: the size keys whose values 10**15 once made numpy raise a MemoryError
_SIZE_KEYS = {"nakano.terms_count", "jvn.budget", "summand.budget", "summand.grid.n_phi", "summand.grid.n_xi",
              "jvn.space.d", "iterate.embedding.h_dim", "verify.samples"}


def test_integer_key_over_its_bound_exits_2_within_a_second(capsys):
    # every integer key but the seed, which names a stream and sizes nothing,
    # has an upper bound, so 10**15 and 2**63 - 1 are rejected before any work
    walked = set()
    for cfg in _VALID:
        for path in _objects(cfg):
            node = cfg
            for k in path:
                node = node[k]
            for key in node:
                shown = _shown(path + (key,))
                if shown == "seed" or not _integer_key(cfg, path + (key,)):
                    continue
                walked.add(shown)
                for big in (10 ** 15, 2 ** 63 - 1):
                    t0 = time.perf_counter()
                    code = _exit_code(_with_slot(cfg, path + (key,), big))
                    elapsed = time.perf_counter() - t0
                    err = capsys.readouterr().err
                    assert (code, err.startswith(f"config error: {shown}: ")) == (2, True), (shown, big, err)
                    assert elapsed < 1.0, (shown, big, elapsed)
    assert _SIZE_KEYS <= walked, sorted(_SIZE_KEYS - walked)


@pytest.mark.parametrize("key, value", [("count", 60), ("window", [1000, 1000000]), ("margin", 0.1)],
                         ids=["count", "window", "margin"])
def test_nakano_slope_fit_keys_are_unknown(key, value, capsys):
    # the verdict is exact, so nothing is left for a sample count, a window or a margin to set
    assert _exit_code({"command": "nakano", "seed": 0, "nakano": {**_VERDICT, key: value}}) == 2
    assert capsys.readouterr().err == f"config error: nakano.{key}: unknown key\n"


def test_nakano_verdict_on_explicit_exponents_exits_2(capsys):
    cfg = {"command": "nakano", "seed": 0,
           "nakano": {"exponents": {"kind": "explicit", "values": [3.0, 2.5]}, "c_grid": [0.5]}}
    assert _exit_code(cfg) == 2
    assert capsys.readouterr().err == ("config error: nakano: the 2 explicit exponents are a finite list, "
                                       "which has no tail to decide the series by\n")


@pytest.mark.parametrize("key, value", [("jobs", 257), ("jobs", 0), ("seed", -1), ("seed", 1.0),
                                        ("name", "../x"), ("format", "yaml"), ("plot", "spectrum"), ("out", 5)])
def test_bad_top_level_value_exits_2_before_any_work(key, value, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(vf, "ThreadPoolExecutor", no_pool)
    cfg = {"command": "verify", "seed": 0, "jobs": 8, key: value,
           "verify": {"check": "clarkson_lower", "space": _LP3, "samples": 9000}}
    with pytest.raises(ConfigError, match=f"^{key}: "):
        validate_config(cfg)
    assert _exit_code(cfg) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_main_nan_violation_exits_3(tmp_path, monkeypatch):
    def nan_batch(space, params, x, y):
        return np.full(x.shape[0], np.nan)

    monkeypatch.setitem(vf.PAIR_CHECKS, "nan_check", vf.PairCheck(vf._space_params, nan_batch))
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps({
        "command": "verify", "seed": 0,
        "verify": {"check": "nan_check", "space": {"kind": "euclid", "d": 2}, "samples": 10},
    }))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--format", "json"]) == 3
    data = json.loads((tmp_path / "nan.json").read_text())
    assert data["payload"]["verdict"] == "numerical_failure"
    assert data["summary"] == {"passed": False, "violated": False, "numerical_failure": True}


def test_main_overflowing_modular_exits_3(tmp_path, capsys):
    # the l_1 block norm of (1e308, 1e308) overflows
    cfg = {"command": "norm", "seed": 0,
           "norm": {"nakano": {"exponents": {"kind": "constant", "p": 2.0},
                               "blocks": {"kind": "uniform", "space": {"kind": "lp", "p": 1.0, "d": 2}}},
                    "vectors": [{"1": [1e308, 1e308]}]}}
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(cfg))
    with np.errstate(over="ignore"):
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: modular value is not finite\n"


@pytest.mark.parametrize("exponents", [
    {"kind": "explicit", "values": [2.0, 4.0]},  # solved by Newton
    {"kind": "constant", "p": 2.0},  # the equal-exponent closed form
])
def test_main_overflowing_norm_exits_3(exponents, tmp_path, capsys):
    # every term is finite, but the norm lies above the largest float
    cfg = {"command": "norm", "seed": 0,
           "norm": {"nakano": {"exponents": exponents},
                    "vectors": [{"1": [1.5e308], "2": [1.5e308]}]}}
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--format", "json"]) == 3
    assert capsys.readouterr().err == "numerical failure: Luxemburg norm is not finite\n"


_BLOCK1 = [{"1": [1.0]}]
# every real parameter a config gives, as (name, a config that sets it, path to it)
_REAL_SLOTS = [
    ("verify_t", {"command": "verify", "verify": {**_FAR_BLOCK, "t": 2.0}}, ("verify", "t")),
    ("verify_tolerance", {"command": "verify", "verify": {"check": "clarkson_lower", "space": _LP3, "samples": 10,
                                                          "tolerance": 1e-9}}, ("verify", "tolerance")),
    ("beckner_p", {"command": "verify", "verify": {"check": "beckner", "p": 3.5, "grid": 11}}, ("verify", "p")),
    ("beckner_extent", {"command": "verify", "verify": {"check": "beckner", "p": 4.0, "grid": 11, "extent": 1.5}},
     ("verify", "extent")),
    ("two_smooth_c", {"command": "verify", "verify": {"check": "two_smooth", "space": {"kind": "lp", "p": 4.0, "d": 2},
                                                      "samples": 10, "c": 1.7}}, ("verify", "c")),
    ("lp_pair_p", {"command": "verify", "verify": {"check": "lp_pair", "space": {"kind": "lp", "p": 3.0, "d": 2},
                                                   "x": [1.0, 0.0], "y": [0.0, 1.0], "p": 3}}, ("verify", "p")),
    ("lp_pair_lambda", {"command": "verify", "verify": {"check": "lp_pair", "space": {"kind": "lp", "p": 3.0, "d": 2},
                                                        "x": [1.0, 0.0], "y": [0.0, 1.0], "lambdas": [0.5, 1.5]}},
     ("verify", "lambdas", 1)),
    ("nakano_c_grid", {"command": "nakano", "nakano": {**_VERDICT, "c_grid": [0.5, 0.7]}}, ("nakano", "c_grid", 1)),
    ("constant_p", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "constant", "p": 3}},
                                                "vectors": _BLOCK1}}, ("norm", "nakano", "exponents", "p")),
    ("explicit_p", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "explicit", "values": [2.5]}},
                                                "vectors": _BLOCK1}}, ("norm", "nakano", "exponents", "values", 0)),
    ("power_a", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "power", "a": -0.5}},
                                             "vectors": _BLOCK1}}, ("norm", "nakano", "exponents", "a")),
    ("power_s", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "power", "a": 1.0, "s": 0.5}},
                                             "vectors": _BLOCK1}}, ("norm", "nakano", "exponents", "s")),
    ("log_b", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 2.0}},
                                           "vectors": _BLOCK1}}, ("norm", "nakano", "exponents", "b")),
    ("space_p", {"command": "norm", "norm": {"space": {"kind": "lp", "p": 1.5, "d": 2}, "vectors": [[1.0, 2.0]]}},
     ("norm", "space", "p")),
    ("schatten_p", {"command": "norm", "norm": {"space": {"kind": "schatten", "p": 4, "d": 2},
                                                "vectors": [[1.0, 0.0, 0.0, 1.0]]}}, ("norm", "space", "p")),
    ("block_space_p", {"command": "norm", "norm": {"nakano": {"exponents": {"kind": "constant", "p": 3.0},
                                                              "blocks": {"kind": "uniform",
                                                                         "space": {"kind": "lp", "p": 3, "d": 1}}},
                                                   "vectors": _BLOCK1}},
     ("norm", "nakano", "blocks", "space", "p")),
]


def _with_slot(template: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(template))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return {**cfg, "seed": 0}


def _exit_code(cfg: dict) -> int:
    with tempfile.TemporaryDirectory() as out:
        cfg_path = Path(out) / "slot.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            return cli.main(["--config", str(cfg_path), "--out", out, "--format", "json"])


@pytest.mark.parametrize("name, template, path", _REAL_SLOTS, ids=[s[0] for s in _REAL_SLOTS])
def test_real_slot_configs_run(name, template, path):
    # each config reaches a verdict, so a rejection below is the slot's own
    assert _exit_code({**template, "seed": 0}) in (0, 1)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, math.nan], ids=["above_float", "below_float", "nan"])
@pytest.mark.parametrize("name, template, path", _REAL_SLOTS, ids=[s[0] for s in _REAL_SLOTS])
def test_real_slot_beyond_float_or_nan_exits_2(name, template, path, value, capsys):
    assert _exit_code(_with_slot(template, path, value)) == 2
    assert capsys.readouterr().err.startswith("config error:")


_EXPLICIT = {"exponents": {"kind": "explicit", "values": [2.0, 3.0, 4.0]}}
_EUCLID2 = {"exponents": {"kind": "constant", "p": 3.0},
            "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}}
# (spec, vector, outcome): the norm's float.hex, or the exception class
# BlockVector.from_dict or nakano_norm raises, which the CLI reports as a
# config error (exit 2)
_BLOCK_FORMS = {
    "scalar_block": (_EXPLICIT, {"1": 3.0}, "0x1.8000000000000p+1"),
    "nested_block": (_EXPLICIT, {"1": [[3.0]]}, "0x1.8000000000000p+1"),
    "nested_column": (_EUCLID2, {"1": [[3.0], [4.0]]}, "0x1.4000000000000p+2"),
    "boolean": (_EXPLICIT, {"1": [True]}, "0x1.0000000000000p+0"),
    "integers": (_EXPLICIT, {"1": [3], "2": [-2]}, "0x1.afa6ea162d0f0p+1"),
    # the "scalar" block kind is the default block family
    "scalar_kind": ({**_EXPLICIT, "blocks": {"kind": "scalar"}}, {"1": [3], "2": [-2]}, "0x1.afa6ea162d0f0p+1"),
    "unsorted_keys": (_EXPLICIT, {"3": [1.0], "1": [2.0]}, "0x1.077225f1da572p+1"),
    "empty_vector": (_EXPLICIT, {}, "0x0.0p+0"),
    "ragged": (_EUCLID2, {"1": [[1.0], [2.0, 3.0]]}, ValueError),
    "string": (_EXPLICIT, {"1": ["a"]}, ValueError),
    "numeric_string": (_EXPLICIT, {"1": ["1.5"]}, ValueError),
    "null": (_EXPLICIT, {"1": [None]}, ValueError),
    "object": (_EXPLICIT, {"1": [{"a": 1.0}]}, TypeError),
    "inf": (_EXPLICIT, {"1": [math.inf]}, ValueError),
    "nan": (_EXPLICIT, {"1": [math.nan]}, ValueError),
    "duplicate_keys": (_EXPLICIT, {"1": [1.0], "01": [2.0]}, ValueError),
    "index_0": (_EXPLICIT, {"0": [1.0]}, ValueError),
    "index_-1": (_EXPLICIT, {"-1": [1.0]}, ValueError),
    "non_integer_key": (_EXPLICIT, {"1.5": [1.0]}, ValueError),
    "empty_block": (_EXPLICIT, {"1": []}, ValueError),
    "wrong_dimension": (_EUCLID2, {"1": [1.0, 2.0, 3.0]}, ValueError),
    "beyond_explicit_exponents": (_EXPLICIT, {"4": [1.0]}, ValueError),
    "list_not_dict": (_EXPLICIT, [[1.0]], AttributeError),
    # the one changed outcome: an OverflowError and a traceback before
    "integer_beyond_float": (_EXPLICIT, {"1": [10 ** 400]}, ValueError),
    "scalar_integer_beyond_float": (_EXPLICIT, {"1": 10 ** 400}, ValueError),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_FORMS))
def test_norm_block_forms_keep_their_outcomes(name, tmp_path, capsys):
    spec, vector, outcome = _BLOCK_FORMS[name]
    cfg_path = tmp_path / "form.json"
    cfg_path.write_text(json.dumps({"command": "norm", "seed": 0, "norm": {"nakano": spec, "vectors": [vector]}}))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--format", "json"])
    compute = lambda: nakano_norm(spec_from_dict(spec), BlockVector.from_dict(vector))  # noqa: E731
    if isinstance(outcome, str):
        assert code == 0
        norms = json.loads((tmp_path / "out" / "form.json").read_text())["payload"]["norms"]
        assert [float.hex(v) for v in norms] == [outcome]
        assert float.hex(compute()) == outcome
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        with pytest.raises(outcome):
            compute()


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3)
    # integers about the largest float, on both sides of it
    | st.integers(10 ** 308, 10 ** 400) | st.integers(-10 ** 400, -10 ** 308),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_VECTOR = st.dictionaries(st.sampled_from(["1", "2", "7", "01", "0", "-1", "1.5", "a"]) | st.text(max_size=3),
                          _JSON, max_size=4) | _JSON
_NORM_TARGETS = [
    {"nakano": {"exponents": {"kind": "power", "a": 1.0}}},
    {"nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "blocks": _EUCLID2["blocks"]}},
    {"space": {"kind": "lp", "p": 3.0, "d": 2}},
]


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(_NORM_TARGETS), vectors=st.lists(_VECTOR, max_size=4) | _JSON)
def test_norm_campaign_on_any_json_exits_0_2_or_3(target, vectors):
    with tempfile.TemporaryDirectory() as out:
        cfg_path = Path(out) / "fuzz.json"
        cfg_path.write_text(json.dumps({"command": "norm", "seed": 0, "norm": {**target, "vectors": vectors}}))
        with np.errstate(all="ignore"):
            code = cli.main(["--config", str(cfg_path), "--out", out, "--format", "json"])
    assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(slot=st.sampled_from(_REAL_SLOTS), value=st.floats() | _JSON)
def test_real_slot_on_any_json_exits_0_1_2_or_3(slot, value):
    _, template, path = slot
    assert _exit_code(_with_slot(template, path, value)) in (0, 1, 2, 3)


# (spec, the dimensions of its blocks 1, 2, ... in turn): the five block
# families of the benchmark's norm campaigns, cycled blocks of unequal sizes,
# and Schatten blocks, which are normed one by one
_SOLVE_SPECS = [
    ({"exponents": {"kind": "power", "a": 1.0}}, (1,)),
    ({"exponents": {"kind": "log", "a": 1.0, "b": 1.0}}, (1,)),
    ({"exponents": {"kind": "loglog", "a": 1.0, "b": 3.0}}, (1,)),
    ({"exponents": {"kind": "log", "a": 1.0, "b": 1.0},
      "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}}, (2,)),
    ({"exponents": {"kind": "power", "a": 1.0}, "blocks": {"kind": "lp_matched", "d": 2}}, (2,)),
    ({"exponents": {"kind": "power", "a": 1.0},
      "blocks": {"kind": "cycle", "spaces": [{"kind": "euclid", "d": 1}, {"kind": "lp", "p": 3.0, "d": 3}]}}, (1, 3)),
    ({"exponents": {"kind": "log", "a": 1.0, "b": 1.0},
      "blocks": {"kind": "uniform", "space": {"kind": "schatten", "p": 3.0, "d": 2}}}, (4,)),
]
_MAGNITUDE = st.floats(1e-300, 1e300) | st.just(0.0)


@st.composite
def _solve_vector(draw, dims):
    coordinate = st.builds(lambda m, sign: sign * m, _MAGNITUDE, st.sampled_from([1.0, -1.0]))
    indices = draw(st.lists(st.integers(1, 40), unique=True, max_size=6))
    d = len(dims)
    return {str(n): draw(st.lists(coordinate, min_size=dims[(n - 1) % d], max_size=dims[(n - 1) % d]))
            for n in indices}


@st.composite
def _solve_campaign(draw):
    spec, dims = draw(st.sampled_from(_SOLVE_SPECS))
    vectors = draw(st.lists(_solve_vector(dims) | st.just({}), min_size=1, max_size=12))
    cuts = sorted(draw(st.lists(st.integers(0, len(vectors)), max_size=3)))
    return spec, vectors, cuts


@settings(max_examples=100, deadline=None)
@given(_solve_campaign())
def test_campaign_norms_are_lone_norms_bitwise(campaign):
    # the vectors read in one pass, split into campaigns at random, keep the
    # bits each has when read and solved alone
    spec, vectors, cuts = campaign
    got = []
    for lo, hi in zip([0] + cuts, cuts + [len(vectors)]):
        res = run_campaign({"command": "norm", "seed": 0, "norm": {"nakano": spec, "vectors": vectors[lo:hi]}})
        got += res.payload["norms"]
    nakano = spec_from_dict(spec)
    assert [float.hex(v) for v in got] == [float.hex(nakano_norm(nakano, BlockVector.from_dict(v))) for v in vectors]


_SCALAR = {"exponents": {"kind": "power", "a": 1.0}}
_EUCLID2_BLOCKS = {**_SCALAR, "blocks": {"kind": "uniform", "space": {"kind": "euclid", "d": 2}}}
_INDEX_RANGE = "block index must be a positive integer up to 9223372036854775807, got"


@pytest.mark.parametrize("spec, vectors, message", [
    # the indices of every vector are checked before any coordinate, vector by vector
    (_SCALAR, [{"2": [1.0]}, {"1": [1.0], "0": [2.0]}, {"1": [1.0], "01": [2.0]}], f"{_INDEX_RANGE} 0"),
    (_SCALAR, [{"2": [1.0]}, {"01": [1.0], "1": [2.0]}, {"0": [2.0], "3": [1.0]}], "duplicate block index 1"),
    (_SCALAR, [{"0": [1.0]}, {"a": [1.0]}], f"{_INDEX_RANGE} 0"),
    (_SCALAR, [{"a": [1.0]}, {"0": [1.0]}], "invalid literal for int() with base 10: 'a'"),
    (_SCALAR, [{"1": ["a"]}, {"2": [1.0], str(10 ** 30): [1.0]}], f"{_INDEX_RANGE} {10 ** 30}"),
    (_SCALAR, [{str(10 ** 30): [1.0]}, {"3": [1.0], "1": ["a"]}], f"{_INDEX_RANGE} {10 ** 30}"),
    # coordinates: block by block once one is not a list of numbers, else all at once
    (_SCALAR, [{"2": [1.0], "1": [math.nan]}, {"1": ["a"]}], "block has non-finite entries"),
    (_SCALAR, [{"1": ["a"]}, {"2": [1.0], "1": [math.nan]}], "block has a string coordinate"),
    (_SCALAR, [{"1": [math.nan]}, {"2": [10 ** 400]}], "block has an integer too large for a float"),
    # then the block sizes, in block order
    (_SCALAR, [{"1": [1.0, 2.0]}, {"3": [math.nan]}], "block has non-finite entries"),
    (_EUCLID2_BLOCKS, [{"2": [1.0, 2.0], "1": [1.0]}, {"3": [math.nan, 1.0]}], "block has non-finite entries"),
    (_EUCLID2_BLOCKS, [{"2": [1.0, 2.0], "4": [1.0, 2.0, 3.0]}, {"1": [1.0]}],
     "block 4 has 3 coordinates, expected 2"),
])
def test_campaign_with_faults_in_two_vectors_names_the_first(spec, vectors, message, tmp_path, capsys):
    cfg_path = tmp_path / "faults.json"
    cfg_path.write_text(json.dumps({"command": "norm", "seed": 0, "norm": {"nakano": spec, "vectors": vectors}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: norm: {message}"


def test_regen_golden_check_writes_nothing_and_names_differences(tmp_path):
    script = ROOT / "scripts" / "regen_golden.py"
    before = {p: p.read_bytes() for p in GOLDEN_DIR.glob("*.payload.json")}
    out = subprocess.run([sys.executable, str(script), "--check"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert f"{len(GOLDEN_CONFIGS)} of {len(GOLDEN_CONFIGS)} golden payloads match" in out.stdout
    assert {p: p.read_bytes() for p in GOLDEN_DIR.glob("*.payload.json")} == before
    # a copy of the checkout with one golden changed and one missing
    copy = tmp_path / "checkout"
    for part in ("scripts", "src", "configs", "tests/golden"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    goldens = sorted((copy / "tests" / "golden").glob("*.payload.json"))
    goldens[0].write_bytes(goldens[0].read_bytes().replace(b"}", b" }", 1))
    goldens[1].unlink()
    out = subprocess.run([sys.executable, str(copy / "scripts" / "regen_golden.py"), "--check"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 1
    assert [line for line in out.stdout.splitlines() if line.startswith("differs: ")] == [
        f"differs: {goldens[0]}", f"differs: {goldens[1]}"]
    assert not goldens[1].exists()


def test_command_reader_accepts_exactly_the_runner_table():
    # every command of the runner table gets as far as its own parameters
    for cmd in cli._RUNNERS:
        with pytest.raises(ConfigError, match=rf"^{cmd}\.\w+: (missing required key|unknown check None)"):
            validate_config({"command": cmd, "seed": 0, cmd: {}})
    for cmd in ("fly", "Norm", "", 5, None):
        with pytest.raises(ConfigError, match="^command: unknown command"):
            validate_config({"command": cmd, "seed": 0})


def test_regen_golden_refuses_a_payload_holding_nan(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script puts its src/ first
    loader = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    regen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(regen)
    nan_result = SimpleNamespace(to_json_obj=lambda include_meta: {"payload": {"x": math.nan}})
    monkeypatch.setattr(regen, "run_campaign", lambda config: nan_result)
    before = {p: p.read_bytes() for p in GOLDEN_DIR.glob("*.payload.json")}
    for argv in ([], ["--check"]):
        assert regen.main(argv) == 1
        refused = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("refused: ")]
        assert [Path(target).name for target in refused] == sorted(p.name for p in before)
    assert {p: p.read_bytes() for p in GOLDEN_DIR.glob("*.payload.json")} == before


@pytest.mark.parametrize("golden", sorted(GOLDEN_DIR.glob("*.payload.json")), ids=lambda p: p.name.split(".")[0])
def test_golden_payloads_are_strict_json(golden):
    # NaN and Infinity are not JSON; a golden holding one is unreadable outside Python
    def reject(constant):
        raise ValueError(f"{constant} in {golden.name}")

    json.loads(golden.read_text(), parse_constant=reject)


@pytest.mark.parametrize("config_path", GOLDEN_CONFIGS, ids=lambda p: p.stem)
def test_golden_payload_regression(config_path):
    config = json.loads(config_path.read_text())
    expected = (GOLDEN_DIR / f"{config['name']}.payload.json").read_bytes().rstrip(b"\n")
    result = run_campaign(config)
    got = json.dumps(result.to_json_obj(include_meta=False)["payload"], sort_keys=True).encode()
    assert got == expected


def test_plot_request_in_config(tmp_path):
    cfg = {
        "command": "asymptotics", "seed": 0, "plot": "asymptotics",
        "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 10},
    }
    cfg_path = tmp_path / "asym.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    assert (tmp_path / "asym_asymptotics.csv").exists()


@pytest.mark.parametrize("exponents", [{"kind": "power", "a": 1.0}, {"kind": "log", "a": 1.0, "b": 1.0}],
                         ids=["power", "log"])
def test_far_asymptotics_costs_only_its_rows(tmp_path, exponents):
    # the tail bound is read at horizon + 1 alone, so a campaign costs only its rows
    start = 10 ** 15
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps({"command": "asymptotics", "seed": 0,
                                    "asymptotics": {"exponents": exponents, "start": start, "horizon": start + 3}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "far.json").read_text())["payload"]
    assert payload["n"] == [start, start + 1, start + 2, start + 3]
    p_next = float(spec_from_dict({"exponents": exponents}).exponents.values([start + 4])[0])
    assert payload["tail_bound"] == geomconst.clarkson_alpha_upper(p_next)
