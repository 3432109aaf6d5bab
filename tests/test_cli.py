import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from modbanach import cli
from modbanach import verify as vf
from modbanach.cli import CampaignResult, ConfigError, emit_plot_data, run_campaign, validate_config
from modbanach.nakano import BlockVector, nakano_norm, spec_from_dict

GOLDEN_CONFIGS = sorted((Path(__file__).parent.parent / "configs" / "golden").glob("*.json"))
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


@pytest.mark.parametrize("cfg", _SCHEMA_INVALID)
def test_validate_message_matches_jsonschema_validate(cfg):
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, cli._schema())
    e = ref.value
    want = "$" + "".join(f"[{p!r}]" for p in e.absolute_path) + f": {e.message}"
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == want


def test_schema_checked_once_per_process(monkeypatch):
    cls = jsonschema.validators.validator_for(cli._schema())
    original = cls.check_schema
    calls = []

    def counting(schema, *args, **kwargs):
        calls.append(1)
        return original(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
    cli._validator.cache_clear()
    for _ in range(3):
        validate_config(_cfg_norm())
        for cfg in _SCHEMA_INVALID:
            with pytest.raises(ConfigError):
                validate_config(cfg)
    assert len(calls) == 1


def test_run_norm_command():
    res = run_campaign(_cfg_norm())
    assert res.passed and not res.violated
    assert res.payload["norms"][0] == pytest.approx(3.0 ** (1.0 / 3.0) , rel=1e-12)
    assert res.payload["norms"][1] == 2.0


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
    assert res.payload_bytes() == dataclasses.replace(res, meta={}).payload_bytes()
    assert b"stops" not in res.payload_bytes()
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
    assert one.payload_bytes() != b""
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
    assert header == ["n", "term", "log_slope"]

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


_LP3 = {"kind": "lp", "p": 3.0, "d": 3}
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
    "verify_samples_true": {"command": "verify", "seed": 0,
                            "verify": {"check": "clarkson_lower", "space": _LP3, "samples": True}},
    "verify_grid_float": {"command": "verify", "seed": 0, "verify": {"check": "beckner", "p": 4.0, "grid": 11.5}},
    "verify_d_float": {"command": "verify", "seed": 0, "verify": {"check": "schatten_inf", "d": 2.0, "samples": 10}},
    "verify_schedule_float": {"command": "verify", "seed": 0,
                              "verify": {"check": "far_block_limit", "nakano": {"exponents": {"kind": "power", "a": 1.0}},
                                         "x": {"1": [1.0]}, "schedule": [10, 100.5]}},
    "nakano_count_float": {"command": "nakano", "seed": 0,
                           "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5],
                                      "count": 8.5}},
    "nakano_terms_count_float": {"command": "nakano", "seed": 0,
                                 "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5],
                                            "count": 8, "terms_count": 16.5}},
    "nakano_window_float": {"command": "nakano", "seed": 0,
                            "nakano": {"exponents": {"kind": "log", "a": 1.0, "b": 1.0}, "c_grid": [0.5],
                                       "count": 8, "window": [1000, 1e6]}},
    "asymptotics_start_float": {"command": "asymptotics", "seed": 0,
                                "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "start": 1.5,
                                                "horizon": 10}},
    "asymptotics_horizon_float": {"command": "asymptotics", "seed": 0,
                                  "asymptotics": {"exponents": {"kind": "power", "a": 1.0}, "horizon": 10.0}},
    "iterate_n_max_float": {"command": "iterate", "seed": 0,
                            "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2}},
                                        "n_max": 6.5}},
    "iterate_h_dim_float": {"command": "iterate", "seed": 0,
                            "iterate": {"embedding": {"kind": "counterexample", "e1": {"kind": "lp", "p": 4.0, "d": 2},
                                                      "h_dim": 2.9}, "n_max": 6}},
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_main_rejected_parameter_exits_2(name, tmp_path, capsys):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(_REJECTED[name]))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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


def test_schema_commands_match_runner_table():
    assert sorted(cli._schema()["properties"]["command"]["enum"]) == sorted(cli._RUNNERS)


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
