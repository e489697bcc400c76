import csv
import io
import json
import warnings

import pytest

from ctschro.cli import _CSV_COLUMNS, main, record_to_csv, run_config
from ctschro.errors import ConfigError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# atlas command
# ---------------------------------------------------------------------------

def test_atlas_single_query_csv(capsys):
    code, out, err = run_cli(
        ["atlas", "--alpha", "0.5", "--gamma", "3", "--m", "2",
         "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == _CSV_COLUMNS["atlas"]
    assert rows[1][:4] == ["0.5", "3", "2", "0.25"]
    assert rows[1][4] == "T1"


def test_atlas_gamma_grid_profile(capsys):
    code, out, _ = run_cli(
        ["atlas", "--alpha", "0.3333333333333333", "--m", "2",
         "--gamma-list", "0.5,0.7,1.0,1.4,1.8,2.5", "--continuity"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert len(rec["results"]["rows"]) == 6
    assert {r["theorem"] for r in rec["results"]["rows"]} == {"T3"}
    assert rec["passed"]
    gaps = [g["gap"] for g in rec["results"]["continuity"]]
    assert max(gaps) <= 1e-7


def test_atlas_malformed_config_exits_2(capsys):
    code, _, err = run_cli(["atlas", "--alpha", "0", "--gamma", "1", "--m", "2"],
                           capsys)
    assert code == 2
    reason = json.loads(err.splitlines()[-1])
    assert reason["error"] == "config"
    assert "alpha" in reason["reason"]


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_empty_scales_is_config_error(capsys):
    code, _, err = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.25", "--gamma", "2",
         "--scales", ""], capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "config"


def test_sweep_scales_must_increase():
    with pytest.raises(ConfigError):
        run_config({"command": "sweep", "family": "dilated", "alpha": 0.25,
                    "gamma": 2.0, "R": 16.0, "scales": [16, 8, 32]})


def test_sweep_verdict_failure_exits_1(capsys):
    # a tolerance below the quadrature noise floor cannot be met: the verdict
    # fails and the record is still emitted in full
    code, out, err = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.25", "--gamma", "0.75",
         "--scales", "16,32,64,128", "--tolerance", "1e-9"], capsys)
    assert code == 1
    reason = json.loads(err.splitlines()[-1])
    assert reason["error"] == "verdict"
    assert "slope_matches_prediction" in reason["reason"]
    rec = json.loads(out)
    assert not rec["passed"]
    assert len(rec["results"]["rows"]) == 4
    assert all(r["verdict"] == "fail" for r in rec["results"]["rows"])


def test_sweep_small_run_csv_schema(capsys):
    code, out, _ = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.25", "--gamma", "2",
         "--scales", "16,32,64,128", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == _CSV_COLUMNS["sweep"]
    assert len(rows) == 5
    assert all(r[-1] == "pass" for r in rows[1:])
    # lambda column tracks the family scale
    assert float(rows[1][8]) == 8.0


# ---------------------------------------------------------------------------
# lowerbound command
# ---------------------------------------------------------------------------

def test_lowerbound_pass_and_schema(capsys):
    code, out, _ = run_cli(
        ["lowerbound", "--family", "dilated", "--alpha", "0.25",
         "--gamma", "0.75", "--R", "64", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == _CSV_COLUMNS["lowerbound"]
    assert rows[1][-1] == "pass"
    assert float(rows[1][8]) >= float(rows[1][9])


def test_lowerbound_time_zero_regime(capsys):
    code, out, _ = run_cli(
        ["lowerbound", "--family", "dilated", "--alpha", "0.25",
         "--gamma", "0.75", "--R", "64", "--t-zero"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["t_zero"] and rec["passed"]


def test_lowerbound_requires_node_budget():
    with pytest.raises(ConfigError):
        run_config({"command": "lowerbound", "family": "dilated",
                    "alpha": 0.25, "gamma": 0.75, "R": 16.0, "n_nodes": 10})


def test_unsupported_regime_is_config_error(capsys):
    # b inconsistent with gamma: caught at configuration time
    code, _, err = run_cli(
        ["sweep", "--family", "modulated", "--alpha", "0.5", "--gamma", "1.5",
         "--b", "3", "--scales", "16,32,64,128"], capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "config"


def test_internal_error_exits_3(capsys, monkeypatch):
    import ctschro.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic failure")
    monkeypatch.setitem(cli._COMMANDS, "atlas", boom)
    code, _, err = run_cli(["atlas", "--alpha", "0.5", "--gamma", "1",
                            "--m", "2"], capsys)
    assert code == 3
    assert json.loads(err.splitlines()[-1])["error"] == "internal"


# ---------------------------------------------------------------------------
# kernelcheck command
# ---------------------------------------------------------------------------

def test_kernelcheck_requires_seed():
    with pytest.raises(ConfigError):
        run_config({"command": "kernelcheck", "alpha": 0.5, "gamma": 2.0,
                    "lams": [16.0, 32.0], "count": 100})


@pytest.mark.parametrize("field,value", [
    ("lams", [16.0, 2.0]), ("lams", []),
    ("schur_lams", [3.0, 8.0, 16.0, 32.0]),
    ("schur_lams", [16.0, 32.0, 24.0, 48.0]),   # the Schur fit needs 4
    ("schur_lams", [16.0, 32.0, 64.0]),         # increasing levels
    ("count", 50)])
def test_kernelcheck_checks_fields_before_kernel_work(field, value, capsys,
                                                      monkeypatch):
    import ctschro.cli as cli

    def no_kernel_work(*args, **kwargs):
        raise AssertionError("kernel work started before the field checks")
    monkeypatch.setattr(cli, "verify_kernel_bound", no_kernel_work)
    monkeypatch.setattr(cli, "schur_integral", no_kernel_work)
    args = {"lams": "16,32", "schur_lams": "16,24,32,48", "count": 100}
    args[field] = ",".join(map(str, value)) if isinstance(value, list) else value
    code, out, err = run_cli(
        ["kernelcheck", "--alpha", "0.5", "--gamma", "2.0", "--seed", "3",
         "--lams", args["lams"], "--schur-lams", args["schur_lams"],
         "--count", str(args["count"])], capsys)
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "config" and field in rec["reason"]


def test_kernelcheck_echoes_table_weights(capsys):
    code, out, _ = run_cli(
        ["kernelcheck", "--alpha", "0.2", "--gamma", "0.5",
         "--lams", "16,32", "--count", "100", "--seed", "7",
         "--schur-lams", "16,24,32,48"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["beta1"] == pytest.approx(0.4)
    assert rec["results"]["beta2"] == pytest.approx(1.0)
    assert rec["command"] == "kernelcheck"


def test_kernelcheck_csv_schema(capsys):
    code, out, _ = run_cli(
        ["kernelcheck", "--alpha", "0.5", "--gamma", "2.0",
         "--lams", "16,32", "--count", "100", "--seed", "3",
         "--schur-lams", "16,24,32,48", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == _CSV_COLUMNS["kernelcheck"]
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------

def test_eval_rows(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "dilated", "--alpha", "0.25", "--gamma", "0.75",
         "--R", "16", "--x", "0.0001,0.3", "--t", "0", "--format", "csv"],
        capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == _CSV_COLUMNS["eval"]
    assert len(rows) == 3
    assert float(rows[1][5]) > 0.15   # near-origin amplitude about 1/(2 pi)


def test_eval_over_node_budget_exits_3(capsys, tmp_path, monkeypatch):
    # undamped modulated family at R = 256, b = 2: one point asks for about
    # 85 M quadrature nodes; damping has no flag, so the document turns it off
    import ctschro._numerics as numerics

    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes built past the node budget")
    monkeypatch.setattr(numerics, "refined_cells", no_nodes)
    doc = tmp_path / "eval.json"
    doc.write_text(json.dumps({"spectrum": "family", "family": "modulated",
                               "alpha": 0.5, "gamma": 2.0, "b": 2.0,
                               "R": 256.0, "x": [0.0], "t": [0.5],
                               "damping": False}))
    code, out, err = run_cli(["eval", "--config", str(doc)], capsys)
    assert code == 3
    assert out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "ResolutionError"
    assert "nodes" in rec["reason"]


def test_eval_band_requires_seed():
    with pytest.raises(ConfigError):
        run_config({"command": "eval", "spectrum": "band", "lam": 16.0,
                    "x": [0.0], "t": [0.0]})


@pytest.mark.parametrize("lam", [None, "sixteen", [16.0], float("nan"),
                                 float("inf"), 0.0, -4.0])
def test_eval_band_bad_lam_is_config_error(lam, tmp_path, capsys):
    doc = {"spectrum": "band", "seed": 3, "x": [0.0], "t": [0.0]}
    if lam is not None:
        doc["lam"] = lam
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "config" and "'lam'" in rec["reason"]


def test_eval_checks_n_samples_as_sweep_does(capsys):
    cfg = {"family": "dilated", "alpha": 0.25, "gamma": 0.75, "n_samples": 32}
    for command in ("sweep", "eval"):
        with pytest.raises(ConfigError, match="n_samples"):
            run_config({"command": command, "R": 16.0,
                        "scales": [16.0, 32.0, 64.0, 128.0], **cfg})


# ---------------------------------------------------------------------------
# records: determinism, round trip, serialization
# ---------------------------------------------------------------------------

def _strip_wall_time(record):
    return {k: v for k, v in record.items() if k != "wall_time_s"}


def test_record_round_trip_reproduces_measurements():
    cfg = {"command": "kernelcheck", "alpha": 0.5, "gamma": 2.0,
           "lams": [16.0, 32.0], "count": 100, "seed": 11,
           "schur_lams": [16.0, 24.0, 32.0, 48.0], "fmt": "json"}
    rec1 = run_config(dict(cfg))
    rec2 = run_config(json.loads(json.dumps(rec1["config"])))
    assert _strip_wall_time(rec1) == _strip_wall_time(rec2)


def test_sweep_record_round_trip():
    cfg = {"command": "sweep", "family": "dilated", "alpha": 0.25,
           "gamma": 2.0, "scales": [16, 32, 64, 128], "fmt": "json"}
    rec1 = run_config(dict(cfg))
    rec2 = run_config(json.loads(json.dumps(rec1["config"])))
    assert _strip_wall_time(rec1) == _strip_wall_time(rec2)


def test_csv_floats_carry_17_significant_digits():
    cfg = {"command": "atlas", "alpha": 1 / 3, "gamma": 1.2, "m": 2.0}
    rec = run_config(cfg)
    text = record_to_csv(rec)
    assert "0.33333333333333331" in text


def test_config_document_with_flag_override(tmp_path, capsys):
    doc = tmp_path / "run.json"
    doc.write_text(json.dumps({"alpha": 0.5, "gamma": 3.0, "m": 2.0,
                               "fmt": "json"}))
    code, out, _ = run_cli(
        ["atlas", "--config", str(doc), "--gamma", "1.5"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["config"]["gamma"] == 1.5       # flag wins over the document
    assert rec["results"]["rows"][0]["s"] == pytest.approx(1 / 6)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "atlas.csv"
    code, _, _ = run_cli(["atlas", "--alpha", "0.5", "--gamma", "3",
                          "--m", "2", "--format", "csv",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert rows[0] == _CSV_COLUMNS["atlas"]
