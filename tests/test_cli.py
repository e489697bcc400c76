import csv
import io
import json
import math
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
         "--gamma", "0.5,0.7,1.0,1.4,1.8,2.5", "--continuity"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert len(rec["results"]["rows"]) == 6
    assert {r["theorem"] for r in rec["results"]["rows"]} == {"T3"}
    assert rec["passed"]
    gaps = [g["gap"] for g in rec["results"]["continuity"]]
    assert max(gaps) <= 1e-7


def test_atlas_reads_lists_of_alpha_and_gamma():
    rec = run_config({"command": "atlas", "alpha": [0.5, 0.25],
                      "gamma": [1.0, 2.0, 3.0]})
    assert [(r["alpha"], r["gamma"]) for r in rec["results"]["rows"]] == [
        (a, g) for a in (0.5, 0.25) for g in (1.0, 2.0, 3.0)]
    for field in ("alpha", "gamma"):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            run_config({"command": "atlas", "alpha": 0.5, "gamma": 1.0,
                        field: []})


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
                    "gamma": 2.0, "scales": [16, 8, 32]})


def test_sweep_needs_four_scales_before_any_scale(capsys, monkeypatch):
    # the slope fit needs 4 scales: fewer are refused before any scale is
    # checked or computed, not after all of them
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a scale computed before the scales check")
    monkeypatch.setattr(cli, "check_ratio_resolution", no_work)
    monkeypatch.setattr(cli, "maximal_ratio", no_work)
    code, out, err = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.25", "--gamma", "0.75",
         "--scales", "16,32,64"], capsys)
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "config" and "'scales'" in rec["reason"]


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
    # each row counts the transform slices its maximal field synthesized
    assert all(isinstance(r["slices"], int) and r["slices"] > 0
               for r in rec["results"]["rows"])


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
    assert float(rows[1][rows[0].index("lambda")]) == 8.0
    assert "s_order" not in rows[0] and "norm_f_hs" not in rows[0]


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


def test_lowerbound_refuses_t_zero_with_auto_calibrate(capsys, monkeypatch):
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a scan started with both flags set")
    monkeypatch.setattr(cli, "witness_minimum", no_work)
    monkeypatch.setattr(cli, "calibrate_smallness", no_work)
    code, out, err = run_cli(
        ["lowerbound", "--family", "dilated", "--alpha", "0.25",
         "--gamma", "0.75", "--R", "64", "--t-zero", "--auto-calibrate"],
        capsys)
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "config"
    assert "'t_zero'" in rec["reason"] and "'auto_calibrate'" in rec["reason"]


def test_lowerbound_requires_node_budget(monkeypatch):
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a scan started past the node bounds")
    monkeypatch.setattr(cli, "witness_minimum", no_work)
    doc = {"command": "lowerbound", "family": "dilated", "alpha": 0.25,
           "gamma": 0.75, "R": 16.0}
    with pytest.raises(ConfigError):
        run_config({**doc, "n_nodes": 10})
    # the scan holds every node and its witness time in memory
    with pytest.raises(ConfigError, match=f"256, {cli._MAX_SAMPLES}"):
        run_config({**doc, "n_nodes": cli._MAX_SAMPLES + 1})


def test_unsupported_regime_is_config_error(capsys):
    # b = gamma needs gamma >= 1/(2 alpha): caught at configuration time
    code, _, err = run_cli(
        ["sweep", "--family", "modulated", "--alpha", "0.3", "--gamma", "1.2",
         "--scales", "16,32,64,128"], capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("family,gamma,b,code", [
    ("modulated", 3.0, 2.0, 0), ("modulated", 1.6, 1.6, 0),
    ("modulated", 3.0, 3.0, 2), ("modulated", 1.6, 2.0, 2),
    ("dilated", 0.75, 1.0, 2),
])
def test_config_b_must_be_the_derived_b(family, gamma, b, code, tmp_path,
                                        capsys):
    # b is derived from the family; records that echo it still replay
    doc = {"spectrum": "family", "family": family, "alpha": 0.5,
           "gamma": gamma, "b": b, "R": 16.0, "x": [0.0], "t": [0.0]}
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(["eval", "--config", str(path)], capsys)
    assert got == code
    if code == 0:
        assert json.loads(out)["passed"]
    else:
        rec = json.loads(err.splitlines()[-1])
        derived = None if family == "dilated" else min(gamma, 2.0)
        assert rec["error"] == "config" and f"b = {derived}" in rec["reason"]


@pytest.mark.parametrize("command,flag", [
    ("atlas", "--seed"), ("atlas", "--tolerance"),
    ("sweep", "--seed"), ("sweep", "--b"),
    ("lowerbound", "--seed"), ("lowerbound", "--tolerance"),
    ("lowerbound", "--b"), ("kernelcheck", "--tolerance"),
    ("eval", "--tolerance"), ("eval", "--b"),
])
def test_flag_the_command_does_not_read_exits_2(command, flag, capsys):
    # refused by the parser, before any configuration field is read
    code, out, err = run_cli([command, flag, "2"], capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 2" in err


def test_sweep_where_the_family_is_not_sharp_exits_2(capsys, monkeypatch):
    # dilated (1/2, 3/2): the family's law gives slope 0, the atlas s = 1/6,
    # so no sweep there could test the theorem
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the regime check")
    monkeypatch.setattr(cli, "maximal_ratio", no_work)
    code, out, err = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.5", "--gamma", "1.5",
         "--scales", "16,32,64,128"], capsys)
    assert code == 2 and out == ""
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
    ("count", 50),
    # ratio_non_growth compares the last level with the first, so the
    # levels must increase and be at least two
    ("lams", [64.0, 16.0]), ("lams", [16.0, 16.0]), ("lams", [16.0])])
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


@pytest.mark.parametrize("spectrum,field,value", [
    ("family", "lam", 16.0), ("family", "seed", 3),
    ("band", "family", "dilated"), ("band", "R", 16.0), ("band", "c", 0.01),
    ("band", "b", 2.0), ("band", "n_samples", 2048),
])
def test_eval_refuses_the_other_spectrums_fields(spectrum, field, value,
                                                 tmp_path, capsys,
                                                 monkeypatch):
    # the record echoes every field, so one the spectrum does not read
    # would claim a setting that had no effect
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the field checks")
    for name in ("build_counterexample", "random_band_limited",
                 "direct_quadrature"):
        monkeypatch.setattr(cli, name, no_work)
    doc = {**(_VALID["eval"] if spectrum == "family" else _BAND),
           "spectrum": spectrum, field: value}
    code, out, rec = _run_doc("eval", doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert rec["error"] == "config" and f"'{field}'" in rec["reason"]
    # without it the same document runs
    monkeypatch.undo()
    del doc[field]
    assert run_config({"command": "eval", **doc})["passed"]


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


def test_eval_checks_n_samples_as_sweep_does(monkeypatch):
    # both bounds hold before any spectrum is built; past 2**20 samples no
    # sweep scale could pass the oracle's node budget
    import ctschro.cli as cli
    import ctschro.maximal as maximal
    from ctschro._numerics import _MAX_NODES

    def no_work(*args, **kwargs):
        raise AssertionError("spectrum built before the n_samples check")
    for module, name in ((cli, "build_counterexample"),
                         (maximal, "build_counterexample"),
                         (cli, "maximal_ratio")):
        monkeypatch.setattr(module, name, no_work)
    for n_samples in (32, _MAX_NODES // 4 + 1):
        for command in ("sweep", "eval"):
            with pytest.raises(ConfigError, match="n_samples"):
                run_config({"command": command, "n_samples": n_samples,
                            **_VALID[command]})


def test_kernelcheck_bounds_its_sizes_before_any_draw(monkeypatch, capsys):
    # count x len(lams) kernel draws and the 8 max(schur_lams) + 1 y-nodes
    # of the Schur row are each bounded by 2**20 before any draw or array
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("kernel work started before the size checks")
    monkeypatch.setattr(cli, "verify_kernel_bound", no_work)
    monkeypatch.setattr(cli, "schur_integral", no_work)
    limit = cli._MAX_SAMPLES
    assert limit == 2 ** 20
    cfg = {"command": "kernelcheck", "alpha": 0.5, "gamma": 2.0, "seed": 3,
           "lams": [16.0, 32.0], "count": 100,
           "schur_lams": [16.0, 32.0, 64.0, 128.0]}
    for field, over in (("count", {"count": limit // 2 + 1}),
                        ("schur_lams", {"schur_lams": [16.0, 32.0, 64.0,
                                                       limit / 8]}),
                        ("schur_lams", {"schur_lams": [16.0, 32.0, 64.0,
                                                       1e9]})):
        with pytest.raises(ConfigError, match=field):
            run_config({**cfg, **over})
    # at the bounds the run goes on to the kernel work
    for at in ({"count": limit // 2},
               {"schur_lams": [16.0, 32.0, 64.0, (limit - 1) / 8]}):
        with pytest.raises(AssertionError, match="kernel work"):
            run_config({**cfg, **at})
    code, out, err = run_cli(
        ["kernelcheck", "--alpha", "0.5", "--gamma", "2.0", "--seed", "3",
         "--lams", "16,32", "--schur-lams", "16,32,64,1e9", "--count", "100"],
        capsys)
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "config"


# ---------------------------------------------------------------------------
# malformed fields: configuration errors, exit 2
# ---------------------------------------------------------------------------

_DILATED = {"family": "dilated", "alpha": 0.25, "gamma": 0.75}
_VALID = {
    "atlas": {"alpha": 0.5, "gamma": 1.0},
    "sweep": {**_DILATED, "scales": [16.0, 32.0, 64.0, 128.0]},
    "lowerbound": {**_DILATED, "R": 16.0},
    "kernelcheck": {"alpha": 0.5, "gamma": 2.0, "seed": 3,
                    "lams": [16.0, 32.0], "schur_lams": [16.0, 24.0, 32.0, 48.0],
                    "count": 100},
    "eval": {**_DILATED, "R": 16.0, "x": [0.0], "t": [0.0]},
}
_BAND = {"spectrum": "band", "lam": 16.0, "seed": 3, "x": [0.0], "t": [0.0]}


def _run_doc(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    return code, out, json.loads(err.splitlines()[-1])


@pytest.mark.parametrize("command,field,value", [
    ("sweep", "n_samples", "many"), ("sweep", "tolerance", "x"),
    ("sweep", "scales", "16,32"), ("sweep", "alpha", None),
    ("kernelcheck", "lams", ["x"]), ("kernelcheck", "count", "lots"),
    ("kernelcheck", "seed", "x"), ("kernelcheck", "alpha", [0.5]),
    ("lowerbound", "n_nodes", "many"), ("lowerbound", "R", "big"),
    ("eval", "x", "abc"), ("eval", "t", [0.0, "late"]),
    ("atlas", "m", "two"), ("atlas", "gamma", {"value": 1}),
    # NaN and infinities: json.dumps writes NaN and Infinity, json.load
    # reads them back
    ("sweep", "tolerance", math.nan),
    ("sweep", "s_order", math.nan),     # sweep reads no s_order: refused
    ("sweep", "scales", [16.0, 32.0, math.nan, 128.0]),
    ("sweep", "scales", [16.0, 32.0, 64.0, math.inf]),
    ("lowerbound", "R", math.nan), ("lowerbound", "R", -math.inf),
    ("eval", "x", [math.nan]), ("eval", "t", [0.0, math.inf]),
    ("kernelcheck", "schur_tolerance", math.inf),
    # a conversion may not change the value: no fraction in an integer
    # field, and no boolean as a number
    ("eval", "n_samples", 100.9), ("kernelcheck", "seed", 3.7),
    ("kernelcheck", "seed", True), ("sweep", "alpha", True),
    ("atlas", "gamma", [1.0, True]),
    # a JSON string is no number, even one that reads as a number
    ("atlas", "gamma", ["1", "3"]), ("kernelcheck", "seed", "3"),
    ("eval", "seed", "3"), ("sweep", "alpha", "0.25"),
])
def test_non_numeric_field_exits_2(command, field, value, tmp_path, capsys):
    # eval reads a seed with the band spectrum only
    base = _BAND if (command, field) == ("eval", "seed") else _VALID[command]
    doc = {**base, field: value}
    code, out, rec = _run_doc(command, doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert rec["error"] == "config" and f"'{field}'" in rec["reason"]


def test_integral_float_is_an_integer_field():
    doc = {"command": "eval", **_VALID["eval"]}
    assert run_config({**doc, "n_samples": 100.0})["results"] \
        == run_config({**doc, "n_samples": 100})["results"]


@pytest.mark.parametrize("command,doc,words", [
    ("kernelcheck", {**_VALID["kernelcheck"], "alpha": 0.0}, "alpha"),
    ("kernelcheck", {**_VALID["kernelcheck"], "gamma": -1.0}, "gamma"),
    ("eval", {**_BAND, "m": -1.0}, "exponent m"),
    ("eval", {**_BAND, "gamma": 0.0}, "exponent gamma"),
    ("eval", {**_BAND, "alpha": 2.0}, "alpha"),
])
def test_out_of_range_physics_field_exits_2(command, doc, words, tmp_path,
                                            capsys, monkeypatch):
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the field checks")
    for name in ("verify_kernel_bound", "schur_integral", "direct_quadrature"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, rec = _run_doc(command, doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert rec["error"] == "config" and words in rec["reason"]


@pytest.mark.parametrize("command,field,value", [
    ("eval", "damping", "false"), ("eval", "damping", 0),
    ("lowerbound", "t_zero", "false"), ("lowerbound", "auto_calibrate", "no"),
    ("atlas", "continuity", "false"), ("atlas", "continuity", 1),
    # sweep reads no interval: refused whatever the value
    ("sweep", "interval", "bogus"), ("sweep", "interval", [0.5]),
    ("sweep", "interval", [0.5, 0.1]), ("sweep", "interval", [0.0, 2.0]),
    ("sweep", "interval", ["a", 0.5]), ("sweep", "interval", {"a": 0.1}),
])
def test_malformed_flag_or_interval_exits_2(command, field, value, tmp_path,
                                            capsys, monkeypatch):
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the field checks")
    for name in ("maximal_ratio", "witness_minimum", "calibrate_smallness",
                 "direct_quadrature", "continuity_check"):
        monkeypatch.setattr(cli, name, no_work)
    doc = {**_VALID[command], field: value}
    code, out, rec = _run_doc(command, doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert rec["error"] == "config" and f"'{field}'" in rec["reason"]


@pytest.mark.parametrize("command,field,value", [
    ("sweep", "interval", "full"), ("sweep", "s_order", 0.0),
    ("sweep", "s_order", None), ("sweep", "R", 16.0),
    ("sweep", "lams", [16.0, 32.0]), ("lowerbound", "n_samples", 64),
    ("lowerbound", "scales", [16.0, 32.0]), ("lowerbound", "seed", 3),
    ("kernelcheck", "family", "dilated"), ("atlas", "scales", [16.0, 32.0]),
    # atlas reads its lists from alpha and gamma themselves, and the gap
    # tolerance with the continuity audit only
    ("atlas", "alpha_list", [0.5, 0.25]), ("atlas", "gamma_list", [1.0, 2.0]),
    ("atlas", "gap_tolerance", 1e-7),
])
def test_command_refuses_a_field_it_does_not_read(command, field, value,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    # the record echoes every field, so one the command does not read would
    # claim a setting that had no effect, whatever its value
    import ctschro.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the field checks")
    for name in ("maximal_ratio", "check_ratio_resolution", "witness_minimum",
                 "calibrate_smallness", "verify_kernel_bound",
                 "schur_integral", "exponent"):
        monkeypatch.setattr(cli, name, no_work)
    doc = {**_VALID[command], field: value}
    code, out, rec = _run_doc(command, doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert rec["error"] == "config" and f"'{field}'" in rec["reason"]
    # without it the same document runs
    monkeypatch.undo()
    del doc[field]
    assert run_config({"command": command, **doc})["passed"]


def test_every_flag_and_benchmark_field_is_read(monkeypatch):
    # each flag's field is one its command reads, and so is each field of
    # the benchmark's CLI workloads, as perfbench/workloads.py builds them
    import argparse
    import importlib.util
    import pathlib
    import ctschro.cli as cli

    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        reads = cli._READS[command]
        if isinstance(reads, dict):
            reads = {name for kind in reads.values() for name in kind}
        dests = {a.dest for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "config")}
        assert dests <= {*reads, "fmt", "out"}, command
    assert sum(len(p._actions) - 1 for p in sub.choices.values()) == 50

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("workloads",
                                                  path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ran = []
    for name in ("sweep", "kernelcheck"):
        monkeypatch.setitem(cli._COMMANDS, name, lambda cfg: ran.append(
            cfg["command"]) or {"results": {}, "verdicts": []})
        for size in ("full", "tiny"):
            run_config(workloads.WORKLOADS[name](7, size).config)
    assert ran == ["sweep", "sweep", "kernelcheck", "kernelcheck"]


def test_damping_flag_reads_json_booleans():
    def value(**flag):
        rec = run_config({"command": "eval", **_DILATED, "R": 16.0,
                          "x": [0.3], "t": [0.5], **flag})
        return rec["results"]["rows"][0]["value_abs"]
    damped = value()
    assert value(damping=None) == value(damping=True) == damped
    assert value(damping=False) > 10.0 * damped


def test_sweep_resolution_failure_exits_3_naming_the_scale(capsys,
                                                           monkeypatch):
    # an unresolved scale is no evidence against the theorem: it is not a
    # failed verdict (exit 1) but an internal limit (exit 3)
    import ctschro.cli as cli
    from ctschro.errors import ResolutionError
    real = cli.maximal_ratio

    def second_scale_fails(fam, n_samples):
        if fam.R == 32.0:
            raise ResolutionError("slice needs an FFT past max_fft")
        return real(fam, n_samples)
    monkeypatch.setattr(cli, "maximal_ratio", second_scale_fails)
    code, out, err = run_cli(
        ["sweep", "--family", "dilated", "--alpha", "0.25", "--gamma", "2",
         "--scales", "16,32,64,128"], capsys)
    assert code == 3 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "ResolutionError"
    assert "R=32" in rec["reason"] and "max_fft" in rec["reason"]


def test_sweep_checks_every_scale_before_the_first_slice(capsys,
                                                         monkeypatch):
    # modulated (1/2, 3, b 2): only the last scale is unresolvable, at
    # t = 5.13e-05 (an FFT of 17 964 240 > 2**24); the run exits 3 naming it
    # before any maximal field of the first scale is computed
    import ctschro.maximal as maximal

    def forbidden(*args, **kwargs):
        raise AssertionError("a maximal field before the resolution check")
    monkeypatch.setattr(maximal, "maximal_field", forbidden)
    code, out, err = run_cli(
        ["sweep", "--family", "modulated", "--alpha", "0.5", "--gamma", "3",
         "--scales", "512,1024,2048,4096"], capsys)
    assert code == 3 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "ResolutionError"
    assert "scale R=4096" in rec["reason"]
    assert "t=5.132424409507535e-05" in rec["reason"]
    assert "17964240 > max_fft" in rec["reason"]


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
    assert rec["config"]["gamma"] == [1.5]     # flag wins over the document
    assert rec["results"]["rows"][0]["s"] == pytest.approx(1 / 6)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "atlas.csv"
    code, _, _ = run_cli(["atlas", "--alpha", "0.5", "--gamma", "3",
                          "--m", "2", "--format", "csv",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert rows[0] == _CSV_COLUMNS["atlas"]
