"""Experiment runner with machine-readable outputs.

Subcommands: ``atlas`` (exponent tables), ``sweep`` (scale sweeps with slope
fits against the predicted exponents), ``lowerbound`` (witness-interval
amplitude scans), ``kernelcheck`` (kernel-bound and Schur-integral sweeps),
``eval`` (single-point operator evaluation dump).

A run is configured by a single JSON document and/or command-line flags;
flags override document fields.  Records echo the fully resolved
configuration, so any run can be reproduced from its own output.  Exit codes:
0 success, 1 verdict failure, 2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import numpy as np

from . import __version__
from .atlas import continuity_check, exponent, predicted_ratio_slope
from .domain import (
    CounterexampleFamily,
    EvolutionParams,
    build_counterexample,
    curve_eval,
    holder_curve,
    random_band_limited,
)
from .errors import ConfigError, LabError
from .evolve import direct_quadrature
from .kernel import (
    beta_table,
    clipped_power_assignment,
    make_cutoff,
    schur_integral,
    verify_kernel_bound,
)
from .maximal import (
    LOWER_BOUND_LEVEL,
    calibrate_smallness,
    fit_slope,
    fit_slope_guarded,
    maximal_ratio,
    witness_minimum,
)

_CSV_COLUMNS = {
    "atlas": ["alpha", "gamma", "m", "s", "theorem", "regime"],
    "sweep": ["family", "alpha", "gamma", "m", "b", "c", "s_order", "R",
              "lambda", "Q", "norm_maxfield", "norm_f_l2", "norm_f_hs",
              "slope", "predicted_slope", "verdict"],
    "lowerbound": ["family", "alpha", "gamma", "m", "b", "c", "R", "n_nodes",
                   "min_value", "threshold", "verdict"],
    "kernelcheck": ["lambda", "max_ratio", "schur_slope",
                    "predicted_I_exponent", "verdict"],
    "eval": ["x", "t", "y", "value_re", "value_im", "value_abs"],
}


def _fmt17(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _family(cfg: dict) -> CounterexampleFamily:
    kind = cfg.get("family")
    if kind not in ("dilated", "modulated"):
        raise ConfigError(f"field 'family' must be dilated|modulated, got {kind!r}")
    try:
        return CounterexampleFamily(
            kind, float(cfg["alpha"]), float(cfg["gamma"]), float(cfg["R"]),
            None if cfg.get("b") is None else float(cfg["b"]),
            float(cfg.get("c", 0.01)))
    except KeyError as exc:
        raise ConfigError(f"missing family field {exc}") from exc
    except (LabError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _n_samples(cfg: dict) -> int:
    n_samples = int(cfg.get("n_samples", 2048))
    if n_samples < 64:
        raise ConfigError("field 'n_samples' must be at least 64")
    return n_samples


def _scales(cfg: dict) -> list[float]:
    scales = cfg.get("scales")
    if not scales:
        raise ConfigError("field 'scales' must be a nonempty increasing list")
    scales = [float(s) for s in scales]
    if any(s < 4 for s in scales) or any(b <= a for a, b in zip(scales, scales[1:])):
        raise ConfigError("field 'scales' must increase strictly with entries >= 4")
    return scales


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_atlas(cfg: dict) -> dict:
    try:
        m = float(cfg.get("m", 2.0))
        alphas = cfg.get("alpha_list") or [cfg["alpha"]]
        gammas = cfg.get("gamma_list") or [cfg["gamma"]]
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}") from exc
    rows, verdicts = [], []
    for a in alphas:
        for g in gammas:
            try:
                res = exponent(alpha=float(a), gamma=float(g), m=m)
            except LabError as exc:
                raise ConfigError(f"field alpha/gamma invalid: {exc}") from exc
            rows.append({"alpha": float(a), "gamma": float(g), "m": m,
                         "s": float(res.s), "theorem": res.theorem,
                         "regime": res.regime})
    results = {"rows": rows}
    if cfg.get("continuity", False):
        gap_tol = float(cfg.get("gap_tolerance", 1e-7))
        worst = 0.0
        report = []
        for a in alphas:
            for gap in continuity_check(float(a), m):
                report.append({"alpha": float(a), "gamma": gap.gamma,
                               "left": gap.left, "right": gap.right,
                               "gap": gap.gap})
                worst = max(worst, gap.gap)
        results["continuity"] = report
        verdicts.append({"name": "continuity_gap", "passed": worst <= gap_tol,
                         "measured": worst, "threshold": gap_tol})
    return {"results": results, "verdicts": verdicts}


def _require_witness_regime(fam: CounterexampleFamily) -> None:
    from .domain import witness_interval
    try:
        witness_interval(fam)
    except LabError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_sweep(cfg: dict) -> dict:
    scales = _scales(cfg)
    s_order = float(cfg.get("s_order", 0.0))
    tol = float(cfg.get("tolerance", 0.1))
    interval = cfg.get("interval", "scaling")
    n_samples = _n_samples(cfg)
    _require_witness_regime(_family({**cfg, "R": scales[0]}))

    rows, qs, failure = [], [], None
    fam = None
    for R in scales:
        fam = _family({**cfg, "R": R})
        try:
            res = maximal_ratio(fam, s=s_order, interval=interval,
                                n_samples=n_samples)
        except LabError as exc:   # partial results still emitted
            failure = f"scale R={R}: {exc}"
            break
        qs.append(res.q)
        rows.append({"family": fam.kind, "alpha": fam.alpha, "gamma": fam.gamma,
                     "m": 2.0, "b": fam.b, "c": fam.c, "s_order": s_order,
                     "R": R, "lambda": fam.lam, "Q": res.q,
                     "norm_maxfield": res.norm_maxfield,
                     "norm_f_l2": res.norm_f_l2, "norm_f_hs": res.norm_f_hs})

    predicted = predicted_ratio_slope(fam)
    if failure is None:
        fit = fit_slope_guarded(scales, qs)
        passed = abs(fit.slope - predicted) <= tol
        slope, intercept = fit.slope, fit.intercept
        fit_info = {"max_residual": fit.max_residual,
                    "dropped_scales": list(fit.dropped_scales)}
    else:
        passed, slope, intercept = False, None, None
        fit_info = {"error": failure}
    verdict = "pass" if passed else "fail"
    for row in rows:
        row["slope"] = slope
        row["predicted_slope"] = predicted
        row["verdict"] = verdict
    return {
        "results": {"rows": rows, "slope": slope, "intercept": intercept,
                    "predicted_slope": predicted, **fit_info},
        "verdicts": [{"name": "slope_matches_prediction", "passed": passed,
                      "measured": slope, "predicted": predicted,
                      "tolerance": tol}],
    }


def cmd_lowerbound(cfg: dict) -> dict:
    fam = _family(cfg)
    _require_witness_regime(fam)
    n_nodes = int(cfg.get("n_nodes", 256))
    if n_nodes < 256:
        raise ConfigError("lowerbound scans need at least 256 nodes")
    t_zero = bool(cfg.get("t_zero", False))
    level = LOWER_BOUND_LEVEL
    history = []
    if cfg.get("auto_calibrate", False) and not t_zero:
        fam, history = calibrate_smallness(fam, n_nodes=n_nodes)
        min_val = history[-1][1]
    else:
        min_val, *_ = witness_minimum(fam, n_nodes=n_nodes, t_zero=t_zero)
    passed = min_val >= level
    row = {"family": fam.kind, "alpha": fam.alpha, "gamma": fam.gamma,
           "m": 2.0, "b": fam.b, "c": fam.c, "R": fam.R, "n_nodes": n_nodes,
           "min_value": min_val, "threshold": level,
           "verdict": "pass" if passed else "fail"}
    return {
        "results": {"rows": [row], "calibration_history": history,
                    "t_zero": t_zero},
        "verdicts": [{"name": "witness_minimum", "passed": passed,
                      "measured": min_val, "threshold": level}],
    }


def cmd_kernelcheck(cfg: dict) -> dict:
    if cfg.get("seed") is None:
        raise ConfigError("field 'seed' is required for kernelcheck")
    try:
        alpha = float(cfg["alpha"])
        gamma = float(cfg["gamma"])
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}") from exc
    lams = [float(l) for l in cfg.get("lams", [16.0, 64.0, 256.0])]
    count = int(cfg.get("count", 500))
    seed = int(cfg["seed"])
    schur_lams = [float(l) for l in cfg.get("schur_lams", [16.0, 32.0, 64.0, 128.0])]
    schur_tol = float(cfg.get("schur_tolerance", 0.15))
    if not lams or not all(l >= 4.0 for l in lams):
        raise ConfigError("field 'lams' must be a nonempty list of entries >= 4")
    if len(schur_lams) < 4 or not all(l >= 4.0 for l in schur_lams) \
            or any(b <= a for a, b in zip(schur_lams, schur_lams[1:])):
        raise ConfigError("field 'schur_lams' must increase strictly with at "
                          "least 4 entries >= 4")
    if count < 100:
        raise ConfigError("field 'count' must be at least 100")

    beta = beta_table(alpha, gamma)
    report = verify_kernel_bound(alpha, gamma, lams, count, seed)

    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    curve = holder_curve(alpha)
    cutoff = make_cutoff()
    assign = clipped_power_assignment(alpha)
    schur_vals = []
    for lam in schur_lams:
        ny = int(8 * lam) + 1
        schur_vals.append(schur_integral(0.0, lam, params, curve, cutoff,
                                         assign, np.linspace(-1.0, 1.0, ny)))
    schur_fit = fit_slope(schur_lams, schur_vals)

    slope_ok = schur_fit.slope <= beta.i_exponent + schur_tol
    rows = []
    for lam, ratio in zip(report.lams, report.max_ratios):
        rows.append({"lambda": lam, "max_ratio": ratio,
                     "schur_slope": schur_fit.slope,
                     "predicted_I_exponent": beta.i_exponent,
                     "verdict": "pass" if (report.non_growing and slope_ok)
                                else "fail"})
    return {
        "results": {"rows": rows, "beta1": beta.beta1, "beta2": beta.beta2,
                    "eps_flag": beta.eps_flag,
                    "schur_lams": schur_lams, "schur_integrals": schur_vals,
                    "schur_slope": schur_fit.slope,
                    "max_ratios": list(report.max_ratios)},
        "verdicts": [
            {"name": "ratio_non_growth", "passed": report.non_growing,
             "measured": report.max_ratios[-1],
             "threshold": 2.0 * report.max_ratios[0]},
            {"name": "schur_slope", "passed": slope_ok,
             "measured": schur_fit.slope,
             "threshold": beta.i_exponent + schur_tol},
        ],
    }


def cmd_eval(cfg: dict) -> dict:
    spectrum = cfg.get("spectrum", "family")
    if spectrum == "family":
        fam = _family(cfg)
        f = build_counterexample(fam, _n_samples(cfg))
        gamma = fam.gamma
        alpha = fam.alpha
    elif spectrum == "band":
        if cfg.get("seed") is None:
            raise ConfigError("field 'seed' is required for a random band spectrum")
        try:
            lam = float(cfg["lam"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("field 'lam' must be a positive number") from exc
        if not 0.0 < lam < np.inf:
            raise ConfigError(f"field 'lam' must be finite and positive: {lam}")
        f = random_band_limited(lam, int(cfg["seed"]))
        gamma = float(cfg.get("gamma", 1.0))
        alpha = float(cfg.get("alpha", 1.0))
    else:
        raise ConfigError(f"field 'spectrum' must be family|band, got {spectrum!r}")
    params = EvolutionParams(m=float(cfg.get("m", 2.0)), gamma=gamma,
                             damping=bool(cfg.get("damping", True)))
    curve = holder_curve(alpha)
    xs = [float(v) for v in np.atleast_1d(cfg.get("x", 0.0))]
    ts = [float(v) for v in np.atleast_1d(cfg.get("t", 0.0))]
    if len(ts) == 1:
        ts = ts * len(xs)
    if len(xs) != len(ts):
        raise ConfigError("fields 'x' and 't' must have matching lengths")
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise ConfigError("field 't' must lie in [0, 1]")
    ys = [float(curve_eval(curve, x, t)) for x, t in zip(xs, ts)]
    vals = direct_quadrature(f, params, ys, ts).tolist()
    rows = [{"x": x, "t": t, "y": y, "value_re": val.real,
             "value_im": val.imag, "value_abs": abs(val)}
            for x, t, y, val in zip(xs, ts, ys, vals)]
    return {"results": {"rows": rows}, "verdicts": []}


_COMMANDS = {
    "atlas": cmd_atlas,
    "sweep": cmd_sweep,
    "lowerbound": cmd_lowerbound,
    "kernelcheck": cmd_kernelcheck,
    "eval": cmd_eval,
}


# ---------------------------------------------------------------------------
# record assembly and serialization
# ---------------------------------------------------------------------------

def run_config(cfg: dict) -> dict:
    """Execute a resolved configuration and return its record."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"field 'command' must be one of {sorted(_COMMANDS)}")
    t0 = time.perf_counter()
    payload = _COMMANDS[command](cfg)
    record = {
        "command": command,
        "config": cfg,
        "version": __version__,
        "results": payload["results"],
        "verdicts": payload["verdicts"],
        "passed": all(v["passed"] for v in payload["verdicts"]),
        "wall_time_s": time.perf_counter() - t0,
    }
    return record


def record_to_csv(record: dict) -> str:
    cols = _CSV_COLUMNS[record["command"]]
    buf = io.StringIO()
    writer = csv.writer(buf)          # RFC-4180 quoting and line endings
    writer.writerow(cols)
    for row in record["results"]["rows"]:
        writer.writerow([_fmt17(row.get(c)) for c in cols])
    return buf.getvalue()


def record_to_json(record: dict) -> str:
    return json.dumps(record, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctschro",
        description="scaling experiments for damped dispersive evolution "
                    "along curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration document")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--seed", type=int)
        p.add_argument("--tolerance", type=float)

    p = sub.add_parser("atlas", help="sharp-exponent table")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--gamma-list", help="comma-separated gamma values")
    p.add_argument("--continuity", action="store_true", default=None)

    p = sub.add_parser("sweep", help="scale sweep with slope fit")
    common(p)
    p.add_argument("--family", choices=("dilated", "modulated"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--s-order", type=float, dest="s_order")
    p.add_argument("--scales", help="comma-separated scale list")
    p.add_argument("--interval", choices=("scaling", "witness", "full"))

    p = sub.add_parser("lowerbound", help="witness-interval amplitude scan")
    common(p)
    p.add_argument("--family", choices=("dilated", "modulated"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--n-nodes", type=int, dest="n_nodes")
    p.add_argument("--auto-calibrate", action="store_true", default=None,
                   dest="auto_calibrate")
    p.add_argument("--t-zero", action="store_true", default=None, dest="t_zero")

    p = sub.add_parser("kernelcheck", help="kernel bound and Schur sweeps")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lams", help="comma-separated frequency levels")
    p.add_argument("--count", type=int)
    p.add_argument("--schur-lams", dest="schur_lams")

    p = sub.add_parser("eval", help="single-point evaluation dump")
    common(p)
    p.add_argument("--spectrum", choices=("family", "band"))
    p.add_argument("--family", choices=("dilated", "modulated"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--x", help="comma-separated positions")
    p.add_argument("--t", help="comma-separated times")
    return parser


_LIST_FIELDS = {"scales", "lams", "schur_lams", "gamma_list", "x", "t"}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config document: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
    cfg["command"] = args.command
    for key, val in vars(args).items():
        if key in ("config", "command") or val is None:
            continue
        if key in _LIST_FIELDS and isinstance(val, str):
            try:
                val = [float(v) for v in val.split(",") if v]
            except ValueError as exc:
                raise ConfigError(f"field {key!r}: {exc}") from exc
        cfg[key] = val
    cfg.setdefault("fmt", "json")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        record = run_config(cfg)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "reason": str(exc)}) + "\n")
        return 2
    except LabError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "reason": str(exc)}) + "\n")
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        sys.stderr.write(json.dumps({"error": "internal", "reason": repr(exc)}) + "\n")
        return 3

    text = record_to_csv(record) if cfg["fmt"] == "csv" else record_to_json(record)
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not record["passed"]:
        sys.stderr.write(json.dumps(
            {"error": "verdict", "reason": [v["name"] for v in record["verdicts"]
                                            if not v["passed"]]}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
