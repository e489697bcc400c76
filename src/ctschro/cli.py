"""Experiment runner with machine-readable outputs.

Subcommands: ``atlas`` (exponent tables), ``sweep`` (scale sweeps with slope
fits against the predicted exponents), ``lowerbound`` (witness-interval
amplitude scans), ``kernelcheck`` (kernel-bound and Schur-integral sweeps),
``eval`` (single-point operator evaluation dump).

A run is configured by a single JSON document and/or command-line flags;
flags override document fields.  Records echo the fully resolved
configuration, so any run can be reproduced from its own output, and a field
that its command does not read is refused.  Exit codes:
0 success, 1 verdict failure, 2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import numpy as np

from . import __version__
from ._numerics import _MAX_NODES
from .atlas import continuity_check, exponent, predicted_ratio_slope
from .domain import (
    CounterexampleFamily,
    EvolutionParams,
    build_counterexample,
    curve_eval,
    holder_curve,
    random_band_limited,
)
from .errors import ConfigError, LabError, RegimeError
from .evolve import direct_quadrature
from .kernel import (
    beta_table,
    clipped_power_assignment,
    schur_integral,
    verify_kernel_bound,
)
from .maximal import (
    LOWER_BOUND_LEVEL,
    calibrate_smallness,
    check_ratio_resolution,
    fit_slope,
    fit_slope_guarded,
    maximal_ratio,
    witness_minimum,
)

_CSV_COLUMNS = {
    "atlas": ["alpha", "gamma", "m", "s", "theorem", "regime"],
    "sweep": ["family", "alpha", "gamma", "m", "b", "c", "R", "lambda", "Q",
              "norm_maxfield", "norm_f_l2", "slope", "predicted_slope",
              "verdict"],
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


def _convert(value, kind):
    """``kind(value)`` of a JSON number, refusing a string and a boolean (not
    1 or 0), and what the conversion would change: for ``int``, a number
    with a fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{type(value).__name__} is no number")
    converted = kind(value)
    if kind is int and isinstance(value, float) and converted != value:
        raise ValueError("the value has a fraction")
    return converted


def _field(cfg: dict, name: str, default=None, kind=float, many=False):
    """Field ``name`` of the configuration (``default`` when it is absent or
    null) converted by ``kind``; with ``many``, a list of them, where a
    scalar is a list of one.  Raises ``ConfigError`` naming the field when
    it is missing and has no default, or a value is no finite number (an
    integer for ``int``)."""
    value = cfg.get(name)
    if value is None:
        value = default
    if value is None:
        raise ConfigError(f"missing field {name!r}")
    what = "an integer" if kind is int else "a number"
    try:
        values = [_convert(v, kind)
                  for v in (value if many and isinstance(value, list)
                            else [value])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {name!r} must be {what}"
                          f"{' or a list of them' if many else ''}, "
                          f"got {value!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"field {name!r} must be finite, got {value!r}")
    return values if many else values[0]


def _flag(cfg: dict, name: str, default: bool) -> bool:
    """Boolean field ``name`` of the configuration: JSON true or false, and
    ``default`` when it is absent or null.  Raises ``ConfigError`` naming
    the field for any other value, so that "false" cannot mean true."""
    value = cfg.get(name)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be true or false, got {value!r}")
    return value


def _family(cfg: dict) -> CounterexampleFamily:
    kind = cfg.get("family")
    if kind not in ("dilated", "modulated"):
        raise ConfigError(f"field 'family' must be dilated|modulated, got {kind!r}")
    try:
        fam = CounterexampleFamily(
            kind, _field(cfg, "alpha"), _field(cfg, "gamma"), _field(cfg, "R"),
            _field(cfg, "c", 0.01))
    except LabError as exc:
        raise ConfigError(str(exc)) from exc
    # b is derived; records echo it, so an equal one still replays
    if cfg.get("b") is not None and _field(cfg, "b") != fam.b:
        raise ConfigError(f"field 'b' must be the derived b = {fam.b}")
    return fam


# every sweep scale integrates the whole band at its witness times, so a
# spectrum of more samples can never pass the oracle's node budget; the same
# bound caps kernelcheck's draws and Schur row and lowerbound's nodes
_MAX_SAMPLES = _MAX_NODES // 4


def _n_samples(cfg: dict) -> int:
    n_samples = _field(cfg, "n_samples", 2048, int)
    if not 64 <= n_samples <= _MAX_SAMPLES:
        raise ConfigError(f"field 'n_samples' must lie in "
                          f"[64, {_MAX_SAMPLES}], got {n_samples}")
    return n_samples


def _levels(cfg: dict, name: str, least: int, default=None) -> list[float]:
    """List field ``name`` of scales or frequency levels: at least ``least``
    entries >= 4 that increase strictly.  Raises ``ConfigError`` naming the
    field otherwise."""
    levels = _field(cfg, name, default, many=True)
    if len(levels) < least or any(v < 4 for v in levels) \
            or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"field {name!r} must increase strictly with at "
                          f"least {least} entries >= 4")
    return levels


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_atlas(cfg: dict) -> dict:
    m = _field(cfg, "m", 2.0)
    alphas = _field(cfg, "alpha", many=True)
    gammas = _field(cfg, "gamma", many=True)
    if not alphas or not gammas:
        raise ConfigError("fields 'alpha' and 'gamma' must be nonempty")
    continuity = _flag(cfg, "continuity", False)
    if not continuity and cfg.get("gap_tolerance") is not None:
        raise ConfigError("field 'gap_tolerance' is read with 'continuity' "
                          "only")
    rows, verdicts = [], []
    for a in alphas:
        for g in gammas:
            try:
                res = exponent(alpha=a, gamma=g, m=m)
            except LabError as exc:
                raise ConfigError(f"field alpha/gamma invalid: {exc}") from exc
            rows.append({"alpha": a, "gamma": g, "m": m,
                         "s": float(res.s), "theorem": res.theorem,
                         "regime": res.regime})
    results = {"rows": rows}
    if continuity:
        gap_tol = _field(cfg, "gap_tolerance", 1e-7)
        worst = 0.0
        report = []
        for a in alphas:
            for gap in continuity_check(a, m):
                report.append({"alpha": a, "gamma": gap.gamma,
                               "left": gap.left, "right": gap.right,
                               "gap": gap.gap})
                worst = max(worst, gap.gap)
        results["continuity"] = report
        verdicts.append({"name": "continuity_gap", "passed": worst <= gap_tol,
                         "measured": worst, "threshold": gap_tol})
    return {"results": results, "verdicts": verdicts}


def _at_scale(R: float, fn, *args, **kwargs):
    """fn(*args, **kwargs), naming the scale R in the reason of a
    ``LabError``: an unresolved scale is no evidence, so the run exits 3."""
    try:
        return fn(*args, **kwargs)
    except LabError as exc:
        raise type(exc)(f"scale R={R}: {exc}") from exc


def cmd_sweep(cfg: dict) -> dict:
    scales = _levels(cfg, "scales", 4)   # as many as the slope fit needs
    tol = _field(cfg, "tolerance", 0.1)
    n_samples = _n_samples(cfg)
    fams = [_family({**cfg, "R": R}) for R in scales]
    try:
        predicted = predicted_ratio_slope(fams[0])
    except RegimeError as exc:
        raise ConfigError(str(exc)) from exc
    # the slices of every scale are resolvable, checked by arithmetic before
    # the first slice of the first scale
    for fam in fams:
        _at_scale(fam.R, check_ratio_resolution, fam, n_samples)
    rows, qs = [], []
    for fam in fams:
        res = _at_scale(fam.R, maximal_ratio, fam, n_samples)
        qs.append(res.q)
        rows.append({"family": fam.kind, "alpha": fam.alpha, "gamma": fam.gamma,
                     "m": fam.m, "b": fam.b, "c": fam.c, "R": fam.R,
                     "lambda": fam.lam, "Q": res.q,
                     "norm_maxfield": res.norm_maxfield,
                     "norm_f_l2": res.norm_f_l2, "slices": res.slices})

    fit = fit_slope_guarded(scales, qs)
    passed = abs(fit.slope - predicted) <= tol
    verdict = "pass" if passed else "fail"
    for row in rows:
        row["slope"] = fit.slope
        row["predicted_slope"] = predicted
        row["verdict"] = verdict
    return {
        "results": {"rows": rows, "slope": fit.slope,
                    "intercept": fit.intercept, "predicted_slope": predicted,
                    "max_residual": fit.max_residual,
                    "dropped_scales": list(fit.dropped_scales)},
        "verdicts": [{"name": "slope_matches_prediction", "passed": passed,
                      "measured": fit.slope, "predicted": predicted,
                      "tolerance": tol}],
    }


def cmd_lowerbound(cfg: dict) -> dict:
    fam = _family(cfg)
    n_nodes = _field(cfg, "n_nodes", 256, int)
    if not 256 <= n_nodes <= _MAX_SAMPLES:
        raise ConfigError(f"field 'n_nodes' must lie in [256, {_MAX_SAMPLES}]")
    t_zero = _flag(cfg, "t_zero", False)
    auto_calibrate = _flag(cfg, "auto_calibrate", False)
    if t_zero and auto_calibrate:
        raise ConfigError("fields 't_zero' and 'auto_calibrate' exclude each "
                          "other: the t = 0 scan does not depend on c")
    history = []
    if auto_calibrate:
        fam, history = calibrate_smallness(fam, n_nodes=n_nodes)
        min_val = history[-1][1]
    else:
        min_val, *_ = witness_minimum(fam, n_nodes=n_nodes, t_zero=t_zero)
    passed = min_val >= LOWER_BOUND_LEVEL
    row = {"family": fam.kind, "alpha": fam.alpha, "gamma": fam.gamma,
           "m": fam.m, "b": fam.b, "c": fam.c, "R": fam.R, "n_nodes": n_nodes,
           "min_value": min_val, "threshold": LOWER_BOUND_LEVEL,
           "verdict": "pass" if passed else "fail"}
    return {
        "results": {"rows": [row], "calibration_history": history,
                    "t_zero": t_zero},
        "verdicts": [{"name": "witness_minimum", "passed": passed,
                      "measured": min_val, "threshold": LOWER_BOUND_LEVEL}],
    }


def cmd_kernelcheck(cfg: dict) -> dict:
    alpha = _field(cfg, "alpha")
    gamma = _field(cfg, "gamma")
    # the ratio_non_growth verdict compares the last level with the first,
    # and the Schur fit needs 4 levels
    lams = _levels(cfg, "lams", 2, [16.0, 64.0, 256.0])
    count = _field(cfg, "count", 500, int)
    seed = _field(cfg, "seed", kind=int)
    schur_lams = _levels(cfg, "schur_lams", 4, [16.0, 32.0, 64.0, 128.0])
    schur_tol = _field(cfg, "schur_tolerance", 0.15)
    if count < 100:
        raise ConfigError("field 'count' must be at least 100")
    # the kernel draws and the Schur row's y-nodes are held in memory whole
    if count * len(lams) > _MAX_SAMPLES:
        raise ConfigError(f"fields 'count' x 'lams' ask for {count * len(lams)} "
                          f"kernel samples, more than {_MAX_SAMPLES}")
    if 8 * max(schur_lams) + 1 > _MAX_SAMPLES:
        raise ConfigError(f"field 'schur_lams' asks for a Schur row of "
                          f"8 x {max(schur_lams):g} + 1 nodes, more than "
                          f"{_MAX_SAMPLES}")

    try:
        beta = beta_table(alpha, gamma)
    except LabError as exc:
        raise ConfigError(f"fields alpha/gamma: {exc}") from exc
    report = verify_kernel_bound(alpha, gamma, lams, count, seed)

    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    curve = holder_curve(alpha)
    assign = clipped_power_assignment(alpha)
    schur_vals = []
    for lam in schur_lams:
        ny = int(8 * lam) + 1
        schur_vals.append(schur_integral(0.0, lam, params, curve, assign,
                                         np.linspace(-1.0, 1.0, ny)))
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


def _spectrum(cfg: dict) -> str:
    spectrum = cfg.get("spectrum", "family")
    if spectrum not in ("family", "band"):
        raise ConfigError(f"field 'spectrum' must be family|band, "
                          f"got {spectrum!r}")
    return spectrum


def cmd_eval(cfg: dict) -> dict:
    if _spectrum(cfg) == "family":
        fam = _family(cfg)
        f = build_counterexample(fam, _n_samples(cfg))
        gamma, alpha = fam.gamma, fam.alpha
    else:
        lam = _field(cfg, "lam")
        if not lam > 0.0:
            raise ConfigError(f"field 'lam' must be positive: {lam}")
        f = random_band_limited(lam, _field(cfg, "seed", kind=int))
        gamma = _field(cfg, "gamma", 1.0)
        alpha = _field(cfg, "alpha", 1.0)
    try:
        params = EvolutionParams(m=_field(cfg, "m", 2.0), gamma=gamma,
                                 damping=_flag(cfg, "damping", True))
        curve = holder_curve(alpha)
    except LabError as exc:
        raise ConfigError(str(exc)) from exc
    xs = _field(cfg, "x", 0.0, many=True)
    ts = _field(cfg, "t", 0.0, many=True)
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

# the fields each command reads, besides "command", "fmt" and "out"; those
# of eval depend on its spectrum kind.  Records echo their configuration, so
# a field the run does not read would claim a setting that had no effect:
# run_config refuses it
_FAMILY_FIELDS = ("family", "alpha", "gamma", "c", "b")
_EVAL_FIELDS = ("spectrum", "m", "damping", "x", "t")
_READS = {
    "atlas": ("alpha", "gamma", "m", "continuity", "gap_tolerance"),
    "sweep": (*_FAMILY_FIELDS, "scales", "tolerance", "n_samples"),
    "lowerbound": (*_FAMILY_FIELDS, "R", "n_nodes", "auto_calibrate",
                   "t_zero"),
    "kernelcheck": ("alpha", "gamma", "lams", "count", "seed", "schur_lams",
                    "schur_tolerance"),
    "eval": {"family": (*_EVAL_FIELDS, *_FAMILY_FIELDS, "R", "n_samples"),
             "band": (*_EVAL_FIELDS, "alpha", "gamma", "lam", "seed")},
}


# ---------------------------------------------------------------------------
# record assembly and serialization
# ---------------------------------------------------------------------------

def run_config(cfg: dict) -> dict:
    """Execute a resolved configuration and return its record."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"field 'command' must be one of {sorted(_COMMANDS)}")
    reads, where = _READS[command], command
    if isinstance(reads, dict):
        spectrum = _spectrum(cfg)
        reads, where = reads[spectrum], f"{command} --spectrum {spectrum}"
    for name in cfg:
        if name not in reads and name not in ("command", "fmt", "out"):
            raise ConfigError(f"field {name!r} is not read by {where}")
    t0 = time.perf_counter()
    payload = _COMMANDS[command](cfg)
    return {
        "command": command,
        "config": cfg,
        "version": __version__,
        "results": payload["results"],
        "verdicts": payload["verdicts"],
        "passed": all(v["passed"] for v in payload["verdicts"]),
        "wall_time_s": time.perf_counter() - t0,
    }


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

    def family(p):   # the fields of _family but R
        p.add_argument("--family", choices=("dilated", "modulated"))
        p.add_argument("--alpha", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--c", type=float)

    p = sub.add_parser("atlas", help="sharp-exponent table")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", help="comma-separated gamma values")
    p.add_argument("--m", type=float)
    p.add_argument("--continuity", action="store_true", default=None)

    p = sub.add_parser("sweep", help="scale sweep with slope fit")
    common(p)
    family(p)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--scales", help="comma-separated scale list")

    p = sub.add_parser("lowerbound", help="witness-interval amplitude scan")
    common(p)
    family(p)
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
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="single-point evaluation dump")
    common(p)
    family(p)
    p.add_argument("--spectrum", choices=("family", "band"))
    p.add_argument("--R", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=float)
    p.add_argument("--x", help="comma-separated positions")
    p.add_argument("--t", help="comma-separated times")
    return parser


# flags whose string value is a comma list; "gamma" is one for atlas only,
# since the other commands parse --gamma as one float
_LIST_FIELDS = {"scales", "lams", "schur_lams", "gamma", "x", "t"}


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
