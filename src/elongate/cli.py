"""Command-line front end: config parsing, experiment runs, artifact emission.

One JSON config file drives each run (reproducibility over convenience;
the only environment variable honored is ``ELONGATE_THREADS`` for the
parallelism degree).  Every output is written atomically, and the
resolved config is emitted alongside the artifacts so a run can be
reproduced exactly.  ``solve`` and ``profile`` run the sweep over the
largest elongation alone, so every command solves through one path.

Exit codes: 0 success, 1 config/usage error, 2 solver failure,
3 verdict or audit failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from .density import (
    audit_convexity_midpoint,
    audit_growth,
    audit_uniform_strict_convexity,
    make_density,
)
from .field import Load, extend_vertical, save_field
from .geometry import CrossSection, DomainSpec, build_grid
from .ioutil import atomic_write_text
from .solver import SolveOptions, default_grad_tol, minimality_audit
from .study import (
    SweepConfig,
    convergence_verdicts,
    decay_profile,
    fit_rate,
    records_to_csv,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERDICT = 3


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_DEFAULTS: dict[str, dict[str, Any]] = {
    "domain": {
        "r": 1,
        "cross_section": "box",
        "ell_list": [2.0, 3.0, 4.0],
        "vertical_halfwidths": [1.0],
    },
    "grid": {"target_h": 0.125, "max_nodes": None},
    "density": {"kind": "quadratic", "p": 2.0},
    "load": {"kind": "constant", "value": 2.0},
    "solver": {"grad_tol": None, "max_iters": 100000, "warm_start": True},
    "study": {"ell0": 1.0, "floor": None, "fit_models": ["power", "exponential"]},
    "output": {"directory": "out"},
}
_FIT_MODELS = ("power", "exponential")


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate; the result rebuilds the run exactly."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    rc = copy.deepcopy(_DEFAULTS)
    for section, values in raw.items():
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        extra = set(values) - set(rc[section]) - ({"n"} if section == "domain" else set())
        if extra:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(extra)}")
        rc[section].update(values)

    dom = rc["domain"]
    ells = _config_list(rc, "domain", "ell_list")
    if not ells or any(b <= a for a, b in zip(ells, ells[1:])):
        raise ConfigError("domain.ell_list must be nonempty and strictly ascending")
    dom["vertical_halfwidths"] = _config_list(rc, "domain", "vertical_halfwidths")
    if "n" in dom and dom["n"] != dom["r"] + len(dom["vertical_halfwidths"]):
        raise ConfigError("domain.n inconsistent with r + len(vertical_halfwidths)")
    dom.pop("n", None)
    if dom["cross_section"] not in ("box", "ball"):
        raise ConfigError("domain.cross_section must be 'box' or 'ball'")
    if rc["load"]["kind"] != "constant":
        raise ConfigError("only constant loads are configurable from files")
    models = rc["study"]["fit_models"]
    if not isinstance(models, list) or any(m not in _FIT_MODELS for m in models):
        raise ConfigError(f"study.fit_models must list names from {_FIT_MODELS}, got {models!r}")
    if not isinstance(rc["solver"]["warm_start"], bool):
        raise ConfigError(f"solver.warm_start must be true or false, got {rc['solver']['warm_start']!r}")
    try:
        if rc["study"]["floor"] is not None and not math.isfinite(_config_float(rc, "study", "floor")):
            raise ConfigError(f"study.floor must be finite, got {rc['study']['floor']}")
        _build_objects(rc)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return rc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_int(rc: dict, section: str, key: str) -> int:
    value = rc[section][key]
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{section}.{key} must be a finite integer, got {value!r}")
    return int(value)


def _config_float(rc: dict, section: str, key: str) -> float:
    value = rc[section][key]
    if not _is_number(value):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _config_list(rc: dict, section: str, key: str) -> list[float]:
    """The key's JSON array of numbers as floats, stored back into ``rc``."""
    values = rc[section][key]
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ConfigError(f"{section}.{key} must be an array of numbers, got {values!r}")
    rc[section][key] = [float(v) for v in values]
    return rc[section][key]


def _build_objects(rc: dict):
    dom, grid_cfg = rc["domain"], rc["grid"]
    cs = CrossSection(dom["cross_section"], _config_int(rc, "domain", "r"))
    n = cs.r + len(dom["vertical_halfwidths"])
    p = None if rc["density"]["p"] is None else _config_float(rc, "density", "p")
    density = make_density(rc["density"]["kind"], p, cs.r, n)
    load = Load.constant(_config_float(rc, "load", "value"))
    sol = rc["solver"]
    opts = SolveOptions(
        grad_tol=None if sol["grad_tol"] is None else _config_float(rc, "solver", "grad_tol"),
        max_iters=_config_int(rc, "solver", "max_iters"),
    )
    sweep = SweepConfig(
        cross_section=cs,
        vertical_halfwidths=tuple(dom["vertical_halfwidths"]),
        ells=tuple(dom["ell_list"]),
        target_h=_config_float(rc, "grid", "target_h"),
        density=density,
        load=load,
        options=opts,
        ell0=_config_float(rc, "study", "ell0"),
        warm_start=sol["warm_start"],
        max_nodes=None if grid_cfg["max_nodes"] is None else _config_int(rc, "grid", "max_nodes"),
    )
    return sweep


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def _emit_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dry_run(sweep: SweepConfig) -> int:
    budget = sweep.max_nodes
    for ell in sweep.ells:
        dom = DomainSpec(sweep.cross_section, ell, sweep.vertical_halfwidths)
        grid = build_grid(dom, sweep.target_h, budget)
        print(f"ell={ell:g}: grid {'x'.join(map(str, grid.shape))} nodes={grid.node_count}"
              f" (budget {budget if budget is not None else 'default'})")
    return EXIT_OK


def cmd_solve(rc: dict, sweep: SweepConfig, out: str) -> int:
    ell = sweep.ells[-1]
    result = run_sweep(dataclasses.replace(sweep, ells=(ell,)))
    grid, u = result.final_grid, result.final_field
    rep, wrep = result.final_report, result.limit_report
    audit = minimality_audit(
        u, grid, sweep.density, sweep.load, extend_vertical(result.limit, grid),
        grad_tol=sweep.options.grad_tol,
    )
    os.makedirs(out, exist_ok=True)
    _emit_json(os.path.join(out, "resolved-config.json"), rc)
    save_field(u, os.path.join(out, "field"))
    _emit_json(
        os.path.join(out, "solve-report.json"),
        {
            "ell": ell,
            "p": sweep.density.p,
            "load_conjugate_exponent": Load.conjugate_exponent(sweep.density.p),
            "solve": rep.to_json(),
            "limit": wrep.to_json(),
        },
    )
    _emit_json(os.path.join(out, "minimality-audit.json"), audit.to_json())
    if not (rep.converged and wrep.converged):
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    if audit.violations:
        print(f"minimality audit failed: {audit.violations} violations", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_sweep(rc: dict, sweep: SweepConfig, out: str) -> int:
    result = run_sweep(sweep)
    records = result.records
    os.makedirs(out, exist_ok=True)
    _emit_json(os.path.join(out, "resolved-config.json"), rc)
    atomic_write_text(os.path.join(out, "sweep.csv"), records_to_csv(records))

    good = [r for r in records if r.converged]
    if not result.limit_report.converged or not good:
        print("solver failures dominate the sweep", file=sys.stderr)
        return EXIT_SOLVER

    p = sweep.density.p
    floor = rc["study"]["floor"]
    if floor is None:
        # default floor: well above the solver-tolerance noise level
        grad_tol = sweep.options.grad_tol or default_grad_tol(sweep.density)
        floor = 100.0 * grad_tol * abs(sweep.load.value) * result.final_grid.cell_volume
    floor = float(floor)
    models = rc["study"]["fit_models"]
    fits = {}
    if "power" in models:
        fits["power"] = fit_rate([(r.ell, r.err_w1p) for r in good], "power", floor)
    if "exponential" in models:
        fits["exponential"] = fit_rate(
            [(r.ell, r.err_grad_p ** (1.0 / p)) for r in good], "exponential", floor
        )
    _emit_json(os.path.join(out, "fits.json"), {k: f.to_json() for k, f in fits.items()})

    lines_exp = "\n".join(
        f"{r.ell!r} {math.log(r.err_grad_p ** (1.0 / p))!r}" for r in good if r.err_grad_p > 0
    )
    lines_pow = "\n".join(
        f"{math.log(r.ell)!r} {math.log(r.err_w1p)!r}" for r in good if r.err_w1p > 0
    )
    atomic_write_text(os.path.join(out, "plot-exponential.dat"), lines_exp + "\n")
    atomic_write_text(os.path.join(out, "plot-power.dat"), lines_pow + "\n")

    verdicts = convergence_verdicts(records, sweep.density, sweep.cross_section.r, fits)
    _emit_json(os.path.join(out, "verdicts.json"), [v.to_json() for v in verdicts])

    failed = [v for v in verdicts if v.applicable and v.passed is False]
    pending = [v for v in verdicts if v.applicable and v.passed is None]
    for v in pending:
        print(f"warning: verdict {v.name} indeterminate ({v.note})", file=sys.stderr)
    if failed:
        for v in failed:
            print(f"verdict {v.name} failed: {v.measured}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_profile(rc: dict, sweep: SweepConfig, out: str) -> int:
    ell = sweep.ells[-1]
    result = run_sweep(dataclasses.replace(sweep, ells=(ell,)))
    if not result.records[-1].converged:
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    t_values = np.arange(1.0, math.floor(ell) + 1.0)
    limit_ext = extend_vertical(result.limit, result.final_grid)
    profile = decay_profile(result.final_field, limit_ext, sweep.density.p, t_values)
    os.makedirs(out, exist_ok=True)
    _emit_json(os.path.join(out, "resolved-config.json"), rc)
    atomic_write_text(os.path.join(out, "profile.csv"), profile.to_csv())
    return EXIT_OK


def cmd_audit_density(args: argparse.Namespace) -> int:
    density = make_density(
        args.kind, args.p, r=args.r, n=args.n, lam=args.lam, Lam=args.Lam, beta=args.beta
    )
    reports = {
        "growth": audit_growth(density, args.samples, args.seed),
        "midpoint_convexity": audit_convexity_midpoint(density, args.samples, args.seed),
    }
    if density.beta > 0:
        reports["uniform_strict_convexity"] = audit_uniform_strict_convexity(
            density, args.samples, args.seed
        )
    payload = {name: rep.to_json() for name, rep in reports.items()}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _emit_json(os.path.join(args.out, "density-audit.json"), payload)
    total = 0
    for name, rep in reports.items():
        print(f"{name}: {rep.violations} violations over {rep.samples} samples "
              f"(worst margin {rep.worst_margin:.3e})")
        total += rep.violations
    return EXIT_VERDICT if total else EXIT_OK


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="elongate", description=__doc__)
    top.add_argument("--dry-run", action="store_true", help="validate config and print node budget")
    sub = top.add_subparsers(dest="command", required=True)

    for name in ("solve", "sweep", "profile"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None, help="output directory (default: config output.directory)")

    ad = sub.add_parser("audit-density")
    ad.add_argument("--kind", required=True)
    ad.add_argument("--p", type=float, default=None)
    ad.add_argument("--r", type=int, default=1)
    ad.add_argument("--n", type=int, default=2)
    ad.add_argument("--samples", type=int, default=100000)
    ad.add_argument("--seed", type=int, default=0)
    ad.add_argument("--lam", type=float, default=None, help="override the certified lower constant")
    ad.add_argument("--Lam", type=float, default=None, help="override the certified upper constant")
    ad.add_argument("--beta", type=float, default=None, help="override the convexity constant")
    ad.add_argument("--out", default=None)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "audit-density":
            return cmd_audit_density(args)
        rc = _load_config(args.config)
        sweep = _build_objects(rc)
        if args.dry_run:
            return _dry_run(sweep)
        out = args.out or rc["output"]["directory"]
        handler = {"solve": cmd_solve, "sweep": cmd_sweep, "profile": cmd_profile}[args.command]
        return handler(rc, sweep, out)
    except ValueError as exc:  # ConfigError, NodeBudgetError and invalid values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
