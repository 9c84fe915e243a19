"""Command-line front end: config parsing, experiment runs, artifact emission.

One JSON config file drives each run (reproducibility over convenience;
no environment variable is read), and a sweep solves its elongations one
at a time in the calling thread.  Every output is written atomically, and
the resolved config is emitted alongside the artifacts so a run can be
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
from typing import Any, Callable, Sequence

import numpy as np

from .density import (
    audit_convexity_midpoint,
    audit_growth,
    audit_uniform_strict_convexity,
    make_density,
)
from .field import Load, save_field
from .geometry import CrossSection, DomainSpec, build_grid
from .ioutil import atomic_write_text
from .solver import SolveOptions, minimality_audit
from .study import (
    SweepConfig,
    SweepResult,
    _fit_series,
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


def _finite(value) -> bool:
    """A JSON number, not a bool, that is finite as a float (a huge int is not)."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _integer(value) -> bool:
    """A JSON integer of any size, or a float with an integral value."""
    return (isinstance(value, float) and value.is_integer()) or type(value) is int


def _numbers(values) -> bool:
    return isinstance(values, list) and all(map(_finite, values))


_FIT_MODELS = ("power", "exponential")
_NUMBER, _INTEGER = "a finite number", "a finite integer"

#: Every config key: ``(section, key) -> (default, check, what the check asks for)``.
#: Defaults that the library defines are read from it.
_KEYS: dict[tuple[str, str], tuple[Any, Callable[[Any], bool], str]] = {
    ("domain", "r"): (1, lambda v: _integer(v) and _finite(v), _INTEGER),
    ("domain", "cross_section"): ("box", lambda v: v in ("box", "ball"), "'box' or 'ball'"),
    ("domain", "ell_list"): (
        [2.0, 3.0, 4.0],
        lambda v: _numbers(v) and v != [] and all(a < b for a, b in zip(v, v[1:])),
        "a nonempty, strictly ascending array of finite numbers",
    ),
    ("domain", "vertical_halfwidths"): (
        [1.0], lambda v: _numbers(v) and v != [], "a nonempty array of finite numbers"
    ),
    ("grid", "target_h"): (0.125, _finite, _NUMBER),
    ("grid", "max_nodes"): (SweepConfig.max_nodes, lambda v: v is None or _integer(v), f"null or {_INTEGER}"),
    ("density", "kind"): ("quadratic", lambda v: isinstance(v, str), "a string"),
    ("density", "p"): (2.0, lambda v: v is None or _finite(v), f"null or {_NUMBER}"),
    ("load", "kind"): ("constant", lambda v: v == "constant", "'constant' (the only load a config can set)"),
    ("load", "value"): (2.0, _finite, _NUMBER),
    ("solver", "grad_tol"): (SolveOptions.grad_tol, lambda v: v is None or _finite(v), f"null or {_NUMBER}"),
    ("solver", "max_iters"): (SolveOptions.max_iters, _integer, _INTEGER),
    ("solver", "warm_start"): (SweepConfig.warm_start, lambda v: isinstance(v, bool), "true or false"),
    ("study", "ell0"): (SweepConfig.ell0, _finite, _NUMBER),
    ("study", "floor"): (None, lambda v: v is None or _finite(v), f"null or {_NUMBER}"),
    ("study", "fit_models"): (
        list(_FIT_MODELS),
        lambda v: isinstance(v, list) and all(m in _FIT_MODELS for m in v),
        f"an array of names from {_FIT_MODELS}",
    ),
    ("output", "directory"): ("out", lambda v: isinstance(v, str) and v != "", "a nonempty string"),
}


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate; the result rebuilds the run exactly."""
    return _resolve(raw)[0]


def _resolve(raw: dict) -> tuple[dict, SweepConfig]:
    """:func:`resolve_config` and its library objects, built once for their range checks."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    rc: dict[str, dict[str, Any]] = {}
    for (section, key), (default, _, _) in _KEYS.items():
        rc.setdefault(section, {})[key] = copy.deepcopy(default)
    unknown = set(raw) - set(rc)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, values in raw.items():
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        extra = set(values) - set(rc[section]) - ({"n"} if section == "domain" else set())
        if extra:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(extra)}")
        rc[section].update(values)
    for (section, key), (_, check, must) in _KEYS.items():
        if not check(rc[section][key]):
            raise ConfigError(f"{section}.{key} must be {must}, got {rc[section][key]!r}")

    dom = rc["domain"]
    dom["ell_list"] = [float(v) for v in dom["ell_list"]]
    dom["vertical_halfwidths"] = [float(v) for v in dom["vertical_halfwidths"]]
    if "n" in dom and dom.pop("n") != dom["r"] + len(dom["vertical_halfwidths"]):
        raise ConfigError("domain.n inconsistent with r + len(vertical_halfwidths)")
    try:
        return rc, _build_objects(rc)
    except ValueError as exc:  # the library's range checks
        raise ConfigError(str(exc)) from exc


def _build_objects(rc: dict) -> SweepConfig:
    """The checked config's values, converted, as library objects."""
    dom, sol, p, max_nodes = rc["domain"], rc["solver"], rc["density"]["p"], rc["grid"]["max_nodes"]
    cs = CrossSection(dom["cross_section"], int(dom["r"]))
    n = cs.r + len(dom["vertical_halfwidths"])
    return SweepConfig(
        cross_section=cs,
        vertical_halfwidths=tuple(dom["vertical_halfwidths"]),
        ells=tuple(dom["ell_list"]),
        target_h=float(rc["grid"]["target_h"]),
        density=make_density(rc["density"]["kind"], None if p is None else float(p), cs.r, n),
        load=Load.constant(rc["load"]["value"]),
        options=SolveOptions(
            grad_tol=None if sol["grad_tol"] is None else float(sol["grad_tol"]),
            max_iters=int(sol["max_iters"]),
        ),
        ell0=float(rc["study"]["ell0"]),
        warm_start=sol["warm_start"],
        max_nodes=None if max_nodes is None else int(max_nodes),
    )


def _load_config(path: str) -> tuple[dict, SweepConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _resolve(raw)


def _emit_json(path: str, payload) -> None:
    """Write ``payload`` as JSON; a dataclass in it is written as its fields."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=dataclasses.asdict) + "\n")


def _dry_run(sweep: SweepConfig) -> int:
    budget = sweep.max_nodes
    for ell in sweep.ells:
        dom = DomainSpec(sweep.cross_section, ell, sweep.vertical_halfwidths)
        grid = build_grid(dom, sweep.target_h, budget)
        print(f"ell={ell:g}: grid {'x'.join(map(str, grid.shape))} nodes={grid.node_count}"
              f" (budget {budget if budget is not None else 'default'})")
    return EXIT_OK


def cmd_solve(rc: dict, sweep: SweepConfig, result: SweepResult, out: str) -> int:
    u, rep, wrep = result.final_field, result.final_report, result.limit_report
    audit = minimality_audit(u, sweep.density, sweep.load, result.limit, grad_tol=sweep.options.grad_tol)
    save_field(u, os.path.join(out, "field"))
    _emit_json(
        os.path.join(out, "solve-report.json"),
        {
            "ell": sweep.ells[-1],
            "p": sweep.density.p,
            "load_conjugate_exponent": sweep.density.p / (sweep.density.p - 1.0),
            "solve": rep,
            "limit": wrep,
        },
    )
    _emit_json(os.path.join(out, "minimality-audit.json"), audit)
    if not (rep.converged and wrep.converged):
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    if audit.violations:
        print(f"minimality audit failed: {audit.violations} violations", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_sweep(rc: dict, sweep: SweepConfig, result: SweepResult, out: str) -> int:
    records = result.records
    atomic_write_text(os.path.join(out, "sweep.csv"), records_to_csv(records))

    good = [r for r in records if r.converged]
    if not result.limit_report.converged or not good:
        print("solver failures dominate the sweep", file=sys.stderr)
        return EXIT_SOLVER

    floor = rc["study"]["floor"]
    if floor is None:
        # default floor: well above the final solve's own stopping threshold
        floor = 100.0 * result.final_report.grad_tol_abs
    floor = float(floor)
    points = {m: _fit_series(good, m, sweep.density.p) for m in _FIT_MODELS}
    fits = {m: fit_rate(points[m], m, floor) for m in _FIT_MODELS if m in rc["study"]["fit_models"]}
    _emit_json(os.path.join(out, "fits.json"), fits)

    for model, pts in points.items():  # ln e against ell, or against ln ell for the power model
        rows = (f"{math.log(x) if model == 'power' else x!r} {math.log(e)!r}" for x, e in pts if e > 0)
        atomic_write_text(os.path.join(out, f"plot-{model}.dat"), "\n".join(rows) + "\n")

    verdicts = convergence_verdicts(records, sweep.density, fits)
    _emit_json(os.path.join(out, "verdicts.json"), verdicts)

    failed = [v for v in verdicts if v.applicable and v.passed is False]
    pending = [v for v in verdicts if v.applicable and v.passed is None]
    for v in pending:
        print(f"warning: verdict {v.name} indeterminate ({v.note})", file=sys.stderr)
    if failed:
        for v in failed:
            print(f"verdict {v.name} failed: {v.measured}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_profile(rc: dict, sweep: SweepConfig, result: SweepResult, out: str) -> int:
    if not result.records[-1].converged:
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    t_values = np.arange(1.0, math.floor(sweep.ells[-1]) + 1.0)
    profile = decay_profile(result.final_field, result.limit, sweep.density.p, t_values)
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
    if args.out:
        _emit_json(os.path.join(args.out, "density-audit.json"), reports)
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
        rc, sweep = _load_config(args.config)
        if args.command == "profile" and sweep.ells[-1] < 1:  # its levels t are 1 .. floor(ell)
            raise ConfigError(f"profile needs domain.ell_list to reach 1, got {rc['domain']['ell_list']}")
        if args.dry_run:
            return _dry_run(sweep)
        out = args.out or rc["output"]["directory"]
        if args.command != "sweep":
            sweep = dataclasses.replace(sweep, ells=sweep.ells[-1:])
        result = run_sweep(sweep)
        _emit_json(os.path.join(out, "resolved-config.json"), rc)
        handler = {"solve": cmd_solve, "sweep": cmd_sweep, "profile": cmd_profile}[args.command]
        return handler(rc, sweep, result, out)
    except ValueError as exc:  # ConfigError, NodeBudgetError and invalid values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
