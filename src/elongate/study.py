"""Elongation sweeps, decay profiles, rate fits, and convergence verdicts.

A sweep solves the limit problem once and the full problem at each
elongation, one elongation at a time in the calling thread, each solve
cold and independent of the others, and measures the error norms on a
fixed core subdomain.
All comparisons are discrete-vs-discrete on the shared vertical axes,
so measured decays are not polluted by discretization error and keep
falling until they meet the solver-tolerance floor.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .density import EnergyDensity
from .field import (
    Load,
    ScalarField,
    _along,
    _cell_gradients_arr,
    _cell_means_arr,
    _norm_p,
    _vertical_on,
)
from .geometry import CrossSection, DomainSpec, Grid, _check_spacing, build_grid, build_vertical_grid
from .solver import SolveOptions, SolveReport, minimize, solve_limit


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; validated on construction.

    ``warm_start`` selects nothing: every elongation is solved cold.  It is
    accepted so that existing configs and callers stay valid.
    """

    cross_section: CrossSection
    vertical_halfwidths: tuple[float, ...]
    ells: tuple[float, ...]
    target_h: float
    density: EnergyDensity
    load: Load
    options: SolveOptions = field(default_factory=SolveOptions)
    ell0: float = 1.0
    warm_start: bool = True
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ells", tuple(float(e) for e in self.ells))
        if not self.ells:
            raise ValueError("need at least one elongation")
        # the domain and grid constructors own every other range
        domains = [DomainSpec(self.cross_section, ell, self.vertical_halfwidths) for ell in self.ells]
        object.__setattr__(self, "vertical_halfwidths", domains[0].vertical_halfwidths)
        _check_spacing(self.target_h, self.max_nodes)
        if any(b <= a for a, b in zip(self.ells, self.ells[1:])):
            raise ValueError("elongations must be strictly ascending")
        if not 0 < self.ell0 <= self.ells[0]:
            raise ValueError("ell0 must lie in (0, min(ells)]")


@dataclass
class SweepRecord:
    """Per-elongation measurements, mirroring the sweep CSV schema."""

    ell: float
    ell0: float
    h_horiz: float
    h_vert: float
    nodes: int
    iters: int
    converged: bool
    J_ell: float
    total_grad_energy: float
    err_grad_p: float
    err_w1p: float
    hgrad_p: float
    runtime_ms: float

    # the one report with its own encoder: bench/child.py reads records
    # through it
    def to_json(self) -> dict:
        return asdict(self)


#: The sweep CSV's columns: the record's fields, in order.
SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


@dataclass
class SweepResult:
    records: list[SweepRecord]
    limit: ScalarField
    limit_report: SolveReport
    final_field: ScalarField
    final_report: SolveReport


def _core_slab(grid: Grid, t: float, axes: tuple[int, ...] = ()) -> tuple[tuple[slice, ...], np.ndarray]:
    """The core at level ``t`` (:func:`~elongate.geometry.region_cells`) on its
    bounding slab of nodes, cut at the mid-plane of each of ``axes``.

    Returns the slab's node slices and, per slab cell, the count of its
    mirror images about those mid-planes in the core: so weighted, a
    quantity equal on mirror-image cells sums to its sum over the core.
    """
    inside = grid.cell_gauge() < t
    box = []
    for a, cells in enumerate(grid.cell_shape):
        lo, hi = 0, cells
        if a < grid.r:  # the cells sharing this coordinate with a core cell
            hits = np.flatnonzero(inside.any(tuple(set(range(grid.r)) - {a})))
            lo, hi = (hits[0], hits[-1] + 1) if len(hits) else (cells // 2, cells // 2)
        if a in axes:  # with the mirror images of its cells
            lo = min(lo, cells - hi)
            hi = cells - lo
        box.append(slice(lo, hi))
    inside = np.broadcast_to(inside.reshape(inside.shape + (1,) * (grid.n - grid.r)), grid.cell_shape)
    weights = (inside[tuple(box)] & grid.cell_mask[tuple(box)]).astype(float)
    for a in axes:  # fold the lower half onto the upper
        mid = weights.shape[a] // 2
        weights = weights[_along(a, slice(mid, None))] + np.flip(weights[_along(a, slice(0, mid))], a)
    return tuple(slice(s.stop - m, s.stop + 1) for s, m in zip(box, weights.shape)), weights


def _measure(grid: Grid, u: ScalarField, rep: SolveReport, w: ScalarField, wrep: SolveReport, p: float,
             ell0: float) -> dict:
    """The norm columns of a record from the solve report and the core slab.

    The gradient energy is the report's ``grad_norm_p``.  ``u`` and the
    limit ``w`` are mirror images about the mid-planes of their
    ``mirror_axes``, so the core slab is cut on the mid-planes of both;
    ``w`` is extended over that slab alone.
    """
    axes, r = tuple(rep.mirror_axes), grid.r
    nodes, weights = _core_slab(grid, ell0, tuple(a for a in axes if a < r or a - r in wrep.mirror_axes))
    vals = u.values[nodes]
    ext = _vertical_on(w, grid, nodes)
    gu = _cell_gradients_arr(grid, vals)
    err_grad_p = _norm_p(grid, gu - _cell_gradients_arr(grid, ext), p, weights)
    err_val_p = _norm_p(grid, _cell_means_arr(vals) - _cell_means_arr(ext), p, weights)
    return {
        "total_grad_energy": rep.grad_norm_p,
        "err_grad_p": err_grad_p,
        "err_w1p": err_grad_p + err_val_p,
        "hgrad_p": _norm_p(grid, gu[..., :r], p, weights),
    }


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve the family across the elongation list and measure every record.

    The elongations are solved one after another in the calling thread,
    each cold and independent of the others.
    Non-converged solves, including a failed limit solve, mark their
    record; downstream fits skip them.  Only the solution at the largest
    elongation is kept (``final_field``/``final_report``).
    Deterministic given the config.
    """
    vgrid = build_vertical_grid(config.vertical_halfwidths, config.target_h, config.max_nodes)
    w, wrep = solve_limit(vgrid, config.density, config.load, config.options)
    p = config.density.p

    records: list[SweepRecord] = []
    for ell in config.ells:
        t0 = time.perf_counter()
        dom = DomainSpec(config.cross_section, ell, config.vertical_halfwidths)
        grid = build_grid(dom, config.target_h, config.max_nodes)
        u, rep = minimize(grid, config.density, config.load, config.options)
        meas = _measure(grid, u, rep, w, wrep, p, config.ell0)
        records.append(SweepRecord(
            ell=ell,
            ell0=config.ell0,
            h_horiz=grid.h[0],
            h_vert=grid.h[grid.r],
            nodes=grid.node_count,
            iters=rep.iterations,
            converged=rep.converged and wrep.converged,
            J_ell=rep.energy,
            runtime_ms=1e3 * (time.perf_counter() - t0),
            **meas,
        ))
    return SweepResult(records=records, limit=w, limit_report=wrep, final_field=u, final_report=rep)


@dataclass
class Profile:
    """Interior decay profile: per level ``t``, the horizontal-gradient
    energy plus the vertical deviation energy over the core at ``t``."""

    t: np.ndarray
    g: np.ndarray

    def to_csv(self) -> str:
        rows = (f"{float(tv)!r},{float(gv)!r}" for tv, gv in zip(self.t, self.g))
        return "".join(f"{row}\n" for row in ["t,g", *rows])


def decay_profile(u: ScalarField, w: ScalarField, p: float, t_values: Sequence[float]) -> Profile:
    """Measure the decay profile against the vertical limit ``w`` over ascending core levels.

    ``g(t)`` integrates nonnegative densities over nested regions, so it
    is nondecreasing in ``t``; successive ratios expose the geometric
    contraction behind exponential decay.  Only the nodes of the core's
    bounding slab at the largest ``t`` are read, and ``w`` is extended
    over that slab alone.
    """
    t_values = np.asarray(sorted(float(t) for t in t_values))
    if bad := [t for t in t_values.tolist() if not math.isfinite(t)]:
        raise ValueError(f"t values must be finite, got {bad[0]!r}")
    if t_values.size == 0:
        raise ValueError("decay_profile needs at least one level t")
    if t_values[0] <= 0:
        raise ValueError("t values must be positive")
    grid, r = u.grid, u.grid.r
    outer, _ = _core_slab(grid, t_values[-1])
    gu = _cell_gradients_arr(grid, u.values[outer])
    gv = gu[..., r:] - _cell_gradients_arr(grid, _vertical_on(w, grid, outer))[..., r:]
    g = np.empty(t_values.shape)
    for i, t in enumerate(t_values):
        nodes, weights = _core_slab(grid, t)
        crop = tuple(slice(n.start - o.start, n.stop - 1 - o.start) for n, o in zip(nodes, outer))
        g[i] = _norm_p(grid, gu[crop][..., :r], p, weights) + _norm_p(grid, gv[crop], p, weights)
    return Profile(t_values, g)


@dataclass
class RateFit:
    """Fitted decay model.

    Power model ``e ~ C * ell**exponent``; exponential model
    ``e ~ C * exp(-exponent * ell)`` (``exponent`` is the decay rate,
    positive for decaying data).  ``ok`` is False when fewer than three
    points survive the floor.
    """

    model: str
    C: float
    exponent: float
    r2: float
    n_points: int
    floor: float
    ok: bool


def _fit_series(records: Sequence[SweepRecord], model: str, p: float) -> list[tuple[float, float]]:
    """The ``(ell, error)`` points a rate model fits: ``err_w1p`` for the power
    model, ``err_grad_p ** (1/p)`` for the exponential one."""
    if model == "power":
        return [(rec.ell, rec.err_w1p) for rec in records]
    return [(rec.ell, rec.err_grad_p ** (1.0 / p)) for rec in records]


def fit_rate(points: Sequence[tuple[float, float]], model: str, floor: float = 0.0) -> RateFit:
    """Least squares in log coordinates over the points above the floor."""
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown rate model {model!r}")
    if not 0 <= floor < math.inf:
        raise ValueError(f"fit floor must be non-negative and finite, got {floor!r}")
    pts = [(float(l), float(e)) for l, e in points]
    if bad := [l for l, _ in pts if not math.isfinite(l)]:
        raise ValueError(f"elongations must be finite, got {bad[0]!r}")
    usable = [(l, e) for l, e in pts if np.isfinite(e) and e > floor]
    if len(usable) < 3:
        return RateFit(model, float("nan"), float("nan"), float("nan"), len(usable), floor, False)
    ells = np.array([l for l, _ in usable])
    y = np.log([e for _, e in usable])
    x = np.log(ells) if model == "power" else ells
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - float((resid**2).sum()) / sst
    r2 = min(1.0, max(0.0, r2))
    exponent = float(slope) if model == "power" else -float(slope)
    return RateFit(model, float(np.exp(intercept)), exponent, r2, len(usable), floor, True)


# Verdict thresholds, set to the desk-scale targets.  The scaling slope
# tolerance allows for the lateral boundary-layer energy offset, which
# bends finite-range log-log slopes of ``a*ell - b`` data above the
# asymptotic exponent.
_SCALING_ELL_MIN = 4.0
_SCALING_SLOPE_TOL = 0.25
_SCALING_RATIO_BOUND = 1.5
_INTERIOR_SLACK = 0.01
_HGRAD_FINAL_MAX = 1e-6
_MONOTONE_SLACK = 1e-12
_POWER_SLACK = 0.5
_POWER_R2_MIN = 0.9
_EXP_R2_MIN = 0.98


@dataclass
class Verdict:
    """One empirical check: ``passed`` is None when indeterminate
    (insufficient data) or skipped (not applicable)."""

    name: str
    applicable: bool
    passed: bool | None
    measured: dict
    note: str = ""


def power_rate_target(density: EnergyDensity) -> float:
    """Predicted power-law exponent bound: ``r - k p / (p - k)``, ``r`` the density's."""
    return density.r - density.k * density.p / (density.p - density.k)


def convergence_verdicts(records: Sequence[SweepRecord], density: EnergyDensity,
                         fits: dict[str, RateFit]) -> list[Verdict]:
    """Empirical pass/fail verdicts over a sweep.

    ``r`` is the density's horizontal dimension.  Rate verdicts apply
    according to the density's ``(k, beta)``: the power-law bound needs
    ``0 < k < p`` with ``r < k p / (p - k)``, the exponential rate needs
    ``k = 0`` with a claimed ``beta > 0``; the others are marked skipped.
    When every fitted point sits at or below the fit floor the decay is
    treated as passed at the tolerance floor.
    """
    good = [rec for rec in records if rec.converged]
    p, k, r = density.p, density.k, density.r
    few = "fewer than three converged records"

    scal = [rec for rec in good if rec.ell >= _SCALING_ELL_MIN]
    scal = scal if len(scal) >= 3 else good
    if len(scal) < 3:
        verdicts = [Verdict("coarse_energy_scaling", True, None, {}, few)]
    else:
        fit = fit_rate([(rec.ell, rec.total_grad_energy) for rec in scal], "power")
        ratios = np.array([rec.total_grad_energy / rec.ell**r for rec in scal])
        if fit.ok and ratios.min() > 0:
            spread = float(ratios.max() / ratios.min())
            ok = abs(fit.exponent - r) <= _SCALING_SLOPE_TOL and spread <= _SCALING_RATIO_BOUND
            measured = {"slope": fit.exponent, "r2": fit.r2, "ratio_spread": spread}
            verdicts = [Verdict("coarse_energy_scaling", True, bool(ok), measured)]
        else:
            measured = {"max_total_grad_energy": float(max(rec.total_grad_energy for rec in scal))}
            note = "gradient energy at zero; scaling holds vacuously"
            verdicts = [Verdict("coarse_energy_scaling", True, True, measured, note)]

    if len(good) < 3:
        verdicts += [Verdict(name, True, None, {}, few) for name in ("interior_error_bounded",
                                                                     "horizontal_gradient_vanishes")]
    else:
        errs = np.array([rec.err_grad_p for rec in good])
        bounded = errs.max() <= errs[0] * (1.0 + _INTERIOR_SLACK) + _MONOTONE_SLACK
        measured = {"first": float(errs[0]), "max": float(errs.max())}
        note = "core-region error stays bounded while the domain grows"
        hg = np.array([rec.hgrad_p for rec in good])
        monotone = bool(np.all(np.diff(hg) <= _MONOTONE_SLACK))
        verdicts += [
            Verdict("interior_error_bounded", True, bool(bounded), measured, note),
            Verdict("horizontal_gradient_vanishes", True, bool(monotone and hg[-1] <= _HGRAD_FINAL_MAX),
                    {"final": float(hg[-1]), "monotone": monotone}),
        ]

    if 0 < k < p and r < k * p / (p - k):
        target = power_rate_target(density)
        verdicts.append(_rate_verdict(
            "power", fits, _fit_series(good, "power", p), {"target": target},
            lambda f: (f.n_points >= 3 and f.r2 >= _POWER_R2_MIN and f.exponent <= target + _POWER_SLACK,
                       {"exponent": f.exponent, "target": target, "r2": f.r2, "n_points": f.n_points}),
        ))
    else:
        verdicts.append(Verdict("power_rate", False, None, {}, "needs 0 < k < p and r < k p/(p-k)"))
    if k == 0 and density.beta > 0:
        verdicts.append(_rate_verdict(
            "exponential", fits, _fit_series(good, "exponential", p), {},
            lambda f: (f.exponent > 0 and f.r2 >= _EXP_R2_MIN,
                       {"rate": f.exponent, "r2": f.r2, "n_points": f.n_points}),
        ))
    else:
        verdicts.append(Verdict("exponential_rate", False, None, {}, "needs k = 0 and beta > 0"))
    return verdicts


def _rate_verdict(model: str, fits: dict[str, RateFit], points, at_floor: dict, judge) -> Verdict:
    """An applicable rate verdict on the model's fit to ``points``: ``judge(fit)``
    gives the outcome and measurements of an ok fit; with too few points above
    the floor it passes when every fitted error is at or below the floor."""
    name, fit = f"{model}_rate", fits.get(model)
    if fit is None:
        return Verdict(name, True, None, {}, f"no {model} fit supplied")
    if fit.ok:
        ok, measured = judge(fit)
        return Verdict(name, True, bool(ok), measured)
    if points and all(e <= fit.floor for _, e in points):  # a NaN error is not at the floor
        return Verdict(name, True, True, at_floor, "all points at the fit floor")
    return Verdict(name, True, None, {"n_points": fit.n_points}, "insufficient data")


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records in the documented CSV schema (repr round-trip,
    ``converged`` as 0/1)."""
    rows = (",".join(repr(int(v) if isinstance(v, bool) else v) for v in astuple(rec)) for rec in records)
    return "".join(f"{row}\n" for row in [SWEEP_CSV_HEADER, *rows])
