"""Elongation sweeps, decay profiles, rate fits, and convergence verdicts.

A sweep solves the full problem at each elongation (warm-started from
the previous solution embedded into the larger grid), solves the limit
problem once, and measures the error norms on a fixed core subdomain.
All comparisons are discrete-vs-discrete on the shared vertical axes,
so measured decays are not polluted by discretization error and keep
falling until they meet the solver-tolerance floor.
"""

from __future__ import annotations

import io
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .density import EnergyDensity
from .field import (
    Load,
    ScalarField,
    cell_gradients,
    cell_means,
    embed_field,
    extend_vertical,
    lp_norm_p,
)
from .geometry import CrossSection, DomainSpec, Grid, build_grid, build_vertical_grid, region_cells
from .solver import SolveOptions, SolveReport, minimize, solve_limit

SWEEP_CSV_HEADER = (
    "ell,ell0,h_horiz,h_vert,nodes,iters,converged,J_ell,"
    "total_grad_energy,err_grad_p,err_w1p,hgrad_p,runtime_ms"
)


def thread_budget() -> int:
    """Parallelism degree: ELONGATE_THREADS, defaulting to the machine's.

    A value that is not an integer raises :class:`ValueError`.
    """
    raw = os.environ.get("ELONGATE_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"ELONGATE_THREADS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; validated on construction."""

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
        object.__setattr__(
            self, "vertical_halfwidths", tuple(float(w) for w in self.vertical_halfwidths)
        )
        if not self.ells:
            raise ValueError("need at least one elongation")
        # range checks are written so that NaN fails them
        if not all(0 < e < math.inf for e in self.ells):
            raise ValueError(f"elongations must be positive and finite, got {self.ells}")
        if not all(0 < w < math.inf for w in self.vertical_halfwidths):
            raise ValueError(
                f"vertical halfwidths must be positive and finite, got {self.vertical_halfwidths}"
            )
        if not 0 < self.target_h < math.inf:
            raise ValueError(f"target_h must be positive and finite, got {self.target_h}")
        if any(b <= a for a, b in zip(self.ells, self.ells[1:])):
            raise ValueError("elongations must be strictly ascending")
        if not 0 < self.ell0 <= self.ells[0]:
            raise ValueError("ell0 must lie in (0, min(ells)]")
        if self.max_nodes is not None and not 0 < self.max_nodes < math.inf:
            raise ValueError(f"max_nodes must be positive and finite, got {self.max_nodes}")


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

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SweepResult:
    records: list[SweepRecord]
    limit: ScalarField
    limit_report: SolveReport
    final_field: ScalarField
    final_grid: Grid
    final_report: SolveReport


def _measure(grid: Grid, u: ScalarField, u_ext: ScalarField, p: float, ell0: float) -> dict:
    gu = cell_gradients(u)
    gdiff = gu - cell_gradients(u_ext)
    core = region_cells(grid, "core", ell0)
    err_grad_p = lp_norm_p(grid, gdiff, p, core)
    err_val_p = lp_norm_p(grid, cell_means(u) - cell_means(u_ext), p, core)
    return {
        "total_grad_energy": lp_norm_p(grid, gu, p),
        "err_grad_p": err_grad_p,
        "err_w1p": err_grad_p + err_val_p,
        "hgrad_p": lp_norm_p(grid, gu[..., : grid.r], p, core),
    }


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve the family across the elongation list and measure every record.

    Warm starting embeds the previous solution (padded by zeros) into
    the next grid and forces a sequential sweep; with warm starting
    disabled the elongations are solved concurrently, bounded by
    :func:`thread_budget`.  Non-converged solves, including a failed
    limit solve, mark their record; downstream fits skip them.  Only
    the solution at the largest elongation is kept
    (``final_field``/``final_grid``/``final_report``).  Deterministic
    given the config.  ``ELONGATE_THREADS`` is read before any solve.
    """
    threads = thread_budget()
    vgrid = build_vertical_grid(config.vertical_halfwidths, config.target_h, config.max_nodes)
    w, wrep = solve_limit(vgrid, config.density, config.load, config.options)
    p = config.density.p

    def solve_one(ell: float, warm: ScalarField | None):
        t0 = time.perf_counter()
        dom = DomainSpec(config.cross_section, ell, config.vertical_halfwidths)
        grid = build_grid(dom, config.target_h, config.max_nodes)
        seed = embed_field(warm, grid) if warm is not None else None
        u, rep = minimize(grid, config.density, config.load, config.options, warm_start=seed)
        u_ext = extend_vertical(w, grid)
        meas = _measure(grid, u, u_ext, p, config.ell0)
        record = SweepRecord(
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
        )
        return record, u, grid, rep

    records: list[SweepRecord] = []
    u = grid = rep = None
    if config.warm_start:
        for ell in config.ells:
            record, u, grid, rep = solve_one(ell, u)
            records.append(record)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for record, u, grid, rep in pool.map(lambda e: solve_one(e, None), config.ells):
                records.append(record)
    return SweepResult(
        records=records, limit=w, limit_report=wrep, final_field=u, final_grid=grid, final_report=rep
    )


@dataclass
class Profile:
    """Interior decay profile: per level ``t``, the horizontal-gradient
    energy plus the vertical deviation energy over the core at ``t``."""

    t: np.ndarray
    g: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,g\n")
        for tv, gv in zip(self.t, self.g):
            buf.write(f"{float(tv)!r},{float(gv)!r}\n")
        return buf.getvalue()


def decay_profile(u: ScalarField, limit_ext: ScalarField, p: float, t_values: Sequence[float]) -> Profile:
    """Measure the decay profile over ascending core levels.

    ``g(t)`` integrates nonnegative densities over nested regions, so it
    is nondecreasing in ``t``; successive ratios expose the geometric
    contraction behind exponential decay.
    """
    t_values = np.asarray(sorted(float(t) for t in t_values))
    if t_values.size == 0 or t_values[0] <= 0:
        raise ValueError("t values must be positive")
    grid = u.grid
    gu = cell_gradients(u)
    gl = cell_gradients(limit_ext)
    g = np.empty(t_values.shape)
    for i, t in enumerate(t_values):
        core = region_cells(grid, "core", t)
        g[i] = lp_norm_p(grid, gu[..., : grid.r], p, core) + lp_norm_p(
            grid, gu[..., grid.r:] - gl[..., grid.r:], p, core
        )
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

    def to_json(self) -> dict:
        return asdict(self)


def fit_rate(points: Sequence[tuple[float, float]], model: str, floor: float = 0.0) -> RateFit:
    """Least squares in log coordinates over the points above the floor."""
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown rate model {model!r}")
    pts = [(float(l), float(e)) for l, e in points]
    usable = [(l, e) for l, e in pts if np.isfinite(e) and e > max(floor, 0.0)]
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

    def to_json(self) -> dict:
        return asdict(self)


def power_rate_target(density: EnergyDensity, r: int) -> float:
    """Predicted power-law exponent bound: ``r - k p / (p - k)``."""
    return r - density.k * density.p / (density.p - density.k)


def convergence_verdicts(
    records: Sequence[SweepRecord],
    density: EnergyDensity,
    r: int,
    fits: dict[str, RateFit],
) -> list[Verdict]:
    """Empirical pass/fail verdicts over a sweep.

    Rate verdicts apply according to the density's ``(k, beta)``: the
    power-law bound needs ``0 < k < p`` with ``r < k p / (p - k)``, the
    exponential rate needs ``k = 0`` with a claimed ``beta > 0``; the
    others are marked skipped.  When every fitted point sits at or below
    the fit floor the decay is treated as passed at the tolerance floor.
    """
    good = [rec for rec in records if rec.converged]
    verdicts: list[Verdict] = []
    p = density.p

    scal = [rec for rec in good if rec.ell >= _SCALING_ELL_MIN]
    if len(scal) < 3:
        scal = good
    if len(scal) >= 3:
        fit = fit_rate([(rec.ell, rec.total_grad_energy) for rec in scal], "power")
        ratios = np.array([rec.total_grad_energy / rec.ell**r for rec in scal])
        if fit.ok and ratios.min() > 0:
            ratio_spread = float(ratios.max() / ratios.min())
            ok = abs(fit.exponent - r) <= _SCALING_SLOPE_TOL and ratio_spread <= _SCALING_RATIO_BOUND
            measured = {"slope": fit.exponent, "r2": fit.r2, "ratio_spread": ratio_spread}
            verdicts.append(Verdict("coarse_energy_scaling", True, bool(ok), measured))
        else:
            verdicts.append(
                Verdict(
                    "coarse_energy_scaling",
                    True,
                    True,
                    {"max_total_grad_energy": float(max(rec.total_grad_energy for rec in scal))},
                    "gradient energy at zero; scaling holds vacuously",
                )
            )
    else:
        verdicts.append(
            Verdict("coarse_energy_scaling", True, None, {}, "fewer than three converged records")
        )

    if len(good) >= 3:
        errs = np.array([rec.err_grad_p for rec in good])
        bound = errs[0] * (1.0 + _INTERIOR_SLACK) + _MONOTONE_SLACK
        verdicts.append(
            Verdict(
                "interior_error_bounded",
                True,
                bool(errs.max() <= bound),
                {"first": float(errs[0]), "max": float(errs.max())},
                "core-region error stays bounded while the domain grows",
            )
        )
        hg = np.array([rec.hgrad_p for rec in good])
        monotone = bool(np.all(np.diff(hg) <= _MONOTONE_SLACK))
        final_ok = hg[-1] <= _HGRAD_FINAL_MAX
        verdicts.append(
            Verdict(
                "horizontal_gradient_vanishes",
                True,
                bool(monotone and final_ok),
                {"final": float(hg[-1]), "monotone": monotone},
            )
        )
    else:
        note = "fewer than three converged records"
        verdicts.append(Verdict("interior_error_bounded", True, None, {}, note))
        verdicts.append(Verdict("horizontal_gradient_vanishes", True, None, {}, note))

    power_applies = 0 < density.k < p and r < density.k * p / (p - density.k)
    if power_applies:
        fit = fits.get("power")
        target = power_rate_target(density, r)
        if fit is None:
            verdicts.append(Verdict("power_rate", True, None, {}, "no power fit supplied"))
        elif fit.ok:
            ok = fit.n_points >= 3 and fit.r2 >= _POWER_R2_MIN and fit.exponent <= target + _POWER_SLACK
            measured = {"exponent": fit.exponent, "target": target, "r2": fit.r2, "n_points": fit.n_points}
            verdicts.append(Verdict("power_rate", True, bool(ok), measured))
        else:
            at_floor = good and max(rec.err_w1p for rec in good) <= fit.floor
            if at_floor:
                verdicts.append(
                    Verdict("power_rate", True, True, {"target": target}, "all points at the fit floor")
                )
            else:
                verdicts.append(
                    Verdict("power_rate", True, None, {"n_points": fit.n_points}, "insufficient data")
                )
    else:
        verdicts.append(Verdict("power_rate", False, None, {}, "needs 0 < k < p and r < k p/(p-k)"))

    exp_applies = density.k == 0 and density.beta > 0
    if exp_applies:
        fit = fits.get("exponential")
        if fit is None:
            verdicts.append(Verdict("exponential_rate", True, None, {}, "no exponential fit supplied"))
        elif fit.ok:
            ok = fit.exponent > 0 and fit.r2 >= _EXP_R2_MIN
            measured = {"rate": fit.exponent, "r2": fit.r2, "n_points": fit.n_points}
            verdicts.append(Verdict("exponential_rate", True, bool(ok), measured))
        else:
            at_floor = good and max(rec.err_grad_p ** (1.0 / p) for rec in good) <= fit.floor
            if at_floor:
                verdicts.append(
                    Verdict("exponential_rate", True, True, {}, "all points at the fit floor")
                )
            else:
                verdicts.append(
                    Verdict("exponential_rate", True, None, {"n_points": fit.n_points}, "insufficient data")
                )
    else:
        verdicts.append(Verdict("exponential_rate", False, None, {}, "needs k = 0 and beta > 0"))

    return verdicts


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records in the documented CSV schema (repr round-trip)."""
    buf = io.StringIO()
    buf.write(SWEEP_CSV_HEADER + "\n")
    for rec in records:
        buf.write(
            f"{rec.ell!r},{rec.ell0!r},{rec.h_horiz!r},{rec.h_vert!r},{rec.nodes},"
            f"{rec.iters},{int(rec.converged)},{rec.J_ell!r},{rec.total_grad_energy!r},"
            f"{rec.err_grad_p!r},{rec.err_w1p!r},{rec.hgrad_p!r},{rec.runtime_ms!r}\n"
        )
    return buf.getvalue()
