import dataclasses
import math
import threading

import numpy as np
import pytest

from elongate import (
    CrossSection,
    DomainSpec,
    Load,
    PDirichletDensity,
    ScalarField,
    SolveOptions,
    SweepConfig,
    SweepRecord,
    assemble_energy,
    build_grid,
    build_vertical_grid,
    cell_gradients,
    cell_means,
    convergence_verdicts,
    decay_profile,
    extend_vertical,
    fit_rate,
    lp_norm_p,
    make_density,
    oracle_1d,
    power_rate_target,
    records_to_csv,
    region_cells,
    run_sweep,
)
from elongate.study import SWEEP_CSV_HEADER

CS1 = CrossSection("box", 1)


def _sweep_config(**overrides):
    base = dict(
        cross_section=CS1,
        vertical_halfwidths=(1.0,),
        ells=(2.0, 3.0, 4.0),
        target_h=1 / 8,
        density=make_density("quadratic", r=1, n=2),
        load=Load.constant(2.0),
        options=SolveOptions(grad_tol=1e-10),
        ell0=1.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_fit_rate_exact_exponential():
    pts = [(ell, math.exp(-0.5 * ell)) for ell in range(1, 9)]
    fit = fit_rate(pts, "exponential")
    assert fit.ok
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_exact_power():
    pts = [(ell, ell**-3.0) for ell in range(1, 9)]
    fit = fit_rate(pts, "power")
    assert fit.ok
    assert fit.exponent == pytest.approx(-3.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.C == pytest.approx(1.0, rel=1e-10)


def test_fit_rate_floor_excludes_points():
    pts = [(1.0, 1.0), (2.0, 0.1), (3.0, 0.01), (4.0, 5e-9)]
    fit = fit_rate(pts, "power", floor=1e-8)
    assert fit.n_points == 3


def test_fit_rate_insufficient_data():
    fit = fit_rate([(1.0, 1.0), (2.0, 0.5)], "exponential")
    assert not fit.ok
    assert fit.n_points == 2
    assert math.isnan(fit.exponent)


def test_fit_rate_unknown_model():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0)], "spline")


@pytest.mark.parametrize("model", ["power", "exponential"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rate_rejects_non_finite_elongations(model, bad):
    # named, not passed to the least-squares solve; a non-finite error is a
    # point below the floor, which the fit skips
    pts = [(1.0, 1.0), (2.0, 0.5), (bad, 0.25), (4.0, 0.125)]
    with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
        fit_rate(pts, model)
    assert fit_rate([(1.0, 1.0), (2.0, 0.5), (3.0, bad), (4.0, 0.125)], model).n_points == 3


def test_power_rate_target_p4():
    assert power_rate_target(make_density("p-dirichlet", 4.0, r=1, n=2)) == pytest.approx(-3.0)


def test_run_sweep_quadratic_errors_decrease():
    res = run_sweep(_sweep_config())
    assert len(res.records) == 3
    assert all(r.converged for r in res.records)
    errs = [r.err_grad_p for r in res.records]
    assert errs[0] > errs[1] > errs[2]
    assert all(r.err_w1p >= r.err_grad_p >= 0 for r in res.records)
    assert [r.ell for r in res.records] == [2.0, 3.0, 4.0]


def test_run_sweep_zero_load_all_errors_zero():
    res = run_sweep(_sweep_config(load=Load.constant(0.0)))
    for r in res.records:
        assert r.err_grad_p == 0.0
        assert r.err_w1p == 0.0
        assert r.total_grad_energy == 0.0


def test_run_sweep_full_domain_region():
    res = run_sweep(_sweep_config(ells=(2.0,), ell0=2.0))
    rec = res.records[0]
    # measuring region includes the lateral boundary layers
    assert rec.hgrad_p > 1e-4


@pytest.mark.parametrize("warm_start", [True, False])
def test_run_sweep_final_report_is_the_last_solve(warm_start):
    res = run_sweep(_sweep_config(warm_start=warm_start))
    last = res.records[-1]
    assert res.final_report.iterations == last.iters
    assert res.final_report.energy == last.J_ell
    assert res.final_field.grid.node_count == last.nodes


def test_run_sweep_deterministic():
    r1 = run_sweep(_sweep_config()).records
    r2 = run_sweep(_sweep_config()).records
    for a, b in zip(r1, r2):
        assert a.iters == b.iters
        assert abs(a.err_grad_p - b.err_grad_p) <= 1e-12 * max(1.0, a.err_grad_p)
        assert abs(a.J_ell - b.J_ell) <= 1e-12 * max(1.0, abs(a.J_ell))


def _without_runtime(records):
    return [dataclasses.replace(rec, runtime_ms=0.0) for rec in records]


def test_run_sweep_parallel_matches_sequential(monkeypatch):
    # the sweep reads no environment variable: ELONGATE_THREADS, which once
    # set a thread pool's size, changes no record down to the last bit
    monkeypatch.delenv("ELONGATE_THREADS", raising=False)
    ref = _without_runtime(run_sweep(_sweep_config(ells=(2.0, 3.0))).records)
    for value in ("2", "junk"):
        monkeypatch.setenv("ELONGATE_THREADS", value)
        assert _without_runtime(run_sweep(_sweep_config(ells=(2.0, 3.0))).records) == ref


def test_run_sweep_starts_no_thread(monkeypatch):
    # every elongation is solved in the calling thread, whatever
    # ELONGATE_THREADS, which once sized a thread pool, asks for
    def refuse(self):
        raise AssertionError(f"run_sweep started thread {self.name}")

    monkeypatch.setenv("ELONGATE_THREADS", "2")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    res = run_sweep(_sweep_config(ells=(2.0, 3.0)))
    assert [rec.ell for rec in res.records] == [2.0, 3.0]
    assert all(rec.converged for rec in res.records)


@pytest.mark.parametrize("ells", [(2.0, 2.3), (2.0, 2.0625)], ids=["spacings-differ", "half-cell-offset"])
def test_run_sweep_off_lattice_elongations(ells):
    # at h = 1/8, ell = 2.3 gets another spacing than ell = 2, and ell =
    # 2.0625 puts its nodes half a cell off those of ell = 2: the grids do
    # not nest, and the default sweep must solve them all the same
    res = run_sweep(_sweep_config(ells=ells))
    assert [rec.ell for rec in res.records] == list(ells)
    assert all(rec.converged for rec in res.records)
    cold = run_sweep(_sweep_config(ells=ells, warm_start=False))
    assert _without_runtime(res.records) == _without_runtime(cold.records)


def test_decay_rate_converges_to_pi_over_2():
    # exact oracle: on the strip (-ell, ell) x (-1, 1) the gradient error
    # decays as exp(-pi/2 ell); the fitted rate converges under refinement
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        ells = tuple(float(e) for e in range(2, 13))
        res = run_sweep(_sweep_config(ells=ells, target_h=h, warm_start=False))
        assert all(r.converged for r in res.records)
        floor = 100 * 1e-10 * 2.0 * h * h
        fit = fit_rate([(r.ell, r.err_grad_p ** 0.5) for r in res.records], "exponential", floor)
        assert fit.ok and fit.n_points == 11
        errs.append(abs(fit.exponent - math.pi / 2))
    assert errs[0] >= 3 * errs[1]
    assert errs[1] >= 3 * errs[2]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        _sweep_config(ells=(3.0, 2.0))
    with pytest.raises(ValueError):
        _sweep_config(ells=())
    with pytest.raises(ValueError):
        _sweep_config(ell0=5.0)
    with pytest.raises(ValueError, match="need at least one vertical axis"):  # as DomainSpec says
        _sweep_config(vertical_halfwidths=())


#: Every range a constructor or function owns: a builder from one value,
#: and a value that passes.  A sweep config checks its domain and grid
#: ranges through those owners.  A huge negative value must fail as a
#: ValueError too, not overflow on the way (``separable-p``'s certified
#: constant ``2^(1 - p/2)``).
_GRID = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 0.5)
_DECAY = [(2.0, 1.0), (3.0, 0.5), (4.0, 0.25)]
_RANGES = {
    "CrossSection.r": (lambda v: CrossSection("box", v), 2),
    "DomainSpec.ell": (lambda v: DomainSpec(CS1, v, (1.0,)), 2.0),
    "DomainSpec.halfwidths": (lambda v: DomainSpec(CS1, 2.0, (1.0, v)), 0.5),
    "build_grid.target_h": (lambda v: build_grid(DomainSpec(CS1, 2.0, (1.0,)), v), 0.5),
    "build_grid.max_nodes": (lambda v: build_grid(DomainSpec(CS1, 2.0, (1.0,)), 0.5, v), 100),
    "build_vertical_grid.halfwidths": (lambda v: build_vertical_grid((v,), 0.5), 1.0),
    "build_vertical_grid.target_h": (lambda v: build_vertical_grid((1.0,), v), 0.5),
    "build_vertical_grid.max_nodes": (lambda v: build_vertical_grid((1.0,), 0.5, v), 100),
    "make_density.p": (lambda v: make_density("p-dirichlet", v), 3.0),
    "make_density.separable-p.p": (lambda v: make_density("separable-p", v), 3.0),
    "make_density.lam": (lambda v: make_density("quadratic", lam=v), 0.6),
    "make_density.Lam": (lambda v: make_density("quadratic", Lam=v), 0.6),
    "make_density.beta": (lambda v: make_density("quadratic", beta=v), 0.0),
    "SweepConfig.ells": (lambda v: _sweep_config(ells=(2.0, v)), 3.0),
    "SweepConfig.first_ell": (lambda v: _sweep_config(ells=(v, 5.0)), 2.0),
    "SweepConfig.ell0": (lambda v: _sweep_config(ell0=v), 0.5),
    "SweepConfig.halfwidths": (lambda v: _sweep_config(vertical_halfwidths=(v,)), 0.5),
    "SweepConfig.target_h": (lambda v: _sweep_config(target_h=v), 0.25),
    "SweepConfig.max_nodes": (lambda v: _sweep_config(max_nodes=v), 100),
    "lp_norm_p.p": (lambda v: lp_norm_p(_GRID, np.ones(_GRID.cell_shape), v), 2.0),
    "region_cells.t": (lambda v: region_cells(_GRID, "core", v), 1.0),
    "oracle_1d.p": (lambda v: oracle_1d(v, 2.0), 4.0),
    "oracle_1d.f_const": (lambda v: oracle_1d(4.0, v), 2.0),
    "fit_rate.floor": (lambda v: fit_rate(_DECAY, "exponential", v), 1e-8),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e308], ids=["nan", "inf", "-inf", "-1e308"])
@pytest.mark.parametrize("owner", list(_RANGES))
def test_every_range_rejects_nonfinite_values(owner, bad):
    build, good = _RANGES[owner]
    build(good)
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("r", [1.5, True, "1"])
def test_cross_section_axis_count_is_an_integer(r):
    with pytest.raises(ValueError, match="integer"):
        CrossSection("box", r)


class _FlipBlind(PDirichletDensity):
    """A density without the declared flip invariance: no axis is halved."""

    mirror_invariant = False


class _FlipBlindLimit(PDirichletDensity):
    """Halves every axis, but its limit density does not declare the flip
    invariance, so the limit is solved in full and the core slab keeps its
    vertical axis whole."""

    def vertical_restriction(self):
        return _FlipBlind(self.p, 0, self.n - self.r)


#: ``ell0`` on the centroid of cell 30 of the ``ell = 2``, ``h = 0.1`` box,
#: whose mirror-image centroid rounds to the other side of the level.
_TIE = -2.0 + 0.1 * 30.5


@pytest.mark.parametrize("cs,ell,h,ell0,density,load,axes", [
    (CS1, 3.0, 1 / 8, 1.3, make_density("p-dirichlet", 4.0, r=1, n=2), Load.constant(2.0), [0, 1]),
    (CS1, 2.0, 1 / 8, 1.0625, make_density("quadratic", r=1, n=2), Load.constant(2.0), [0, 1]),
    (CS1, 2.0, 0.1, _TIE, make_density("quadratic", r=1, n=2), Load.constant(2.0), [0, 1]),
    (CS1, 2.0, 1 / 8, 2.0, make_density("quadratic", r=1, n=2), Load.constant(2.0), [0, 1]),
    (CS1, 2.0, 1 / 8, 1.3, make_density("quadratic", r=1, n=2), Load.sampled(lambda y: y), [0]),
    (CS1, 2.0, 1 / 8, 2.0, _FlipBlind(2.0, r=1, n=2), Load.constant(2.0), []),
    (CS1, 2.0, 1 / 8, 1.3, _FlipBlindLimit(4.0, r=1, n=2), Load.constant(2.0), [0, 1]),
    (CrossSection("ball", 2), 2.0, 1 / 8, 1.0, make_density("quadratic", r=2, n=3), Load.constant(2.0), [0, 1, 2]),
    (CrossSection("ball", 2), 2.0, 1 / 8, 2.0, make_density("quadratic", r=2, n=3), Load.constant(2.0), [0, 1, 2]),
    (CrossSection("ball", 2), 1.5, 1 / 8, 1.1, make_density("quadratic", r=2, n=3), Load.sampled(lambda y: y), [0, 1]),
    (CrossSection("ball", 2), 1.5, 1 / 8, 1.5, _FlipBlind(2.0, r=2, n=3), Load.constant(2.0), []),
], ids=[
    "box-p4-off-lattice", "box-centroid", "box-centroid-tie", "box-whole", "box-odd-load",
    "box-unhalved", "box-limit-unhalved", "ball", "ball-whole", "ball-odd-load", "ball-unhalved",
])
def test_record_matches_the_full_grid_formula(cs, ell, h, ell0, density, load, axes):
    # a record is measured on the halved grid and the core slab; it equals
    # the full-grid formula of the public calls, and bit for bit with no axis halved
    res = run_sweep(_sweep_config(
        cross_section=cs, ells=(ell,), target_h=h, ell0=ell0, density=density, load=load
    ))
    u, grid, rec = res.final_field, res.final_field.grid, res.records[0]
    assert res.final_report.mirror_axes == axes
    p = density.p
    ext = extend_vertical(res.limit, grid)
    gu = cell_gradients(u)
    core = region_cells(grid, "core", ell0)
    err = lp_norm_p(grid, gu - cell_gradients(ext), p, core)
    expected = {
        "total_grad_energy": lp_norm_p(grid, gu, p),
        "err_grad_p": err,
        "err_w1p": err + lp_norm_p(grid, cell_means(u) - cell_means(ext), p, core),
        "hgrad_p": lp_norm_p(grid, gu[..., : grid.r], p, core),
        "J_ell": assemble_energy(u, density, load),
    }
    rtol = 1e-13 if axes else 0.0
    for column, value in expected.items():
        assert value != 0.0
        assert abs(getattr(rec, column) - value) <= rtol * abs(value), column


@pytest.mark.parametrize("config", [
    dict(ells=tuple(range(2, 13)), target_h=1 / 32),
    dict(cross_section=CrossSection("ball", 2), density=make_density("quadratic", r=2, n=3),
         options=SolveOptions()),
    dict(target_h=1 / 16, density=make_density("p-dirichlet", 4.0, r=1, n=2), options=SolveOptions()),
], ids=["quadratic-box", "cli-ball", "p4-sweep"])
def test_records_satisfy_the_euler_identity(config):
    # at the minimizer grad J(u) . u = 0, which for |xi|^p / p gives
    # J = -(1 - 1/p) * total_grad_energy: two CSV columns, one from the
    # energy and one from the gradient norm, both of the final iterate
    cfg = _sweep_config(**config)
    records, p = run_sweep(cfg).records, cfg.density.p
    assert len(records) == len(cfg.ells)
    for rec in records:
        assert rec.converged
        assert abs(rec.J_ell + (1.0 - 1.0 / p) * rec.total_grad_energy) <= 1e-10 * abs(rec.J_ell)


def test_centroid_tie_core_is_not_mirror_symmetric():
    # the case above where the core is one cell wider on one side
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 0.1)
    assert grid.axis_centers(0)[30] == _TIE
    core = region_cells(grid, "core", _TIE)
    assert core[:, 0].sum() % 2 == 1 and not np.array_equal(core, np.flip(core, 0))


def test_decay_profile_partition_and_monotonicity():
    res = run_sweep(_sweep_config(ells=(4.0,)))
    u, grid, w = res.final_field, res.final_field.grid, res.limit
    ext = extend_vertical(w, grid)
    prof = decay_profile(u, w, 2.0, [1.0, 2.0, 3.0, 4.0])
    assert np.all(np.diff(prof.g) >= -1e-15)
    # the value at the full level equals the directly assembled quantity
    gu, gl = cell_gradients(u), cell_gradients(ext)
    full = region_cells(grid, "core", 4.0)
    expected = lp_norm_p(grid, gu[..., :1], 2.0, full) + lp_norm_p(
        grid, gu[..., 1:] - gl[..., 1:], 2.0, full
    )
    assert prof.g[-1] == pytest.approx(expected, rel=1e-13)
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "t,g"
    assert len(csv.splitlines()) == 5


def test_decay_profile_validation():
    res = run_sweep(_sweep_config(ells=(2.0,)))
    u, w = res.final_field, res.limit
    with pytest.raises(ValueError, match="at least one level"):
        decay_profile(u, w, 2.0, [])
    with pytest.raises(ValueError, match="positive"):
        decay_profile(u, w, 2.0, [-1.0, 1.0])
    # a non-finite level is named, wherever it sits in the list
    for levels in ([math.nan, 1.0, 2.0], [1.0, 2.0, math.nan], [1.0, math.inf]):
        bad = next(t for t in levels if not math.isfinite(t))
        with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
            decay_profile(u, w, 2.0, levels)
    # the limit must be a vertical profile on u's vertical axes
    with pytest.raises(ValueError, match="vertical profile"):
        decay_profile(u, u, 2.0, [1.0])
    other = build_vertical_grid((1.0,), 0.25 * res.limit.grid.h[0])
    with pytest.raises(ValueError, match="vertical axes differ"):
        decay_profile(u, ScalarField(other, np.zeros(other.shape)), 2.0, [1.0])


def _fake_records(ells, errs, hgrads=None, tge=None):
    hgrads = hgrads if hgrads is not None else [e / 3 for e in errs]
    tge = tge if tge is not None else [5.0 * ell for ell in ells]
    return [
        SweepRecord(
            ell=ell, ell0=1.0, h_horiz=0.1, h_vert=0.1, nodes=100, iters=10, converged=True,
            J_ell=-1.0, total_grad_energy=t, err_grad_p=e, err_w1p=1.5 * e, hgrad_p=hg,
            runtime_ms=1.0,
        )
        for ell, e, hg, t in zip(ells, errs, hgrads, tge)
    ]


def test_verdicts_quadratic_applicability():
    d = make_density("quadratic", r=1, n=2)
    ells = list(range(2, 10))
    errs = [math.exp(-2.0 * ell) for ell in ells]
    records = _fake_records(ells, errs)
    fits = {
        "power": fit_rate([(r.ell, r.err_w1p) for r in records], "power"),
        "exponential": fit_rate([(r.ell, r.err_grad_p ** 0.5) for r in records], "exponential"),
    }
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["power_rate"].applicable is False
    assert verdicts["exponential_rate"].applicable is True
    assert verdicts["exponential_rate"].passed is True
    assert verdicts["coarse_energy_scaling"].passed is True
    assert verdicts["interior_error_bounded"].passed is True
    assert verdicts["horizontal_gradient_vanishes"].passed is True


def test_verdicts_p4_power_rate():
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    ells = list(range(2, 10))
    errs = [0.5 * ell**-4.0 for ell in ells]
    records = _fake_records(ells, errs, tge=[5.0 * ell for ell in ells])
    fits = {"power": fit_rate([(r.ell, r.err_w1p) for r in records], "power")}
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["exponential_rate"].applicable is False
    v = verdicts["power_rate"]
    assert v.applicable and v.passed is True
    assert v.measured["target"] == pytest.approx(-3.0)


def test_verdicts_power_rate_fails_when_decay_too_slow():
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    ells = list(range(2, 10))
    errs = [0.5 * ell**-1.0 for ell in ells]
    records = _fake_records(ells, errs)
    fits = {"power": fit_rate([(r.ell, r.err_w1p) for r in records], "power")}
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["power_rate"].passed is False


def test_verdicts_power_rate_needs_fit_quality():
    # a steep but badly scattered fit (r2 < 0.9) cannot pass
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    rng = np.random.default_rng(0)
    ells = list(range(2, 12))
    errs = [ell**-4.0 * 10.0 ** rng.uniform(-2, 2) for ell in ells]
    records = _fake_records(ells, errs)
    fit = fit_rate([(r.ell, r.err_w1p) for r in records], "power")
    assert fit.r2 < 0.9
    verdicts = {v.name: v for v in convergence_verdicts(records, d, {"power": fit})}
    assert verdicts["power_rate"].passed is False


def test_verdicts_pass_at_tolerance_floor():
    # zero-load style data: every error sits at/below the fit floor
    d = make_density("quadratic", r=1, n=2)
    ells = list(range(2, 7))
    errs = [1e-20] * len(ells)
    records = _fake_records(ells, errs, tge=[0.0] * len(ells))
    floor = 1e-8
    fits = {
        "power": fit_rate([(r.ell, r.err_w1p) for r in records], "power", floor),
        "exponential": fit_rate([(r.ell, r.err_grad_p ** 0.5) for r in records], "exponential", floor),
    }
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["exponential_rate"].passed is True
    assert "floor" in verdicts["exponential_rate"].note
    assert verdicts["coarse_energy_scaling"].passed is True


@pytest.mark.parametrize("at", [0, 1, 4])
def test_verdicts_do_not_pass_a_nan_error_at_the_floor(at):
    # one NaN error among errors below the floor leaves the rate
    # indeterminate wherever it sits (max() over a NaN depends on the order)
    d = make_density("quadratic", r=1, n=2)
    errs = [1e-20] * 5
    errs[at] = math.nan
    records = _fake_records(list(range(2, 7)), errs)
    fits = {"exponential": fit_rate([(r.ell, r.err_grad_p ** 0.5) for r in records], "exponential", 1e-8)}
    verdict = {v.name: v for v in convergence_verdicts(records, d, fits)}["exponential_rate"]
    assert (verdict.passed, verdict.note) == (None, "insufficient data")


def test_verdicts_indeterminate_with_insufficient_fit():
    d = make_density("quadratic", r=1, n=2)
    records = _fake_records([2.0, 3.0], [1e-2, 1e-3])
    fits = {"exponential": fit_rate([(r.ell, r.err_grad_p ** 0.5) for r in records], "exponential")}
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["exponential_rate"].passed is None
    assert verdicts["coarse_energy_scaling"].passed is None


def test_verdicts_exclude_nonconverged_records():
    d = make_density("quadratic", r=1, n=2)
    records = _fake_records(list(range(2, 8)), [math.exp(-ell) for ell in range(2, 8)])
    records[3] = dataclasses.replace(records[3], converged=False, err_grad_p=999.0, hgrad_p=999.0)
    fits = {
        "exponential": fit_rate(
            [(r.ell, r.err_grad_p ** 0.5) for r in records if r.converged], "exponential"
        )
    }
    verdicts = {v.name: v for v in convergence_verdicts(records, d, fits)}
    assert verdicts["interior_error_bounded"].passed is True


def test_records_csv_schema():
    records = _fake_records([2.0, 3.0], [1e-2, 1e-3])
    csv = records_to_csv(records)
    lines = csv.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == len(SWEEP_CSV_HEADER.split(","))
    assert float(row[0]) == 2.0
    assert row[6] == "1"


def test_sweep_csv_header_is_the_documented_schema():
    # the header is derived from SweepRecord's fields, so reordering or
    # renaming a field would change the published schema; this pins it
    assert SWEEP_CSV_HEADER == (
        "ell,ell0,h_horiz,h_vert,nodes,iters,converged,J_ell,"
        "total_grad_energy,err_grad_p,err_w1p,hgrad_p,runtime_ms"
    )
