import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import elongate
from elongate import (
    CrossSection,
    DomainSpec,
    Load,
    ScalarField,
    SolveOptions,
    assemble_energy,
    assemble_energy_gradient,
    build_grid,
    build_vertical_grid,
    cell_gradients,
    extend_vertical,
    lp_norm_p,
    make_density,
    minimality_audit,
    minimize,
    oracle_1d,
    solve_limit,
    sup_error,
)
from elongate.field import _assemble_gradient_arr, _cell_gradients_arr, _load_vector, load_cell_values
from elongate.density import EnergyDensity
from elongate.precond import _DENSE_MAX, _SineAxis, _box_inverse, _green_sums, _sine_matrix, _sines, _swaps
from elongate.solver import _descent, _halve, _max_norm, _mirror_axes

CS1 = CrossSection("box", 1)
LOAD2 = Load.constant(2.0)


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=float("nan"))
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=float("inf"))
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    for bad in (2.5, float("nan"), 3.0, True, False, "10"):
        with pytest.raises(ValueError, match="integer"):
            SolveOptions(max_iters=bad)
    for bad in (True, "1e-9"):  # True was the tolerance 1.0
        with pytest.raises(ValueError, match="grad_tol must be a number"):
            SolveOptions(grad_tol=bad)
    assert SolveOptions(grad_tol=np.float32(1e-9)).grad_tol > 0
    assert SolveOptions(max_iters=np.int64(5)).max_iters == 5
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["grad_tol", "max_iters"]


def test_oracle_1d_p2_is_parabola():
    u = oracle_1d(2.0, 2.0)
    x = np.linspace(-1, 1, 41)
    assert np.allclose(u(x), 1 - x * x, atol=1e-14)


def test_oracle_1d_p4_peak_value():
    u = oracle_1d(4.0, 2.0)
    assert float(u(0.0)) == pytest.approx(0.75 * 2.0 ** (1 / 3), abs=1e-12)


@pytest.mark.parametrize("p,f", [(2.0, 2.0), (3.0, 1.5), (4.0, 2.0)])
def test_oracle_1d_boundary_values(p, f):
    u = oracle_1d(p, f)
    assert abs(float(u(1.0))) <= 1e-14
    assert abs(float(u(-1.0))) <= 1e-14


@pytest.mark.parametrize("p,f", [(2.0, 2.0), (3.0, 1.5), (4.0, 2.0)])
def test_oracle_1d_satisfies_flux_equation(p, f):
    # substitution check: d/dx (|u'|^(p-2) u') must equal -f away from x = 0
    u = oracle_1d(p, f)

    def flux(x):
        h = 1e-6
        du = (u(x + h) - u(x - h)) / (2 * h)
        return np.abs(du) ** (p - 2) * du

    x = np.concatenate([np.linspace(-0.9, -0.2, 15), np.linspace(0.2, 0.9, 15)])
    h = 1e-4
    dflux = (flux(x + h) - flux(x - h)) / (2 * h)
    assert np.max(np.abs(dflux + f)) <= 1e-4 * f


def test_oracle_1d_validation():
    with pytest.raises(ValueError):
        oracle_1d(1.5, 1.0)
    with pytest.raises(ValueError):
        oracle_1d(2.0, 0.0)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
def test_limit_solve_quadratic_matches_parabola(h):
    vg = build_vertical_grid([1.0], h)
    d = make_density("quadratic", r=1, n=2)
    u, rep = solve_limit(vg, d, LOAD2)
    assert rep.converged
    x = vg.axis_nodes(0)
    assert np.max(np.abs(u.values - (1 - x * x))) <= 10 * h * h


@pytest.mark.parametrize("p,h,tol", [
    (2.0, 1 / 16, 2e-15),  # measured 2.2e-16 (1 iteration)
    (3.0, 1 / 16, 1e-10),  # 8.8e-12 (25 iterations)
    (4.0, 1 / 16, 1e-10),  # 8.9e-12 (34 iterations)
    (4.0, 1 / 64, 4e-12),  # 3.8e-13 (70 iterations)
])
def test_limit_solve_matches_exact_discrete_minimizer(p, h, tol):
    # With a constant load f every interior node balances the fluxes of its
    # two cells against the load f h, so the discrete flux |u'|^(p-2) u' is
    # -f y_c at the cell centre y_c, exactly as in the continuum: the
    # discrete minimizer sums -h sign(y_c) |f y_c|^(1/(p-1)) from y = -1.
    # Only the solver's tolerance separates it from the computed limit.
    vg = build_vertical_grid([1.0], h)
    u, rep = solve_limit(vg, make_density("p-dirichlet", p, r=1, n=2), LOAD2)
    assert rep.converged
    y = vg.axis_nodes(0)
    yc = 0.5 * (y[1:] + y[:-1])
    exact = np.concatenate([[0.0], np.cumsum(-vg.h[0] * np.sign(yc) * np.abs(2.0 * yc) ** (1 / (p - 1)))])
    assert np.max(np.abs(u.values - exact)) <= tol


def test_limit_solve_mesh_refinement_order():
    d = make_density("quadratic", r=1, n=2)
    exact = oracle_1d(2.0, 2.0)
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        vg = build_vertical_grid([1.0], h)
        u, rep = solve_limit(vg, d, LOAD2)
        assert rep.converged
        errs.append(sup_error(u, exact))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_limit_solve_p4_matches_oracle():
    h = 1 / 16
    vg = build_vertical_grid([1.0], h)
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    u, rep = solve_limit(vg, d, LOAD2)
    assert rep.converged
    x = vg.axis_nodes(0)
    assert np.max(np.abs(u.values - oracle_1d(4.0, 2.0)(x))) <= 10 * h


def test_limit_solve_zero_load_is_zero_field():
    vg = build_vertical_grid([1.0], 1 / 8)
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    u, rep = solve_limit(vg, d, Load.constant(0.0))
    assert rep.converged and rep.iterations == 0
    assert np.all(u.values == 0.0)
    assert rep.energy == 0.0


def test_limit_solve_beats_random_admissible_fields():
    vg = build_vertical_grid([1.0], 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    u, rep = solve_limit(vg, d, LOAD2)
    vd = d.vertical_restriction()
    ju = assemble_energy(u, vd, LOAD2)
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = ScalarField(vg, rng.standard_normal(vg.shape))
        assert ju <= assemble_energy(w, vd, LOAD2) + 1e-8 * max(1, abs(ju))


def test_minimize_quadratic_2d():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-10))
    assert rep.converged
    assert rep.grad_max <= rep.grad_tol_abs
    # energy must beat the extended limit profile
    vg = build_vertical_grid([1.0], 1 / 8)
    w, _ = solve_limit(vg, d, LOAD2)
    assert rep.energy <= assemble_energy(extend_vertical(w, grid), d, LOAD2)


def test_minimize_zero_load_zero_start():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    u, rep = minimize(grid, d, Load.constant(0.0))
    assert rep.converged and rep.iterations == 0 and rep.energy == 0.0


def test_nonconvergence_is_reported_not_raised():
    # p = 4 on a ball grid: the preconditioner inverts the quadratic
    # Hessian only, and two of the 36 iterations this solve needs fall short
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 4)
    d = make_density("p-dirichlet", 4.0, r=2, n=3)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-10, max_iters=2))
    assert not rep.converged
    assert rep.iterations == 2


def test_line_search_exhaustion_is_reported_not_raised():
    # grad_tol 1e-16 is below what p = 4 can reach in double precision:
    # the line search runs out of steps well before max_iters.
    vg = build_vertical_grid([1.0], 1 / 8)
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    u, rep = solve_limit(vg, d, LOAD2, SolveOptions(grad_tol=1e-16, max_iters=400))
    assert not rep.converged
    assert 0 < rep.iterations < 400
    assert np.isfinite(rep.energy) and np.all(np.isfinite(u.values))


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0)])
def test_non_finite_gradient_stops_the_solve(kind, p):
    base = type(make_density(kind, p, r=1, n=2))

    class NaNGradient(base):
        def grad(self, xi):
            return np.full(np.shape(xi), np.nan)

    d = NaNGradient(2.0 if p is None else p, r=1, n=2)
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(max_iters=1000))
    assert not rep.converged
    assert rep.iterations <= 1


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0)])
def test_non_finite_gradient_after_a_step_stops_the_solve(kind, p):
    # the gradient is finite at the zero start and NaN once the field has
    # moved: the first step is taken, then the solve stops without raising
    base = type(make_density(kind, p, r=1, n=2))

    class NaNAfterStep(base):
        def grad(self, xi):
            return np.full(np.shape(xi), np.nan) if np.any(xi) else super().grad(xi)

    d = NaNAfterStep(2.0 if p is None else p, r=1, n=2)
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(max_iters=1000))
    assert not rep.converged
    assert rep.iterations == 1
    assert not np.isfinite(rep.grad_max)
    # no line search after the step: the trials are those of one iteration
    assert rep.trials == minimize(grid, base(d.p, r=1, n=2), LOAD2, SolveOptions(max_iters=1))[1].trials


@pytest.mark.parametrize("mirror", [True, False], ids=["halved", "full"])
def test_line_energy_direction_is_zero_outside_the_domain(mirror):
    # on a ball grid the cell gradients of the search direction reach the
    # density's line energy zeroed on every out-of-domain cell, so those
    # cells add exactly 0 to the line search
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 4)
    deltas = []

    class Recording(type(make_density("p-dirichlet", 4.0, r=2, n=3))):
        mirror_invariant = mirror

        def line_energy(self, xi, delta):
            deltas.append(np.array(delta))
            return super().line_energy(xi, delta)

    u, rep = minimize(grid, Recording(4.0, r=2, n=3), LOAD2, SolveOptions(max_iters=5))
    assert bool(rep.mirror_axes) == mirror and rep.iterations == len(deltas) == 5
    outside = _halve(grid, tuple(rep.mirror_axes)).outside_cells
    assert outside.any()
    for delta in deltas:
        assert delta.shape[:-1] == outside.shape
        assert not delta[outside].any() and delta[~outside].any()


def _random_box_grid(rng, r, vertical):
    """Box grid with random elongation, halfwidths and spacing (anisotropic h)."""
    hw = tuple(rng.uniform(0.3, 1.2) for _ in range(vertical))
    h = rng.uniform(0.06, 0.15) if r + vertical < 3 else rng.uniform(0.12, 0.25)
    if r == 0:
        return build_vertical_grid(hw, h)
    return build_grid(DomainSpec(CrossSection("box", r), rng.uniform(0.5, 2.5), hw), h)


def _hessian_product(grid, values, d=None):
    """Hessian of a quadratic density's energy (default ``|xi|^2 / 2``) times ``values``."""
    d = make_density("quadratic", r=grid.r, n=grid.n) if d is None else d
    return assemble_energy_gradient(ScalarField(grid, values), d, Load.constant(0.0))


def _long_axis_grid(kind):
    """Grids with an axis longer than ``_DENSE_MAX``: only long axes, or both kinds."""
    if kind == "long":  # 159 interior nodes
        return build_vertical_grid((1.0,), 1 / 80)
    return build_grid(DomainSpec(CS1, 12.0, (1.0,)), 1 / 16)  # 385 x 33 nodes


@pytest.mark.parametrize("r,vertical", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (0, "long"), (1, "mixed")])
@pytest.mark.parametrize("seed", [0, 1])
def test_box_inverse_inverts_quadratic_hessian(r, vertical, seed):
    # exact oracle: on box grids the preconditioner is the inverse of the
    # assembled quadratic Hessian on the free nodes; on the grid halved
    # along some even axes, of the halved grid's Hessian (dense and rfft
    # axes halved, alone or beside full ones)
    rng = np.random.default_rng(100 * seed + 10 * r + (vertical if isinstance(vertical, int) else 7))
    if isinstance(vertical, str):
        grid = _long_axis_grid(vertical)
        assert max(grid.shape) - 2 > _DENSE_MAX and (vertical == "long") == (min(grid.shape) - 2 > _DENSE_MAX)
    else:
        grid = _random_box_grid(rng, r, vertical)
        assert grid.n == 1 or len(set(grid.h)) > 1
    even = tuple(a for a in range(grid.n) if grid.cell_shape[a] % 2 == 0)
    for halved in dict.fromkeys([(), *((a,) for a in even), even]):
        sub = _halve(grid, halved)
        apply_inverse = _box_inverse(sub, halved)
        for _ in range(3):
            x = rng.standard_normal(sub.shape)
            x[sub.dirichlet] = 0.0
            z = apply_inverse(_hessian_product(sub, x))
            assert np.max(np.abs(z - x)) <= 1e-12 * np.max(np.abs(x))
            b = rng.standard_normal(sub.shape)
            b[sub.dirichlet] = 0.0
            Ab = _hessian_product(sub, apply_inverse(b))
            assert np.max(np.abs(Ab - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("r,ell,halfwidths,h,dense_max", [
    (2, 2.0, (1.0,), 1 / 4, _DENSE_MAX), (2, 1.5, (0.5,), 1 / 8, _DENSE_MAX), (3, 1.0, (1.0,), 1 / 4, _DENSE_MAX),
    (2, 1.0, (0.5,), 1 / 8, 8), (3, 1.125, (0.5,), 1 / 4, _DENSE_MAX), (2, 2.3, (0.5,), 1 / 8, _DENSE_MAX),
    (2, 1.0, (0.5, 0.5), 1 / 4, _DENSE_MAX),
], ids=["r2", "r2-fine", "r3", "r2-rfft", "r3-odd", "r2-odd-fine", "r2-two-vertical"])
def test_ball_inverse_inverts_quadratic_hessian(monkeypatch, r, ell, halfwidths, h, dense_max):
    # exact oracle on masked grids: with its capacitance correction the
    # preconditioner inverts the masked Hessian on the free nodes, on the
    # full grid and halved along the horizontal, the vertical or every even
    # axis; a lowered threshold sends the horizontal axes through rfft.
    # Odd horizontal cell counts (9 and 37 cells) give mirror folds that map
    # no node to itself; two vertical axes take two vertical mode factors.
    # Every application solves the capacitance systems for its one
    # right-hand side per mode, so a repeated one on the same residual
    # agrees with the first to round-off; the set-up keeps nothing of a
    # previous application
    monkeypatch.setattr(elongate.precond, "_DENSE_MAX", dense_max)
    grid = build_grid(DomainSpec(CrossSection("ball", r), ell, halfwidths), h)
    assert grid.outside_cells is not None and grid.n == r + len(halfwidths)
    assert (grid.shape[0] - 2 > dense_max) == (dense_max < _DENSE_MAX) and grid.shape[-1] - 2 <= dense_max
    even = tuple(a for a in range(grid.n) if grid.cell_shape[a] % 2 == 0)
    rng = np.random.default_rng(10 * r + dense_max)
    horizontal, vertical = tuple(a for a in even if a < r), tuple(a for a in even if a >= r)
    for halved in dict.fromkeys([(), even, horizontal, vertical]):
        sub = _halve(grid, halved)
        apply_inverse = _box_inverse(sub, halved)
        x = rng.standard_normal(sub.shape)
        x[sub.dirichlet] = 0.0
        residual = _hessian_product(sub, x)
        z = apply_inverse(residual)
        assert np.max(np.abs(z - x)) <= 1e-12 * np.max(np.abs(x))
        again = apply_inverse(residual)
        assert np.max(np.abs(again - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(again - z)) <= 1e-13 * np.max(np.abs(z))
        b = rng.standard_normal(sub.shape)
        b[sub.dirichlet] = 0.0
        Ab = _hessian_product(sub, apply_inverse(b))
        assert np.max(np.abs(Ab - b)) <= 1e-12 * np.max(np.abs(b))


def test_ball_inverse_with_one_halved_horizontal_axis():
    # a disc halved along the first axis alone is not symmetric under the
    # swap of the horizontal axes, so the correction takes no swap fold; it
    # is exact all the same, and halved along both axes it takes the fold
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 8)
    for halved, swaps in (((0,), False), ((0, 2), False), ((0, 1), True), ((0, 1, 2), True)):
        sub = _halve(grid, halved)
        assert _swaps(sub, halved) == swaps
        x = np.random.default_rng(len(halved)).standard_normal(sub.shape)
        x[sub.dirichlet] = 0.0
        z = _box_inverse(sub, halved)(_hessian_product(sub, x))
        assert np.max(np.abs(z - x)) <= 1e-12 * np.max(np.abs(x))


def _green_by_sine_sums(cells, half, lo, hi, x):
    """``sum_t s_t(a) s_t(b) / (A + B cos th_t)`` over the axis's modes, by brute force."""
    t = np.arange(1, cells, 1 + half)
    s = _sines(cells, t[:, None], x + (cells // 2 if half else 0))
    symbol = 0.5 * (lo + hi)[:, None] + 0.5 * (lo - hi)[:, None] * np.cos(np.pi / cells * t)
    return np.einsum("ta,tb,kt->kab", s, s, 1.0 / symbol)


@pytest.mark.parametrize("cells,half", [(32, False), (64, True), (256, True)])
def test_green_sums_match_the_sine_sums(cells, half):
    # the closed-form semiseparable Green's function equals the sum over the
    # sine modes: B < 0 and B > 0 (alternating sign), |B| / A down to 1e-3
    # and 1e-12, and mu * span beyond 709, where unscaled sinh factors
    # overflow and the factors are split into blocks
    x = np.arange(0 if half else 1, cells // 2 if half else cells)
    hi = np.random.default_rng(cells).uniform(0.5, 3.0, 8)
    lo = hi * np.array([0.01, 0.5, 2.0, 50.0, 1 + 2e-3, 1 - 2e-3, 1 + 2e-12, 1 - 1e-6])
    mu = 2.0 * np.arctanh(np.sqrt(np.minimum(lo, hi) / np.maximum(lo, hi)))
    assert (lo > hi).any() and (lo < hi).any() and (np.abs(lo - hi) <= 1e-3 * (lo + hi)).any()
    assert (mu * len(x) > 709).any()
    want = _green_by_sine_sums(cells, half, lo, hi, x)
    # one mode per row of lo and hi: the Green's functions one by one
    got = _green_sums(cells, half, lo[:, None], hi[:, None], x, np.ones((len(x), 1)), np.arange(len(x)))
    assert np.all(np.isfinite(got))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))
    # all modes summed with weights, at a subset of the columns
    weights = np.random.default_rng(1).standard_normal((len(x), len(lo)))
    cols = np.arange(0, len(x), 3)
    got = _green_sums(cells, half, lo, hi, x, weights, cols)
    want = np.einsum("ak,bk,kab->ab", weights, weights[cols], want[:, :, cols])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("cells", [2, 3, 16, 17, 64, 128, 129, 130, 194, 200, 256, 768])
def test_sine_axis_round_trip(cells):
    # every path of the sine transform against the orthonormal matrix of
    # _sine_matrix, forward and inverse: a whole axis dense (at most
    # _DENSE_MAX interior nodes) and by rfft, a halved axis (even N, odd
    # N/2 too) dense and by one real FFT of its length, each with the axis
    # in the middle, first and last (flat) position.  A round trip is the
    # identity; on a halved axis with the caller's part, the mirror factor
    # 2 and the mid-plane node taken once
    for half in (False, True) if cells % 2 == 0 else (False,):
        q = _sine_matrix(cells, half)
        x = np.random.default_rng(cells).standard_normal((3, q.shape[1], 4))
        for axis, values in ((1, x), (0, x[0]), (1, x[:, :, 0])):
            ax = _SineAxis(values.shape, axis, half)
            assert ax.cells == cells and (ax.products is not None) == (cells - 1 <= _DENSE_MAX)
            assert (ax.twiddles is not None) == (half and ax.products is None)
            assert np.array_equal(ax.modes, np.arange(1, cells, 1 + half))
            for inverse, matrix in ((False, q), (True, q.T)):
                got = ax.transform(values, np.empty(values.shape), inverse)
                want = np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            mirrored = (1.0 + half) * values
            mirrored[(slice(None),) * axis + (0,)] /= 1.0 + half
            modes = ax.transform(mirrored, np.empty(values.shape))
            back = ax.transform(modes, np.empty(values.shape), inverse=True)
            assert np.max(np.abs(back - values)) <= 1e-14 * np.max(np.abs(values))
    if cells - 1 <= _DENSE_MAX and cells & (cells - 1) == 0:
        # the orthonormal matrix squares to the identity to an ulp
        eye = np.eye(cells - 1)
        q = _SineAxis(eye.shape, 0).transform(eye, np.empty_like(eye))
        assert np.max(np.abs(q @ q - eye)) <= np.finfo(float).eps


@pytest.mark.parametrize("cells", [2, 16, 64, 128, 130, 194, 200, 768])
def test_sine_axis_half_axis_is_the_odd_part(cells):
    # a half axis holds the upper half of a symmetric axis, nodes N/2 ..
    # N-1; mirrored with its mid-plane node doubled (as the solver's
    # residual is), the whole axis's transform has no even modes and its
    # odd modes are the half axis's transform of twice the upper half; from
    # those odd modes the inverse gives back the upper half on both
    for axis, shape in ((1, (3, cells // 2, 4)), (0, (cells // 2, 4)), (1, (3, cells // 2))):
        def along(sl):
            return (slice(None),) * axis + (sl,)

        upper = np.random.default_rng(cells).standard_normal(shape)
        x = np.concatenate((np.flip(upper[along(slice(1, None))], axis), upper), axis)
        x[along(cells // 2 - 1)] *= 2.0
        ax, ax_half = _SineAxis(x.shape, axis), _SineAxis(shape, axis, half=True)
        assert ax_half.cells == cells
        assert (ax_half.products is not None) == (cells - 1 <= _DENSE_MAX)
        assert np.array_equal(ax_half.modes, ax.modes[0::2])
        modes = ax.transform(x, np.empty(x.shape))
        odd, even = modes[along(slice(0, None, 2))], modes[along(slice(1, None, 2))]
        assert np.max(np.abs(even), initial=0.0) <= 1e-13 * np.max(np.abs(odd))
        got = ax_half.transform(2.0 * upper, np.empty(shape))
        assert np.max(np.abs(got - odd)) <= 1e-13 * np.max(np.abs(odd))
        modes[along(slice(1, None, 2))] = 0.0
        back = ax.transform(modes, np.empty(x.shape), inverse=True)
        got = ax_half.transform(odd, np.empty(shape), inverse=True)
        upper_back = back[along(slice(cells // 2 - 1, None))]
        assert np.max(np.abs(got - upper_back)) <= 1e-13 * np.max(np.abs(got))


@pytest.mark.parametrize("kind", ["ball", "long-box"])
def test_kernels_commute_with_mirror_flips(kind):
    # the cell gradients and the gradient assembly commute with the flip of
    # every axis bit for bit (==, not allclose), on a masked ball grid and
    # on a box grid with a long horizontal axis
    if kind == "ball":
        grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 8)
    else:
        grid = _long_axis_grid("mixed")
    load_vec = _load_vector(grid, load_cell_values(grid, LOAD2))
    densities = [make_density(k, p, r=grid.r, n=grid.n) for k, p in (("quadratic", None), ("p-dirichlet", 4.0))]
    x = np.random.default_rng(5).standard_normal(grid.shape)
    x[grid.dirichlet] = 0.0
    G = _cell_gradients_arr(grid, x)
    for a in range(grid.n):
        xf = np.flip(x, a)
        Gf = np.flip(G, a).copy()
        Gf[..., a] *= -1.0
        assert np.array_equal(_cell_gradients_arr(grid, xf), Gf)
        for d in densities:
            g = _assemble_gradient_arr(grid, G, d, load_vec)
            assert np.array_equal(_assemble_gradient_arr(grid, Gf, d, load_vec), np.flip(g, a))


def test_unhalved_axis_solve_is_symmetric_to_round_off():
    # an odd vertical cell count keeps that axis whole: the solve halves the
    # horizontal axis alone, so the field is exactly symmetric along it, and
    # symmetric along the whole axis up to round-off
    grid = build_grid(DomainSpec(CS1, 2.0, (0.9,)), 1 / 8)
    assert grid.cell_shape == (32, 15)
    u, rep = minimize(grid, make_density("p-dirichlet", 4.0, r=1, n=2), LOAD2)
    assert rep.converged and rep.mirror_axes == [0]
    assert np.array_equal(u.values, np.flip(u.values, 0))
    assert np.max(np.abs(u.values - np.flip(u.values, 1))) <= 1e-12 * np.max(np.abs(u.values))


#: Pairs of grids of one shape: different vertical spacings (1/8 and
#: 0.11875), and a box against a ball cross-section (masked cells, more
#: fixed nodes).
_SAME_SHAPE_GRIDS = (
    (CS1, 2.0, 1.0, 1 / 8), (CS1, 2.0, 0.95, 1 / 8),
    (CrossSection("box", 2), 1.0, 1.0, 1 / 4), (CrossSection("ball", 2), 1.0, 1.0, 1 / 4),
)


def _same_shape_grid(i):
    cs, ell, halfwidth, h = _SAME_SHAPE_GRIDS[i]
    return build_grid(DomainSpec(cs, ell, (halfwidth,)), h)


def _kernel_results(grid):
    """Cell gradients, gradient assembly (quadratic and p = 4) and box inverse
    of a field drawn from the grid's shape."""
    x = np.random.default_rng(grid.node_count).standard_normal(grid.shape)
    x[grid.dirichlet] = 0.0
    G = _cell_gradients_arr(grid, x)
    load_vec = _load_vector(grid, load_cell_values(grid, LOAD2))
    assembled = [
        _assemble_gradient_arr(grid, G, make_density(k, p, r=grid.r, n=grid.n), load_vec)
        for k, p in (("quadratic", None), ("p-dirichlet", 4.0))
    ]
    return [G, *assembled, _box_inverse(grid)(x)]


def _save_kernel_results(indices, path):
    np.savez(path, *(a for i in indices for a in _kernel_results(_same_shape_grid(i))))


def test_kernel_set_up_does_not_leak_across_grids(tmp_path):
    # calls interleaved across the grids of a pair, in a process that has
    # seen many grids, give what new interpreters give, each of which sees
    # one grid of each pair (one 2-D and one 3-D grid)
    paths = [os.path.dirname(os.path.dirname(elongate.__file__)), os.path.dirname(__file__)]
    pairs = ((0, 1), (2, 3))
    children = [
        subprocess.Popen([sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}; import test_solver; "
                          f"test_solver._save_kernel_results({indices!r}, {str(tmp_path / f'{k}.npz')!r})"])
        for k, indices in enumerate(zip(*pairs))
    ]
    assert [child.wait() for child in children] == [0, 0]
    fresh = {}
    for k, indices in enumerate(zip(*pairs)):
        with np.load(tmp_path / f"{k}.npz") as saved:
            arrays = [saved[name] for name in saved.files]
        for j, i in enumerate(indices):
            fresh[i] = arrays[4 * j : 4 * j + 4]
    for pair in pairs:
        grids = [_same_shape_grid(i) for i in pair]
        assert grids[0].shape == grids[1].shape
        for _ in range(2):
            for i, grid in zip(pair, grids):
                for got, want in zip(_kernel_results(grid), fresh[i], strict=True):
                    assert np.array_equal(got, want)


def test_callback_arrays_do_not_change_afterwards():
    # the field passed at step k stays as it was passed, whatever the solver
    # does in place at later steps
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    seen, copies = [], []

    def keep(_k, values):
        seen.append(values)
        copies.append(np.array(values))

    u, rep = minimize(grid, d, LOAD2, callback=keep)
    assert rep.converged and len(seen) == rep.iterations > 1
    assert all(np.array_equal(a, b) for a, b in zip(seen, copies))
    assert np.array_equal(seen[-1], u.values)


def test_quadratic_box_solve_is_one_iteration():
    grid = build_grid(DomainSpec(CrossSection("box", 2), 1.5, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=2, n=3)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations == 1


class _CrossCoupled(EnergyDensity):
    """``|xi|^2 / 2 + (xi_0 + xi_1)^2 / 2``: convex and quadratic, but not
    unchanged by the sign flip of one gradient component."""

    def __init__(self, r, n):
        super().__init__(2.0, 0.0, 0.5, 1.5, 0.5, r, n)

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 0.5 * (np.sum(xi * xi, axis=-1) + (xi[..., 0] + xi[..., 1]) ** 2)

    def grad(self, xi):
        out = np.array(xi, dtype=float)
        cross = out[..., 0] + out[..., 1]
        out[..., 0] += cross
        out[..., 1] += cross
        return out

    def line_increment(self, xi, delta):
        # exact in the step, as the built-ins are: the solve then reaches
        # the tight tolerance
        b = np.sum(self.grad(xi) * delta, axis=-1)
        c = 0.5 * np.sum(self.grad(delta) * delta, axis=-1)
        return lambda alpha: alpha * (b + alpha * c)

    def vertical_restriction(self):
        return make_density("quadratic", r=0, n=self.n - self.r)


def _dense_solve(grid, d, load):
    """Free-node values of the quadratic problem's minimizer, by a dense direct solve."""
    free = np.flatnonzero(~grid.dirichlet)
    columns = []
    for i in free:
        e = np.zeros(grid.node_count)
        e[i] = 1.0
        columns.append(_hessian_product(grid, e.reshape(grid.shape), d).ravel()[free])
    A = np.array(columns).T
    assert np.allclose(A, A.T, rtol=0, atol=1e-14 * np.max(np.abs(A)))
    b = -assemble_energy_gradient(ScalarField(grid, np.zeros(grid.shape)), d, load).ravel()[free]
    return free, np.linalg.solve(A, b)


def test_ball_solve_matches_dense_solve():
    # exact oracle on a masked grid: the dense assembled system solved
    # directly; the capacitance-corrected box inverse solves it outright
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    d = make_density("quadratic", r=2, n=3)
    free, exact = _dense_solve(grid, d, LOAD2)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations <= 2
    assert np.max(np.abs(u.values.ravel()[free] - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_flip_dependent_density_matches_dense_solve():
    # a density that a single sign flip changes gets no halved axis, and the
    # full solve still meets the exact oracle; its minimizer is not
    # symmetric about the axis-0 mid-plane, so halving that axis would be wrong
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    d = _CrossCoupled(r=2, n=3)
    free, exact = _dense_solve(grid, d, LOAD2)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations > 1 and rep.mirror_axes == []
    assert np.max(np.abs(u.values.ravel()[free] - exact)) <= 1e-10 * np.max(np.abs(exact))
    assert np.max(np.abs(u.values - np.flip(u.values, 0))) > 1e-3 * np.max(np.abs(u.values))


@pytest.mark.parametrize("kind,p,cs,ell,h", [
    ("quadratic", None, CrossSection("ball", 2), 2.0, 1 / 8),
    ("p-dirichlet", 4.0, CS1, 4.0, 1 / 16),
    ("separable-p", 3.0, CrossSection("box", 2), 1.0, 1 / 8),
], ids=["ball-quadratic", "box-p4", "box3d-separable-p3"])
def test_halved_solve_matches_full_solve(kind, p, cs, ell, h):
    # the same problem, halved along every axis and solved in full (a
    # subclass that does not declare the flip invariance)
    grid = build_grid(DomainSpec(cs, ell, (1.0,)), h)
    d = make_density(kind, p, r=cs.r, n=grid.n)

    class Full(type(d)):
        mirror_invariant = False

    full = Full(2.0 if p is None else p, r=cs.r, n=grid.n)
    u, rep = minimize(grid, d, LOAD2)
    u_full, rep_full = minimize(grid, full, LOAD2)
    assert rep.converged and rep_full.converged
    assert rep.mirror_axes == list(range(grid.n)) and rep_full.mirror_axes == []
    assert abs(rep.energy - rep_full.energy) <= 1e-12 * abs(rep_full.energy)
    assert np.max(np.abs(u.values - u_full.values)) <= 1e-9 * np.max(np.abs(u_full.values))
    for a in range(grid.n):
        assert np.array_equal(u.values, np.flip(u.values, a))
    assert rep.grad_max == np.max(np.abs(assemble_energy_gradient(u, d, LOAD2)))


def test_mirror_axes():
    # every axis of the built-in ball and box problems; an odd cell count,
    # a load that is not even in the vertical coordinate and a density that
    # does not declare the flip invariance each take axes away
    ball = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    box = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    odd = build_grid(DomainSpec(CS1, 2.0, (0.9,)), 1 / 8)
    assert odd.cell_shape == (32, 15)
    cases = [
        (ball, make_density("quadratic", r=2, n=3), LOAD2, [0, 1, 2]),
        (box, make_density("p-dirichlet", 4.0, r=1, n=2), LOAD2, [0, 1]),
        (odd, make_density("quadratic", r=1, n=2), LOAD2, [0]),
        (box, make_density("quadratic", r=1, n=2), Load.sampled(lambda y: 2.0 - y * y), [0, 1]),
        (box, make_density("quadratic", r=1, n=2), Load.sampled(lambda y: 2.0 + y), [0]),
        (ball, _CrossCoupled(r=2, n=3), LOAD2, []),
    ]
    for grid, d, load, axes in cases:
        _, rep = minimize(grid, d, load, SolveOptions(max_iters=3))
        assert rep.mirror_axes == axes
    _, rep = solve_limit(build_vertical_grid([1.0], 1 / 8), make_density("p-dirichlet", 4.0, r=1, n=2), LOAD2)
    assert rep.mirror_axes == [0]


def test_mirror_axes_compare_the_cell_mask_only_with_outside_cells():
    # a grid without outside cells has an all-True cell mask, symmetric
    # about every axis, so its flip is not compared; the axes are those of
    # the rule that compares the mask too, on box, ball and odd-count grids
    grids = [
        build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8),
        build_grid(DomainSpec(CS1, 2.0, (0.9,)), 1 / 8),
        build_grid(DomainSpec(CrossSection("box", 2), 1.0, (0.5,)), 0.25),
        build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25),
        build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.375,)), 0.25),
        build_grid(DomainSpec(CrossSection("ball", 2), 1.125, (0.5,)), 0.25),
    ]
    assert [g.outside_cells is None for g in grids] == [True, True, True, False, False, False]
    assert [g.cell_shape for g in grids] == [(32, 16), (32, 15), (8, 8, 4), (8, 8, 4), (8, 8, 3), (9, 9, 4)]
    for grid in grids:
        d = make_density("quadratic", r=grid.r, n=grid.n)
        for load in (LOAD2, Load.sampled(lambda y: 2.0 + y)):
            f_cells = load_cell_values(grid, load)
            want = tuple(a for a in range(grid.n) if grid.cell_shape[a] % 2 == 0 and all(
                np.array_equal(v, np.flip(v, a)) for v in (grid.dirichlet, grid.cell_mask, f_cells)))
            assert _mirror_axes(grid, d, f_cells) == want


@pytest.mark.parametrize("h", [0.1, 1 / 12, 1 / 20, 1 / 24, 1 / 49, 1 / 98])
def test_even_sampled_load_halves_the_vertical_axis(h):
    # the vertical cell centroids are sampled mirror-exactly about 0, so a
    # load even in the vertical coordinate gives cell values equal to their
    # flip at non-dyadic spacings too; at h = 1/49 and 1/98 (98 and 196
    # vertical cells) lo + N h / 2 is -1.1e-16, not 0
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), h)
    load = Load.sampled(lambda y: 2.0 - y * y)
    f_cells = load_cell_values(grid, load)
    assert np.array_equal(f_cells, np.flip(f_cells, 1))
    _, rep = minimize(grid, make_density("quadratic", r=1, n=2), load, SolveOptions(max_iters=3))
    assert rep.mirror_axes == [0, 1]


def test_quadratic_ball_solve_iterations():
    # the preconditioner is the exact masked inverse, so the count does not
    # grow as h shrinks (34 and 98 iterations at ell = 2 with the plain box
    # inverse)
    d = make_density("quadratic", r=2, n=3)
    for h in (1 / 8, 1 / 16):
        grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), h)
        u, rep = minimize(grid, d, LOAD2)
        assert rep.converged and rep.iterations <= 2
        assert 0.0 <= rep.precond_s <= rep.wall_time
        # the solve carries cell gradients, but confirms convergence on a
        # gradient assembled from the field itself
        assert rep.grad_max == np.max(np.abs(assemble_energy_gradient(u, d, LOAD2)))
        # the grid, the load and every kernel are mirror-exact, so is the solution
        for a in range(grid.n):
            assert np.array_equal(u.values, np.flip(u.values, a))


class _Tilted(EnergyDensity):
    """``|xi|^2 / 2 + c . xi``: a quadratic density whose flux at 0 is ``c``, not 0."""

    def __init__(self, r, n):
        super().__init__(2.0, 0.0, 0.5, 0.5, 0.5, r, n)
        self.c = np.linspace(0.5, 1.5, n)

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 0.5 * np.sum(xi * xi, axis=-1) + xi @ self.c

    def grad(self, xi):
        return np.asarray(xi, dtype=float) + self.c

    def line_increment(self, xi, delta):
        b = np.sum(self.grad(xi) * delta, axis=-1)
        c = 0.5 * np.sum(delta * delta, axis=-1)
        return lambda alpha: alpha * (b + alpha * c)

    def vertical_restriction(self):
        return make_density("quadratic", r=0, n=self.n - self.r)


def _first_gradient(grid, d):
    """The gradient with which a descent from the zero field starts."""
    seen = []
    inverse = _box_inverse(grid)
    load_vec = _load_vector(grid, load_cell_values(grid, LOAD2))
    _descent(grid, d, load_vec, np.zeros(grid.shape), 0.0, 1, None, lambda g: seen.append(g) or inverse(g),
             _max_norm(()))
    return seen[0], _assemble_gradient_arr(grid, np.zeros(grid.cell_shape + (grid.n,)), d, load_vec), load_vec


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0), ("separable-p", 3.0)])
def test_zero_start_gradient_is_the_assembly_at_zero(kind, p):
    # a built-in's flux at a zero cell gradient is 0, so the descent starts
    # from the load term alone, equal to the assembly of zero cell gradients
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    first, assembled, load_vec = _first_gradient(grid, make_density(kind, p, r=2, n=3))
    assert np.array_equal(first, assembled) and np.array_equal(first, 0.0 - load_vec)


def test_zero_start_with_a_flux_at_zero_takes_the_assembly():
    # F'(0) = c != 0: the zero start assembles the fluxes of zero cell
    # gradients, and the solve meets the exact oracle
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    d = _Tilted(r=2, n=3)
    first, assembled, load_vec = _first_gradient(grid, d)
    assert np.array_equal(first, assembled) and not np.array_equal(first, 0.0 - load_vec)
    # the dense oracle: the quadratic density's Hessian, the tilted load
    free = np.flatnonzero(~grid.dirichlet)
    quadratic = make_density("quadratic", r=2, n=3)
    A = np.array([_hessian_product(grid, e.reshape(grid.shape), quadratic).ravel()[free]
                  for e in np.eye(grid.node_count)[free]]).T
    b = -assemble_energy_gradient(ScalarField(grid, np.zeros(grid.shape)), d, LOAD2).ravel()[free]
    exact = np.linalg.solve(A, b)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations == 1 and rep.mirror_axes == []
    assert np.max(np.abs(u.values.ravel()[free] - exact)) <= 1e-10 * np.max(np.abs(exact))


class _NaNAfterStep(type(make_density("p-dirichlet", 4.0, r=1, n=2))):
    def grad(self, xi):
        return np.full(np.shape(xi), np.nan) if np.any(xi) else super().grad(xi)


class _NaNLine(type(make_density("p-dirichlet", 4.0, r=1, n=2))):
    """Every line-search trial reads NaN, so no step is ever accepted."""

    def line_energy(self, xi, delta):
        return lambda alpha: np.nan


BALL2 = CrossSection("ball", 2)


@pytest.mark.parametrize("cs,ell,h,d,load,opts,exit_", [
    (CS1, 2.0, 1 / 8, make_density("quadratic", r=1, n=2), LOAD2, None, "converged"),
    (CS1, 2.0, 1 / 8, make_density("quadratic", r=1, n=2), Load.constant(0.0), None, "zero load"),
    (CS1, 2.0, 1 / 8, make_density("p-dirichlet", 4.0, r=1, n=2), LOAD2, SolveOptions(max_iters=1), "cap"),
    (BALL2, 2.0, 1 / 4, make_density("p-dirichlet", 4.0, r=2, n=3), LOAD2, SolveOptions(max_iters=2), "cap"),
    (CS1, 2.0, 1 / 8, _NaNLine(4.0, r=1, n=2), LOAD2, None, "line search"),
    (None, None, 1 / 8, make_density("p-dirichlet", 4.0, r=1, n=2), LOAD2,
     SolveOptions(grad_tol=1e-16, max_iters=400), "stagnation"),
    (CS1, 2.0, 1 / 8, _NaNAfterStep(4.0, r=1, n=2), LOAD2, None, "non-finite"),
    (CS1, 4.0, 1 / 16, make_density("quadratic", r=1, n=2), LOAD2, SolveOptions(grad_tol=1e-16), "stagnation"),
], ids=["converged", "zero-load", "cap-box", "cap-ball", "line-search", "stagnation-limit", "non-finite",
        "stagnation"])
def test_every_exit_reports_the_final_iterate(monkeypatch, cs, ell, h, d, load, opts, exit_):
    # each exit of the descent hands back cell gradients derived from its
    # final iterate, and the report's energy and gradient norm, taken from
    # them, are the full grid's formulas of the returned field
    runs = []

    def recording(*args):
        runs.append(_descent(*args))
        return runs[-1]

    monkeypatch.setattr(elongate.solver, "_descent", recording)
    if cs is None:  # the limit problem
        grid, d = build_vertical_grid([1.0], h), d.vertical_restriction()
    else:
        grid = build_grid(DomainSpec(cs, ell, (1.0,)), h)
    u, rep = minimize(grid, d, load, opts)
    (run,) = runs
    assert rep.converged == (exit_ in ("converged", "zero load"))
    assert (rep.iterations == 0) == (exit_ in ("zero load", "line search"))
    if exit_ == "line search":  # the first search halves from the probe at 2 to below 1e-16
        assert rep.trials == 55
    if exit_ == "cap":
        assert rep.iterations == opts.max_iters
    if exit_ == "non-finite":
        assert rep.iterations == 1 and not np.isfinite(rep.grad_max)
    assert np.array_equal(run.grads, _cell_gradients_arr(grid, run.x))
    energy, norm = assemble_energy(u, d, load), lp_norm_p(grid, cell_gradients(u), d.p)
    assert abs(rep.energy - energy) <= 1e-13 * abs(energy)
    assert abs(rep.grad_norm_p - norm) <= 1e-13 * norm


def test_one_iteration_solve_gradient_count():
    # one iteration: the density's gradient at one zero vector (the zero
    # start then needs no assembly), the gradient from the carried cell
    # gradients and the one re-derived from the iterate to confirm
    # convergence, which also gives the reported grad_max
    class CountingQuadratic(type(make_density("quadratic", r=1, n=2))):
        calls = 0

        def grad(self, xi):
            CountingQuadratic.calls += 1
            return super().grad(xi)

    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    u, rep = minimize(grid, CountingQuadratic(2.0, r=1, n=2), LOAD2)
    assert rep.converged and rep.iterations == 1
    assert CountingQuadratic.calls <= 3


def test_p4_box_solve_iterations():
    # the interpolated first step makes the line search near-exact, which
    # preconditioned Polak-Ribiere CG relies on (69 iterations without it)
    grid = build_grid(DomainSpec(CS1, 4.0, (1.0,)), 1 / 16)
    d = make_density("p-dirichlet", 4.0, r=1, n=2)
    u, rep = minimize(grid, d, LOAD2)
    assert rep.converged and rep.iterations <= 62
    assert rep.trials >= rep.iterations


def test_p4_ball_solve_iterations():
    # with the masked preconditioner p = 4 takes 58 iterations here, as the
    # box of test_p4_box_solve_iterations does; the same bound
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 3.0, (1.0,)), 1 / 8)
    d = make_density("p-dirichlet", 4.0, r=2, n=3)
    u, rep = minimize(grid, d, LOAD2)
    assert rep.converged and rep.iterations <= 62
    assert rep.trials >= rep.iterations


def test_separable_p4_box_solve_converges():
    # the box inverse fits this density poorly: 463 iterations and 926
    # trials here (462 and 928 before the single minimizer), against 43
    # iterations for p-dirichlet on the same grid; the bound leaves 2x headroom
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    d = make_density("separable-p", 4.0, r=1, n=2)
    u, rep = minimize(grid, d, LOAD2)
    assert rep.converged
    assert rep.trials >= rep.iterations
    assert rep.iterations <= 1000


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0)])
@pytest.mark.parametrize("ell", [3.0, 4.0])
def test_box_solve_carries_no_checkerboard(kind, p, ell):
    # (-1)^(i+j) phi(z) over the horizontal node indices costs no energy
    # under one-point quadrature; on box grids the load barely excites it,
    # and u stays below the limit's maximum as the comparison principle
    # asks (ball grids break both; measured amplitude 3.4e-4 and 7.3e-5
    # quadratic, 4.9e-4 and 2.9e-4 at p = 4; max u - max w at most +4.6e-4)
    d = make_density(kind, p, r=2, n=3)
    grid = build_grid(DomainSpec(CrossSection("box", 2), ell, (1.0,)), 1 / 8)
    w, _ = solve_limit(build_vertical_grid((1.0,), 1 / 8), d, LOAD2)
    u, rep = minimize(grid, d, LOAD2)
    assert rep.converged
    i, j = np.ogrid[: grid.shape[0], : grid.shape[1]]
    core = grid.node_gauge() < 1.0
    diff = ((-1.0) ** (i + j))[..., None] * (u.values - extend_vertical(w, grid).values)
    amplitude = np.max(np.abs(diff[core].mean(axis=0)))  # the largest over vertical levels
    assert amplitude < 1e-3
    assert np.max(u.values) <= np.max(w.values) + 1e-3


def test_stagnated_solve_stops():
    # grad_tol 1e-16 is below the round-off floor of the quadratic solve:
    # the solve stops once its steps no longer move the field
    grid = build_grid(DomainSpec(CS1, 4.0, (1.0,)), 1 / 16)
    d = make_density("quadratic", r=1, n=2)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-16))
    assert not rep.converged
    assert 0 < rep.iterations < 100
    assert np.all(np.isfinite(u.values))


def test_warm_start_equivalence():
    grid = build_grid(DomainSpec(CS1, 3.0, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    opts = SolveOptions(grad_tol=1e-10)
    u_cold, rep_cold = minimize(grid, d, LOAD2, opts)
    vg = build_vertical_grid([1.0], 1 / 8)
    w, _ = solve_limit(vg, d, LOAD2, opts)
    u_warm, rep_warm = minimize(grid, d, LOAD2, opts, warm_start=extend_vertical(w, grid))
    scale = max(1.0, abs(rep_cold.energy))
    assert abs(rep_cold.energy - rep_warm.energy) <= 10 * 1e-10 * scale


# the quadratic case is a cross-coupled density on a ball grid, which the
# preconditioner (the inverse of the plain quadratic Hessian) does not
# solve in one iteration
@pytest.mark.parametrize("kind,p,cs,ell,h,gtol", [
    ("p-dirichlet", 4.0, CS1, 1.0, 1 / 4, 1e-7),
    ("cross-coupled", None, CrossSection("ball", 2), 2.0, 1 / 4, 1e-10),
], ids=["p-dirichlet", "quadratic"])
def test_descent_methods_monotone_energy(kind, p, cs, ell, h, gtol):
    grid = build_grid(DomainSpec(cs, ell, (1.0,)), h)
    d = _CrossCoupled(r=cs.r, n=cs.r + 1) if kind == "cross-coupled" else make_density(kind, p, r=cs.r, n=cs.r + 1)
    opts = SolveOptions(grad_tol=gtol, max_iters=3000)
    energies = []

    def track(_k, values):
        energies.append(assemble_energy(ScalarField(grid, values, project=False), d, LOAD2))

    u, rep = minimize(grid, d, LOAD2, opts, callback=track)
    assert rep.converged and len(energies) == rep.iterations > 1
    diffs = np.diff(np.array(energies))
    assert np.all(diffs <= 1e-14 * max(1.0, abs(energies[0])))


def test_solve_limit_requires_vertical_grid():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    with pytest.raises(ValueError):
        solve_limit(grid, d, LOAD2)
    # a restriction to one vertical component on a grid with two: minimize says so
    with pytest.raises(ValueError, match="density acts on 1 components, grid has 2"):
        solve_limit(build_vertical_grid([1.0, 0.5], 1 / 4), d, LOAD2)


@pytest.mark.parametrize("kind,p,gtol", [("quadratic", None, 1e-10), ("p-dirichlet", 4.0, 1e-9)])
def test_minimality_audit_accepts_converged_solution(kind, p, gtol):
    grid = build_grid(DomainSpec(CS1, 3.0, (1.0,)), 1 / 8)
    d = make_density(kind, p, r=1, n=2)
    opts = SolveOptions(grad_tol=gtol)
    u, rep = minimize(grid, d, LOAD2, opts)
    assert rep.converged
    vg = build_vertical_grid([1.0], 1 / 8)
    w, _ = solve_limit(vg, d, LOAD2, opts)
    report = minimality_audit(u, d, LOAD2, w, seed=5, grad_tol=gtol)
    assert report.violations == 0
    assert report.worst_gap <= report.tol


def test_minimality_audit_identity_trial_is_exact():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    u, _ = minimize(grid, d, LOAD2)
    vg = build_vertical_grid([1.0], 1 / 4)
    w, _ = solve_limit(vg, d, LOAD2)
    report = minimality_audit(u, d, LOAD2, w)
    assert report.violations == 0
    # the default battery: identity, zero field, 3 far cuts, 100 bumps and
    # 20 blends; every competitor costs more, so the worst gap is the
    # identity's, exactly 0
    assert report.trials == 125
    assert (report.worst_trial, report.worst_gap) == ("identity", 0.0)


@pytest.mark.parametrize("ell,trials", [(1.0, 123), (1.25, 123), (2.0, 125)])
def test_minimality_audit_runs_each_far_cut_level_once(ell, trials):
    # the three far-cut levels run from ell / 4 to max(ell / 4, ell - 1),
    # so they coincide when ell <= 4/3 and that cut runs once
    grid = build_grid(DomainSpec(CS1, ell, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    u, _ = minimize(grid, d, LOAD2)
    w, _ = solve_limit(build_vertical_grid([1.0], 1 / 4), d, LOAD2)
    assert minimality_audit(u, d, LOAD2, w).trials == trials


def _random_field_audit(grad_tol):
    """The audit of a random field on the ``ell = 2``, ``h = 1/8`` box."""
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    w, _ = solve_limit(build_vertical_grid([1.0], 1 / 8), d, LOAD2)
    u = ScalarField(grid, np.random.default_rng(0).standard_normal(grid.shape))
    return minimality_audit(u, d, LOAD2, w, grad_tol=grad_tol)


@pytest.mark.parametrize("gtol", [np.nan, np.inf, -np.inf, 0.0, -1.0, True, "1e-9"],
                         ids=["nan", "inf", "-inf", "0", "-1", "True", "str"])
def test_minimality_audit_rejects_a_bad_grad_tol(gtol):
    # NaN or inf made the threshold such that no trial counted, so a random
    # field passed; -1 flagged every trial.  The audit checks the value as
    # SolveOptions does, and so fails where minimize fails
    with pytest.raises(ValueError, match="grad_tol"):
        _random_field_audit(gtol)


@pytest.mark.parametrize("gtol", [None, 1e-9])
def test_minimality_audit_flags_a_random_field(gtol):
    report = _random_field_audit(gtol)
    assert report.trials == 125 and 0 < report.violations < report.trials


def test_minimality_audit_flags_nonminimizer():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    vg = build_vertical_grid([1.0], 1 / 4)
    w, _ = solve_limit(vg, d, LOAD2)
    bogus = ScalarField(grid, np.zeros(grid.shape))
    report = minimality_audit(bogus, d, LOAD2, w, seed=2)
    assert report.violations > 0
    assert report.worst_gap > report.tol


def test_report_serialization():
    vg = build_vertical_grid([1.0], 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    _, rep = solve_limit(vg, d, LOAD2)
    data = dataclasses.asdict(rep)
    assert data["converged"] is True
    assert data["trials"] >= data["iterations"]
