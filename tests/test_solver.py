import dataclasses

import numpy as np
import pytest

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
    extend_vertical,
    make_density,
    minimality_audit,
    minimize,
    oracle_1d,
    solve_limit,
    sup_error,
)
from elongate.solver import _box_inverse

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
    # ball grid: the box preconditioner is inexact, two iterations fall short
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=2, n=3)
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

    d = NaNGradient(r=1, n=2) if p is None else NaNGradient(p, r=1, n=2)
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(max_iters=1000))
    assert not rep.converged
    assert rep.iterations <= 1


def _random_box_grid(rng, r, vertical):
    """Box grid with random elongation, halfwidths and spacing (anisotropic h)."""
    hw = tuple(rng.uniform(0.3, 1.2) for _ in range(vertical))
    h = rng.uniform(0.06, 0.15) if r + vertical < 3 else rng.uniform(0.12, 0.25)
    if r == 0:
        return build_vertical_grid(hw, h)
    return build_grid(DomainSpec(CrossSection("box", r), rng.uniform(0.5, 2.5), hw), h)


def _hessian_product(grid, values):
    d = make_density("quadratic", r=grid.r, n=grid.n)
    return assemble_energy_gradient(ScalarField(grid, values), d, Load.constant(0.0))


@pytest.mark.parametrize("r,vertical", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_box_inverse_inverts_quadratic_hessian(r, vertical, seed):
    # exact oracle: on box grids the preconditioner is the inverse of the
    # assembled quadratic Hessian on the free nodes
    rng = np.random.default_rng(100 * seed + 10 * r + vertical)
    grid = _random_box_grid(rng, r, vertical)
    assert grid.n == 1 or len(set(grid.h)) > 1
    apply_inverse = _box_inverse(grid)
    for _ in range(3):
        x = rng.standard_normal(grid.shape)
        x[grid.dirichlet] = 0.0
        z = apply_inverse(_hessian_product(grid, x))
        assert np.max(np.abs(z - x)) <= 1e-12 * np.max(np.abs(x))
        b = rng.standard_normal(grid.shape)
        b[grid.dirichlet] = 0.0
        Ab = _hessian_product(grid, apply_inverse(b))
        assert np.max(np.abs(Ab - b)) <= 1e-12 * np.max(np.abs(b))


def test_quadratic_box_solve_is_one_iteration():
    grid = build_grid(DomainSpec(CrossSection("box", 2), 1.5, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=2, n=3)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations == 1


def test_ball_solve_matches_dense_solve():
    # exact oracle on a masked grid, where the box inverse is only a
    # preconditioner: the dense assembled system solved directly
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    d = make_density("quadratic", r=2, n=3)
    free = np.flatnonzero(grid.interior)
    columns = []
    for i in free:
        e = np.zeros(grid.node_count)
        e[i] = 1.0
        columns.append(_hessian_product(grid, e.reshape(grid.shape)).ravel()[free])
    A = np.array(columns).T
    assert np.allclose(A, A.T, rtol=0, atol=1e-14 * np.max(np.abs(A)))
    b = -assemble_energy_gradient(ScalarField.zeros(grid), d, LOAD2).ravel()[free]
    exact = np.linalg.solve(A, b)
    u, rep = minimize(grid, d, LOAD2, SolveOptions(grad_tol=1e-12))
    assert rep.converged and rep.iterations > 1
    assert np.max(np.abs(u.values.ravel()[free] - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_quadratic_ball_solve_iterations():
    # the interpolated step is exact on a quadratic only if its clamp lets
    # it through: 34 iterations with the clamp at 1e3, 54 at 10
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 2.0, (1.0,)), 1 / 8)
    d = make_density("quadratic", r=2, n=3)
    u, rep = minimize(grid, d, LOAD2)
    assert rep.converged and rep.iterations <= 40
    # the solve carries cell gradients, but confirms convergence on a
    # gradient assembled from the field itself
    assert rep.grad_max == np.max(np.abs(assemble_energy_gradient(u, d, LOAD2)))


def test_one_iteration_solve_gradient_count():
    # one iteration: the initial gradient, the gradient from the carried
    # cell gradients and the one re-derived from the iterate to confirm
    # convergence, which also gives the reported grad_max
    class CountingQuadratic(type(make_density("quadratic", r=1, n=2))):
        calls = 0

        def grad(self, xi):
            CountingQuadratic.calls += 1
            return super().grad(xi)

    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8)
    u, rep = minimize(grid, CountingQuadratic(r=1, n=2), LOAD2)
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


# the quadratic case solves on a ball grid, where it takes more than the one
# iteration of a box grid
@pytest.mark.parametrize("kind,p,cs,ell,h,gtol", [
    ("p-dirichlet", 4.0, CS1, 1.0, 1 / 4, 1e-7),
    ("quadratic", None, CrossSection("ball", 2), 2.0, 1 / 4, 1e-10),
], ids=["p-dirichlet", "quadratic"])
def test_descent_methods_monotone_energy(kind, p, cs, ell, h, gtol):
    grid = build_grid(DomainSpec(cs, ell, (1.0,)), h)
    d = make_density(kind, p, r=cs.r, n=cs.r + 1)
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


@pytest.mark.parametrize("kind,p,gtol", [("quadratic", None, 1e-10), ("p-dirichlet", 4.0, 1e-9)])
def test_minimality_audit_accepts_converged_solution(kind, p, gtol):
    grid = build_grid(DomainSpec(CS1, 3.0, (1.0,)), 1 / 8)
    d = make_density(kind, p, r=1, n=2)
    opts = SolveOptions(grad_tol=gtol)
    u, rep = minimize(grid, d, LOAD2, opts)
    assert rep.converged
    vg = build_vertical_grid([1.0], 1 / 8)
    w, _ = solve_limit(vg, d, LOAD2, opts)
    report = minimality_audit(
        u, grid, d, LOAD2, extend_vertical(w, grid), trials=50, blend_trials=10, seed=5,
        grad_tol=gtol,
    )
    assert report.violations == 0
    assert report.worst_gap <= report.tol


def test_minimality_audit_identity_trial_is_exact():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    u, _ = minimize(grid, d, LOAD2)
    vg = build_vertical_grid([1.0], 1 / 4)
    w, _ = solve_limit(vg, d, LOAD2)
    report = minimality_audit(
        u, grid, d, LOAD2, extend_vertical(w, grid), trials=0, blend_trials=1, seed=0,
        alpha=0.5, s=1.5, t=0.5,
    )
    assert report.violations == 0


def test_minimality_audit_flags_nonminimizer():
    grid = build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 4)
    d = make_density("quadratic", r=1, n=2)
    vg = build_vertical_grid([1.0], 1 / 4)
    w, _ = solve_limit(vg, d, LOAD2)
    bogus = ScalarField(grid, np.zeros(grid.shape))
    report = minimality_audit(bogus, grid, d, LOAD2, extend_vertical(w, grid), trials=20,
                              blend_trials=10, seed=2)
    assert report.violations > 0
    assert report.worst_gap > report.tol


def test_report_serialization():
    vg = build_vertical_grid([1.0], 1 / 8)
    d = make_density("quadratic", r=1, n=2)
    _, rep = solve_limit(vg, d, LOAD2)
    data = rep.to_json()
    assert data["converged"] is True
    assert data["trials"] >= data["iterations"]
