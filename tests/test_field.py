import numpy as np
import pytest

from elongate import (
    CrossSection,
    DomainSpec,
    Load,
    ScalarField,
    assemble_energy,
    assemble_energy_gradient,
    build_grid,
    build_vertical_grid,
    cell_gradients,
    embed_field,
    extend_vertical,
    load_field,
    lp_norm_p,
    make_density,
    poincare_ratio,
    region_cells,
    save_field,
)

CS1 = CrossSection("box", 1)


def _grid(ell=2.0, halfwidths=(1.0,), h=0.5):
    return build_grid(DomainSpec(CS1, ell, halfwidths), h)


def test_cell_gradient_affine_exactness():
    grid = _grid()
    v = ScalarField.from_function(grid, lambda x, y: x, project=False)
    g = cell_gradients(v)
    assert np.allclose(g[..., 0], 1.0, atol=1e-13)
    assert np.allclose(g[..., 1], 0.0, atol=1e-13)


def test_cell_gradient_constant_field():
    grid = _grid()
    v = ScalarField(grid, np.full(grid.shape, 3.7), project=False)
    assert np.allclose(cell_gradients(v), 0.0)


def test_cell_gradient_single_cell_formula():
    grid = build_grid(DomainSpec(CS1, 0.5, (0.5,)), 1.0)
    assert grid.cell_shape == (1, 1)
    v = ScalarField(grid, np.array([[0.0, 0.0], [1.0, 1.0]]), project=False)
    assert np.allclose(cell_gradients(v)[0, 0], [1.0, 0.0])


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0), ("separable-p", 4.0)])
def test_energy_of_zero_field(kind, p):
    grid = _grid()
    d = make_density(kind, p, r=1, n=2)
    assert assemble_energy(ScalarField.zeros(grid), d, Load.constant(5.0)) == 0.0


def test_energy_unit_cell_example():
    grid = build_grid(DomainSpec(CS1, 0.5, (0.5,)), 1.0)
    v = ScalarField.from_function(grid, lambda x, y: x, project=False)
    d = make_density("quadratic", r=1, n=2)
    assert assemble_energy(v, d, Load.constant(0.0)) == pytest.approx(0.5)


def test_energy_dimension_mismatch():
    grid = _grid()
    d = make_density("quadratic", r=1, n=3)
    with pytest.raises(ValueError):
        assemble_energy(ScalarField.zeros(grid), d, Load.constant(1.0))


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0), ("separable-p", 4.0)])
def test_energy_gradient_matches_finite_differences(kind, p):
    grid = _grid()
    d = make_density(kind, p, r=1, n=2)
    load = Load.constant(2.0)
    rng = np.random.default_rng(0)
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    g = assemble_energy_gradient(v, d, load)
    assert np.all(g[grid.dirichlet] == 0.0)
    step = 1e-6 * max(1.0, float(np.max(np.abs(v.values))))
    interior = np.argwhere(grid.interior)
    for i, j in interior[rng.integers(0, len(interior), 20)]:
        vp = np.array(v.values)
        vp[i, j] += step
        vm = np.array(v.values)
        vm[i, j] -= step
        fd = (
            assemble_energy(ScalarField(grid, vp, project=False), d, load)
            - assemble_energy(ScalarField(grid, vm, project=False), d, load)
        ) / (2 * step)
        assert abs(g[i, j] - fd) <= 1e-6 * max(abs(g[i, j]), abs(fd), 1e-8)


def test_energy_gradient_matches_finite_differences_on_ball_grid():
    # masked cells carry neither density nor load, in the energy and in
    # the nodal load vector of its gradient alike
    grid = build_grid(DomainSpec(CrossSection("ball", 2), 1.0, (0.5,)), 0.25)
    assert not grid.cell_mask.all()
    d = make_density("p-dirichlet", 4.0, r=2, n=3)
    load = Load.constant(2.0)
    rng = np.random.default_rng(1)
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    g = assemble_energy_gradient(v, d, load)
    step = 1e-6 * max(1.0, float(np.max(np.abs(v.values))))
    for idx in map(tuple, np.argwhere(grid.interior)):
        vp = np.array(v.values)
        vp[idx] += step
        vm = np.array(v.values)
        vm[idx] -= step
        fd = (
            assemble_energy(ScalarField(grid, vp, project=False), d, load)
            - assemble_energy(ScalarField(grid, vm, project=False), d, load)
        ) / (2 * step)
        assert abs(g[idx] - fd) <= 1e-6 * max(abs(g[idx]), abs(fd), 1e-8)


@pytest.mark.parametrize("kind,p", [("quadratic", None), ("p-dirichlet", 4.0)])
def test_energy_is_convex_along_segments(kind, p):
    grid = _grid(h=0.25)
    d = make_density(kind, p, r=1, n=2)
    load = Load.constant(2.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = ScalarField(grid, rng.standard_normal(grid.shape))
        b = ScalarField(grid, rng.standard_normal(grid.shape))
        mid = ScalarField(grid, 0.5 * (a.values + b.values))
        ja, jb, jm = (assemble_energy(f, d, load) for f in (a, b, mid))
        assert jm <= 0.5 * (ja + jb) + 1e-12 * (1 + abs(ja) + abs(jb))


def test_lp_norm_constant_is_volume():
    grid = _grid()
    ones = np.ones(grid.cell_shape)
    vol = grid.cell_volume * np.prod(grid.cell_shape)
    assert lp_norm_p(grid, ones, 3.0) == pytest.approx(vol)


def test_lp_norm_region_additivity():
    grid = _grid(ell=4.0, h=0.4)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.cell_shape + (2,))
    core = region_cells(grid, "core", 1.2)
    slab = region_cells(grid, "slab", 1.2, 3.1)
    total = region_cells(grid, "core", 3.1)
    a = lp_norm_p(grid, vals, 4.0, core) + lp_norm_p(grid, vals, 4.0, slab)
    assert a == pytest.approx(lp_norm_p(grid, vals, 4.0, total), rel=1e-13)


def test_lp_norm_gradient_example():
    grid = _grid(ell=1.0, h=0.25)
    v = ScalarField.from_function(grid, lambda x, y: x, project=False)
    assert lp_norm_p(grid, cell_gradients(v), 2.0) == pytest.approx(4.0)


def test_lp_norm_validation():
    grid = _grid()
    with pytest.raises(ValueError):
        lp_norm_p(grid, np.ones(grid.cell_shape), 0.5)
    with pytest.raises(ValueError):
        lp_norm_p(grid, np.ones(3), 2.0)
    assert lp_norm_p(grid, np.ones(grid.cell_shape), 2.0, np.zeros(grid.cell_shape, bool)) == 0.0


def test_extend_vertical_constant_in_horizontal():
    grid = _grid(ell=3.0, h=0.25)
    vg = build_vertical_grid([1.0], 0.25)
    w = ScalarField.from_function(vg, lambda y: 1 - y * y)
    ext = extend_vertical(w, grid)
    g = cell_gradients(ext)
    assert np.allclose(g[1:-1, :, 0], 0.0, atol=1e-13)  # away from the lateral layer
    mid = grid.shape[0] // 2
    assert np.allclose(ext.values[mid], w.values)
    assert np.all(extend_vertical(ScalarField.zeros(vg), grid).values == 0.0)


def test_extend_vertical_rejects_mismatched_axes():
    grid = _grid(ell=3.0, h=0.25)
    other = build_vertical_grid([1.0], 0.2)
    with pytest.raises(ValueError):
        extend_vertical(ScalarField.zeros(other), grid)


def test_embed_field_pads_with_zeros():
    small = _grid(ell=2.0, h=0.5)
    big = _grid(ell=3.0, h=0.5)
    rng = np.random.default_rng(3)
    u = ScalarField(small, rng.standard_normal(small.shape))
    out = embed_field(u, big)
    assert np.allclose(out.values[2:-2, :], u.values)
    assert np.all(out.values[:2, :] == 0.0) and np.all(out.values[-2:, :] == 0.0)


def test_poincare_zero_field_convention():
    grid = _grid()
    assert poincare_ratio(ScalarField.zeros(grid), 2.0) == 0.0


def test_poincare_eigenfunction_ratio():
    # sharp constant 2/pi from the lowest vertical eigenvalue (pi/2)^2
    vg = build_vertical_grid([1.0], 1 / 32)
    w = ScalarField.from_function(vg, lambda y: np.cos(np.pi * y / 2))
    assert poincare_ratio(w, 2.0) == pytest.approx(2 / np.pi, rel=0.02)
    grid = _grid(ell=4.0, h=1 / 32)
    ext = ScalarField.from_function(grid, lambda x, y: np.cos(np.pi * y / 2))
    assert poincare_ratio(ext, 2.0) == pytest.approx(2 / np.pi, rel=0.02)


def test_poincare_bound_random_fields():
    grid = _grid(ell=1.0, h=1 / 16)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = ScalarField(grid, rng.standard_normal(grid.shape))
        assert poincare_ratio(v, 2.0) <= 2 / np.pi + 0.02


def test_scalar_field_invariants():
    grid = _grid()
    rng = np.random.default_rng(0)
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    assert np.all(v.values[grid.dirichlet] == 0.0)
    with pytest.raises(ValueError):
        v.values[1, 1] = 3.0
    with pytest.raises(AttributeError):
        v.values = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((2, 2)))


def test_field_dump_round_trip(tmp_path):
    grid = _grid()
    rng = np.random.default_rng(6)
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    prefix = str(tmp_path / "field")
    save_field(v, prefix)
    vals, header = load_field(prefix)
    assert np.array_equal(vals, v.values)
    assert header["shape"] == list(grid.shape)
    assert header["h"] == list(grid.h)


def test_load_evaluate():
    grid = _grid()
    const = Load.constant(2.0)
    assert const.max_abs(grid) == 2.0
    prof = Load.sampled(lambda y: y * y)
    ys = grid.axis_centers(1)
    assert np.allclose(prof.evaluate(ys), ys**2)
    assert prof.max_abs(grid) == pytest.approx(float(np.max(ys**2)))
    assert Load.conjugate_exponent(4.0) == pytest.approx(4 / 3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_load_constant_rejects_non_finite(value):
    with pytest.raises(ValueError):
        Load.constant(value)
