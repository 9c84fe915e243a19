import json

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
    cell_gradients,
    extend_vertical,
    lp_norm_p,
    make_density,
    minimize,
    poincare_ratio,
    region_cells,
    save_field,
)
from elongate.field import (
    _assemble_gradient_arr,
    _cell_gradients_arr,
    _gradient_scales,
    _load_vector,
    _pair,
    _pair_adjoint,
    load_cell_values,
)
from elongate.solver import _halve

CS1 = CrossSection("box", 1)


def _grid(ell=2.0, halfwidths=(1.0,), h=0.5):
    return build_grid(DomainSpec(CS1, ell, halfwidths), h)


def test_cell_gradient_affine_exactness():
    grid = _grid()
    v = ScalarField(grid, np.broadcast_to(grid.node_meshgrid()[0], grid.shape), project=False)
    g = cell_gradients(v)
    assert np.allclose(g[..., 0], 1.0, atol=1e-13)
    assert np.allclose(g[..., 1], 0.0, atol=1e-13)


@pytest.mark.parametrize("cs,ell", [(CS1, 2.0), (CrossSection("ball", 2), 1.5)], ids=["box-2d", "ball-3d"])
def test_cell_gradient_components_are_contiguous(cs, ell):
    # the densities' per-component passes rely on this layout, and every
    # built-in grad keeps it
    grid = build_grid(DomainSpec(cs, ell, (1.0,)), 0.25)
    x = np.random.default_rng(3).standard_normal(grid.shape)
    G = _cell_gradients_arr(grid, x)
    assert G.shape == grid.cell_shape + (grid.n,)
    densities = [make_density("quadratic", r=grid.r, n=grid.n)] + [
        make_density(k, p, grid.r, grid.n) for k in ("p-dirichlet", "separable-p") for p in (2.0, 3.0, 4.0)
    ]
    for arr in [G] + [d.grad(G) for d in densities]:
        assert all(arr[..., a].flags.c_contiguous for a in range(grid.n))


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
    assert assemble_energy(ScalarField(grid, np.zeros(grid.shape)), d, Load.constant(5.0)) == 0.0


def test_energy_unit_cell_example():
    grid = build_grid(DomainSpec(CS1, 0.5, (0.5,)), 1.0)
    v = ScalarField(grid, np.broadcast_to(grid.node_meshgrid()[0], grid.shape), project=False)
    d = make_density("quadratic", r=1, n=2)
    assert assemble_energy(v, d, Load.constant(0.0)) == pytest.approx(0.5)


def test_energy_dimension_mismatch():
    grid = _grid()
    d = make_density("quadratic", r=1, n=3)
    with pytest.raises(ValueError):
        assemble_energy(ScalarField(grid, np.zeros(grid.shape)), d, Load.constant(1.0))


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
    interior = np.argwhere(~grid.dirichlet)
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
    for idx in map(tuple, np.argwhere(~grid.dirichlet)):
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
    v = ScalarField(grid, np.broadcast_to(grid.node_meshgrid()[0], grid.shape), project=False)
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
    w = ScalarField(vg, 1 - vg.axis_nodes(0) ** 2)
    ext = extend_vertical(w, grid)
    g = cell_gradients(ext)
    assert np.allclose(g[1:-1, :, 0], 0.0, atol=1e-13)  # away from the lateral layer
    mid = grid.shape[0] // 2
    assert np.allclose(ext.values[mid], w.values)
    assert np.all(extend_vertical(ScalarField(vg, np.zeros(vg.shape)), grid).values == 0.0)


def test_extend_vertical_rejects_mismatched_axes():
    grid = _grid(ell=3.0, h=0.25)
    other = build_vertical_grid([1.0], 0.2)
    with pytest.raises(ValueError):
        extend_vertical(ScalarField(other, np.zeros(other.shape)), grid)


def test_poincare_zero_field_convention():
    grid = _grid()
    assert poincare_ratio(ScalarField(grid, np.zeros(grid.shape)), 2.0) == 0.0


def test_poincare_eigenfunction_ratio():
    # sharp constant 2/pi from the lowest vertical eigenvalue (pi/2)^2
    vg = build_vertical_grid([1.0], 1 / 32)
    w = ScalarField(vg, np.cos(np.pi * vg.axis_nodes(0) / 2))
    assert poincare_ratio(w, 2.0) == pytest.approx(2 / np.pi, rel=0.02)
    grid = _grid(ell=4.0, h=1 / 32)
    ext = ScalarField(grid, np.broadcast_to(np.cos(np.pi * grid.axis_nodes(1) / 2), grid.shape))
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
    # the on-disk format itself: raw little-endian float64 in C order, and
    # a JSON header that names it
    with open(prefix + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    assert header["format"] == "raw-float64-le"
    assert header["shape"] == list(grid.shape)
    assert header["h"] == list(grid.h)
    vals = np.fromfile(prefix + ".bin", dtype="<f8").reshape(header["shape"])
    assert np.array_equal(vals, v.values)


def test_load_evaluate():
    grid = _grid()
    d = make_density("quadratic", r=1, n=2)
    opts = SolveOptions(grad_tol=1e-6)
    prof = Load.sampled(lambda y: y * y)
    ys = grid.axis_centers(1)
    assert np.allclose(prof.evaluate(ys), ys**2)
    # the solve's stopping threshold scales with sup|load| at the vertical centroids
    for load, sup in ((Load.constant(-2.0), 2.0), (prof, float(np.max(ys**2)))):
        _, rep = minimize(grid, d, load, opts)
        assert rep.grad_tol_abs == 1e-6 * sup * grid.cell_volume


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_load_constant_rejects_non_finite(value):
    with pytest.raises(ValueError):
        Load.constant(value)


@pytest.mark.parametrize("cells", range(2, 20))
def test_pair_adjoint_is_the_transpose_of_pair(cells):
    # every node against the transposed matrix of _pair, the first node of
    # each axis included (a free node on the mirror plane of a halved
    # solve); with 8 cells on the last axis the first nodes once came out
    # wrong (np.negative from an input of stride 64 bytes, numpy 2.4.6)
    shape = (3, 5, cells + 1)
    eye = np.eye(np.prod(shape))
    rng = np.random.default_rng(cells)
    for axis in range(len(shape)):
        for op, diff in ((np.subtract, True), (np.add, False)):
            matrix = np.stack([_pair(e.reshape(shape), axis, op).ravel() for e in eye], axis=1)
            edges = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:]
            contrib = rng.standard_normal(edges)
            assert np.array_equal(_pair_adjoint(contrib, axis, diff).ravel(), matrix.T @ contrib.ravel())


def _per_component_assembly(grid, grads, density, load_vec):
    """The gradient assembly one component at a time: the adjoint of the
    difference along the component's axis and of the sum along every other."""
    gF = density.grad(grads)
    out = -load_vec
    for a, scale in enumerate(_gradient_scales(grid.h)[1]):
        comp = np.where(grid.cell_mask, gF[..., a] * scale, 0.0)
        for b in range(grid.n):
            comp = _pair_adjoint(comp, b, b == a)
        out = out + comp
    out[grid.dirichlet] = 0.0
    return out


@pytest.mark.parametrize("grid", [
    build_vertical_grid((1.0,), 1 / 8),
    build_grid(DomainSpec(CS1, 2.0, (1.0,)), 1 / 8),
    build_grid(DomainSpec(CrossSection("ball", 2), 1.5, (1.0,)), 1 / 8),
], ids=["n1", "n2", "n3-ball"])
def test_merged_assembly_matches_the_per_component_sum(grid):
    # one pass along the last axis for every component: the same gradient
    # as the per-component sum, to round-off, on the grid and halved along
    # every axis, where the first node of each axis is free
    rng = np.random.default_rng(grid.n)
    half = _halve(grid, tuple(range(grid.n)))
    assert not half.dirichlet[..., 0].all()
    for sub in (grid, half):
        load_vec = _load_vector(sub, load_cell_values(sub, Load.constant(2.0)))
        x = rng.standard_normal(sub.shape)
        x[sub.dirichlet] = 0.0
        grads = _cell_gradients_arr(sub, x)
        for d in (make_density("quadratic", r=sub.r, n=sub.n), make_density("p-dirichlet", 4.0, r=sub.r, n=sub.n)):
            expected = _per_component_assembly(sub, grads, d, load_vec)
            got = _assemble_gradient_arr(sub, grads, d, load_vec)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
