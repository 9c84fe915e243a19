import math

import numpy as np
import pytest

from elongate import (
    CrossSection,
    DomainSpec,
    NodeBudgetError,
    build_grid,
    build_vertical_grid,
    cutoff,
    gauge,
    region_cells,
)

BOX2 = CrossSection("box", 2)
BALL2 = CrossSection("ball", 2)


def test_gauge_box_is_max_coordinate():
    assert gauge(BOX2, (0.3, -0.8)) == pytest.approx(0.8)


def test_gauge_ball_is_euclidean_norm():
    assert gauge(BALL2, (0.6, 0.8)) == pytest.approx(1.0)


def test_gauge_homogeneity_example():
    assert gauge(BOX2, (0.6, -1.6)) == pytest.approx(1.6)


def test_gauge_dimension_mismatch():
    with pytest.raises(ValueError):
        gauge(BOX2, (1.0, 2.0, 3.0))


@pytest.mark.parametrize("cs", [BOX2, BALL2, CrossSection("box", 1), CrossSection("ball", 3)])
def test_gauge_homogeneity_property(cs):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1000, cs.r)) * 10.0 ** rng.uniform(-2, 2, (1000, 1))
    lam = 10.0 ** rng.uniform(-2, 2, 1000)
    g = gauge(cs, x)
    gs = gauge(cs, lam[:, None] * x)
    bound = 1e-12 * (1.0 + lam * np.sqrt((x * x).sum(axis=1)))
    assert np.all(np.abs(gs - lam * g) <= bound)
    assert gauge(cs, np.zeros(cs.r)) == 0.0


@pytest.mark.parametrize("cs", [BOX2, BALL2, CrossSection("ball", 1)])
def test_gauge_lipschitz_and_norm_equivalence(cs):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1000, cs.r)) * 3
    y = rng.standard_normal((1000, cs.r)) * 3
    # the Euclidean Lipschitz constant K and the norm-equivalence constants
    # r1 |x| <= gauge(x) <= r2 |x|: sqrt(r), 1/sqrt(r) and 1 for the box
    lipschitz_K, r1, r2 = (math.sqrt(cs.r), 1.0 / math.sqrt(cs.r), 1.0) if cs.shape == "box" else (1.0, 1.0, 1.0)
    gx, gy = gauge(cs, x), gauge(cs, y)
    dist = np.sqrt(((x - y) ** 2).sum(axis=1))
    assert np.all(np.abs(gx - gy) <= lipschitz_K * dist + 1e-12)
    nx = np.sqrt((x * x).sum(axis=1))
    assert np.all(r1 * nx <= gx + 1e-12)
    assert np.all(gx <= r2 * nx + 1e-12)


def test_cutoff_plateau_and_support():
    s, t = 3.0, 1.0
    assert cutoff(BOX2, (0.5, 0.0), s, t) == pytest.approx(1.0)  # gauge = t/2
    assert cutoff(BOX2, (4.0, 0.0), s, t) == pytest.approx(0.0)  # gauge = s + 1
    assert cutoff(BOX2, (2.0, 0.0), s, t) == pytest.approx(0.5)  # gauge = (s+t)/2


def test_cutoff_range_and_monotonicity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((500, 2)) * 4
    rho = cutoff(BALL2, x, 2.5, 1.0)
    assert np.all((rho >= 0) & (rho <= 1))
    g = gauge(BALL2, x)
    order = np.argsort(g)
    assert np.all(np.diff(rho[order]) <= 1e-12)


def test_cutoff_rejects_bad_levels():
    with pytest.raises(ValueError):
        cutoff(BOX2, (0.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        cutoff(BOX2, (0.0, 0.0), 1.0, 2.0)


def test_build_grid_9x5():
    dom = DomainSpec(CrossSection("box", 1), 2.0, (1.0,))
    grid = build_grid(dom, 0.5)
    assert grid.shape == (9, 5)
    assert grid.h == (0.5, 0.5)
    assert grid.cell_volume == pytest.approx(0.25)


def test_build_grid_spacing_divides_exactly():
    dom = DomainSpec(CrossSection("box", 1), 1.0, (1.0,))
    grid = build_grid(dom, 0.3)
    # extent 2.0 / 7 cells = 0.2857... is the largest spacing <= 0.3
    assert grid.shape[0] == 8
    assert grid.h[0] == pytest.approx(2.0 / 7.0)


def test_boundary_nodes_are_fixed():
    dom = DomainSpec(CrossSection("box", 1), 1.0, (1.0,))
    grid = build_grid(dom, 1.0)
    assert grid.dirichlet[0, 0] and grid.dirichlet[-1, 0]
    assert grid.dirichlet[0, -1] and grid.dirichlet[-1, -1]
    assert not grid.dirichlet[1, 1]


def test_ball_staircase_mask():
    dom = DomainSpec(CrossSection("ball", 2), 1.0, (1.0,))
    grid = build_grid(dom, 0.5)
    ng = grid.node_gauge()
    fixed_h = grid.dirichlet[..., 1]  # any interior vertical layer
    assert np.all(fixed_h[ng >= 1.0])
    assert not np.any(fixed_h[ng < 1.0 - 1e-12])
    cg = grid.cell_gauge()
    assert np.array_equal(grid.cell_mask[..., 0], cg < 1.0)


def test_node_budget_guard():
    dom = DomainSpec(CrossSection("box", 1), 2.0, (1.0,))
    with pytest.raises(NodeBudgetError):
        build_grid(dom, 0.5, max_nodes=10)


def test_infinite_cell_count_is_a_budget_error():
    # an extent of 2e308 or a subnormal spacing: the cell count overflows to inf
    box = CrossSection("box", 1)
    calls = [
        lambda: build_grid(DomainSpec(box, 1e308, (1.0,)), 0.125),
        lambda: build_grid(DomainSpec(box, 1.0, (1e308,)), 0.125),
        lambda: build_grid(DomainSpec(box, 1.0, (1.0,)), 5e-324),
        lambda: build_vertical_grid((1e308,), 0.125),
        lambda: build_vertical_grid((1.0,), 5e-324),
    ]
    for call in calls:
        with pytest.raises(NodeBudgetError, match="infinitely many cells"):
            call()


def test_target_h_must_fit():
    dom = DomainSpec(CrossSection("box", 1), 2.0, (0.25,))
    with pytest.raises(ValueError):
        build_grid(dom, 0.75)


def test_region_full_domain():
    dom = DomainSpec(CrossSection("box", 1), 2.0, (1.0,))
    grid = build_grid(dom, 0.5)
    assert np.array_equal(region_cells(grid, "core", grid.ell), grid.cell_mask)


def test_region_partition_exact():
    dom = DomainSpec(CrossSection("box", 1), 4.0, (1.0,))
    grid = build_grid(dom, 0.4)
    core_t = region_cells(grid, "core", 1.3)
    slab = region_cells(grid, "slab", 1.3, 2.9)
    core_s = region_cells(grid, "core", 2.9)
    assert not np.any(core_t & slab)
    assert np.array_equal(core_t | slab, core_s)


def test_region_column_count():
    dom = DomainSpec(CrossSection("box", 1), 4.0, (0.5,))
    grid = build_grid(dom, 1.0)
    core = region_cells(grid, "core", 2.0)
    assert core.sum(axis=1).tolist() == [0, 0, 1, 1, 1, 1, 0, 0]


def test_region_validation_and_empty():
    dom = DomainSpec(CrossSection("box", 1), 4.0, (0.5,))
    grid = build_grid(dom, 1.0)
    assert region_cells(grid, "core", 0.2).sum() == 0  # empty selection allowed
    with pytest.raises(ValueError):
        region_cells(grid, "core", -1.0)
    with pytest.raises(ValueError):
        region_cells(grid, "slab", 2.0, 1.0)
    with pytest.raises(ValueError):
        region_cells(grid, "banana", 1.0)


def test_grid_nesting_and_embed_offsets():
    cs = CrossSection("box", 1)
    small = build_grid(DomainSpec(cs, 2.0, (1.0,)), 1 / 8)
    big = build_grid(DomainSpec(cs, 3.0, (1.0,)), 1 / 8)
    assert small.h == pytest.approx(big.h, rel=1e-12)
    for a, k in enumerate((8, 0)):  # the smaller grid starts k nodes into the larger one
        assert small.lo[a] == pytest.approx(big.lo[a] + k * big.h[a], abs=1e-12)
        assert np.allclose(big.axis_nodes(a)[k: k + small.shape[a]], small.axis_nodes(a), atol=1e-13)


def test_vertical_axes_independent_of_ell():
    cs = CrossSection("box", 1)
    g2 = build_grid(DomainSpec(cs, 2.0, (1.0,)), 1 / 8)
    g5 = build_grid(DomainSpec(cs, 5.0, (1.0,)), 1 / 8)
    vg = build_vertical_grid([1.0], 1 / 8)
    assert np.array_equal(g2.axis_nodes(1), g5.axis_nodes(1))
    assert np.array_equal(g2.axis_nodes(1), vg.axis_nodes(0))


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(CrossSection("box", 1), -1.0, (1.0,))
    with pytest.raises(ValueError):
        DomainSpec(CrossSection("box", 1), 1.0, ())
    with pytest.raises(ValueError):
        CrossSection("triangle", 2)
