"""Cross-sections, elongated product domains, and structured tensor grids.

A domain is the Cartesian product of a dilated star-shaped cross-section
(the "horizontal" part, ``r`` axes) with a fixed box (the "vertical"
part).  The gauge (Minkowski functional) of the cross-section carves
nested subdomains and annular slabs out of a grid and is the building
block of the Lipschitz cutoff ramps used to blend candidate minimizers.

Everything here is a pure function of immutable values; grids never
mutate after construction and may be shared freely between tasks.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

#: Refuse to build grids with more nodes than this unless overridden.
DEFAULT_NODE_BUDGET = 20_000_000


class NodeBudgetError(ValueError):
    """Requested grid exceeds the configured node budget."""


@dataclass(frozen=True)
class CrossSection:
    """Unit cross-section: the open box ``(-1, 1)^r`` or the Euclidean unit ball.

    Both shapes contain the origin, are star-shaped with respect to it,
    and have an explicitly known Lipschitz gauge, which is what the
    sub-region machinery and the cutoff ramps rely on.
    """

    shape: Literal["box", "ball"]
    r: int

    def __post_init__(self) -> None:
        if self.shape not in ("box", "ball"):
            raise ValueError(f"unknown cross-section shape {self.shape!r}")
        if isinstance(self.r, bool) or not isinstance(self.r, numbers.Integral) or self.r < 1:
            raise ValueError(f"cross-section needs an integer number of axes r >= 1, got {self.r!r}")


def _dot(a, b) -> np.ndarray:
    """Sum of ``a * b`` over the last axis, written out component by component.

    On short last axes (the 2 or 3 components of a gradient) this is
    several times faster than ``np.sum(a * b, axis=-1)`` and, up to three
    components, adds in the same order.  An empty last axis sums to 0.
    """
    n = np.shape(a)[-1]
    if n == 0:
        return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b))[:-1])
    out = a[..., 0] * b[..., 0]
    for i in range(1, n):
        out += a[..., i] * b[..., i]
    return out


def gauge(cs: CrossSection, xp) -> np.ndarray | float:
    """Minkowski gauge of the cross-section at horizontal points ``xp``.

    ``xp`` has shape ``(..., r)``; the result drops the last axis.  The
    gauge is positively 1-homogeneous with ``gauge(0) = 0``, and its
    open sublevel set at ``t`` is the cross-section dilated by ``t``.
    """
    xp = np.asarray(xp, dtype=float)
    if xp.ndim == 0 or xp.shape[-1] != cs.r:
        raise ValueError(f"expected points with {cs.r} coordinates, got shape {xp.shape}")
    if cs.shape == "box":
        out = np.max(np.abs(xp), axis=-1)
    else:
        out = np.sqrt(_dot(xp, xp))
    return float(out) if out.ndim == 0 else out


def cutoff(cs: CrossSection, xp, s: float, t: float) -> np.ndarray | float:
    """Lipschitz ramp in the gauge: 1 inside level ``t``, 0 outside level ``s``.

    Equals ``min((s - gauge)_+, s - t) / (s - t)``: affine in the gauge
    on the slab between the two levels, hence nonincreasing in the
    gauge.  Requires ``0 < t < s``.
    """
    if not 0.0 < t < s:
        raise ValueError(f"cutoff levels must satisfy 0 < t < s, got t={t}, s={s}")
    g = gauge(cs, xp)
    return np.clip((s - g) / (s - t), 0.0, 1.0)


def _halfwidths(values: Sequence[float]) -> tuple[float, ...]:
    """The vertical halfwidths as floats: at least one, each in ``(0, inf)``.

    Here and below, every range check is written so that NaN fails it.
    """
    out = tuple(float(w) for w in values)
    if not (out and all(0 < w < math.inf for w in out)):
        raise ValueError(f"need at least one vertical axis, each halfwidth positive and finite, got {out}")
    return out


@dataclass(frozen=True)
class DomainSpec:
    """Product domain: the cross-section dilated by ``ell`` times a fixed box.

    The family is monotone in ``ell``: the domain for a smaller ``ell``
    is contained in the domain for a larger one.
    """

    cross_section: CrossSection
    ell: float
    vertical_halfwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertical_halfwidths", _halfwidths(self.vertical_halfwidths))
        if not 0 < self.ell < math.inf:
            raise ValueError(f"elongation must be positive and finite, got {self.ell!r}")

    @property
    def r(self) -> int:
        return self.cross_section.r


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid with Dirichlet-fixed node classification.

    Nodes on the bounding-box boundary are fixed; for ball cross-sections
    every node whose scaled gauge reaches 1 is fixed as well (staircase
    approximation, first order accurate, flagged experimental).  Cells
    are the axis-aligned boxes between adjacent nodes; a cell belongs to
    the domain when its horizontal centroid does.  The vertical axes
    depend only on the vertical halfwidths and the spacing target, never
    on ``ell``, so vertical profiles embed exactly into every grid of a
    sweep.

    ``r == 0`` denotes a purely vertical grid (no horizontal axes),
    used for the limit problem on the fixed box.  Derived quantities are
    computed on first use and kept on the grid.
    """

    r: int
    ell: float
    cross_section: CrossSection | None
    lo: tuple[float, ...]
    h: tuple[float, ...]
    shape: tuple[int, ...]
    dirichlet: np.ndarray
    cell_mask: np.ndarray

    def __post_init__(self) -> None:
        self.dirichlet.setflags(write=False)
        self.cell_mask.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.shape)

    @functools.cached_property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.shape)

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @functools.cached_property
    def outside_cells(self) -> np.ndarray | None:
        """Mask of the cells outside the domain, or ``None`` when there are none."""
        if self.cell_mask.all():
            return None
        out = ~self.cell_mask
        out.setflags(write=False)
        return out

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def axis_nodes(self, a: int) -> np.ndarray:
        return self.lo[a] + self.h[a] * np.arange(self.shape[a])

    def axis_centers(self, a: int) -> np.ndarray:
        return self.lo[a] + self.h[a] * (0.5 + np.arange(self.shape[a] - 1))

    def node_meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis_nodes(a) for a in range(self.n)], indexing="ij", sparse=True)

    def node_gauge(self) -> np.ndarray:
        """Gauge of the horizontal node coordinates, shape = horizontal node dims."""
        if self.r == 0:
            raise ValueError("grid has no horizontal axes")
        mesh = np.meshgrid(*[self.axis_nodes(a) for a in range(self.r)], indexing="ij")
        return gauge(self.cross_section, np.stack(mesh, axis=-1))

    def cell_gauge(self) -> np.ndarray:
        """Gauge of the horizontal cell centroids, shape = horizontal cell dims."""
        if self.r == 0:
            raise ValueError("grid has no horizontal axes")
        mesh = np.meshgrid(*[self.axis_centers(a) for a in range(self.r)], indexing="ij")
        return gauge(self.cross_section, np.stack(mesh, axis=-1))


def _check_spacing(target_h: float, max_nodes: int | None) -> None:
    """Check a grid's spacing target and its node budget, if any: each in ``(0, inf)``."""
    if not 0 < target_h < math.inf:
        raise ValueError(f"target spacing must be positive and finite, got {target_h!r}")
    if max_nodes is not None and not 0 < max_nodes < math.inf:
        raise ValueError(f"max_nodes must be positive and finite, got {max_nodes!r}")


def _assemble_grid(
    r: int,
    ell: float,
    cross_section: CrossSection | None,
    extents: Sequence[float],
    los: Sequence[float],
    target_h: float,
    max_nodes: int | None,
) -> Grid:
    _check_spacing(target_h, max_nodes)
    if target_h > min(extents) * (1 + 1e-12):
        raise ValueError("target spacing must not exceed the smallest axis extent")
    ratios = [e / target_h for e in extents]
    if not all(map(math.isfinite, ratios)):
        raise NodeBudgetError(f"grid would have infinitely many cells: extents {extents}, spacing {target_h}")
    ncells = [max(1, int(math.ceil(q - 1e-12))) for q in ratios]
    shape = tuple(m + 1 for m in ncells)
    budget = DEFAULT_NODE_BUDGET if max_nodes is None else max_nodes
    count = math.prod(shape)  # exact: np.prod wraps around past 2^63
    if count > budget:
        raise NodeBudgetError(f"grid would have {count} nodes, budget is {budget}")
    h = tuple(e / m for e, m in zip(extents, ncells))

    dirichlet = np.ones(shape, dtype=bool)
    dirichlet[tuple(slice(1, -1) for _ in shape)] = False
    box = Grid(r, ell, cross_section, tuple(float(x) for x in los), h, shape, dirichlet, np.ones(ncells, bool))
    if cross_section is None or cross_section.shape != "ball":
        return box
    pad = (1,) * (len(shape) - r)
    outside = box.node_gauge() >= ell * (1 - 1e-12)
    inside = box.cell_gauge() < ell
    return Grid(r, ell, cross_section, box.lo, h, shape, dirichlet | outside.reshape(outside.shape + pad),
                box.cell_mask & inside.reshape(inside.shape + pad))


def build_grid(domain: DomainSpec, target_h: float, max_nodes: int | None = None) -> Grid:
    """Discretize the domain with the largest spacings not exceeding ``target_h``.

    Each axis extent is divided into an integer number of cells, so the
    spacing is the largest value ``<= target_h`` that splits the axis
    exactly.  Grids above the node budget are rejected.
    """
    r = domain.r
    extents = [2.0 * domain.ell] * r + [2.0 * w for w in domain.vertical_halfwidths]
    los = [-domain.ell] * r + [-w for w in domain.vertical_halfwidths]
    return _assemble_grid(r, domain.ell, domain.cross_section, extents, los, target_h, max_nodes)


def build_vertical_grid(
    halfwidths: Sequence[float], target_h: float, max_nodes: int | None = None
) -> Grid:
    """Grid over the fixed vertical box alone, for the limit problem.

    Uses the same per-axis spacing rule as :func:`build_grid`, so the
    vertical node coordinates coincide exactly with the vertical axes of
    every full grid built at the same ``target_h``.
    """
    halfwidths = _halfwidths(halfwidths)
    extents = [2.0 * w for w in halfwidths]
    los = [-w for w in halfwidths]
    return _assemble_grid(0, 0.0, None, extents, los, target_h, max_nodes)


def region_cells(grid: Grid, kind: Literal["core", "slab"], t: float, s: float | None = None) -> np.ndarray:
    """Boolean cell mask of a nested subdomain (``core``) or annular slab.

    Membership is decided by the gauge of the horizontal centroid: cells
    below level ``t`` form the core; a slab collects the cells between
    levels ``t`` and ``s``.  Core and slab with matching endpoints
    partition the larger core exactly.  Empty selections are allowed.
    """
    if grid.r == 0:
        raise ValueError("regions need a horizontal axis")
    if not 0 < t < math.inf:
        raise ValueError("region level t must be positive and finite")
    g = grid.cell_gauge()
    if kind == "core":
        hmask = g < t
    elif kind == "slab":
        if s is None or not t < s:
            raise ValueError("slab needs levels t < s")
        hmask = (g >= t) & (g < s)
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    full = np.broadcast_to(hmask.reshape(hmask.shape + (1,) * (grid.n - grid.r)), grid.cell_shape)
    return full & grid.cell_mask
