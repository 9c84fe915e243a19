"""Scalar nodal fields, discrete energy assembly, and region norms.

The discrete functional uses one quadrature point per cell: the density
is evaluated at the centroid gradient of the multilinear interpolant and
the load is paired with the corner mean.  This keeps the functional
convex in the nodal values (a convex function composed with linear
maps) and reduces, in one dimension with the quadratic density, to
classical second-order differences.

Norms of per-cell quantities are reported as p-th powers, the form in
which the decay estimates of interest are stated.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .geometry import Grid, _dot
from .ioutil import atomic_write_bytes, atomic_write_text


@dataclass(frozen=True)
class Load:
    """Force density depending on the vertical coordinates only."""

    kind: Literal["constant", "sampled"]
    value: float = 0.0
    profile: Callable[..., np.ndarray] | None = None

    @staticmethod
    def constant(value: float) -> "Load":
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"load value must be finite, got {value!r}")
        return Load("constant", value)

    @staticmethod
    def sampled(profile: Callable[..., np.ndarray]) -> "Load":
        return Load("sampled", 0.0, profile)

    def evaluate(self, *coords) -> np.ndarray:
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords)) if coords else ()
        if self.kind == "constant":
            return np.full(shape, self.value)
        return np.broadcast_to(np.asarray(self.profile(*coords), dtype=float), shape)


class ScalarField:
    """Nodal values on a grid, zero at every Dirichlet-fixed node.

    Construction projects onto the admissible set by zeroing fixed nodes;
    pass ``project=False`` for synthetic fields in diagnostics.  Values
    are immutable after construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, *, project: bool = True):
        values = np.array(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if project:
            values[grid.dirichlet] = 0.0
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("ScalarField is immutable")


def _cell_means_arr(values: np.ndarray) -> np.ndarray:
    """Corner mean per cell: the corner sums, scaled by ``2^-n`` once (exact)."""
    out = values
    for a in range(values.ndim):
        out = _pair(out, a, np.add)
    out *= 0.5**values.ndim
    return out


def _along(axis: int, sl: slice) -> tuple:
    """Index that applies ``sl`` to ``axis`` and keeps every other axis whole."""
    return (slice(None),) * axis + (sl,)


@functools.lru_cache(maxsize=None)
def _edges(axis: int) -> tuple[tuple, ...]:
    """Indices along ``axis``: upper and lower cell corners, first, inner and last node."""
    return tuple(
        _along(axis, sl)
        for sl in (slice(1, None), slice(0, -1), slice(0, 1), slice(1, -1), slice(-1, None))
    )


def _pair(values: np.ndarray, axis: int, op, out=None) -> np.ndarray:
    """``op`` of the two corners of every cell edge along ``axis``, upper first."""
    upper, lower = _edges(axis)[:2]
    return op(values[upper], values[lower], out=out)


def _pair_adjoint(contrib: np.ndarray, axis: int, diff: bool) -> np.ndarray:
    """Adjoint of :func:`_pair` with ``np.subtract`` (``diff``) or ``np.add``:
    an end node takes its one cell's entry, an inner node two."""
    upper, lower, first, inner, last = _edges(axis)
    shape = list(contrib.shape)
    shape[axis] += 1
    out = np.empty(shape)
    if diff:
        # not ``np.negative``: numpy 2.4.6 writes wrong values with it from
        # an input of stride 64 bytes into a strided output
        np.multiply(contrib[first], -1.0, out=out[first])
        np.subtract(contrib[lower], contrib[upper], out=out[inner])
    else:
        out[first] = contrib[first]
        np.add(contrib[lower], contrib[upper], out=out[inner])
    out[last] = contrib[last]
    return out


@functools.lru_cache(maxsize=64)
def _gradient_scales(h: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-component scale of the unscaled sums and differences, ``1 / (h_a
    2^(n-1))``, and the same times the cell volume; cached by spacing."""
    scales = 1.0 / (np.asarray(h) * 2.0 ** (len(h) - 1))
    return tuple(scales.tolist()), tuple((float(np.prod(h)) * scales).tolist())


def _cell_gradients_arr(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cell gradients of nodal ``values`` on the grid or on a box of its nodes.

    Shape ``cells + (n,)``, stored component-major: every ``[..., a]`` is
    C-contiguous, so the per-component passes of the densities run on
    contiguous data.
    """
    n = grid.n
    out = np.empty((n,) + tuple(m - 1 for m in values.shape))
    for a, scale in enumerate(_gradient_scales(grid.h)[0]):
        comp = values
        for b in range(n):
            op = np.subtract if b == a else np.add
            comp = _pair(comp, b, op, out=out[a] if b == n - 1 else None)
            if b == 0:
                comp *= scale  # on the first, contiguous temporary
    return out.transpose(*range(1, n + 1), 0)  # not ``np.moveaxis``: 4 us a call


def cell_gradients(v: ScalarField) -> np.ndarray:
    """Gradient of the multilinear interpolant at every cell centroid.

    Shape ``cells + (n,)``; exact for affine fields.  The first ``r``
    components are the horizontal part, the rest the vertical part.
    """
    return _cell_gradients_arr(v.grid, v.values)


def cell_means(v: ScalarField) -> np.ndarray:
    """Corner mean per cell (the interpolant's centroid value)."""
    return _cell_means_arr(v.values)


def _vertical_centers(grid: Grid) -> list[np.ndarray]:
    """Sparse mesh of the vertical cell centroids, exactly mirror-symmetric.

    Along each vertical axis the centroids are ``mid + h (i - (N - 1) /
    2)`` for ``N`` cells about the axis midpoint ``mid``: the offsets of
    cells ``i`` and ``N - 1 - i`` are exact negatives.  On a box ``(-w,
    w)`` split into ``h = 2w / N``, ``mid`` is 0 (``lo + N h / 2`` can miss it
    by an ulp), so a load even in the vertical coordinate gives cell values
    equal to their flip bit for bit, whatever the spacing.
    """
    centers = []
    for a in range(grid.r, grid.n):
        cells, h, lo = grid.cell_shape[a], grid.h[a], grid.lo[a]
        mid = 0.0 if -2.0 * lo / cells == h else lo + 0.5 * cells * h
        centers.append(mid + h * (np.arange(cells) - 0.5 * (cells - 1)))
    return np.meshgrid(*centers, indexing="ij", sparse=True)


def load_cell_values(grid: Grid, load: Load) -> np.ndarray:
    """Load sampled at the vertical centroid of every cell, broadcastable to cells."""
    vals = np.asarray(load.evaluate(*_vertical_centers(grid)), dtype=float)
    vals = np.broadcast_to(vals, grid.cell_shape[grid.r:])
    return vals.reshape((1,) * grid.r + vals.shape)


def _assemble_energy_arr(grid: Grid, values: np.ndarray, density, f_cells: np.ndarray,
                         grads: np.ndarray | None = None) -> float:
    """:func:`assemble_energy` of nodal ``values``, whose cell gradients
    ``grads`` are derived here unless the caller already holds them."""
    if grads is None:
        grads = _cell_gradients_arr(grid, values)
    integrand = density.value(grads) - f_cells * _cell_means_arr(values)
    if grid.outside_cells is not None:
        integrand = np.where(grid.cell_mask, integrand, 0.0)
    return float(grid.cell_volume * integrand.sum())


def _load_vector(grid: Grid, f_cells: np.ndarray) -> np.ndarray:
    """Nodal load vector: ``vol * f`` over the in-domain cells, scattered to
    their corners by the corner mean, zero at every Dirichlet-fixed node."""
    fterm = np.broadcast_to(f_cells, grid.cell_shape) * (grid.cell_volume / 2.0**grid.n)
    if grid.outside_cells is not None:
        np.copyto(fterm, 0.0, where=grid.outside_cells)
    for b in range(grid.n):
        fterm = _pair_adjoint(fterm, b, False)
    fterm[grid.dirichlet] = 0.0
    return fterm


def _assemble_gradient_arr(grid: Grid, grads: np.ndarray, density, load_vec: np.ndarray) -> np.ndarray:
    """Energy gradient from the field's cell gradients and the nodal load vector.

    The flux of component ``a`` goes through the adjoint of the
    difference along axis ``a`` and of the sum along every other axis.
    Along the last axis every component but the last takes the sum, so
    those are added first into ``s``, and with the last one's ``v`` one
    pass gives node ``i`` the two terms ``(s + v)[i-1] + (s - v)[i]``.
    """
    gF = density.grad(grads)
    outside = grid.outside_cells
    last = grid.n - 1
    s = None
    for a, scale in enumerate(_gradient_scales(grid.h)[1]):
        comp = np.multiply(gF[..., a], scale)
        if outside is not None:
            np.copyto(comp, 0.0, where=outside)
        for b in range(last):
            comp = _pair_adjoint(comp, b, b == a)
        if a < last:
            s = comp if s is None else np.add(s, comp, out=s)
    upper, lower, first, inner, end = _edges(last)
    plus, minus = (comp, np.negative(comp)) if s is None else (s + comp, np.subtract(s, comp, out=s))
    out = np.empty(grid.shape)
    out[first] = minus[first]
    np.add(plus[lower], minus[upper], out=out[inner])
    out[end] = plus[end]
    out -= load_vec
    out[grid.dirichlet] = 0.0
    return out


def assemble_energy(v: ScalarField, density, load: Load) -> float:
    """Discrete energy: sum over cells of volume times density-at-gradient
    minus load times corner mean."""
    if density.n != v.grid.n:
        raise ValueError(f"density acts on {density.n} components, grid has {v.grid.n}")
    return _assemble_energy_arr(v.grid, v.values, density, load_cell_values(v.grid, load))


def assemble_energy_gradient(v: ScalarField, density, load: Load) -> np.ndarray:
    """Exact nodal gradient of :func:`assemble_energy`.

    Assembled by the chain rule through the centroid-gradient and
    corner-mean maps; components at Dirichlet-fixed nodes are frozen to 0
    so fields and gradients share one index space.
    """
    if density.n != v.grid.n:
        raise ValueError(f"density acts on {density.n} components, grid has {v.grid.n}")
    grid = v.grid
    grads = _cell_gradients_arr(grid, v.values)
    return _assemble_gradient_arr(grid, grads, density, _load_vector(grid, load_cell_values(grid, load)))


def lp_norm_p(grid: Grid, values: np.ndarray, p: float, region: np.ndarray | None = None) -> float:
    """p-th power of the L^p norm of per-cell values over a cell region.

    ``values`` is one scalar per cell or one vector per cell (last
    axis); vectors contribute their Euclidean length.  ``region`` is a
    boolean cell mask (default: every in-domain cell); an empty region
    integrates to 0.
    """
    region = grid.cell_mask if region is None else (region & grid.cell_mask)
    return _norm_p(grid, values, p, region)


def _norm_p(grid: Grid, values, p: float, weights: np.ndarray) -> float:
    """:func:`lp_norm_p` with per-cell weights (a region weighs 1) over the
    grid's cells or a box of them: the sum of ``weight * |value|^p`` in C order."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be at least 1 and finite")
    values = np.asarray(values, dtype=float)
    if values.ndim == weights.ndim + 1:
        mag = np.sqrt(_dot(values, values))
    elif values.ndim == weights.ndim:
        mag = np.abs(values)
    else:
        raise ValueError("values must be one scalar or one vector per cell")
    keep = weights > 0
    return float(grid.cell_volume * np.sum(weights[keep] * mag[keep] ** p))


def _vertical_on(w: ScalarField, grid: Grid, nodes: tuple[slice, ...]) -> np.ndarray:
    """A vertical profile ``w`` extended over a slab of ``grid``'s nodes,
    constant along horizontal axes and zero on Dirichlet nodes.

    Requires identical vertical node coordinates (spacing rule of
    :func:`~elongate.geometry.build_vertical_grid` guarantees this).
    """
    wg = w.grid
    if wg.r != 0 or wg.n != grid.n - grid.r:
        raise ValueError("not a vertical profile matching this grid")
    for j in range(wg.n):
        a = grid.r + j
        if (
            grid.shape[a] != wg.shape[j]
            or abs(grid.lo[a] - wg.lo[j]) > 1e-12 * max(1.0, abs(wg.lo[j]))
            or abs(grid.h[a] - wg.h[j]) > 1e-12 * wg.h[j]
        ):
            raise ValueError("vertical axes differ between the grids")
    return np.where(grid.dirichlet[nodes], 0.0, w.values[nodes[grid.r:]])


def extend_vertical(w: ScalarField, grid: Grid) -> ScalarField:
    """Extend a vertical profile to a full grid (:func:`_vertical_on` over every node)."""
    return ScalarField(grid, _vertical_on(w, grid, (slice(None),) * grid.n))


def poincare_ratio(v: ScalarField, p: float) -> float:
    """Ratio of the field's L^p norm to its vertical-gradient L^p norm.

    A diagnostic for the vertical trace-zero inequality; 0 for the zero
    field by convention.
    """
    grid = v.grid
    num = lp_norm_p(grid, _cell_means_arr(v.values), p)
    if num == 0.0:
        return 0.0
    den = lp_norm_p(grid, _cell_gradients_arr(grid, v.values)[..., grid.r:], p)
    if den == 0.0:
        return float("inf")
    return float((num / den) ** (1.0 / p))


def sup_error(v: ScalarField, fn: Callable[..., np.ndarray]) -> float:
    """Max deviation from ``fn`` sampled at nodes and at cell centroids.

    The centroid samples compare the interpolant's value (the corner
    mean) with the target, so the measure keeps resolving discretization
    error when the nodal values happen to be exact.
    """
    grid = v.grid
    node_err = np.max(np.abs(v.values - fn(*grid.node_meshgrid())))
    centers = np.meshgrid(*[grid.axis_centers(a) for a in range(grid.n)], indexing="ij", sparse=True)
    cell_err = np.max(np.abs(_cell_means_arr(v.values) - fn(*centers)))
    return float(max(node_err, cell_err))


def save_field(v: ScalarField, prefix: str) -> None:
    """Dump nodal values to ``prefix.bin`` (little-endian float64, C order)
    with a JSON header at ``prefix.json``."""
    grid = v.grid
    header = {
        "format": "raw-float64-le",
        "shape": list(grid.shape),
        "lo": list(grid.lo),
        "h": list(grid.h),
        "r": grid.r,
        "ell": grid.ell,
    }
    atomic_write_bytes(prefix + ".bin", np.ascontiguousarray(v.values, dtype="<f8").tobytes())
    atomic_write_text(prefix + ".json", json.dumps(header, indent=2) + "\n")

