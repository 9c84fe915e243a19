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

import json
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .geometry import Grid, _dot, embed_offsets
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

    def max_abs(self, grid: Grid) -> float:
        """Sup of |load| over the vertical cell centroids (the solver's scale)."""
        if self.kind == "constant":
            return abs(self.value)
        centers = np.meshgrid(
            *[grid.axis_centers(a) for a in range(grid.r, grid.n)], indexing="ij", sparse=True
        )
        return float(np.max(np.abs(self.evaluate(*centers))))

    @staticmethod
    def conjugate_exponent(p: float) -> float:
        return p / (p - 1.0)


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

    @staticmethod
    def zeros(grid: Grid) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.shape))

    @staticmethod
    def from_function(grid: Grid, fn: Callable[..., np.ndarray], *, project: bool = True) -> "ScalarField":
        vals = np.broadcast_to(np.asarray(fn(*grid.node_meshgrid()), dtype=float), grid.shape)
        return ScalarField(grid, vals, project=project)


def _cell_means_arr(values: np.ndarray) -> np.ndarray:
    out = values
    for a in range(values.ndim):
        s0 = [slice(None)] * out.ndim
        s1 = [slice(None)] * out.ndim
        s0[a], s1[a] = slice(0, -1), slice(1, None)
        out = 0.5 * (out[tuple(s0)] + out[tuple(s1)])
    return out


def _cell_gradients_arr(grid: Grid, values: np.ndarray) -> np.ndarray:
    comps = []
    for a in range(grid.n):
        comp = values
        for b in range(grid.n):
            s0 = [slice(None)] * comp.ndim
            s1 = [slice(None)] * comp.ndim
            s0[b], s1[b] = slice(0, -1), slice(1, None)
            if b == a:
                comp = (comp[tuple(s1)] - comp[tuple(s0)]) / grid.h[a]
            else:
                comp = 0.5 * (comp[tuple(s1)] + comp[tuple(s0)])
        comps.append(comp)
    return np.stack(comps, axis=-1)


def _scatter_mean(contrib: np.ndarray, axis: int) -> np.ndarray:
    shape = list(contrib.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    s0 = [slice(None)] * out.ndim
    s1 = [slice(None)] * out.ndim
    s0[axis], s1[axis] = slice(0, -1), slice(1, None)
    out[tuple(s0)] += 0.5 * contrib
    out[tuple(s1)] += 0.5 * contrib
    return out


def _scatter_diff(contrib: np.ndarray, axis: int, h: float) -> np.ndarray:
    shape = list(contrib.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    s0 = [slice(None)] * out.ndim
    s1 = [slice(None)] * out.ndim
    s0[axis], s1[axis] = slice(0, -1), slice(1, None)
    out[tuple(s0)] -= contrib / h
    out[tuple(s1)] += contrib / h
    return out


def cell_gradients(v: ScalarField) -> np.ndarray:
    """Gradient of the multilinear interpolant at every cell centroid.

    Shape ``cells + (n,)``; exact for affine fields.  The first ``r``
    components are the horizontal part, the rest the vertical part.
    """
    return _cell_gradients_arr(v.grid, v.values)


def cell_means(v: ScalarField) -> np.ndarray:
    """Corner mean per cell (the interpolant's centroid value)."""
    return _cell_means_arr(v.values)


def load_cell_values(grid: Grid, load: Load) -> np.ndarray:
    """Load sampled at the vertical centroid of every cell, broadcastable to cells."""
    centers = np.meshgrid(
        *[grid.axis_centers(a) for a in range(grid.r, grid.n)], indexing="ij", sparse=True
    )
    vals = np.asarray(load.evaluate(*centers), dtype=float)
    vals = np.broadcast_to(vals, grid.cell_shape[grid.r:])
    return vals.reshape((1,) * grid.r + vals.shape)


def _assemble_energy_arr(grid: Grid, values: np.ndarray, density, f_cells: np.ndarray) -> float:
    grads = _cell_gradients_arr(grid, values)
    integrand = density.value(grads) - f_cells * _cell_means_arr(values)
    if not grid.cell_mask.all():
        integrand = np.where(grid.cell_mask, integrand, 0.0)
    return float(grid.cell_volume * integrand.sum())


def _load_vector(grid: Grid, f_cells: np.ndarray) -> np.ndarray:
    """Nodal load vector: ``vol * f`` over the in-domain cells, scattered to
    their corners by the corner mean, zero at every Dirichlet-fixed node."""
    fterm = np.broadcast_to(f_cells, grid.cell_shape) * grid.cell_volume
    if not grid.cell_mask.all():
        np.copyto(fterm, 0.0, where=~grid.cell_mask)
    for b in range(grid.n):
        fterm = _scatter_mean(fterm, b)
    fterm[grid.dirichlet] = 0.0
    return fterm


def _assemble_gradient_arr(grid: Grid, grads: np.ndarray, density, load_vec: np.ndarray) -> np.ndarray:
    """Energy gradient from the field's cell gradients and the nodal load vector."""
    gF = density.grad(grads) * grid.cell_volume
    if not grid.cell_mask.all():
        np.copyto(gF, 0.0, where=~grid.cell_mask[..., None])
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        comp = gF[..., a]
        for b in range(grid.n):
            comp = _scatter_diff(comp, b, grid.h[a]) if b == a else _scatter_mean(comp, b)
        out += comp
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
    if p < 1:
        raise ValueError("p must be at least 1")
    values = np.asarray(values, dtype=float)
    ncell = len(grid.cell_shape)
    if values.ndim == ncell + 1:
        mag = np.sqrt(_dot(values, values))
    elif values.ndim == ncell:
        mag = np.abs(values)
    else:
        raise ValueError("values must be one scalar or one vector per cell")
    region = grid.cell_mask if region is None else (region & grid.cell_mask)
    if not region.any():
        return 0.0
    return float(grid.cell_volume * np.sum(mag[region] ** p))


def extend_vertical(w: ScalarField, grid: Grid) -> ScalarField:
    """Extend a vertical profile to a full grid, constant along horizontal axes.

    Requires identical vertical node coordinates (spacing rule of
    :func:`~elongate.geometry.build_vertical_grid` guarantees this); the
    result is re-zeroed on the full grid's Dirichlet nodes.
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
    return ScalarField(grid, np.broadcast_to(w.values, grid.shape))


def embed_field(small: ScalarField, grid: Grid) -> ScalarField:
    """Place a field from a nested grid into a larger aligned grid, zero elsewhere."""
    offsets = embed_offsets(small.grid, grid)
    out = np.zeros(grid.shape)
    idx = tuple(slice(o, o + m) for o, m in zip(offsets, small.grid.shape))
    out[idx] = small.values
    return ScalarField(grid, out)


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


FIELD_FORMAT = "raw-float64-le"


def save_field(v: ScalarField, prefix: str) -> None:
    """Dump nodal values to ``prefix.bin`` (little-endian float64, C order)
    with a JSON header at ``prefix.json``."""
    grid = v.grid
    header = {
        "format": FIELD_FORMAT,
        "shape": list(grid.shape),
        "lo": list(grid.lo),
        "h": list(grid.h),
        "r": grid.r,
        "ell": grid.ell,
    }
    atomic_write_bytes(prefix + ".bin", np.ascontiguousarray(v.values, dtype="<f8").tobytes())
    atomic_write_text(prefix + ".json", json.dumps(header, indent=2) + "\n")


def load_field(prefix: str) -> tuple[np.ndarray, dict]:
    """Read back a field dump; returns the nodal values and the header."""
    with open(prefix + ".json", "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("format") != FIELD_FORMAT:
        raise ValueError(f"unsupported field format {header.get('format')!r}")
    raw = np.fromfile(prefix + ".bin", dtype="<f8")
    return raw.reshape(tuple(header["shape"])).astype(float), header
