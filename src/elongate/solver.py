"""Energy minimization on grids: preconditioned conjugate gradients.

Every density goes through one minimizer: preconditioned Polak-Ribiere
conjugate gradients with restarts and an Armijo line search.  Its first
step is the safeguarded minimizer of the quadratic through the slope at
0 and one probe at twice the last accepted step, which makes the search
nearly exact, as Polak-Ribiere needs, and exact for a quadratic density.
Line-search energy differences come from the density's summed line
energy (:meth:`~elongate.density.EnergyDensity.line_energy`), set up
once per line.  Where the increment is a polynomial in the step (the
built-ins at ``p = 2`` and ``4``) its coefficients are summed over the
cells once and a trial is scalar arithmetic; other densities, ``p = 3``
and custom ones, sum their cancellation-free per-cell increments.  No
energy of the size of ``F`` is subtracted either way, so descent remains
verifiable far below the round-off floor of naive energy subtraction,
which is what the tight default tolerances need.

The preconditioner is the exact inverse of the quadratic Hessian on the
grid's free nodes (:mod:`elongate.precond`), set up once per solve.
The quadratic density ``|grad u|^2 / 2`` is therefore solved in one
iteration on every grid; for ``p > 2`` it acts as an H^1
(Sobolev-gradient) preconditioner.

A problem that is mirror-symmetric about the mid-plane of an axis (even
cell count; Dirichlet nodes, cell mask and load equal to their flip; a
density that declares itself unchanged by the sign flip of one gradient
component) has a symmetric minimizer, so the solve keeps the upper half
of every such axis: ``2^k`` times less data per pass for ``k`` halved
axes.  The same minimizer and preconditioner run on the halved grid,
where the mid-plane nodes are free; the preconditioner keeps only the
odd modes of a halved axis, and the stopping test doubles the gradient
on each halved mid-plane, which gives the full grid's gradient exactly.
Results agree with the full solve to solver tolerance; with no axis to
halve the solve is the full one, bit for bit.

Stopping is on the max-norm of the discrete energy gradient scaled by
(sup |load|) * (cell volume), keeping one dimensionless tolerance
meaningful across elongations and spacings.  Running out of iterations,
a line search that finds no acceptable step, a step too small to move
the iterate and a non-finite gradient all end the solve with
``converged=False``; none of them raises.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import EnergyDensity
from .field import (
    Load,
    ScalarField,
    _along,
    _assemble_energy_arr,
    _assemble_gradient_arr,
    _cell_gradients_arr,
    _load_vector,
    _norm_p,
    extend_vertical,
    load_cell_values,
)
from .geometry import Grid, cutoff
from .precond import _box_inverse

#: Armijo sufficient-decrease constant, backtracking factor and first trial step.
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_INITIAL_STEP = 1.0
#: The interpolated step stays within this factor of the probe step.
_INTERP_RANGE = 1e3
#: Smallest Armijo step attempted before the line search gives up.
_MIN_STEP = 1e-16
#: Relative size of an accepted step below which the iterate no longer moves.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule of the minimizer.

    ``grad_tol`` is dimensionless; the absolute stopping threshold is
    ``grad_tol * sup|load| * cell volume``.  ``None`` picks the default
    for the density (:func:`default_grad_tol`); a given tolerance is a
    number, not a bool or a string.  ``max_iters``, a positive integer
    (not a bool), bounds the iterations of one solve.
    """

    grad_tol: float | None = None
    max_iters: int = 100_000

    def __post_init__(self) -> None:
        if self.grad_tol is not None:
            if isinstance(self.grad_tol, bool) or not isinstance(self.grad_tol, numbers.Real):
                raise ValueError(f"grad_tol must be a number, got {self.grad_tol!r}")
            if not 0 < self.grad_tol < math.inf:
                raise ValueError("grad_tol must be positive and finite")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    grad_max: float
    energy: float
    wall_time: float
    grad_tol_abs: float
    #: Line-search energy evaluations, at least one per iteration.
    trials: int
    #: Axes about whose mid-plane the problem is symmetric; the solve ran
    #: on the upper half of each (see :func:`minimize`).
    mirror_axes: list[int]
    #: Seconds of ``wall_time`` spent setting up the preconditioner.
    precond_s: float
    #: ``sum vol |grad u|^p`` over the in-domain cells, ``p`` the density's:
    #: the p-th power of the gradient's L^p norm, from the final cell gradients.
    grad_norm_p: float = math.nan


def default_grad_tol(density: EnergyDensity) -> float:
    """Default dimensionless gradient tolerance: 1e-10 quadratic, 1e-9 otherwise."""
    return 1e-10 if density.p == 2 else 1e-9


@dataclass
class _Descent:
    """What :func:`_descent` ends with: the iterate and its cell gradients,
    derived from it afresh, with the counts and the final ``grad_max``."""

    x: np.ndarray
    grads: np.ndarray
    iterations: int
    trials: int
    grad_max: float
    converged: bool


def _descent(grid, density, load_vec, x, tol, max_iters, callback, precond, max_norm) -> _Descent:
    vol = grid.cell_volume
    outside = grid.outside_cells
    trials = 0

    fresh = True  # whether Gx was derived from x, not carried along steps
    if not x.any() and not density.grad(np.zeros((1, grid.n))).any():
        # the zero start: every cell gradient and, for a density with
        # F'(0) = 0, every flux is 0, so the gradient is the load term alone;
        # the cell gradients are stored component-major, as derived ones are
        Gx = np.zeros((grid.n,) + grid.cell_shape).transpose(*range(1, grid.n + 1), 0)
        g = 0.0 - load_vec
    else:
        Gx = _cell_gradients_arr(grid, x)
        g = _assemble_gradient_arr(grid, Gx, density, load_vec)
    gmax = max_norm(g)
    if gmax <= tol or not math.isfinite(gmax):
        return _finish(grid, x, Gx, fresh, 0, trials, gmax, gmax <= tol)
    z = precond(g)
    gz = float(np.vdot(g, z))
    d = -z
    m = -gz
    step = _INITIAL_STEP
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        # Energy change along d: the density's increment summed over the
        # cells, free of cancellation at any step size, and the load term,
        # linear in the step.  The direction is zeroed on out-of-domain
        # cells, where its increment is then exactly 0.
        Gd = _cell_gradients_arr(grid, d)
        if outside is not None:
            np.copyto(Gd, 0.0, where=outside[..., None])
        line = density.line_energy(Gx, Gd)
        lin_d = float(np.vdot(load_vec, d))

        def phi(alpha):
            nonlocal trials
            trials += 1
            return vol * line(alpha) - alpha * lin_d

        # Probe at twice the last step, then try the minimizer of the
        # quadratic through phi(0) = 0, phi'(0) = m and the probe.  A NaN or
        # non-convex probe keeps the probe step.
        alpha = step / _BACKTRACK
        f = phi(alpha)
        curv = f - m * alpha
        if curv > 0:
            best = -0.5 * m * alpha * alpha / curv
            alpha = min(max(best, alpha / _INTERP_RANGE), alpha * _INTERP_RANGE)
            f = phi(alpha)
        # written so that a NaN increment is rejected, never accepted
        while not f <= _ARMIJO_C1 * alpha * m:
            alpha *= _BACKTRACK
            if alpha < _MIN_STEP:  # no acceptable step: iteration k takes none
                return _finish(grid, x, Gx, fresh, k - 1, trials, gmax, False)
            f = phi(alpha)
        x = x + alpha * d
        step = alpha
        if callback is not None:
            callback(k, x)
        # Cell gradients are linear in the field, so they are carried along
        # the step and re-derived from x every 50 iterations and before
        # convergence is accepted; in between they are stale on
        # out-of-domain cells, which count for nothing: the gradient
        # assembly zeroes their fluxes and the line energy meets them with
        # a zero direction.  The line data goes first, so that the
        # gradient assembly does not add to it.
        Gd *= alpha
        Gx += Gd
        line = Gd = None
        fresh = k % 50 == 0
        if fresh:
            Gx = _cell_gradients_arr(grid, x)
        g_new = _assemble_gradient_arr(grid, Gx, density, load_vec)
        gmax = max_norm(g_new)
        if gmax <= tol and not fresh:
            Gx, fresh = _cell_gradients_arr(grid, x), True
            g_new = _assemble_gradient_arr(grid, Gx, density, load_vec)
            gmax = max_norm(g_new)
        if not math.isfinite(gmax):
            break
        if gmax <= tol:
            converged = True
            break
        if alpha * float(np.abs(d).max()) <= _EPS * float(np.abs(x).max()):
            break  # stagnated at the round-off floor: the step no longer moves x
        z_new = precond(g_new)
        gz_new = float(np.vdot(g_new, z_new))
        beta = max(0.0, (gz_new - float(np.vdot(g_new, z))) / gz)
        d *= beta  # d = -z_new + beta * d, in place
        d -= z_new
        g, z, gz = g_new, z_new, gz_new
        m = float(np.vdot(g, d))
        if m >= 0.0:  # restart: keep the direction a descent direction
            np.negative(z, out=d)
            m = -gz
    return _finish(grid, x, Gx, fresh, k, trials, gmax, converged)


def _finish(grid, x, Gx, fresh, iterations, trials, gmax, converged) -> _Descent:
    """The descent record, with the cell gradients of ``x`` derived once more
    unless ``Gx`` already holds them fresh."""
    if not fresh:
        Gx = _cell_gradients_arr(grid, x)
    return _Descent(x, Gx, iterations, trials, gmax, converged)


def _mirror_axes(grid: Grid, density: EnergyDensity, f_cells: np.ndarray) -> tuple[int, ...]:
    """The axes about whose mid-plane the problem is mirror-symmetric.

    An axis qualifies when its cell count is even, when the Dirichlet
    nodes, the cell mask and the load's cell values each equal their
    flip along it, and when the density declares itself unchanged by the
    sign flip of one gradient component (``mirror_invariant``).  The
    minimizer is unique, hence symmetric about each such mid-plane.
    """
    if not density.mirror_invariant:
        return ()
    # an all-True cell mask (no outside cells) is symmetric about every axis
    fields = (grid.dirichlet, f_cells) if grid.outside_cells is None else (grid.dirichlet, grid.cell_mask, f_cells)
    return tuple(
        a
        for a in range(grid.n)
        if grid.cell_shape[a] % 2 == 0 and all(np.array_equal(v, np.flip(v, a)) for v in fields)
    )


def _upper_half(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """View of ``values`` from index ``N / 2`` on along each of ``axes``.

    That is nodes ``N/2 .. N`` of a node array and cells ``N/2 .. N-1``
    of a cell array with ``N`` cells; a broadcast axis of length 1 stays
    whole.
    """
    starts = [values.shape[a] // 2 if a in axes else 0 for a in range(values.ndim)]
    return values[tuple(slice(start, None) for start in starts)]


def _halve(grid: Grid, axes: tuple[int, ...]) -> Grid:
    """The grid cut to its upper half along ``axes``, or the grid itself.

    Its first node along a halved axis lies on the mid-plane and is free
    unless the full grid fixes it.  For a field symmetric about those
    mid-planes the full grid's energy is ``2^k`` times the halved grid's
    (``k = len(axes)``), and the full gradient equals the halved one,
    doubled on each halved mid-plane.
    """
    if not axes:
        return grid
    dirichlet = np.ascontiguousarray(_upper_half(grid.dirichlet, axes))
    lo = list(grid.lo)
    for a in axes:
        lo[a] += grid.h[a] * (grid.cell_shape[a] // 2)
    return Grid(
        grid.r, grid.ell, grid.cross_section, tuple(lo), grid.h, dirichlet.shape, dirichlet,
        np.ascontiguousarray(_upper_half(grid.cell_mask, axes)),
    )


def _mirror_back(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Full-grid values from the upper half along ``axes``, by mirroring."""
    for a in axes:
        values = np.concatenate((np.flip(values[_along(a, slice(1, None))], a), values), axis=a)
    return values


def _max_norm(axes: tuple[int, ...]) -> Callable[[np.ndarray], float]:
    """Max-norm of the full grid's gradient from the gradient on the grid
    halved along ``axes``: doubled on each halved mid-plane (exact)."""
    mids = [_along(a, slice(0, 1)) for a in axes]

    def norm(g: np.ndarray) -> float:
        mag = np.abs(g)
        for mid in mids:
            mag[mid] *= 2.0
        return float(mag.max())

    return norm


def minimize(
    grid: Grid,
    density: EnergyDensity,
    load: Load,
    opts: SolveOptions | None = None,
    warm_start: ScalarField | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Minimize the discrete energy over admissible fields on the grid.

    Every density goes through Polak-Ribiere CG preconditioned by the
    exact inverse of the quadratic Hessian (:func:`_box_inverse`), whose
    set-up time the report gives as ``precond_s``.  Returns the final
    field and a report; running out of
    iterations, a failed line search, a stagnated step and a non-finite
    gradient are reported (``converged=False``), not raised.  ``warm_start`` seeds the
    iteration after projection onto the admissible set;
    ``callback(k, values)`` fires after every accepted step.

    A problem mirror-symmetric about the mid-plane of some axes
    (:func:`_mirror_axes`, reported as ``mirror_axes``) is solved on the
    upper half of those axes, with ``2^k`` times less data per pass for
    ``k`` halved axes.  The warm start is cut to that half; the result
    and every callback's values are mirrored back to the full grid, and
    the reported energy and ``grad_norm_p`` (``2^k`` times the halved
    grid's) and ``grad_max`` are the full grid's.  Both sums come from the
    cell gradients that the descent derived from its final iterate.
    """
    opts = opts or SolveOptions()
    if density.n != grid.n:
        raise ValueError(f"density acts on {density.n} components, grid has {grid.n}")
    grad_tol = opts.grad_tol if opts.grad_tol is not None else default_grad_tol(density)
    f_cells = load_cell_values(grid, load)
    tol = grad_tol * float(np.max(np.abs(f_cells))) * grid.cell_volume
    axes = _mirror_axes(grid, density, f_cells)
    half, f_half = _halve(grid, axes), _upper_half(f_cells, axes)

    if warm_start is None:
        x0 = np.zeros(half.shape)
    else:
        wg = warm_start.grid
        if wg is not grid and (wg.shape, wg.lo, wg.h) != (grid.shape, grid.lo, grid.h):
            raise ValueError("warm start lives on an incompatible grid")
        x0 = np.array(_upper_half(warm_start.values, axes))
        x0[half.dirichlet] = 0.0
    full_callback = None if callback is None else (lambda k, x: callback(k, _mirror_back(x, axes)))

    t0 = time.perf_counter()
    precond = _box_inverse(half, axes)
    precond_s = time.perf_counter() - t0
    run = _descent(
        half, density, _load_vector(half, f_half), x0, tol, opts.max_iters,
        full_callback, precond, _max_norm(axes),
    )
    wall = time.perf_counter() - t0
    field = ScalarField(grid, _mirror_back(run.x, axes))
    images = 2 ** len(axes)  # the mirror images of the halved grid
    energy = images * _assemble_energy_arr(half, run.x, density, f_half, run.grads)
    grad_norm_p = images * _norm_p(half, run.grads, density.p, half.cell_mask)
    return field, SolveReport(run.converged, run.iterations, run.grad_max, energy, wall, tol, run.trials,
                              list(axes), precond_s, grad_norm_p)


def solve_limit(
    vertical_grid: Grid,
    density: EnergyDensity,
    load: Load,
    opts: SolveOptions | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Minimize the limit energy on the vertical box alone.

    Same contract as :func:`minimize`, with the density's vertical
    restriction in place of the full density.
    """
    if vertical_grid.r != 0:
        raise ValueError("limit problems live on a vertical grid (r == 0)")
    vd = density.vertical_restriction()
    if vd.n != vertical_grid.n:
        raise ValueError("vertical grid dimension does not match the density split")
    return minimize(vertical_grid, vd, load, opts)


def oracle_1d(p: float, f_const: float) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form minimizer of the 1-D limit problem with constant load.

    For the power density ``|u'|^p / p`` on ``(-1, 1)`` the minimizer is
    ``((p-1)/p) f^(1/(p-1)) (1 - |x|^(p/(p-1)))``: its flux
    ``|u'|^(p-2) u'`` equals ``-f x``, whose derivative is ``-f``, and it
    vanishes at both endpoints.  Vectorized in ``x``.
    """
    if p < 2:
        raise ValueError("closed form exposed for p >= 2 only")
    if f_const <= 0:
        raise ValueError("load constant must be positive")
    q = p / (p - 1.0)
    c = (p - 1.0) / p * f_const ** (1.0 / (p - 1.0))

    def u(x):
        return c * (1.0 - np.abs(np.asarray(x, dtype=float)) ** q)

    return u


@dataclass
class MinimalityReport:
    trials: int
    violations: int
    worst_gap: float
    tol: float
    worst_trial: str = ""


def minimality_audit(
    u: ScalarField,
    density: EnergyDensity,
    load: Load,
    limit: ScalarField,
    seed: int = 0,
    grad_tol: float | None = None,
) -> MinimalityReport:
    """Check a solved field against a battery of admissible competitors.

    Competitors on ``u``'s grid: the field itself, the zero field,
    far-field cuts that zero the field on a core subdomain (at up to
    three distinct levels), 100 random smooth bumps, and 20 random
    gauge-ramp blends toward the limit profile ``limit``, extended over
    the grid.  ``seed`` fixes the bumps and blends.  A violation is a
    competitor whose energy undercuts the solution's by more than ``10 *
    grad_tol * max(1, |J|)``.
    """
    grid = u.grid
    if grid.r == 0:
        raise ValueError("the audit needs a horizontal axis for its cut and blend trials")
    limit_ext = extend_vertical(limit, grid)
    rng = np.random.default_rng(seed)
    f_cells = load_cell_values(grid, load)
    Ju = _assemble_energy_arr(grid, u.values, density, f_cells)
    gtol = grad_tol if grad_tol is not None else default_grad_tol(density)
    tol = 10.0 * gtol * max(1.0, abs(Ju))

    gaps: list[tuple[float, str]] = []

    def run_trial(values: np.ndarray, label: str) -> None:
        vals = np.array(values)
        vals[grid.dirichlet] = 0.0
        gaps.append((Ju - _assemble_energy_arr(grid, vals, density, f_cells), label))

    run_trial(u.values, "identity")
    run_trial(np.zeros(grid.shape), "zero-field")

    hmesh = np.meshgrid(*[grid.axis_nodes(a) for a in range(grid.r)], indexing="ij")
    hpoints = np.stack(hmesh, axis=-1)
    vshape = (1,) * (grid.n - grid.r)

    ell = grid.ell
    # three levels, which coincide at ell / 4 when ell <= 4/3 (not np.unique: numpy.ma)
    for tc in dict.fromkeys(np.linspace(0.25 * ell, max(0.25 * ell, ell - 1.0), 3).tolist()):
        rho = cutoff(grid.cross_section, hpoints, min(tc + 1.0, ell), tc)
        run_trial((1.0 - rho.reshape(rho.shape + vshape)) * u.values, f"far-cut t={tc:.3g}")

    umax = max(1.0, float(np.max(np.abs(u.values))))
    mesh = grid.node_meshgrid()
    for i in range(100):
        bump = np.ones(grid.shape)
        for a in range(grid.n):
            kmode = rng.integers(1, 5)
            extent = grid.h[a] * (grid.shape[a] - 1)
            bump = bump * np.sin(kmode * np.pi * (mesh[a] - grid.lo[a]) / extent)
        amp = rng.uniform(0.02, 0.5) * umax * rng.choice([-1.0, 1.0])
        run_trial(u.values + amp * bump, f"bump {i}")

    for i in range(20):
        a_ = rng.uniform(0.05, 1.0)
        t_ = rng.uniform(0.1 * ell, 0.6 * ell)
        s_ = rng.uniform(t_ + 0.05 * (ell - t_), ell)
        rho = cutoff(grid.cross_section, hpoints, s_, t_).reshape(hpoints.shape[:-1] + vshape)
        run_trial((1.0 - a_ * rho) * u.values + a_ * rho * limit_ext.values, f"blend {i}")

    worst_gap, worst_label = max(gaps, key=lambda g: g[0])
    violations = sum(1 for g, _ in gaps if g > tol)
    return MinimalityReport(len(gaps), violations, float(worst_gap), tol, worst_label)
