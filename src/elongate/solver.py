"""Energy minimization on grids: preconditioned conjugate gradients.

The density picks the path.  Quadratic densities get a matrix-free
preconditioned linear CG driven by the assembled energy gradient; every
other density gets preconditioned Polak-Ribiere conjugate gradients with
restarts and an Armijo line search.  Its first step is the safeguarded
minimizer of the quadratic through the slope at 0 and one probe at twice
the last accepted step, which makes the search nearly exact, as
Polak-Ribiere needs.  Line-search energy differences are evaluated
through cancellation-free per-cell increments, so descent remains
verifiable far below the round-off floor of naive energy subtraction,
which is what the tight default tolerances need.

Both paths share one preconditioner: the exact inverse of the quadratic
Hessian of the grid's bounding box, applied by fast diagonalization
with sine transforms and restricted to the free nodes.  On box grids
and on the vertical grid of the limit problem it solves the quadratic
problem outright; on ball grids and for ``p > 2`` it acts as an H^1
(Sobolev-gradient) preconditioner.

Stopping is on the max-norm of the discrete energy gradient scaled by
(sup |load|) * (cell volume), keeping one dimensionless tolerance
meaningful across elongations and spacings.  Running out of iterations,
a line search that finds no acceptable step, a step too small to move
the iterate and a non-finite gradient all end the solve with
``converged=False``; none of them raises.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .density import EnergyDensity
from .field import (
    Load,
    ScalarField,
    _assemble_energy_arr,
    _assemble_gradient_arr,
    _cell_gradients_arr,
    _cell_means_arr,
    assemble_energy,
    load_cell_values,
)
from .geometry import Grid, cutoff

#: Armijo sufficient-decrease constant, backtracking factor and first trial step.
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_INITIAL_STEP = 1.0
#: The interpolated step stays within this factor of the probe step.
_INTERP_RANGE = 10.0
#: Smallest Armijo step attempted before the line search gives up.
_MIN_STEP = 1e-16
#: Relative size of an accepted step below which the iterate no longer moves.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule shared by both minimizers.

    ``grad_tol`` is dimensionless; the absolute stopping threshold is
    ``grad_tol * sup|load| * cell volume``.  ``None`` picks the default
    for the density (:func:`default_grad_tol`).  ``max_iters`` bounds
    the iterations of one solve.
    """

    grad_tol: float | None = None
    max_iters: int = 100_000

    def __post_init__(self) -> None:
        if self.grad_tol is not None and not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    grad_max: float
    energy: float
    wall_time: float
    method: str
    grad_tol_abs: float
    #: Line-search energy evaluations; 0 on the linear-CG path.
    trials: int

    def to_json(self) -> dict:
        return asdict(self)


def default_grad_tol(density: EnergyDensity) -> float:
    """Default dimensionless gradient tolerance: 1e-10 quadratic, 1e-9 otherwise."""
    return 1e-10 if density.p == 2 else 1e-9


def _dst1(values: np.ndarray, axis: int) -> np.ndarray:
    """Twice the DST-I of the interior entries along ``axis``.

    Node arrays carry the two boundary entries, which must be zero; the
    result has the same shape, zero at both ends.  One ``rfft`` of the
    odd extension gives the transform in its (negated) imaginary part.
    """
    inner = [slice(None)] * values.ndim
    inner[axis] = slice(-2, 0, -1)
    ext = np.concatenate((values, -values[tuple(inner)]), axis=axis)
    return -np.fft.rfft(ext, axis=axis).imag


def _box_inverse(grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the box's quadratic Hessian, restricted to the free nodes.

    With one centroid quadrature point the Hessian of ``|grad u|^2 / 2``
    on the grid's bounding box is ``vol * sum_a K_a / h_a^2 (x)
    prod_{b != a} M_b`` over the interior nodes, with the 1-D stiffness
    ``K = tridiag(-1, 2, -1)`` and corner-mean mass ``M = tridiag(1, 2,
    1) / 4``.  Sine vectors diagonalize both (fast diagonalization):
    the eigenvalues are ``vol * sum_a (4 / h_a^2) sin^2(th_a / 2)
    prod_{b != a} cos^2(th_b / 2)`` with ``th_a = k_a pi / N_a`` for
    ``N_a`` cells on axis ``a``.  Two doubled DST-I passes scale by
    ``2 N_a`` per axis, which the inverse eigenvalues absorb.  The
    result is zeroed at every Dirichlet node, so the map is symmetric
    and positive definite on the free nodes of any grid, and exact on
    box grids.
    """
    half = [
        (0.5 * np.pi / m * np.arange(m + 1)).reshape([-1 if b == a else 1 for b in range(grid.n)])
        for a, m in enumerate(grid.cell_shape)
    ]
    lam = np.zeros(grid.shape)
    for a in range(grid.n):
        term = 4.0 / grid.h[a] ** 2 * np.sin(half[a]) ** 2
        for b in range(grid.n):
            if b != a:
                term = term * np.cos(half[b]) ** 2
        lam += term
    lam *= grid.cell_volume * float(np.prod([2.0 * m for m in grid.cell_shape]))
    inv = np.zeros(grid.shape)
    inner = (slice(1, -1),) * grid.n
    inv[inner] = 1.0 / lam[inner]
    fixed = grid.dirichlet

    def apply(residual: np.ndarray) -> np.ndarray:
        z = residual
        for a in range(grid.n):
            z = _dst1(z, a)
        z *= inv
        for a in range(grid.n):
            z = _dst1(z, a)
        z[fixed] = 0.0
        return z

    return apply


def _linear_cg(grid, density, f_cells, x, tol, max_iters, callback, precond):
    zero_load = np.zeros((1,) * grid.n)

    def grad(values):
        return _assemble_gradient_arr(grid, values, density, f_cells)

    r = -grad(x)
    rmax = float(np.max(np.abs(r)))
    if rmax <= tol or not math.isfinite(rmax):
        return x, 0, rmax, rmax <= tol, 0
    p = precond(r)
    rz = float((r * p).sum())
    exact = True  # r is the assembled residual at x, not the recurrence
    k = 0
    for k in range(1, max_iters + 1):
        # the Hessian product is the gradient of the unloaded energy
        Ap = _assemble_gradient_arr(grid, p, density, zero_load)
        pAp = float((p * Ap).sum())
        if pAp <= 0:
            break  # curvature lost to round-off; the true residual check below decides
        alpha = rz / pAp
        x = x + alpha * p
        exact = k % 50 == 0
        r = -grad(x) if exact else r - alpha * Ap
        if callback is not None:
            callback(k, x)
        rmax = float(np.max(np.abs(r)))
        if not math.isfinite(rmax):
            break
        if rmax <= tol and not exact:
            r = -grad(x)
            rmax = float(np.max(np.abs(r)))
            exact = True
        if rmax <= tol:
            break
        if alpha * float(np.max(np.abs(p))) <= _EPS * float(np.max(np.abs(x))):
            break  # stagnated at the round-off floor: the step no longer moves x
        z = precond(r)
        rz_new = float((r * z).sum())
        p = z + (rz_new / rz) * p
        rz = rz_new
    gmax = rmax if exact else float(np.max(np.abs(grad(x))))
    return x, k, gmax, gmax <= tol, 0


def _descent(grid, density, f_cells, x, tol, max_iters, callback, precond):
    vol = grid.cell_volume
    mask = None if grid.cell_mask.all() else grid.cell_mask
    fc = np.broadcast_to(f_cells, grid.cell_shape)
    trials = 0

    def grad(values):
        return _assemble_gradient_arr(grid, values, density, f_cells)

    g = grad(x)
    gmax = float(np.max(np.abs(g)))
    if gmax <= tol or not math.isfinite(gmax):
        return x, 0, gmax, gmax <= tol, trials
    z = precond(g)
    gz = float((g * z).sum())
    d = -z
    m = -gz
    step = _INITIAL_STEP
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        # Energy change along d, assembled from per-cell cancellation-free
        # density increments; accurate at any step size.
        line = density.line_increment(_cell_gradients_arr(grid, x), _cell_gradients_arr(grid, d))
        md = fc * _cell_means_arr(d)
        if mask is not None:
            md = np.where(mask, md, 0.0)
        lin_d = vol * float(md.sum())

        def phi(alpha):
            nonlocal trials
            trials += 1
            inc = line(alpha)
            if mask is not None:
                inc = np.where(mask, inc, 0.0)
            return vol * float(inc.sum()) - alpha * lin_d

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
                return x, k - 1, gmax, False, trials
            f = phi(alpha)
        x = x + alpha * d
        step = alpha
        if callback is not None:
            callback(k, x)
        g_new = grad(x)
        gmax = float(np.max(np.abs(g_new)))
        if not math.isfinite(gmax):
            break
        if gmax <= tol:
            converged = True
            break
        if alpha * float(np.max(np.abs(d))) <= _EPS * float(np.max(np.abs(x))):
            break  # stagnated at the round-off floor: the step no longer moves x
        z_new = precond(g_new)
        gz_new = float((g_new * z_new).sum())
        beta = max(0.0, (gz_new - float((g_new * z).sum())) / gz)
        d = -z_new + beta * d
        g, z, gz = g_new, z_new, gz_new
        m = float((g * d).sum())
        if m >= 0.0:  # restart: keep the direction a descent direction
            d = -z
            m = -gz
    return x, k, gmax, converged, trials


def minimize(
    grid: Grid,
    density: EnergyDensity,
    load: Load,
    opts: SolveOptions | None = None,
    warm_start: ScalarField | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Minimize the discrete energy over admissible fields on the grid.

    The density picks the path: linear CG when ``density.quadratic``,
    Polak-Ribiere CG otherwise, both preconditioned by the box inverse;
    ``SolveReport.method`` names the path.  Returns the final field and
    a report; running out of iterations, a failed line search, a
    stagnated step and a non-finite gradient are reported
    (``converged=False``), not raised.  ``warm_start`` seeds the
    iteration after projection onto the admissible set;
    ``callback(k, values)`` fires after every accepted step.
    """
    opts = opts or SolveOptions()
    if density.n != grid.n:
        raise ValueError(f"density acts on {density.n} components, grid has {grid.n}")
    method = "linear-cg" if density.quadratic else "nonlinear-cg"
    grad_tol = opts.grad_tol if opts.grad_tol is not None else default_grad_tol(density)
    tol = grad_tol * load.max_abs(grid) * grid.cell_volume
    f_cells = load_cell_values(grid, load)

    if warm_start is None:
        x0 = np.zeros(grid.shape)
    else:
        wg = warm_start.grid
        if wg is not grid and (wg.shape, wg.lo, wg.h) != (grid.shape, grid.lo, grid.h):
            raise ValueError("warm start lives on an incompatible grid")
        x0 = np.array(warm_start.values)
        x0[grid.dirichlet] = 0.0

    t0 = time.perf_counter()
    run = _linear_cg if method == "linear-cg" else _descent
    x, iters, gmax, converged, trials = run(
        grid, density, f_cells, x0, tol, opts.max_iters, callback, _box_inverse(grid)
    )
    wall = time.perf_counter() - t0
    field = ScalarField(grid, x)
    energy = _assemble_energy_arr(grid, field.values, density, f_cells)
    return field, SolveReport(converged, iters, gmax, energy, wall, method, tol, trials)


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

    def to_json(self) -> dict:
        return asdict(self)


def minimality_audit(
    u: ScalarField,
    grid: Grid,
    density: EnergyDensity,
    load: Load,
    limit_ext: ScalarField,
    trials: int = 100,
    blend_trials: int = 20,
    seed: int = 0,
    alpha: float | None = None,
    s: float | None = None,
    t: float | None = None,
    grad_tol: float | None = None,
) -> MinimalityReport:
    """Check a solved field against a battery of admissible competitors.

    Competitors: the field itself, the zero field, far-field cuts that
    zero the field on a core subdomain, random smooth bumps, and
    gauge-ramp blends toward the extended limit profile (at the given
    ``alpha``/``s``/``t`` when provided, otherwise sampled).  A violation
    is a competitor whose energy undercuts the solution's by more than
    ``10 * grad_tol * max(1, |J|)``.
    """
    if grid.r == 0:
        raise ValueError("the audit needs a horizontal axis for its cut and blend trials")
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
    for tc in np.linspace(0.25 * ell, max(0.25 * ell, ell - 1.0), 3):
        sc = min(tc + 1.0, ell)
        if not 0 < tc < sc:
            continue
        rho = cutoff(grid.cross_section, hpoints, sc, tc)
        run_trial((1.0 - rho.reshape(rho.shape + vshape)) * u.values, f"far-cut t={tc:.3g}")

    umax = max(1.0, float(np.max(np.abs(u.values))))
    mesh = grid.node_meshgrid()
    for i in range(trials):
        bump = np.ones(grid.shape)
        for a in range(grid.n):
            kmode = rng.integers(1, 5)
            extent = grid.h[a] * (grid.shape[a] - 1)
            bump = bump * np.sin(kmode * np.pi * (mesh[a] - grid.lo[a]) / extent)
        amp = rng.uniform(0.02, 0.5) * umax * rng.choice([-1.0, 1.0])
        run_trial(u.values + amp * bump, f"bump {i}")

    for i in range(blend_trials):
        if alpha is not None and s is not None and t is not None and i == 0:
            a_, t_, s_ = alpha, t, s
        else:
            a_ = rng.uniform(0.05, 1.0) if alpha is None else alpha
            t_ = rng.uniform(0.1 * ell, 0.6 * ell) if t is None else t
            s_ = rng.uniform(t_ + 0.05 * (ell - t_), ell) if s is None else s
        if not 0 < t_ < s_:
            continue
        rho = cutoff(grid.cross_section, hpoints, s_, t_).reshape(hpoints.shape[:-1] + vshape)
        run_trial((1.0 - a_ * rho) * u.values + a_ * rho * limit_ext.values, f"blend {i}")

    worst_gap, worst_label = max(gaps, key=lambda g: g[0])
    violations = sum(1 for g, _ in gaps if g > tol)
    return MinimalityReport(len(gaps), violations, float(worst_gap), tol, worst_label)
