"""Energy minimization on grids: preconditioned conjugate gradients.

Every density goes through one minimizer: preconditioned Polak-Ribiere
conjugate gradients with restarts and an Armijo line search.  Its first
step is the safeguarded minimizer of the quadratic through the slope at
0 and one probe at twice the last accepted step, which makes the search
nearly exact, as Polak-Ribiere needs, and exact for a quadratic density.
Line-search energy differences are evaluated through cancellation-free
per-cell increments, so descent remains verifiable far below the
round-off floor of naive energy subtraction, which is what the tight
default tolerances need.

The preconditioner is the exact inverse of the quadratic Hessian of the
grid's bounding box, applied by fast diagonalization with sine
transforms and restricted to the free nodes.  Every axis is folded into
mirror sums and differences before any transform, so the preconditioner
commutes bit for bit with the mirror flip of every axis and a symmetric
problem keeps an exactly symmetric iterate (round-off asymmetry costs
iterations).  Short axes transform with precomputed dense sine
matrices, long ones with ``rfft``.  Its indices, view shapes and
matrices are set up once per solve, so an application does only the
arithmetic.  On box grids and on the vertical grid of the limit problem
it solves the quadratic problem outright; on ball grids and for ``p >
2`` it acts as an H^1 (Sobolev-gradient) preconditioner.

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

import functools
import math
import time
from dataclasses import asdict, dataclass
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
    load_cell_values,
)
from .geometry import Grid, cutoff

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
#: Axes with at most this many interior nodes take their sine transform from
#: dense matrices (one BLAS product per parity); longer ones from ``rfft``.
_DENSE_MAX = 128


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule of the minimizer.

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
    grad_tol_abs: float
    #: Line-search energy evaluations, at least one per iteration.
    trials: int
    #: Axes about whose mid-plane the problem is symmetric; the solve ran
    #: on the upper half of each (see :func:`minimize`).
    mirror_axes: list[int]

    def to_json(self) -> dict:
        return asdict(self)


def default_grad_tol(density: EnergyDensity) -> float:
    """Default dimensionless gradient tolerance: 1e-10 quadratic, 1e-9 otherwise."""
    return 1e-10 if density.p == 2 else 1e-9


@functools.lru_cache(maxsize=None)
def _sine_halves(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I of an axis with ``cells`` cells, split by mode parity.

    The full matrix is ``Q[k, j] = sqrt(2 / N) sin(pi k j / N)`` for ``k, j
    = 1 .. N-1``.  Odd modes are even about the axis midpoint and even
    modes odd, so the odd-mode rows act on the mirror sums (the middle
    node last) and the even-mode rows on the mirror differences: the
    returned blocks are ``Q[odd, :ceil((N-1)/2)]`` and ``Q[even,
    :floor((N-1)/2)]``.  The argument ``k j`` is reduced in integers to
    ``[0, N/2]``, so every entry is the correctly signed sine of an angle
    in ``[0, pi/2]``: ``Q^2 = I`` holds to an ulp for ``N`` a power of two
    up to 128 (plain ``sin(pi k j / N)`` is off by up to 6e-15 there).
    Cached per ``N``, which only axes of at most ``_DENSE_MAX`` interior
    nodes ask for; read-only.
    """
    table = math.sqrt(2.0 / cells) * np.sin(np.pi / cells * np.arange(cells // 2 + 1))
    j = np.arange(1, cells)
    blocks = []
    for k, width in ((j[0::2], cells // 2), (j[1::2], (cells - 1) // 2)):
        m = np.outer(k, j[:width]) % (2 * cells)
        q = table[np.minimum(m % cells, cells - m % cells)]
        q[m >= cells] *= -1.0
        q.setflags(write=False)
        blocks.append(q)
    return blocks[0], blocks[1]


def _sine_sums(values: np.ndarray, length: int, place: slice, take: slice, out: np.ndarray) -> None:
    """``out = sum_j values_j sin(2 pi k j / length)`` over the middle axis, by ``rfft``.

    The values sit at the indices ``place`` of a zero-padded sequence of
    ``length``; the sums are taken at the indices ``k`` in ``take``.
    """
    pre, _, post = values.shape
    z = np.zeros((pre, length, post))
    z[:, place] = values
    np.negative(np.fft.rfft(z, axis=1).imag[:, take], out=out)


class _FoldedSine:
    """The sine transform along one axis of an array of fixed shape, in mirror-folded form.

    ``fold`` replaces the axis by its mirror sums (the middle node last)
    followed by its mirror differences, and undoes that.  A flip of
    the axis leaves the sums bitwise unchanged and negates the
    differences exactly, and flips of the other axes then permute
    nothing, so a transform of folded data commutes with every flip bit
    for bit, whatever the order of its floating-point sums.  Odd modes
    are even about the midpoint, so ``transform`` maps the sums to the
    odd modes and the differences to the even modes, stored in that
    order.  Axes with at most ``_DENSE_MAX`` interior nodes use the
    orthonormal matrices of :func:`_sine_halves`; longer ones zero-padded
    ``rfft`` sums, which scale a round trip by ``N / 2``.  Every index,
    view shape and matrix orientation is fixed at construction, so a
    call does only the arithmetic; both methods write into ``out``.

    With ``half`` the axis holds nodes ``N/2 .. N-1`` of a mirror-symmetric
    axis of ``N`` cells, the upper half that the solver keeps (see
    :func:`_halve`).  Its mirror sums would be its values in reverse
    order, twice over, and its differences vanish, so it is never folded
    and transforms to the odd modes alone: by the odd-mode matrix with
    its columns reversed, or by ``rfft`` sums over the reversed values.
    The factor 2 is left to the caller.
    """

    def __init__(self, shape: tuple[int, ...], axis: int, half: bool = False):
        j = shape[axis]  # interior nodes, or the free nodes of a halved axis
        self.half = half
        self.cells = cells = 2 * j if half else j + 1
        c, h = cells // 2, j // 2  # sums and odd modes, differences and even modes
        # nodes i and N - i
        mirror = (_along(axis, slice(0, h)), _along(axis, slice(j - 1, c - 1, -1)))
        folded = (_along(axis, slice(0, h)), _along(axis, slice(c, j)))
        #: (sources, destinations) of the fold, then of its inverse
        self.folds = ((mirror, folded), (folded, mirror))
        self.middle = _along(axis, slice(h, c)) if c > h else None  # its own mirror
        self.shape3 = (math.prod(shape[:axis]), j, math.prod(shape[axis + 1:]))
        # one matrix product, not ``pre`` matrix-vector products
        self.flat = self.shape3[2] == 1
        parts = (slice(0, c), slice(c, j))[: 1 if half else 2]
        dense = cells - 1 <= _DENSE_MAX
        self.scale = 1.0 if dense else 0.5 * cells
        self.products = self.sines = None
        if dense:
            # ``x @ q.T`` on a flat array, ``q @ x`` otherwise, and the
            # transposes for the inverse; as views, never contiguous copies,
            # so each product keeps its BLAS call and its round-off
            blocks = _sine_halves(cells)
            if half:  # columns reversed once, so BLAS sees positive strides
                blocks = (np.ascontiguousarray(blocks[0][:, ::-1]),)
            halves = list(zip(blocks, parts))
            self.products = tuple(
                tuple((q.T if self.flat != inverse else q, part) for q, part in halves)
                for inverse in (False, True)
            )
        else:
            sums = slice(c, 0, -1) if half else slice(1, c + 1)
            modes, diffs = slice(1, cells, 2), slice(1, h + 1)
            self.sines = tuple(
                [(2 * cells, place, take, parts[0])] + [(cells, diffs, diffs, part) for part in parts[1:]]
                for place, take in ((sums, modes), (modes, sums))
            )

    def fold(self, x: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Mirror sums, then differences, along the axis; ``inverse`` unfolds."""
        (lo, hi), (plus, minus) = self.folds[inverse]
        np.add(x[lo], x[hi], out=out[plus])
        np.subtract(x[lo], x[hi], out=out[minus])
        if self.middle is not None:
            out[self.middle] = x[self.middle]
        return out

    def transform(self, x: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Modes of folded values, or with ``inverse`` folded values of modes."""
        x3, y3 = x.reshape(self.shape3), out.reshape(self.shape3)
        if self.sines is not None:
            for length, place, take, part in self.sines[inverse]:
                _sine_sums(x3[:, part], length, place, take, y3[:, part])
        elif self.flat:
            for q, part in self.products[inverse]:
                np.matmul(x3[:, part, 0], q, out=y3[:, part, 0])
        else:
            for q, part in self.products[inverse]:
                np.matmul(q, x3[:, part], out=y3[:, part])
        return out


def _box_inverse(grid: Grid, halved: tuple[int, ...] = ()) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the box's quadratic Hessian, restricted to the free nodes.

    With one centroid quadrature point the Hessian of ``|grad u|^2 / 2``
    on the grid's bounding box is ``vol * sum_a K_a / h_a^2 (x)
    prod_{b != a} M_b`` over the interior nodes, with the 1-D stiffness
    ``K = tridiag(-1, 2, -1)`` and corner-mean mass ``M = tridiag(1, 2,
    1) / 4``.  Sine vectors diagonalize both (fast diagonalization,
    Lynch, Rice & Thomas 1964): the eigenvalues are ``vol * sum_a (4 /
    h_a^2) sin^2(th_a / 2) prod_{b != a} cos^2(th_b / 2)`` with ``th_a =
    k_a pi / N_a`` for ``N_a`` cells on axis ``a``, listed odd modes
    first as :class:`_FoldedSine` stores them.  The result is zeroed at
    every Dirichlet node, so the map is symmetric and positive definite
    on the free nodes of any grid, exact on box grids, and commutes bit
    for bit with the mirror flip of every axis.

    On a grid halved along the axes ``halved`` (:func:`_halve`) it is the
    exact inverse of the halved problem's Hessian: a halved axis of ``N /
    2`` cells is the upper half of ``N``, its first node is free and only
    its odd modes occur, each taken twice (the factor ``2^k`` for ``k``
    halved axes).  Everything but the arithmetic is set up here, once
    per solve; each application ping-pongs between two interior-size
    arrays of its own.
    """
    inner = tuple(slice(0 if a in halved else 1, -1) for a in range(grid.n))
    shape = tuple(m if a in halved else m - 1 for a, m in enumerate(grid.cell_shape))
    axes = [_FoldedSine(shape, a, a in halved) for a in range(grid.n)]
    folding = [ax for ax in axes if not ax.half]
    half_angles = []
    for a, ax in enumerate(axes):
        m = ax.cells
        k = np.arange(1, m, 2) if ax.half else np.concatenate((np.arange(1, m, 2), np.arange(2, m, 2)))
        half_angles.append((0.5 * np.pi / m * k).reshape([-1 if b == a else 1 for b in range(grid.n)]))
    lam = np.zeros(shape)
    for a in range(grid.n):
        term = 4.0 / grid.h[a] ** 2 * np.sin(half_angles[a]) ** 2
        for b in range(grid.n):
            if b != a:
                term = term * np.cos(half_angles[b]) ** 2
        lam += term
    inv = 2.0 ** len(halved) / (lam * (grid.cell_volume * math.prod(ax.scale for ax in axes)))
    fixed = grid.dirichlet[inner]
    fixed = fixed if fixed.any() else None

    def apply(residual: np.ndarray) -> np.ndarray:
        # every step reads z and writes the other array, which then becomes z
        z = folding[0].fold(residual[inner], np.empty(shape)) if folding else np.array(residual[inner])
        w = np.empty(shape)
        for ax in folding[1:]:
            z, w = ax.fold(z, w), z
        for ax in axes:
            z, w = ax.transform(z, w), z
        z *= inv
        for ax in axes:
            z, w = ax.transform(z, w, inverse=True), z
        for ax in folding[:-1]:
            z, w = ax.fold(z, w, inverse=True), z
        out = np.zeros(grid.shape)
        core = out[inner]
        if folding:
            folding[-1].fold(z, core, inverse=True)
        else:
            core[...] = z
        if fixed is not None:
            core[fixed] = 0.0
        return out

    return apply


def _descent(grid, density, load_vec, x, tol, max_iters, callback, precond, max_norm):
    vol = grid.cell_volume
    mask = None if grid.outside_cells is None else grid.cell_mask
    trials = 0

    Gx = _cell_gradients_arr(grid, x)
    g = _assemble_gradient_arr(grid, Gx, density, load_vec)
    gmax = max_norm(g)
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
        # density increments; accurate at any step size.  The load term is
        # linear in the step.
        Gd = _cell_gradients_arr(grid, d)
        line = density.line_increment(Gx, Gd)
        lin_d = float((load_vec * d).sum())

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
        # Cell gradients are linear in the field, so they are carried along
        # the step and re-derived from x every 50 iterations and before
        # convergence is accepted.  The line data goes first, so that the
        # gradient assembly does not add to it.
        Gd *= alpha
        Gx += Gd
        line = Gd = None
        exact = k % 50 == 0
        if exact:
            Gx = _cell_gradients_arr(grid, x)
        g_new = _assemble_gradient_arr(grid, Gx, density, load_vec)
        gmax = max_norm(g_new)
        if gmax <= tol and not exact:
            Gx = _cell_gradients_arr(grid, x)
            g_new = _assemble_gradient_arr(grid, Gx, density, load_vec)
            gmax = max_norm(g_new)
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
        d *= beta  # d = -z_new + beta * d, in place
        d -= z_new
        g, z, gz = g_new, z_new, gz_new
        m = float((g * d).sum())
        if m >= 0.0:  # restart: keep the direction a descent direction
            np.negative(z, out=d)
            m = -gz
    return x, k, gmax, converged, trials


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
    return tuple(
        a
        for a in range(grid.n)
        if grid.cell_shape[a] % 2 == 0
        and all(np.array_equal(v, np.flip(v, a)) for v in (grid.dirichlet, grid.cell_mask, f_cells))
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
        return float(np.max(mag))

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
    box inverse.  Returns the final field and a report; running out of
    iterations, a failed line search, a stagnated step and a non-finite
    gradient are reported (``converged=False``), not raised.  ``warm_start`` seeds the
    iteration after projection onto the admissible set;
    ``callback(k, values)`` fires after every accepted step.

    A problem mirror-symmetric about the mid-plane of some axes
    (:func:`_mirror_axes`, reported as ``mirror_axes``) is solved on the
    upper half of those axes, with ``2^k`` times less data per pass for
    ``k`` halved axes.  The warm start is cut to that half; the result
    and every callback's values are mirrored back to the full grid, and
    the reported energy and ``grad_max`` are the full grid's.
    """
    opts = opts or SolveOptions()
    if density.n != grid.n:
        raise ValueError(f"density acts on {density.n} components, grid has {grid.n}")
    grad_tol = opts.grad_tol if opts.grad_tol is not None else default_grad_tol(density)
    tol = grad_tol * load.max_abs(grid) * grid.cell_volume
    f_cells = load_cell_values(grid, load)
    axes = _mirror_axes(grid, density, f_cells)
    half = _halve(grid, axes)

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
    x, iters, gmax, converged, trials = _descent(
        half, density, _load_vector(half, _upper_half(f_cells, axes)), x0, tol, opts.max_iters,
        full_callback, _box_inverse(half, axes), _max_norm(axes),
    )
    wall = time.perf_counter() - t0
    field = ScalarField(grid, _mirror_back(x, axes))
    energy = _assemble_energy_arr(grid, field.values, density, f_cells)
    return field, SolveReport(converged, iters, gmax, energy, wall, tol, trials, list(axes))


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
