"""The solver's preconditioner: the exact inverse of the quadratic Hessian.

With one centroid quadrature point the Hessian of ``|grad u|^2 / 2`` on
a grid's bounding box is diagonalized by sine vectors (fast
diagonalization, Lynch, Rice & Thomas 1964), so its inverse is applied
by one sine transform along every axis: a precomputed dense sine matrix
on short axes, a real FFT on long ones.  A long halved axis of ``j``
nodes takes its odd modes as a DCT-III, and back a DCT-II, each from one
real FFT of length ``j`` (Makhoul 1980); a long whole axis a zero-padded
``rfft`` of twice its cell count.  On a grid with masked cells (a
ball cross-section) a capacitance-matrix correction, one small dense
matrix per vertical sine mode, makes the inverse exact on the masked
grid too; built from a closed-form 1-D Green's function and split by
the grid's symmetries, it acts where the box inverse holds horizontal
nodes by vertical modes.  A mirror-symmetric problem comes halved along
its symmetric axes (:func:`elongate.solver._halve`), and a halved axis
transforms to its odd modes alone; halving is what keeps a symmetric
solution exactly symmetric.  Everything but the arithmetic is set up
once per solve; the correction's dense systems are solved on each
application for its own right-hand sides, never inverted.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .geometry import Grid

#: Axes with at most this many interior nodes take their sine transform from
#: a dense matrix (one BLAS product); longer ones from ``rfft``.
_DENSE_MAX = 128


def _sines(cells: int, k: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sqrt(2 / N) sin(pi k j / N)`` for integer arrays ``k`` and ``j`` (broadcast).

    ``k j`` is reduced in integers to an angle in ``[0, pi/2]`` and a
    sign, so every entry is the correctly signed sine of such an angle:
    the orthonormal DST-I (``k, j = 1 .. N-1``) squares to the identity
    to an ulp for ``N`` a power of two up to 128 (plain ``sin(pi k j /
    N)`` is off by up to 6e-15 there).
    """
    table = math.sqrt(2.0 / cells) * np.sin(np.pi / cells * np.arange(cells // 2 + 1))
    m = (k * j) % (2 * cells)
    q = table[np.minimum(m % cells, cells - m % cells)]
    q[m >= cells] *= -1.0
    return q


@functools.lru_cache(maxsize=None)
def _sine_matrix(cells: int, half: bool) -> np.ndarray:
    """Dense sine transform of an axis with ``cells`` cells: modes by nodes.

    The orthonormal DST-I, or with ``half`` its odd-mode rows over the
    nodes ``N/2 .. N-1``.  Cached per ``(N, half)``, which only axes of at
    most ``_DENSE_MAX`` interior nodes ask for; read-only.
    """
    q = _sines(cells, np.arange(1, cells, 1 + half)[:, None], np.arange(cells // 2 if half else 1, cells))
    q.setflags(write=False)
    return q


def _sine_sums(values: np.ndarray, out: np.ndarray) -> None:
    """``out_k = sqrt(2 / N) sum_i values_i sin(pi k i / N)``, ``i, k = 1 .. N-1``, over the middle axis.

    The orthonormal DST-I of a whole axis of ``N`` cells, from the
    ``rfft`` of the values zero-padded to length ``2N``; it is its own
    transpose and its own inverse.
    """
    pre, j, post = values.shape
    z = np.zeros((pre, 2 * j + 2, post))
    z[:, 1:j + 1] = values
    np.multiply(np.fft.rfft(z, axis=1).imag[:, 1:j + 1], -math.sqrt(2.0 / (j + 1)), out=out)


def _half_sines(values: np.ndarray, twiddle: np.ndarray, inverse: bool, out: np.ndarray) -> None:
    """Odd-mode sine sums of a halved axis over the middle axis, by one real FFT of its length.

    On the nodes ``j + s`` of an axis of ``N = 2j`` cells an odd mode ``k
    = 2m + 1`` is ``sin(pi k (j + s) / N) = (-1)^m cos(pi k s / N)``, so
    ``out_m = c sum_s values_s sin(pi k (j + s) / N)``, ``c = sqrt(2 /
    N)``, is a DCT-III: one ``irfft`` of length ``j`` between ``twiddle``,
    ``c (j / 2) e^(i pi t / N)`` over ``t = 0 .. j/2`` with ``t = 0``
    doubled, and a reordering (Makhoul 1980).  With ``inverse`` it is the
    transpose, a DCT-II: the reordering's transpose, one ``rfft`` and
    ``twiddle = c e^(-i pi t / N)``.
    """
    j = values.shape[1]
    h, mirrored = j // 2, slice(j - 1, (j - 1) // 2, -1)  # odd modes, last first
    if inverse:
        a = np.empty(values.shape)
        a[:, :(j + 1) // 2] = values[:, 0::2]
        np.negative(values[:, 1::2], out=a[:, mirrored])
        z = np.fft.rfft(a, axis=1)
        z *= twiddle
        out[:, :h + 1] = z.real
        np.negative(z.imag[:, j - h - 1:0:-1], out=out[:, h + 1:])
    else:
        z = np.empty((values.shape[0], h + 1, values.shape[2]), complex)
        z.real = values[:, :h + 1]
        z.imag[:, 0] = 0.0
        np.negative(values[:, j - 1:j - h - 1:-1], out=z.imag[:, 1:])
        z *= twiddle
        w = np.fft.irfft(z, j, axis=1)
        out[:, 0::2] = w[:, :(j + 1) // 2]
        np.negative(w[:, mirrored], out=out[:, 1::2])


class _SineAxis:
    """The sine transform along one axis of an array of fixed shape.

    ``transform`` maps the axis's interior nodes ``1 .. N-1`` to its modes
    ``1 .. N-1`` (``modes``), in natural order, and back, by the
    orthonormal DST-I: axes with at most ``_DENSE_MAX`` interior nodes
    take the matrix of :func:`_sine_matrix`, longer ones the real FFT of
    :func:`_sine_sums`.  Every index, view shape, matrix orientation and
    twiddle is fixed at construction, so a call does only the arithmetic
    and writes into ``out``.

    With ``half`` the axis holds nodes ``N/2 .. N-1`` of a mirror-symmetric
    axis of ``N`` cells, the upper half that the solver keeps (see
    :func:`_halve`).  Only the odd modes, which are even about the
    midpoint, occur: the odd-mode rows of the matrix, or on a long axis
    the sums of :func:`_half_sines`.  The factor 2 of the mirror image is
    left to the caller: the transform ``Qh`` satisfies ``Qh W Qh^T = I``,
    ``W = diag(1, 2, ..., 2)`` counting every node but the mid-plane twice.
    """

    def __init__(self, shape: tuple[int, ...], axis: int, half: bool = False):
        j = shape[axis]  # interior nodes, or the free nodes of a halved axis
        self.half = half
        self.cells = cells = 2 * j if half else j + 1
        self.modes = np.arange(1, cells, 1 + half)
        self.shape3 = (math.prod(shape[:axis]), j, math.prod(shape[axis + 1:]))
        # one matrix product, not ``pre`` matrix-vector products
        self.flat = self.shape3[2] == 1
        self.products = self.twiddles = None
        if cells - 1 <= _DENSE_MAX:
            # ``x @ q.T`` on a flat array, ``q @ x`` otherwise, and the
            # transposes for the inverse.  A flat array's ``q.T`` is a
            # contiguous copy, with which a product is ~30% faster than with
            # the transposed view; the other transpose stays a view
            q = _sine_matrix(cells, half)
            qt = np.ascontiguousarray(q.T) if self.flat else q.T
            self.products = (qt, q) if self.flat else (q, qt)
        elif half:
            turn = math.sqrt(2.0 / cells) * np.exp(1j * np.pi / cells * np.arange(j // 2 + 1))[:, None]
            forward = 0.5 * j * turn
            forward[0] *= 2.0
            self.twiddles = (forward, turn.conj())

    def transform(self, x: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Modes of node values, or with ``inverse`` node values of modes."""
        x3, y3 = x.reshape(self.shape3), out.reshape(self.shape3)
        if self.twiddles is not None:
            _half_sines(x3, self.twiddles[inverse], inverse, y3)
        elif self.products is None:
            _sine_sums(x3, y3)
        elif self.flat:
            np.matmul(x3[:, :, 0], self.products[inverse], out=y3[:, :, 0])
        else:
            np.matmul(self.products[inverse], x3, out=y3)
        return out


def _box_inverse(grid: Grid, halved: tuple[int, ...] = ()) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the box's quadratic Hessian, restricted to the free nodes.

    With one centroid quadrature point the Hessian of ``|grad u|^2 / 2``
    on the grid's bounding box is ``vol * sum_a K_a / h_a^2 (x)
    prod_{b != a} M_b`` over the interior nodes, with the 1-D stiffness
    ``K = tridiag(-1, 2, -1)`` and corner-mean mass ``M = tridiag(1, 2,
    1) / 4``.  Sine vectors diagonalize both: the eigenvalues are ``vol
    * sum_a (4 / h_a^2) sin^2(th_a / 2) prod_{b != a} cos^2(th_b / 2)``
    with ``th_a = k_a pi / N_a`` for ``N_a`` cells on axis ``a``
    (:func:`_eigen_parts`), over the modes of each :class:`_SineAxis`.

    Every grid takes one pipeline: the forward transforms, the division
    by the eigenvalues, the horizontal inverse transforms, then the
    vertical ones.  In between, the array holds horizontal nodes by
    vertical modes.  With masked cells or fixed nodes inside the box, the
    horizontal box solve of :func:`_capacitance`'s correction is taken
    from it there, which makes the map the exact inverse of the masked
    Hessian on the free nodes.  A box grid takes no correction and no
    extra set-up.  The result is zeroed at every Dirichlet node, so
    the map is symmetric and positive definite on the free nodes.

    On a grid halved along the axes ``halved`` (:func:`_halve`) it is the
    exact inverse of the halved problem's Hessian: a halved axis of ``N /
    2`` cells is the upper half of ``N``, its first node is free and only
    its odd modes occur, each taken twice (the factor ``2^k`` for ``k``
    halved axes).  Everything but the arithmetic is set up here, once
    per solve; each application solves the correction's systems
    (:func:`_capacitance`) and ping-pongs between interior-size arrays
    of its own.
    """
    r, inner = grid.r, tuple(slice(0 if a in halved else 1, -1) for a in range(grid.n))
    shape = tuple(m if a in halved else m - 1 for a, m in enumerate(grid.cell_shape))
    axes = [_SineAxis(shape, a, a in halved) for a in range(grid.n)]
    lam = _eigen_parts([(grid.h[a], ax.cells, ax.modes) for a, ax in enumerate(axes)])[0].reshape(shape)
    inv = 2.0 ** len(halved) / (lam * grid.cell_volume)
    fixed = grid.dirichlet[inner]
    fixed = fixed if fixed.any() else None
    correct = None if fixed is None and grid.outside_cells is None else _capacitance(grid, axes, inner)

    def sweep(part: list[_SineAxis], z: np.ndarray, w: np.ndarray, inverse: bool = False):
        # every step reads z and writes the other array, which then becomes z
        for ax in part:
            z, w = ax.transform(z, w, inverse), z
        return z, w

    def apply(residual: np.ndarray) -> np.ndarray:
        z, w = sweep(axes, np.array(residual[inner]), np.empty(shape))
        z *= inv
        z, w = sweep(axes[:r], z, w, True)
        if correct is not None:  # z holds horizontal nodes by vertical modes
            c, w = sweep(axes[:r], correct(z), w)
            c *= inv
            c, w = sweep(axes[:r], c, w, True)
            z -= c
        z, w = sweep(axes[r:], z, w, True)
        if fixed is not None:
            z[fixed] = 0.0
        out = np.zeros(grid.shape)
        out[inner] = z
        return out

    return apply


def _eigen_parts(axes: list[tuple[float, int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Box eigenvalues of the stiffness and of the mass over a product of axes.

    Each axis is ``(h, N, k)``: spacing, cells of the (full) axis and mode
    numbers.  Returns, flattened in C order over the modes, ``sum_a (4 /
    h_a^2) sin^2(th_a / 2) prod_{b != a} cos^2(th_b / 2)`` and ``prod_a
    cos^2(th_a / 2)``; no axes give ``0`` and ``1``.
    """
    stiff, mass = np.zeros(1), np.ones(1)
    for h, cells, k in axes:
        t = 0.5 * np.pi / cells * k
        s, c = 4.0 / h**2 * np.sin(t) ** 2, np.cos(t) ** 2
        stiff = (stiff[:, None] * c + mass[:, None] * s).ravel()
        mass = (mass[:, None] * c).ravel()
    return stiff, mass


def _green_sums(cells: int, half: bool, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, weights: np.ndarray,
                cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_k weights[i, k] weights[j, k] g_k(x_i, x_j)``, shape ``(..., len(x), len(cols))``, into ``out``.

    ``g_k(a, b) = sum_t s_t(a) s_t(b) / (A + B cos th_t)`` over the sine
    modes of an axis (odd ones on a ``half`` axis), with ``lo = A + B >
    0`` and ``hi = A - B > 0`` of shape ``(..., K)``, is the Green's
    function of ``tridiag(B/2, A, B/2)``: ``phi(min(a, b)) psi(max(a, b))
    / C``, ``cosh mu = A / |B|``, ``phi = sinh(mu a)`` (``cosh`` on a half
    axis), ``psi = sinh(mu (L - b))``, times ``(-1)^(a + b)`` if ``B > 0``;
    positions ``x`` ascend (``x[cols]`` too) from the axis's first node,
    ``L`` to its end.  Factors are scaled about the centres of blocks of
    positions (one block unless ``mu L > 300``) so that none overflows;
    blocks ``exp(-400)`` apart are dropped, and ``mu`` is capped where
    ``|B| / A < 1e-16`` (``g`` is then diagonal to round-off).
    """
    span = cells // 2 if half else cells
    t = np.minimum(np.sqrt(np.minimum(lo, hi) / np.maximum(lo, hi)), 1.0 - 2.0**-53)
    mu = 2.0 * np.arctanh(t)[..., None, :]  # tanh(mu / 2) = t, accurate for small mu too
    width = max(1, int(300.0 / mu.max()))
    pos = np.arange(span + 1)[:, None]
    mx, scale = -2.0 * mu * pos, np.exp(mu * (pos % width - 0.5 * width))
    phi = (1.0 + np.exp(mx) if half else -np.expm1(mx)) * scale
    ends = 2.0 + 2.0 * np.exp(-2.0 * mu * span) if half else -np.expm1(-2.0 * mu * span)
    psi = np.expm1(-2.0 * mu * (span - pos)) / (scale * (-ends * np.sqrt(lo * hi)[..., None, :]))
    flip = (lo > hi)[..., None, :] & (pos % 2 == 1)
    for f in (phi, psi):
        np.negative(f, out=f, where=flip)
    (p, q), xc = (f[..., x, :] for f in (phi, psi)), x[cols]  # (..., len(x), K)
    pc, qc = (f.mT[..., xc] for f in (phi, psi))  # (..., K, len(cols))
    del phi, psi, mx, scale  # not held through the products
    for f, w in ((p, weights), (q, weights), (pc, weights[cols].T), (qc, weights[cols].T)):
        f *= w
    edges = np.arange(0, span + width, width)
    row_at, col_at = np.searchsorted(x, edges), np.searchsorted(xc, edges)
    out = np.empty(lo.shape[:-1] + (len(x), len(cols))) if out is None else out
    if len(edges) > 2:
        out[...] = 0.0
    for bi, bj in itertools.product(range(len(edges) - 1), repeat=2):
        i, j = slice(row_at[bi], row_at[bi + 1]), slice(col_at[bj], col_at[bj + 1])
        gap = mu * (width * abs(bi - bj))
        if gap.min() > 400.0 or i.start == i.stop or j.start == j.stop:
            continue
        f = np.where(gap > 400.0, 0.0, np.exp(-gap))
        pi, qi = (p[..., i, :], q[..., i, :]) if bi == bj else (p[..., i, :] * f, q[..., i, :] * f)
        if bi <= bj:  # P Q^T where x_i <= x_j, every pair when bi < bj
            np.matmul(pi, qc[..., j], out=out[..., i, j])
        if bi >= bj:
            np.copyto(out[..., i, j], qi @ pc[..., j], where=x[i, None] > xc[j])
    return out


def _capacitance(grid: Grid, axes: list[_SineAxis], inner: tuple) -> Callable[[np.ndarray], np.ndarray] | None:
    """Capacitance correction that makes the box inverse exact on a masked grid.

    The masked Hessian ``A`` (free nodes) and the box Hessian ``B``
    (interior nodes) differ only in the rows of ``Gamma``: free nodes of
    a horizontal cell that is masked or has a fixed node inside the box,
    and those fixed nodes.  With ``A~ = A`` on the free nodes and ``B`` on
    the fixed ones, uncoupled, ``A~ = B + U E U^T`` where ``U`` injects
    ``Gamma`` and ``E`` is small, and (Buzbee, Dorr, George & Golub 1971)
    ``A~^-1 b = z - B^-1 U E y`` with ``z = B^-1 b`` and ``(I + G E) y =
    U^T z``, ``G = U^T B^-1 U``.  A fixed node's row of ``A~`` is ``B``'s
    own, so ``b = 0`` there gives ``0`` there.

    The mask and the fixed nodes depend on the horizontal axes only, so
    the vertical sine modes (odd modes of a halved axis) split ``G`` and
    ``E`` into one ``m x m`` pair per mode: ``G_k = c V diag(1 / lam_k) V^T``
    from the box eigenvalues ``lam_k`` and the horizontal sine basis ``V``
    at ``Gamma`` (``c = 2`` per halved horizontal axis), and ``E_k`` from
    the cell Hessians, weighted by the mode's vertical eigenvalues.  Per
    mode of the other horizontal axes, the sum over the first axis's modes
    is a 1-D Green's function in closed form (:func:`_green_sums`), so
    ``G_k`` costs two matrix products, for all vertical modes at once.

    ``Gamma`` is folded by the maps that leave the problem unchanged: the
    mirror of each unhalved axis about whose mid-plane the grid is
    symmetric, and the swap of the first two axes (:func:`_swaps`).  A map
    pairs entries into sums and differences, and ``G_k`` and ``E_k``
    (symmetric, commuting with the maps) split into one block per parity
    class, whose rows are the folded columns at each entry's
    representative node: for ``f`` maps, ``2^f`` classes of about ``m /
    2^f`` rows.

    Returns ``correct(z)``, ``U E y`` for the box solution ``z`` as
    :func:`_box_inverse` holds it before the vertical inverse transforms
    (horizontal nodes by vertical modes) and in that space, or ``None``
    when ``Gamma`` is empty.  ``Qh W Qh^T = I`` (:class:`_SineAxis`)
    cancels the mid-plane weights of a halved vertical axis there.
    Each call solves ``(I + E_k G_k) y = E_k U^T z`` for its one
    right-hand side per mode, one batched solve per class, so the set-up
    stops at ``I + E_k G_k`` and ``E_k`` and never forms the operators
    ``(I + E_k G_k)^-1 E_k``.
    """
    r, n = grid.r, grid.n
    vert = tuple(range(r, n))
    hshape, hcells = grid.shape[:r], grid.cell_shape[:r]
    # horizontal nodes: 0 free, 1 fixed inside the box, 2 on the box boundary
    status = np.full(hshape, 2, dtype=np.int8)
    status[inner[:r]] = grid.dirichlet[inner].all(axis=vert)
    outside = np.zeros(hcells, bool) if grid.outside_cells is None else grid.outside_cells.all(axis=vert)
    offsets = np.array(list(itertools.product((0, 1), repeat=r)))
    corners = [tuple(slice(o, o + c) for o, c in zip(off, hcells)) for off in offsets]
    kinds = np.array([status[c] for c in corners])
    free, fixed = kinds == 0, kinds == 1
    gamma, cut = np.zeros(hshape, bool), outside | fixed.any(axis=0)
    for c, s0, s1 in zip(corners, free, fixed):
        gamma[c] |= cut & (s0 | s1 & free.any(axis=0))
    nodes = np.nonzero(gamma)
    m = len(nodes[0])
    if m == 0:
        return None
    index = np.full(hshape, -1)
    index[gamma] = np.arange(m)

    # E: minus the cell Hessians of free pairs in masked cells and of
    # free-fixed pairs in any cell, split into the horizontal stiffness
    # (vertical mass) and mass (vertical stiffness) parts, E[a, b] at (a,
    # part, b) of an (m, 2, m) array
    vol = grid.cell_volume
    free, fixed, at = free[:, None], fixed[:, None], np.array([index[c] for c in corners])
    pairs = free & free.swapaxes(0, 1) & outside | free & fixed.swapaxes(0, 1) | fixed & free.swapaxes(0, 1)
    o1, o2, *_ = np.nonzero(pairs)
    stiff = ((1.0 - 2.0 * (offsets[o1] != offsets[o2])) / np.array(grid.h[:r]) ** 2).sum(-1)
    flat = (at[:, None] * 2 * m + at)[pairs]
    e_values = np.concatenate((-vol * 0.25 ** (r - 1) * stiff, np.full(len(flat), -vol * 0.25**r)))

    # the maps (bit, axes, signs, shift) send node c to c[axes] * signs +
    # shift.  A level lists the sums, middle entries and differences; an
    # entry keeps a representative node, a parity class (bit set: odd
    # under that map) and a weight (2 per pair)
    eye = np.arange(r)
    maps = [(a, eye, np.where(eye == a, -1, 1), np.where(eye == a, hcells[a], 0)) for a in range(r)
            if not axes[a].half and all(np.array_equal(v, np.flip(v, a)) for v in (status, outside))]
    maps += [(r, np.r_[1, 0, eye[2:]], 1, 0)] if _swaps(grid, tuple(a for a in eye if axes[a].half)) else []
    coords, parity, weight, rep = np.array(nodes).T, np.zeros(m, int), np.ones(m), np.arange(m)
    levels = []
    for bit, image, signs, shift in maps:
        keys = parity * gamma.size + np.ravel_multi_index(coords.T, hshape)
        mapped = parity * gamma.size + np.ravel_multi_index((coords[:, image] * signs + shift).T, hshape)
        order = np.argsort(keys)
        lo, mid = np.flatnonzero(keys < mapped), np.flatnonzero(keys == mapped)
        levels.append((lo, order[np.searchsorted(keys[order], mapped[lo])], mid))
        source = np.concatenate((lo, mid, lo))
        parity = np.concatenate((parity[lo], parity[mid], parity[lo] | 1 << bit))
        coords, rep = coords[source], rep[source]
        weight = np.concatenate((2.0 * weight[lo], weight[mid], 2.0 * weight[lo]))

    def fold(x: np.ndarray) -> np.ndarray:  # in place
        for lo, hi, mid in levels:
            s, t = len(lo), len(lo) + len(mid)
            a, b, x[s:t] = x[lo], x[hi], x[mid]
            np.add(a, b, out=x[:s])
            np.subtract(a, b, out=x[t:])
        return x

    def unfold(y: np.ndarray) -> np.ndarray:  # the transpose of ``fold``
        for lo, hi, mid in reversed(levels):
            s, t = len(lo), len(lo) + len(mid)
            x = np.empty_like(y)
            x[lo], x[hi], x[mid] = y[:s] + y[t:], y[:s] - y[t:], y[s:t]
            y = x
        return y

    v_stiff, v_mass = _eigen_parts([(grid.h[a], ax.cells, ax.modes) for a, ax in enumerate(axes[r:], r)])
    # c = 2 per halved axis: the horizontal ones in G; the vertical ones
    # in the solves once and in the eigenvalue divisions around them twice
    c_h = 2.0 ** sum(ax.half for ax in axes[:r])
    c_v = 2.0 ** sum(ax.half for ax in axes[r:])

    # per mode of the other horizontal axes (sines ``rest``, box
    # eigenvalues s', c') the first axis's symbol is s' v_mass + c' v_stiff
    # at th = 0 and 4 c' v_mass / h_0^2 at pi.  ``folded`` holds G_k for
    # each vertical mode and E's two parts (axis 1) between the folded
    # Gamma (axis 0) and the representatives (axis 2)
    coords, rest = np.array(nodes).T, np.ones((m, 1))
    for a, ax in enumerate(axes[1:r], 1):  # node i of the upper half is node N/2 + i of the axis
        q = _sines(ax.cells, ax.modes, coords[:, a, None] + ax.half * ax.cells // 2)
        rest = (rest[:, :, None] * q[:, None, :]).reshape(m, -1)
    s_rest, c_rest = _eigen_parts([(grid.h[a], ax.cells, ax.modes) for a, ax in enumerate(axes[1:r], 1)])
    reps, s = np.flatnonzero(np.bincount(rep, minlength=m)), vol / c_h
    folded = np.empty((m, len(v_mass) + 2, len(reps)))
    folded[:, -2:] = np.bincount(np.concatenate((flat, flat + m)), e_values, 2 * m * m).reshape(m, 2, m)[:, :, reps]
    _green_sums(axes[0].cells, axes[0].half, s * (v_mass[:, None] * s_rest + v_stiff[:, None] * c_rest),
                s * 4.0 / grid.h[0] ** 2 * v_mass[:, None] * c_rest, coords[:, 0], rest, reps,
                folded[:, :-2].transpose(1, 0, 2))
    folded, modes, systems = fold(folded), np.stack((v_mass, v_stiff), axis=1), []
    for rows in (np.flatnonzero(parity == p) for p in dict.fromkeys(parity.tolist())):  # not np.unique: numpy.ma
        block = folded[rows, :, np.searchsorted(reps, rep[rows])[:, None]].transpose(2, 0, 1)  # (part, row, col)
        # I + E_k G_k and E_k on the block; a fold is orthogonal, not
        # orthonormal, hence the entries over their weights ``w``
        e = (modes @ block[-2:].reshape(2, -1)).reshape(-1, len(rows), len(rows))
        a = e @ block[:-2]
        a.reshape(len(a), -1)[:, ::len(rows) + 1] += 1.0
        systems.append((rows, a, e, c_v * weight[rows]))

    gather = tuple(k - sl.start for k, sl in zip(nodes, inner))  # Gamma's interior indices

    def correct(z: np.ndarray) -> np.ndarray:
        y = fold(z.reshape(z.shape[:r] + (-1,))[gather])
        for rows, a, e, w in systems:  # one right-hand side per mode; the classes' rows are disjoint
            y[rows] = np.linalg.solve(a, e @ (y[rows] / w[:, None]).T[:, :, None])[:, :, 0].T
        c = np.zeros(z.shape)
        c.reshape(z.shape[:r] + (-1,))[gather] = unfold(y)
        return c

    return correct


def _swaps(grid: Grid, halved: tuple[int, ...]) -> bool:
    """Whether :func:`_capacitance` folds ``Gamma`` by the swap of the first two axes.

    It does on a grid halved along both (neither then has a mirror fold,
    whose classes the swap would mix) with the same cells and spacing on
    both, whose fixed nodes and cell mask equal their transposes.
    """
    return (grid.r >= 2 and 0 in halved and 1 in halved and grid.shape[0] == grid.shape[1]
            and grid.h[0] == grid.h[1]
            and all(np.array_equal(v, np.swapaxes(v, 0, 1)) for v in (grid.dirichlet, grid.cell_mask)))
