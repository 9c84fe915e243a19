"""The solver's preconditioner: the exact inverse of the quadratic Hessian.

With one centroid quadrature point the Hessian of ``|grad u|^2 / 2`` on
a grid's bounding box is diagonalized by sine vectors (fast
diagonalization, Lynch, Rice & Thomas 1964), so its inverse is applied
by one sine transform along every axis.  On a grid with masked cells (a
ball cross-section) a capacitance-matrix correction, one small dense
matrix per vertical sine mode, makes the inverse exact on the masked
grid too.  Short axes transform with a precomputed dense sine matrix,
long ones with ``rfft``.  A mirror-symmetric problem comes halved along
its symmetric axes (:func:`elongate.solver._halve`), and a halved axis
transforms to its odd modes alone; halving is what keeps a symmetric
solution exactly symmetric.  An axis that is not halved is transformed
whole, and symmetry along it holds to round-off.  Indices, view shapes
and matrices are set up once per solve, so an application does only the
arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .field import _along
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


def _sine_sums(values: np.ndarray, length: int, place: slice, take: slice, out: np.ndarray) -> None:
    """``out = sum_j values_j sin(2 pi k j / length)`` over the middle axis, by ``rfft``.

    The values sit at the indices ``place`` of a zero-padded sequence of
    ``length``; the sums are taken at the indices ``k`` in ``take``.
    """
    pre, _, post = values.shape
    z = np.zeros((pre, length, post))
    z[:, place] = values
    np.negative(np.fft.rfft(z, axis=1).imag[:, take], out=out)


class _SineAxis:
    """The sine transform along one axis of an array of fixed shape.

    ``transform`` maps the axis's interior nodes ``1 .. N-1`` to its modes
    ``1 .. N-1`` (``modes``), in natural order, and back.  Axes with at
    most ``_DENSE_MAX`` interior nodes use the orthonormal matrix of
    :func:`_sine_matrix`; longer ones zero-padded ``rfft`` sums of length
    ``2N``, which scale a round trip by ``N / 2`` (``scale``).  Every
    index, view shape and matrix orientation is fixed at construction,
    so a call does only the arithmetic and writes into ``out``.

    With ``half`` the axis holds nodes ``N/2 .. N-1`` of a mirror-symmetric
    axis of ``N`` cells, the upper half that the solver keeps (see
    :func:`_halve`).  Only the odd modes, which are even about the
    midpoint, occur: the odd-mode rows of the matrix, or ``rfft`` sums with
    the values placed in reverse at ``N/2 .. 1`` (node ``N - i`` mirrors
    node ``i``).  The factor 2 of the mirror image is left to the caller.
    """

    def __init__(self, shape: tuple[int, ...], axis: int, half: bool = False):
        j = shape[axis]  # interior nodes, or the free nodes of a halved axis
        self.half = half
        self.cells = cells = 2 * j if half else j + 1
        self.modes = np.arange(1, cells, 1 + half)
        self.shape3 = (math.prod(shape[:axis]), j, math.prod(shape[axis + 1:]))
        # one matrix product, not ``pre`` matrix-vector products
        self.flat = self.shape3[2] == 1
        dense = cells - 1 <= _DENSE_MAX
        self.scale = 1.0 if dense else 0.5 * cells
        self.products = self.sines = None
        if dense:
            # ``x @ q.T`` on a flat array, ``q @ x`` otherwise, and the
            # transposes for the inverse.  A flat array's ``q.T`` is a
            # contiguous copy, with which a product is ~30% faster than with
            # the transposed view; the other transpose stays a view
            q = _sine_matrix(cells, half)
            qt = np.ascontiguousarray(q.T) if self.flat else q.T
            self.products = (qt, q) if self.flat else (q, qt)
        else:
            nodes = slice(j, 0, -1) if half else slice(1, cells)
            modes = slice(1, cells, 1 + half)
            self.sines = ((nodes, modes), (modes, nodes))

    def transform(self, x: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Modes of node values, or with ``inverse`` node values of modes."""
        x3, y3 = x.reshape(self.shape3), out.reshape(self.shape3)
        if self.sines is not None:
            _sine_sums(x3, 2 * self.cells, *self.sines[inverse], y3)
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

    On a grid with masked cells or fixed nodes inside the box, the
    correction of :func:`_capacitance` turns this into the exact inverse
    of the masked Hessian on the free nodes: a box inverse, a small dense
    solve per vertical mode and a box inverse of the correction.  A box
    grid takes no correction and no extra set-up.  The result is zeroed
    at every Dirichlet node, so the map is symmetric and positive
    definite on the free nodes.

    On a grid halved along the axes ``halved`` (:func:`_halve`) it is the
    exact inverse of the halved problem's Hessian: a halved axis of ``N /
    2`` cells is the upper half of ``N``, its first node is free and only
    its odd modes occur, each taken twice (the factor ``2^k`` for ``k``
    halved axes).  Everything but the arithmetic is set up here, once
    per solve; each box application ping-pongs between two
    interior-size arrays of its own.
    """
    inner = tuple(slice(0 if a in halved else 1, -1) for a in range(grid.n))
    shape = tuple(m if a in halved else m - 1 for a, m in enumerate(grid.cell_shape))
    axes = [_SineAxis(shape, a, a in halved) for a in range(grid.n)]
    lam = _eigen_parts([(grid.h[a], ax.cells, ax.modes) for a, ax in enumerate(axes)])[0].reshape(shape)
    inv = 2.0 ** len(halved) / (lam * (grid.cell_volume * math.prod(ax.scale for ax in axes)))
    fixed = grid.dirichlet[inner]
    fixed = fixed if fixed.any() else None

    def box(residual: np.ndarray) -> np.ndarray:
        # every step reads z and writes the other array, which then becomes z
        z, w = np.array(residual[inner]), np.empty(shape)
        for ax in axes:
            z, w = ax.transform(z, w), z
        z *= inv
        for ax in axes:
            z, w = ax.transform(z, w, inverse=True), z
        out = np.zeros(grid.shape)
        out[inner] = z
        return out

    correction = None if fixed is None and grid.outside_cells is None else _capacitance(grid, axes, inner)
    if correction is None:
        return box

    def apply(residual: np.ndarray) -> np.ndarray:
        z = box(residual)
        z -= box(correction(z))
        if fixed is not None:
            z[inner][fixed] = 0.0
        return z

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
    the vertical sine modes (odd modes of a halved axis, weighted by 1/2
    on its mid-plane as ``_box_inverse`` explains) split ``G`` and ``E``
    into one ``m x m`` pair per mode: ``G_k = c V diag(1 / lam_k) V^T``
    from the box eigenvalues ``lam_k`` and the horizontal sine basis ``V``
    at ``Gamma`` (``c = 2`` per halved horizontal axis), and ``E_k`` from
    the cell Hessians, weighted by the mode's vertical eigenvalues.  Each
    ``E_k (I + G_k E_k)^-1`` is formed once, mode by mode.  Along every
    unhalved horizontal axis about whose mid-plane the grid is symmetric,
    ``Gamma`` is folded into mirror sums and differences: the sums couple
    only to the odd modes of that axis and the differences only to the
    even ones, so ``G_k`` and ``E_k`` split into one block per parity
    class.  That is for the set-up's sake: with ``f`` such axes, the
    dense solves of ``2^f`` blocks of about ``m / 2^f`` rows cost about
    ``4^f`` times less than one of ``m`` rows, and each block's ``G_k``
    sums over only its parity's modes.

    Returns ``correct(z)``, the array ``U E y`` for a box solution ``z``
    on the grid, or ``None`` when ``Gamma`` is empty.
    """
    r, n = grid.r, grid.n
    vert = tuple(range(r, n))
    hshape, hcells = grid.shape[:r], grid.cell_shape[:r]
    # horizontal nodes: 0 free, 1 fixed inside the box, 2 on the box boundary
    status = np.full(hshape, 2, dtype=np.int8)
    status[inner[:r]] = grid.dirichlet[inner].all(axis=vert)
    outside = np.zeros(hcells, bool) if grid.outside_cells is None else grid.outside_cells.all(axis=vert)
    offsets = list(itertools.product((0, 1), repeat=r))
    corners = [tuple(slice(o, o + c) for o, c in zip(off, hcells)) for off in offsets]
    kinds = [status[c] for c in corners]
    cut = outside | np.logical_or.reduce([s == 1 for s in kinds])
    has_free = np.logical_or.reduce([s == 0 for s in kinds])
    gamma = np.zeros(hshape, bool)
    for c, s in zip(corners, kinds):
        gamma[c] |= cut & ((s == 0) | ((s == 1) & has_free))
    nodes = np.nonzero(gamma)
    m = len(nodes[0])
    if m == 0:
        return None
    index = np.full(hshape, -1)
    index[gamma] = np.arange(m)

    # E: minus the cell Hessians of free pairs in masked cells and of
    # free-fixed pairs in any cell, split into the horizontal stiffness
    # (vertical mass) and the horizontal mass (vertical stiffness) part
    vol = grid.cell_volume
    e_stiff, e_mass = np.zeros((m, m)), np.zeros((m, m))
    for o1, c1, s1 in zip(offsets, corners, kinds):
        for o2, c2, s2 in zip(offsets, corners, kinds):
            pairs = ((s1 == 0) & (s2 == 0) & outside) | ((s1 == 0) & (s2 == 1)) | ((s1 == 1) & (s2 == 0))
            rows, cols = index[c1][pairs], index[c2][pairs]
            stiff = sum((1.0 if o1[a] == o2[a] else -1.0) / grid.h[a] ** 2 for a in range(r))
            np.add.at(e_stiff, (rows, cols), -vol * 0.25 ** (r - 1) * stiff)
            np.add.at(e_mass, (rows, cols), -vol * 0.25**r)

    # fold Gamma along the symmetric unhalved horizontal axes; entries keep
    # a representative node (the lower of a pair), a parity class (bit a
    # set: odd about axis a's mid-plane) and a weight (2 per paired level)
    coords, parity, weight = np.array(nodes).T, np.zeros(m, int), np.ones(m)
    folded, levels = [], []
    for a in range(r):
        if axes[a].half or not all(np.array_equal(v, np.flip(v, a)) for v in (status, outside)):
            continue
        cells = hcells[a]
        keys = parity * gamma.size + np.ravel_multi_index(coords.T, hshape)
        order = np.argsort(keys)
        mirror = coords.copy()
        mirror[:, a] = cells - coords[:, a]
        partner = order[np.searchsorted(keys[order], parity * gamma.size + np.ravel_multi_index(mirror.T, hshape))]
        lo, mid = np.flatnonzero(2 * coords[:, a] < cells), np.flatnonzero(2 * coords[:, a] == cells)
        source = np.concatenate((lo, mid, lo))
        new_parity = np.concatenate((parity[lo], parity[mid], parity[lo] | 1 << a))
        perm = np.argsort(new_parity, kind="stable")  # classes contiguous
        place = np.empty(m, int)
        place[perm] = np.arange(m)
        folded.append(a)
        levels.append((lo, partner[lo], mid, *np.split(place, [len(lo), len(lo) + len(mid)])))
        coords, parity = coords[source][perm], new_parity[perm]
        weight = np.concatenate((2.0 * weight[lo], weight[mid], 2.0 * weight[lo]))[perm]

    def fold(x: np.ndarray) -> np.ndarray:
        for lo, hi, mid, sums, middle, diffs in levels:
            y = np.empty_like(x)
            y[sums], y[middle], y[diffs] = x[lo] + x[hi], x[mid], x[lo] - x[hi]
            x = y
        return x

    def unfold(y: np.ndarray) -> np.ndarray:  # the transpose of ``fold``
        for lo, hi, mid, sums, middle, diffs in reversed(levels):
            x = np.empty_like(y)
            x[lo], x[hi], x[mid] = y[sums] + y[diffs], y[sums] - y[diffs], y[middle]
            y = x
        return y

    e_stiff, e_mass = (fold(fold(e).T) for e in (e_stiff, e_mass))

    # vertical modes of the Gamma values, in the box inverse's storage order
    vshape = tuple(ax.shape3[1] for ax in axes[r:])
    vaxes = [_SineAxis((m,) + vshape, 1 + b, ax.half) for b, ax in enumerate(axes[r:])]
    v_stiff, v_mass = _eigen_parts([(grid.h[r + b], ax.cells, ax.modes) for b, ax in enumerate(vaxes)])
    mid_weight = np.ones(vshape)
    for b, ax in enumerate(vaxes):
        if ax.half:
            mid_weight[_along(b, slice(0, 1))] *= 0.5
    # c = 2 per halved horizontal axis in G; in the solves the same factor
    # for the vertical axes, over the round-trip scale of their transforms
    c_h = 2.0 ** sum(ax.half for ax in axes[:r])
    c_v = 2.0 ** sum(ax.half for ax in vaxes) / math.prod(ax.scale for ax in vaxes)

    blocks = []
    for p in dict.fromkeys(parity.tolist()):  # sorted; not np.unique, which imports numpy.ma
        rows = slice(np.searchsorted(parity, p), np.searchsorted(parity, p, side="right"))
        modes, sines = [], []
        for a, ax in enumerate(axes[:r]):
            cells, j, k = ax.cells, coords[rows, a], ax.modes
            if ax.half:  # node i of the upper half is node N/2 + i of the axis
                j = j + cells // 2
            elif a in folded:  # odd modes are even about the mid-plane, even modes odd
                k = k[k % 2 != (p >> a) & 1]
            modes.append((grid.h[a], cells, k))
            sines.append(_sines(cells, k, j[:, None]))
        # G_k = c V diag(w_k) V^T with V[:, (k_0, k')] = sines[0][:, k_0] *
        # rest[:, k'].  The sum over k_0 depends only on the first
        # coordinates of a pair: t[k', i, j] over the distinct ones, then one
        # product per group of rows sharing a first coordinate
        rest = functools.reduce(lambda v, q: (v[:, :, None] * q[:, None, :]).reshape(len(v), -1), sines[1:],
                                np.ones((len(sines[0]), 1)))
        x = coords[rows, 0]
        distinct = np.flatnonzero(np.bincount(x))
        at = np.searchsorted(distinct, x)
        groups = [np.flatnonzero(at == i) for i in range(len(distinct))]
        first = sines[0][[group[0] for group in groups]]
        h_stiff, h_mass = (part.reshape(len(modes[0][2]), -1) for part in _eigen_parts(modes))
        d = 1.0 / weight[rows]
        es, em = e_stiff[rows, rows], e_mass[rows, rows]
        eye = np.eye(len(d))
        solves = np.empty((len(v_mass), len(d), len(d)))
        for i, (vm, vs) in enumerate(zip(v_mass, v_stiff)):  # mode by mode
            w = c_h / (vol * (h_stiff * vm + h_mass * vs))
            t = (first * w.T[:, None, :]) @ first.T
            g = np.empty((len(d), len(d)))
            for i0, group in enumerate(groups):
                g[group] = rest[group] @ (rest.T * t[:, i0, at])
            e = vm * es + vs * em
            solves[i] = np.linalg.solve(eye + e @ g, e) * (c_v * d[:, None] * d)
        blocks.append((rows, solves))

    gather = tuple(nodes) + inner[r:]

    def correct(z: np.ndarray) -> np.ndarray:
        y = fold(z[gather] * mid_weight)
        w = np.empty(y.shape)
        for ax in vaxes:
            y, w = ax.transform(y, w), y
        flat, out = y.reshape(m, -1), w.reshape(m, -1)
        for rows, solves in blocks:
            out[rows] = np.matmul(solves, flat[rows].T[:, :, None])[:, :, 0].T
        y, w = w, y
        for ax in vaxes:
            y, w = ax.transform(y, w, inverse=True), y
        c = np.zeros(grid.shape)
        c[gather] = unfold(y * mid_weight)
        return c

    return correct
