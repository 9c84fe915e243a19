"""Convex energy densities, their vertical/coupling split, and hypothesis audits.

A density ``F`` on gradient vectors splits as ``F = F_vert + G``, where
``F_vert`` is the value at a vanishing horizontal block and ``G`` the
remainder ("coupling").  The built-ins are power densities, sums of
``|xi_B|^p / p`` over blocks ``B`` of the gradient components:
``p-dirichlet`` has one block (at ``p = 2`` the quadratic form, which
``make_density("quadratic")`` builds), ``separable-p`` the horizontal and
the vertical block.  Built-ins carry certified growth constants
``lam <= Lam`` (two-sided power bounds on both ``F`` and ``G``), a
coupling exponent ``k``, and a uniform-strict-convexity constant
``beta`` (0 when unclaimed).  The audits sample the claimed inequalities
over log-uniform magnitudes and random directions and report worst
signed margins; violations are data, not errors.

All evaluation methods are vectorized over leading axes and pure.
"""

from __future__ import annotations

import abc
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import _dot

#: Normalized slack absorbed by every audit margin: certified constants can
#: be equality-tight, so exact checks float at rounding level.
AUDIT_SLACK = 1e-12

_KINDS = ("p-dirichlet", "separable-p", "quadratic")


@dataclass
class HypothesisReport:
    """Outcome of sampling one structural hypothesis.

    ``worst_margin`` is the largest normalized violation excess: a margin
    that is not ``<= 0``, NaN included, is a violation, so ``violations ==
    0`` iff ``worst_margin <= 0``.  Witnesses keep the worst few sample
    points with their check and raw (unnormalized) gaps.
    """

    hypothesis: str
    samples: int
    violations: int
    worst_margin: float
    witnesses: list[dict] = field(default_factory=list)


def _check_p(p: float) -> None:
    """Reject a growth exponent outside ``[2, inf)``, NaN included."""
    if not 2 <= p < math.inf:
        raise ValueError(f"densities are restricted to finite growth exponents p >= 2, got {p!r}")


class EnergyDensity(abc.ABC):
    """Convex density on gradient vectors, split against an ``(r, n)`` layout.

    Subclasses provide vectorized ``value``/``grad`` on arrays of shape
    ``(..., n)``; the base class supplies generic (subtraction-based)
    fallbacks for the split and for line increments, which built-ins
    override with cancellation-free forms.  A line search asks for
    :meth:`line_energy`, the increment summed over cells; the base class
    sums :meth:`line_increment`, and built-ins whose increment is a
    polynomial in the step sum its coefficients once per line.
    """

    kind: str = "custom"
    #: Declares ``F`` unchanged when one component of ``xi`` changes sign.
    #: The solver then halves mirror-symmetric problems; a density that
    #: does not declare it is always solved on the full grid.
    mirror_invariant: bool = False

    def __init__(self, p: float, k: float, lam: float, Lam: float, beta: float, r: int, n: int):
        # every range check is written so that NaN fails it
        _check_p(p)
        if not 0 <= k < p:
            raise ValueError("coupling exponent must satisfy 0 <= k < p")
        # lam <= Lam is not enforced: audits are routinely pointed at
        # deliberately wrong claimed constants.
        if not (0 < lam < math.inf and 0 < Lam < math.inf):
            raise ValueError(f"growth constants must be positive and finite, got lam={lam!r}, Lam={Lam!r}")
        if not 0 <= beta < math.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {beta!r}")
        if not 0 <= r < n:
            raise ValueError("need 0 <= r < n")
        self.p = float(p)
        self.k = float(k)
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.beta = float(beta)
        self.r = int(r)
        self.n = int(n)

    @abc.abstractmethod
    def value(self, xi) -> np.ndarray:
        """Density at ``xi`` of shape ``(..., n)``."""

    @abc.abstractmethod
    def grad(self, xi) -> np.ndarray:
        """Exact analytic gradient of :meth:`value`, same shape as ``xi``."""

    def vertical(self, xi_v) -> np.ndarray:
        """Density at a vanishing horizontal block: ``F(0, xi_v)``."""
        xi_v = np.asarray(xi_v, dtype=float)
        pad = np.zeros(xi_v.shape[:-1] + (self.r,))
        return self.value(np.concatenate([pad, xi_v], axis=-1))

    def coupling(self, xi) -> np.ndarray:
        """Split remainder ``F(xi) - F(0, xi_v)``; nonnegative for built-ins."""
        xi = np.asarray(xi, dtype=float)
        return self.value(xi) - self.vertical(xi[..., self.r:])

    def line_increment(self, xi, delta) -> Callable[[float], np.ndarray]:
        """The map ``alpha -> F(xi + alpha * delta) - F(xi)``, per leading index.

        Work that does not depend on ``alpha`` is done once, here, so a
        line search pays only for what changes between its trials.  This
        fallback subtracts values; built-ins override it with
        cancellation-free forms.
        """
        xi = np.asarray(xi, dtype=float)
        delta = np.asarray(delta, dtype=float)
        base = self.value(xi)
        return lambda alpha: self.value(xi + alpha * delta) - base

    def line_energy(self, xi, delta) -> Callable[[float], float]:
        """The map ``alpha -> sum_i (F(xi_i + alpha delta_i) - F(xi_i))``, a float.

        ``i`` runs over the leading indices.  This sums
        :meth:`line_increment` once per trial, so it is as
        cancellation-free as the density's increment, and an index with
        ``delta_i = 0`` adds exactly 0 wherever its increment is finite.
        Built-ins whose increment is a polynomial in the step override it.
        """
        line = self.line_increment(xi, delta)
        return lambda alpha: float(line(alpha).sum())

    def value_increment(self, xi, delta) -> np.ndarray:
        """``F(xi + delta) - F(xi)``; as stable as :meth:`line_increment`."""
        return self.line_increment(xi, delta)(1.0)

    @abc.abstractmethod
    def vertical_restriction(self) -> "EnergyDensity":
        """The density of the limit problem, acting on the vertical block alone."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.p}, r={self.r}, n={self.n})"


def _pow_diff(S, u, q: float) -> np.ndarray:
    """``(S + u)**q - S**q`` without cancellation, for ``S >= 0``, ``S + u >= 0``.

    At ``q = 1`` this is ``u``; at ``q = 2`` it is ``u (2S + u)``, exact up
    to two roundings: ``2S + u = S + (S + u)`` adds two nonnegative terms.
    Other exponents take :func:`_pow_diff_log`.
    """
    if q == 1:
        return u
    if q == 2:
        S = np.asarray(S, dtype=float)
        return u * (2.0 * S + u)
    return _pow_diff_log(S, u, q)


def _pow_diff_log(S, u, q: float) -> np.ndarray:
    """:func:`_pow_diff` for any ``q``, in log space: ``M^q (1 - (1 - |u|/M)^q)``."""
    S = np.asarray(S, dtype=float)
    u = np.asarray(u, dtype=float)
    M = np.maximum(S, S + u)
    safe = np.where(M > 0, M, 1.0)
    with np.errstate(divide="ignore"):
        frac = np.abs(u) / safe
        mag = safe**q * (-np.expm1(q * np.log1p(-np.minimum(frac, 1.0))))
    return np.where(M == 0, 0.0, np.sign(u) * mag)  # a NaN stays NaN


def _sq(xi) -> np.ndarray:
    return _dot(xi, xi)


def _power_line_energy(blocks, q: float, p: float) -> Callable[[float], float]:
    """:meth:`EnergyDensity.line_energy` of ``sum_blocks |xi_block|^(2q) / p``, ``q`` in (1, 2).

    ``blocks`` lists ``(xi_block, delta_block)`` pairs.  Per cell ``|xi + a
    delta|^2 = S + 2ab + a^2 c`` (``S = |xi|^2``, ``b = xi . delta``, ``c =
    |delta|^2``), so the increment is ``2ab + a^2 c`` at ``q = 1`` and ``4Sb a
    + (2Sc + 4b^2) a^2 + 4bc a^3 + c^2 a^4`` at ``q = 2``.  Each coefficient is
    summed over the cells once per line, and a trial evaluates the
    polynomial.  Nothing of the size of ``F`` is subtracted, so a trial is
    accurate to round-off in its own terms; at a tiny step the linear term,
    the directional derivative, remains.
    """
    coeffs = [0.0] * int(2 * q)
    for x, d in blocks:
        b, c = _dot(x, d), _sq(d)
        if q == 1:
            terms = (2.0 * b.sum(), c.sum())
        else:
            S = _sq(x)
            Sb, Sc, bb, bc, cc = (np.vdot(u, v) for u, v in ((S, b), (S, c), (b, b), (b, c), (c, c)))
            terms = (4.0 * Sb, 2.0 * Sc + 4.0 * bb, 4.0 * bc, cc)
        coeffs = [k + t for k, t in zip(coeffs, terms)]
    k1, k2, *rest = (float(k) / p for k in coeffs)
    if not rest:
        return lambda alpha: alpha * (k1 + alpha * k2)
    k3, k4 = rest
    return lambda alpha: alpha * (k1 + alpha * (k2 + alpha * (k3 + alpha * k4)))


def _scaled(w: np.ndarray, xi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``w[..., None] * xi`` into ``out``, one component at a time (several
    times faster than broadcasting over a short last axis)."""
    for a in range(xi.shape[-1]):
        np.multiply(w, xi[..., a], out=out[..., a])
    return out


def _block_sum(terms) -> np.ndarray:
    """The sum of the per-block terms; a single block is returned as it is."""
    return functools.reduce(operator.add, terms)


class _PowerDensity(EnergyDensity):
    """Sum of ``|xi_B|^p / p`` over blocks ``B`` of the gradient components.

    :meth:`_blocks` splits the last axis of an array into the blocks; this
    base class has one block of every component and takes no views.  Every
    method works block by block, so the one-block case makes the numpy
    calls of a plain ``|xi|^p / p``.  No method calls another public
    method of the density.  A subclass gives its certified ``(k, lam)``
    by :meth:`_certified`; the other defaults are the same for every
    block layout: ``Lam = 1/p``, and ``beta = 1/2`` at ``p = 2``, else 0.
    """

    mirror_invariant = True

    def __init__(self, p: float, r: int, n: int, lam=None, Lam=None, beta=None):
        _check_p(p)  # before ``_certified``, which may overflow at a huge |p|
        k, certified_lam = self._certified(p)
        lam = certified_lam if lam is None else lam
        Lam = 1.0 / p if Lam is None else Lam
        beta = (0.5 if p == 2 else 0.0) if beta is None else beta
        super().__init__(p, k, lam, Lam, beta, r, n)

    @staticmethod
    @abc.abstractmethod
    def _certified(p: float) -> tuple[float, float]:
        """The certified coupling exponent ``k`` and lower constant ``lam`` at ``p``."""

    def _blocks(self, a) -> tuple:
        return (a,)

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        q = self.p / 2
        return _block_sum(_sq(x) ** q for x in self._blocks(xi)) / self.p

    def grad(self, xi):
        if self.p == 2:
            return np.array(xi, dtype=float)  # keeps the memory layout of ``xi``
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        for x, o in zip(self._blocks(xi), self._blocks(out)):
            S = _sq(x)
            _scaled(S if self.p == 4 else S ** ((self.p - 2) / 2), x, o)
        return out

    def line_increment(self, xi, delta):
        xi = np.asarray(xi, dtype=float)
        delta = np.asarray(delta, dtype=float)
        # per block |x + a d|^2 = S + a (2b + a c)
        blocks = [(_sq(x), 2.0 * _dot(x, d), _sq(d)) for x, d in zip(self._blocks(xi), self._blocks(delta))]
        q, p = self.p / 2, self.p
        return lambda alpha: _block_sum(_pow_diff(S, alpha * (b2 + alpha * c), q) for S, b2, c in blocks) / p

    def line_energy(self, xi, delta):
        if self.p not in (2.0, 4.0):
            return super().line_energy(xi, delta)
        blocks = list(zip(self._blocks(xi), self._blocks(delta)))
        return _power_line_energy(blocks, self.p / 2, self.p)

    def vertical_restriction(self):
        return PDirichletDensity(self.p, 0, self.n - self.r)


class PDirichletDensity(_PowerDensity):
    """Power of the full Euclidean norm: ``|xi|^p / p``; the quadratic form at ``p = 2``.

    Growth constants ``lam = Lam = 1/p`` hold exactly for the norm bound
    at every ``p``; the coupling bounds share the same constants and are
    certified tight for ``p = 2`` and ``p = 4`` (the audited exponents).
    At ``p = 2`` the coupling exponent is ``k = 0`` and ``beta = 1/2``.
    """

    kind = "p-dirichlet"

    @staticmethod
    def _certified(p):
        return (0.0 if p == 2 else 2.0), 1.0 / p

    def coupling(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _pow_diff(_sq(xi[..., self.r:]), _sq(xi[..., : self.r]), self.p / 2) / self.p


class SeparablePowerDensity(_PowerDensity):
    """Decoupled powers of the two blocks: ``(|xi_h|^p + |xi_v|^p) / p``.

    The coupling is ``|xi_h|^p / p`` exactly (exponent ``k = 0``); the
    shared growth constants ``lam = 2^(1 - p/2) / p``, ``Lam = 1/p`` are
    certified for every ``p``.
    """

    kind = "separable-p"

    @staticmethod
    def _certified(p):
        return 0.0, 2.0 ** (1 - p / 2) / p

    def _blocks(self, a):
        return a[..., : self.r], a[..., self.r:]

    def coupling(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _sq(xi[..., : self.r]) ** (self.p / 2) / self.p


def make_density(
    kind: str,
    p: float | None = None,
    r: int = 1,
    n: int = 2,
    lam: float | None = None,
    Lam: float | None = None,
    beta: float | None = None,
) -> EnergyDensity:
    """Build a built-in density by kind name.

    ``lam``/``Lam``/``beta`` override the certified constants, which lets
    the audits be pointed at deliberately wrong claims.
    """
    key = kind.strip().lower().replace("_", "-")
    if key in ("pdirichlet", "p-dirichlet"):
        return PDirichletDensity(2.0 if p is None else p, r, n, lam, Lam, beta)
    if key in ("separable-p", "separablep", "separable"):
        return SeparablePowerDensity(2.0 if p is None else p, r, n, lam, Lam, beta)
    if key == "quadratic":
        if p is not None and p != 2:
            raise ValueError("quadratic density has p = 2")
        return PDirichletDensity(2.0, r, n, lam, Lam, beta)
    raise ValueError(f"unknown density kind {kind!r}; expected one of {_KINDS}")


def _sample_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Log-uniform magnitudes in [1e-3, 1e3] times uniform directions.

    Probes both the small-argument and the large-argument regimes of
    two-sided power bounds.
    """
    mag = 10.0 ** rng.uniform(-3.0, 3.0, count)
    direction = rng.standard_normal((count, dim))
    norms = np.sqrt(_sq(direction))
    norms[norms == 0] = 1.0
    return mag[:, None] * direction / norms[:, None]


def _audit(hypothesis: str, samples: int, seed: int, draw) -> HypothesisReport:
    """Sample one hypothesis with the generator of ``seed``.

    ``draw(rng)`` returns the sample points by name and a list of ``(check,
    gap, scale)`` entries, each array with one row per sample.  A margin
    ``gap / scale - AUDIT_SLACK`` that is not ``<= 0``, NaN included, is a
    violation; the five worst violations are kept as witnesses.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    points, checks = draw(np.random.default_rng(seed))
    gaps = np.concatenate([gap for _, gap, _ in checks])
    margins = np.concatenate([gap / scale - AUDIT_SLACK for _, gap, scale in checks])
    violated = ~(margins <= 0)
    worst = [i for i in np.argsort(margins)[::-1][:5] if violated[i]]  # NaN sorts last: first here
    witnesses = [{"check": checks[i // samples][0], **{k: v[i % samples].tolist() for k, v in points.items()},
                  "gap": float(gaps[i]), "margin": float(margins[i])} for i in worst]
    return HypothesisReport(hypothesis, margins.size, int(violated.sum()), float(np.max(margins)), witnesses)


def audit_growth(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample the two-sided power bounds on the density and on its coupling.

    Lower/upper envelopes: ``lam |xi|^p <= F <= Lam (|xi|^p + 1)`` and
    ``lam E <= G <= Lam E`` with ``E = |xi_h|^p + k |xi_v|^(p-k) |xi_h|^k``.
    Margins are normalized by the local magnitude scale so equality-tight
    constants audit clean; deterministic given ``(samples, seed)``.
    """
    def draw(rng):
        xi = _sample_points(rng, samples, d.n)
        F = d.value(xi)
        full = np.sqrt(_sq(xi)) ** d.p
        checks = [
            ("coercivity-lower", d.lam * full - F, 1.0 + d.lam * full + np.abs(F)),
            ("growth-upper", F - d.Lam * (full + 1.0), 1.0 + d.Lam * (full + 1.0) + np.abs(F)),
        ]
        if 0 < d.r < d.n:
            nh = np.sqrt(_sq(xi[..., : d.r]))
            nv = np.sqrt(_sq(xi[..., d.r:]))
            env = nh**d.p + d.k * nv ** (d.p - d.k) * nh**d.k
            G = d.coupling(xi)
            scale = 1.0 + d.Lam * env + np.abs(G)
            checks.append(("coupling-lower", d.lam * env - G, scale))
            checks.append(("coupling-upper", G - d.Lam * env, scale))
        return {"xi": xi}, checks

    return _audit("growth-and-coercivity", samples, seed, draw)


def audit_uniform_strict_convexity(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample the quantitative convexity excess of the vertical density.

    Checks ``F_v(th a + mu b) <= th F_v(a) + mu F_v(b)
    - beta th mu (th^(p-1) + mu^(p-1)) |a - b|^p`` at random pairs and
    convex weights.  Rejected when the density claims no ``beta``.
    """
    if d.beta <= 0:
        raise ValueError("density declares no uniform-strict-convexity constant (beta = 0)")

    def draw(rng):
        dim = d.n - d.r
        a = _sample_points(rng, samples, dim)
        b = _sample_points(rng, samples, dim)
        theta = rng.uniform(0.0, 1.0, samples)
        mu = 1.0 - theta
        Fa, Fb = d.vertical(a), d.vertical(b)
        lhs = d.vertical(theta[:, None] * a + mu[:, None] * b)
        excess = d.beta * theta * mu * (theta ** (d.p - 1) + mu ** (d.p - 1)) * np.sqrt(_sq(a - b)) ** d.p
        gap = lhs - (theta * Fa + mu * Fb - excess)
        scale = 1.0 + theta * np.abs(Fa) + mu * np.abs(Fb) + excess
        return {"xi": a, "zeta": b, "theta": theta}, [("uniform-strict-convexity", gap, scale)]

    return _audit("uniform-strict-convexity", samples, seed, draw)


def audit_convexity_midpoint(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample midpoint convexity ``F((a+b)/2) <= (F(a) + F(b)) / 2``."""
    def draw(rng):
        a = _sample_points(rng, samples, d.n)
        b = _sample_points(rng, samples, d.n)
        Fa, Fb = d.value(a), d.value(b)
        gap = d.value(0.5 * (a + b)) - 0.5 * (Fa + Fb)
        return {"xi": a, "zeta": b}, [("midpoint-convexity", gap, 1.0 + np.abs(Fa) + np.abs(Fb))]

    return _audit("midpoint-convexity", samples, seed, draw)
