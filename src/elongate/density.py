"""Convex energy densities, their vertical/coupling split, and hypothesis audits.

A density ``F`` on gradient vectors splits as ``F = F_vert + G``, where
``F_vert`` is the value at a vanishing horizontal block and ``G`` the
remainder ("coupling").  Built-ins carry certified growth constants
``lam <= Lam`` (two-sided power bounds on both ``F`` and ``G``), a
coupling exponent ``k``, and a uniform-strict-convexity constant
``beta`` (0 when unclaimed).  The audits sample the claimed inequalities
over log-uniform magnitudes and random directions and report worst
signed margins; violations are data, not errors.

All evaluation methods are vectorized over leading axes and pure.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass, field
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

    ``worst_margin`` is the largest normalized violation excess: positive
    margins are violations, so ``violations == 0`` iff
    ``worst_margin <= 0``.  Witnesses keep the worst few sample points
    with their raw (unnormalized) gaps.
    """

    hypothesis: str
    samples: int
    violations: int
    worst_margin: float
    witnesses: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


class EnergyDensity(abc.ABC):
    """Convex density on gradient vectors, split against an ``(r, n)`` layout.

    Subclasses provide vectorized ``value``/``grad`` on arrays of shape
    ``(..., n)``; the base class supplies generic (subtraction-based)
    fallbacks for the split and for line increments, which built-ins
    override with cancellation-free forms.
    """

    kind: str = "custom"

    def __init__(self, p: float, k: float, lam: float, Lam: float, beta: float, r: int, n: int):
        if p < 2:
            raise ValueError("densities are restricted to growth exponents p >= 2")
        if not 0 <= k < p:
            raise ValueError("coupling exponent must satisfy 0 <= k < p")
        # lam <= Lam is not enforced: audits are routinely pointed at
        # deliberately wrong claimed constants.
        if lam <= 0 or Lam <= 0:
            raise ValueError("growth constants must be positive")
        if beta < 0:
            raise ValueError("beta must be nonnegative")
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

    def value_increment(self, xi, delta) -> np.ndarray:
        """``F(xi + delta) - F(xi)``; as stable as :meth:`line_increment`."""
        return self.line_increment(xi, delta)(1.0)

    @abc.abstractmethod
    def vertical_restriction(self) -> "EnergyDensity":
        """The density of the limit problem, acting on the vertical block alone."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.p}, r={self.r}, n={self.n})"


def _pow_diff(S, u, q: float) -> np.ndarray:
    """``(S + u)**q - S**q`` without cancellation, for ``S >= 0``, ``S + u >= 0``."""
    S = np.asarray(S, dtype=float)
    u = np.asarray(u, dtype=float)
    M = np.maximum(S, S + u)
    safe = np.where(M > 0, M, 1.0)
    with np.errstate(divide="ignore"):
        frac = np.abs(u) / safe
        mag = safe**q * (-np.expm1(q * np.log1p(-np.minimum(frac, 1.0))))
    return np.where(M > 0, np.sign(u) * mag, 0.0)


def _sq(xi) -> np.ndarray:
    return _dot(xi, xi)


class PDirichletDensity(EnergyDensity):
    """Power of the full Euclidean norm: ``|xi|^p / p``.

    Growth constants ``lam = Lam = 1/p`` hold exactly for the norm bound
    at every ``p``; the coupling bounds share the same constants and are
    certified tight for ``p = 2`` and ``p = 4`` (the audited exponents).
    """

    kind = "p-dirichlet"

    def __init__(self, p: float, r: int, n: int, lam=None, Lam=None, beta=None):
        k = 0.0 if p == 2 else 2.0
        b = 0.5 if p == 2 else 0.0
        super().__init__(
            p,
            k,
            1.0 / p if lam is None else lam,
            1.0 / p if Lam is None else Lam,
            b if beta is None else beta,
            r,
            n,
        )

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _sq(xi) ** (self.p / 2) / self.p

    def grad(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _sq(xi)[..., None] ** ((self.p - 2) / 2) * xi

    def vertical(self, xi_v):
        xi_v = np.asarray(xi_v, dtype=float)
        return _sq(xi_v) ** (self.p / 2) / self.p

    def coupling(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _pow_diff(_sq(xi[..., self.r:]), _sq(xi[..., : self.r]), self.p / 2) / self.p

    def line_increment(self, xi, delta):
        xi = np.asarray(xi, dtype=float)
        delta = np.asarray(delta, dtype=float)
        # |xi + a delta|^2 = S + a (2b + a c)
        S, b2, c = _sq(xi), 2.0 * _dot(xi, delta), _sq(delta)
        q, p = self.p / 2, self.p
        return lambda alpha: _pow_diff(S, alpha * (b2 + alpha * c), q) / p

    def vertical_restriction(self):
        return PDirichletDensity(self.p, 0, self.n - self.r)


class SeparablePowerDensity(EnergyDensity):
    """Decoupled powers of the two blocks: ``(|xi_h|^p + |xi_v|^p) / p``.

    The coupling is ``|xi_h|^p / p`` exactly (exponent ``k = 0``); the
    shared growth constants ``lam = 2^(1 - p/2) / p``, ``Lam = 1/p`` are
    certified for every ``p``.
    """

    kind = "separable-p"

    def __init__(self, p: float, r: int, n: int, lam=None, Lam=None, beta=None):
        b = 0.5 if p == 2 else 0.0
        super().__init__(
            p,
            0.0,
            2.0 ** (1 - p / 2) / p if lam is None else lam,
            1.0 / p if Lam is None else Lam,
            b if beta is None else beta,
            r,
            n,
        )

    def _blocks(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _sq(xi[..., : self.r]), _sq(xi[..., self.r:])

    def value(self, xi):
        Sh, Sv = self._blocks(xi)
        q = self.p / 2
        return (Sh**q + Sv**q) / self.p

    def grad(self, xi):
        xi = np.asarray(xi, dtype=float)
        Sh, Sv = self._blocks(xi)
        e = (self.p - 2) / 2
        out = np.empty_like(xi)
        out[..., : self.r] = Sh[..., None] ** e * xi[..., : self.r]
        out[..., self.r:] = Sv[..., None] ** e * xi[..., self.r:]
        return out

    def vertical(self, xi_v):
        xi_v = np.asarray(xi_v, dtype=float)
        return _sq(xi_v) ** (self.p / 2) / self.p

    def coupling(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _sq(xi[..., : self.r]) ** (self.p / 2) / self.p

    def line_increment(self, xi, delta):
        xi = np.asarray(xi, dtype=float)
        delta = np.asarray(delta, dtype=float)
        q, p, r = self.p / 2, self.p, self.r
        blocks = [
            (_sq(x), 2.0 * _dot(x, d), _sq(d))
            for x, d in ((xi[..., :r], delta[..., :r]), (xi[..., r:], delta[..., r:]))
        ]

        def increment(alpha):
            out = 0.0
            for S, b2, c in blocks:
                out = out + _pow_diff(S, alpha * (b2 + alpha * c), q)
            return out / p

        return increment

    def vertical_restriction(self):
        return PDirichletDensity(self.p, 0, self.n - self.r)


class QuadraticDensity(EnergyDensity):
    """The quadratic form ``|xi|^2 / 2`` with certified ``beta = 1/2``."""

    kind = "quadratic"

    def __init__(self, r: int, n: int, lam=None, Lam=None, beta=None):
        super().__init__(
            2.0,
            0.0,
            0.5 if lam is None else lam,
            0.5 if Lam is None else Lam,
            0.5 if beta is None else beta,
            r,
            n,
        )

    def value(self, xi):
        return 0.5 * _sq(np.asarray(xi, dtype=float))

    def grad(self, xi):
        return np.array(xi, dtype=float)

    def vertical(self, xi_v):
        return 0.5 * _sq(np.asarray(xi_v, dtype=float))

    def coupling(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 0.5 * _sq(xi[..., : self.r])

    def line_increment(self, xi, delta):
        xi = np.asarray(xi, dtype=float)
        delta = np.asarray(delta, dtype=float)
        b, c = _dot(xi, delta), 0.5 * _sq(delta)
        return lambda alpha: alpha * (b + alpha * c)

    def vertical_restriction(self):
        return QuadraticDensity(0, self.n - self.r)


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
        return QuadraticDensity(r, n, lam, Lam, beta)
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


def _make_report(hypothesis: str, margins: np.ndarray, witness_fn) -> HypothesisReport:
    violations = int(np.count_nonzero(margins > 0))
    worst = float(np.max(margins)) if margins.size else float("-inf")
    order = np.argsort(margins)[::-1][:5]
    witnesses = [witness_fn(int(i)) for i in order if margins[i] > 0]
    return HypothesisReport(hypothesis, margins.size, violations, worst, witnesses)


def audit_growth(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample the two-sided power bounds on the density and on its coupling.

    Lower/upper envelopes: ``lam |xi|^p <= F <= Lam (|xi|^p + 1)`` and
    ``lam E <= G <= Lam E`` with ``E = |xi_h|^p + k |xi_v|^(p-k) |xi_h|^k``.
    Margins are normalized by the local magnitude scale so equality-tight
    constants audit clean; deterministic given ``(samples, seed)``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
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

    margins = np.concatenate([gap / scale - AUDIT_SLACK for _, gap, scale in checks])
    gaps = np.concatenate([gap for _, gap, _ in checks])

    def witness(i: int) -> dict:
        name = checks[i // samples][0]
        j = i % samples
        return {"check": name, "xi": xi[j].tolist(), "gap": float(gaps[i]), "margin": float(margins[i])}

    return _make_report("growth-and-coercivity", margins, witness)


def _usc_margins(d: EnergyDensity, beta: float, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    dim = d.n - d.r
    a = _sample_points(rng, samples, dim)
    b = _sample_points(rng, samples, dim)
    theta = rng.uniform(0.0, 1.0, samples)
    mu = 1.0 - theta
    Fa, Fb = d.vertical(a), d.vertical(b)
    lhs = d.vertical(theta[:, None] * a + mu[:, None] * b)
    excess = beta * theta * mu * (theta ** (d.p - 1) + mu ** (d.p - 1)) * np.sqrt(_sq(a - b)) ** d.p
    gap = lhs - (theta * Fa + mu * Fb - excess)
    scale = 1.0 + theta * np.abs(Fa) + mu * np.abs(Fb) + excess
    margins = gap / scale - AUDIT_SLACK

    def witness(i: int) -> dict:
        return {
            "xi": a[i].tolist(),
            "zeta": b[i].tolist(),
            "theta": float(theta[i]),
            "gap": float(gap[i]),
            "margin": float(margins[i]),
        }

    return margins, witness


def audit_uniform_strict_convexity(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample the quantitative convexity excess of the vertical density.

    Checks ``F_v(th a + mu b) <= th F_v(a) + mu F_v(b)
    - beta th mu (th^(p-1) + mu^(p-1)) |a - b|^p`` at random pairs and
    convex weights.  Rejected when the density claims no ``beta``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if d.beta <= 0:
        raise ValueError("density declares no uniform-strict-convexity constant (beta = 0)")
    margins, witness = _usc_margins(d, d.beta, samples, seed)
    return _make_report("uniform-strict-convexity", margins, witness)


def audit_convexity_midpoint(d: EnergyDensity, samples: int, seed: int) -> HypothesisReport:
    """Sample midpoint convexity ``F((a+b)/2) <= (F(a) + F(b)) / 2``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    a = _sample_points(rng, samples, d.n)
    b = _sample_points(rng, samples, d.n)
    Fa, Fb = d.value(a), d.value(b)
    gap = d.value(0.5 * (a + b)) - 0.5 * (Fa + Fb)
    scale = 1.0 + np.abs(Fa) + np.abs(Fb)
    margins = gap / scale - AUDIT_SLACK

    def witness(i: int) -> dict:
        return {"xi": a[i].tolist(), "zeta": b[i].tolist(), "gap": float(gap[i]), "margin": float(margins[i])}

    return _make_report("midpoint-convexity", margins, witness)


def find_beta(d: EnergyDensity, samples: int = 2000, seed: int = 0, hi: float = 4.0) -> float:
    """Largest empirically valid uniform-strict-convexity constant (bisection).

    Reported, not certified: the value only reflects the sampled pairs.
    """

    def feasible(beta: float) -> bool:
        margins, _witness = _usc_margins(d, beta, samples, seed)
        return bool(np.all(margins <= 0))

    lo = 0.0
    if feasible(hi):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
