import dataclasses

import numpy as np
import pytest

from elongate import (
    EnergyDensity,
    PDirichletDensity,
    SeparablePowerDensity,
    audit_convexity_midpoint,
    audit_growth,
    audit_uniform_strict_convexity,
    make_density,
)

Q = make_density("quadratic", r=1, n=2)
P4 = make_density("p-dirichlet", 4.0, r=1, n=2)
SEP4 = make_density("separable-p", 4.0, r=1, n=2)
ALL = [Q, P4, SEP4, make_density("p-dirichlet", 3.0, r=1, n=2)]
#: Explicit test ids: ``make_density("quadratic")`` is a ``p-dirichlet``
#: density, so ids taken from ``d.kind`` would collide.
ALL_IDS = ["quadratic", "p-dirichlet0", "separable-p", "p-dirichlet1"]


def _random_xi(rng, count, dim, lo=-3, hi=3):
    return rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(lo, hi, (count, 1))


def test_value_quadratic():
    assert Q.value(np.array([3.0, 4.0])) == pytest.approx(12.5)


def test_value_p4():
    assert P4.value(np.array([1.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("d", ALL)
def test_value_zero_normalization(d):
    assert d.value(np.zeros(d.n)) == 0.0
    assert np.all(d.grad(np.zeros(d.n)) == 0.0)


def test_grad_quadratic_identity():
    xi = np.array([3.0, 4.0])
    assert np.allclose(Q.grad(xi), xi)


def test_grad_p4_example():
    assert np.allclose(P4.grad(np.array([1.0, 0.0])), [1.0, 0.0])


@pytest.mark.parametrize("d", ALL)
def test_grad_matches_finite_differences(d):
    rng = np.random.default_rng(17)
    xi = rng.standard_normal((100, d.n)) * rng.uniform(0.5, 2.0, (100, 1))
    g = d.grad(xi)
    h = 1e-5
    for a in range(d.n):
        e = np.zeros(d.n)
        e[a] = h
        fd = (d.value(xi + e) - d.value(xi - e)) / (2 * h)
        denom = np.maximum(np.abs(g[:, a]), 1e-3)
        assert np.max(np.abs(fd - g[:, a]) / denom) <= 1e-6


def test_vertical_p4():
    assert P4.vertical(np.array([1.0])) == pytest.approx(0.25)


@pytest.mark.parametrize("d", ALL)
def test_vertical_matches_padded_value(d):
    rng = np.random.default_rng(2)
    xiv = _random_xi(rng, 100, d.n - d.r)
    padded = np.concatenate([np.zeros((100, d.r)), xiv], axis=1)
    fv, f = d.vertical(xiv), d.value(padded)
    assert np.max(np.abs(fv - f) / (1 + np.abs(f))) <= 1e-14


def test_coupling_p4_expanded_formula():
    # independent oracle: expand (a + b)^2 - b^2 with a = |xi_h|^2, b = |xi_v|^2
    rng = np.random.default_rng(4)
    xi = _random_xi(rng, 200, 2)
    a, b = xi[:, 0] ** 2, xi[:, 1] ** 2
    expected = (a**2 + 2 * a * b) / 4
    assert np.allclose(P4.coupling(xi), expected, rtol=1e-12)


def test_coupling_separable_ignores_vertical():
    rng = np.random.default_rng(9)
    xi = _random_xi(rng, 100, 2)
    assert np.allclose(SEP4.coupling(xi), np.abs(xi[:, 0]) ** 4 / 4, rtol=1e-13)


@pytest.mark.parametrize("d", ALL)
def test_coupling_vanishes_without_horizontal_part(d):
    rng = np.random.default_rng(8)
    xi = _random_xi(rng, 50, d.n)
    xi[:, : d.r] = 0.0
    assert np.max(np.abs(d.coupling(xi))) <= 1e-14


@pytest.mark.parametrize("d", ALL)
def test_split_identity_and_nonnegativity(d):
    rng = np.random.default_rng(23)
    xi = _random_xi(rng, 2000, d.n)
    f = d.value(xi)
    resid = f - d.vertical(xi[:, d.r:]) - d.coupling(xi)
    assert np.all(np.abs(resid) <= 1e-14 * (1.0 + np.abs(f)))
    assert np.all(d.coupling(xi) >= -1e-14)


@pytest.mark.parametrize("d", ALL)
def test_value_increment_matches_difference(d):
    rng = np.random.default_rng(31)
    xi = rng.standard_normal((200, d.n))
    delta = rng.standard_normal((200, d.n)) * 10.0 ** rng.uniform(-8, 0, (200, 1))
    inc = d.value_increment(xi, delta)
    ref = d.value(xi + delta) - d.value(xi)
    assert np.all(np.abs(inc - ref) <= 1e-9 * (1e-12 + np.abs(d.value(xi))) + 1e-13 * np.abs(inc))


def test_value_increment_resolves_tiny_steps():
    # naive subtraction returns exactly 0 here; the stable path must not
    xi = np.array([[1.0, 2.0]])
    delta = np.array([[1e-13, -1e-13]])
    inc = float(P4.value_increment(xi, delta)[0])
    expected = float(P4.grad(xi[0]) @ delta[0])
    assert inc == pytest.approx(expected, rel=1e-3)
    # the same step taken along a unit-size direction, as a line search does
    line = P4.line_increment(xi, delta / 1e-13)
    assert float(line(1e-13)[0]) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("d", ALL)
def test_vertical_restriction(d):
    vd = d.vertical_restriction()
    assert vd.n == d.n - d.r and vd.r == 0
    rng = np.random.default_rng(1)
    xiv = rng.standard_normal((50, vd.n))
    assert np.allclose(vd.value(xiv), d.vertical(xiv), rtol=1e-14)


def test_audit_growth_p4_certified_constants():
    rep = audit_growth(P4, 20000, seed=7)
    assert rep.violations == 0
    assert rep.worst_margin <= 0


def test_audit_growth_quadratic():
    rep = audit_growth(Q, 20000, seed=7)
    assert rep.violations == 0


def test_audit_growth_wrong_lambda_reports_violations():
    bad = make_density("quadratic", r=1, n=2, lam=0.6)
    rep = audit_growth(bad, 5000, seed=7)
    assert rep.violations > 0
    assert rep.worst_margin > 0
    assert rep.witnesses and rep.witnesses[0]["gap"] > 0


def test_audit_usc_quadratic_certified_beta():
    rep = audit_uniform_strict_convexity(Q, 20000, seed=7)
    assert rep.violations == 0


def test_audit_usc_wrong_beta_reports_violations():
    bad = make_density("quadratic", r=1, n=2, beta=0.6)
    rep = audit_uniform_strict_convexity(bad, 5000, seed=7)
    assert rep.violations > 0


def test_audit_usc_requires_declared_beta():
    with pytest.raises(ValueError):
        audit_uniform_strict_convexity(P4, 100, seed=0)


def test_usc_quadratic_excess_is_parallelogram_identity():
    # oracle: th*F(a) + mu*F(b) - F(th a + mu b) == th*mu*|a-b|^2 / 2 exactly
    rng = np.random.default_rng(12)
    a = rng.standard_normal((100, 1))
    b = rng.standard_normal((100, 1))
    th = rng.uniform(0, 1, (100, 1))
    mu = 1 - th
    lhs = th[:, 0] * Q.vertical(a) + mu[:, 0] * Q.vertical(b) - Q.vertical(th * a + mu * b)
    rhs = th[:, 0] * mu[:, 0] * ((a - b) ** 2).sum(axis=1) / 2
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_usc_degenerate_weights_give_equality():
    a, b = np.array([1.3]), np.array([-0.7])
    for th in (0.0, 1.0):
        mu = 1 - th
        lhs = float(Q.vertical(th * a + mu * b))
        excess = 0.5 * th * mu * (th + mu) * float(abs(a - b)[0]) ** 2
        rhs = th * float(Q.vertical(a)) + mu * float(Q.vertical(b)) - excess
        assert lhs == pytest.approx(rhs, abs=1e-15)


@pytest.mark.parametrize("d", ALL)
def test_audit_midpoint_convexity_builtins(d):
    assert audit_convexity_midpoint(d, 20000, seed=3).violations == 0


def test_audit_midpoint_equal_points_margin_zero():
    rep = audit_convexity_midpoint(Q, 10, seed=0)
    assert rep.worst_margin <= 0


class _ConcaveProbe(EnergyDensity):
    kind = "concave-probe"

    def __init__(self):
        super().__init__(2.0, 0.0, 1.0, 1.0, 0.0, 1, 2)

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return -np.sum(xi * xi, axis=-1)

    def grad(self, xi):
        return -2.0 * np.asarray(xi, dtype=float)

    def vertical_restriction(self):  # pragma: no cover - not used
        raise NotImplementedError


def test_base_coupling_is_value_minus_vertical(monkeypatch):
    # a custom density that does not override coupling gets the base
    # class's F(xi) - F(0, xi_v), and audit_growth reaches it when r > 0
    d = _ConcaveProbe()
    xi = _random_xi(np.random.default_rng(5), 50, 2)
    assert np.array_equal(d.coupling(xi), d.value(xi) - d.vertical(xi[..., 1:]))
    assert np.allclose(d.coupling(xi), -xi[..., 0] ** 2, rtol=1e-12, atol=0.0)
    calls, coupling = [], EnergyDensity.coupling
    monkeypatch.setattr(EnergyDensity, "coupling", lambda self, xi: calls.append(len(xi)) or coupling(self, xi))
    rep = audit_growth(d, 300, seed=6)
    assert calls == [300]
    # coercivity-lower fails everywhere, and so does coupling-lower (G = -|xi_h|^2)
    assert rep.violations == 600


def test_audit_midpoint_flags_concave_probe():
    rep = audit_convexity_midpoint(_ConcaveProbe(), 2000, seed=3)
    assert rep.violations > 0


class _NaNProbe(PDirichletDensity):
    """The quadratic form, but NaN wherever the last component exceeds 1."""

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.where(xi[..., -1] > 1.0, np.nan, super().value(xi))


@pytest.mark.parametrize("audit", [audit_growth, audit_uniform_strict_convexity, audit_convexity_midpoint])
def test_audit_counts_a_nan_margin_as_a_violation(audit):
    # the quadratic's certified constants hold wherever the value is a number
    rep = audit(_NaNProbe(2.0, r=1, n=2), 2000, seed=4)
    assert 0 < rep.violations < rep.samples
    assert np.isnan(rep.worst_margin)
    assert len(rep.witnesses) == 5
    assert all(np.isnan(w["margin"]) and w["check"] for w in rep.witnesses)


@pytest.mark.parametrize("d", ALL + [_ConcaveProbe()], ids=ALL_IDS + ["concave-probe"])
def test_line_increment_matches_value_increment(d):
    # built-ins override line_increment; the concave probe uses the base fallback
    rng = np.random.default_rng(37)
    xi = rng.standard_normal((200, d.n))
    delta = rng.standard_normal((200, d.n)) * 10.0 ** rng.uniform(-8, 0, (200, 1))
    line = d.line_increment(xi, delta)
    slope = np.abs(np.sum(d.grad(xi) * delta, axis=-1))
    for a in (1e-6, 0.3, 1.0, 4.0):
        inc = d.value_increment(xi, a * delta)
        assert np.all(np.abs(line(a) - inc) <= 1e-13 * (np.abs(inc) + a * slope + a * a * np.abs(d.value(delta))))


#: Every built-in at p = 2, 3, 4 (polynomial line energies at p = 2 and 4,
#: the summed per-cell fallback at p = 3) and the base-class fallback.
LINE = [make_density(k, p, r=1, n=2) for k in ("p-dirichlet", "separable-p") for p in (2.0, 3.0, 4.0)]
LINE += [Q, _ConcaveProbe()]
LINE_IDS = [f"{k}-{p:g}" for k in ("p-dirichlet", "separable-p") for p in (2.0, 3.0, 4.0)]
LINE_IDS += ["quadratic-2", "concave-probe-2"]


def _line_case(d, seed=41):
    """Cells of every scale along a unit-size direction, and a 0/1 cell mask.

    A line energy leaves a cell out when the direction is zero there."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((200, d.n))
    delta = rng.standard_normal((200, d.n)) * 10.0 ** rng.uniform(-8, 0, (200, 1))
    return xi, delta, (rng.uniform(size=200) < 0.7).astype(float)


@pytest.mark.parametrize("d", LINE, ids=LINE_IDS)
def test_line_energy_sums_line_increment(d):
    # the tolerance of test_line_increment_matches_value_increment, summed over cells
    xi, delta, w = _line_case(d)
    line, masked, whole = d.line_increment(xi, delta), d.line_energy(xi, delta * w[:, None]), d.line_energy(xi, delta)
    slope = np.abs(np.sum(d.grad(xi) * delta, axis=-1))
    for a in (1e-13, 1e-6, 0.3, 1.0, 4.0):
        inc = line(a)
        tol = 1e-13 * (np.abs(inc) + a * slope + a * a * np.abs(d.value(delta)))
        assert isinstance(masked(a), float)
        assert abs(masked(a) - np.vdot(w, inc)) <= np.vdot(w, tol)
        assert abs(whole(a) - inc.sum()) <= tol.sum()


@pytest.mark.parametrize("d", [Q, P4, SEP4], ids=["quadratic", "p-dirichlet", "separable-p"])
def test_line_energy_resolves_tiny_steps(d):
    # naive subtraction of the summed energies misses by 30-60% here
    xi = np.array([[1.0, 2.0], [-3.0, 0.5]])
    delta = np.array([[1.0, -1.0], [0.5, 2.0]])
    slopes = np.sum(d.grad(xi) * delta, axis=-1)
    assert d.line_energy(xi, delta)(1e-15) == pytest.approx(1e-15 * slopes.sum(), rel=1e-6)
    assert d.line_energy(xi, delta * [[1.0], [0.0]])(1e-15) == pytest.approx(1e-15 * slopes[0], rel=1e-6)


@pytest.mark.parametrize("d", LINE, ids=LINE_IDS)
def test_line_energy_nan_and_masked_cells(d):
    xi, delta, w = _line_case(d)
    out, delta = w == 0.0, delta * w[:, None]
    poisoned = xi.copy()
    poisoned[np.flatnonzero(~out)[3], 0] = np.nan
    assert np.isnan(d.line_energy(poisoned, delta)(0.5))
    # whatever a masked cell holds (finite), it adds exactly 0
    junk_xi, zero_xi = xi.copy(), xi.copy()
    junk_xi[out], zero_xi[out] = 1e3, 0.0
    for a in (1e-13, 0.3, 4.0):
        assert d.line_energy(junk_xi, delta)(a) == d.line_energy(zero_xi, delta)(a)


def test_audits_deterministic():
    r1 = audit_growth(P4, 5000, seed=42)
    r2 = audit_growth(P4, 5000, seed=42)
    assert r1 == r2
    assert r1 != audit_growth(P4, 5000, seed=43)


def test_builtin_parameter_table():
    assert (P4.p, P4.k, P4.lam, P4.Lam, P4.beta) == (4.0, 2.0, 0.25, 0.25, 0.0)
    p2 = make_density("p-dirichlet", 2.0, r=1, n=2)
    assert (p2.k, p2.lam, p2.beta) == (0.0, 0.5, 0.5)
    assert (SEP4.k, SEP4.Lam) == (0.0, 0.25)
    assert SEP4.lam == pytest.approx(2.0 ** (1 - 2.0) / 4.0)
    assert (Q.p, Q.k, Q.beta) == (2.0, 0.0, 0.5)


def test_power_family_at_p2():
    # the quadratic form is the p = 2 member of both built-in families
    rng = np.random.default_rng(53)
    xi = rng.standard_normal((50, 30, 2)) * 10.0 ** rng.uniform(-3, 3, (50, 30, 1))
    delta = rng.standard_normal((50, 30, 2))
    delta *= rng.uniform(size=(50, 30, 1)) < 0.7
    quad = make_density("quadratic", r=1, n=2)
    p2, sep2 = PDirichletDensity(2.0, r=1, n=2), SeparablePowerDensity(2.0, r=1, n=2)
    for d in (p2, sep2):
        assert np.array_equal(d.value(xi), quad.value(xi))
        assert np.array_equal(d.grad(xi), quad.grad(xi))
    for a in (1e-9, 0.5, 3.0):
        assert p2.line_energy(xi, delta)(a) == quad.line_energy(xi, delta)(a)
    assert (quad.p, quad.k, quad.lam, quad.Lam, quad.beta) == (2.0, 0.0, 0.5, 0.5, 0.5)


def test_make_density_validation():
    with pytest.raises(ValueError):
        make_density("fourier", 2.0)
    with pytest.raises(ValueError):
        make_density("quadratic", 3.0)
    with pytest.raises(ValueError):
        make_density("p-dirichlet", 1.5)


def test_report_serializes():
    rep = audit_growth(Q, 100, seed=0)
    data = dataclasses.asdict(rep)
    assert data["hypothesis"] == "growth-and-coercivity"
    assert data["samples"] == 400  # four bound families
    assert data["violations"] == 0


def test_pow_diff_square_matches_log_form():
    # at q = 2 (p = 4) the increment is u (2S + u); it must agree with the
    # log-space form, and with exact rational arithmetic, over the arguments
    # a line search makes: u = a (2 xi.delta + a |delta|^2), a from 1e-6 to 4
    from fractions import Fraction

    from elongate.density import _pow_diff, _pow_diff_log

    rng = np.random.default_rng(41)
    xi = _random_xi(rng, 300, 2)
    delta = _random_xi(rng, 300, 2)
    S = np.sum(xi * xi, axis=-1)
    b2, c = 2.0 * np.sum(xi * delta, axis=-1), np.sum(delta * delta, axis=-1)
    for a in (1e-6, 1e-3, 0.3, 1.0, 4.0):
        u = a * (b2 + a * c)
        fast = _pow_diff(S, u, 2.0)
        assert np.all(np.abs(fast - _pow_diff_log(S, u, 2.0)) <= 1e-13 * np.abs(fast))
        exact = [(Fraction(s) + Fraction(v)) ** 2 - Fraction(s) ** 2 for s, v in zip(S, u)]
        assert all(abs(Fraction(f) - e) <= 4 * 2.0**-52 * abs(e) for f, e in zip(fast, exact))
