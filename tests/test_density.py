import numpy as np
import pytest

from elongate import (
    EnergyDensity,
    audit_convexity_midpoint,
    audit_growth,
    audit_uniform_strict_convexity,
    find_beta,
    make_density,
)

Q = make_density("quadratic", r=1, n=2)
P4 = make_density("p-dirichlet", 4.0, r=1, n=2)
SEP4 = make_density("separable-p", 4.0, r=1, n=2)
ALL = [Q, P4, SEP4, make_density("p-dirichlet", 3.0, r=1, n=2)]


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


def test_audit_midpoint_flags_concave_probe():
    rep = audit_convexity_midpoint(_ConcaveProbe(), 2000, seed=3)
    assert rep.violations > 0


@pytest.mark.parametrize("d", ALL + [_ConcaveProbe()], ids=lambda d: d.kind)
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


def test_audits_deterministic():
    r1 = audit_growth(P4, 5000, seed=42)
    r2 = audit_growth(P4, 5000, seed=42)
    assert r1 == r2
    assert r1 != audit_growth(P4, 5000, seed=43)


def test_find_beta_recovers_quadratic_constant():
    assert find_beta(Q, samples=2000, seed=1) == pytest.approx(0.5, rel=0.05)


def test_builtin_parameter_table():
    assert (P4.p, P4.k, P4.lam, P4.Lam, P4.beta) == (4.0, 2.0, 0.25, 0.25, 0.0)
    p2 = make_density("p-dirichlet", 2.0, r=1, n=2)
    assert (p2.k, p2.lam, p2.beta) == (0.0, 0.5, 0.5)
    assert (SEP4.k, SEP4.Lam) == (0.0, 0.25)
    assert SEP4.lam == pytest.approx(2.0 ** (1 - 2.0) / 4.0)
    assert (Q.p, Q.k, Q.beta) == (2.0, 0.0, 0.5)


def test_make_density_validation():
    with pytest.raises(ValueError):
        make_density("fourier", 2.0)
    with pytest.raises(ValueError):
        make_density("quadratic", 3.0)
    with pytest.raises(ValueError):
        make_density("p-dirichlet", 1.5)


def test_report_serializes():
    rep = audit_growth(Q, 100, seed=0)
    data = rep.to_json()
    assert data["hypothesis"] == "growth-and-coercivity"
    assert data["samples"] == 400  # four bound families
    assert data["violations"] == 0
