"""The quadratic box sweep against its closed-form continuum values.

The A1 problem, ``-Δu = 2`` on ``(-ell, ell) x (-1, 1)`` with zero
boundary values, has a series solution.  With ``lam_k = (2k+1) pi/2``
and ``c_k = 4 (-1)^k / lam_k^3``, the cosine coefficients of the limit
profile ``1 - y^2``, the minimizer is ``1 - y^2 - sum_k c_k cosh(lam_k
x) cos(lam_k y) / cosh(lam_k ell)``.  Its gradient energy and the two
core norms (``p = 2``, core ``|x| < ell0``) follow by orthogonality in
``y``.  Sweeps at ``h = 1/16`` and ``1/32`` converge at ``O(h^2)``, so
the Richardson value ``(4 E_32 - E_16) / 3`` is compared with them.
Their local decay rates are compared with the exact decay rate of the
discrete scheme, which differs from ``pi/2`` by ``O(h^2)``.  On a disc
cross-section the same rate sets a radial decay through ``I_0``.
"""

import math

import numpy as np
import pytest

from elongate import CrossSection, Load, SolveOptions, SweepConfig, make_density, run_sweep

ELL0 = 1.0
ELLS = tuple(float(e) for e in range(1, 13))
#: Enough terms for every ell: the core norms converge like k^-4 at ell = ell0.
TERMS = 2000


def _modes():
    k = np.arange(TERMS)
    lam = (2 * k + 1) * math.pi / 2
    return lam, 4.0 * (-1.0) ** k / lam**3


def _core_factors(ell, ell0):
    """``sinh(2 lam ell0) / cosh^2(lam ell)`` and ``1 / cosh^2(lam ell)``, overflow-free."""
    lam, c = _modes()
    q = np.exp(-2 * lam * ell)
    ratio = 2 * (np.exp(2 * lam * (ell0 - ell)) - np.exp(-2 * lam * (ell0 + ell))) / (1 + q) ** 2
    return lam, c, ratio, 4 * q / (1 + q) ** 2


def total_grad_energy(ell):
    """``16/3 ell - 32 (2/pi)^5 sum_k (2k+1)^-5 tanh((2k+1) pi ell / 2)``."""
    k = np.arange(TERMS) * 2.0 + 1.0
    return 16 / 3 * ell - 32 * (2 / math.pi) ** 5 * float(np.sum(k**-5 * np.tanh(k * math.pi * ell / 2)))


def err_grad_p(ell, ell0):
    """``sum_k c_k^2 lam_k sinh(2 lam_k ell0) / cosh^2(lam_k ell)``."""
    lam, c, ratio, _ = _core_factors(ell, ell0)
    return float(np.sum(c**2 * lam * ratio))


def hgrad_p(ell, ell0):
    """``sum_k c_k^2 lam_k^2 (sinh(2 lam_k ell0) / (2 lam_k) - ell0) / cosh^2(lam_k ell)``."""
    lam, c, ratio, sech2 = _core_factors(ell, ell0)
    return float(np.sum(c**2 * lam * ratio / 2 - c**2 * lam**2 * ell0 * sech2))


@pytest.fixture(scope="module")
def sweeps():
    """The cold sweep over ``ELLS`` at each spacing, by spacing."""
    out = {}
    for h in (1 / 8, 1 / 16, 1 / 32):
        cfg = SweepConfig(
            cross_section=CrossSection("box", 1),
            vertical_halfwidths=(1.0,),
            ells=ELLS,
            target_h=h,
            density=make_density("quadratic", r=1, n=2),
            load=Load.constant(2.0),
            options=SolveOptions(grad_tol=1e-10),
            ell0=ELL0,
            warm_start=False,
        )
        out[h] = run_sweep(cfg).records
        assert all(r.converged for r in out[h])
    return out


@pytest.fixture(scope="module")
def richardson(sweeps):
    return {
        col: [(4 * getattr(b, col) - getattr(a, col)) / 3 for a, b in zip(sweeps[1 / 16], sweeps[1 / 32])]
        for col in ("total_grad_energy", "err_grad_p", "hgrad_p")
    }


def test_series_match_the_asymptotic_offset():
    # the energy is a*ell - b up to the tanh factors: b = 32 (2/pi)^5
    # sum (2k+1)^-5 ~ 3.361 as ell grows, 3.349 at ell = 2
    b = 32 * (2 / math.pi) ** 5 * sum((2 * k + 1) ** -5 for k in range(TERMS))
    assert 16 / 3 * 12 - total_grad_energy(12.0) == pytest.approx(b, rel=1e-12)
    assert 16 / 3 * 2 - total_grad_energy(2.0) == pytest.approx(3.3489, abs=1e-4)
    assert b == pytest.approx(3.3613, abs=1e-4)


def test_energy_matches_the_series(richardson):
    # measured residuals: 7e-8 at ell = 1, falling to 6e-9 at ell = 12
    for ell, value in zip(ELLS, richardson["total_grad_energy"]):
        exact = total_grad_energy(ell)
        assert abs(value - exact) <= 1e-6 * exact, (ell, value, exact)


@pytest.mark.parametrize("column,series", [("err_grad_p", err_grad_p), ("hgrad_p", hgrad_p)])
def test_core_norms_match_the_series(richardson, column, series):
    # measured residuals: about 3e-6 (ell - ell0)^2 relative, the O(h^4)
    # shift of the discrete decay rate over the distance to the core (2e-6
    # at ell = 2, 3.7e-4 at ell = 12).  At ell = ell0 the discrete error
    # jumps to the extension re-zeroed on the lateral walls, which the
    # continuum error does not, so the comparison starts at ell = 2.
    for ell, value in zip(ELLS[1:], richardson[column][1:]):
        exact = series(ell, ELL0)
        assert abs(value - exact) <= 3e-5 * (ell - ELL0) ** 2 * exact, (ell, value, exact)


def discrete_decay_rate(h_x, h_y):
    """The exact decay rate of the discrete quadratic problem, vertical half-width 1.

    The Hessian's symbol on a box grid is ``(4/h_x^2) sin^2(t_x/2)
    cos^2(t_y/2) + (4/h_y^2) cos^2(t_x/2) sin^2(t_y/2)``.  A mode
    ``exp(-mu x)`` in the slowest vertical mode ``t_y = pi h_y / 2`` is
    in its kernel when ``tanh(mu h_x / 2) = (h_x / h_y) tan(pi h_y / 4)``;
    at ``h_x = h_y = h`` that is ``mu_h = (2/h) artanh(tan(pi h / 4))``.
    """
    return 2 / h_x * math.atanh(h_x / h_y * math.tan(math.pi * h_y / 4))


def test_discrete_decay_rate_values():
    assert discrete_decay_rate(1 / 8, 1 / 8) == pytest.approx(1.5809879, abs=1e-7)
    assert discrete_decay_rate(1 / 16, 1 / 16) == pytest.approx(1.5733257, abs=1e-7)
    assert discrete_decay_rate(1 / 32, 1 / 32) == pytest.approx(1.5714275, abs=1e-7)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
def test_local_decay_rate_is_the_discrete_rate(sweeps, h):
    # measured: the local rates differ from mu_h by -1.4e-7 at 5 -> 6 and by
    # at most 7.3e-9 from there to 11 -> 12; pi/2 is 2.5e-3 away at h = 1/16
    records = [r for r in sweeps[h] if r.ell >= 5]
    mu = discrete_decay_rate(records[0].h_horiz, records[0].h_vert)
    rates = [0.5 * math.log(a.err_grad_p / b.err_grad_p) for a, b in zip(records, records[1:])]
    assert len(rates) == 7
    assert max(abs(rate - mu) for rate in rates) <= 2e-6, (mu, rates)
    assert min(abs(rate - math.pi / 2) for rate in rates) > 2e-6


def test_local_decay_rate_at_unequal_spacings():
    # ell off the lattice of the vertical spacing: target 0.13 splits the
    # vertical axis into 16 cells (h_y = 1/8) and each 2 ell = 0.13 N into N
    # cells (h_x = 0.13), so the discrete rate solves tanh(mu h_x / 2) =
    # (h_x / h_y) tan(pi h_y / 4).  Measured: the local rates differ from it
    # by at most 7e-8, and from the rates at h_x = h_y = 1/8 or 0.13 by 4.2e-4
    ells = tuple(0.065 * n for n in range(80, 145, 16))
    cfg = SweepConfig(
        cross_section=CrossSection("box", 1), vertical_halfwidths=(1.0,), ells=ells, target_h=0.13,
        density=make_density("quadratic", r=1, n=2), load=Load.constant(2.0),
        options=SolveOptions(grad_tol=1e-10), ell0=ELL0, warm_start=False,
    )
    records = run_sweep(cfg).records
    h_x, h_y = records[0].h_horiz, records[0].h_vert
    assert all(r.converged and r.h_horiz == pytest.approx(0.13, rel=1e-12) for r in records)
    assert h_y == 0.125
    mu = discrete_decay_rate(h_x, h_y)
    rates = [math.log(a.err_grad_p / b.err_grad_p) / (2 * (b.ell - a.ell)) for a, b in zip(records, records[1:])]
    assert len(rates) == 4
    assert max(abs(rate - mu) for rate in rates) <= 2e-6, (mu, rates)
    for other in (discrete_decay_rate(h_y, h_y), discrete_decay_rate(h_x, h_x)):
        assert min(abs(rate - other) for rate in rates) > 1e-4


def test_local_decay_rate_on_the_disc():
    # on the disc of radius ell the slowest vertical mode of the error solves
    # (Laplacian - mu^2) v = 0 horizontally; the radial solution regular at
    # the centre is I_0(mu rho), so the core error falls like 1 / I_0(mu ell)
    # and sqrt(err_grad_p) has the local rate ln(I_0(mu (ell+1)) / I_0(mu ell)).
    # Measured at h = 1/16: +0.038, -0.023, +0.013, +0.006, -0.009, -0.036
    # from ell = 2 on, the staircase boundary's first-order error; the box's
    # rate mu is 0.18 away at ell = 2
    cfg = SweepConfig(
        cross_section=CrossSection("ball", 2), vertical_halfwidths=(1.0,),
        ells=tuple(float(e) for e in range(2, 9)), target_h=1 / 16,
        density=make_density("quadratic", r=2, n=3), load=Load.constant(2.0),
        options=SolveOptions(grad_tol=1e-10), ell0=ELL0, warm_start=False,
    )
    records = run_sweep(cfg).records
    assert all(r.converged for r in records)
    mu = discrete_decay_rate(records[0].h_horiz, records[0].h_vert)
    rates = [0.5 * math.log(a.err_grad_p / b.err_grad_p) for a, b in zip(records, records[1:])]
    targets = [math.log(np.i0(mu * b.ell) / np.i0(mu * a.ell)) for a, b in zip(records, records[1:])]
    assert len(rates) == 6
    assert max(abs(rate - target) for rate, target in zip(rates, targets)) <= 0.05, (rates, targets)
    assert abs(rates[0] - mu) > 0.1
