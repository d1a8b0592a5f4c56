"""Kernel tests: series against independent oracles, multipliers, derived functions."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov.theta import (
    Lattice,
    LatticeError,
    NonFiniteArgumentError,
    PoleProximityError,
    ThetaError,
    ThetaEvaluator,
    ThetaOverflowError,
)

from conftest import sample_point

PI = math.pi


def mp_theta(tau, z, d=0):
    """Oracle: odd Jacobi theta via mpmath's jtheta (nome q = exp(i pi tau))."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    val = mpmath.jtheta(1, mpmath.pi * complex(z), q, derivative=d)
    return complex(val) * (PI ** d)


def cauchy_derivative(f, z, d, radius=0.05, npts=256):
    """Oracle: d-th derivative by trapezoid quadrature of the Cauchy integral."""
    acc = 0j
    for m in range(npts):
        t = 2.0 * PI * m / npts
        w = cmath.exp(1j * t)
        acc += f(z + radius * w) * cmath.exp(-1j * d * t)
    return acc * math.factorial(d) / (npts * radius ** d)


def test_lattice_rejects_flat_tau():
    with pytest.raises(LatticeError, match="Lattice invariant violated"):
        Lattice(0.5 + 0.0j)
    with pytest.raises(LatticeError, match="Lattice invariant violated"):
        Lattice(0.5 - 1.0j)
    for tau in (complex(math.nan, 1.0), complex(0.3, math.inf), complex(math.inf, 1.0)):
        with pytest.raises(LatticeError, match="not finite"):
            Lattice(tau)


def test_reduction_identity(lattice, rng):
    for _ in range(50):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        z0, r, s = lattice.reduce(z)
        assert abs(z0 + r + s * lattice.tau - z) < 1e-12
        assert 0 <= z0.real < 1.0
        assert 0 <= z0.imag < lattice.tau.imag


def test_matches_mpmath_values(ev, rng):
    tau = ev.lattice.tau
    for _ in range(25):
        z = sample_point(rng, ev.lattice, spread=2.0)
        expect = mp_theta(tau, z)
        got = ev.theta(z)
        assert abs(got - expect) <= 1e-11 * max(1.0, abs(expect))


def test_matches_mpmath_derivatives(ev, rng):
    tau = ev.lattice.tau
    for d in (1, 2, 3):
        for _ in range(8):
            z = sample_point(rng, ev.lattice, spread=1.5)
            expect = mp_theta(tau, z, d)
            got = ev.theta(z, d)
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_theta_zero_is_exact(ev):
    assert ev.theta(0.0) == 0.0
    # lattice points reduce to the origin and stay exact zeros
    assert ev.theta(3.0 + 2.0 * ev.lattice.tau) == 0.0


def test_oddness(ev, rng):
    for _ in range(30):
        z = sample_point(rng, ev.lattice, spread=0.8)
        a, b = ev.theta(z), ev.theta(-z)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_quasi_periodicity_multipliers(ev, rng):
    tau = ev.lattice.tau
    for _ in range(100):
        z = sample_point(rng, ev.lattice, spread=0.4)
        r = int(rng.integers(-3, 4))
        s = int(rng.integers(-3, 4))
        base = ev.theta(z)
        mult = (-1.0) ** (r + s) * cmath.exp(-1j * PI * (s * s * tau + 2 * s * z))
        shifted = ev.theta(z + r + s * tau)
        assert abs(shifted - mult * base) <= 1e-10 * max(1.0, abs(shifted))


def test_derivatives_match_cauchy_oracle(ev, rng):
    for d in (1, 2, 3):
        for _ in range(6):
            z = sample_point(rng, ev.lattice, margin=0.12)
            expect = cauchy_derivative(lambda w: ev.theta(w), z, d)
            got = ev.theta(z, d)
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_taylor_jet_matches_cauchy(ev, rng):
    z = sample_point(rng, ev.lattice, margin=0.12)
    jet = ev.theta_taylor(z, 6)
    for d in range(7):
        expect = cauchy_derivative(lambda w: ev.theta(w), z, d) / math.factorial(d)
        assert abs(jet[d] - expect) <= 1e-9 * max(1.0, abs(expect))


def test_theta_rejects_high_derivative(ev):
    with pytest.raises(ValueError):
        ev.theta(0.3, 4)


def test_truncation_reports_tail():
    from ellsov.theta import TruncationError

    # a flat lattice needs more q-series terms than the kernel sums
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    with pytest.raises(TruncationError) as err:
        flat.theta(0.37 + 0.0006j)
    assert err.value.tail_bound > 0


# -- derived functions -------------------------------------------------


def test_sigma_quasi_periodicity(ev, rng):
    for _ in range(20):
        lam = sample_point(rng, ev.lattice)
        z = sample_point(rng, ev.lattice)
        r = int(rng.integers(-2, 3))
        s = int(rng.integers(-2, 3))
        lhs = ev.sigma(lam, z + r + s * ev.lattice.tau)
        rhs = cmath.exp(2j * PI * s * lam) * ev.sigma(lam, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_sigma_lambda_shifts(ev, rng):
    # sigma_{lam+1} = sigma_lam ; sigma_{lam+tau}(z) = e^{2 pi i z} sigma_lam(z)
    lam = sample_point(rng, ev.lattice)
    z = sample_point(rng, ev.lattice)
    assert abs(ev.sigma(lam + 1.0, z) - ev.sigma(lam, z)) <= 1e-10 * abs(ev.sigma(lam, z))
    lhs = ev.sigma(lam + ev.lattice.tau, z)
    rhs = cmath.exp(2j * PI * z) * ev.sigma(lam, z)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_sigma_laurent_coefficients(ev, rng):
    """Residue 1 at z=0 and the first two Laurent coefficients."""
    lam = sample_point(rng, ev.lattice)
    radius, npts = 0.05, 256
    coef = {}
    for k in (-1, 0, 1):
        acc = 0j
        for m in range(npts):
            t = 2.0 * PI * m / npts
            w = radius * cmath.exp(1j * t)
            acc += ev.sigma(lam, w) * w ** (-k) / npts
        coef[k] = acc
    assert abs(coef[-1] - 1.0) <= 1e-9
    assert abs(coef[0] - (-ev.zeta_bar(lam))) <= 1e-9 * max(1.0, abs(coef[0]))
    jet_lam = ev.theta_taylor(lam, 2)
    jet_0 = ev.theta0_jet(3)
    c1 = jet_lam[2] / jet_lam[0] - jet_0[3] / jet_0[1]
    assert abs(coef[1] - c1) <= 1e-8 * max(1.0, abs(c1))


def test_sigma_reflection(ev, rng):
    # sigma_{-lam}(-z) = -sigma_lam(z)
    lam = sample_point(rng, ev.lattice)
    z = sample_point(rng, ev.lattice)
    assert abs(ev.sigma(-lam, -z) + ev.sigma(lam, z)) <= 1e-10 * abs(ev.sigma(lam, z))


def test_sigma_product_identity(ev, rng):
    # sigma_lam(w) sigma_{-lam}(w) = wp_bar(w) - wp_bar(lam)
    for _ in range(10):
        lam = sample_point(rng, ev.lattice)
        w = sample_point(rng, ev.lattice)
        lhs = ev.sigma(lam, w) * ev.sigma(-lam, w)
        rhs = ev.wp_bar(w) - ev.wp_bar(lam)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_zeta_bar_properties(ev, rng):
    z = sample_point(rng, ev.lattice)
    assert abs(ev.zeta_bar(-z) + ev.zeta_bar(z)) <= 1e-10 * abs(ev.zeta_bar(z))
    drop = ev.zeta_bar(z + ev.lattice.tau) - ev.zeta_bar(z)
    assert abs(drop + 2j * PI) <= 1e-9
    assert abs(ev.zeta_bar(z + 1.0) - ev.zeta_bar(z)) <= 1e-9


def test_wp_bar_periodic_and_even(ev, rng):
    z = sample_point(rng, ev.lattice)
    v = ev.wp_bar(z)
    assert abs(ev.wp_bar(z + 1.0) - v) <= 1e-9 * max(1.0, abs(v))
    assert abs(ev.wp_bar(z + ev.lattice.tau) - v) <= 1e-9 * max(1.0, abs(v))
    assert abs(ev.wp_bar(-z) - v) <= 1e-9 * max(1.0, abs(v))


def test_wp_bar_laurent(ev):
    # wp_bar(w) = 1/w^2 - theta'''(0)/(3 theta'(0)) + O(w^2)
    jet0 = ev.theta0_jet(3)
    c0 = -2.0 * jet0[3] / jet0[1]  # theta'''(0)/(3 theta'(0)) with jet normalization
    w = 1e-3
    got = ev.wp_bar(w)
    assert abs(got - (1.0 / w ** 2 + c0)) <= 1e-4


def test_sigma_dlambda_closed_form(ev, rng):
    """Closed form equals the quadrature derivative in lambda."""
    for _ in range(5):
        lam = sample_point(rng, ev.lattice, margin=0.12)
        z = sample_point(rng, ev.lattice, margin=0.12)
        expect = cauchy_derivative(lambda u: ev.sigma(u, z), lam, 1)
        got = ev.sigma_dlambda(lam, z)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))
        direct = ev.sigma(lam, z) * (ev.zeta_bar(lam - z) - ev.zeta_bar(lam))
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(got))


def test_sigma_dlambda_small_z_limit(ev, rng):
    # the z -> 0 limit of d/dlambda sigma_lambda(z) is wp_bar(lambda);
    # the approach is first order in z, so check the error shrinks linearly
    lam = sample_point(rng, ev.lattice)
    target = ev.wp_bar(lam)
    errs = [abs(ev.sigma_dlambda(lam, 10.0 ** (-k)) - target) for k in (3, 4, 5)]
    scale = max(1.0, abs(target))
    assert errs[2] <= 1e-3 * scale
    assert errs[2] < 0.5 * errs[1] < 0.25 * errs[0]


def test_pole_guards(ev):
    with pytest.raises(PoleProximityError):
        ev.sigma(0.3, 1e-9)
    with pytest.raises(PoleProximityError):
        ev.zeta_bar(1.0 + 1e-8)


def test_far_argument_stability(ev, rng):
    # large shifts reduce exactly; compare against mpmath at the reduced point
    tau = ev.lattice.tau
    z = 0.377 + 0.213j
    far = z + 7 - 9 * tau
    expect = mp_theta(tau, far)
    got = ev.theta(far)
    assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_non_finite_arguments_are_typed(ev):
    bad = (
        complex(math.nan, 0.2),
        complex(0.3, math.nan),
        complex(math.inf, 0.2),
        complex(0.3, -math.inf),
    )
    for z in bad:
        with pytest.raises(NonFiniteArgumentError):
            ev.lattice.reduce(z)
        with pytest.raises(NonFiniteArgumentError):
            ev.theta(z)
        with pytest.raises(NonFiniteArgumentError):
            ev.zeta_bar(z)
    assert issubclass(NonFiniteArgumentError, ThetaError)


def test_overflow_far_from_cell_is_typed(ev):
    tau = ev.lattice.tau
    # |theta| grows like exp(pi Im(tau) s^2) at s cells out; s = 16 passes 1e308
    for z in (0.2 + 16 * tau, 0.2 - 16 * tau, 0.7 + 40 * tau, complex(1e300, 1e300)):
        with pytest.raises(ThetaOverflowError):
            ev.theta(z)
        with pytest.raises(ThetaOverflowError):
            ev.theta_taylor(z, 3)
    assert issubclass(ThetaOverflowError, ThetaError)
    # just inside the range the value is still finite and quasi-periodic
    z = 0.2 + 0.3j
    s = 12
    mult = (-1.0) ** s * cmath.exp(-1j * PI * (s * s * tau + 2 * s * z))
    far = ev.theta(z + s * tau)
    assert cmath.isfinite(far)
    assert abs(far - mult * ev.theta(z)) <= 1e-12 * abs(far)
