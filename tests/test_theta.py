"""Kernel tests: series against independent oracles, multipliers, derived functions."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import theta as theta_module
from ellsov.theta import (
    Lattice,
    LatticeError,
    NonFiniteArgumentError,
    PoleProximityError,
    ThetaError,
    ThetaEvaluator,
    ThetaOverflowError,
    TruncationError,
)

from conftest import (
    TAU,
    hexes,
    reference_taylor,
    sample_point,
    sigma,
    sigma_dlambda,
    theta_jet,
    wp_bar,
    zeta_bar,
)

PI = math.pi


def reference_theta(ev, z):
    """theta(z) as the scalar kernel returned it: the degree-0 reference times 0! = 1."""
    return complex(reference_taylor(ev, z, 0)[0][0]) * math.factorial(0)


def assert_matches_reference(ev, z):
    assert hexes([ev.theta(z)]) == hexes([reference_theta(ev, z)]), (ev.lattice.tau, z)


def array_jet(ev, z, degree):
    """theta_array's jet at one point."""
    return ev.theta_array(np.array([z]), degree)[0]


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


def test_large_im_tau_is_a_typed_error():
    """Above the ceiling the first term underflows or the largest one
    overflows; the Lattice rejects such a tau instead of the series failing
    with a bare ValueError or OverflowError."""
    with pytest.raises(LatticeError, match="Lattice invariant violated"):
        Lattice(1000j)
    with pytest.raises(LatticeError, match="Lattice invariant violated"):
        Lattice(0.3 + 187.001j)
    # at the ceiling the whole reduced cell works, up to the degree limit
    ev = ThetaEvaluator(Lattice(0.3 + 187.0j))
    for z in (0.3, 0.3 + 93.5j, 0.3 + 186.999j, 0.8 - 0.3j):
        assert_matches_reference(ev, z)
        for degree in (0, 1, 117):
            assert np.all(np.isfinite(array_jet(ev, z, degree)))


def test_degree_limit_is_a_typed_error(ev):
    """Degree 185 overflowed max(1, |ph|)^degree with a bare OverflowError,
    and from 171 on k! overflowed to inf and zeroed the top coefficients."""
    for degree in (118, 171, 185, 400):
        with pytest.raises(ThetaOverflowError, match="degree"):
            array_jet(ev, 0.31 + 0.42j, degree)
    jet = array_jet(ev, 0.61 + 0.3 * ev.lattice.tau, 117)
    assert np.all(np.isfinite(jet)) and jet[117] != 0
    # on a flat lattice the array kernel's term count, fixed at the top of the
    # cell, passes the term limit below degree 117: a typed error, not an overflow
    flat = ThetaEvaluator(Lattice(0.3 + 0.05j))
    with pytest.raises(TruncationError):
        array_jet(flat, 0.61 + 0.3 * flat.lattice.tau, 117)


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
            got = math.factorial(d) * array_jet(ev, z, d)[d]
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
            got = math.factorial(d) * array_jet(ev, z, d)[d]
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_taylor_jet_matches_cauchy(ev, rng):
    z = sample_point(rng, ev.lattice, margin=0.12)
    jet = array_jet(ev, z, 6)
    for d in range(7):
        expect = cauchy_derivative(lambda w: ev.theta(w), z, d) / math.factorial(d)
        assert abs(jet[d] - expect) <= 1e-9 * max(1.0, abs(expect))


def test_theta_rejects_high_derivative(ev):
    # the scalar kernel evaluates values only; derivatives are theta_array's
    with pytest.raises(TypeError):
        ev.theta(0.3, 1)


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
        lhs = sigma(ev, lam, z + r + s * ev.lattice.tau)
        rhs = cmath.exp(2j * PI * s * lam) * sigma(ev, lam, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_sigma_lambda_shifts(ev, rng):
    # sigma_{lam+1} = sigma_lam ; sigma_{lam+tau}(z) = e^{2 pi i z} sigma_lam(z)
    lam = sample_point(rng, ev.lattice)
    z = sample_point(rng, ev.lattice)
    assert abs(sigma(ev, lam + 1.0, z) - sigma(ev, lam, z)) <= 1e-10 * abs(sigma(ev, lam, z))
    lhs = sigma(ev, lam + ev.lattice.tau, z)
    rhs = cmath.exp(2j * PI * z) * sigma(ev, lam, z)
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
            acc += sigma(ev, lam, w) * w ** (-k) / npts
        coef[k] = acc
    assert abs(coef[-1] - 1.0) <= 1e-9
    assert abs(coef[0] - (-zeta_bar(ev, lam))) <= 1e-9 * max(1.0, abs(coef[0]))
    jet_lam = theta_jet(ev, lam, 2)
    jet_0 = theta_jet(ev, 0.0, 3)
    c1 = jet_lam[2] / jet_lam[0] - jet_0[3] / jet_0[1]
    assert abs(coef[1] - c1) <= 1e-8 * max(1.0, abs(c1))


def test_sigma_reflection(ev, rng):
    # sigma_{-lam}(-z) = -sigma_lam(z)
    lam = sample_point(rng, ev.lattice)
    z = sample_point(rng, ev.lattice)
    assert abs(sigma(ev, -lam, -z) + sigma(ev, lam, z)) <= 1e-10 * abs(sigma(ev, lam, z))


def test_sigma_product_identity(ev, rng):
    # sigma_lam(w) sigma_{-lam}(w) = wp_bar(w) - wp_bar(lam)
    for _ in range(10):
        lam = sample_point(rng, ev.lattice)
        w = sample_point(rng, ev.lattice)
        lhs = sigma(ev, lam, w) * sigma(ev, -lam, w)
        wp = ev.zeta_wp(np.array([w, lam]))[1]
        rhs = wp[0] - wp[1]
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_zeta_bar_properties(ev, rng):
    z = sample_point(rng, ev.lattice)
    tau = ev.lattice.tau
    zeta, minus, up, right = ev.zeta_wp(np.array([z, -z, z + tau, z + 1.0]))[0]
    assert abs(minus + zeta) <= 1e-10 * abs(zeta)
    assert abs(up - zeta + 2j * PI) <= 1e-9
    assert abs(right - zeta) <= 1e-9


def test_wp_bar_periodic_and_even(ev, rng):
    z = sample_point(rng, ev.lattice)
    v, right, up, minus = ev.zeta_wp(np.array([z, z + 1.0, z + ev.lattice.tau, -z]))[1]
    for other in (right, up, minus):
        assert abs(other - v) <= 1e-9 * max(1.0, abs(v))


def test_wp_bar_laurent(ev):
    # wp_bar(w) = 1/w^2 - theta'''(0)/(3 theta'(0)) + O(w^2)
    jet0 = array_jet(ev, 0.0, 3)
    c0 = -2.0 * jet0[3] / jet0[1]  # theta'''(0)/(3 theta'(0)) with jet normalization
    w = 1e-3
    got = ev.zeta_wp(np.array([w]))[1][0]
    assert abs(got - (1.0 / w ** 2 + c0)) <= 1e-4


def test_zeta_wp_match_reference(ev, rng):
    """zeta_wp against the reference jet's theta'/theta and (theta'/theta)^2 - theta''/theta."""
    zs = np.array([sample_point(rng, ev.lattice, spread=2.0) for _ in range(200)])
    zeta, wp = ev.zeta_wp(zs)
    for z, zb, w in zip(zs, zeta, wp):
        assert abs(zb - zeta_bar(ev, z)) <= 1e-12 * max(1.0, abs(zb))
        assert abs(w - wp_bar(ev, z)) <= 1e-12 * max(1.0, abs(w))
    for empty in ev.zeta_wp(np.array([], dtype=complex)):
        assert empty.shape == (0,)


def test_sigma_dlambda_closed_form(ev, rng):
    """Closed form equals the quadrature derivative in lambda."""
    for _ in range(5):
        lam = sample_point(rng, ev.lattice, margin=0.12)
        z = sample_point(rng, ev.lattice, margin=0.12)
        expect = cauchy_derivative(lambda u: sigma(ev, u, z), lam, 1)
        got = sigma_dlambda(ev, lam, z)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))
        direct = sigma(ev, lam, z) * (zeta_bar(ev, lam - z) - zeta_bar(ev, lam))
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(got))


def test_sigma_dlambda_small_z_limit(ev, rng):
    # the z -> 0 limit of d/dlambda sigma_lambda(z) is wp_bar(lambda);
    # the approach is first order in z, so check the error shrinks linearly
    lam = sample_point(rng, ev.lattice)
    target = wp_bar(ev, lam)
    errs = [abs(sigma_dlambda(ev, lam, 10.0 ** (-k)) - target) for k in (3, 4, 5)]
    scale = max(1.0, abs(target))
    assert errs[2] <= 1e-3 * scale
    assert errs[2] < 0.5 * errs[1] < 0.25 * errs[0]


def test_pole_guards(ev):
    with pytest.raises(PoleProximityError):
        sigma(ev, 0.3, 1e-9)
    with pytest.raises(PoleProximityError):
        ev.zeta_wp(np.array([1.0 + 1e-8]))


def test_zeta_wp_names_the_first_point_near_the_lattice(ev):
    """One distance pass over all points; the error names the first within rho, in order."""
    tau = ev.lattice.tau
    first, second = 2.0 - tau + 3e-7j, 1.0 + 4e-7
    zs = np.array([0.3 + 0.2j, first, 0.7 + 0.5j, second])
    with pytest.raises(PoleProximityError, match="pole proximity") as err:
        ev.zeta_wp(zs)
    assert repr(complex(first)) in str(err.value)
    assert repr(complex(second)) not in str(err.value)
    with pytest.raises(PoleProximityError) as err:
        ev.zeta_wp(zs[2:])
    assert repr(complex(second)) in str(err.value)


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
            ev.zeta_wp(np.array([0.3 + 0.2j, z]))
    assert issubclass(NonFiniteArgumentError, ThetaError)


def test_overflow_far_from_cell_is_typed(ev):
    tau = ev.lattice.tau
    # |theta| grows like exp(pi Im(tau) s^2) at s cells out; s = 16 passes 1e308
    for z in (0.2 + 16 * tau, 0.2 - 16 * tau, 0.7 + 40 * tau, complex(1e300, 1e300)):
        with pytest.raises(ThetaOverflowError):
            ev.theta(z)
        with pytest.raises(ThetaOverflowError):
            array_jet(ev, z, 3)
    assert issubclass(ThetaOverflowError, ThetaError)
    # just inside the range the value is still finite and quasi-periodic
    z = 0.2 + 0.3j
    s = 12
    mult = (-1.0) ** s * cmath.exp(-1j * PI * (s * s * tau + 2 * s * z))
    far = ev.theta(z + s * tau)
    assert cmath.isfinite(far)
    assert abs(far - mult * ev.theta(z)) <= 1e-12 * abs(far)


# -- the term tables against the reference kernel -------------------------


def test_kernel_matches_reference_bit_for_bit(ev):
    rng = np.random.default_rng(14)
    for x, y in rng.uniform(-3.0, 3.0, size=(2000, 2)):
        assert_matches_reference(ev, complex(x, y))


def test_kernel_matches_reference_on_lattice_and_real_axis(ev):
    tau = ev.lattice.tau
    for z in (0.0, 1.0, tau, 1.0 + tau):
        assert_matches_reference(ev, z)
        assert ev.theta(z) == 0.0
    for x in np.linspace(-3.0, 3.0, 61):
        assert_matches_reference(ev, complex(x, 0.0))
        assert_matches_reference(ev, complex(x, -0.0))


def test_kernel_errors_match_reference(ev):
    for z in (0.2 + 16 * ev.lattice.tau, 0.7 - 40 * ev.lattice.tau):
        with pytest.raises(ThetaOverflowError) as want:
            reference_taylor(ev, z, 0)
        with pytest.raises(ThetaOverflowError) as got:
            ev.theta(z)
        assert str(got.value) == str(want.value)
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    for z in (0.37 + 0.0006j, 0.37 + 0.0019j, -1.2 + 0.3j):
        with pytest.raises(TruncationError) as want:
            reference_taylor(flat, z, 0)
        with pytest.raises(TruncationError) as got:
            flat.theta(z)
        assert str(got.value) == str(want.value)
        assert got.value.tail_bound.hex() == want.value.tail_bound.hex()


def test_term_tables_are_keyed_by_tau_and_degree():
    """theta's degree-0 tables and theta_array's degree-8 ones, interleaved over three taus."""
    evs = [ThetaEvaluator(Lattice(tau)) for tau in (0.31 + 1.07j, 0.5j, -0.2 + 0.8j)]
    rng = np.random.default_rng(15)
    for x, y in rng.uniform(-2.0, 2.0, size=(60, 2)):
        z = complex(x, y)
        for ev in evs:
            assert_matches_reference(ev, z)
            want = theta_jet(ev, z, 8)
            assert np.max(np.abs(array_jet(ev, z, 8) - want)) <= 1e-11 * np.max(np.abs(want))
            assert_matches_reference(ev, z)


def array_term_count(tau, degree, trunc_tol):
    """theta_array's term count J as the per-call kernel would find it, and
    the log bound on the next term at the last term it tried."""
    limit = math.log(trunc_tol) - PI * tau.imag / 4.0
    for j in range(theta_module._MAX_TERMS):
        nh = j + 1.5
        log_next = -PI * tau.imag * nh * nh + 2.0 * PI * nh * tau.imag + degree * math.log(PI * (2 * j + 3))
        if log_next < limit:
            return j + 1, log_next
    return None, log_next


def test_term_tables_hold_the_array_term_count():
    """A table is a tuple of exactly J rows, built whole; when J would pass
    the term limit it holds all of them, and theta_array raises the
    TruncationError the per-call count gives, tail bound included."""
    for degree in range(11):
        table = theta_module._term_table(TAU, degree, 1e-16)
        terms, _ = array_term_count(TAU, degree, 1e-16)
        assert isinstance(table, tuple) and len(table) == terms
        assert theta_module._term_table(TAU, degree, 1e-16) is table
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    for degree in (0, 1, 5):
        table = theta_module._term_table(flat.lattice.tau, degree, flat.trunc_tol)
        assert len(table) == theta_module._MAX_TERMS
        terms, log_next = array_term_count(flat.lattice.tau, degree, flat.trunc_tol)
        assert terms is None
        with pytest.raises(TruncationError) as err:
            flat.theta_array(np.array([0.37 + 0.0006j]), degree)
        assert err.value.tail_bound.hex() == math.exp(min(log_next, 700.0)).hex()


def test_kernel_matches_reference_across_the_admitted_range():
    """Seeded taus with Im tau log-uniform over [1e-3, 187] and two trunc_tol:
    values and errors (message and tail bound) equal the per-call kernel's,
    whose rows the whole tables must cover."""
    rng = np.random.default_rng(26)
    errors = 0
    for _ in range(3000):
        tau = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(1e-3), math.log(187.0))))
        ev = ThetaEvaluator(Lattice(tau), trunc_tol=float(rng.choice([1e-16, 1e-12])))
        u, v = rng.uniform(-1.5, 1.5, 2)
        z = u + v * tau
        try:
            want = reference_theta(ev, z)
        except ThetaError as exc:
            errors += 1
            with pytest.raises(type(exc)) as got:
                ev.theta(z)
            assert str(got.value) == str(exc)
            assert getattr(got.value, "tail_bound", 0.0).hex() == getattr(exc, "tail_bound", 0.0).hex()
        else:
            assert hexes([ev.theta(z)]) == hexes([want]), (tau, z, ev.trunc_tol)
    assert errors > 0


# -- the array kernel against the reference jet ------------------------------


def test_theta_array_matches_reference_taylor(ev):
    """Every row within a tolerance of the reference jet, on 10,000+ (point, degree) pairs.

    The error is taken relative to the max-norm of the reference jet of degree
    max(degree, 1): next to a zero theta itself vanishes, and the cancellation
    in its series is on the scale of theta'.
    """
    tau = ev.lattice.tau
    rng = np.random.default_rng(22)
    lattice_points = [m + n * tau for m in range(-3, 4) for n in range(-3, 4)]
    near = [p + 1e-8 * cmath.exp(2j * PI * rng.uniform()) for p in lattice_points for _ in range(3)]
    far = list(rng.uniform(-10.0, 10.0, 2500) + 1j * rng.uniform(-10.0, 10.0, 2500))
    zs = np.array(far + lattice_points + near)
    for degree in range(4):
        got = ev.theta_array(zs, degree)
        assert got.shape == (len(zs), degree + 1)
        tol = 1e-14 if degree < 3 else 5e-14
        for z, row in zip(zs, got):
            want = theta_jet(ev, z, degree)
            scale = np.max(np.abs(theta_jet(ev, z, max(degree, 1))))
            assert np.max(np.abs(row - want)) <= tol * scale, (z, degree)
    # the zeros reduce to the origin, where the series is an exact zero
    assert np.all(ev.theta_array(np.array([0.0, 1.0, tau, -2.0 * tau]), 0) == 0.0)


def test_theta_array_matches_mpmath(ev, rng):
    tau = ev.lattice.tau
    zs = np.array([sample_point(rng, ev.lattice, spread=2.0) for _ in range(16)])
    got = ev.theta_array(zs, 3)
    for z, row in zip(zs, got):
        for d in range(4):
            expect = mp_theta(tau, z, d) / math.factorial(d)
            assert abs(row[d] - expect) <= 1e-10 * max(1.0, abs(expect))


# gap of theta_array's degree-d jets to the reference's, relative to the jet's max-norm,
# above the largest seen over the seeded points below (1.8e-14 at degree 4, 3.1e-12 at 10)
_JET_GAP = {4: 1e-13, 5: 2e-13, 6: 1e-12, 7: 1e-12, 8: 3e-12, 9: 3e-12, 10: 1e-11}


def test_theta_array_matches_reference_at_the_gaudin_degrees(ev):
    """Degrees 4 to 10, those of the Gaudin operators' jets, on 500 seeded points in [-3, 3]^2."""
    rng = np.random.default_rng(35)
    zs = rng.uniform(-3.0, 3.0, 500) + 1j * rng.uniform(-3.0, 3.0, 500)
    for degree, tol in _JET_GAP.items():
        for z, row in zip(zs, ev.theta_array(zs, degree)):
            want = theta_jet(ev, z, degree)
            assert np.max(np.abs(row - want)) <= tol * np.max(np.abs(want)), (z, degree)


def test_theta_array_matches_mpmath_at_high_degree(ev, rng):
    """Degrees 8 and 10 against mpmath, relative to the jet's max-norm (5.6e-13 at most here)."""
    tau = ev.lattice.tau
    zs = np.array([sample_point(rng, ev.lattice, spread=2.0) for _ in range(16)])
    for degree in (8, 10):
        for z, row in zip(zs, ev.theta_array(zs, degree)):
            expect = np.array([mp_theta(tau, z, d) / math.factorial(d) for d in range(degree + 1)])
            assert np.max(np.abs(row - expect)) <= 1e-11 * np.max(np.abs(expect)), (z, degree)


def test_theta_array_errors_are_typed(ev):
    tau = ev.lattice.tau
    good = [0.3 + 0.2j, -1.7 + 4.0j]
    for bad in (complex(math.nan, 0.2), complex(0.3, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(NonFiniteArgumentError):
            ev.theta_array(np.array(good + [bad]), 1)
    for far in (0.2 + 16 * tau, 0.7 - 40 * tau, complex(1e300, 1e300)):
        with pytest.raises(ThetaOverflowError):
            ev.theta_array(np.array([far] + good), 0)
        with pytest.raises(ThetaOverflowError):
            ev.theta(far)
    with pytest.raises(ThetaOverflowError, match="degree"):
        ev.theta_array(np.array(good), 118)
    with pytest.raises(ValueError):
        ev.theta_array(np.array(good), -1)
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    for kernel in (flat.theta, lambda z: flat.theta_array(np.array([z]), 1)):
        with pytest.raises(TruncationError) as err:
            kernel(0.37 + 0.0006j)
        assert err.value.tail_bound > 0
    # at the top of the admitted range the array kernel works across the cell
    steep = ThetaEvaluator(Lattice(0.3 + 187.0j))
    zs = np.array([0.3, 0.3 + 93.5j, 0.3 + 186.999j, 0.8 - 0.3j])
    for degree, tol in ((0, 1e-14), (1, 1e-14), (3, 5e-14), (117, 1e-10)):
        # at degree 117 the jet of the multiplier, exp(-2 pi i s d), sums terms up to
        # e^(2 pi) times larger than the coefficients it produces, in both kernels
        got = steep.theta_array(zs, degree)
        assert np.all(np.isfinite(got))
        for z, row in zip(zs, got):
            want = theta_jet(steep, z, degree)
            assert np.max(np.abs(row - want)) <= tol * np.max(np.abs(want))


def reference_theta_array(ev, zs, degree):
    """theta_array as it was when it rebuilt grid, weights and 1/(i k!) from the
    term table on every call (the truncation test left out)."""
    zs = np.asarray(zs, dtype=complex)
    z0, r, s = ev.lattice.reduce_array(zs)
    tau = ev.lattice.tau
    rows = theta_module._term_table(tau, degree, ev.trunc_tol)
    grid = np.array(
        [v for row in rows for v in row[:3]] + [v for row in rows for v in (row[0], -row[1], -row[2])]
    ).reshape(-1, 3)
    weights = np.array(
        [wk for row in rows for wk, _ in row[3]] + [wk for row in rows for _, wk in row[3]]
    ).reshape(-1, degree + 1)
    ifact = [1j]
    for k in range(1, degree + 1):
        ifact.append(ifact[-1] * k)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(grid[:, :1] + grid[:, 1:2] * z0) * grid[:, 2:]
        inner = (terms.T @ weights) / ifact
        mult = np.exp(-1j * PI * (s * s * tau + 2.0 * s * z0))
        mult = np.where((r + s) % 2, -mult, mult)
        out = mult[:, None] * inner
        w = -2j * PI * s
        for i in range(1, degree + 1):
            mult = mult * w / i
            out[:, i:] += mult[:, None] * inner[:, :-i]
    return out


def test_theta_array_prebuilt_tables_keep_its_bits(ev):
    """theta_array reads grid, weights and 1/(i k!) from one read-only build
    per term table, and returns the bits of the per-call build."""
    rng = np.random.default_rng(34)
    steep = ThetaEvaluator(Lattice(0.3 + 187.0j))
    for kernel in (ev, steep):
        tau = kernel.lattice.tau
        zs = np.concatenate([
            rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40) * min(tau.imag, 3.0),
            [0.0, 1.0, tau, 0.3 + 0.5 * tau],
        ])
        for degree in (0, 1, 2, 3, 117):
            got = kernel.theta_array(zs, degree)
            assert hexes(got.ravel()) == hexes(reference_theta_array(kernel, zs, degree).ravel())
            for arr in theta_module._array_table(tau, degree, kernel.trunc_tol)[1:]:
                with pytest.raises(ValueError):
                    arr[0] = 7


def test_theta_array_empty_input(ev):
    for degree in (0, 3):
        assert ev.theta_array(np.array([], dtype=complex), degree).shape == (0, degree + 1)


# -- lattice distance ---------------------------------------------------------


def four_corner_distance(lattice, z):
    """dist_to_lattice as it was: the corners 0, 1, tau and 1 + tau of the reduced cell."""
    z0, _, _ = lattice.reduce(z)
    tau = lattice.tau
    return min(abs(z0), abs(z0 - 1.0), abs(z0 - tau), abs(z0 - 1.0 - tau))


@pytest.mark.parametrize("re_tau", [-0.8, 0.31, 1.3, 5.0])
@pytest.mark.parametrize("im_tau", [0.1, 1.07])
def test_dist_to_lattice_is_the_nearest_point(re_tau, im_tau):
    """Equal to a brute-force minimum over m + n tau, |m|, |n| <= 3, whatever Re tau."""
    lattice = Lattice(complex(re_tau, im_tau))
    tau = lattice.tau
    rng = np.random.default_rng(23)
    zs = [u + v * tau for u, v in rng.uniform(-0.5, 0.5, size=(400, 2))]
    zs += [m + n * tau + complex(*rng.normal(0.0, 1e-9, 2))
           for m in range(-2, 3) for n in range(-2, 3)]
    for z in zs:
        brute = min(abs(z - m - n * tau) for m in range(-3, 4) for n in range(-3, 4))
        assert abs(lattice.dist_to_lattice(z) - brute) <= 1e-12


def test_dist_to_lattice_keeps_its_bits_at_the_bundled_tau(lattice):
    rng = np.random.default_rng(24)
    tau = lattice.tau
    zs = [complex(x, y) for x, y in rng.uniform(-5.0, 5.0, size=(4000, 2))]
    zs += [m + n * tau + complex(*rng.normal(0.0, 1e-7, 2)) for m in range(-3, 4) for n in range(-3, 4)]
    for z in zs:
        assert lattice.dist_to_lattice(z).hex() == four_corner_distance(lattice, z).hex()


@pytest.mark.parametrize("re_tau, im_tau", [(0.31, 1.07), (0.0, 0.4), (4.7, 0.1), (-2.3, 0.25)])
def test_dist_to_lattice_array_matches_scalar_bits(re_tau, im_tau):
    """The array pass equals dist_to_lattice bit for bit, so a pole decision
    (dist < rho) cannot change; small Im tau and large Re tau reach the
    scalar row walk for the points farther than Im tau from rows 0 and 1."""
    lattice = Lattice(complex(re_tau, im_tau))
    tau = lattice.tau
    rng = np.random.default_rng(25)
    zs = [complex(x, y) for x, y in rng.uniform(-5.0, 5.0, size=(2000, 2))]
    zs += [m + n * tau + complex(*rng.normal(0.0, 1e-9, 2)) for m in range(-3, 4) for n in range(-3, 4)]
    got = lattice.dist_to_lattice_array(np.array(zs))
    assert [d.hex() for d in got.tolist()] == [lattice.dist_to_lattice(z).hex() for z in zs]
    with pytest.raises(NonFiniteArgumentError):
        lattice.dist_to_lattice_array(np.array([0.1, complex("nan")]))


@pytest.mark.parametrize("re_tau, im_tau", [(0.31, 1.07), (4.7, 0.1)])
def test_theta_array_distances_are_the_distance_pass(re_tau, im_tau, monkeypatch):
    """theta_array(zs, d, dist=True) reads the distances off its own reduction:
    jets and distances equal theta_array and dist_to_lattice_array bit for bit,
    row walk included, and the points are reduced once."""
    ev = ThetaEvaluator(Lattice(complex(re_tau, im_tau)))
    lattice, tau = ev.lattice, ev.lattice.tau
    rng = np.random.default_rng(26)
    zs = [complex(x, y * tau.imag) for x, y in rng.uniform(-2.0, 2.0, size=(500, 2))]
    zs = np.array(zs + [m + n * tau + complex(*rng.normal(0.0, 1e-9, 2)) for m in range(-2, 3) for n in range(-2, 3)])
    reductions = []
    original = Lattice.reduce_array

    def counted(self, points):
        reductions.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Lattice, "reduce_array", counted)
    jets, dist = ev.theta_array(zs, 2, dist=True)
    monkeypatch.undo()
    assert reductions == [len(zs)]
    assert np.array_equal(jets, ev.theta_array(zs, 2))
    assert [d.hex() for d in dist.tolist()] == [d.hex() for d in lattice.dist_to_lattice_array(zs).tolist()]


def test_pole_guard_far_from_the_real_cell():
    """At tau = 5 + 0.1i the point -1e-9 i sits next to the lattice point 0 = (tau - 5) - tau."""
    ev = ThetaEvaluator(Lattice(5.0 + 0.1j))
    z = -1e-9j
    assert ev.lattice.dist_to_lattice(z) <= 1.1e-9
    assert four_corner_distance(ev.lattice, z) > 0.09
    with pytest.raises(PoleProximityError):
        ev.zeta_wp(np.array([z]))
