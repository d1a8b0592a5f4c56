"""Kernel tests: series against independent oracles, multipliers, derived functions."""

import cmath
import math
import sys
import threading
import time

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

from conftest import TAU, sample_point, sigma_dlambda

PI = math.pi


# The series and the Taylor wrapper as they were before the (tau, degree)
# term tables: every term's constants are recomputed on each call.  The
# kernel must reproduce them bit for bit.


def reference_series(ev, z0, degree):
    """Taylor coefficients at a reduced point, and the number of terms summed."""
    tau = ev.lattice.tau
    coefs = [0j] * (degree + 1)
    im0 = abs(z0.imag)
    log_tol = math.log(ev.trunc_tol)
    max_term = 0.0
    converged = False
    tail = math.inf
    for j in range(theta_module._MAX_TERMS):
        half = j + 0.5
        base = 1j * PI * tau * half * half
        ph = 1j * PI * (2 * j + 1)
        ep = cmath.exp(base + ph * z0)
        em = cmath.exp(base - ph * z0)
        sign = -1.0 if j % 2 else 1.0
        wk = 1.0 + 0j
        for k in range(degree + 1):
            piece = wk * ep - ((-1.0) ** k) * wk * em
            coefs[k] += sign * piece / 1j
            wk *= ph
        size = (abs(ep) + abs(em)) * max(1.0, abs(ph)) ** degree
        max_term = max(max_term, size)
        nh = half + 1.0
        log_next = (
            -PI * tau.imag * nh * nh
            + 2.0 * PI * nh * im0
            + degree * math.log(PI * (2 * j + 3))
        )
        tail = log_next
        if log_next < log_tol + math.log(max_term):
            converged = True
            break
    if not converged:
        bound = math.exp(min(tail, 700.0))
        raise TruncationError(
            "theta series truncation: tolerance %g not reached within %d terms"
            % (ev.trunc_tol, theta_module._MAX_TERMS),
            tail_bound=bound,
        )
    fact = 1.0
    for k in range(degree + 1):
        if k > 1:
            fact *= k
        coefs[k] /= fact
    return coefs, j + 1


def reference_taylor(ev, z, degree):
    """theta^(k)(z)/k! for k = 0..degree, and the number of series terms summed."""
    z0, r, s = ev.lattice.reduce(z)
    inner, terms = reference_series(ev, z0, degree)
    tau = ev.lattice.tau
    parity = -1.0 if (r + s) % 2 else 1.0
    try:
        mult0 = parity * cmath.exp(-1j * PI * (s * s * tau + 2.0 * s * z0))
    except OverflowError:
        raise theta_module._overflow(z) from None
    out = np.zeros(degree + 1, dtype=complex)
    if s == 0:
        for k in range(degree + 1):
            out[k] = mult0 * inner[k]
        return out, terms
    w = -2j * PI * s
    expjet = [1.0 + 0j]
    for k in range(1, degree + 1):
        expjet.append(expjet[-1] * w / k)
    for k in range(degree + 1):
        acc = 0j
        for i in range(k + 1):
            acc += expjet[i] * inner[k - i]
        val = mult0 * acc
        if not cmath.isfinite(val):
            raise theta_module._overflow(z)
        out[k] = val
    return out, terms


def hexes(jet):
    """Real and imaginary parts as float.hex strings, so signed zeros count."""
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in jet]


def assert_matches_reference(ev, z, degree):
    want, terms = reference_taylor(ev, z, degree)
    assert hexes(ev.theta_taylor(z, degree)) == hexes(want), (ev.lattice.tau, z, degree)
    return terms


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
        for degree in (0, 1, 117):
            assert np.all(np.isfinite(ev.theta_taylor(z, degree)))
            assert_matches_reference(ev, z, degree)


def test_degree_limit_is_a_typed_error(ev):
    """Degree 185 overflowed max(1, |ph|)^degree with a bare OverflowError,
    and from 171 on k! overflowed to inf and zeroed the top coefficients."""
    for degree in (118, 171, 185, 400):
        with pytest.raises(ThetaOverflowError, match="degree"):
            ev.theta_taylor(0.31 + 0.42j, degree)
    # the limit holds on a flat lattice too, where many more terms are summed
    flat = ThetaEvaluator(Lattice(0.3 + 0.05j))
    for e in (ev, flat):
        jet = e.theta_taylor(0.61 + 0.3 * e.lattice.tau, 117)
        assert np.all(np.isfinite(jet)) and jet[117] != 0


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
        got = sigma_dlambda(ev, lam, z)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))
        direct = ev.sigma(lam, z) * (ev.zeta_bar(lam - z) - ev.zeta_bar(lam))
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(got))


def test_sigma_dlambda_small_z_limit(ev, rng):
    # the z -> 0 limit of d/dlambda sigma_lambda(z) is wp_bar(lambda);
    # the approach is first order in z, so check the error shrinks linearly
    lam = sample_point(rng, ev.lattice)
    target = ev.wp_bar(lam)
    errs = [abs(sigma_dlambda(ev, lam, 10.0 ** (-k)) - target) for k in (3, 4, 5)]
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


# -- the term tables against the reference kernel -------------------------


def test_kernel_matches_reference_bit_for_bit(ev):
    rng = np.random.default_rng(14)
    for x, y in rng.uniform(-3.0, 3.0, size=(2000, 2)):
        for degree in range(11):
            assert_matches_reference(ev, complex(x, y), degree)


def test_kernel_matches_reference_on_lattice_and_real_axis(ev):
    tau = ev.lattice.tau
    for degree in range(11):
        for z in (0.0, 1.0, tau, 1.0 + tau):
            assert_matches_reference(ev, z, degree)
            assert ev.theta_taylor(z, degree)[0] == 0.0
        for x in np.linspace(-3.0, 3.0, 61):
            assert_matches_reference(ev, complex(x, 0.0), degree)
            assert_matches_reference(ev, complex(x, -0.0), degree)


def test_kernel_errors_match_reference(ev):
    for z in (0.2 + 16 * ev.lattice.tau, 0.7 - 40 * ev.lattice.tau):
        for degree in (0, 3):
            with pytest.raises(ThetaOverflowError) as want:
                reference_taylor(ev, z, degree)
            with pytest.raises(ThetaOverflowError) as got:
                ev.theta_taylor(z, degree)
            assert str(got.value) == str(want.value)
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    for z in (0.37 + 0.0006j, 0.37 + 0.0019j, -1.2 + 0.3j):
        for degree in (0, 1, 5):
            with pytest.raises(TruncationError) as want:
                reference_taylor(flat, z, degree)
            with pytest.raises(TruncationError) as got:
                flat.theta_taylor(z, degree)
            assert str(got.value) == str(want.value)
            assert got.value.tail_bound.hex() == want.value.tail_bound.hex()


def test_term_tables_are_keyed_by_tau_and_degree():
    evs = [ThetaEvaluator(Lattice(tau)) for tau in (0.31 + 1.07j, 0.5j, -0.2 + 0.8j)]
    rng = np.random.default_rng(15)
    for x, y in rng.uniform(-2.0, 2.0, size=(60, 2)):
        for degree in (0, 8, 0):
            for ev in evs:
                assert_matches_reference(ev, complex(x, y), degree)


def test_term_tables_grow_only_as_far_as_the_series_reaches():
    theta_module._term_table.cache_clear()
    ev = ThetaEvaluator(Lattice(TAU))
    rng = np.random.default_rng(16)
    most_terms = {}
    for k, (x, y) in enumerate(rng.uniform(-3.0, 3.0, size=(1000, 2))):
        degree = k % 11
        terms = assert_matches_reference(ev, complex(x, y), degree)
        most_terms[degree] = max(most_terms.get(degree, 0), terms)
    for degree, terms in most_terms.items():
        assert len(theta_module._term_table(TAU, degree)) <= terms


def test_term_tables_grow_consistently_under_threads(monkeypatch):
    """Threads that grow one fresh table at once still append each row once, in order.

    Each thread sleeps between finding row j missing and building it, so the
    others find it missing too.
    """
    append = theta_module._append_term

    def preempted_append(*args):
        time.sleep(1e-4)
        append(*args)

    monkeypatch.setattr(theta_module, "_append_term", preempted_append)
    evs = [ThetaEvaluator(Lattice(complex(0.01 * k, 0.3 + 0.01 * k))) for k in range(10)]
    z = 0.37 + 0.29j  # high in the cell: tables of 9 to 12 rows
    want = [hexes(reference_taylor(ev, z, d)[0]) for ev in evs for d in (0, 3)]
    got = [[] for _ in range(4)]
    barrier = threading.Barrier(len(got), timeout=60)

    def work(out):
        for ev in evs:
            for d in (0, 3):
                barrier.wait()
                out.append(hexes(ev.theta_taylor(z, d)))

    theta_module._term_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(got)


# -- the array kernel against the scalar one --------------------------------


def test_theta_array_matches_theta_taylor(ev):
    """Every row within a tolerance of theta_taylor, on 10,000+ (point, degree) pairs.

    The error is taken relative to the max-norm of the scalar jet of degree
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
            want = ev.theta_taylor(z, degree)
            scale = np.max(np.abs(ev.theta_taylor(z, max(degree, 1))))
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
            ev.theta_taylor(far, 0)
    with pytest.raises(ThetaOverflowError, match="degree"):
        ev.theta_array(np.array(good), 118)
    with pytest.raises(ValueError):
        ev.theta_array(np.array(good), -1)
    flat = ThetaEvaluator(Lattice(0.3 + 0.002j))
    for kernel in (lambda z: flat.theta_taylor(z, 1), lambda z: flat.theta_array(np.array([z]), 1)):
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
            want = steep.theta_taylor(z, degree)
            assert np.max(np.abs(row - want)) <= tol * np.max(np.abs(want))


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


def test_pole_guard_far_from_the_real_cell():
    """At tau = 5 + 0.1i the point -1e-9 i sits next to the lattice point 0 = (tau - 5) - tau."""
    ev = ThetaEvaluator(Lattice(5.0 + 0.1j))
    z = -1e-9j
    assert ev.lattice.dist_to_lattice(z) <= 1.1e-9
    assert four_corner_distance(ev.lattice, z) > 0.09
    with pytest.raises(PoleProximityError):
        ev.zeta_bar(z)
    with pytest.raises(PoleProximityError):
        ev.wp_bar(z)
