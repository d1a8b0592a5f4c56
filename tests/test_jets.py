"""Jet arithmetic against quadrature oracles."""

import cmath
import math

import numpy as np
from numpy.testing import assert_allclose

from ellsov import jets
from ellsov.jets import LambdaDiffOp

from conftest import sample_point, sigma_dlambda

PI = math.pi


# The per-rank loops that jets.jmul and jets.jderiv replaced, kept as references.


def reference_scalar_mul(a, b, degree):
    out = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        acc = 0j
        for i in range(max(0, k - (len(b) - 1)), min(k, len(a) - 1) + 1):
            acc += a[i] * b[k - i]
        out[k] = acc
    return out


def reference_matrix_mul(a, b, degree):
    """Matrix jet times matrix jet (b of ndim 3) or vector jet (ndim 2)."""
    out = np.zeros((degree + 1, a.shape[1]) + b.shape[2:], dtype=complex)
    for k in range(degree + 1):
        for i in range(max(0, k - b.shape[0] + 1), min(k, a.shape[0] - 1) + 1):
            out[k] += a[i] @ b[k - i]
    return out


def reference_vector_deriv(v):
    if v.shape[0] == 1:
        return np.zeros_like(v)
    return np.stack([(k + 1) * v[k + 1] for k in range(v.shape[0] - 1)])


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def jet_oracle(f, x0, degree, radius=0.05, npts=256):
    """Taylor coefficients of f at x0 by Cauchy quadrature."""
    out = np.zeros(degree + 1, dtype=complex)
    vals = [f(x0 + radius * cmath.exp(2j * PI * m / npts)) for m in range(npts)]
    for d in range(degree + 1):
        acc = 0j
        for m, v in enumerate(vals):
            acc += v * cmath.exp(-2j * PI * d * m / npts)
        out[d] = acc / (npts * radius ** d)
    return out


def test_scalar_jet_algebra(rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b[0] += 3.0  # keep invertible
    prod = jets.jmul(a, b)
    back = jets.jdiv(prod, b)
    assert_allclose(back, a, atol=1e-12)
    # derivative of product = Leibniz
    lhs = jets.jderiv(prod)
    rhs = jets.jmul(jets.jderiv(a), b[:4]) + jets.jmul(a[:4], jets.jderiv(b))
    assert_allclose(lhs, rhs, atol=1e-12)


def test_jet_exp(rng):
    c = 0.7 - 0.3j
    x0 = 0.2 + 0.1j
    jet = jets.jet_exp(c, x0, 6)
    # exp is entire, so a wide circle keeps the r^-d roundoff amplification benign
    oracle = jet_oracle(lambda x: cmath.exp(c * x), x0, 6, radius=0.8)
    assert_allclose(jet, oracle, rtol=1e-9, atol=1e-12)


def test_sigma_jets_match_oracle(ev, rng):
    lam0 = sample_point(rng, ev.lattice, margin=0.15)
    z = sample_point(rng, ev.lattice, margin=0.15)
    (got,) = jets.jet_sigma(ev, lam0, [z], 4)
    oracle = jet_oracle(lambda u: ev.sigma(u, z), lam0, 4)
    assert_allclose(got, oracle, rtol=1e-8, atol=1e-10)

    (got_neg,) = jets.jet_sigma_neg(ev, lam0, [z], 4)
    oracle_neg = jet_oracle(lambda u: ev.sigma(-u, z), lam0, 4)
    assert_allclose(got_neg, oracle_neg, rtol=1e-8, atol=1e-10)


def reference_sigma_neg(ev, lam0, z, degree):
    """The former two-reflection formula: theta(-x) jets at lam0 + z and lam0."""

    def reflected(x0):
        jet = ev.theta_taylor(-x0, degree).copy()
        jet[1::2] *= -1.0
        return jet

    num = reflected(lam0 + z) * (ev.dtheta0() / ev.theta(z))
    return jets.jdiv(num, reflected(lam0), degree)


def test_sigma_neg_equals_two_reflection_reference(ev, rng):
    for _ in range(40):
        lam0 = sample_point(rng, ev.lattice, margin=0.05, spread=2.0)
        z = sample_point(rng, ev.lattice, margin=0.05, spread=2.0)
        for degree in (0, 1, 4, 8, 9):
            (got,) = jets.jet_sigma_neg(ev, lam0, [z], degree)
            assert np.array_equal(got, reference_sigma_neg(ev, lam0, z, degree))


def test_zeta_wp_jets(ev, rng):
    x0 = sample_point(rng, ev.lattice, margin=0.15)
    zj = jets.jet_zeta_bar(ev, x0, 4)
    oracle = jet_oracle(lambda u: ev.zeta_bar(u), x0, 4)
    assert_allclose(zj, oracle, rtol=1e-8, atol=1e-10)
    wj = jets.jet_wp_bar(ev, x0, 3)
    oracle_w = jet_oracle(lambda u: ev.wp_bar(u), x0, 3)
    assert_allclose(wj, oracle_w, rtol=1e-8, atol=1e-9)
    # wp_bar = -zeta_bar'
    assert_allclose(wj, -jets.jderiv(jets.jet_zeta_bar(ev, x0, 4)), atol=1e-10)


def test_sigma_dlambda_jet(ev, rng):
    lam0 = sample_point(rng, ev.lattice, margin=0.15)
    z = sample_point(rng, ev.lattice, margin=0.15)
    (got,) = jets.jet_sigma_dlambda(ev, lam0, [z], 3)
    # jet of the derivative = derivative of the jet
    check = jets.jderiv(jets.jet_sigma(ev, lam0, [z], 4)[0])
    assert_allclose(got, check, rtol=1e-9, atol=1e-11)
    assert abs(got[0] - sigma_dlambda(ev, lam0, z)) <= 1e-10 * max(1.0, abs(got[0]))


def test_sigma_dlambda_jet_near_pole_of_bracket(ev):
    # within 1e-3 of lambda = z the former sigma * (zeta_bar(lam - z) - zeta_bar(lam))
    # product cancelled sigma's zero against the bracket's pole: 5e-5 relative
    # error at degree 4 here; the oracle is the cancellation-free scalar form
    z = 0.37 + 0.29j
    lam0 = z + 5e-4 * cmath.exp(0.7j)
    (got,) = jets.jet_sigma_dlambda(ev, lam0, [z], 4)
    assert abs(got[0] - sigma_dlambda(ev, lam0, z)) <= 1e-14 * abs(got[0])
    oracle = jet_oracle(lambda u: sigma_dlambda(ev, u, z), lam0, 4)
    assert_allclose(got, oracle, rtol=1e-10)


def test_lambda_diff_op_apply(rng):
    # Op = c0(lam) + c1 d/dlam acting on a polynomial jet, checked by hand
    dim = 2
    m0 = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    m1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def c0(lam0, degree):
        out = np.zeros((degree + 1, dim, dim), dtype=complex)
        out[0] = m0 * lam0
        if degree >= 1:
            out[1] = m0
        return out

    op = LambdaDiffOp(dim, (c0, LambdaDiffOp.const_coeff(m1)))
    lam0 = 0.3 + 0.2j
    # u(lam) = (lam^2, 1)
    ujet = np.zeros((3, dim), dtype=complex)
    ujet[0] = [lam0 ** 2, 1.0]
    ujet[1] = [2 * lam0, 0.0]
    ujet[2] = [1.0, 0.0]
    out = op.apply_jet(lam0, ujet)
    # expected value at lam0: lam*m0 @ u + m1 @ u'
    expect0 = lam0 * (m0 @ ujet[0]) + m1 @ ujet[1]
    assert_allclose(out[0], expect0, atol=1e-13)
    # expected first Taylor coefficient: d/dlam [lam*m0@u + m1@u']
    expect1 = m0 @ ujet[0] + lam0 * (m0 @ ujet[1]) + m1 @ (2 * ujet[2])
    assert_allclose(out[1], expect1, atol=1e-13)


def test_matrix_jet_product(rng):
    d = 3
    a = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    b = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    prod = jets.jmul(a, b)
    # compare against scalar expansion entry by entry at a numeric point
    eps = 1e-3
    av = sum(a[k] * eps ** k for k in range(4))
    bv = sum(b[k] * eps ** k for k in range(4))
    pv = sum(prod[k] * eps ** k for k in range(4))
    assert np.max(np.abs(av @ bv - pv)) < 1e-10


def test_jmul_equals_reference_loops(rng):
    """jmul reproduces each per-rank loop bit for bit, for equal and unequal lengths.

    The scalar loop multiplies numpy scalars; the np.multiply ufunc rounds
    about 4 in 10 complex products differently, so a jmul through it fails
    here on the 12-term jets.
    """
    for la, lb, degree in ((12, 12, None), (1, 6, 5), (6, 1, 4), (3, 5, 4)):
        a = complex_normal(rng, la)
        b = complex_normal(rng, lb)
        deg = min(la, lb) - 1 if degree is None else degree
        assert np.array_equal(jets.jmul(a, b, degree), reference_scalar_mul(a, b, deg))
        m = complex_normal(rng, (la, 4, 4))
        v = complex_normal(rng, (lb, 4))
        w = complex_normal(rng, (lb, 4, 3))
        assert np.array_equal(jets.jmul(m, v, degree), reference_matrix_mul(m, v, deg))
        assert np.array_equal(jets.jmul(m, w, degree), reference_matrix_mul(m, w, deg))
        # a scalar jet scales a vector jet coefficient by coefficient
        scaled = jets.jmul(a, v, degree)
        for k in range(deg + 1):
            terms = [a[i] * v[k - i] for i in range(max(0, k - lb + 1), min(k, la - 1) + 1)]
            assert np.array_equal(scaled[k], sum(terms, np.zeros(4, dtype=complex)))


def test_jderiv_equals_vector_reference(rng):
    for length in (1, 2, 6):
        v = complex_normal(rng, (length, 5))
        assert np.array_equal(jets.jderiv(v), reference_vector_deriv(v))
        assert np.array_equal(jets.jderiv(v[:, 0]), reference_vector_deriv(v)[:, 0])
