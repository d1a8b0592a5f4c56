"""Jet arithmetic against quadrature oracles."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import jets
from ellsov.jets import LambdaDiffOp

from conftest import (
    jet_wp_bar, jet_zeta_bar, sample_point, scalar_jet_mul, sigma, sigma_dlambda, theta_value, wp_bar, zeta_bar,
)

PI = math.pi


# The per-rank loops that jets.jmul and jets.jderiv replaced, kept as references.


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
    prod = scalar_jet_mul(a, b)
    back = jets.jdiv(prod, b)
    assert_allclose(back, a, atol=1e-12)
    # derivative of product = Leibniz
    lhs = jets.jderiv(prod)
    rhs = scalar_jet_mul(jets.jderiv(a), b[:4]) + scalar_jet_mul(a[:4], jets.jderiv(b))
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
    pos, neg, theta_lam = jets.jet_sigma(ev, lam0, [z], 4)
    assert pos.shape == neg.shape == (5, 1)
    oracle = jet_oracle(lambda u: sigma(ev, u, z), lam0, 4)
    assert_allclose(pos[:, 0], oracle, rtol=1e-8, atol=1e-10)

    oracle_neg = jet_oracle(lambda u: sigma(ev, -u, z), lam0, 4)
    assert_allclose(neg[:, 0], oracle_neg, rtol=1e-8, atol=1e-10)
    # the third result is theta's own jet at lam0
    assert_allclose(theta_lam, jet_oracle(lambda w: theta_value(ev, w), lam0, 4), rtol=1e-8, atol=1e-10)


def reference_sigma_neg(ev, lam0, zs, degree):
    """The former two-reflection formula: theta(-x) jets at lam0 + z and lam0.

    The jets are the rows of the theta_array call jet_sigma makes, over
    [0, lam0, -lam0, lam0 - z..., -lam0 - z..., z...] at degree 1 or more,
    and the batch of numerators is divided in one jdiv, as jet_sigma divides it.
    """
    n = len(zs)
    zs = np.array(zs)
    rows = ev.theta_array(np.concatenate(([0.0, lam0, -lam0], lam0 - zs, -lam0 - zs, zs)), max(degree, 1))

    def reflected(jet):
        jet = jet[: degree + 1].copy()
        jet[1::2] *= -1.0
        return jet

    num = reflected(rows[3 + n : 3 + 2 * n].T) * (rows[0, 1] / rows[3 + 2 * n :, 0])
    return jets.jdiv(num, reflected(rows[2]), degree)


def test_sigma_neg_equals_two_reflection_reference(ev, rng):
    for _ in range(40):
        lam0 = sample_point(rng, ev.lattice, margin=0.05, spread=2.0)
        zs = [sample_point(rng, ev.lattice, margin=0.05, spread=2.0) for _ in range(3)]
        for degree in (0, 1, 4, 8, 9):
            got = jets.jet_sigma(ev, lam0, zs, degree)[1]
            assert np.array_equal(got, reference_sigma_neg(ev, lam0, zs, degree))


def test_batched_jdiv_matches_per_jet_quotients(rng):
    """One recurrence divides a batch of numerators: each column is its own
    quotient, and its product with the denominator gives it back."""
    b = complex_normal(rng, 7)
    b[0] += 3.0
    batch = complex_normal(rng, (7, 5))
    for degree in (0, 3, 6):
        out = jets.jdiv(batch, b, degree)
        assert out.shape == (degree + 1, 5)
        for col in range(5):
            assert_allclose(out[:, col], jets.jdiv(batch[:, col], b, degree), rtol=1e-13, atol=1e-13)
            assert_allclose(scalar_jet_mul(out[:, col], b, degree), batch[: degree + 1, col], atol=1e-12)
    # a numerator shorter than the degree reads as zero beyond its end
    padded = np.vstack((batch[:2], np.zeros((3, 5))))
    assert_allclose(jets.jdiv(batch[:2], b, 4), jets.jdiv(padded, b, 4), rtol=1e-15)
    with pytest.raises(ZeroDivisionError):
        jets.jdiv(batch, np.array([0j, 1.0]))


def test_zeta_wp_jets(ev, rng):
    x0 = sample_point(rng, ev.lattice, margin=0.15)
    zj = jet_zeta_bar(ev, x0, 4)
    oracle = jet_oracle(lambda u: zeta_bar(ev, u), x0, 4)
    assert_allclose(zj, oracle, rtol=1e-8, atol=1e-10)
    wj = jet_wp_bar(ev, x0, 3)
    oracle_w = jet_oracle(lambda u: wp_bar(ev, u), x0, 3)
    assert_allclose(wj, oracle_w, rtol=1e-8, atol=1e-9)
    # wp_bar = -zeta_bar'
    assert_allclose(wj, -jets.jderiv(jet_zeta_bar(ev, x0, 4)), atol=1e-10)


def jet_sigma_dlambda(ev, lam0, z, degree):
    """Jet in lambda of (d/dlambda) sigma_lambda(z), as H_0 forms it: the
    derivative of sigma's jet, with no pole of zeta_bar(lambda - z) at
    lambda = z for sigma's zero to cancel."""
    return jets.jderiv(jets.jet_sigma(ev, lam0, [z], degree + 1)[0])[:, 0]


def test_sigma_dlambda_jet(ev, rng):
    lam0 = sample_point(rng, ev.lattice, margin=0.15)
    z = sample_point(rng, ev.lattice, margin=0.15)
    got = jet_sigma_dlambda(ev, lam0, z, 3)
    # jet of the derivative = derivative of the jet
    check = jets.jderiv(jets.jet_sigma(ev, lam0, [z], 4)[0][:, 0])
    assert_allclose(got, check, rtol=1e-9, atol=1e-11)
    assert abs(got[0] - sigma_dlambda(ev, lam0, z)) <= 1e-10 * max(1.0, abs(got[0]))


def test_sigma_dlambda_jet_near_pole_of_bracket(ev):
    # within 1e-3 of lambda = z the former sigma * (zeta_bar(lam - z) - zeta_bar(lam))
    # product cancelled sigma's zero against the bracket's pole: 5e-5 relative
    # error at degree 4 here; the oracle is the cancellation-free scalar form
    z = 0.37 + 0.29j
    lam0 = z + 5e-4 * cmath.exp(0.7j)
    got = jet_sigma_dlambda(ev, lam0, z, 4)
    assert abs(got[0] - sigma_dlambda(ev, lam0, z)) <= 1e-14 * abs(got[0])
    oracle = jet_oracle(lambda u: sigma_dlambda(ev, u, z), lam0, 4)
    assert_allclose(got, oracle, rtol=1e-10)


def test_lambda_diff_op_apply(rng):
    # Op = c0(lam) + c1 d/dlam acting on a polynomial jet, checked by hand
    dim = 2
    m0 = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    m1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    lam0 = 0.3 + 0.2j
    # at lam0, for input jets up to degree 2: c0 through degree 1, c1 constant
    op = LambdaDiffOp(2, (np.stack([m0 * lam0, m0]), m1[None]))
    assert op.order == 1
    # u(lam) = (lam^2, 1)
    ujet = np.zeros((3, dim), dtype=complex)
    ujet[0] = [lam0 ** 2, 1.0]
    ujet[1] = [2 * lam0, 0.0]
    ujet[2] = [1.0, 0.0]
    out = op.apply_jet(ujet)
    # expected value at lam0: lam*m0 @ u + m1 @ u'
    expect0 = lam0 * (m0 @ ujet[0]) + m1 @ ujet[1]
    assert_allclose(out[0], expect0, atol=1e-13)
    # expected first Taylor coefficient: d/dlam [lam*m0@u + m1@u']
    expect1 = m0 @ ujet[0] + lam0 * (m0 @ ujet[1]) + m1 @ (2 * ujet[2])
    assert_allclose(out[1], expect1, atol=1e-13)

    # a shorter jet reads c0 truncated; a longer one than c0 allows, or one
    # shorter than the order, is refused
    assert np.array_equal(op.apply_jet(ujet[:2]), out[:1])
    with pytest.raises(ValueError, match="exceeds"):
        op.apply_jet(np.zeros((4, dim), dtype=complex))
    with pytest.raises(ValueError, match="too low"):
        op.apply_jet(ujet[:1])
    with pytest.raises(ValueError):
        LambdaDiffOp(3, (np.stack([m0 * lam0, m0]), m1[None]))


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
    """jmul reproduces the matrix loop bit for bit, for equal and unequal lengths."""
    for la, lb, degree in ((12, 12, None), (1, 6, 5), (6, 1, 4), (3, 5, 4)):
        deg = min(la, lb) - 1 if degree is None else degree
        m = complex_normal(rng, (la, 4, 4))
        v = complex_normal(rng, (lb, 4))
        w = complex_normal(rng, (lb, 4, 3))
        assert np.array_equal(jets.jmul(m, v, degree), reference_matrix_mul(m, v, deg))
        assert np.array_equal(jets.jmul(m, w, degree), reference_matrix_mul(m, w, deg))
    # matrix jets truncated below min length - 1, and rectangular coefficients
    for la, lb, degree in ((9, 9, 5), (4, 7, 2), (7, 3, 0)):
        m = complex_normal(rng, (la, 4, 4))
        v = complex_normal(rng, (lb, 4))
        w = complex_normal(rng, (lb, 4, 3))
        assert np.array_equal(jets.jmul(m, v, degree), reference_matrix_mul(m, v, degree))
        assert np.array_equal(jets.jmul(m, w, degree), reference_matrix_mul(m, w, degree))
    tall, wide = complex_normal(rng, (9, 4, 12)), complex_normal(rng, (9, 12, 4))
    for degree in (8, 4):
        assert np.array_equal(jets.jmul(tall, wide, degree), reference_matrix_mul(tall, wide, degree))


def test_jderiv_equals_vector_reference(rng):
    for length in (1, 2, 6):
        v = complex_normal(rng, (length, 5))
        assert np.array_equal(jets.jderiv(v), reference_vector_deriv(v))
        assert np.array_equal(jets.jderiv(v[:, 0]), reference_vector_deriv(v)[:, 0])
