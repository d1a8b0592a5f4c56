"""Truncated Taylor jets in the dynamical variable.

A jet is a plain complex ndarray of Taylor coefficients a[k] =
f^(k)(x0)/k!, k = 0..D, so jets compose by convolution.  Matrix- and
vector-valued jets put the degree on the leading axis: (D+1, d, d) and
(D+1, d).  jmul is the one truncated product and jderiv the one
derivative, for jets of every rank.  All differential-operator work
(Gaudin Hamiltonians, the generating kernel S) runs through
LambdaDiffOp, whose coefficients are produced as matrix jets on demand.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable, Sequence

import numpy as np

from .theta import ThetaEvaluator

__all__ = [
    "jmul",
    "jdiv",
    "jderiv",
    "jet_exp",
    "jet_zeta_bar",
    "jet_wp_bar",
    "jet_sigma",
    "jet_sigma_neg",
    "jet_sigma_dlambda",
    "LambdaDiffOp",
]


def jmul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Truncated product of two jets; either may be the shorter.

    A matrix jet a (ndim 3) multiplies with @, any other a with * (as numpy
    scalars for scalar jets: the np.multiply ufunc rounds complex products
    differently), so a scalar jet also scales a vector or matrix jet.
    """
    if degree is None:
        degree = min(len(a), len(b)) - 1
    mul = operator.matmul if a.ndim == 3 else operator.mul
    first = mul(a[0], b[0])  # the whole degree-0 term, and the coefficient shape
    out = np.zeros((degree + 1,) + np.shape(first), dtype=complex)
    out[0] += first
    for k in range(1, degree + 1):
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            out[k] += mul(a[i], b[k - i])
    return out


def jdiv(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Quotient a/b of scalar jets; b[0] must be nonzero."""
    if degree is None:
        degree = min(len(a), len(b)) - 1
    if b[0] == 0:
        raise ZeroDivisionError("jet division by a jet with vanishing value")
    out = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        acc = a[k] if k < len(a) else 0j
        for i in range(1, k + 1):
            if i < len(b):
                acc -= b[i] * out[k - i]
        out[k] = acc / b[0]
    return out


def jderiv(a: np.ndarray) -> np.ndarray:
    """Jet of f' from the jet of f, on the leading axis (degree drops by one)."""
    if len(a) == 1:
        return np.zeros_like(a, dtype=complex)
    return np.array([(k + 1) * a[k + 1] for k in range(len(a) - 1)], dtype=complex)


def jet_exp(c: complex, x0: complex, degree: int) -> np.ndarray:
    """Jet of exp(c*x) at x0."""
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = np.exp(c * x0)
    for k in range(1, degree + 1):
        out[k] = out[k - 1] * c / k
    return out


def jet_zeta_bar(ev: ThetaEvaluator, x0: complex, degree: int) -> np.ndarray:
    tj = ev.theta_taylor(x0, degree + 1)
    return jdiv(jderiv(tj), tj[: degree + 1], degree)


def jet_wp_bar(ev: ThetaEvaluator, x0: complex, degree: int) -> np.ndarray:
    return -jderiv(jet_zeta_bar(ev, x0, degree + 1))


def jet_sigma(
    ev: ThetaEvaluator,
    lam0: complex,
    zs: Sequence[complex],
    degree: int,
    theta_zs: Sequence[complex] | None = None,
) -> list[np.ndarray]:
    """Jets in lambda of sigma_lambda(z) at lam0, one per z of zs.

    The denominator jet theta(lambda) and theta'(0) are evaluated once for
    all of zs; theta_zs, when given, holds theta(z) for each z.
    """
    den = ev.theta_taylor(lam0, degree)
    dtheta0 = ev.dtheta0()
    if theta_zs is None:
        theta_zs = [ev.theta(z) for z in zs]
    return [
        jdiv(ev.theta_taylor(lam0 - z, degree) * (dtheta0 / tz), den, degree)
        for z, tz in zip(zs, theta_zs)
    ]


def jet_sigma_neg(
    ev: ThetaEvaluator,
    lam0: complex,
    zs: Sequence[complex],
    degree: int,
    theta_zs: Sequence[complex] | None = None,
) -> list[np.ndarray]:
    """Jets in lambda of sigma_{-lambda}(z) at lam0: sigma's jets at -lam0, odd terms negated."""
    out = jet_sigma(ev, -lam0, zs, degree, theta_zs)
    for jet in out:
        jet[1::2] *= -1.0
    return out


def jet_sigma_dlambda(
    ev: ThetaEvaluator,
    lam0: complex,
    zs: Sequence[complex],
    degree: int,
    theta_zs: Sequence[complex] | None = None,
) -> list[np.ndarray]:
    """Jets in lambda of (d/dlambda) sigma_lambda(z), with no pole of zeta_bar(lambda - z)
    at lambda = z for sigma's zero to cancel: the derivatives of sigma's jets."""
    return [jderiv(jet) for jet in jet_sigma(ev, lam0, zs, degree + 1, theta_zs)]


@dataclasses.dataclass(frozen=True)
class LambdaDiffOp:
    """Differential operator sum_d c_d(lambda) d^d/dlambda^d of order <= 2.

    Coefficients are callables (lam0, degree) -> matrix jet of shape
    (degree+1, dim, dim), or (1, dim, dim) for a constant coefficient,
    which jmul takes as a degree-0 jet; entry d of `coeffs` is c_d.
    """

    dim: int
    coeffs: tuple[Callable[[complex, int], np.ndarray], ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= 3:
            raise ValueError("operator order must be 0, 1 or 2")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def const_coeff(mat: np.ndarray) -> Callable[[complex, int], np.ndarray]:
        mat = np.asarray(mat, dtype=complex)
        return lambda lam0, degree: mat[None]

    def apply_jet(self, lam0: complex, ujet: np.ndarray) -> np.ndarray:
        """Value jet of (Op u) at lam0; input degree D gives output degree D - order."""
        d_in = ujet.shape[0] - 1
        d_out = d_in - self.order
        if d_out < 0:
            raise ValueError("jet degree too low for operator order")
        out = np.zeros((d_out + 1, self.dim), dtype=complex)
        du = ujet
        for d, cf in enumerate(self.coeffs):
            if d > 0:
                du = jderiv(du)
            out += jmul(cf(lam0, d_out), du, d_out)
        return out

