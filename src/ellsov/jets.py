"""Truncated Taylor jets in the dynamical variable.

A jet is a plain complex ndarray of Taylor coefficients a[k] =
f^(k)(x0)/k!, k = 0..D, so jets compose by convolution.  Matrix- and
vector-valued jets put the degree on the leading axis: (D+1, d, d) and
(D+1, d).  All differential-operator work (Gaudin Hamiltonians, the
generating kernel S) runs through LambdaDiffOp, whose coefficients are
produced as matrix jets on demand.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .theta import ThetaEvaluator

__all__ = [
    "jmul",
    "jdiv",
    "jderiv",
    "jet_exp",
    "jet_theta_reflected",
    "jet_zeta_bar",
    "jet_wp_bar",
    "jet_sigma",
    "jet_sigma_neg",
    "jet_sigma_dlambda",
    "mjet_const",
    "mjet_mul",
    "mjet_vec",
    "vjet_deriv",
    "LambdaDiffOp",
]


def jmul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Product of two scalar jets, truncated."""
    if degree is None:
        degree = min(len(a), len(b)) - 1
    out = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        lo = max(0, k - (len(b) - 1))
        hi = min(k, len(a) - 1)
        acc = 0j
        for i in range(lo, hi + 1):
            acc += a[i] * b[k - i]
        out[k] = acc
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
    """Jet of f' from the jet of f (degree drops by one)."""
    if len(a) == 1:
        return np.zeros(1, dtype=complex)
    return np.array([(k + 1) * a[k + 1] for k in range(len(a) - 1)], dtype=complex)


def jet_exp(c: complex, x0: complex, degree: int) -> np.ndarray:
    """Jet of exp(c*x) at x0."""
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = np.exp(c * x0)
    for k in range(1, degree + 1):
        out[k] = out[k - 1] * c / k
    return out


def jet_theta_reflected(ev: ThetaEvaluator, x0: complex, degree: int) -> np.ndarray:
    """Jet of x -> theta(-x) at x0, i.e. theta at -x0 with alternating signs."""
    jet = ev.theta_taylor(-x0, degree).copy()
    jet[1::2] *= -1.0
    return jet


def jet_zeta_bar(ev: ThetaEvaluator, x0: complex, degree: int) -> np.ndarray:
    tj = ev.theta_taylor(x0, degree + 1)
    return jdiv(jderiv(tj), tj[: degree + 1], degree)


def jet_wp_bar(ev: ThetaEvaluator, x0: complex, degree: int) -> np.ndarray:
    return -jderiv(jet_zeta_bar(ev, x0, degree + 1))


def jet_sigma(ev: ThetaEvaluator, lam0: complex, z: complex, degree: int) -> np.ndarray:
    """Jet in lambda of sigma_lambda(z) at lam0."""
    num = ev.theta_taylor(lam0 - z, degree) * (ev.dtheta0() / ev.theta(z))
    return jdiv(num, ev.theta_taylor(lam0, degree), degree)


def jet_sigma_neg(ev: ThetaEvaluator, lam0: complex, z: complex, degree: int) -> np.ndarray:
    """Jet in lambda of sigma_{-lambda}(z) at lam0."""
    num = jet_theta_reflected(ev, lam0 + z, degree) * (ev.dtheta0() / ev.theta(z))
    den = jet_theta_reflected(ev, lam0, degree)
    return jdiv(num, den, degree)


def jet_sigma_dlambda(ev: ThetaEvaluator, lam0: complex, z: complex, degree: int) -> np.ndarray:
    """Jet in lambda of (d/dlambda) sigma_lambda(z)."""
    s = jet_sigma(ev, lam0, z, degree)
    diff = jet_zeta_bar(ev, lam0 - z, degree) - jet_zeta_bar(ev, lam0, degree)
    return jmul(s, diff, degree)


# -- matrix jets -------------------------------------------------------


def mjet_const(mat: np.ndarray, degree: int) -> np.ndarray:
    dim = mat.shape[0]
    out = np.zeros((degree + 1, dim, dim), dtype=complex)
    out[0] = mat
    return out


def mjet_mul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Degree-convolved product of matrix jets."""
    if degree is None:
        degree = min(a.shape[0], b.shape[0]) - 1
    dim = a.shape[1]
    out = np.zeros((degree + 1, dim, b.shape[2]), dtype=complex)
    for k in range(degree + 1):
        for i in range(max(0, k - b.shape[0] + 1), min(k, a.shape[0] - 1) + 1):
            out[k] += a[i] @ b[k - i]
    return out


def mjet_vec(a: np.ndarray, v: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Apply a matrix jet to a vector jet."""
    if degree is None:
        degree = min(a.shape[0], v.shape[0]) - 1
    out = np.zeros((degree + 1, a.shape[1]), dtype=complex)
    for k in range(degree + 1):
        for i in range(max(0, k - v.shape[0] + 1), min(k, a.shape[0] - 1) + 1):
            out[k] += a[i] @ v[k - i]
    return out


def vjet_deriv(v: np.ndarray) -> np.ndarray:
    if v.shape[0] == 1:
        return np.zeros_like(v)
    return np.stack([(k + 1) * v[k + 1] for k in range(v.shape[0] - 1)])


@dataclasses.dataclass(frozen=True)
class LambdaDiffOp:
    """Differential operator sum_d c_d(lambda) d^d/dlambda^d of order <= 2.

    Coefficients are callables (lam0, degree) -> matrix jet of shape
    (degree+1, dim, dim); entry d of `coeffs` is c_d.
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
        return lambda lam0, degree: mjet_const(mat, degree)

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
                du = vjet_deriv(du)
            out += mjet_vec(cf(lam0, d_out), du, d_out)
        return out

    def __add__(self, other: "LambdaDiffOp") -> "LambdaDiffOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = max(len(self.coeffs), len(other.coeffs))

        def pair(d):
            fns = []
            if d < len(self.coeffs):
                fns.append(self.coeffs[d])
            if d < len(other.coeffs):
                fns.append(other.coeffs[d])
            if len(fns) == 1:
                return fns[0]
            f, g = fns
            return lambda lam0, degree: f(lam0, degree) + g(lam0, degree)

        return LambdaDiffOp(self.dim, tuple(pair(d) for d in range(n)))

    def scaled(self, factor: complex) -> "LambdaDiffOp":
        return LambdaDiffOp(
            self.dim,
            tuple(
                (lambda f: lambda lam0, degree: factor * f(lam0, degree))(cf)
                for cf in self.coeffs
            ),
        )


def commutator_jet(
    op1: LambdaDiffOp, op2: LambdaDiffOp, lam0: complex, ujet: np.ndarray
) -> np.ndarray:
    """Value jet of [op1, op2] u at lam0."""
    a = op1.apply_jet(lam0, op2.apply_jet(lam0, ujet))
    b = op2.apply_jet(lam0, op1.apply_jet(lam0, ujet))
    return a - b
