"""Truncated Taylor jets in the dynamical variable.

A jet is a plain complex ndarray of Taylor coefficients a[k] =
f^(k)(x0)/k!, k = 0..D, so jets compose by convolution.  Matrix- and
vector-valued jets put the degree on the leading axis: (D+1, d, d) and
(D+1, d).  jmul is the one truncated product and jderiv the one
derivative, for jets of every rank.  All differential-operator work
(Gaudin Hamiltonians, the generating kernel S) runs through
LambdaDiffOp, which holds its coefficients as matrix jets at one point
lam0, formed once when the operator is built; each application reads
them truncated to its output degree.  The theta jets behind them come
from ThetaEvaluator.theta_array, one call per jet_sigma.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .theta import ThetaEvaluator

__all__ = [
    "jmul",
    "jdiv",
    "jderiv",
    "jet_exp",
    "jet_sigma",
    "LambdaDiffOp",
]


def jmul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Truncated product of two jets; either may be the shorter.

    A matrix jet a (ndim 3) forms every a[i] @ b[j] in one batched matmul (a
    vector b[j] as one column) and adds them in the per-pair loop's order,
    keeping its bits.  Any other a runs that loop with *, as numpy scalars
    for scalar jets (np.multiply rounds complex products differently); a
    scalar jet scales any jet.
    """
    if degree is None:
        degree = min(len(a), len(b)) - 1
    if a.ndim == 3:
        a, b = a[: degree + 1], b[: degree + 1]
        prods = a[:, None] @ (b[None, ..., None] if b.ndim == 2 else b[None])
        out = np.zeros((degree + 1,) + prods.shape[2:], dtype=complex)
        for i in range(len(a)):
            out[i : i + len(b)] += prods[i, : degree + 1 - i]
        return out[..., 0] if b.ndim == 2 else out
    first = a[0] * b[0]  # the whole degree-0 term, and the coefficient shape
    out = np.zeros((degree + 1,) + np.shape(first), dtype=complex)
    out[0] += first
    for k in range(1, degree + 1):
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            out[k] += a[i] * b[k - i]
    return out


def jdiv(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Quotient a/b by the scalar jet b, b[0] nonzero; a is a scalar jet or a
    batch (D + 1, N) of them, which one recurrence divides."""
    if degree is None:
        degree = min(len(a), len(b)) - 1
    if b[0] == 0:
        raise ZeroDivisionError("jet division by a jet with vanishing value")
    out = np.zeros((degree + 1,) + a.shape[1:], dtype=complex)
    for k in range(degree + 1):
        i = min(k, len(b) - 1)
        # a[k] - sum_{i >= 1} b[i] out[k - i], as one product over the terms so far
        out[k] = ((a[k] if k < len(a) else 0j) - b[i:0:-1] @ out[k - i : k]) / b[0]
    return out


def jderiv(a: np.ndarray) -> np.ndarray:
    """Jet of f' from the jet of f, on the leading axis (degree drops by one)."""
    if len(a) == 1:
        return np.zeros_like(a, dtype=complex)
    return a[1:] * np.arange(1, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))


def jet_exp(c: complex, x0: complex, degree: int) -> np.ndarray:
    """Jet of exp(c*x) at x0."""
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = np.exp(c * x0)
    for k in range(1, degree + 1):
        out[k] = out[k - 1] * c / k
    return out


def jet_sigma(ev: ThetaEvaluator, lam0: complex, zs: Sequence[complex], degree: int) -> tuple[np.ndarray, ...]:
    """Jets in lambda at lam0 of sigma_lambda(z) and sigma_{-lambda}(z), and theta's jet at lam0.

    sigma_lambda(z) = theta'(0) theta(lambda - z) / (theta(lambda) theta(z));
    its jets form a batch (degree + 1, N), a column per z of zs.  One degree
    max(degree, 1) theta_array call over [0, lam0, -lam0, lam0 - z...,
    -lam0 - z..., z...] gives theta'(0), the denominators theta(+/-lambda),
    the numerators theta(+/-lambda - z) and the values theta(z).
    sigma_{-lambda}'s jet is sigma's at -lam0 with the odd terms negated.
    """
    zs = np.asarray(zs, dtype=complex)
    n = len(zs)
    rows = ev.theta_array(np.concatenate(([0.0, lam0, -lam0], lam0 - zs, -lam0 - zs, zs)), max(degree, 1))
    scale = rows[0, 1] / rows[3 + 2 * n :, 0]
    pos = jdiv(rows[3 : 3 + n, : degree + 1].T * scale, rows[1, : degree + 1], degree)
    neg = jdiv(rows[3 + n : 3 + 2 * n, : degree + 1].T * scale, rows[2, : degree + 1], degree)
    neg[1::2] *= -1.0
    return pos, neg, rows[1]


@dataclasses.dataclass(frozen=True)
class LambdaDiffOp:
    """Differential operator sum_d c_d(lambda) d^d/dlambda^d of order <= 2, at one point lam0.

    Entry d of `coeffs` is the matrix jet of c_d at lam0: (degree - order + 1,
    dim, dim), or (1, dim, dim) for a constant coefficient, which jmul takes
    as a degree-0 jet.  The operator applies to value jets at lam0 of
    degree order..degree, reading each coefficient truncated to the output
    degree.
    """

    degree: int
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= 3:
            raise ValueError("operator order must be 0, 1 or 2")
        if any(len(c) not in (1, self.degree - self.order + 1) for c in self.coeffs):
            raise ValueError("coefficient jets must be constant or reach degree - order")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply_jet(self, ujet: np.ndarray) -> np.ndarray:
        """Value jet of (Op u) at lam0; input degree D gives output degree D - order."""
        d_in = ujet.shape[0] - 1
        d_out = d_in - self.order
        if d_out < 0:
            raise ValueError("jet degree too low for operator order")
        if d_in > self.degree:
            raise ValueError("jet degree %d exceeds the operator's %d" % (d_in, self.degree))
        out = np.zeros((d_out + 1,) + ujet.shape[1:], dtype=complex)
        du = ujet
        for d, cf in enumerate(self.coeffs):
            if d > 0:
                du = jderiv(du)
            out += jmul(cf, du, d_out)
        return out
