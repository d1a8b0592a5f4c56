"""Truncated Taylor jets in the dynamical variable.

A jet is a plain complex ndarray of Taylor coefficients a[k] =
f^(k)(x0)/k!, k = 0..D, so jets compose by convolution.  Matrix- and
vector-valued jets put the degree on the leading axis: (D+1, d, d) and
(D+1, d); a stack of jets at points P puts P next, (D+1, *P, d, d).
jmul is the one truncated product, a matrix jet times a matrix or vector
jet, and jderiv the one derivative, for jets of every rank.  All
differential-operator work (Gaudin Hamiltonians, the generating kernel
S) runs through LambdaDiffOp, which holds its
coefficients as matrix jets at lam0, or a stack of points, formed once
when the operator is built; each application reads them truncated to its
output degree.  The theta jets behind them come from
ThetaEvaluator.theta_array, one call per jet_sigma.
"""

from __future__ import annotations

import dataclasses

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
    """Truncated product of a matrix jet a with a matrix or vector jet b; either may be the shorter.

    a has ndim 3, more for a stack; b with one axis fewer is a vector jet,
    taken as one column.  Every a[i] @ b[j] comes from one batched matmul,
    and they are added in the per-pair loop's order, keeping its bits.
    """
    if degree is None:
        degree = min(len(a), len(b)) - 1
    vec = b.ndim < a.ndim
    a, b = a[: degree + 1], b[: degree + 1]
    prods = a[:, None] @ (b[None, ..., None] if vec else b[None])
    out = np.zeros((degree + 1,) + prods.shape[2:], dtype=complex)
    for i in range(len(a)):
        out[i : i + len(b)] += prods[i, : degree + 1 - i]
    return out[..., 0] if vec else out


def jdiv(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Quotient a/b by the scalar jet, or stack of them, b (b[0] nonzero); one
    recurrence divides a batch of numerators a (D + 1, *b.shape[1:], ...)."""
    if degree is None:
        degree = min(len(a), len(b)) - 1
    if not np.all(b[0]):
        raise ZeroDivisionError("jet division by a jet with vanishing value")
    b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
    out = np.zeros((degree + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
    for k in range(degree + 1):
        i = min(k, len(b) - 1)
        # a[k] - sum_{i >= 1} b[i] out[k - i], the terms added in order (add.accumulate is
        # sequential, where .sum is pairwise on a contiguous axis), so a stack keeps one-point bits
        terms = np.add.accumulate(b[i:0:-1] * out[k - i : k])[-1] if i else 0j
        out[k] = ((a[k] if k < len(a) else 0j) - terms) / b[0]
    return out


def jderiv(a: np.ndarray) -> np.ndarray:
    """Jet of f' from the jet of f, on the leading axis (degree drops by one)."""
    if len(a) == 1:
        return np.zeros_like(a, dtype=complex)
    return a[1:] * np.arange(1, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))


def jet_exp(c: complex, x0, degree: int) -> np.ndarray:
    """Jet of exp(c*x) at x0, or the stack (degree + 1, *x0.shape) at an array x0."""
    out = np.zeros((degree + 1,) + np.shape(x0), dtype=complex)
    out[0] = np.exp(c * np.asarray(x0))
    for k in range(1, degree + 1):
        out[k] = out[k - 1, ...] * c / k  # an array product at any x0 (not a numpy scalar's)
    return out


def jet_sigma(ev: ThetaEvaluator, lam0, zs, degree: int) -> tuple[np.ndarray, ...]:
    """Jets in lambda at lam0 of sigma_lambda(z) and sigma_{-lambda}(z), and theta's jet at lam0.

    sigma_lambda(z) = theta'(0) theta(lambda - z) / (theta(lambda) theta(z)).
    lam0 is a point or a stack of shape S, and zs (..., N) broadcasts
    against it to the stack shape B: the sigma jets are (degree + 1, *B, N),
    theta's jet (max(degree, 1) + 1, *S).  One degree max(degree, 1)
    theta_array call over [0, lam0..., -lam0..., lam0 - z..., -lam0 - z...,
    z...] gives theta'(0), the denominators theta(+/-lambda), the numerators
    theta(+/-lambda - z) and the values theta(z).  sigma_{-lambda}'s jet is
    sigma's at -lam0 with the odd terms negated.
    """
    lam0, zs = np.asarray(lam0, dtype=complex), np.asarray(zs, dtype=complex)
    parts = (lam0, -lam0, lam0[..., None] - zs, -lam0[..., None] - zs, zs)
    rows = ev.theta_array(np.concatenate([[0.0]] + [p.ravel() for p in parts]), max(degree, 1))
    ends = np.cumsum([1] + [p.size for p in parts])
    th_pos, th_neg, num_pos, num_neg, th_z = (  # each part's rows as jets, the degree on axis 0
        np.moveaxis(rows[i:j].reshape(p.shape + rows.shape[1:]), -1, 0)
        for p, i, j in zip(parts, ends, ends[1:])
    )
    scale = rows[0, 1] / th_z[0]
    pos, neg = jdiv(num_pos * scale, th_pos, degree), jdiv(num_neg * scale, th_neg, degree)
    neg[1::2] *= -1.0
    return pos, neg, th_pos


@dataclasses.dataclass(frozen=True)
class LambdaDiffOp:
    """Differential operator sum_d c_d(lambda) d^d/dlambda^d of order <= 2, at lam0.

    Entry d of `coeffs` is the matrix jet of c_d at lam0: (degree - order + 1,
    dim, dim), or (1, dim, dim) for a constant coefficient, which jmul takes
    as a degree-0 jet; a stack of operators at points P puts P after the
    degree axis (ones where shared).  The operator applies to value jets at
    lam0 of degree order..degree, with P or ones there, reading each
    coefficient truncated to the output degree.
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
        terms, du = [], ujet
        for d, cf in enumerate(self.coeffs):
            if d > 0:
                du = jderiv(du)
            terms.append(jmul(cf, du, d_out))
        return sum(terms)
