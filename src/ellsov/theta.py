"""Odd Jacobi theta function and the elliptic functions built on it.

Everything downstream evaluates one special function: the odd theta
function theta(z) on the lattice Z + tau*Z, normalized by

    theta(z + 1)   = -theta(z)
    theta(z + tau) = -exp(-i*pi*tau - 2*pi*i*z) * theta(z)

with simple zeros exactly on the lattice.  Evaluation reduces the
argument to the fundamental cell, applies the exact quasi-periodicity
multiplier, and sums the q-series there, so it stays stable far from
the cell.  Derivatives are summed term by term, never by finite
differences.

Derived functions: sigma_lambda (the two-variable kernel with residue 1
at z = 0), zeta_bar = theta'/theta and wp_bar = -zeta_bar' (both with
the lattice-independent additive normalization), and the closed-form
lambda-derivative of sigma.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np

__all__ = [
    "ThetaError",
    "LatticeError",
    "TruncationError",
    "PoleProximityError",
    "NonFiniteArgumentError",
    "ThetaOverflowError",
    "Lattice",
    "ThetaEvaluator",
]

_PI = math.pi


class ThetaError(Exception):
    """Base class for kernel errors."""


class LatticeError(ThetaError):
    """Raised when the lattice data does not define a proper cell."""


class TruncationError(ThetaError):
    """Series did not reach the requested tolerance within the term limit."""

    def __init__(self, message: str, tail_bound: float):
        super().__init__(message)
        self.tail_bound = tail_bound


class PoleProximityError(ThetaError):
    """Argument is closer to the lattice than the configured margin."""


class NonFiniteArgumentError(ThetaError):
    """Argument is NaN or infinite."""


class ThetaOverflowError(ThetaError):
    """Argument is so far from the fundamental cell that the value overflows."""


# floor on Im tau below which a Lattice is rejected
_MIN_IM_TAU = 1e-3
# q-series terms summed before a TruncationError
_MAX_TERMS = 64


@dataclasses.dataclass(frozen=True)
class Lattice:
    """Period lattice Z + tau*Z with Im tau bounded away from zero."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not cmath.isfinite(tau):
            raise LatticeError("Lattice invariant violated: tau = %r is not finite" % (tau,))
        if not (tau.imag >= _MIN_IM_TAU):
            raise LatticeError(
                "Lattice invariant violated: Im tau = %r is below the floor %r"
                % (tau.imag, _MIN_IM_TAU)
            )

    def reduce(self, z: complex) -> tuple[complex, int, int]:
        """Write z = z0 + r + s*tau with Im z0 in [0, Im tau), Re z0 in [0, 1)."""
        z = complex(z)
        try:
            s = math.floor(z.imag / self.tau.imag)
            z1 = z - s * self.tau
            r = math.floor(z1.real)
        except (ValueError, OverflowError):
            # math.floor rejects NaN with ValueError and infinities with OverflowError
            if cmath.isfinite(z):
                raise ThetaOverflowError(
                    "argument %r is too far from the fundamental cell to reduce" % (z,)
                ) from None
            raise NonFiniteArgumentError("argument %r is not finite" % (z,)) from None
        z0 = z1 - r
        return z0, r, s

    def dist_to_lattice(self, z: complex) -> float:
        z0, _, _ = self.reduce(z)
        tau = self.tau
        return min(
            abs(z0), abs(z0 - 1.0), abs(z0 - tau), abs(z0 - 1.0 - tau)
        )

    def sample_generic(self, rng: np.random.Generator, margin: float, avoid=()) -> complex:
        """Seeded point of the cell at least margin from the lattice and each `avoid` shift."""
        for _ in range(4000):
            z = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * self.tau.imag)
            if all(self.dist_to_lattice(z - p) >= margin for p in (0.0, *avoid)):
                return z
        raise LatticeError("failed to sample a generic point")


@dataclasses.dataclass(frozen=True)
class ThetaEvaluator:
    """Evaluator for theta and the derived elliptic functions.

    trunc_tol controls when the q-series is cut: summation stops once
    the modulus bound of the next term drops below trunc_tol times the
    largest term seen so far.  rho is the pole-proximity margin used by
    the derived functions.
    """

    lattice: Lattice
    trunc_tol: float = 1e-16
    rho: float = 1e-6

    # -- core series ---------------------------------------------------

    def _series_jet(self, z0: complex, degree: int) -> list[complex]:
        """Taylor coefficients theta^(k)(z0)/k!, k = 0..degree, at a reduced point.

        Terms are paired as sin-combinations written with both exponentials
        carrying the full q-power, so nothing overflows and theta(0) is an
        exact zero.
        """
        tau = self.lattice.tau
        coefs = [0j] * (degree + 1)
        im0 = abs(z0.imag)
        log_tol = math.log(self.trunc_tol)
        max_term = 0.0
        converged = False
        tail = math.inf
        for j in range(_MAX_TERMS):
            half = j + 0.5
            base = 1j * _PI * tau * half * half
            ph = 1j * _PI * (2 * j + 1)
            ep = cmath.exp(base + ph * z0)
            em = cmath.exp(base - ph * z0)
            sign = -1.0 if j % 2 else 1.0
            wk = 1.0 + 0j
            for k in range(degree + 1):
                # k-th derivative of the paired term; (-1)^k flips the e^{-} piece
                piece = wk * ep - ((-1.0) ** k) * wk * em
                coefs[k] += sign * piece / 1j
                wk *= ph
            size = (abs(ep) + abs(em)) * max(1.0, abs(ph)) ** degree
            max_term = max(max_term, size)
            nh = half + 1.0
            log_next = (
                -_PI * tau.imag * nh * nh
                + 2.0 * _PI * nh * im0
                + degree * math.log(_PI * (2 * j + 3))
            )
            tail = log_next
            if log_next < log_tol + math.log(max_term):
                converged = True
                break
        if not converged:
            bound = math.exp(min(tail, 700.0))
            raise TruncationError(
                "theta series truncation: tolerance %g not reached within %d terms"
                % (self.trunc_tol, _MAX_TERMS),
                tail_bound=bound,
            )
        fact = 1.0
        for k in range(degree + 1):
            if k > 1:
                fact *= k
            coefs[k] /= fact
        return coefs

    def theta_taylor(self, z: complex, degree: int) -> np.ndarray:
        """Taylor coefficients theta^(k)(z)/k! for k = 0..degree."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        z0, r, s = self.lattice.reduce(z)
        inner = self._series_jet(z0, degree)
        tau = self.lattice.tau
        parity = -1.0 if (r + s) % 2 else 1.0
        try:
            mult0 = parity * cmath.exp(-1j * _PI * (s * s * tau + 2.0 * s * z0))
        except OverflowError:
            raise _overflow(z) from None
        # theta(z + d) = mult0 * exp(-2*pi*i*s*d) * theta(z0 + d)
        out = np.zeros(degree + 1, dtype=complex)
        if s == 0:
            for k in range(degree + 1):
                out[k] = mult0 * inner[k]
            return out
        w = -2j * _PI * s
        expjet = [1.0 + 0j]
        for k in range(1, degree + 1):
            expjet.append(expjet[-1] * w / k)
        for k in range(degree + 1):
            acc = 0j
            for i in range(k + 1):
                acc += expjet[i] * inner[k - i]
            val = mult0 * acc
            if not cmath.isfinite(val):
                raise _overflow(z)
            out[k] = val
        return out

    def theta(self, z: complex, d: int = 0) -> complex:
        """theta(z) or its d-th derivative, d in {0, 1, 2, 3}."""
        if d not in (0, 1, 2, 3):
            raise ValueError("derivative order must be in {0, 1, 2, 3}")
        jet = self.theta_taylor(z, d)
        return complex(jet[d]) * math.factorial(d)

    # -- constants at the origin ---------------------------------------

    def theta0_jet(self, degree: int) -> np.ndarray:
        return _theta0_jet_cached(self, degree)

    def dtheta0(self) -> complex:
        return complex(self.theta0_jet(1)[1])

    # -- derived functions ----------------------------------------------

    def _require_off_lattice(self, z: complex, what: str) -> None:
        dist = self.lattice.dist_to_lattice(z)
        if dist < self.rho:
            raise PoleProximityError(
                "pole proximity: %s is within %g of the period lattice (margin %g)"
                % (what, dist, self.rho)
            )

    def sigma(self, lam: complex, z: complex) -> complex:
        """sigma_lambda(z) = theta(lam - z) theta'(0) / (theta(z) theta(lam))."""
        self._require_off_lattice(z, "z")
        self._require_off_lattice(lam, "lambda")
        return (
            self.theta(lam - z)
            * self.dtheta0()
            / (self.theta(z) * self.theta(lam))
        )

    def zeta_bar(self, z: complex) -> complex:
        """theta'(z)/theta(z); odd, with zeta_bar(z+tau) = zeta_bar(z) - 2*pi*i."""
        self._require_off_lattice(z, "z")
        jet = self.theta_taylor(z, 1)
        return complex(jet[1] / jet[0])

    def wp_bar(self, z: complex) -> complex:
        """-(theta'/theta)'(z) = (theta'/theta)^2 - theta''/theta; lattice periodic."""
        self._require_off_lattice(z, "z")
        jet = self.theta_taylor(z, 2)
        t0, t1, t2 = jet[0], jet[1], 2.0 * jet[2]
        return complex((t1 / t0) ** 2 - t2 / t0)

    def sigma_dlambda(self, lam: complex, z: complex) -> complex:
        """d/dlambda of sigma_lambda(z), i.e. sigma_lambda(z)*(zeta_bar(lam-z) - zeta_bar(lam)).

        Evaluated as theta'(0)*(theta'(lam-z) - theta(lam-z)*zeta_bar(lam)) /
        (theta(z)*theta(lam)), which is the same function without the
        0 * inf ambiguity when lam - z approaches the lattice.
        """
        self._require_off_lattice(z, "z")
        self._require_off_lattice(lam, "lambda")
        jet = self.theta_taylor(lam - z, 1)
        zl = self.zeta_bar(lam)
        return complex(
            self.dtheta0() * (jet[1] - jet[0] * zl) / (self.theta(z) * self.theta(lam))
        )


def _overflow(z: complex) -> ThetaOverflowError:
    return ThetaOverflowError(
        "theta overflows double precision at %r, too far from the fundamental cell" % (z,)
    )


@functools.lru_cache(maxsize=256)
def _theta0_jet_cached(ev: ThetaEvaluator, degree: int) -> np.ndarray:
    jet = ev.theta_taylor(0.0, degree)
    jet.setflags(write=False)
    return jet
