"""Odd Jacobi theta function and the elliptic functions built on it.

Everything downstream evaluates one special function: the odd theta
function theta(z) on the lattice Z + tau*Z, normalized by

    theta(z + 1)   = -theta(z)
    theta(z + tau) = -exp(-i*pi*tau - 2*pi*i*z) * theta(z)

with simple zeros exactly on the lattice.  Evaluation reduces the
argument to the fundamental cell, applies the exact quasi-periodicity
multiplier, and sums the q-series there, so it stays stable far from
the cell.  Two kernels share one table of series terms: the scalar
ThetaEvaluator.theta(z) for values, and theta_array(zs, degree) for the
Taylor jets theta^(k)(z)/k! of a batch of points, whose derivatives are
summed term by term, never by finite differences.

Derived functions, on arrays: zeta_bar = theta'/theta and wp_bar =
-zeta_bar' (both with the lattice-independent additive normalization),
from zeta_wp.  The kernel sigma_lambda(z) = theta(lambda - z) theta'(0) /
(theta(z) theta(lambda)) is used through its lambda-jets in jets.py.
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
    """The value overflows: the argument is too far from the cell, or the degree too high."""


# floor on Im tau below which a Lattice is rejected
_MIN_IM_TAU = 1e-3
# q-series terms summed before a TruncationError
_MAX_TERMS = 64
# Ceilings that keep every series quantity finite: on the reduced cell terms 0
# and 1 reach exp(3 pi Im tau / 4), later ones stay below 1, term j has weight
# (pi (2j + 1))^degree and 128 (127 pi)^117, 128 exp(3 pi 187 / 4) (3 pi)^117 < 1.8e308
_MAX_DEGREE = 117
_MAX_IM_TAU = 187.0


@dataclasses.dataclass(frozen=True)
class Lattice:
    """Period lattice Z + tau*Z with Im tau bounded away from zero."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not cmath.isfinite(tau):
            raise LatticeError("Lattice invariant violated: tau = %r is not finite" % (tau,))
        if not (_MIN_IM_TAU <= tau.imag <= _MAX_IM_TAU):
            raise LatticeError(
                "Lattice invariant violated: Im tau = %r is outside [%r, %r]"
                % (tau.imag, _MIN_IM_TAU, _MAX_IM_TAU)
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

    def reduce_array(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """reduce on a complex array; r and s come back as float arrays.

        Each point fails as reduce would: the first one that does not
        reduce raises NonFiniteArgumentError or ThetaOverflowError.
        """
        zs = np.asarray(zs, dtype=complex)
        tau = self.tau
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.floor(zs.imag / tau.imag)
            z1 = zs - s * tau
            r = np.floor(z1.real)
            ok = np.isfinite(r + s)
        if not ok.all():
            z = complex(zs[np.argmin(ok)])
            if not cmath.isfinite(z):
                raise NonFiniteArgumentError("argument %r is not finite" % (z,))
            raise ThetaOverflowError("argument %r is too far from the fundamental cell to reduce" % (z,))
        return z1 - r, r, s

    def dist_to_lattice(self, z: complex) -> float:
        """Distance from z to the nearest lattice point m + n tau.

        z0 = reduce(z) lies in [0, 1] x [0, Im tau).  Row n of the lattice
        holds its nearest point to z0 at m = floor(Re(z0 - n tau)) or m + 1.
        Rows 0 and 1 give a first distance.  Rows n >= 2 and n <= -1 lie at
        least Im tau away; past that they are visited outwards while their gap
        |Im z0 - n Im tau| is below the best distance.
        """
        z0, _, _ = self.reduce(z)
        tau = self.tau
        m = math.floor(z0.real - tau.real)
        best = min(abs(z0), abs(z0 - 1.0), abs(z0 - m - tau), abs(z0 - (m + 1) - tau))
        if best > tau.imag:  # else every farther row is too far
            for n, step in ((2, 1), (-1, -1)):
                while abs(z0.imag - n * tau.imag) < best:
                    m = math.floor(z0.real - n * tau.real)
                    best = min(best, abs(z0 - m - n * tau), abs(z0 - (m + 1) - n * tau))
                    n += step
        return best

    def dist_to_lattice_array(self, zs: np.ndarray) -> np.ndarray:
        """dist_to_lattice on a complex array, with the same float operations.

        One reduce_array pass and rows 0 and 1 on arrays; the rare points
        whose distance exceeds Im tau take the scalar row walk.  The moduli
        are np.hypot of the parts, which rounds as abs(complex) does (numpy's
        complex abs does not always).
        """
        zs = np.asarray(zs, dtype=complex)
        return self._reduced_dist(zs, self.reduce_array(zs)[0])

    def _reduced_dist(self, zs: np.ndarray, z0: np.ndarray) -> np.ndarray:
        """dist_to_lattice_array at zs from their reductions z0, which theta_array shares."""
        tau = self.tau
        m = np.floor(z0.real - tau.real)
        corners = (z0, z0 - 1.0, z0 - m - tau, z0 - (m + 1) - tau)
        best = np.minimum.reduce([np.hypot(c.real, c.imag) for c in corners])
        for k in np.flatnonzero(best > tau.imag):
            best[k] = self.dist_to_lattice(zs[k])
        return best

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

    def _series(self, z0: complex) -> complex:
        """theta(z0) at a reduced point.

        Terms are paired as sin-combinations written with both exponentials
        carrying the full q-power, so nothing overflows and theta(0) is an
        exact zero.  The z-independent part of each term comes from the
        rows of _term_table; only the two exponentials, the accumulation and
        the stopping test run per call.
        """
        acc = 0j
        im0 = abs(z0.imag)
        log_tol = math.log(self.trunc_tol)
        max_term = 0.0
        limit = -math.inf
        for base, ph, sign, _, quad, lin, deg_log in _term_table(self.lattice.tau, 0, self.trunc_tol):
            ep = cmath.exp(base + ph * z0)
            em = cmath.exp(base - ph * z0)
            acc += sign * (ep - em) / 1j
            size = abs(ep) + abs(em)
            # >= keeps the rule log_next < log_tol + log(largest term so far) exact,
            # down to its math.log(0.0) when the first term underflows to zero
            if size >= max_term:
                max_term = size
                limit = log_tol + math.log(max_term)
            log_next = quad + lin * im0 + deg_log
            if log_next < limit:
                break
        else:
            raise _truncation(self.trunc_tol, log_next)
        return acc

    def theta(self, z: complex) -> complex:
        """theta(z), the value every IRF, eqg and spaces number is built on."""
        z0, r, s = self.lattice.reduce(z)
        inner = self._series(z0)
        tau = self.lattice.tau
        parity = -1.0 if (r + s) % 2 else 1.0
        try:
            mult0 = parity * cmath.exp(-1j * _PI * (s * s * tau + 2.0 * s * z0))
        except OverflowError:
            raise _overflow(z) from None
        val = mult0 * inner  # theta(z0 + r + s tau) = mult0 * theta(z0)
        if not cmath.isfinite(val):
            raise _overflow(z)
        return val * 1  # rounds as a product with 1 + 0j, which turns some -0.0 parts to +0.0

    def theta_array(self, zs: np.ndarray, degree: int, dist: bool = False):
        """(N, degree + 1) array whose row i holds theta^(k)(zs[i])/k!, k = 0..degree.

        The one kernel for theta's derivatives: the series of theta and its
        multiplier on arrays, whose degree-0 column agrees with theta(z) to a
        tolerance rather than bit for bit.  Every point sums the same number
        of terms: the fewest whose bound on the next term, taken at the top
        of the reduced cell (Im z0 = Im tau), is below
        trunc_tol * exp(-pi Im tau / 4), and no term 0 on the reduced cell is
        smaller than exp(-pi Im tau / 4).  Errors are the ThetaError
        subclasses theta raises.  With dist, also the distances to the lattice
        that dist_to_lattice_array gives, from the same reduction.
        """
        _check_degree(degree)
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise ValueError("zs must be one-dimensional")
        z0, r, s = self.lattice.reduce_array(zs)
        tau = self.lattice.tau
        log_next, grid, weights, ifact = _array_table(tau, degree, self.trunc_tol)
        if not log_next < _array_limit(tau, self.trunc_tol):
            raise _truncation(self.trunc_tol, log_next)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(grid[:, :1] + grid[:, 1:2] * z0) * grid[:, 2:]
            inner = (terms.T @ weights) / ifact
            # theta(z + d) = mult0 * exp(-2*pi*i*s*d) * theta(z0 + d), as a jet in d.  The
            # exponent of mult0 is written as in theta: it reaches about 270 at
            # |Im z| = 10, where another rounding order moves the value by about 3e-14
            mult = np.exp(-1j * _PI * (s * s * tau + 2.0 * s * z0))
            mult = np.where((r + s) % 2, -mult, mult)
            out = mult[:, None] * inner
            w = -2j * _PI * s
            for i in range(1, degree + 1):
                mult = mult * w / i
                out[:, i:] += mult[:, None] * inner[:, :-i]
            finite = np.isfinite(out).all()
        if not finite:
            raise _overflow(complex(zs[np.argmin(np.isfinite(out).all(axis=1))]))
        return (out, self.lattice._reduced_dist(zs, z0)) if dist else out

    # -- derived functions ----------------------------------------------

    def zeta_wp(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """zeta_bar = theta'/theta and wp_bar = -zeta_bar' = zeta_bar^2 - theta''/theta at zs.

        zeta_bar is odd, with zeta_bar(z + tau) = zeta_bar(z) - 2 pi i; wp_bar is
        even and lattice periodic.  One degree-2 theta_array call, which also
        gives the distances to the lattice; the first point within rho of it
        raises PoleProximityError.
        """
        zs = np.asarray(zs, dtype=complex)
        jet, dist = self.theta_array(zs, 2, dist=True)
        close = np.flatnonzero(dist < self.rho)
        if close.size:
            k = close[0]
            raise PoleProximityError(
                "pole proximity: z = %r is within %g of the period lattice (margin %g)"
                % (complex(zs[k]), dist[k], self.rho)
            )
        zeta = jet[:, 1] / jet[:, 0]
        return zeta, zeta ** 2 - 2.0 * jet[:, 2] / jet[:, 0]


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > _MAX_DEGREE:
        raise ThetaOverflowError("degree %d is above the limit %d" % (degree, _MAX_DEGREE))


def _truncation(trunc_tol: float, log_next: float) -> TruncationError:
    """The series missed trunc_tol within _MAX_TERMS; log_next bounds the next term."""
    return TruncationError(
        "theta series truncation: tolerance %g not reached within %d terms" % (trunc_tol, _MAX_TERMS),
        tail_bound=math.exp(min(log_next, 700.0)),
    )


def _overflow(z: complex) -> ThetaOverflowError:
    return ThetaOverflowError(
        "theta overflows double precision at %r, too far from the fundamental cell" % (z,)
    )


# (tau, degree, trunc_tol) term tables kept; each holds at most _MAX_TERMS rows
_TERM_TABLES = 64


def _array_limit(tau: complex, trunc_tol: float) -> float:
    """log of theta_array's cut, trunc_tol * exp(-pi Im tau / 4)."""
    return math.log(trunc_tol) - _PI * tau.imag / 4.0


def _array_bound(row: tuple, tau: complex) -> float:
    """log of a row's bound on the next term, taken at the top of the cell, Im z0 = Im tau."""
    quad, lin, deg_log = row[4:]
    return quad + lin * tau.imag + deg_log


@functools.lru_cache(maxsize=_TERM_TABLES)
def _term_table(tau: complex, degree: int, trunc_tol: float) -> tuple[tuple, ...]:
    """The z-independent data of the q-series terms, built whole on the first call.

    Row j holds base_j, ph_j, sign_j, the derivative weights
    (ph_j^k, (-1)^k ph_j^k) for k = 0..degree and the three parts of the
    bound on term j + 1.  Each value is computed by the expression, in the
    evaluation order, that a per-call evaluation of term j would use, so
    theta keeps its bits.

    The rows stop at theta_array's term count J: the first row whose bound
    at Im z0 = Im tau is below _array_limit, or all _MAX_TERMS rows when
    none is.  The scalar rule of _series stops within those J rows:
    its bound at a reduced point (Im z0 <= Im tau) is at most the array's,
    and its running limit is at least the array's, because term 0 on the
    reduced cell is at least exp(-pi Im tau / 4).
    """
    limit = _array_limit(tau, trunc_tol)
    rows = []
    for j in range(_MAX_TERMS):
        half = j + 0.5
        ph = 1j * _PI * (2 * j + 1)
        weights = []
        wk = 1.0 + 0j
        for k in range(degree + 1):
            weights.append((wk, ((-1.0) ** k) * wk))
            wk *= ph
        nh = half + 1.0
        rows.append((
            1j * _PI * tau * half * half,
            ph,
            -1.0 if j % 2 else 1.0,
            tuple(weights),
            -_PI * tau.imag * nh * nh,
            2.0 * _PI * nh,
            degree * math.log(_PI * (2 * j + 3)),
        ))
        if _array_bound(rows[-1], tau) < limit:
            break
    return tuple(rows)


@functools.lru_cache(maxsize=_TERM_TABLES)
def _array_table(tau: complex, degree: int, trunc_tol: float) -> tuple:
    """theta_array's data, read-only: the table's bound on its next term; grid rows
    (base_j, +/-ph_j, +/-sign_j) and weights (+/-ph_j)^k per exp(base_j +/- ph_j z0),
    all + rows first; ifact[k] = i k!, so theta^(k)(z0) / k! = sum sign weight exp / ifact."""
    rows = _term_table(tau, degree, trunc_tol)
    grid = np.array(
        [v for row in rows for v in row[:3]] + [v for row in rows for v in (row[0], -row[1], -row[2])]
    ).reshape(-1, 3)
    weights = np.array(
        [wk for row in rows for wk, _ in row[3]] + [wk for row in rows for _, wk in row[3]]
    ).reshape(-1, degree + 1)
    ifact = [1j]
    for k in range(1, degree + 1):
        ifact.append(ifact[-1] * k)
    ifact = np.array(ifact)
    for arr in (grid, weights, ifact):
        arr.setflags(write=False)
    return _array_bound(rows[-1], tau), grid, weights, ifact
