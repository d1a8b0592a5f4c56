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
import threading

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
        z0, _, _ = self.reduce_array(zs)
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

    def _series_jet(self, z0: complex, degree: int) -> list[complex]:
        """Taylor coefficients theta^(k)(z0)/k!, k = 0..degree, at a reduced point.

        Terms are paired as sin-combinations written with both exponentials
        carrying the full q-power, so nothing overflows and theta(0) is an
        exact zero.  The z-independent part of each term comes from the
        (tau, degree) table of _term_table; only the two exponentials, the
        accumulation and the stopping test run per call.
        """
        tau = self.lattice.tau
        table = _term_table(tau, degree)
        coefs = [0j] * (degree + 1)
        acc = 0j
        im0 = abs(z0.imag)
        log_tol = math.log(self.trunc_tol)
        max_term = 0.0
        limit = -math.inf
        for j in range(_MAX_TERMS):
            if j == len(table):
                _append_term(table, tau, degree, j)
            base, ph, sign, weights, power, quad, lin, deg_log = table[j]
            ep = cmath.exp(base + ph * z0)
            em = cmath.exp(base - ph * z0)
            if degree == 0:
                acc += sign * (ep - em) / 1j
            else:
                for k, (wk, wk_alt) in enumerate(weights):
                    # k-th derivative of the paired term; wk_alt = (-1)^k wk flips the e^{-} piece
                    coefs[k] += sign * (wk * ep - wk_alt * em) / 1j
            size = (abs(ep) + abs(em)) * power
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
        if degree == 0:
            return [acc / 1.0]  # 0! as below: a complex division by 1.0 can flip a signed zero
        fact = 1.0
        for k in range(degree + 1):
            if k > 1:
                fact *= k
            coefs[k] /= fact
        return coefs

    def theta_taylor(self, z: complex, degree: int) -> np.ndarray:
        """Taylor coefficients theta^(k)(z)/k! for k = 0..degree."""
        _check_degree(degree)
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

    def theta_array(self, zs: np.ndarray, degree: int) -> np.ndarray:
        """(N, degree + 1) array whose row i stands in for theta_taylor(zs[i], degree).

        The same series and multiplier on arrays, to a tolerance rather than
        bit for bit.  Every point sums the same number of terms: the fewest
        whose bound on the next term, taken at the top of the reduced cell
        (Im z0 = Im tau), is below trunc_tol * exp(-pi Im tau / 4), and no
        term 0 on the reduced cell is smaller than exp(-pi Im tau / 4).
        Errors are the ThetaError subclasses theta_taylor raises.
        """
        _check_degree(degree)
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise ValueError("zs must be one-dimensional")
        z0, r, s = self.lattice.reduce_array(zs)
        tau = self.lattice.tau
        table = _term_table(tau, degree)
        limit = math.log(self.trunc_tol) - _PI * tau.imag / 4.0
        for j in range(_MAX_TERMS):
            if j == len(table):
                _append_term(table, tau, degree, j)
            quad, lin, deg_log = table[j][5:]
            log_next = quad + lin * tau.imag + deg_log
            if log_next < limit:
                break
        else:
            raise _truncation(self.trunc_tol, log_next)
        rows = table[: j + 1]
        # row c * terms + j of grid is (base_j, +/-ph_j, +/-sign_j) and of weights
        # (+/-ph_j)^k, k = 0..degree, for the exponential exp(base_j +/- ph_j z0)
        # (c = 0: +, c = 1: -); theta^(k)(z0) / k! = sum_rows sign weight exp / (i k!)
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
            # theta(z + d) = mult0 * exp(-2*pi*i*s*d) * theta(z0 + d), as a jet in d.  The
            # exponent of mult0 is written as in theta_taylor: it reaches about 270 at
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


# (tau, degree) term tables kept; each holds at most _MAX_TERMS rows
_TERM_TABLES = 64
_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=_TERM_TABLES)
def _term_table(tau: complex, degree: int) -> list[tuple]:
    """The z-independent data of the q-series terms for one (tau, degree).

    Row j holds base_j, ph_j, sign_j, the derivative weights
    (ph_j^k, (-1)^k ph_j^k) for k = 0..degree, max(1, |ph_j|)^degree and
    the three parts of the bound on term j + 1.  Rows are appended by
    _series_jet up to the last term its stopping rule reaches.
    """
    return []


def _append_term(table: list[tuple], tau: complex, degree: int, j: int) -> None:
    """Append row j of a (tau, degree) table.

    Each value is computed by the expression, in the evaluation order, that
    a per-call evaluation of term j would use, so every coefficient keeps its bits.
    """
    half = j + 0.5
    ph = 1j * _PI * (2 * j + 1)
    weights = []
    wk = 1.0 + 0j
    for k in range(degree + 1):
        weights.append((wk, ((-1.0) ** k) * wk))
        wk *= ph
    nh = half + 1.0
    row = (
        1j * _PI * tau * half * half,
        ph,
        -1.0 if j % 2 else 1.0,
        tuple(weights),
        max(1.0, abs(ph)) ** degree,
        -_PI * tau.imag * nh * nh,
        2.0 * _PI * nh,
        degree * math.log(_PI * (2 * j + 3)),
    )
    with _TABLE_LOCK:
        if len(table) == j:  # another thread may have appended it meanwhile
            table.append(row)


@functools.lru_cache(maxsize=256)
def _theta0_jet_cached(ev: ThetaEvaluator, degree: int) -> np.ndarray:
    jet = ev.theta_taylor(0.0, degree)
    jet.setflags(write=False)
    return jet
