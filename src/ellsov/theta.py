"""Odd Jacobi theta function and the elliptic functions built on it.

Everything downstream evaluates one special function: the odd theta
function theta(z) on the lattice Z + tau*Z, normalized by

    theta(z + 1)   = -theta(z)
    theta(z + tau) = -exp(-i*pi*tau - 2*pi*i*z) * theta(z)

with simple zeros exactly on the lattice.  Evaluation reduces the
argument to the fundamental cell, applies the exact quasi-periodicity
multiplier, and sums the q-series there, so it stays stable far from
the cell.  One kernel, theta_array(zs, degree), gives the Taylor jets
theta^(k)(z)/k! of a batch of points, whose derivatives are summed term
by term, never by finite differences; each row is the same bits as a
one-point call.

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
    size of the terms (see theta_array).  rho is the pole-proximity margin
    used by the derived functions.
    """

    lattice: Lattice
    trunc_tol: float = 1e-16
    rho: float = 1e-6

    def theta_array(self, zs: np.ndarray, degree: int, dist: bool = False):
        """(N, degree + 1) array whose row i holds theta^(k)(zs[i])/k!, k = 0..degree.

        The one theta kernel: the q-series of theta and its multiplier on
        arrays.  Every step is elementwise and the terms are summed in a
        fixed order, so row i is a function of zs[i] alone, bit for bit,
        whatever else the batch holds: each term's two exponentials are
        paired first, which keeps theta an exact zero on the lattice, and
        the pairs are added in a fixed pairwise tree.  The series sums the
        fewest terms whose bound on the next one, taken at the top of the
        reduced cell (Im z0 = Im tau), is below trunc_tol * exp(-pi Im tau / 4),
        a floor of term 0 on the reduced cell.  On a lattice too flat for
        that within _MAX_TERMS, each point stops by the rule at its own
        Im z0 (the bound on the next term below trunc_tol times the largest
        term so far) with its later terms masked to zero, and the first point
        that does not stop raises TruncationError.  Errors are ThetaError
        subclasses, for the first point that fails.  With dist, also the
        distances to the lattice that dist_to_lattice_array gives, from the
        same reduction.
        """
        if degree > _MAX_DEGREE:
            raise ThetaOverflowError("degree %d is above the limit %d" % (degree, _MAX_DEGREE))
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1 or degree < 0:
            raise ValueError("zs must be one-dimensional and degree >= 0")
        z0, r, s = self.lattice.reduce_array(zs)
        tau = self.lattice.tau
        base, ph, signs, weights, tree, bounds = _term_table(tau, degree, self.trunc_tol)
        count = len(weights)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(base + ph * z0)
            if bounds is not None:
                e = np.where(self._kept_terms(e, z0, bounds), e, 0.0)
            # term j's column k pairs its exponentials first, e+ - (-1)^k e-: exactly 0 on the lattice
            terms = (e[:count, None] + signs * e[count:, None]) * weights
            for dst, src in tree:
                terms[dst] += terms[src]
            inner = terms[0].T
            # theta(z + d) = mult0 * exp(-2*pi*i*s*d) * theta(z0 + d), as a jet in d.  The
            # exponent of mult0 reaches about 270 at |Im z| = 10, where another rounding
            # order moves the value by about 3e-14
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

    def theta_values(self, zs) -> list[complex]:
        """theta at each point of zs (flattened) from one theta_array call, as
        Python complexes, for callers that multiply them factor by factor."""
        return self.theta_array(np.ravel(np.asarray(zs, dtype=complex)), 0)[:, 0].tolist()

    def _kept_terms(self, e: np.ndarray, z0: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """(2J, N) mask of the terms each point sums by its own stop rule, for a flat lattice.

        Term j is kept while no earlier term's bound on its successor,
        quad + lin * Im z0 + deg_log, fell below log(trunc_tol) plus the log of
        the largest term size |e+| + |e-| so far; a point whose rule never
        fires raises TruncationError with the last bound.
        """
        count = len(bounds)
        size = np.hypot(e.real, e.imag)
        size = np.maximum.accumulate(size[:count] + size[count:], axis=0)
        with np.errstate(divide="ignore"):
            limit = math.log(self.trunc_tol) + np.log(size)
        log_next = bounds[:, :1] + bounds[:, 1:2] * np.abs(z0.imag) + bounds[:, 2:]
        stop = log_next < limit
        stops = stop.any(axis=0)
        if not stops.all():
            raise TruncationError(
                "theta series truncation: tolerance %g not reached within %d terms" % (self.trunc_tol, _MAX_TERMS),
                tail_bound=math.exp(min(float(log_next[-1, np.argmin(stops)]), 700.0)),
            )
        return np.arange(2 * count)[:, None] % count <= np.argmax(stop, axis=0)

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


def _overflow(z: complex) -> ThetaOverflowError:
    return ThetaOverflowError(
        "theta overflows double precision at %r, too far from the fundamental cell" % (z,)
    )


# (tau, degree, trunc_tol) term tables kept; each holds at most _MAX_TERMS rows
_TERM_TABLES = 64


@functools.lru_cache(maxsize=_TERM_TABLES)
def _term_table(tau: complex, degree: int, trunc_tol: float) -> tuple:
    """theta_array's z-independent data, built whole on the first call, read-only.

    Term j of the series is sign_j (e^(base_j + ph_j z0) - e^(base_j - ph_j z0)) / i,
    base_j = i pi tau (j + 1/2)^2, ph_j = i pi (2j + 1), sign_j = (-1)^j; its
    k-th derivative over k! is w_jk (e^+ - (-1)^k e^-), w_jk = sign_j ph_j^k / (i k!).
    Returns base and ph, shape (2J, 1): the J exponents base_j + ph_j z0,
    then the J exponents base_j - ph_j z0; signs, -(-1)^k, shape
    (degree + 1, 1); weights, w_jk, shape (J, degree + 1, 1); tree, the
    (destination, source) row slices of the pairwise sum over the J terms;
    and bounds: None, or for a lattice too flat for the top-of-cell count,
    rows (quad, lin, deg_log) whose log bound on term j + 1 at a reduced
    point is quad + lin * Im z0 + deg_log.

    J is the first j + 1 whose bound at Im z0 = Im tau is below
    log(trunc_tol) - pi Im tau / 4, or _MAX_TERMS when none is.  The per-point
    rule stops within those rows: its bound at Im z0 <= Im tau is at most
    that one, and its limit at least, since term 0 on the reduced cell is at
    least exp(-pi Im tau / 4).
    """
    limit = math.log(trunc_tol) - _PI * tau.imag / 4.0
    exps, weights, bounds = [], [], []
    for j in range(_MAX_TERMS):
        half = j + 0.5
        ph = 1j * _PI * (2 * j + 1)
        exps.append((1j * _PI * tau * half * half, ph))
        row, wk, ifact = [], (-1.0 if j % 2 else 1.0) + 0j, 1j
        for k in range(degree + 1):
            row.append(wk / ifact)
            wk *= ph
            ifact *= k + 1
        weights.append(row)
        nh = half + 1.0
        bounds.append((-_PI * tau.imag * nh * nh, 2.0 * _PI * nh, degree * math.log(_PI * (2 * j + 3))))
        quad, lin, deg_log = bounds[-1]
        if quad + lin * tau.imag + deg_log < limit:
            bounds = None
            break
    # the tree: while m rows are live (m = J first), rows [m - 2h, m - h) += rows [m - h, m), h = m // 2
    tree, m = [], len(exps)
    while m > 1:
        h = m // 2
        tree.append((slice(m - 2 * h, m - h), slice(m - h, m)))
        m -= h
    exps = np.array(exps + [(base, -ph) for base, ph in exps])
    signs = np.array([-((-1.0) ** k) for k in range(degree + 1)])[:, None]
    weights = np.array(weights)[:, :, None]
    bounds = None if bounds is None else np.array(bounds)
    for arr in (exps, signs, weights, bounds):
        if arr is not None:
            arr.setflags(write=False)
    return exps[:, :1], exps[:, 1:], signs, weights, tuple(tree), bounds
