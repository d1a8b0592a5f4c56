"""Finite-dimensional spaces of quasi-periodic entire functions.

A level-k space is cut out by a character chi of the lattice: its
members satisfy

    f(z + r + s*tau) = chi(r + s*tau) * exp(-pi*i*k*(s^2*tau + 2*s*z)) * f(z)

and form a k-dimensional space (k >= 1).  Every member factors as
exp(a*z) * prod_j theta(z - w_j) with k zeros per cell; the zero sum is
pinned modulo the lattice by the character.  This module provides that
factored form, node-based interpolation, a membership test, and
damped_newton, the one Newton solver of the package.  It solves the Gaudin
Bethe system (gaudin.py) and the Bethe system of the difference equation

    A_plus(z) Q(z - gamma) + A_minus(z) Q(z + gamma) = eps(z) Q(z).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .theta import PoleProximityError, ThetaEvaluator, ThetaOverflowError

__all__ = [
    "SpacesError",
    "DegenerateNodesError",
    "ResonantCharacterError",
    "CompatibilityError",
    "NoConvergenceError",
    "InvalidSolutionError",
    "Character",
    "EllipticPoly",
    "ThetaInterpolant",
    "ThetaSpaceBasis",
    "MembershipReport",
    "BetheSolution",
    "eval_elliptic_polys",
    "character_of",
    "expected_multiplier",
    "multiplier_deviation",
    "make_basis",
    "membership_test",
    "damped_newton",
    "solve_difference_bethe",
]

_PI = math.pi
_2PI_I = 2j * _PI


class SpacesError(Exception):
    pass


class DegenerateNodesError(SpacesError):
    """Interpolation nodes collide modulo the lattice."""


class ResonantCharacterError(SpacesError):
    """The character/node data hits the resonant locus (theta(b) ~ 0)."""


class CompatibilityError(SpacesError):
    """Difference-equation characters violate the necessary compatibility."""


class NoConvergenceError(SpacesError):
    """Newton iteration failed to reach the residual target."""


class InvalidSolutionError(SpacesError):
    """Solver output violates a genericity requirement (colliding roots)."""


@dataclasses.dataclass(frozen=True)
class Character:
    """Lattice character, stored by its values on the two generators."""

    chi1: complex
    chiTau: complex

    def value(self, r: int, s: int) -> complex:
        return (self.chi1 ** r) * (self.chiTau ** s)


def expected_multiplier(chi: Character, k: int, z: complex, r: int, s: int, tau: complex) -> complex:
    """Multiplier of a level-k, character-chi function under z -> z + r + s*tau."""
    try:
        return chi.value(r, s) * cmath.exp(-1j * _PI * k * (s * s * tau + 2 * s * z))
    except OverflowError:
        msg = "the level-%d multiplier at %r under the shift %d + %d tau overflows double precision"
        raise ThetaOverflowError(msg % (k, z, r, s)) from None


def multiplier_deviation(ev: ThetaEvaluator, f: Callable, k: int, chi: Character, z: complex) -> float:
    """Largest relative miss of f(z + w) / f(z), w = 1 and tau, against a level-k chi."""
    tau, base, misses = ev.lattice.tau, f(z), []
    for (r, s) in ((1, 0), (0, 1)):
        expect = expected_multiplier(chi, k, z, r, s, tau)
        misses.append(abs(f(z + r + s * tau) / base - expect) / abs(expect))
    return float(np.max(misses))  # a NaN miss is returned: max(0.0, nan) would drop it


@dataclasses.dataclass(frozen=True)
class EllipticPoly:
    """exp(a*z) * prod_j theta(z - w_j)."""

    a: complex
    zeros: tuple[complex, ...]

    @property
    def order(self) -> int:
        return len(self.zeros)


def eval_elliptic_polys(ev: ThetaEvaluator, polys: Sequence[EllipticPoly], zs) -> np.ndarray:
    """Each of polys at each point of zs, shape (len(polys),) + zs.shape, from one theta_array
    call over the points times all the zeros; a non-finite value raises ThetaOverflowError."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    zeros = np.array([w for p in polys for w in p.zeros], dtype=complex)
    thetas = iter(ev.theta_array((flat[:, None] - zeros).ravel(), 0).reshape(len(flat), -1).T)
    vals = np.empty((len(polys), len(flat)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        for val, p in zip(vals, polys):  # factor by factor from exp(a z)
            val[:] = np.exp(p.a * flat)
            for _ in p.zeros:
                val *= next(thetas)
    if not np.isfinite(vals).all():
        z = complex(flat[np.argmin(np.isfinite(vals).all(axis=0))])
        raise ThetaOverflowError("elliptic polynomial at %r overflows double precision" % (z,))
    return vals.reshape((len(polys),) + zs.shape)


def character_of(p: EllipticPoly, tau: complex) -> Character:
    """Character of the factored form at its level k = order."""
    k = p.order
    sgn = (-1.0) ** k
    chi1 = sgn * cmath.exp(p.a)
    chiTau = sgn * cmath.exp(p.a * tau + _2PI_I * sum(p.zeros))
    return Character(chi1, chiTau)


# -- interpolation -----------------------------------------------------


class ThetaSpaceBasis:
    """Cardinal basis of a level-k character space over generic nodes.

    The basis owns the interpolation data, computed once: the exponent
    a, the shift b, and theta(b) with the k(k-1) node-difference thetas
    from one theta_array call, whose lattice distances are the node
    collision and resonance checks.  cardinal_vector(zs) returns the k
    cardinal functions at each point z of zs,

        L_j(z) = exp(2 pi i a (z - z_j)) theta(z - z_j + b) / theta(b)
                 * prod_{l != j} theta(z - z_l) / theta(z_j - z_l),

    with L_j(z_l) = delta_jl, so the member with node values v is
    L(z) @ v.  Callers that read many members at shared points take the
    cardinal vectors once and multiply.
    """

    def __init__(self, ev: ThetaEvaluator, k: int, chi: Character, nodes: Sequence[complex]):
        nodes = tuple(complex(z) for z in nodes)
        if k < 1:
            raise ValueError("level k must be >= 1")
        if len(nodes) != k:
            raise ValueError("need exactly k nodes")
        tau = ev.lattice.tau
        a = cmath.log(chi.chi1) / _2PI_I - k / 2.0
        b = (tau * cmath.log(chi.chi1) - cmath.log(chi.chiTau)) / _2PI_I
        b += sum(nodes) - k * (1.0 + tau) / 2.0
        self.ev, self.k, self.chi, self.nodes, self.a, self.b = ev, k, chi, nodes, a, b
        self._nodes = np.array(nodes, dtype=complex)
        self._diag = np.eye(k, dtype=bool)
        off = ~self._diag
        # the differences z_i - z_j row by row, then b: their distances are the collision
        # check, which names the first pair i < j, and the resonance check
        jets, dist = ev.theta_array(np.append((self._nodes[:, None] - self._nodes)[off], b), 0, dist=True)
        pairs = np.argwhere(off)
        collide = np.flatnonzero((dist[:-1] < ev.rho) & (pairs[:, 0] < pairs[:, 1]))
        if collide.size:
            raise DegenerateNodesError(
                "interpolation nodes %d and %d collide modulo the lattice" % tuple(pairs[collide[0]])
            )
        if dist[-1] < ev.rho:
            raise ResonantCharacterError(
                "node sum sits on the resonant locus: |theta(b)| margin %g violated" % ev.rho
            )
        # row j holds theta(z_j - z_l) for l != j and a one on the diagonal
        diffs = np.ones((k, k), dtype=complex)
        diffs[off] = jets[:-1, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product raises below
            self._denoms = jets[-1, 0] * diffs.prod(axis=1)
        if not np.isfinite(self._denoms).all():
            raise ThetaOverflowError("cardinal-basis denominators overflow double precision")

    def cardinal_vector(self, zs) -> np.ndarray:
        """L at each point of zs, shape zs.shape + (k,), from one theta_array call over
        z - z_l and z - z_j + b; a non-finite entry raises ThetaOverflowError naming its point."""
        zs = np.asarray(zs, dtype=complex)
        diff = zs.reshape(-1, 1) - self._nodes
        thetas = self.ev.theta_array(np.concatenate((diff, diff + self.b), axis=1).ravel(), 0)
        tz, shifted = thetas.reshape(len(diff), 2, self.k).transpose(1, 0, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises below
            # row j of a point holds theta(z - z_l) for l != j and a one on the diagonal
            others = np.where(self._diag, 1.0, tz[:, None, :]).prod(axis=2)
            vecs = np.exp(_2PI_I * self.a * diff) * shifted * others / self._denoms
        finite = np.isfinite(vecs).all(axis=1)
        if not finite.all():
            z = complex(zs.ravel()[np.argmin(finite)])
            raise ThetaOverflowError("cardinal vector at %r overflows double precision" % (z,))
        return vecs.reshape(zs.shape + (self.k,))

    def fit(self, values: Sequence[complex]) -> "ThetaInterpolant":
        values = np.array(values, dtype=complex)
        if values.shape != (self.k,):
            raise ValueError("need exactly k node values")
        values.setflags(write=False)
        return ThetaInterpolant(self, values)


@dataclasses.dataclass(frozen=True, eq=False)
class ThetaInterpolant:
    """Member of a level-k character space, given by its values at the basis nodes."""

    basis: ThetaSpaceBasis
    values: np.ndarray

    def __call__(self, zs):
        """The member at zs: a complex for one point, an array of zs's shape for an array."""
        vals = self.basis.cardinal_vector(zs) @ self.values
        return complex(vals) if vals.ndim == 0 else vals


def make_basis(
    ev: ThetaEvaluator,
    k: int,
    chi: Character,
    rng: np.random.Generator,
    margin: float | None = None,
) -> ThetaSpaceBasis:
    """Draw generic nodes (seeded) until the interpolation data is well posed.

    The nodes keep `margin` (default 10 rho) from the lattice.
    """
    margin = 10 * ev.rho if margin is None else margin
    for _ in range(64):
        nodes = [ev.lattice.sample_generic(rng, margin) for _ in range(k)]
        try:
            return ThetaSpaceBasis(ev, k, chi, nodes)
        except (DegenerateNodesError, ResonantCharacterError):
            continue
    raise ResonantCharacterError("no admissible node set found for the character")


@dataclasses.dataclass(frozen=True)
class MembershipReport:
    deviation: float
    qp_residual: float
    scale: float


def membership_test(
    ev: ThetaEvaluator,
    f: Callable[[np.ndarray], np.ndarray],
    k: int,
    chi: Character,
    rng: np.random.Generator,
) -> MembershipReport:
    """Interpolate f from k generic samples and test it at validation points.

    Also samples the quasi-periodicity multipliers directly, so functions
    in the wrong character class cannot pass by interpolation accident.
    f maps an array of points to its values there; it is called once, on
    every point, after the multipliers are formed.  A NaN miss is kept.
    """
    basis = make_basis(ev, k, chi, rng)
    lat, tau = ev.lattice, ev.lattice.tau
    m = max(k, 3)
    val_pts = [lat.sample_generic(rng, 10 * ev.rho) for _ in range(m)]
    shifts = ((1, 0), (0, 1), (1, 1))
    qp_pts = [lat.sample_generic(rng, 10 * ev.rho) for _ in shifts]
    mults = np.array([expected_multiplier(chi, k, z, r, s, tau) for z, (r, s) in zip(qp_pts, shifts)])
    moved = [z + r + s * tau for z, (r, s) in zip(qp_pts, shifts)]
    vals = f(np.array([*basis.nodes, *val_pts, *qp_pts, *moved]))
    values, at_val, at_qp, at_moved = np.split(vals, [k, k + m, k + m + len(shifts)])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite miss is reported
        expect = mults * at_qp
        deviation = np.max(np.abs(at_val - basis.cardinal_vector(val_pts) @ values))
        qp = np.max(np.abs(at_moved - expect))
    scale = np.max(np.abs(np.concatenate((values, at_val, expect))), initial=1e-300)
    return MembershipReport(deviation=float(deviation), qp_residual=float(qp), scale=float(scale))


# -- damped Newton -------------------------------------------------------

# no caller tunes these, so they are constants
_TARGET = 1e-11
_MAX_ITERS = 200
_MAX_HALVINGS = 20
_MAX_RESTARTS = 8
_RESTARTABLE = (NoConvergenceError, InvalidSolutionError, PoleProximityError, ZeroDivisionError)


def damped_newton(system, start, accept=None) -> tuple[np.ndarray, float, int]:
    """Damped least-squares Newton for r(x) = 0; returns (x, max|r|, iterations).

    system(x) returns (r, jacobian): x solves once max|r| <= 1e-11, and
    jacobian() builds J at x from what system computed there.
    The step is the minimum-norm least-squares solution of J s = -r, as the
    Bethe systems have m equations in m + 1 unknowns; it is halved, up to 20
    times, until max|r| drops.  start() draws each start point; accept(x)
    may reject a solution by raising InvalidSolutionError.  A start that
    fails with one of _RESTARTABLE gives way to the next; after 8 starts
    NoConvergenceError is raised.  Any other error propagates.
    """
    last: Exception | None = None
    for _ in range(_MAX_RESTARTS):
        x = start()
        try:
            return _newton_run(system, x, accept)
        except _RESTARTABLE as exc:
            last = exc
    raise NoConvergenceError("all %d Newton restarts failed: %s" % (_MAX_RESTARTS, last))


def _newton_run(system, x, accept):
    res, jacobian = system(x)
    norm = float(np.max(np.abs(res)))
    iterations = 0
    while not norm <= _TARGET:  # a NaN residual never converges
        if iterations == _MAX_ITERS:
            raise NoConvergenceError("no convergence after %d iterations (residual %g)" % (iterations, norm))
        step, *_ = np.linalg.lstsq(jacobian(), -res, rcond=None)
        damp = 1.0
        for _ in range(_MAX_HALVINGS):
            nx = x + damp * step
            try:
                nres, njacobian = system(nx)
            except (PoleProximityError, ThetaOverflowError):
                damp *= 0.5
                continue
            nnorm = float(np.max(np.abs(nres)))
            if nnorm < norm or nnorm <= _TARGET:
                x, res, norm, jacobian = nx, nres, nnorm, njacobian
                break
            damp *= 0.5
        else:
            raise NoConvergenceError("step halving exhausted at residual %g" % norm)
        iterations += 1
    if accept is not None:
        accept(x)
    return x, norm, iterations


# -- difference-equation Bethe solver ----------------------------------


@dataclasses.dataclass(frozen=True)
class BetheSolution:
    a: complex
    roots: tuple[complex, ...]
    residual: float
    iterations: int


# relative tolerance of the character compatibility check
_COMPATIBILITY_TOL = 1e-8


def check_difference_compatibility(
    chi_plus: Character, chi_minus: Character, gamma: complex, m: int
) -> None:
    """Necessary condition chi_plus = chi_minus * exp(-4 pi i gamma m s) on generators."""
    if abs(chi_plus.chi1 - chi_minus.chi1) > _COMPATIBILITY_TOL * max(1.0, abs(chi_plus.chi1)):
        raise CompatibilityError("difference-equation characters disagree on the 1-generator")
    lhs = chi_plus.chiTau * cmath.exp(_2PI_I * gamma * m)
    rhs = chi_minus.chiTau * cmath.exp(-_2PI_I * gamma * m)
    if abs(lhs - rhs) > _COMPATIBILITY_TOL * max(1.0, abs(lhs)):
        raise CompatibilityError("difference-equation characters violate the tau compatibility")


def _bethe_system(ev, A_plus, A_minus, gamma, m):
    """damped_newton's system(x) for the m-root Bethe system, x = (a, w_1..w_m).

    With t_i0 = A_plus(w_i) exp(-gamma a) theta(-gamma) prod_{j != i}
    theta(w_i - w_j - gamma), and t_i1 the same with A_minus and +gamma,
    equation i is the multiplicative (ratio) form F_i = log(-t_i0 / t_i1)
    = 0, principal branch; theta(-gamma) / theta(gamma) = -1 takes up the
    sign.  F_i is linear in a, and Newton takes fewer steps on it than on
    the sum t_i0 + t_i1 of exponentials.  One evaluation makes one degree-1
    theta_array call, over the m * 2n site arguments w_i - (zeros of A_plus
    and A_minus) and the 2m(m - 1) root-pair arguments w_i - w_j -/+ gamma:
    F takes its values, the Jacobian rows dlog t_i0 - dlog t_i1 its
    theta'/theta and its pole guard the distances from the same reduction.
    A ratio that leaves double range raises ThetaOverflowError.
    """
    # argument q is design[q] . x + offset[q]; sign[i, q] is +1 for a theta of
    # t_i0 and -1 for one of t_i1, and -t_i0 / t_i1 carries exp(expo[i] . x)
    design, offset, sign = [], [], []
    expo = np.zeros((m, m + 1), dtype=complex)
    unit = np.eye(m + 1, dtype=complex)
    for i in range(m):
        for side, (poly, shift) in zip((1.0, -1.0), ((A_plus, -gamma), (A_minus, gamma))):
            expo[i, 0] += side * shift
            expo[i, 1 + i] += side * poly.a
            rows = [unit[1 + i]] * poly.order + [unit[1 + i] - unit[1 + j] for j in range(m) if j != i]
            design += rows
            offset += [-zero for zero in poly.zeros] + [shift] * (m - 1)
            sign += [side * unit[1 + i, 1:]] * len(rows)
    design, offset = np.array(design).reshape(-1, m + 1), np.array(offset, dtype=complex)
    sign = np.array(sign).reshape(-1, m).T
    num, den = sign.real > 0, sign.real < 0

    def system(x):
        args = design @ x + offset
        jets, dist = ev.theta_array(args, 1, dist=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite F raises below
            ratio = np.where(num, jets[:, 0], 1.0).prod(axis=1) / np.where(den, jets[:, 0], 1.0).prod(axis=1)
            res = np.log(np.exp(expo @ x) * ratio)
        if not np.isfinite(res).all():  # named by the root of the first non-finite equation
            w = complex(x[1 + int(np.argmin(np.isfinite(res)))])
            raise ThetaOverflowError("Bethe system overflows double precision at root %r" % (w,))

        def jacobian():
            near = int(np.argmin(dist))
            if dist[near] < ev.rho:
                raise PoleProximityError(
                    "pole proximity: Bethe system argument %r is within %g of the period lattice (margin %g)"
                    % (complex(args[near]), dist[near], ev.rho)
                )
            # d F_i / dx = expo[i] + sum_q sign[i, q] theta'/theta(arg_q) design[q]
            return expo + (sign * (jets[:, 1] / jets[:, 0])) @ design

        return res, jacobian

    return system


def solve_difference_bethe(
    ev: ThetaEvaluator,
    A_plus: EllipticPoly,
    A_minus: EllipticPoly,
    gamma: complex,
    m: int,
    rng: np.random.Generator,
) -> BetheSolution:
    """damped_newton on the m-root Bethe system in the unknowns (a, w_1..w_m).

    Each start draws the m roots, then a; a converged root set whose roots
    collide modulo the lattice is rejected and the solver restarts.
    """
    lat = ev.lattice
    check_difference_compatibility(character_of(A_plus, lat.tau), character_of(A_minus, lat.tau), gamma, m)

    def start():
        roots = [lat.sample_generic(rng, 20 * ev.rho) for _ in range(m)]
        return np.array([complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))] + roots)

    x, _, iterations = damped_newton(
        _bethe_system(ev, A_plus, A_minus, gamma, m),
        start,
        accept=lambda x: _check_root_separation(ev, x[1:]),
    )
    a, roots = complex(x[0]), tuple(complex(w) for w in x[1:])
    # the reported residual is the sum form's, independent of the ratio form: the TQ relation at
    # the roots, A_plus(w) Q(w - gamma) + A_minus(w) Q(w + gamma) = 0, where Q(w -/+ gamma) is
    # exp(-/+a gamma) times exp(a w) prod_j theta(w - w_j -/+ gamma).  Each side but its common
    # exp(a w) is one elliptic polynomial, A_plus or A_minus with the zeros w_j +/- gamma added
    sides = [EllipticPoly(p.a, p.zeros + tuple(w + shift for w in roots))
             for p, shift in ((A_plus, gamma), (A_minus, -gamma))]
    terms = eval_elliptic_polys(ev, sides, roots) * np.array([[cmath.exp(-gamma * a)], [cmath.exp(gamma * a)]])
    residual = float(np.max(np.abs(terms.sum(axis=0)))) / max(float(np.max(np.abs(terms))), 1e-300)
    return BetheSolution(a, roots, residual, iterations)


def _check_root_separation(ev, roots):
    lat = ev.lattice
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if lat.dist_to_lattice(roots[i] - roots[j]) < ev.rho:
                raise InvalidSolutionError("Bethe roots %d and %d collide modulo the lattice" % (i, j))


def difference_eigenvalue(
    ev: ThetaEvaluator,
    A_plus: EllipticPoly,
    A_minus: EllipticPoly,
    gamma: complex,
    sol: BetheSolution,
) -> Callable:
    """eps(z) = (A_plus(z) Q(z-gamma) + A_minus(z) Q(z+gamma)) / Q(z).

    Q keeps the solver's raw roots: reducing a root to the cell by a tau
    translate multiplies Q by an exponential and changes its character.
    """
    q = EllipticPoly(sol.a, sol.roots)

    def eps(z):  # a complex at a point, an array at an array of points, from one array call
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()  # array arithmetic at one point too, so a point's value is its row's in a stack
        polys = eval_elliptic_polys(ev, (q, A_plus, A_minus), np.stack([flat, flat - gamma, flat + gamma]))
        (qz, q_down, q_up), ap, am = polys[0], polys[1, 0], polys[2, 0]
        # the ratios of Q first: A_plus(z) Q(z - gamma) alone can overflow where eps does not
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite value raises below
            val = ap * (q_down / qz) + am * (q_up / qz)
        if not np.isfinite(val).all():
            z = complex(flat[np.argmin(np.isfinite(val))])
            raise ThetaOverflowError("the difference eigenvalue at %r leaves double range" % (z,))
        return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)

    return eps


def induced_eigenvalue_character(
    chi_plus: Character, gamma: complex, m: int
) -> Character:
    """Character of eps when the difference equation holds: chi_plus shifted by gamma*m."""
    return Character(chi_plus.chi1, chi_plus.chiTau * cmath.exp(_2PI_I * gamma * m))
