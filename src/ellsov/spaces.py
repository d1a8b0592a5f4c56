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

from .theta import Lattice, PoleProximityError, ThetaEvaluator

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
    "eval_elliptic_poly",
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
    return chi.value(r, s) * cmath.exp(-1j * _PI * k * (s * s * tau + 2 * s * z))


def multiplier_deviation(ev: ThetaEvaluator, f: Callable, k: int, chi: Character, z: complex) -> float:
    """Largest relative miss of f(z + w) / f(z), w = 1 and tau, against a level-k chi."""
    tau = ev.lattice.tau
    dev = 0.0
    for (r, s) in ((1, 0), (0, 1)):
        expect = expected_multiplier(chi, k, z, r, s, tau)
        dev = max(dev, abs(f(z + r + s * tau) / f(z) - expect) / abs(expect))
    return dev


@dataclasses.dataclass(frozen=True)
class EllipticPoly:
    """exp(a*z) * prod_j theta(z - w_j); `make` reduces the zeros to the cell."""

    a: complex
    zeros: tuple[complex, ...]

    @staticmethod
    def make(lattice: Lattice, a: complex, zeros: Sequence[complex]) -> "EllipticPoly":
        red = tuple(lattice.reduce(w)[0] for w in zeros)
        return EllipticPoly(complex(a), red)

    @property
    def order(self) -> int:
        return len(self.zeros)


def eval_elliptic_poly(ev: ThetaEvaluator, p: EllipticPoly, z: complex) -> complex:
    val = cmath.exp(p.a * z)
    for w in p.zeros:
        val *= ev.theta(z - w)
    return val


def character_of(p: EllipticPoly, tau: complex) -> Character:
    """Character of the factored form at its level k = order."""
    k = p.order
    sgn = (-1.0) ** k
    chi1 = sgn * cmath.exp(p.a)
    chiTau = sgn * cmath.exp(p.a * tau + _2PI_I * sum(p.zeros))
    return Character(chi1, chiTau)


# -- interpolation -----------------------------------------------------


# points whose cardinal vector one basis keeps; a fixed bound, so a
# long-lived interpolant cannot grow memory without limit
_CARDINAL_CACHE_SIZE = 1024


class ThetaSpaceBasis:
    """Cardinal basis of a level-k character space over generic nodes.

    The basis owns the interpolation data, computed once: the exponent
    a, the shift b, theta(b) and the k(k-1) node-difference thetas.
    cardinal_vector(z) returns the k cardinal functions at z,

        L_j(z) = exp(2 pi i a (z - z_j)) theta(z - z_j + b) / theta(b)
                 * prod_{l != j} theta(z - z_l) / theta(z_j - z_l),

    with L_j(z_l) = delta_jl, so the member with node values v is
    v . L(z).  L(z) is memoized per point, which lets every interpolant
    fitted on this basis share one set of theta evaluations per point.
    """

    def __init__(self, ev: ThetaEvaluator, k: int, chi: Character, nodes: Sequence[complex]):
        nodes = tuple(complex(z) for z in nodes)
        a, b = _interpolation_data(ev, k, chi, nodes)
        self.ev = ev
        self.k = k
        self.chi = chi
        self.nodes = nodes
        self.a = a
        self.b = b
        self._nodes = np.array(nodes, dtype=complex)
        self._diag = np.eye(k, dtype=bool)
        diffs = np.array(
            [[1.0 if l == j else ev.theta(zj - zl) for l, zl in enumerate(nodes)]
             for j, zj in enumerate(nodes)],
            dtype=complex,
        )
        self._denoms = ev.theta(b) * diffs.prod(axis=1)
        self._cache: dict[complex, np.ndarray] = {}

    def cardinal_vector(self, z: complex) -> np.ndarray:
        """L(z), the k cardinal functions at z (read-only, shared)."""
        z = complex(z)
        vec = self._cache.get(z)
        if vec is not None:
            return vec
        ev = self.ev
        tz = np.array([ev.theta(z - zl) for zl in self.nodes], dtype=complex)
        shifted = np.array([ev.theta(z - zj + self.b) for zj in self.nodes], dtype=complex)
        # row j holds theta(z - z_l) for l != j and a one on the diagonal
        others = np.where(self._diag, 1.0, tz).prod(axis=1)
        vec = np.exp(_2PI_I * self.a * (z - self._nodes)) * shifted * others / self._denoms
        vec.setflags(write=False)
        if len(self._cache) >= _CARDINAL_CACHE_SIZE:
            del self._cache[next(iter(self._cache))]
        self._cache[z] = vec
        return vec

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

    def __call__(self, z: complex) -> complex:
        return complex(self.values @ self.basis.cardinal_vector(z))


def _interpolation_data(ev: ThetaEvaluator, k: int, chi: Character, nodes: Sequence[complex]):
    if k < 1:
        raise ValueError("level k must be >= 1")
    if len(nodes) != k:
        raise ValueError("need exactly k nodes")
    lat = ev.lattice
    tau = lat.tau
    for i in range(k):
        for j in range(i + 1, k):
            if lat.dist_to_lattice(nodes[i] - nodes[j]) < ev.rho:
                raise DegenerateNodesError(
                    "interpolation nodes %d and %d collide modulo the lattice" % (i, j)
                )
    a = cmath.log(chi.chi1) / _2PI_I - k / 2.0
    b = (tau * cmath.log(chi.chi1) - cmath.log(chi.chiTau)) / _2PI_I
    b += sum(nodes) - k * (1.0 + tau) / 2.0
    if lat.dist_to_lattice(b) < ev.rho:
        raise ResonantCharacterError(
            "node sum sits on the resonant locus: |theta(b)| margin %g violated" % ev.rho
        )
    return a, b


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
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol * self.scale and self.qp_residual <= self.tol * self.scale


def membership_test(
    ev: ThetaEvaluator,
    f: Callable[[complex], complex],
    k: int,
    chi: Character,
    rng: np.random.Generator,
    tol: float = 1e-8,
) -> MembershipReport:
    """Interpolate f from k generic samples and test it at validation points.

    Also samples the quasi-periodicity multipliers directly, so functions
    in the wrong character class cannot pass by interpolation accident.
    """
    basis = make_basis(ev, k, chi, rng)
    values = [f(z) for z in basis.nodes]
    interp = basis.fit(values)
    scale = max(max(abs(v) for v in values), 1e-300)
    deviation = 0.0
    for _ in range(max(k, 3)):
        z = ev.lattice.sample_generic(rng, 10 * ev.rho)
        deviation = max(deviation, abs(f(z) - interp(z)))
        scale = max(scale, abs(f(z)))
    qp = 0.0
    tau = ev.lattice.tau
    for (r, s) in ((1, 0), (0, 1), (1, 1)):
        z = ev.lattice.sample_generic(rng, 10 * ev.rho)
        expect = expected_multiplier(chi, k, z, r, s, tau) * f(z)
        qp = max(qp, abs(f(z + r + s * tau) - expect))
        scale = max(scale, abs(expect))
    return MembershipReport(deviation=deviation, qp_residual=qp, scale=scale, tol=tol)


# -- damped Newton -------------------------------------------------------

# no caller tunes these, so they are constants
_TARGET = 1e-11
_MAX_ITERS = 200
_MAX_HALVINGS = 20
_MAX_RESTARTS = 8
_RESTARTABLE = (NoConvergenceError, InvalidSolutionError, PoleProximityError, ZeroDivisionError)


def damped_newton(system, start, accept=None) -> tuple[np.ndarray, float, int]:
    """Damped least-squares Newton for r(x) = 0; returns (x, max|r| / scale, iterations).

    system(x) returns (r, scale, jacobian): x solves once max|r| <= 1e-11 *
    scale, and jacobian() builds J at x from what system computed there.
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
    res, scale, jacobian = system(x)
    norm = float(np.max(np.abs(res)))
    iterations = 0
    while not norm <= _TARGET * scale:  # a NaN residual never converges
        if iterations == _MAX_ITERS:
            raise NoConvergenceError("no convergence after %d iterations (residual %g)" % (iterations, norm))
        step, *_ = np.linalg.lstsq(jacobian(), -res, rcond=None)
        damp = 1.0
        for _ in range(_MAX_HALVINGS):
            nx = x + damp * step
            try:
                nres, nscale, njacobian = system(nx)
            except PoleProximityError:
                damp *= 0.5
                continue
            nnorm = float(np.max(np.abs(nres)))
            if nnorm < norm or nnorm <= _TARGET * nscale:
                x, res, scale, norm, jacobian = nx, nres, nscale, nnorm, njacobian
                break
            damp *= 0.5
        else:
            raise NoConvergenceError("step halving exhausted at residual %g" % norm)
        iterations += 1
    if accept is not None:
        accept(x)
    return x, norm / scale, iterations


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


def _bethe_terms(ev, A_plus, A_minus, gamma, a, roots):
    """The summands (t1_i, t2_i) of equation i, with products over all roots (j = i: theta(-/+gamma)).

    Scalar theta_taylor throughout: solve_difference_bethe certifies the
    accepted point with it, independently of the batched Newton system.
    """
    ea_m = cmath.exp(-gamma * a)
    ea_p = cmath.exp(gamma * a)
    th_m, th_p = ev.theta(0j - gamma), ev.theta(0j + gamma)
    terms = []
    for i, wi in enumerate(roots):
        t1 = eval_elliptic_poly(ev, A_plus, wi) * ea_m
        t2 = eval_elliptic_poly(ev, A_minus, wi) * ea_p
        for j, wj in enumerate(roots):
            t1 *= th_m if j == i else ev.theta(wi - wj - gamma)
            t2 *= th_p if j == i else ev.theta(wi - wj + gamma)
        terms.append((t1, t2))
    return terms


def _bethe_system(ev, A_plus, A_minus, gamma, m):
    """damped_newton's system(x) for the m-root Bethe system, x = (a, w_1..w_m).

    Equation i is t_i0 + t_i1 = 0, where t_i0 = A_plus(w_i) exp(-gamma a)
    theta(-gamma) prod_{j != i} theta(w_i - w_j - gamma), and t_i1 is the
    same with A_minus and +gamma.  One evaluation makes one degree-1
    theta_array call, over the m * 2n site arguments w_i - (zeros of A_plus
    and A_minus) and the 2m(m - 1) root-pair arguments w_i - w_j -/+ gamma.
    The residual takes the values of that batch and the Jacobian its
    theta'/theta.  theta(-/+gamma) is evaluated once, here.
    """
    # argument q is design[q] . x + offset[q]; member[g, q] marks the thetas of
    # t_g, g = 2i + c, and t_g carries exp(expo[g] . x) and the constant const[g]
    design, offset, member = [], [], []
    expo = np.zeros((2 * m, m + 1), dtype=complex)
    unit = np.eye(m + 1, dtype=complex)
    for i in range(m):
        for c, (poly, shift) in enumerate(((A_plus, -gamma), (A_minus, gamma))):
            g = 2 * i + c
            expo[g, 0], expo[g, 1 + i] = shift, poly.a
            for zero in poly.zeros:
                design.append(unit[1 + i])
                offset.append(-zero)
                member.append(g)
            for j in range(m):
                if j != i:
                    design.append(unit[1 + i] - unit[1 + j])
                    offset.append(shift)
                    member.append(g)
    design, offset = np.array(design).reshape(-1, m + 1), np.array(offset, dtype=complex)
    member = np.arange(2 * m)[:, None] == np.array(member, dtype=int)
    const = np.tile([ev.theta(0j - gamma), ev.theta(0j + gamma)], m)
    lat, rho = ev.lattice, ev.rho

    def system(x):
        args = design @ x + offset
        jets = ev.theta_array(args, 1)
        t = np.exp(expo @ x) * const * np.where(member, jets[:, 0], 1.0).prod(axis=1)
        scale = max(float(np.abs(t).max()), 1e-300)

        def jacobian():
            dist = lat.dist_to_lattice_array(args)
            near = int(np.argmin(dist))
            if dist[near] < rho:
                raise PoleProximityError(
                    "pole proximity: Bethe system argument %r is within %g of the period lattice (margin %g)"
                    % (complex(args[near]), dist[near], rho)
                )
            # d t_g / dx = t_g (expo[g] + sum_q member[g, q] theta'/theta(arg_q) design[q])
            dlog = expo + (member * (jets[:, 1] / jets[:, 0])) @ design
            return (t[:, None] * dlog).reshape(m, 2, m + 1).sum(axis=1)

        return t.reshape(m, 2).sum(axis=1), scale, jacobian

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
    # the reported residual comes from the scalar kernel at the accepted point
    terms = _bethe_terms(ev, A_plus, A_minus, gamma, a, roots)
    scale = max(max(abs(t1), abs(t2)) for t1, t2 in terms)
    residual = max(abs(t1 + t2) for t1, t2 in terms) / max(scale, 1e-300)
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
) -> Callable[[complex], complex]:
    """eps(z) = (A_plus(z) Q(z-gamma) + A_minus(z) Q(z+gamma)) / Q(z).

    Q keeps the solver's raw roots: reducing a root to the cell by a tau
    translate multiplies Q by an exponential and changes its character.
    """
    q = EllipticPoly(sol.a, sol.roots)

    def eps(z: complex) -> complex:
        qz = eval_elliptic_poly(ev, q, z)
        return (
            eval_elliptic_poly(ev, A_plus, z) * eval_elliptic_poly(ev, q, z - gamma)
            + eval_elliptic_poly(ev, A_minus, z) * eval_elliptic_poly(ev, q, z + gamma)
        ) / qz

    return eps


def induced_eigenvalue_character(
    chi_plus: Character, gamma: complex, m: int
) -> Character:
    """Character of eps when the difference equation holds: chi_plus shifted by gamma*m."""
    return Character(chi_plus.chi1, chi_plus.chiTau * cmath.exp(_2PI_I * gamma * m))
