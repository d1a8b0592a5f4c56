"""Finite-dimensional spaces of quasi-periodic entire functions.

A level-k space is cut out by a character chi of the lattice: its
members satisfy

    f(z + r + s*tau) = chi(r + s*tau) * exp(-pi*i*k*(s^2*tau + 2*s*z)) * f(z)

and form a k-dimensional space (k >= 1).  Every member factors as
exp(a*z) * prod_j theta(z - w_j) with k zeros per cell; the zero sum is
pinned modulo the lattice by the character.  This module provides that
factored form, node-based interpolation, a membership test, zero
counting by contour integration of the logarithmic derivative, and a
damped least-squares Newton solver for the Bethe system attached to the
scalar difference equation

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
    "elliptic_poly_logderiv",
    "character_of",
    "phi_of_character",
    "expected_multiplier",
    "interpolate",
    "make_basis",
    "membership_test",
    "count_zeros",
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

    def inverse(self) -> "Character":
        return Character(1.0 / self.chi1, 1.0 / self.chiTau)


def phi_of_character(chi: Character, tau: complex) -> complex:
    """phi(chi) = (log chiTau - tau log chi1) / (2 pi i), principal branches."""
    return (cmath.log(chi.chiTau) - tau * cmath.log(chi.chi1)) / _2PI_I


def expected_multiplier(chi: Character, k: int, z: complex, r: int, s: int, tau: complex) -> complex:
    """Multiplier of a level-k, character-chi function under z -> z + r + s*tau."""
    return chi.value(r, s) * cmath.exp(-1j * _PI * k * (s * s * tau + 2 * s * z))


@dataclasses.dataclass(frozen=True)
class EllipticPoly:
    """exp(a*z) * prod_j theta(z - w_j), zeros stored reduced to the cell."""

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


def elliptic_poly_logderiv(ev: ThetaEvaluator, p: EllipticPoly, z: complex) -> complex:
    """p'(z)/p(z) = a + sum_j zeta_bar(z - w_j), in closed form."""
    val = p.a
    for w in p.zeros:
        val += ev.zeta_bar(z - w)
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


def interpolate(
    ev: ThetaEvaluator,
    k: int,
    chi: Character,
    nodes: Sequence[complex],
    values: Sequence[complex],
) -> ThetaInterpolant:
    return ThetaSpaceBasis(ev, k, chi, nodes).fit(values)


def sample_generic(
    rng: np.random.Generator,
    lattice: Lattice,
    margin: float,
    reject: Callable[[complex], bool] | None = None,
) -> complex:
    for _ in range(4000):
        z = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * lattice.tau.imag)
        if lattice.dist_to_lattice(z) < margin:
            continue
        if reject is not None and reject(z):
            continue
        return z
    raise SpacesError("could not sample a generic point")


def make_basis(
    ev: ThetaEvaluator, k: int, chi: Character, rng: np.random.Generator
) -> ThetaSpaceBasis:
    """Draw generic nodes (seeded) until the interpolation data is well posed."""
    for _ in range(64):
        nodes = [sample_generic(rng, ev.lattice, 10 * ev.rho) for _ in range(k)]
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
        z = sample_generic(rng, ev.lattice, 10 * ev.rho)
        deviation = max(deviation, abs(f(z) - interp(z)))
        scale = max(scale, abs(f(z)))
    qp = 0.0
    tau = ev.lattice.tau
    for (r, s) in ((1, 0), (0, 1), (1, 1)):
        z = sample_generic(rng, ev.lattice, 10 * ev.rho)
        expect = expected_multiplier(chi, k, z, r, s, tau) * f(z)
        qp = max(qp, abs(f(z + r + s * tau) - expect))
        scale = max(scale, abs(expect))
    return MembershipReport(deviation=deviation, qp_residual=qp, scale=scale, tol=tol)


def count_zeros(
    ev: ThetaEvaluator,
    p: EllipticPoly,
    base: complex | None = None,
    npts: int = 160,
) -> complex:
    """(1/2 pi i) * contour integral of p'/p over the cell boundary from `base`.

    The logarithmic derivative is in closed form, so Gauss-Legendre on the
    four edges converges fast as long as no zero sits near the boundary;
    the base corner is shifted away from the zeros before integrating.
    """
    lat = ev.lattice
    tau = lat.tau
    if base is None:
        base = 0.2511 + 0.1873 * tau
        # nudge the cell corner until all zeros stay clear of the edges
        for _ in range(40):
            ok = True
            for w in p.zeros:
                z0, _, _ = lat.reduce(w - base)
                if min(z0.real, 1.0 - z0.real) < 0.04 or min(
                    z0.imag, tau.imag - z0.imag
                ) < 0.04 * tau.imag:
                    ok = False
                    break
            if ok:
                break
            base += 0.0371 + 0.0159 * tau
    xs, wts = np.polynomial.legendre.leggauss(npts)
    xs = 0.5 * (xs + 1.0)
    wts = 0.5 * wts
    total = 0j
    for start, step in (
        (base, 1.0),
        (base + 1.0, tau),
        (base + 1.0 + tau, -1.0),
        (base + tau, -tau),
    ):
        for x, w in zip(xs, wts):
            total += w * step * elliptic_poly_logderiv(ev, p, start + x * step)
    return total / _2PI_I


# -- difference-equation Bethe solver ----------------------------------


@dataclasses.dataclass(frozen=True)
class BetheSolution:
    a: complex
    roots: tuple[complex, ...]
    residual: float
    iterations: int

    def q_poly(self, lattice: Lattice) -> EllipticPoly:
        return EllipticPoly.make(lattice, self.a, self.roots)


def check_difference_compatibility(
    chi_plus: Character, chi_minus: Character, gamma: complex, m: int, tol: float = 1e-8
) -> None:
    """Necessary condition chi_plus = chi_minus * exp(-4 pi i gamma m s) on generators."""
    if abs(chi_plus.chi1 - chi_minus.chi1) > tol * max(1.0, abs(chi_plus.chi1)):
        raise CompatibilityError("difference-equation characters disagree on the 1-generator")
    lhs = chi_plus.chiTau * cmath.exp(_2PI_I * gamma * m)
    rhs = chi_minus.chiTau * cmath.exp(-_2PI_I * gamma * m)
    if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
        raise CompatibilityError("difference-equation characters violate the tau compatibility")


def _bethe_residuals(ev, A_plus, A_minus, gamma, a, roots):
    """Residual form summed over all roots, including j = i."""
    m = len(roots)
    res = np.zeros(m, dtype=complex)
    scale = 0.0
    ea_m = cmath.exp(-gamma * a)
    ea_p = cmath.exp(gamma * a)
    for i in range(m):
        t1 = eval_elliptic_poly(ev, A_plus, roots[i]) * ea_m
        t2 = eval_elliptic_poly(ev, A_minus, roots[i]) * ea_p
        for j in range(m):
            t1 *= ev.theta(roots[i] - roots[j] - gamma)
            t2 *= ev.theta(roots[i] - roots[j] + gamma)
        res[i] = t1 + t2
        scale = max(scale, abs(t1), abs(t2))
    return res, max(scale, 1e-300)


def _bethe_jacobian(ev, A_plus, A_minus, gamma, a, roots):
    m = len(roots)
    jac = np.zeros((m, m + 1), dtype=complex)
    ea_m = cmath.exp(-gamma * a)
    ea_p = cmath.exp(gamma * a)
    for i in range(m):
        t1 = eval_elliptic_poly(ev, A_plus, roots[i]) * ea_m
        t2 = eval_elliptic_poly(ev, A_minus, roots[i]) * ea_p
        for j in range(m):
            t1 *= ev.theta(roots[i] - roots[j] - gamma)
            t2 *= ev.theta(roots[i] - roots[j] + gamma)
        jac[i, 0] = -gamma * t1 + gamma * t2
        for l in range(m):
            if l == i:
                d1 = elliptic_poly_logderiv(ev, A_plus, roots[i])
                d2 = elliptic_poly_logderiv(ev, A_minus, roots[i])
                for j in range(m):
                    if j != i:
                        d1 += ev.zeta_bar(roots[i] - roots[j] - gamma)
                        d2 += ev.zeta_bar(roots[i] - roots[j] + gamma)
                # the j = i factor theta(-gamma)/theta(gamma) is constant in roots[i]
                jac[i, 1 + l] = t1 * d1 + t2 * d2
            else:
                jac[i, 1 + l] = -t1 * ev.zeta_bar(roots[i] - roots[l] - gamma) - t2 * ev.zeta_bar(
                    roots[i] - roots[l] + gamma
                )
    return jac


def solve_difference_bethe(
    ev: ThetaEvaluator,
    A_plus: EllipticPoly,
    A_minus: EllipticPoly,
    gamma: complex,
    m: int,
    rng: np.random.Generator,
    target: float = 1e-11,
    max_iters: int = 200,
    max_restarts: int = 8,
) -> BetheSolution:
    """Damped least-squares Newton for the m-root Bethe system.

    The system has m equations in the m+1 unknowns (a, w_1..w_m), so the
    Newton step is the minimum-norm least-squares solution; steps are
    halved (up to 20 times) whenever the residual does not drop.
    """
    tau = ev.lattice.tau
    chi_p = character_of(A_plus, tau)
    chi_m = character_of(A_minus, tau)
    check_difference_compatibility(chi_p, chi_m, gamma, m)
    lat = ev.lattice
    last_exc: Exception | None = None
    for _ in range(max_restarts):
        roots = np.array(
            [sample_generic(rng, lat, 20 * ev.rho) for _ in range(m)], dtype=complex
        )
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        try:
            return _newton_run(ev, A_plus, A_minus, gamma, a, roots, target, max_iters)
        except (NoConvergenceError, InvalidSolutionError, PoleProximityError, ZeroDivisionError) as exc:
            last_exc = exc
    raise NoConvergenceError("all Bethe restarts failed: %s" % last_exc)


def _newton_run(ev, A_plus, A_minus, gamma, a, roots, target, max_iters):
    m = len(roots)
    res, scale = _bethe_residuals(ev, A_plus, A_minus, gamma, a, roots)
    norm = float(np.max(np.abs(res)))
    for it in range(max_iters):
        if norm <= target * scale:
            _check_root_separation(ev, roots, gamma)
            return BetheSolution(
                a=complex(a), roots=tuple(complex(w) for w in roots), residual=norm / scale,
                iterations=it,
            )
        jac = _bethe_jacobian(ev, A_plus, A_minus, gamma, a, roots)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        damp = 1.0
        for _ in range(20):
            na = a + damp * step[0]
            nroots = roots + damp * step[1:]
            try:
                nres, nscale = _bethe_residuals(ev, A_plus, A_minus, gamma, na, nroots)
            except PoleProximityError:
                damp *= 0.5
                continue
            nnorm = float(np.max(np.abs(nres)))
            if nnorm < norm or nnorm <= target * nscale:
                a, roots, res, scale, norm = na, nroots, nres, nscale, nnorm
                break
            damp *= 0.5
        else:
            raise NoConvergenceError("step halving exhausted at residual %g" % norm)
    if norm <= target * scale:
        _check_root_separation(ev, roots, gamma)
        return BetheSolution(
            a=complex(a), roots=tuple(complex(w) for w in roots), residual=norm / scale,
            iterations=max_iters,
        )
    raise NoConvergenceError("no convergence after %d iterations (residual %g)" % (max_iters, norm))


def _check_root_separation(ev, roots, gamma):
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
    """eps(z) = (A_plus(z) Q(z-gamma) + A_minus(z) Q(z+gamma)) / Q(z)."""
    q = sol.q_poly(ev.lattice)

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
