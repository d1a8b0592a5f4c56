"""Shared model data: lattice, step eta, and the weighted sites."""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from .theta import Lattice, ThetaEvaluator

__all__ = ["ParameterError", "ModelParams"]


class ParameterError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Sites (z_i, Lambda_i) on a lattice with dynamical step eta.

    rho is the genericity margin: distances to the period lattice (and
    site collisions modulo it) below rho are treated as degenerate.
    """

    lattice: Lattice
    eta: complex
    zs: tuple[complex, ...]
    lams: tuple[int, ...]
    rho: float = 1e-6
    trunc_tol: float = 1e-16

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "zs", tuple(complex(z) for z in self.zs))
        object.__setattr__(self, "lams", tuple(int(l) for l in self.lams))
        if not cmath.isfinite(self.eta):
            raise ParameterError("eta = %r is not finite" % (self.eta,))
        for i, z in enumerate(self.zs):
            if not cmath.isfinite(z):
                raise ParameterError("site %d coordinate %r is not finite" % (i, z))
        if len(self.zs) != len(self.lams):
            raise ParameterError("sites and weights must have equal length")
        if len(self.zs) == 0:
            raise ParameterError("at least one site is required")
        if any(l < 1 for l in self.lams):
            raise ParameterError("site weights must be positive integers")
        if self.lattice.dist_to_lattice(self.eta) < self.rho:
            raise ParameterError("eta must stay off the period lattice")

    @property
    def n(self) -> int:
        return len(self.zs)

    def evaluator(self) -> ThetaEvaluator:
        return ThetaEvaluator(self.lattice, trunc_tol=self.trunc_tol, rho=self.rho)

    def validate_distinct_sites(self) -> None:
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.lattice.dist_to_lattice(self.zs[i] - self.zs[j]) < self.rho:
                    raise ParameterError("sites %d and %d collide modulo the lattice" % (i, j))

    def validate_for_irf(self) -> None:
        """Hypotheses of both antiperiodic transfer-matrix constructions."""
        self.validate_distinct_sites()
        if any(l != 1 for l in self.lams):
            raise ParameterError("IRF tasks require every site weight equal to 1")
        if self.n % 2 == 0:
            raise ParameterError("IRF tasks require an odd number of sites")
        # one array pass over the pair shifts, the denominators' lambda = k eta (k odd, k <= n)
        # and 2 eta; the error names the first (i, j) of the loop over i, j, ell
        pairs = [(i, j) for i in range(self.n) for j in range(self.n) if i != j]
        shifts = [self.zs[i] - self.zs[j] - 2.0 * ell * self.eta for i, j in pairs for ell in (-1, 0, 1)]
        shifts += [k * self.eta for k in range(1, self.n + 1, 2)] + [2 * self.eta]
        dist = self.lattice.dist_to_lattice_array(np.array(shifts, dtype=complex))
        close = np.flatnonzero(dist < self.rho)
        if close.size and close[0] < 3 * len(pairs):
            i, j = pairs[close[0] // 3]
            raise ParameterError("sites %d and %d are 2*eta-resonant modulo the lattice" % (i, j))
        if close.size and close[0] < len(shifts) - 1:
            raise ParameterError("dynamical parameter lambda is within rho of a lattice point")
        if close.size:
            raise ParameterError("shift 2 eta sits within rho of the lattice")

    def validate_even_weight_sum(self) -> None:
        if sum(self.lams) % 2 != 0:
            raise ParameterError("the total weight must be even")

    def sample_generic(
        self, rng: np.random.Generator, margin: float | None = None, avoid=()
    ) -> complex:
        """Lattice.sample_generic with the default margin 100 rho."""
        return self.lattice.sample_generic(rng, self.rho * 100 if margin is None else margin, avoid)
