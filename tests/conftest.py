import math

import numpy as np
import pytest

from ellsov import irf
from ellsov.spaces import EllipticPoly
from ellsov.theta import Lattice, ThetaEvaluator

TAU = 0.31 + 1.07j


@pytest.fixture
def lattice():
    return Lattice(TAU)


@pytest.fixture
def ev(lattice):
    return ThetaEvaluator(lattice)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


def sample_point(rng, lattice, margin=5e-2, spread=1.0):
    """Generic point in (a neighborhood of) the fundamental cell, away from the lattice."""
    for _ in range(1000):
        z = complex(
            rng.uniform(-spread, 1.0 + spread),
            rng.uniform(-spread, 1.0 + spread) * lattice.tau.imag,
        )
        if lattice.dist_to_lattice(z) > margin:
            return z
    raise RuntimeError("sampling failed")


def hexes(values):
    """Real and imaginary parts as float.hex strings, so signed zeros count."""
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


def dense(blocks):
    """The 2^n-square transfer matrix [[0, B], [C, 0]] of its parity blocks (B, C), in grid order."""
    b, c = blocks
    half = len(b)
    even, odd = irf._parity_order(half.bit_length())  # half = 2^(n-1)
    t = np.zeros((2 * half, 2 * half), dtype=complex)
    t[np.ix_(even, odd)], t[np.ix_(odd, even)] = b, c
    return t


def sigma(ev, lam, z):
    """sigma_lambda(z) = theta(lam - z) theta'(0) / (theta(z) theta(lam)), behind the kernel's pole guards."""
    ev._require_off_lattice(z, "z")
    ev._require_off_lattice(lam, "lambda")
    return ev.theta(lam - z) * ev.dtheta0() / (ev.theta(z) * ev.theta(lam))


def sigma_dlambda(ev, lam, z):
    """d/dlambda of sigma_lambda(z), i.e. sigma_lambda(z)*(zeta_bar(lam-z) - zeta_bar(lam)).

    Evaluated as theta'(0)*(theta'(lam-z) - theta(lam-z)*zeta_bar(lam)) /
    (theta(z)*theta(lam)), which is the same function without the
    0 * inf ambiguity when lam - z approaches the lattice.
    """
    jet = ev.theta_taylor(lam - z, 1)
    zl = ev.zeta_bar(lam)
    return complex(ev.dtheta0() * (jet[1] - jet[0] * zl) / (ev.theta(z) * ev.theta(lam)))


def elliptic_poly(lattice, a, zeros):
    """The EllipticPoly exp(a z) prod_j theta(z - w_j) with its zeros reduced to the cell."""
    return EllipticPoly(complex(a), tuple(lattice.reduce(w)[0] for w in zeros))


def membership_passes(report, tol=1e-8):
    """A spaces.membership_test report passes: both residuals within tol of its scale."""
    return report.deviation <= tol * report.scale and report.qp_residual <= tol * report.scale


def elliptic_poly_logderiv(ev, p, z):
    """p'(z)/p(z) = a + sum_j zeta_bar(z - w_j), in closed form."""
    val = p.a
    for w in p.zeros:
        val += ev.zeta_bar(z - w)
    return val


# Gauss-Legendre nodes per cell edge in count_zeros
_ZERO_COUNT_NODES = 160


def count_zeros(ev, p):
    """(1/2 pi i) * contour integral of p'/p over the boundary of a cell.

    The logarithmic derivative is in closed form, so Gauss-Legendre on the
    four edges converges fast as long as no zero sits near the boundary;
    the base corner is shifted away from the zeros before integrating.
    """
    lat = ev.lattice
    tau = lat.tau
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
    xs, wts = np.polynomial.legendre.leggauss(_ZERO_COUNT_NODES)
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
    return total / (2j * math.pi)


def count_theta_calls(monkeypatch):
    """Wrap both theta kernels; returns {name: [calls, points]}, updated live."""
    counts = {}
    for name in ("theta_taylor", "theta_array"):
        original = getattr(ThetaEvaluator, name)
        counts[name] = [0, 0]

        def counting(self, z, degree, _original=original, _count=counts[name]):
            _count[0] += 1
            _count[1] += np.size(z)
            return _original(self, z, degree)

        monkeypatch.setattr(ThetaEvaluator, name, counting)
    return counts
