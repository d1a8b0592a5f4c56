import cmath
import math

import numpy as np
import pytest

from ellsov import irf, jets
from ellsov import theta as theta_module
from ellsov.spaces import EllipticPoly
from ellsov.theta import Lattice, PoleProximityError, ThetaEvaluator, TruncationError

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


def theta_value(ev, z):
    """theta(z) as a Python complex from a one-point theta_array call; each row of a
    batch is the same bits, so this is the value every batched caller reads."""
    return ev.theta_array(np.array([z], dtype=complex), 0)[0, 0].item()


def hexes(values):
    """Real and imaginary parts as float.hex strings, so signed zeros count."""
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


def grid_shifted(grid, idx, i, dm):
    """Index of the S0Grid point idx with m_i changed by dm, None if off the grid."""
    m = grid.points[idx][i] + dm
    return idx + dm * grid.strides[i] if 0 <= m <= grid.params.lams[i] else None


def dense(blocks):
    """The 2^n-square transfer matrix [[0, B], [C, 0]] of its parity blocks (B, C), in grid order."""
    b, c = blocks
    half = len(b)
    even, odd = irf._parity_order(half.bit_length())  # half = 2^(n-1)
    t = np.zeros((2 * half, 2 * half), dtype=complex)
    t[np.ix_(even, odd)], t[np.ix_(odd, even)] = b, c
    return t


# The scalar Taylor kernel as it was before the (tau, degree) term tables: every
# term's constants are recomputed on each call.  It is the oracle of theta_array's
# jets, and its stop rule and errors are the ones theta_array keeps.


def reference_series(ev, z0, degree):
    """Taylor coefficients at a reduced point, and the number of terms summed."""
    tau = ev.lattice.tau
    coefs = [0j] * (degree + 1)
    im0 = abs(z0.imag)
    log_tol = math.log(ev.trunc_tol)
    max_term = 0.0
    converged = False
    tail = math.inf
    for j in range(theta_module._MAX_TERMS):
        half = j + 0.5
        base = 1j * math.pi * tau * half * half
        ph = 1j * math.pi * (2 * j + 1)
        ep = cmath.exp(base + ph * z0)
        em = cmath.exp(base - ph * z0)
        sign = -1.0 if j % 2 else 1.0
        wk = 1.0 + 0j
        for k in range(degree + 1):
            piece = wk * ep - ((-1.0) ** k) * wk * em
            coefs[k] += sign * piece / 1j
            wk *= ph
        size = (abs(ep) + abs(em)) * max(1.0, abs(ph)) ** degree
        max_term = max(max_term, size)
        nh = half + 1.0
        log_next = (
            -math.pi * tau.imag * nh * nh
            + 2.0 * math.pi * nh * im0
            + degree * math.log(math.pi * (2 * j + 3))
        )
        tail = log_next
        if log_next < log_tol + math.log(max_term):
            converged = True
            break
    if not converged:
        bound = math.exp(min(tail, 700.0))
        raise TruncationError(
            "theta series truncation: tolerance %g not reached within %d terms"
            % (ev.trunc_tol, theta_module._MAX_TERMS),
            tail_bound=bound,
        )
    fact = 1.0
    for k in range(degree + 1):
        if k > 1:
            fact *= k
        coefs[k] /= fact
    return coefs, j + 1


def reference_taylor(ev, z, degree):
    """theta^(k)(z)/k! for k = 0..degree, and the number of series terms summed."""
    z0, r, s = ev.lattice.reduce(z)
    inner, terms = reference_series(ev, z0, degree)
    tau = ev.lattice.tau
    parity = -1.0 if (r + s) % 2 else 1.0
    try:
        mult0 = parity * cmath.exp(-1j * math.pi * (s * s * tau + 2.0 * s * z0))
    except OverflowError:
        raise theta_module._overflow(z) from None
    out = np.zeros(degree + 1, dtype=complex)
    if s == 0:
        for k in range(degree + 1):
            out[k] = mult0 * inner[k]
        return out, terms
    w = -2j * math.pi * s
    expjet = [1.0 + 0j]
    for k in range(1, degree + 1):
        expjet.append(expjet[-1] * w / k)
    for k in range(degree + 1):
        acc = 0j
        for i in range(k + 1):
            acc += expjet[i] * inner[k - i]
        val = mult0 * acc
        if not cmath.isfinite(val):
            raise theta_module._overflow(z)
        out[k] = val
    return out, terms


def theta_jet(ev, z, degree):
    """The reference jet theta^(k)(z)/k!, k = 0..degree."""
    return reference_taylor(ev, z, degree)[0]


def require_off_lattice(ev, z):
    dist = ev.lattice.dist_to_lattice(z)
    if dist < ev.rho:
        raise PoleProximityError("pole proximity: %r is within %g of the period lattice" % (z, dist))


def dtheta0(ev):
    return complex(theta_jet(ev, 0.0, 1)[1])


def zeta_bar(ev, z):
    """theta'(z)/theta(z) from the reference jet, behind the pole guard."""
    require_off_lattice(ev, z)
    jet = theta_jet(ev, z, 1)
    return complex(jet[1] / jet[0])


def wp_bar(ev, z):
    """(theta'/theta)^2 - theta''/theta from the reference jet, behind the pole guard."""
    require_off_lattice(ev, z)
    jet = theta_jet(ev, z, 2)
    t0, t1, t2 = jet[0], jet[1], 2.0 * jet[2]
    return complex((t1 / t0) ** 2 - t2 / t0)


def jet_zeta_bar(ev, x0, degree):
    """Jet of zeta_bar = theta'/theta at x0, from one theta_array call."""
    tj = ev.theta_array(np.array([x0]), degree + 1)[0]
    return jets.jdiv(jets.jderiv(tj), tj[: degree + 1], degree)


def scalar_jet_mul(a, b, degree=None):
    """Truncated product of a scalar jet a with a jet b of any rank, as a
    per-pair loop on numpy scalars (jets.jmul takes matrix jets only)."""
    if degree is None:
        degree = min(len(a), len(b)) - 1
    out = np.zeros((degree + 1,) + np.shape(b[0]), dtype=complex)
    for k in range(degree + 1):
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            out[k] += a[i] * b[k - i]
    return out


def jet_wp_bar(ev, x0, degree):
    """Jet of wp_bar = -zeta_bar' at x0."""
    return -jets.jderiv(jet_zeta_bar(ev, x0, degree + 1))


def sigma(ev, lam, z):
    """sigma_lambda(z) = theta(lam - z) theta'(0) / (theta(z) theta(lam)), behind pole guards."""
    require_off_lattice(ev, z)
    require_off_lattice(ev, lam)
    return theta_value(ev, lam - z) * dtheta0(ev) / (theta_value(ev, z) * theta_value(ev, lam))


def sigma_dlambda(ev, lam, z):
    """d/dlambda of sigma_lambda(z), i.e. sigma_lambda(z)*(zeta_bar(lam-z) - zeta_bar(lam)).

    Evaluated as theta'(0)*(theta'(lam-z) - theta(lam-z)*zeta_bar(lam)) /
    (theta(z)*theta(lam)), which is the same function without the
    0 * inf ambiguity when lam - z approaches the lattice.
    """
    jet = theta_jet(ev, lam - z, 1)
    zl = zeta_bar(ev, lam)
    return complex(dtheta0(ev) * (jet[1] - jet[0] * zl) / (theta_value(ev, z) * theta_value(ev, lam)))


def poly_value(ev, p, z):
    """exp(a z) prod_j theta(z - w_j) at one point, factor by factor in Python scalars."""
    val = cmath.exp(p.a * z)
    for w in p.zeros:
        val *= theta_value(ev, z - w)
    return val


def elliptic_poly(lattice, a, zeros):
    """The EllipticPoly exp(a z) prod_j theta(z - w_j) with its zeros reduced to the cell."""
    return EllipticPoly(complex(a), tuple(lattice.reduce(w)[0] for w in zeros))


def pointwise(f):
    """A function of one point as the array function spaces.membership_test samples."""
    return np.vectorize(f, otypes=[complex])


def membership_passes(report, tol=1e-8):
    """A spaces.membership_test report passes: both residuals within tol of its scale."""
    return report.deviation <= tol * report.scale and report.qp_residual <= tol * report.scale


def elliptic_poly_logderiv(ev, p, z):
    """p'(z)/p(z) = a + sum_j zeta_bar(z - w_j), in closed form."""
    val = p.a
    for w in p.zeros:
        val += zeta_bar(ev, z - w)
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
    """Wrap the theta kernel; returns {"theta_array": [calls, points]}, updated live."""
    counts = {"theta_array": [0, 0]}
    original = ThetaEvaluator.theta_array

    def counting(self, z, *args, **kwargs):
        counts["theta_array"][0] += 1
        counts["theta_array"][1] += np.size(z)
        return original(self, z, *args, **kwargs)

    monkeypatch.setattr(ThetaEvaluator, "theta_array", counting)
    return counts


def count_reductions(monkeypatch):
    """Wrap Lattice.reduce_array and Lattice.dist_to_lattice_array; returns
    {name: calls}, updated live.  Every theta_array call and every distance
    pass reduces its points once."""
    counts = {}
    for name in ("reduce_array", "dist_to_lattice_array"):
        original = getattr(Lattice, name)
        counts[name] = 0

        def counting(self, zs, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, zs)

        monkeypatch.setattr(Lattice, name, counting)
    return counts
