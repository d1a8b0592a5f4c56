"""Character spaces: factored forms, interpolation, zero counting, Bethe solver."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import spaces
from ellsov.spaces import (
    Character,
    CompatibilityError,
    DegenerateNodesError,
    EllipticPoly,
    character_of,
    count_zeros,
    difference_eigenvalue,
    eval_elliptic_poly,
    expected_multiplier,
    induced_eigenvalue_character,
    interpolate,
    make_basis,
    membership_test,
    phi_of_character,
    solve_difference_bethe,
)
from ellsov.theta import ThetaEvaluator

from conftest import sample_point

PI = math.pi


def random_poly(rng, lattice, k, a_scale=0.6):
    zeros = [
        complex(rng.uniform(0.1, 0.9), float(rng.uniform(0.1, 0.9)) * lattice.tau.imag)
        for _ in range(k)
    ]
    a = complex(rng.uniform(-a_scale, a_scale), rng.uniform(-a_scale, a_scale))
    return EllipticPoly.make(lattice, a, zeros)


def test_factored_form_multipliers(ev, rng):
    """The factored form transforms with its own character at level k."""
    tau = ev.lattice.tau
    for k in (1, 2, 4):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        for (r, s) in ((1, 0), (0, 1), (-1, 2), (2, -1)):
            z = sample_point(rng, ev.lattice)
            lhs = eval_elliptic_poly(ev, p, z + r + s * tau)
            rhs = expected_multiplier(chi, k, z, r, s, tau) * eval_elliptic_poly(ev, p, z)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_phi_locates_zero_sum(ev, rng):
    # sum of zeros = phi(chi) + k * (1+tau)/2 modulo the lattice
    tau = ev.lattice.tau
    for k in (1, 3):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        target = phi_of_character(chi, tau) + k * (1.0 + tau) / 2.0
        assert ev.lattice.dist_to_lattice(sum(p.zeros) - target) <= 1e-8


def test_interpolation_reproduces_members(ev, rng):
    tau = ev.lattice.tau
    for k in (1, 2, 5):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        basis = make_basis(ev, k, chi, rng)
        values = [eval_elliptic_poly(ev, p, z) for z in basis.nodes]
        f = basis.fit(values)
        for _ in range(6):
            z = sample_point(rng, ev.lattice, margin=1e-3)
            expect = eval_elliptic_poly(ev, p, z)
            assert abs(f(z) - expect) <= 1e-9 * max(1.0, abs(expect))


def test_interpolant_lives_in_the_space(ev, rng):
    # arbitrary node values still give a function with the right multipliers
    tau = ev.lattice.tau
    k = 3
    chi = Character((-1.0) ** k * cmath.exp(0.3 - 0.2j), (-1.0) ** k * cmath.exp(0.1 + 0.4j))
    basis = make_basis(ev, k, chi, rng)
    f = basis.fit([1.0, -2.0 + 0.5j, 0.7j])
    for (r, s) in ((1, 0), (0, 1)):
        z = sample_point(rng, ev.lattice)
        expect = expected_multiplier(chi, k, z, r, s, tau) * f(z)
        assert abs(f(z + r + s * tau) - expect) <= 1e-9 * max(1.0, abs(expect))


def per_term_interpolant(basis, values, z):
    """The loop form of the cardinal interpolant, term by term, as a reference."""
    ev = basis.ev
    total = 0j
    tb = ev.theta(basis.b)
    for j, zj in enumerate(basis.nodes):
        if values[j] == 0:
            continue
        term = values[j] * cmath.exp(2j * PI * basis.a * (z - zj))
        term *= ev.theta(z - zj + basis.b) / tb
        for l, zl in enumerate(basis.nodes):
            if l == j:
                continue
            term *= ev.theta(z - zl) / ev.theta(zj - zl)
        total += term
    return total


def test_cardinal_vector_matches_per_term_formula(ev, rng):
    """values . L(z) equals the term-by-term interpolant, zero values included."""
    tau = ev.lattice.tau
    for k in (1, 2, 3, 5, 7):
        chi = Character(
            (-1.0) ** k * cmath.exp(complex(*rng.uniform(-0.5, 0.5, 2))),
            (-1.0) ** k * cmath.exp(complex(*rng.uniform(-0.5, 0.5, 2))),
        )
        basis = make_basis(ev, k, chi, rng)
        for trial in range(4):
            values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            if trial % 2 and k > 1:
                values[rng.choice(k, size=k // 2, replace=False)] = 0.0
            f = basis.fit(values)
            for _ in range(5):
                z = sample_point(rng, ev.lattice, spread=1.5)
                expect = per_term_interpolant(basis, values, z)
                terms = sum(abs(v * c) for v, c in zip(values, basis.cardinal_vector(z)))
                assert abs(f(z) - expect) <= 1e-13 * max(abs(expect), terms)
        # cardinal property at the nodes
        for j, zj in enumerate(basis.nodes):
            assert_allclose(basis.cardinal_vector(zj), np.eye(k)[j], atol=1e-12)


def test_basis_shares_cardinal_vectors(ev, rng, monkeypatch):
    """Interpolants on one basis reuse one L(z) per point; the memo stays bounded."""
    chi = Character(-cmath.exp(0.2j), -cmath.exp(0.1 - 0.3j))
    basis = make_basis(ev, 3, chi, rng)
    f = basis.fit([1.0, 2.0j, -0.5])
    g = basis.fit([0.0, 1.0, 1.0 + 1.0j])
    z = sample_point(rng, ev.lattice)
    calls = []
    original = ThetaEvaluator.theta_taylor
    monkeypatch.setattr(
        ThetaEvaluator, "theta_taylor", lambda self, *a: calls.append(a) or original(self, *a)
    )
    f(z)
    assert len(calls) == 6  # theta(z - z_l) and theta(z - z_j + b) for each node
    g(z)
    f(z)
    assert len(calls) == 6
    monkeypatch.undo()
    vec = basis.cardinal_vector(z)
    assert not vec.flags.writeable
    for i in range(spaces._CARDINAL_CACHE_SIZE + 10):
        basis.cardinal_vector(0.1 + 0.3j + 1e-4 * i)
    assert len(basis._cache) == spaces._CARDINAL_CACHE_SIZE
    with pytest.raises(ValueError):
        basis.fit([1.0, 2.0])


def test_degenerate_nodes_rejected(ev, rng):
    chi = Character(-1.0, -1.0)
    with pytest.raises(DegenerateNodesError):
        interpolate(ev, 2, chi, [0.3 + 0.2j, 0.3 + 0.2j + 1.0], [1.0, 2.0])


def test_membership_distinguishes_characters(ev, rng):
    tau = ev.lattice.tau
    p = random_poly(rng, ev.lattice, 3)
    chi = character_of(p, tau)
    f = lambda z: eval_elliptic_poly(ev, p, z)
    report = membership_test(ev, f, 3, chi, rng)
    assert report.passed
    wrong = Character(chi.chi1 * cmath.exp(0.05j), chi.chiTau)
    report_bad = membership_test(ev, f, 3, wrong, rng)
    assert not report_bad.passed


def test_zero_count_contour(ev, rng):
    for k in (1, 2, 4):
        p = random_poly(rng, ev.lattice, k)
        val = count_zeros(ev, p)
        assert abs(val - k) <= 1e-6


def test_bethe_solver_two_roots(ev, rng):
    """Generic two-site data, m = 2: residuals at the proof-form level."""
    lat = ev.lattice
    eta = 0.171 + 0.043j
    gamma = 2.0 * eta
    zs = [0.23 + 0.31j, 0.67 + 0.52j]
    lams = [1, 3]
    A_plus = EllipticPoly.make(lat, 0.0, [-z - l * eta for z, l in zip(zs, lams)])
    A_minus = EllipticPoly.make(lat, 0.0, [-z + l * eta for z, l in zip(zs, lams)])
    sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, 2, rng)
    assert sol.residual <= 1e-10
    # a solved pair satisfies the displayed (j != i) balance form as well
    for i in range(2):
        w = sol.roots[i]
        lhs = eval_elliptic_poly(ev, A_plus, w) * cmath.exp(-2.0 * sol.a * gamma)
        rhs = eval_elliptic_poly(ev, A_minus, w)
        for j in range(2):
            if j == i:
                continue
            lhs *= ev.theta(w - sol.roots[j] - gamma)
            rhs *= ev.theta(w - sol.roots[j] + gamma)
        # lhs = rhs  <=>  proof-form residual = 0 after dividing by theta(-gamma)
        ratio = ev.theta(gamma) / ev.theta(-gamma)
        assert abs(lhs * ratio + rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_bethe_solution_solves_difference_equation(ev, rng):
    """Q from the solver satisfies the scalar difference equation with eps in the right class."""
    lat = ev.lattice
    tau = lat.tau
    eta = 0.171 + 0.043j
    gamma = 2.0 * eta
    zs = [0.23 + 0.31j, 0.67 + 0.52j]
    lams = [1, 1]
    n = len(zs)
    A_plus = EllipticPoly.make(lat, 0.0, [-z - l * eta for z, l in zip(zs, lams)])
    A_minus = EllipticPoly.make(lat, 0.0, [-z + l * eta for z, l in zip(zs, lams)])
    m = sum(lams) // 2
    sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, m, rng)
    eps = difference_eigenvalue(ev, A_plus, A_minus, gamma, sol)
    chi_eps = induced_eigenvalue_character(character_of(A_plus, tau), gamma, m)
    report = membership_test(ev, eps, n, chi_eps, rng)
    assert report.passed


def test_compatibility_guard(ev, rng):
    lat = ev.lattice
    eta = 0.171 + 0.043j
    A_plus = EllipticPoly.make(lat, 0.0, [0.1 + 0.2j, 0.4 + 0.5j])
    A_minus = EllipticPoly.make(lat, 0.0, [0.15 + 0.2j, 0.4 + 0.52j])
    with pytest.raises(CompatibilityError):
        solve_difference_bethe(ev, A_plus, A_minus, 2 * eta, 1, rng)
