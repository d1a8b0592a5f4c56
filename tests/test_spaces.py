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
    ThetaSpaceBasis,
    character_of,
    difference_eigenvalue,
    eval_elliptic_polys,
    expected_multiplier,
    induced_eigenvalue_character,
    make_basis,
    membership_test,
    solve_difference_bethe,
)
from ellsov.theta import PoleProximityError, ThetaEvaluator, ThetaOverflowError

from conftest import (
    count_theta_calls,
    count_zeros,
    elliptic_poly,
    elliptic_poly_logderiv,
    pointwise,
    poly_value,
    sample_point,
    theta_value,
    zeta_bar,
)

PI = math.pi


def random_poly(rng, lattice, k, a_scale=0.6):
    zeros = [
        complex(rng.uniform(0.1, 0.9), float(rng.uniform(0.1, 0.9)) * lattice.tau.imag)
        for _ in range(k)
    ]
    a = complex(rng.uniform(-a_scale, a_scale), rng.uniform(-a_scale, a_scale))
    return elliptic_poly(lattice, a, zeros)


def test_factored_form_multipliers(ev, rng):
    """The factored form transforms with its own character at level k."""
    tau = ev.lattice.tau
    for k in (1, 2, 4):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        for (r, s) in ((1, 0), (0, 1), (-1, 2), (2, -1)):
            z = sample_point(rng, ev.lattice)
            lhs = poly_value(ev, p, z + r + s * tau)
            rhs = expected_multiplier(chi, k, z, r, s, tau) * poly_value(ev, p, z)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_phi_locates_zero_sum(ev, rng):
    # sum of zeros = phi(chi) + k * (1+tau)/2 modulo the lattice
    tau = ev.lattice.tau
    for k in (1, 3):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        phi = (cmath.log(chi.chiTau) - tau * cmath.log(chi.chi1)) / (2j * PI)
        target = phi + k * (1.0 + tau) / 2.0
        assert ev.lattice.dist_to_lattice(sum(p.zeros) - target) <= 1e-8


def test_interpolation_reproduces_members(ev, rng):
    tau = ev.lattice.tau
    for k in (1, 2, 5):
        p = random_poly(rng, ev.lattice, k)
        chi = character_of(p, tau)
        basis = make_basis(ev, k, chi, rng)
        values = np.array([poly_value(ev, p, z) for z in basis.nodes])
        for _ in range(6):
            z = sample_point(rng, ev.lattice, margin=1e-3)
            expect = poly_value(ev, p, z)
            assert abs(basis.cardinal_vector(z) @ values - expect) <= 1e-9 * max(1.0, abs(expect))


def test_interpolant_lives_in_the_space(ev, rng):
    # arbitrary node values still give a function with the right multipliers
    tau = ev.lattice.tau
    k = 3
    chi = Character((-1.0) ** k * cmath.exp(0.3 - 0.2j), (-1.0) ** k * cmath.exp(0.1 + 0.4j))
    basis = make_basis(ev, k, chi, rng)
    values = np.array([1.0, -2.0 + 0.5j, 0.7j])

    def f(z):
        return basis.cardinal_vector(z) @ values

    for (r, s) in ((1, 0), (0, 1)):
        z = sample_point(rng, ev.lattice)
        expect = expected_multiplier(chi, k, z, r, s, tau) * f(z)
        assert abs(f(z + r + s * tau) - expect) <= 1e-9 * max(1.0, abs(expect))


def per_term_interpolant(basis, values, z):
    """The loop form of the cardinal interpolant, term by term, as a reference."""
    ev = basis.ev
    total = 0j
    tb = theta_value(ev, basis.b)
    for j, zj in enumerate(basis.nodes):
        if values[j] == 0:
            continue
        term = values[j] * cmath.exp(2j * PI * basis.a * (z - zj))
        term *= theta_value(ev, z - zj + basis.b) / tb
        for l, zl in enumerate(basis.nodes):
            if l == j:
                continue
            term *= theta_value(ev, z - zl) / theta_value(ev, zj - zl)
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
            for _ in range(5):
                z = sample_point(rng, ev.lattice, spread=1.5)
                expect = per_term_interpolant(basis, values, z)
                terms = sum(abs(v * c) for v, c in zip(values, basis.cardinal_vector(z)))
                assert abs(basis.cardinal_vector(z) @ values - expect) <= 1e-13 * max(abs(expect), terms)
        # cardinal property at the nodes
        for j, zj in enumerate(basis.nodes):
            assert_allclose(basis.cardinal_vector(zj), np.eye(k)[j], atol=1e-12)


def test_cardinal_vector_on_arrays(ev, rng, monkeypatch):
    """cardinal_vector takes points of any shape and returns shape zs.shape + (k,)
    from one theta_array call; each row is the per-point formula's L(z) to 1e-13."""
    k = 4
    chi = Character(cmath.exp(0.2j), cmath.exp(0.1 - 0.3j))
    basis = make_basis(ev, k, chi, rng)
    zs = np.array([[sample_point(rng, ev.lattice, spread=1.5) for _ in range(3)] for _ in range(5)])
    for pts in (zs[0, 0], zs[0], zs):
        counts = count_theta_calls(monkeypatch)
        got = basis.cardinal_vector(pts)
        monkeypatch.undo()
        assert counts == {"theta_array": [1, 2 * k * np.size(pts)]}
        assert got.shape == np.shape(pts) + (k,)
        for z, row in zip(np.ravel(pts), got.reshape(-1, k)):
            expect = np.array([per_term_interpolant(basis, np.eye(k)[j], z) for j in range(k)])
            assert np.max(np.abs(row - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_cardinal_vector_overflow_names_the_point(ev, rng):
    """A non-finite entry raises ThetaOverflowError naming the first such point
    in the order of zs: with chi(1) = -e^100, exp(2 pi i a (z - z_j)) grows like
    e^(100 Re z), and leaves double range at Re z = 9.4 while theta stays finite.
    The same guard serves the elliptic polynomials, whose values are laid out
    (polys, points), so the overflowing second polynomial must not name the
    second point, and the difference eigenvalue on a stack of points, which is
    not finite where Q has a zero."""
    basis = make_basis(ev, 2, Character(-math.exp(100.0), -1.0), rng)
    good, bad = 0.4 + 0.3j, 9.4 + 0.3j
    assert np.isfinite(basis.cardinal_vector([good])).all()
    with pytest.raises(ThetaOverflowError, match=r"cardinal vector at \(9\.4\+0\.3j\) overflows"):
        basis.cardinal_vector([[good, bad], [bad + 1.0, good]])

    polys = (elliptic_poly(ev.lattice, 0.0, [0.2 + 0.1j, 0.7 + 0.6j]), elliptic_poly(ev.lattice, 100.0, [0.5 + 0.5j]))
    zs = [[good, good + 0.1], [bad, good]]
    assert np.isfinite(eval_elliptic_polys(ev, polys, [good, good + 0.1])).all()
    with pytest.raises(ThetaOverflowError, match=r"^elliptic polynomial at \(9\.4\+0\.3j\) overflows double precision$"):
        eval_elliptic_polys(ev, polys, zs)

    root = 0.35 + 0.25j
    sol = spaces.BetheSolution(0j, (root,), 0.0, 0)
    eps = difference_eigenvalue(ev, polys[0], elliptic_poly(ev.lattice, 0.0, [0.6 + 0.5j, 0.1 + 0.9j]), 0.3 + 0.1j, sol)
    assert np.isfinite(eps(np.array([good, good + 0.1]))).all()
    with pytest.raises(ThetaOverflowError, match=r"^the difference eigenvalue at \(0\.35\+0\.25j\) leaves double range$"):
        eps(np.array([[good, good + 0.1], [root, good]]))


def test_degenerate_nodes_rejected(ev, rng):
    chi = Character(-1.0, -1.0)
    with pytest.raises(DegenerateNodesError):
        ThetaSpaceBasis(ev, 2, chi, [0.3 + 0.2j, 0.3 + 0.2j + 1.0])


def test_membership_distinguishes_characters(ev, rng):
    tau = ev.lattice.tau
    p = random_poly(rng, ev.lattice, 3)
    chi = character_of(p, tau)
    f = lambda zs: eval_elliptic_polys(ev, (p,), zs)[0]
    residual = membership_test(ev, f, 3, chi, rng)
    assert residual <= 1e-8
    wrong = Character(chi.chi1 * cmath.exp(0.05j), chi.chiTau)
    residual_bad = membership_test(ev, f, 3, wrong, rng)
    assert not residual_bad <= 1e-8


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
    A_plus = elliptic_poly(lat, 0.0, [-z - l * eta for z, l in zip(zs, lams)])
    A_minus = elliptic_poly(lat, 0.0, [-z + l * eta for z, l in zip(zs, lams)])
    sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, 2, rng)
    assert sol.residual <= 1e-10
    # a solved pair satisfies the displayed (j != i) balance form as well
    for i in range(2):
        w = sol.roots[i]
        lhs = poly_value(ev, A_plus, w) * cmath.exp(-2.0 * sol.a * gamma)
        rhs = poly_value(ev, A_minus, w)
        for j in range(2):
            if j == i:
                continue
            lhs *= theta_value(ev, w - sol.roots[j] - gamma)
            rhs *= theta_value(ev, w - sol.roots[j] + gamma)
        # lhs = rhs  <=>  proof-form residual = 0 after dividing by theta(-gamma)
        ratio = theta_value(ev, gamma) / theta_value(ev, -gamma)
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
    A_plus = elliptic_poly(lat, 0.0, [-z - l * eta for z, l in zip(zs, lams)])
    A_minus = elliptic_poly(lat, 0.0, [-z + l * eta for z, l in zip(zs, lams)])
    m = sum(lams) // 2
    sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, m, rng)
    eps = difference_eigenvalue(ev, A_plus, A_minus, gamma, sol)
    chi_eps = induced_eigenvalue_character(character_of(A_plus, tau), gamma, m)
    residual = membership_test(ev, pointwise(eps), n, chi_eps, rng)
    assert residual <= 1e-8


def test_difference_eigenvalue_root_outside_cell(ev):
    """eps keeps Q's character when a converged root lies off the fundamental cell."""
    lat = ev.lattice
    eta = 0.171 + 0.043j
    gamma = 2.0 * eta
    zs = [0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j]
    A_plus = elliptic_poly(lat, 0.0, [-z - eta for z in zs])
    A_minus = elliptic_poly(lat, 0.0, [-z + eta for z in zs])
    rng = np.random.default_rng(17)
    sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, 2, rng)
    # a root a tau translate away from the cell: reducing it would change Q's character
    assert any(lat.reduce(w)[2] != 0 for w in sol.roots)
    eps = difference_eigenvalue(ev, A_plus, A_minus, gamma, sol)
    chi_eps = induced_eigenvalue_character(character_of(A_plus, lat.tau), gamma, 2)
    assert membership_test(ev, pointwise(eps), len(zs), chi_eps, rng) <= 1e-12


def test_bethe_solver_theta_count(ev, monkeypatch):
    """One theta_array call per system evaluation, none in the Jacobian, and one
    for the certificate at the accepted point, over the 2 * 2 * (4 + 2) factors
    of its two equations (22 points when theta(-/+gamma) was evaluated once, not
    per root; 22 scalar calls before).  The sum form took 9 iterations here."""
    lat = ev.lattice
    eta = 0.171 + 0.043j
    zs = [0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j]
    A_plus = elliptic_poly(lat, 0.0, [-z - eta for z in zs])
    A_minus = elliptic_poly(lat, 0.0, [-z + eta for z in zs])
    calls = {"system": 0}
    points = []  # per theta_array call
    original = ThetaEvaluator.theta_array

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["system"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recording(self, zs, *args, **kwargs):
        points.append(np.size(zs))
        return original(self, zs, *args, **kwargs)

    monkeypatch.setattr(ThetaEvaluator, "theta_array", recording)
    make_system = spaces._bethe_system
    monkeypatch.setattr(spaces, "_bethe_system", lambda *args: counting(make_system(*args)))
    sol = solve_difference_bethe(ev, A_plus, A_minus, 2.0 * eta, 2, np.random.default_rng(17))
    assert sol.iterations == 8
    assert len(points) == calls["system"] + 1 and points[-1] == 24


def test_damped_newton_restarts():
    """One equation in two unknowns: minimum-norm steps, and restarts on typed failures."""
    rejected = []

    def system(x):
        if x[0] == 5.0:
            raise PoleProximityError("start on a pole")
        return np.array([x[0] + x[1] - 2.0]), lambda: np.array([[1.0, 1.0]], dtype=complex)

    def accept(x):
        if not rejected:
            rejected.append(x)
            raise spaces.InvalidSolutionError("first solution rejected")

    starts = [np.array([5.0, 0.0], dtype=complex), np.zeros(2, dtype=complex),
              np.array([3.0, 1.0], dtype=complex)]
    x, res, iterations = spaces.damped_newton(system, lambda: starts.pop(0), accept)
    # start 1 sits on a pole, start 2 converges to (1, 1) and is rejected,
    # start 3 steps from (3, 1) to the nearest solution (2, 0)
    assert not starts
    assert_allclose(rejected[0], [1.0, 1.0], atol=1e-14)
    assert_allclose(x, [2.0, 0.0], atol=1e-14)
    assert res <= 1e-11 and iterations == 1
    with pytest.raises(spaces.NoConvergenceError, match="all 8 Newton restarts failed"):
        spaces.damped_newton(system, lambda: np.array([5.0, 0.0], dtype=complex))


def test_compatibility_guard(ev, rng):
    lat = ev.lattice
    eta = 0.171 + 0.043j
    A_plus = elliptic_poly(lat, 0.0, [0.1 + 0.2j, 0.4 + 0.5j])
    A_minus = elliptic_poly(lat, 0.0, [0.15 + 0.2j, 0.4 + 0.52j])
    with pytest.raises(CompatibilityError):
        solve_difference_bethe(ev, A_plus, A_minus, 2 * eta, 1, rng)


def reference_bethe_terms(ev, A_plus, A_minus, gamma, a, roots):
    """The summands (t1_i, t2_i) of the sum form at the roots, A_plus(w_i) exp(-gamma a)
    prod_j theta(w_i - w_j - gamma) and A_minus(w_i) exp(gamma a) prod_j theta(w_i - w_j + gamma),
    by scalar loops."""
    ea_m = cmath.exp(-gamma * a)
    ea_p = cmath.exp(gamma * a)
    terms = []
    for wi in roots:
        t1 = poly_value(ev, A_plus, wi) * ea_m
        t2 = poly_value(ev, A_minus, wi) * ea_p
        for wj in roots:
            t1 *= theta_value(ev, wi - wj - gamma)
            t2 *= theta_value(ev, wi - wj + gamma)
        terms.append((t1, t2))
    return terms


def test_certificate_is_the_tq_relation_at_the_roots(ev, rng, monkeypatch):
    """solve_difference_bethe's residual is the sum form at the accepted point: its
    summands, A_plus(w_i) Q(w_i - gamma) and A_minus(w_i) Q(w_i + gamma) without Q's
    common exp(a w_i), come from one eval_elliptic_polys call at the roots and equal
    reference_bethe_terms' to 1e-13 relative, and the residual is max |t1 + t2| over
    max |t|, read from that call."""
    lat = ev.lattice
    eta = 0.171 + 0.043j
    gamma = 2.0 * eta
    sites = [0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j]
    calls = []
    original = spaces.eval_elliptic_polys

    def recording(ev, polys, zs):
        calls.append((zs, original(ev, polys, zs)))
        return calls[-1][1]

    monkeypatch.setattr(spaces, "eval_elliptic_polys", recording)
    for m in (1, 2):  # m roots for 2m sites of weight 1
        A_plus = elliptic_poly(lat, 0.0, [-z - eta for z in sites[: 2 * m]])
        A_minus = elliptic_poly(lat, 0.0, [-z + eta for z in sites[: 2 * m]])
        calls.clear()
        sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, m, rng)
        (points, sides), = calls
        assert points == sol.roots
        got = sides * np.array([[cmath.exp(-gamma * sol.a)], [cmath.exp(gamma * sol.a)]])
        want = np.array(reference_bethe_terms(ev, A_plus, A_minus, gamma, sol.a, sol.roots)).T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert sol.residual == np.max(np.abs(got.sum(axis=0))) / np.max(np.abs(got))


def reference_bethe_jacobian(ev, A_plus, A_minus, gamma, roots):
    """The Jacobian of log(-t_i0 / t_i1) in (a, w_1..w_m), dlog t_i0 - dlog t_i1, by scalar zeta_bar calls."""
    m = len(roots)
    jac = np.zeros((m, m + 1), dtype=complex)
    for i in range(m):
        jac[i, 0] = -gamma - gamma
        for l in range(m):
            if l == i:
                d1 = elliptic_poly_logderiv(ev, A_plus, roots[i])
                d2 = elliptic_poly_logderiv(ev, A_minus, roots[i])
                for j in range(m):
                    if j != i:
                        d1 += zeta_bar(ev, roots[i] - roots[j] - gamma)
                        d2 += zeta_bar(ev, roots[i] - roots[j] + gamma)
                # the j = i factor theta(-gamma)/theta(gamma) is constant in roots[i]
                jac[i, 1 + l] = d1 - d2
            else:
                jac[i, 1 + l] = -zeta_bar(ev, roots[i] - roots[l] - gamma) + zeta_bar(
                    ev, roots[i] - roots[l] + gamma
                )
    return jac


def bethe_data(lat, a_plus=0.0, a_minus=0.0):
    eta = 0.171 + 0.043j
    zs = [0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j]
    A_plus = elliptic_poly(lat, a_plus, [-z - eta for z in zs])
    A_minus = elliptic_poly(lat, a_minus, [-z + eta for z in zs[:3]])
    return A_plus, A_minus, 2.0 * eta


def test_bethe_system_matches_scalar_reference(ev, rng):
    """Residual and Jacobian of the batched system against the scalar loops.

    The residual is log(-t_i0 / t_i1) of the reference summands, on the
    principal branch.  A_minus has one zero fewer than
    A_plus, and both carry an exponent, so the site products and the
    logarithmic derivatives are split per polynomial.
    """
    lat = ev.lattice
    A_plus, A_minus, gamma = bethe_data(lat, 0.3 - 0.2j, -0.1 + 0.4j)
    for m in (1, 2, 3):
        system = spaces._bethe_system(ev, A_plus, A_minus, gamma, m)
        for _ in range(4):
            a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            roots = np.array([sample_point(rng, lat, spread=1.5) for _ in range(m)])
            terms = reference_bethe_terms(ev, A_plus, A_minus, gamma, a, roots)
            res, jacobian = system(np.concatenate(([a], roots)))
            assert_allclose(res, [cmath.log(-t1 / t2) for t1, t2 in terms], rtol=1e-12, atol=1e-12)
            want = reference_bethe_jacobian(ev, A_plus, A_minus, gamma, roots)
            assert_allclose(jacobian(), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_bethe_ratio_residual_control(ev, rng):
    """The ratio residual is at most 1e-11 at converged roots and at least
    1e-7 once any one root moves by 1e-6, so the target 1e-11 sits well
    below what a wrong root set gives."""
    lat = ev.lattice
    eta = 0.171 + 0.043j
    gamma = 2.0 * eta
    sites = [0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j]
    for m in (1, 2):  # m roots for 2m sites of weight 1
        A_plus = elliptic_poly(lat, 0.0, [-z - eta for z in sites[: 2 * m]])
        A_minus = elliptic_poly(lat, 0.0, [-z + eta for z in sites[: 2 * m]])
        sol = solve_difference_bethe(ev, A_plus, A_minus, gamma, m, rng)
        system = spaces._bethe_system(ev, A_plus, A_minus, gamma, m)
        x = np.array((sol.a,) + sol.roots)
        assert np.max(np.abs(system(x)[0])) <= 1e-11
        for k in range(1, m + 1):
            for step in (1e-6, 1e-6j):
                moved = x.copy()
                moved[k] += step
                assert np.max(np.abs(system(moved)[0])) >= 1e-7


def test_bethe_jacobian_pole_guard(ev, rng):
    """A root within rho/2 of a zero of A_plus: the residual evaluates, the Jacobian refuses."""
    lat = ev.lattice
    A_plus, A_minus, gamma = bethe_data(lat)
    system = spaces._bethe_system(ev, A_plus, A_minus, gamma, 2)
    near = A_plus.zeros[1] + 2.0 + lat.tau + 0.5 * ev.rho * cmath.exp(0.7j)
    x = np.array([0.1 - 0.2j, near, sample_point(rng, lat)])
    res, jacobian = system(x)
    assert np.all(np.isfinite(res))
    with pytest.raises(PoleProximityError):
        jacobian()
    # the same point in the scalar reference raises in zeta_bar
    with pytest.raises(PoleProximityError):
        reference_bethe_jacobian(ev, A_plus, A_minus, gamma, x[1:])
