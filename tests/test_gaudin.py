"""Dynamical Gaudin family: commuting operators, S(z) decomposition, Bethe vectors."""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import cli, gaudin, jets
from ellsov.eqg import S0Grid
from ellsov.gaudin import (
    bethe_eigenvector,
    build_hamiltonians,
    build_S,
    solve_gaudin_bethe,
    spectral_weight,
)
from ellsov.params import ModelParams, ParameterError

from conftest import sample_point

ETA = 0.173 - 0.061j  # inert here; the container wants it
Z1 = (0.12 + 0.23j,)
Z2 = (0.12 + 0.23j, 0.57 + 0.71j)
Z3 = (0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.52j)
Z4 = Z3 + (0.81 + 0.18j,)
LAM0 = 0.21 + 0.33j
DEGREE = 8

FAMILIES = [(Z2, (1, 1)), (Z3, (1, 1, 2)), (Z2, (2, 2))]
SITE_WEIGHTS = [(1,), (2,), (1, 1), (2, 2), (1, 1, 2), (3, 1, 2, 1)]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_params(lattice, zs, lams):
    return ModelParams(lattice=lattice, eta=ETA, zs=zs, lams=lams)


def weight_params(lattice, lams):
    return make_params(lattice, Z4[: len(lams)], lams)


def random_jet(rng, dim, degree=DEGREE):
    return rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal((degree + 1, dim))


def rayleigh(out, u):
    i = int(np.argmax(np.abs(u[0])))
    return out[0][i] / u[0][i]


def sl2_module(lam):
    """(e, f, h) of the sl2 module of highest weight lam in the integer basis.

    f v_k = v_{k+1}, h v_k = (lam - 2k) v_k, e v_k = k (lam - k + 1) v_{k-1}.
    """
    dim = lam + 1
    e = np.zeros((dim, dim), dtype=complex)
    f = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        e[k - 1, k] = k * (lam - k + 1)
    for k in range(dim - 1):
        f[k + 1, k] = 1.0
    h = np.diag([complex(lam - 2 * k) for k in range(dim)])
    return e, f, h


def kron_site_operators(lams):
    """Per-site (e, f, h) on the tensor product as Kronecker products, the site operators' oracle."""
    dims = [l + 1 for l in lams]
    ops = []
    for i, lam in enumerate(lams):
        eye_l = np.eye(int(np.prod(dims[:i])), dtype=complex)
        eye_r = np.eye(int(np.prod(dims[i + 1:])), dtype=complex)
        ops.append(tuple(np.kron(np.kron(eye_l, m), eye_r) for m in sl2_module(lam)))
    return ops


@dataclasses.dataclass(frozen=True)
class FieldOps:
    """Matrices of h(z), e_lambda(z), f_lambda(z) on the full tensor product."""

    h: np.ndarray
    e: np.ndarray
    f: np.ndarray


def build_field_ops(params, z, lam):
    """Pointwise field operators at spectral point z and dynamical point lambda."""
    ev = params.evaluator()
    ops = gaudin._gaudin_model(params).ops
    total = len(ops[0][0])
    h = np.zeros((total, total), dtype=complex)
    e = np.zeros((total, total), dtype=complex)
    f = np.zeros((total, total), dtype=complex)
    for (ei, fi, hi), zi in zip(ops, params.zs):
        h += ev.zeta_bar(z - zi) * hi
        e += ev.sigma(-lam, z - zi) * ei
        f += ev.sigma(lam, z - zi) * fi
    return FieldOps(h=h, e=e, f=f)


# The operators' lambda-dependent coefficients as they were built before the
# batched sigma jets: per pair, the scalar jet recomputes theta(lambda) and
# theta(z_jk).  The operators must reproduce them bit for bit.


def reference_sigma(ev, lam0, z, degree):
    num = ev.theta_taylor(lam0 - z, degree) * (ev.dtheta0() / ev.theta(z))
    return jets.jdiv(num, ev.theta_taylor(lam0, degree), degree)


def reference_sigma_neg(ev, lam0, z, degree):
    jet = reference_sigma(ev, -lam0, z, degree)
    jet[1::2] *= -1.0
    return jet


def reference_c0_hamiltonian_j(ctx, j, lam0, degree):
    ev, zs, r = ctx.ev, ctx.params.zs, ctx.restrict
    ej, fj, hj = ctx.ops[j]
    others = [k for k in range(ctx.params.n) if k != j]
    out = np.zeros((degree + 1, ctx.dim, ctx.dim), dtype=complex)
    for k in others:
        out[0] += (0.5 * ev.zeta_bar(zs[j] - zs[k])) * r(hj @ ctx.ops[k][2])
    for k in others:
        sj = reference_sigma(ev, lam0, zs[j] - zs[k], degree)
        out += sj[:, None, None] * r(ej @ ctx.ops[k][1])[None, :, :]
    for k in others:
        sj = reference_sigma_neg(ev, lam0, zs[j] - zs[k], degree)
        out += sj[:, None, None] * r(fj @ ctx.ops[k][0])[None, :, :]
    return out


def reference_c0_hamiltonian_0(ctx, lam0, degree):
    ev, zs, r, dim = ctx.ev, ctx.params.zs, ctx.restrict, ctx.dim
    jet0 = ev.theta0_jet(3)
    diag_hh = 6.0 * jet0[3] / jet0[1]
    hh_const = np.zeros((dim, dim), dtype=complex)
    diag_ef = np.zeros((dim, dim), dtype=complex)
    cross_ef = []
    for j, (ej, fj, hj) in enumerate(ctx.ops):
        hh_const += 0.125 * diag_hh * r(hj @ hj)
        diag_ef += r(ej @ fj + fj @ ej)
        for k, (ek, fk, hk) in enumerate(ctx.ops):
            if k != j:
                tj = ev.theta_taylor(zs[j] - zs[k], 2)
                hh_const += 0.125 * (2.0 * tj[2] / tj[0]) * r(hj @ hk)
                cross_ef.append((zs[j] - zs[k], r(ej @ fk)))
    out = np.zeros((degree + 1, dim, dim), dtype=complex)
    out[0] += hh_const
    out -= 0.5 * jets.jet_wp_bar(ev, lam0, degree)[:, None, None] * diag_ef[None, :, :]
    for zjk, mat in cross_ef:
        sj = jets.jderiv(reference_sigma(ev, lam0, zjk, degree + 1))
        out -= sj[:, None, None] * mat[None, :, :]
    return out


def reference_c0_S(ctx, z, lam0, degree):
    ev, zs, r = ctx.ev, ctx.params.zs, ctx.restrict
    h_full = np.zeros((ctx.total, ctx.total), dtype=complex)
    e_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
    f_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
    for (ei, fi, hi), zi in zip(ctx.ops, zs):
        h_full += ev.zeta_bar(z - zi) * hi
        e_jet += reference_sigma_neg(ev, lam0, z - zi, degree)[:, None, None] * ei[None, :, :]
        f_jet += reference_sigma(ev, lam0, z - zi, degree)[:, None, None] * fi[None, :, :]
    hz = r(h_full)
    anti = jets.jmul(e_jet, f_jet, degree) + jets.jmul(f_jet, e_jet, degree)
    out = np.stack([0.5 * r(a) for a in anti])
    out[0] += 0.25 * (hz @ hz)
    return out


@pytest.mark.parametrize("zs,lams", FAMILIES)
def test_batched_sigma_jets_equal_per_pair_reference(lattice, rng, zs, lams):
    params = make_params(lattice, zs, lams)
    ctx = gaudin._gaudin_model(params)
    hams = build_hamiltonians(params)
    z = params.sample_generic(rng, avoid=params.zs)
    s_op = build_S(params, z)
    for lam0 in (LAM0, params.sample_generic(rng), zs[1] - zs[0] + 0.01 + 0.02j):
        for degree in (0, 3, DEGREE):
            got = hams[0].coeffs[0](lam0, degree)
            assert np.array_equal(got, reference_c0_hamiltonian_0(ctx, lam0, degree))
            for j in range(params.n):
                got = hams[1 + j].coeffs[0](lam0, degree)
                assert np.array_equal(got, reference_c0_hamiltonian_j(ctx, j, lam0, degree))
            got = s_op.coeffs[0](lam0, degree)
            assert np.array_equal(got, reference_c0_S(ctx, z, lam0, degree))


@pytest.mark.parametrize("lams", SITE_WEIGHTS)
def test_site_operators_match_kronecker(lattice, lams):
    """The stride-diagonal site operators equal the Kronecker products entry for entry."""
    grid = S0Grid(weight_params(lattice, lams))
    ops = gaudin._site_operators(grid)
    for got, want in zip(ops, kron_site_operators(lams), strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    # the strides S0Grid.shifted walks by agree with a lookup of the moved multi-index
    index = {m: i for i, m in enumerate(grid.points)}
    for idx, m in enumerate(grid.points):
        for i in range(len(lams)):
            for dm in (-1, 1):
                moved = m[:i] + (m[i] + dm,) + m[i + 1:]
                assert grid.shifted(idx, i, dm) == index.get(moved)


def test_rep_relations(lattice):
    """Per site: [e,f] = h, [h,e] = 2e, [h,f] = -2f, and the Casimir is scalar; all exact."""
    for lams in SITE_WEIGHTS:
        ops = gaudin._site_operators(S0Grid(weight_params(lattice, lams)))
        total = int(np.prod([l + 1 for l in lams]))
        for (e, f, h), lam in zip(ops, lams, strict=True):
            np.testing.assert_array_equal(e @ f - f @ e, h)
            np.testing.assert_array_equal(h @ e - e @ h, 2 * e)
            np.testing.assert_array_equal(h @ f - f @ h, -2 * f)
            casimir = 0.5 * (h @ h) + e @ f + f @ e
            np.testing.assert_array_equal(casimir, 0.5 * lam * (lam + 2) * np.eye(total))


def test_model_is_cached_and_read_only(lattice):
    params = make_params(lattice, Z3, (1, 1, 2))
    model = gaudin._gaudin_model(params)
    assert gaudin._gaudin_model(params) is model
    for arr in (model.indices, *(m for site in model.ops for m in site)):
        with pytest.raises(ValueError):
            arr[0] = 7
    # an equal parameter set reads the same entry
    assert gaudin._gaudin_model(make_params(lattice, Z3, (1, 1, 2))) is model


def test_gaudin_check_builds_model_once(tmp_path, monkeypatch):
    """One gaudin check task builds its model's context once."""
    build = gaudin._gaudin_model.__wrapped__
    calls = []

    def counted(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(gaudin, "_gaudin_model", functools.lru_cache(maxsize=2)(counted))
    out = tmp_path / "check.json"
    argv = ["gaudin", "check", "--config", str(CONFIGS / "gaudin_n3.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    # build_hamiltonians and the five build_S calls share the one build
    assert len(calls) == 1 and gaudin._gaudin_model.cache_info().hits == 5


def test_zero_weight_space(lattice):
    params = make_params(lattice, Z2, (1, 1))
    space = gaudin._gaudin_model(params)
    assert space.dim == 2 and space.total == 4

    space3 = gaudin._gaudin_model(make_params(lattice, Z3, (1, 1, 2)))
    assert space3.dim == 4 and space3.total == 12

    # restrict reads the zero-weight block through the index bookkeeping
    vec = np.arange(1, space.dim + 1, dtype=complex)
    full = np.zeros(space.total, dtype=complex)
    full[list(space.indices)] = vec
    assert_allclose(space.restrict(np.outer(full, full)), np.outer(vec, vec))
    assert np.count_nonzero(full) == space.dim

    with pytest.raises(ParameterError):
        gaudin._gaudin_model(make_params(lattice, Z2, (1, 2)))


def test_zero_weight_indices(lattice):
    # Kronecker order, last site fastest: read each index's weight digit by digit
    for zs, lams in ((Z3, (1, 1, 2)), (Z2, (2, 2))):
        total = int(np.prod([l + 1 for l in lams]))
        expect = []
        for idx in range(total):
            rem, weight = idx, 0
            for l in reversed(lams):
                weight += l - 2 * (rem % (l + 1))
                rem //= l + 1
            if weight == 0:
                expect.append(idx)
        space = gaudin._gaudin_model(make_params(lattice, zs, lams))
        assert tuple(space.indices.tolist()) == tuple(expect) and space.total == total


def test_field_commutator(lattice, rng):
    """[e(z), f(z)] = sum_i (wp_bar(z - z_i) - wp_bar(lambda)) h^(i)."""
    params = make_params(lattice, Z2, (2, 2))
    ev = params.evaluator()
    ctx = gaudin._gaudin_model(params)
    for _ in range(3):
        z = params.sample_generic(rng, avoid=params.zs)
        lam = sample_point(rng, lattice)
        ops = build_field_ops(params, z, lam)
        comm = ops.e @ ops.f - ops.f @ ops.e
        expect = np.zeros_like(comm)
        for (_, _, hi), zi in zip(ctx.ops, params.zs):
            expect += (ev.wp_bar(z - zi) - ev.wp_bar(lam)) * hi
        scale = max(1.0, float(np.max(np.abs(comm))))
        assert np.max(np.abs(comm - expect)) <= 1e-11 * scale

        # on the zero-weight space the wp_bar(lambda) part dies with sum h^(i)
        restr = ctx.restrict(comm)
        expect0 = np.zeros_like(restr)
        for (_, _, hi), zi in zip(ctx.ops, params.zs):
            expect0 += ev.wp_bar(z - zi) * ctx.restrict(hi)
        assert np.max(np.abs(restr - expect0)) <= 1e-11 * scale


@pytest.mark.parametrize("zs,lams", FAMILIES)
def test_hamiltonians_commute(lattice, rng, zs, lams):
    params = make_params(lattice, zs, lams)
    hams = build_hamiltonians(params)
    dim = gaudin._gaudin_model(params).dim
    u = random_jet(rng, dim)
    for lam0 in [sample_point(rng, lattice) for _ in range(3)]:
        applied = [H.apply_jet(lam0, u) for H in hams]
        scale = max(1.0, max(float(np.max(np.abs(a))) for a in applied))
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                comm = hams[i].apply_jet(lam0, applied[j]) - hams[j].apply_jet(lam0, applied[i])
                assert np.max(np.abs(comm)) <= 1e-9 * scale


def test_hamiltonian_sum_vanishes(lattice, rng):
    # sum_{j>=1} H_j = 0 on the zero-weight space
    params = make_params(lattice, Z3, (1, 1, 2))
    hams = build_hamiltonians(params)
    u = random_jet(rng, gaudin._gaudin_model(params).dim)
    total = hams[1].apply_jet(LAM0, u)
    for H in hams[2:]:
        total += H.apply_jet(LAM0, u)
    scale = max(1.0, float(np.max(np.abs(hams[1].apply_jet(LAM0, u)))))
    assert np.max(np.abs(total)) <= 1e-10 * scale


@pytest.mark.parametrize("zs,lams", [(Z2, (1, 1)), (Z3, (1, 1, 2))])
def test_s_decomposition(lattice, rng, zs, lams):
    """S(z) = sum_k c_k/2 wp_bar(z - z_k) + sum_k zeta_bar(z - z_k) H_k + H_0."""
    params = make_params(lattice, zs, lams)
    ev = params.evaluator()
    hams = build_hamiltonians(params)
    u = random_jet(rng, gaudin._gaudin_model(params).dim)
    for _ in range(5):
        z = params.sample_generic(rng, avoid=params.zs)
        lhs = build_S(params, z).apply_jet(LAM0, u)
        rows = lhs.shape[0]
        rhs = hams[0].apply_jet(LAM0, u)
        for k, zk in enumerate(params.zs):
            rhs += ev.zeta_bar(z - zk) * hams[k + 1].apply_jet(LAM0, u)[:rows]
            rhs += spectral_weight(params, k) * ev.wp_bar(z - zk) * u[:rows]
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_s_alternative_form(lattice, rng):
    """S(z) = (d - h(z)/2)^2 - h'(z)/2 + f(z)e(z) on the zero-weight space.

    The h'/2 term is what is left of the symmetrized product (ef + fe)/2
    after moving e across f; sum_i h^(i) kills the wp_bar(lambda) part of
    the exchange relation there.
    """
    params = make_params(lattice, Z2, (2, 2))
    ev = params.evaluator()
    ctx = gaudin._gaudin_model(params)
    dim = ctx.dim
    u = random_jet(rng, dim)
    z = params.sample_generic(rng, avoid=params.zs)

    h_full = np.zeros((ctx.total, ctx.total), dtype=complex)
    hp_full = np.zeros_like(h_full)
    e_jet = np.zeros((DEGREE + 1, ctx.total, ctx.total), dtype=complex)
    f_jet = np.zeros_like(e_jet)
    for (ei, fi, hi), zi in zip(ctx.ops, params.zs):
        h_full += ev.zeta_bar(z - zi) * hi
        hp_full += -ev.wp_bar(z - zi) * hi
        e_jet += jets.jet_sigma_neg(ev, LAM0, [z - zi], DEGREE)[0][:, None, None] * ei
        f_jet += jets.jet_sigma(ev, LAM0, [z - zi], DEGREE)[0][:, None, None] * fi
    hr = ctx.restrict(h_full)
    fe = jets.jmul(f_jet, e_jet, DEGREE)
    fe_r = np.stack([ctx.restrict(fe[d]) for d in range(DEGREE + 1)])

    # constant matrices enter as degree-0 jets
    d_out = DEGREE - 2
    up = jets.jderiv(u)
    got = jets.jderiv(up)
    got -= jets.jmul(hr[None], up, d_out)
    const = 0.25 * hr @ hr - 0.5 * ctx.restrict(hp_full)
    got += jets.jmul(const[None], u, d_out)
    got += jets.jmul(fe_r, u, d_out)

    want = build_S(params, z).apply_jet(LAM0, u)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-11 * scale


@pytest.mark.parametrize("lam,factor", [(2, 2.0), (4, 6.0)])
def test_lame_reduction(lattice, rng, lam, factor):
    """One site of weight L: H_0 u = u'' - L(L+2)/2 * wp_bar(lambda) u."""
    params = make_params(lattice, Z1, (lam,))
    ev = params.evaluator()
    hams = build_hamiltonians(params)
    assert gaudin._gaudin_model(params).dim == 1
    u = random_jet(rng, 1)
    out = hams[0].apply_jet(LAM0, u)[:, 0]
    u0 = u[:, 0]
    wp = jets.jet_wp_bar(ev, LAM0, DEGREE)
    want = jets.jderiv(jets.jderiv(u0)) - factor * jets.jmul(wp, u0)[: out.shape[0]]
    assert_allclose(out, want, rtol=0, atol=1e-12 * float(np.max(np.abs(want))))

    # the single residue operator acts as zero on the weight-zero line
    assert np.max(np.abs(hams[1].apply_jet(LAM0, u))) <= 1e-14


def test_coefficient_periodicity(lattice, rng):
    """Unit lambda-shifts leave every coefficient jet alone; tau-shifts do not."""
    params = make_params(lattice, Z2, (1, 1))
    tau = lattice.tau
    for H in build_hamiltonians(params):
        for d, cf in enumerate(H.coeffs):
            a = cf(LAM0, 5)
            b = cf(LAM0 + 1.0, 5)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(b - a)) <= 1e-10 * scale
        moved = H.coeffs[0](LAM0 + tau, 5)
        assert np.max(np.abs(moved - H.coeffs[0](LAM0, 5))) > 1e-3

    # same statement in functional form, on u(lambda) = e^{mu lambda} w
    mu = 0.37 - 0.29j
    w = random_jet(rng, 2, degree=0)[0]
    jet = jets.jet_exp(mu, LAM0, DEGREE)[:, None] * w[None, :]
    for H in build_hamiltonians(params):
        lhs = H.apply_jet(LAM0 + 1.0, np.exp(mu) * jet)
        rhs = np.exp(mu) * H.apply_jet(LAM0, jet)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_bethe_solver(lattice, rng):
    params = make_params(lattice, Z2, (2, 2))
    sol = solve_gaudin_bethe(params, rng)
    assert len(sol.roots) == 2
    assert sol.residual <= 1e-11

    # independent restatement of the equations, root-root terms doubled
    ev = params.evaluator()
    for j, wj in enumerate(sol.roots):
        val = -2.0 * sol.c
        for zl, ll in zip(params.zs, params.lams):
            val += ll * ev.zeta_bar(wj - zl)
        for k, wk in enumerate(sol.roots):
            if k != j:
                val -= 2.0 * ev.zeta_bar(wj - wk)
        assert abs(val) <= 1e-10

    for j, wj in enumerate(sol.roots):
        for wk in sol.roots[j + 1:]:
            assert abs(wj - wk) > 1e-6
        for zl in params.zs:
            assert abs(wj - zl) > 1e-6


def test_bethe_solver_untyped_error_propagates(lattice, rng, monkeypatch):
    """Only typed numeric failures restart the solver; a program error surfaces at once."""
    calls = []

    def broken(*args):
        calls.append(args)
        raise TypeError("broken residual")

    monkeypatch.setattr(gaudin, "_gaudin_equations", broken)
    with pytest.raises(TypeError, match="broken residual"):
        solve_gaudin_bethe(make_params(lattice, Z2, (1, 1)), rng)
    assert len(calls) == 1


def test_bethe_solver_rejects_colliding_sites(lattice, rng, monkeypatch):
    """Sites that collide modulo the lattice fail before the Newton solve starts."""

    def unreachable(*args):
        raise AssertionError("the Newton solve ran")

    monkeypatch.setattr(gaudin, "damped_newton", unreachable)
    with pytest.raises(ParameterError, match="collide"):
        solve_gaudin_bethe(make_params(lattice, (Z2[0], Z2[0] + 1.0), (1, 1)), rng)


@pytest.mark.parametrize("zs,lams", [(Z1, (4,)), (Z2, (1, 1)), (Z2, (2, 2))])
def test_bethe_eigenvector(lattice, rng, zs, lams):
    """u = e^{c lambda} f(w_1)...f(w_m) v_0 is a joint eigenvector; eigenvalues sum to 0."""
    params = make_params(lattice, zs, lams)
    hams = build_hamiltonians(params)
    sol = solve_gaudin_bethe(params, rng)

    eps_per_point = []
    for lam0 in [sample_point(rng, lattice) for _ in range(5)]:
        u = bethe_eigenvector(params, sol.c, sol.roots, lam0, DEGREE)
        scale = float(np.max(np.abs(u)))
        eps = []
        for H in hams:
            out = H.apply_jet(lam0, u)
            ej = rayleigh(out, u)
            eps.append(ej)
            assert np.max(np.abs(out - ej * u[: out.shape[0]])) <= 1e-8 * scale
        eps = np.array(eps)
        assert abs(np.sum(eps[1:])) <= 1e-9 * max(1.0, float(np.max(np.abs(eps))))
        eps_per_point.append(eps)

    # the eigenvalues do not depend on the expansion point
    eps_scale = max(1.0, float(np.max(np.abs(eps_per_point[0]))))
    for eps in eps_per_point[1:]:
        assert np.max(np.abs(eps - eps_per_point[0])) <= 1e-8 * eps_scale

    # S(z) u = q(z) u with q assembled from the same eigenvalues
    eps = eps_per_point[0]
    ev = params.evaluator()
    lam0 = 0.43 + 0.29j
    u = bethe_eigenvector(params, sol.c, sol.roots, lam0, DEGREE)
    for _ in range(2):
        z = params.sample_generic(rng, avoid=params.zs)
        q = eps[0]
        for k, zk in enumerate(params.zs):
            q += spectral_weight(params, k) * ev.wp_bar(z - zk)
            q += eps[k + 1] * ev.zeta_bar(z - zk)
        out = build_S(params, z).apply_jet(lam0, u)
        scale = float(np.max(np.abs(u)))
        assert np.max(np.abs(out - q * u[: out.shape[0]])) <= 1e-8 * scale


def frozen_eigenvector(params, c, roots, lam0, degree):
    """bethe_eigenvector with every lowering field evaluated at lam0 (degree-0 sigma jets)."""
    ctx = gaudin._gaudin_model(params)
    vec = np.zeros((degree + 1, ctx.total), dtype=complex)
    vec[0, 0] = 1.0
    for w in roots:
        sps = [np.array([ctx.ev.sigma(lam0, w - zi)]) for zi in params.zs]
        f_jet = sum(sp[:, None, None] * fi for sp, (_, fi, _) in zip(sps, ctx.ops))
        vec = jets.jmul(f_jet, vec, degree)
    vec = jets.jmul(jets.jet_exp(c, lam0, degree), vec, degree)
    return vec[:, ctx.indices]


def test_frozen_lambda_reading_fails(lattice, rng):
    # freezing lambda inside the lowering fields breaks the eigen relation
    params = make_params(lattice, Z2, (1, 1))
    hams = build_hamiltonians(params)
    sol = solve_gaudin_bethe(params, rng)
    u = frozen_eigenvector(params, sol.c, sol.roots, LAM0, DEGREE)
    scale = float(np.max(np.abs(u)))
    out = hams[0].apply_jet(LAM0, u)
    ej = rayleigh(out, u)
    assert np.max(np.abs(out - ej * u[: out.shape[0]])) > 1e-3 * scale
