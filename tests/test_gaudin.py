"""Dynamical Gaudin family: commuting operators, S(z) decomposition, Bethe vectors."""

import dataclasses
import functools
import json
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
from ellsov.theta import PoleProximityError

from conftest import count_reductions, count_theta_calls, jet_wp_bar, sample_point, sigma, wp_bar, zeta_bar

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
        h += zeta_bar(ev, z - zi) * hi
        e += sigma(ev, -lam, z - zi) * ei
        f += sigma(ev, lam, z - zi) * fi
    return FieldOps(h=h, e=e, f=f)


# The operators' lambda-dependent coefficients as they were built before the
# batched sigma jets: per pair, from the theta_array rows the operators read
# (one call per operator and one per model).  The sigma jets of one call are
# divided as one batch, as jet_sigma divides them, and the rows of theta_array
# depend on the batch, so the reference rebuilds the merged batch.  The
# operators must reproduce the per-pair assembly bit for bit.


def restrict(model, op):
    """The zero-weight block of a full-space matrix, through the model's indices."""
    return op[np.ix_(model.indices, model.indices)]


def pairs_of(ctx):
    n = ctx.params.n
    return [(j, k) for j in range(n) for k in range(n) if k != j]


def model_rows(ctx):
    """The degree-3 rows _gaudin_model reads: theta at 0, then at each z_j - z_k, j-major."""
    zs = ctx.params.zs
    return ctx.ev.theta_array(np.array([0j] + [zs[j] - zs[k] for j, k in pairs_of(ctx)]), 3)


def sigma_rows(ev, lam0, zs, degree):
    """The rows jet_sigma reads: theta over [0, lam0, -lam0, lam0 - z..., -lam0 - z..., z...], degree >= 1."""
    zs = list(zs)
    args = [0.0, lam0, -lam0] + [lam0 - z for z in zs] + [-lam0 - z for z in zs] + zs
    return ev.theta_array(np.array(args), max(degree, 1))


def reference_sigmas(rows, degree):
    """Every pair's sigma_{+lambda} and sigma_{-lambda} jet, one column each:
    theta(+/-lam0 - z) theta'(0) / (theta(z) theta(+/-lam0)), the odd terms
    of the second negated."""
    n = (len(rows) - 3) // 3
    scale = rows[0, 1] / rows[3 + 2 * n :, 0]
    pos = jets.jdiv(rows[3 : 3 + n, : degree + 1].T * scale, rows[1, : degree + 1], degree)
    neg = jets.jdiv(rows[3 + n : 3 + 2 * n, : degree + 1].T * scale, rows[2, : degree + 1], degree)
    neg[1::2] *= -1.0
    return pos, neg


def reference_c0_hamiltonian_j(ctx, j, lam0, degree):
    ev, r, pairs = ctx.ev, functools.partial(restrict, ctx), pairs_of(ctx)
    zjks = [ctx.params.zs[a] - ctx.params.zs[b] for a, b in pairs]
    rows = model_rows(ctx)
    zeta = rows[1:, 1] / rows[1:, 0]
    pos, neg = reference_sigmas(sigma_rows(ev, lam0, zjks, degree + 1), degree)
    ej, fj, hj = ctx.ops[j]
    mine = [(p, k) for p, (a, k) in enumerate(pairs) if a == j]
    out = np.zeros((degree + 1, ctx.dim, ctx.dim), dtype=complex)
    for p, k in mine:
        out[0] += (0.5 * zeta[p]) * r(hj @ ctx.ops[k][2])
    for p, k in mine:
        out += pos[:, p, None, None] * r(ej @ ctx.ops[k][1])[None, :, :]
    for p, k in mine:
        out += neg[:, p, None, None] * r(fj @ ctx.ops[k][0])[None, :, :]
    return out


def reference_c0_hamiltonian_0(ctx, lam0, degree):
    ev, zs, r, dim = ctx.ev, ctx.params.zs, functools.partial(restrict, ctx), ctx.dim
    rows = model_rows(ctx)
    diag_hh = 6.0 * rows[0, 3] / rows[0, 1]
    hh_const = np.zeros((dim, dim), dtype=complex)
    diag_ef = np.zeros((dim, dim), dtype=complex)
    cross_ef = []
    p = 0
    for j, (ej, fj, hj) in enumerate(ctx.ops):
        hh_const += 0.125 * diag_hh * r(hj @ hj)
        diag_ef += r(ej @ fj + fj @ ej)
        for k, (ek, fk, hk) in enumerate(ctx.ops):
            if k != j:
                tj = rows[1 + p]
                hh_const += 0.125 * (2.0 * tj[2] / tj[0]) * r(hj @ hk)
                cross_ef.append((zs[j] - zs[k], r(ej @ fk)))
                p += 1
    # one call at the operator's degree: the sigma jets and theta's jet at lam0
    rows = sigma_rows(ev, lam0, [zjk for zjk, _ in cross_ef], degree + 2)
    theta_lam = rows[1]
    wp = -jets.jderiv(jets.jdiv(jets.jderiv(theta_lam), theta_lam[: degree + 2], degree + 1))
    out = np.zeros((degree + 1, dim, dim), dtype=complex)
    out[0] += hh_const
    out -= 0.5 * wp[:, None, None] * diag_ef[None, :, :]
    dsig = jets.jderiv(reference_sigmas(rows, degree + 1)[0])
    for p, (_, mat) in enumerate(cross_ef):
        out -= dsig[:, p, None, None] * mat[None, :, :]
    return out


def reference_c0_S(ctx, z, lam0, degree):
    ev, zs, r = ctx.ev, ctx.params.zs, functools.partial(restrict, ctx)
    dzs = [z - zi for zi in zs]
    zeta = ev.zeta_wp(np.array(dzs))[0]
    pos, neg = reference_sigmas(sigma_rows(ev, lam0, dzs, degree), degree)
    h_full = np.zeros((ctx.total, ctx.total), dtype=complex)
    e_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
    f_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
    for i, (ei, fi, hi) in enumerate(ctx.ops):
        h_full += zeta[i] * hi
        e_jet += neg[:, i, None, None] * ei[None, :, :]
        f_jet += pos[:, i, None, None] * fi[None, :, :]
    hz = r(h_full)
    # the zero-weight block of each product, as rows of the left times columns of the right factor
    rows, cols = (slice(None), ctx.indices, slice(None)), (slice(None), slice(None), ctx.indices)
    out = 0.5 * (jets.jmul(e_jet[rows], f_jet[cols], degree) + jets.jmul(f_jet[rows], e_jet[cols], degree))
    out[0] += 0.25 * (hz @ hz)
    return out


@pytest.mark.parametrize("zs,lams", FAMILIES)
def test_batched_sigma_jets_equal_per_pair_reference(lattice, rng, zs, lams):
    """Each operator's coefficient jets, at its own degree (the operator's
    degree less its order), equal the per-pair reference bit for bit."""
    params = make_params(lattice, zs, lams)
    ctx = gaudin._gaudin_model(params)
    z = params.sample_generic(rng, avoid=params.zs)
    eye = np.eye(ctx.dim, dtype=complex)[None]
    for lam0 in (LAM0, params.sample_generic(rng), zs[1] - zs[0] + 0.01 + 0.02j):
        for degree in (2, 3, DEGREE):
            hams = build_hamiltonians(params, lam0, degree)
            assert np.array_equal(hams[0].coeffs[0], reference_c0_hamiltonian_0(ctx, lam0, degree - 2))
            assert np.array_equal(hams[0].coeffs[2], eye) and not hams[0].coeffs[1].any()
            for j in range(params.n):
                got = hams[1 + j].coeffs
                assert np.array_equal(got[0], reference_c0_hamiltonian_j(ctx, j, lam0, degree - 1))
                assert np.array_equal(got[1], -restrict(ctx, ctx.ops[j][2])[None])
            s_op = build_S(params, z, lam0, degree)
            assert np.array_equal(s_op.coeffs[0], reference_c0_S(ctx, z, lam0, degree - 2))
            assert np.array_equal(s_op.coeffs[2], eye)


@pytest.mark.parametrize("base", ["gaudin_n2.json", "gaudin_n3.json"])
def test_truncated_operators_equal_lower_degree(base):
    """Operators built at degree D and applied to a degree D - 1 jet match
    operators built at D - 1: coefficients read truncated carry no error
    beyond rounding (the theta series' term count depends on the degree)."""
    params = cli.build_params(json.loads((CONFIGS / base).read_text()))
    rng = np.random.default_rng(5)
    dim = gaudin._gaudin_model(params).dim
    for degree in (3, DEGREE):
        u = random_jet(rng, dim, degree - 1)
        lam0 = params.sample_generic(rng, margin=5e-2)
        z = params.sample_generic(rng, avoid=params.zs)
        high = build_hamiltonians(params, lam0, degree) + [build_S(params, z, lam0, degree)]
        low = build_hamiltonians(params, lam0, degree - 1) + [build_S(params, z, lam0, degree - 1)]
        for a, b in zip(high, low, strict=True):
            want = b.apply_jet(u)
            got = a.apply_jet(u)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * float(np.max(np.abs(want)))
            # a longer jet than the coefficients reach, or a shorter one than the order
            with pytest.raises(ValueError, match="exceeds"):
                b.apply_jet(random_jet(rng, dim, degree))
            with pytest.raises(ValueError, match="too low"):
                a.apply_jet(u[: a.order])
    with pytest.raises(ValueError, match="at least 2"):
        build_hamiltonians(params, LAM0, 1)


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
    # the dimension read, the one build_hamiltonians and the one build_S call share the one build
    assert len(calls) == 1 and gaudin._gaudin_model.cache_info().hits == 2


def test_gaudin_check_work(monkeypatch, tmp_path):
    """One cold gaudin check on configs/gaudin_n3.json: no scalar theta call
    and 5 theta_array calls over 142 points, each reducing its points once:
    the model (1, over 1 + 6 points), the Hamiltonians at the 4 lam0 (1,
    over 1 + 2 * 4 + 2 * 4 * 6 + 6), S at the 5 z (2: h(z)'s zeta_wp over
    5 * 3 points and the sigma pair's 1 + 2 + 2 * 15 + 15) and the 3
    s_decomposition points (1, over 3 * 3).  The Hamiltonians are built once
    as a stack over the 4 lam0, S once over the 5 z.  When each lam0 and
    each z took its own build, the check made 18 calls over 175 points and
    26 reductions, 8 of them distance passes of zeta_wp; with one call per
    jet function, 31 calls over 227 points; with the scalar jets, 160 theta
    calls; when every apply_jet formed its coefficients afresh, 468."""
    counts = count_theta_calls(monkeypatch)
    reductions = count_reductions(monkeypatch)
    builds = {"hams": [], "S": []}
    for name, key in (("build_hamiltonians", "hams"), ("build_S", "S")):
        original = getattr(gaudin, name)

        def counted(params, *point, _original=original, _key=key):
            builds[_key].append(np.size(point[0]))
            return _original(params, *point)

        monkeypatch.setattr(gaudin, name, counted)
    gaudin._gaudin_model.cache_clear()
    argv = ["gaudin", "check", "--config", str(CONFIGS / "gaudin_n3.json"), "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    assert counts == {"theta": [0, 0], "theta_array": [5, 142]}
    assert reductions == {"reduce_array": 5, "dist_to_lattice_array": 0}
    assert builds == {"hams": [4], "S": [5]}


@pytest.mark.parametrize("task, other", [("check", "bethe"), ("bethe", "check")])
def test_gaudin_task_theta_counts_cold_and_warm(monkeypatch, tmp_path, task, other):
    """No theta cache outlives a call: with the model cached, a task counts
    the same theta calls straight after itself and after the other task, one
    fewer than cold.  A
    cold gaudin bethe on configs/gaudin_n3.json makes no scalar theta call
    and 14 theta_array calls, each reducing its points once: the model's,
    one per Newton evaluation (11), one for the eigenvector's lowering
    fields at both lam0 and one for the Hamiltonians at both.  With two
    calls per lam0 it made 16, and 27 reductions, 11 of them the Newton's
    distance passes; with one call per root and per jet function, 22; with
    the scalar jets, 74 scalar calls beside the 11, and 230 when zeta_bar
    and wp_bar were scalar too."""
    counts = count_theta_calls(monkeypatch)
    reductions = count_reductions(monkeypatch)
    argv = ["--config", str(CONFIGS / "gaudin_n3.json"), "--out", str(tmp_path / "r.json")]

    def run(name):
        before = [count[0] for count in counts.values()] + [reductions["reduce_array"]]
        assert cli.main(["gaudin", name] + argv) == 0
        after = [count[0] for count in counts.values()] + [reductions["reduce_array"]]
        return [a - b for a, b in zip(after, before)]

    gaudin._gaudin_model.cache_clear()
    cold = run(task)
    assert cold == {"check": [0, 5, 5], "bethe": [0, 14, 14]}[task]
    warm = run(task)
    assert warm == [0, cold[1] - 1, cold[2] - 1]  # all but the model's call
    assert run(task) == warm
    run(other)
    assert run(task) == warm
    assert reductions["dist_to_lattice_array"] == 0


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
    assert_allclose(restrict(space, np.outer(full, full)), np.outer(vec, vec))
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
            expect += (wp_bar(ev, z - zi) - wp_bar(ev, lam)) * hi
        scale = max(1.0, float(np.max(np.abs(comm))))
        assert np.max(np.abs(comm - expect)) <= 1e-11 * scale

        # on the zero-weight space the wp_bar(lambda) part dies with sum h^(i)
        restr = restrict(ctx, comm)
        expect0 = np.zeros_like(restr)
        for (_, _, hi), zi in zip(ctx.ops, params.zs):
            expect0 += wp_bar(ev, z - zi) * restrict(ctx, hi)
        assert np.max(np.abs(restr - expect0)) <= 1e-11 * scale


@pytest.mark.parametrize("zs,lams", FAMILIES)
def test_hamiltonians_commute(lattice, rng, zs, lams):
    params = make_params(lattice, zs, lams)
    dim = gaudin._gaudin_model(params).dim
    u = random_jet(rng, dim)
    for lam0 in [sample_point(rng, lattice) for _ in range(3)]:
        hams = build_hamiltonians(params, lam0, DEGREE)
        applied = [H.apply_jet(u) for H in hams]
        scale = max(1.0, max(float(np.max(np.abs(a))) for a in applied))
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                comm = hams[i].apply_jet(applied[j]) - hams[j].apply_jet(applied[i])
                assert np.max(np.abs(comm)) <= 1e-9 * scale


def test_hamiltonian_sum_vanishes(lattice, rng):
    # sum_{j>=1} H_j = 0 on the zero-weight space
    params = make_params(lattice, Z3, (1, 1, 2))
    hams = build_hamiltonians(params, LAM0, DEGREE)
    u = random_jet(rng, gaudin._gaudin_model(params).dim)
    total = hams[1].apply_jet(u)
    for H in hams[2:]:
        total += H.apply_jet(u)
    scale = max(1.0, float(np.max(np.abs(hams[1].apply_jet(u)))))
    assert np.max(np.abs(total)) <= 1e-10 * scale


@pytest.mark.parametrize("zs,lams", [(Z2, (1, 1)), (Z3, (1, 1, 2))])
def test_s_decomposition(lattice, rng, zs, lams):
    """S(z) = sum_k c_k/2 wp_bar(z - z_k) + sum_k zeta_bar(z - z_k) H_k + H_0."""
    params = make_params(lattice, zs, lams)
    ev = params.evaluator()
    hams = build_hamiltonians(params, LAM0, DEGREE)
    u = random_jet(rng, gaudin._gaudin_model(params).dim)
    for _ in range(5):
        z = params.sample_generic(rng, avoid=params.zs)
        lhs = build_S(params, z, LAM0, DEGREE).apply_jet(u)
        rows = lhs.shape[0]
        rhs = hams[0].apply_jet(u)
        for k, zk in enumerate(params.zs):
            rhs += zeta_bar(ev, z - zk) * hams[k + 1].apply_jet(u)[:rows]
            rhs += spectral_weight(params, k) * wp_bar(ev, z - zk) * u[:rows]
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
        h_full += zeta_bar(ev, z - zi) * hi
        hp_full += -wp_bar(ev, z - zi) * hi
        pos, neg, _ = jets.jet_sigma(ev, LAM0, [z - zi], DEGREE)
        e_jet += neg[:, 0, None, None] * ei
        f_jet += pos[:, 0, None, None] * fi
    hr = restrict(ctx, h_full)
    fe = jets.jmul(f_jet, e_jet, DEGREE)
    fe_r = np.stack([restrict(ctx, fe[d]) for d in range(DEGREE + 1)])

    # constant matrices enter as degree-0 jets
    d_out = DEGREE - 2
    up = jets.jderiv(u)
    got = jets.jderiv(up)
    got -= jets.jmul(hr[None], up, d_out)
    const = 0.25 * hr @ hr - 0.5 * restrict(ctx, hp_full)
    got += jets.jmul(const[None], u, d_out)
    got += jets.jmul(fe_r, u, d_out)

    want = build_S(params, z, LAM0, DEGREE).apply_jet(u)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-11 * scale


@pytest.mark.parametrize("lam,factor", [(2, 2.0), (4, 6.0)])
def test_lame_reduction(lattice, rng, lam, factor):
    """One site of weight L: H_0 u = u'' - L(L+2)/2 * wp_bar(lambda) u."""
    params = make_params(lattice, Z1, (lam,))
    ev = params.evaluator()
    hams = build_hamiltonians(params, LAM0, DEGREE)
    assert gaudin._gaudin_model(params).dim == 1
    u = random_jet(rng, 1)
    out = hams[0].apply_jet(u)[:, 0]
    u0 = u[:, 0]
    wp = jet_wp_bar(ev, LAM0, DEGREE)
    want = jets.jderiv(jets.jderiv(u0)) - factor * jets.jmul(wp, u0)[: out.shape[0]]
    assert_allclose(out, want, rtol=0, atol=1e-12 * float(np.max(np.abs(want))))

    # the single residue operator acts as zero on the weight-zero line
    assert np.max(np.abs(hams[1].apply_jet(u))) <= 1e-14


def test_coefficient_periodicity(lattice, rng):
    """Unit lambda-shifts leave every coefficient jet alone; tau-shifts do not."""
    params = make_params(lattice, Z2, (1, 1))
    tau = lattice.tau
    at = {lam: build_hamiltonians(params, lam, 7) for lam in (LAM0, LAM0 + 1.0, LAM0 + tau)}
    for H, unit, moved in zip(at[LAM0], at[LAM0 + 1.0], at[LAM0 + tau], strict=True):
        for a, b in zip(H.coeffs, unit.coeffs, strict=True):
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(b - a)) <= 1e-10 * scale
        assert np.max(np.abs(moved.coeffs[0] - H.coeffs[0])) > 1e-3

    # same statement in functional form, on u(lambda) = e^{mu lambda} w
    mu = 0.37 - 0.29j
    w = random_jet(rng, 2, degree=0)[0]
    jet = jets.jet_exp(mu, LAM0, DEGREE)[:, None] * w[None, :]
    for H, unit in zip(at[LAM0], at[LAM0 + 1.0], strict=True):
        lhs = unit.apply_jet(np.exp(mu) * jet[:8])
        rhs = np.exp(mu) * H.apply_jet(jet[:8])
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


# The per-argument loops the batched Gaudin Newton system replaced, kept as its
# reference: scalar zeta_bar for the residual, scalar wp_bar for the Jacobian.


def reference_gaudin_equations(ev, params, c, roots):
    m = len(roots)
    res = np.zeros(m, dtype=complex)
    for j in range(m):
        val = -2.0 * c
        for zl, ll in zip(params.zs, params.lams):
            val += ll * zeta_bar(ev, roots[j] - zl)
        for k in range(m):
            if k != j:
                val -= 2.0 * zeta_bar(ev, roots[j] - roots[k])
        res[j] = val
    return res


def reference_gaudin_jacobian(ev, params, roots):
    m = len(roots)
    jac = np.zeros((m, m + 1), dtype=complex)
    for j in range(m):
        jac[j, 0] = -2.0
        diag = 0j
        for zl, ll in zip(params.zs, params.lams):
            diag -= ll * wp_bar(ev, roots[j] - zl)
        for k in range(m):
            if k != j:
                wp = wp_bar(ev, roots[j] - roots[k])
                diag += 2.0 * wp
                jac[j, 1 + k] = -2.0 * wp
        jac[j, 1 + j] = diag
    return jac


@pytest.mark.parametrize("zs,lams", FAMILIES)
def test_batched_gaudin_system_matches_scalar_reference(lattice, rng, zs, lams):
    """Residual and Jacobian of one batched evaluation against the scalar loops,
    1e-12 relative, at seeded points near the cell and farther out."""
    params = make_params(lattice, zs, lams)
    ev = params.evaluator()
    m = sum(lams) // 2
    for spread in (0.0, 2.0):
        for _ in range(6):
            roots = np.array([sample_point(rng, lattice, spread=spread) for _ in range(m)])
            c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            res, jacobian = gaudin._gaudin_equations(ev, params, np.array([c, *roots]))
            jac = jacobian()
            want_res = reference_gaudin_equations(ev, params, c, roots)
            want_jac = reference_gaudin_jacobian(ev, params, roots)
            assert np.max(np.abs(res - want_res)) <= 1e-12 * np.max(np.abs(want_res))
            assert np.max(np.abs(jac - want_jac)) <= 1e-12 * np.max(np.abs(want_jac))


def test_batched_gaudin_system_pole_proximity(lattice, rng):
    """A root within rho of a site, or of another root, modulo the lattice, raises
    PoleProximityError, as the scalar zeta_bar does."""
    tau = lattice.tau
    params = make_params(lattice, Z2, (2, 2))
    ev = params.evaluator()
    free = params.sample_generic(rng, avoid=params.zs)
    for roots in ([Z2[1] + 1.0 - tau + 3e-7j, free], [free, free + tau - 4e-7]):
        roots = np.array(roots)
        with pytest.raises(PoleProximityError, match="pole proximity"):
            gaudin._gaudin_equations(ev, params, np.array([0.1j, *roots]))
        with pytest.raises(PoleProximityError, match="pole proximity"):
            reference_gaudin_equations(ev, params, 0.1j, roots)


def test_build_S_pole_guard(lattice):
    """S(z) at a z within rho of a site, modulo the lattice, raises PoleProximityError,
    naming the first argument z - z_i within rho."""
    params = make_params(lattice, Z3, (1, 1, 2))
    near = Z3[1] + 1.0 - lattice.tau + 4e-7j
    with pytest.raises(PoleProximityError, match="pole proximity") as err:
        build_S(params, near, LAM0, DEGREE)
    assert repr(complex(near - Z3[1])) in str(err.value)


def stack_models(lattice):
    """The bundled Gaudin configs, then 3 seeded models of weights (1, 1, 2) with
    sites uniform in the cell, as the solvers benchmark draws them."""
    models = [cli.build_params(json.loads((CONFIGS / name).read_text())) for name in ("gaudin_n2.json", "gaudin_n3.json")]
    rng = np.random.default_rng(39)
    while len(models) < 5:
        zs = tuple(complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * lattice.tau.imag) for _ in range(3))
        try:
            gaudin._gaudin_model(make_params(lattice, zs, (1, 1, 2)))
        except ParameterError:
            continue
        models.append(make_params(lattice, zs, (1, 1, 2)))
    return models


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def point_column(coeff, p):
    """Point p's jet of a stacked coefficient, whose shared constants carry a one there."""
    return coeff[:, min(p, coeff.shape[1] - 1)]


@pytest.mark.parametrize("model", range(5))
def test_stacked_builds_equal_one_point_builds(lattice, model):
    """build_hamiltonians over 4 lam0, build_S over 5 z and bethe_eigenvector over
    2 lam0 equal their one-point builds to 1e-13 relative, coefficients and
    applications alike (a theta_array row depends on its batch).  A one-point
    stack is the same kernel batch as the point's build: equal bit for bit."""
    params = stack_models(lattice)[model]
    rng = np.random.default_rng(model)
    dim, m = gaudin._gaudin_model(params).dim, sum(params.lams) // 2
    u = random_jet(rng, dim)
    lam0s = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(4)])
    zs = np.array([params.sample_generic(rng, avoid=params.zs) for _ in range(5)])
    c, roots = complex(rng.uniform(-0.4, 0.4), 0.1), [params.sample_generic(rng, avoid=params.zs) for _ in range(m)]
    families = (
        (lambda pts: build_hamiltonians(params, pts, DEGREE), lam0s),
        (lambda pts: [build_S(params, pts, lam0s[0], DEGREE)], zs),
    )
    for build, points in families:
        stack = build(points)
        for p, point in enumerate(points):
            for op, single in zip(stack, build(point), strict=True):
                for coeff, want in zip(op.coeffs, single.coeffs, strict=True):
                    assert_close(point_column(coeff, p), want)
                assert_close(op.apply_jet(u[:, None])[:, p], single.apply_jet(u))
        for op, single in zip(build(points[:1]), build(points[0]), strict=True):
            for coeff, want in zip(op.coeffs, single.coeffs, strict=True):
                assert np.array_equal(coeff[:, 0], want)
    vecs = bethe_eigenvector(params, c, roots, lam0s[:2], DEGREE)
    for p in range(2):
        assert_close(vecs[:, p], bethe_eigenvector(params, c, roots, lam0s[p], DEGREE))
    assert np.array_equal(bethe_eigenvector(params, c, roots, lam0s[:1], DEGREE)[:, 0],
                          bethe_eigenvector(params, c, roots, lam0s[0], DEGREE))


def test_stack_pole_proximity_matches_point_loop(lattice):
    """A stack of S points with one within rho of a site, modulo the lattice, raises
    the PoleProximityError the per-point loop raises at that point, message and all."""
    params = make_params(lattice, Z3, (1, 1, 2))
    near = Z3[1] + 1.0 - lattice.tau + 4e-7j
    zs = np.array([0.41 + 0.37j, near, 0.66 + 0.12j])
    with pytest.raises(PoleProximityError) as stacked:
        build_S(params, zs, LAM0, DEGREE)
    with pytest.raises(PoleProximityError) as single:
        for z in zs:
            build_S(params, z, LAM0, DEGREE)
    assert str(stacked.value) == str(single.value)
    assert repr(complex(near - Z3[1])) in str(stacked.value)


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
            val += ll * zeta_bar(ev, wj - zl)
        for k, wk in enumerate(sol.roots):
            if k != j:
                val -= 2.0 * zeta_bar(ev, wj - wk)
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
    sol = solve_gaudin_bethe(params, rng)

    eps_per_point = []
    for lam0 in [sample_point(rng, lattice) for _ in range(5)]:
        u = bethe_eigenvector(params, sol.c, sol.roots, lam0, DEGREE)
        scale = float(np.max(np.abs(u)))
        eps = []
        for H in build_hamiltonians(params, lam0, DEGREE):
            out = H.apply_jet(u)
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
            q += spectral_weight(params, k) * wp_bar(ev, z - zk)
            q += eps[k + 1] * zeta_bar(ev, z - zk)
        out = build_S(params, z, lam0, DEGREE).apply_jet(u)
        scale = float(np.max(np.abs(u)))
        assert np.max(np.abs(out - q * u[: out.shape[0]])) <= 1e-8 * scale


def frozen_eigenvector(params, c, roots, lam0, degree):
    """bethe_eigenvector with every lowering field evaluated at lam0 (degree-0 sigma jets)."""
    ctx = gaudin._gaudin_model(params)
    vec = np.zeros((degree + 1, ctx.total), dtype=complex)
    vec[0, 0] = 1.0
    for w in roots:
        sps = [np.array([sigma(ctx.ev, lam0, w - zi)]) for zi in params.zs]
        f_jet = sum(sp[:, None, None] * fi for sp, (_, fi, _) in zip(sps, ctx.ops))
        vec = jets.jmul(f_jet, vec, degree)
    vec = jets.jmul(jets.jet_exp(c, lam0, degree), vec, degree)
    return vec[:, ctx.indices]


def test_frozen_lambda_reading_fails(lattice, rng):
    # freezing lambda inside the lowering fields breaks the eigen relation
    params = make_params(lattice, Z2, (1, 1))
    sol = solve_gaudin_bethe(params, rng)
    u = frozen_eigenvector(params, sol.c, sol.roots, LAM0, DEGREE)
    scale = float(np.max(np.abs(u)))
    out = build_hamiltonians(params, LAM0, DEGREE)[0].apply_jet(u)
    ej = rayleigh(out, u)
    assert np.max(np.abs(out - ej * u[: out.shape[0]])) > 1e-3 * scale
