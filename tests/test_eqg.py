"""Dynamical R-matrix, shift-operator quadruple, RLL relations, highest weight."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import eqg, spaces
from ellsov.eqg import (
    OperatorQuadruple,
    ShiftOp,
    S0Grid,
    build_quadruple,
    det_scalar,
    highest_weight_check,
    ktwist_residual,
    qybe_residual,
    r_matrix,
    residue_sum,
    rll_residual,
)
from ellsov.params import ModelParams, ParameterError
from ellsov.theta import ThetaEvaluator

from conftest import grid_shifted, hexes, sample_point, theta_value

ETA = 0.173 - 0.061j
Z1 = (0.12 + 0.23j,)
Z2 = (0.12 + 0.23j, 0.57 + 0.71j)
Z3 = (0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.52j)


def make_params(lattice, zs, lams):
    return ModelParams(lattice=lattice, eta=ETA, zs=zs, lams=lams)


# The quadruple as it was built before each operator kept its
# lambda-independent factors: every coefficient is recomputed from scratch
# at every lambda.  The operators must equal these entry for entry.


def _ref_hop_coefficient(ev, params, grid, z, lam, mu, idx, i, sign):
    """head * prod_{j != i} theta(zdisp - x_j)/theta(x_i - x_j) * A(x_i), zdisp = -z, factor by
    factor: the head is theta(mu - zdisp + x_i)/theta(lambda) and A is A_plus (sign = +1) or
    A_minus, each argument z_k - z_i or -z_i + z_j plus an integer times eta."""
    eta, zs, lams, m = params.eta, params.zs, params.lams, grid.points[idx]
    steps = [l - 2 * mj for l, mj in zip(lams, m)]
    zdisp = -z
    val = theta_value(ev, mu - zdisp + (-zs[i] + (2 * m[i] - lams[i]) * eta)) / theta_value(ev, lam)
    for j in range(params.n):
        if j != i:
            cross = theta_value(ev, -zs[i] + zs[j] + (steps[j] - steps[i]) * eta)
            val *= theta_value(ev, zdisp + zs[j] + steps[j] * eta) / cross
    return val * math.prod(theta_value(ev, zk - zs[i] + (sign * lk - steps[i]) * eta) for zk, lk in zip(zs, lams))


def _ref_a_coefficient(ev, params, grid, z, lam, idx):
    # prod_j theta(z + x_j) as (-1)^n prod_j theta(-z - x_j), each argument -z + z_j + (Lambda_j - 2 m_j) eta
    sites = zip(params.zs, params.lams, grid.points[idx])
    pref = math.prod((theta_value(ev, -z + zj + (l - 2 * mj) * params.eta) for zj, l, mj in sites),
                     start=(-1.0) ** params.n)
    arg = lam - params.eta * grid.weights[idx] + params.eta * sum(params.lams)
    return pref * theta_value(ev, arg) / theta_value(ev, lam)


def _ref_b_coefficient(ev, params, grid, z, lam, idx, i, sign=1):
    # -theta(lambda + z + x_i)/theta(lambda) prod_{j != i} theta(z + x_j)/theta(x_i - x_j) Delta_+(-x_i): the
    # signs (-1)^(n-1) of theta(z + x_j) and (-1)^n of Delta_+(-x_i) = (-1)^n A_plus(x_i) cancel the minus
    return _ref_hop_coefficient(ev, params, grid, z, lam, lam, idx, i, sign)


def _ref_c_coefficient(ev, params, grid, z, lam, idx, i, sign=-1):
    # theta(-lambda + z + x_i - 2 s) in the head, s = sum_j (x_j + z_j) = -eta w at the target
    mu = -lam + 2 * (params.eta * int(grid.weights[idx]))
    return _ref_hop_coefficient(ev, params, grid, z, lam, mu, idx, i, sign)


def reference_quadruple(params):
    ev = params.evaluator()
    eta = params.eta
    grid = S0Grid(params)
    step = 2 * eta

    def diagonal(fn, k):
        return ShiftOp(grid.dim, step, lambda lam: {
            k: np.diag(np.array([fn(lam, i) for i in range(grid.dim)], dtype=complex))
        })

    def a_op(z):
        return diagonal(lambda lam, idx: _ref_a_coefficient(ev, params, grid, z, lam, idx), -1)

    def hop_op(z, dm, coefficient):
        hops = [
            (idx, src, i)
            for idx in range(grid.dim)
            for i in range(params.n)
            if (src := grid_shifted(grid, idx, i, dm)) is not None
        ]

        def blocks(lam):
            m = np.zeros((grid.dim, grid.dim), dtype=complex)
            for t, s, i in hops:
                m[t, s] = coefficient(ev, params, grid, z, lam, t, i)
            return {-dm: m}

        return ShiftOp(grid.dim, step, blocks)

    def b_op(z):
        return hop_op(z, -1, _ref_b_coefficient)

    def c_op(z):
        return hop_op(z, +1, _ref_c_coefficient)

    def a_inverse(z):
        # the operator takes the reciprocals on a numpy array, whose complex division is not Python's
        return diagonal(
            lambda lam, idx: 1.0 / np.complex128(_ref_a_coefficient(ev, params, grid, z, lam + step, idx)), +1
        )

    def d_op(z):
        det_z = det_scalar(params, z)
        diag = diagonal(
            lambda lam, idx: theta_value(ev, lam - 2 * eta * grid.weights[idx]) / theta_value(ev, lam) * det_z, 0
        )
        inner = diag + c_op(z + 2 * eta).compose(b_op(z))
        return a_inverse(z + 2 * eta).compose(inner)

    return OperatorQuadruple(grid=grid, a=a_op, b=b_op, c=c_op, d=d_op)


def reference_restriction_closure(params, z, lam):
    ev = params.evaluator()
    grid = S0Grid(params)
    report = {"b": {}, "c": {}}
    for sign, tag in ((+1, "delta_plus"), (-1, "delta_minus")):
        worst_b = 0.0
        worst_c = 0.0
        for idx, m in enumerate(grid.points):
            for i in range(params.n):
                if m[i] == 0:
                    worst_b = max(
                        worst_b, abs(_ref_b_coefficient(ev, params, grid, z, lam, idx, i, sign))
                    )
                if m[i] == params.lams[i]:
                    worst_c = max(
                        worst_c, abs(_ref_c_coefficient(ev, params, grid, z, lam, idx, i, sign))
                    )
        report["b"][tag] = worst_b
        report["c"][tag] = worst_c
    report["b_closes_with"] = "delta_plus" if report["b"]["delta_plus"] <= report["b"]["delta_minus"] else "delta_minus"
    report["c_closes_with"] = "delta_minus" if report["c"]["delta_minus"] <= report["c"]["delta_plus"] else "delta_plus"
    return report


def shift_residual(a, b, lam_samples):
    """Max entrywise deviation between two shift operators at sampled lambda
    (a's size if b is None), on the walker eqg._offset_pairs."""
    if b is None:
        b = ShiftOp(a.dim, a.step, lambda lam: {})
    worst = 0.0
    for da, db in eqg._offset_pairs(a, b, lam_samples):
        worst = max(worst, float(np.max(np.abs(da - db))))
    return worst


def difference(a, b):
    """The shift operator a - b."""
    return a + ShiftOp(b.dim, b.step, lambda lam: {k: -m for k, m in b.blocks(lam).items()})


def central_element_residual(params, z, w, lam_samples):
    """The determinant combination is the scalar Det(z), hence commutes with a, b, c."""
    ev = params.evaluator()
    quad = eqg.build_quadruple(params)
    grid = quad.grid
    eta = params.eta
    combo = difference(quad.a(z + 2 * eta).compose(quad.d(z)), quad.c(z + 2 * eta).compose(quad.b(z)))
    # undo the weight-dependent prefactor per target grid point
    central = ShiftOp.diagonal(
        grid.dim, combo.step,
        lambda lam: [theta_value(ev, lam) / theta_value(ev, lam - 2 * eta * h) for h in grid.weights],
    ).compose(combo)
    det_z = det_scalar(params, z)
    scalar = ShiftOp.diagonal(grid.dim, combo.step, lambda lam: [det_z] * grid.dim)
    out = {"scalar_residual": shift_residual(central, scalar, lam_samples) / max(1.0, abs(det_z))}
    for name, op in (("a", quad.a(w)), ("b", quad.b(w)), ("c", quad.c(w))):
        comm = difference(central.compose(op), op.compose(central))
        scale = max(1.0, shift_residual(op.compose(scalar), None, lam_samples))
        out[f"commutator_{name}"] = shift_residual(comm, None, lam_samples) / scale
    return out


def count_theta(monkeypatch):
    """Record the points of every ThetaEvaluator.theta_array call from now on, a list per call."""
    calls = []
    original = ThetaEvaluator.theta_array

    def counting(self, zs, *args, **kwargs):
        calls.append([complex(z) for z in zs])
        return original(self, zs, *args, **kwargs)

    monkeypatch.setattr(ThetaEvaluator, "theta_array", counting)
    return calls


def test_r_matrix_structure(lattice, rng):
    params = make_params(lattice, Z1, (1,))
    ev = params.evaluator()
    z = sample_point(rng, lattice)
    lam = sample_point(rng, lattice)

    r = r_matrix(params, z, lam)
    # corners are exactly 1, the middle block carries alpha and beta
    assert r[0, 0] == 1.0 and r[3, 3] == 1.0
    alpha = theta_value(ev, lam + 2 * ETA) * theta_value(ev, z) / (theta_value(ev, lam) * theta_value(ev, z - 2 * ETA))
    beta = -theta_value(ev, lam + z) * theta_value(ev, 2 * ETA) / (theta_value(ev, lam) * theta_value(ev, z - 2 * ETA))
    assert_allclose(r[1, 1], alpha, rtol=1e-13)
    assert_allclose(r[1, 2], beta, rtol=1e-13)
    assert np.max(np.abs(r[0, 1:])) == 0.0

    # weight preservation
    h2 = np.diag([2.0, 0.0, 0.0, -2.0])
    assert np.max(np.abs(r @ h2 - h2 @ r)) <= 1e-12 * np.max(np.abs(r))

    # z = 0 collapses to the permutation matrix
    flip = np.zeros((4, 4), dtype=complex)
    flip[0, 0] = flip[3, 3] = flip[1, 2] = flip[2, 1] = 1.0
    assert np.max(np.abs(r_matrix(params, 0.0, lam) - flip)) <= 1e-12

    with pytest.raises(ParameterError):
        r_matrix(params, z, 0.0)
    with pytest.raises(ParameterError):
        r_matrix(params, 2 * ETA, lam)


def test_qybe(lattice, rng):
    params = make_params(lattice, Z1, (1,))
    for _ in range(20):
        z = sample_point(rng, lattice)
        w = sample_point(rng, lattice)
        lam = sample_point(rng, lattice)
        assert qybe_residual(params, z, w, lam) <= 1e-9


def reference_r_on_three(ev, eta, u, lam, pos, dyn):
    """eqg._r_on_three as it was: a loop over the basis vectors of V x V x V."""
    pair_index = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    p, q = pos
    if dyn is None:
        rs = [eqg._r_matrix_raw(ev, eta, u, lam)]
    else:
        rs = [eqg._r_matrix_raw(ev, eta, u, lam - 2 * eta * (1 - 2 * s)) for s in (0, 1)]
    out = np.zeros((8, 8), dtype=complex)
    for src in itertools.product((0, 1), repeat=3):
        r = rs[0 if dyn is None else src[dyn]]
        col = pair_index[(src[p], src[q])]
        for row in range(4):
            if r[row, col] == 0:
                continue
            dst = list(src)
            dst[p], dst[q] = divmod(row, 2)
            out[int(np.ravel_multi_index(dst, (2, 2, 2))),
                int(np.ravel_multi_index(src, (2, 2, 2)))] += r[row, col]
    return out


def test_r_on_three_matches_the_basis_loop(lattice, rng):
    """The tensor placement equals the basis-vector loop entry for entry, on
    the three pairs of factors with the third factor dynamical or not."""
    ev = ThetaEvaluator(lattice)
    for _ in range(5):
        u, lam = sample_point(rng, lattice), sample_point(rng, lattice)
        for pos, third in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0)):
            for dyn in (third, None):
                got = eqg._r_on_three(ev, ETA, u, lam, pos, dyn)
                want = reference_r_on_three(ev, ETA, u, lam, pos, dyn)
                assert hexes(got.ravel()) == hexes(want.ravel()), (pos, dyn)


def test_qybe_r_matrix_count(lattice, rng, monkeypatch):
    """lambda_eff takes one value per plain embedding and two per dynamical
    one, so a QYBE residual needs 3 + 3 * 2 R-matrices, not one per basis
    vector of each embedding (48)."""
    params = make_params(lattice, Z1, (1,))
    calls = [0]
    original = eqg._r_matrix_raw

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(eqg, "_r_matrix_raw", counting)
    z, w, lam = (sample_point(rng, lattice) for _ in range(3))
    assert qybe_residual(params, z, w, lam) <= 1e-9
    assert calls[0] <= 9


def test_ktwist(lattice, rng):
    params = make_params(lattice, Z1, (1,))
    k = np.array([[0.0, 1.0], [1.0, 0.0]])  # the spin flip K
    np.testing.assert_array_equal(k @ k, np.eye(2))
    for _ in range(5):
        z = sample_point(rng, lattice)
        lam = sample_point(rng, lattice)
        assert ktwist_residual(params, z, lam) <= 1e-12


def test_shift_algebra(lattice, rng):
    params = make_params(lattice, Z2, (2, 2))
    quad = build_quadruple(params)
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    lams = [sample_point(rng, lattice) for _ in range(3)]
    a, b, c = quad.a(z), quad.b(w), quad.c(z + 0.1)

    # associativity, relative to the size of the composite
    lhs = a.compose(b).compose(c)
    rhs = a.compose(b.compose(c))
    scale = max(
        1.0,
        max(float(np.max(np.abs(m))) for lam in lams for m in lhs.blocks(lam).values()),
    )
    assert shift_residual(lhs, rhs, lams) <= 1e-11 * scale

    # composition agrees with applying the factors one after the other
    dim = quad.grid.dim
    coef = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))

    def fun(lam):
        return np.array([sum(coef[t, k] * lam**k for k in range(3)) for t in range(dim)])

    comp = a.compose(b)
    for lam in lams:
        direct = a.apply(lambda mu: b.apply(fun, mu), lam)
        mag = max(
            1.0,
            float(np.max(np.abs(direct))),
            max(float(np.max(np.abs(m))) for m in comp.blocks(lam).values()),
        )
        assert np.max(np.abs(comp.apply(fun, lam) - direct)) <= 1e-11 * mag


def test_h_grading(lattice):
    # a and d preserve the grid weight, b lowers it by 2, c raises it by 2
    params = make_params(lattice, Z2, (1, 2))
    quad = build_quadruple(params)
    grid = quad.grid
    z = 0.41 + 0.18j
    lam = 0.37 + 0.29j
    for op, change in ((quad.a(z), 0), (quad.b(z), -2), (quad.c(z), 2), (quad.d(z), 0)):
        entries = [np.nonzero(m) for m in op.blocks(lam).values()]
        assert sum(len(t) for t, _s in entries) > 0
        for t, s in entries:
            assert np.all(grid.weights[t] - grid.weights[s] == change)


def test_n1_example(lattice, rng):
    """One site of weight 1: all four operators match the closed two-point forms."""
    params = make_params(lattice, Z1, (1,))
    ev = params.evaluator()
    quad = build_quadruple(params)
    grid = quad.grid
    z1 = Z1[0]
    for _ in range(3):
        z = sample_point(rng, lattice)
        lam = sample_point(rng, lattice)
        mats = {
            "a": quad.a(z).blocks(lam),
            "b": quad.b(z).blocks(lam),
            "c": quad.c(z).blocks(lam),
            "d": quad.d(z).blocks(lam),
        }
        for idx in range(grid.dim):
            h = grid.weights[idx]
            a_ex = theta_value(ev, z - z1 - ETA * h) * theta_value(ev, lam - ETA * h + ETA) / theta_value(ev, lam)
            d_ex = theta_value(ev, z - z1 + ETA * h) * theta_value(ev, lam - ETA * h - ETA) / theta_value(ev, lam)
            assert abs(mats["a"][-1][idx, idx] - a_ex) <= 1e-10 * max(1.0, abs(a_ex))
            assert abs(mats["d"][+1][idx, idx] - d_ex) <= 1e-10 * max(1.0, abs(d_ex))
            src = grid_shifted(grid, idx, 0, -1)
            if src is not None:
                b_ex = theta_value(ev, lam + z - z1 - ETA * h) / theta_value(ev, lam) * theta_value(ev, ETA - ETA * h)
                assert abs(mats["b"][+1][idx, src] - b_ex) <= 1e-10 * max(1.0, abs(b_ex))
            src = grid_shifted(grid, idx, 0, +1)
            if src is not None:
                c_ex = -theta_value(ev, -lam + z - z1 + ETA * h) / theta_value(ev, lam) * theta_value(ev, ETA * h + ETA)
                assert abs(mats["c"][-1][idx, src] - c_ex) <= 1e-10 * max(1.0, abs(c_ex))


@pytest.mark.parametrize("zs,lams", [(Z1, (1,)), (Z2, (1, 1)), (Z3, (1, 1, 1))])
def test_rll_relations(lattice, rng, zs, lams):
    params = make_params(lattice, zs, lams)
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    samples = [sample_point(rng, lattice) for _ in range(5)]
    report = rll_residual(params, z, w, samples)
    assert report["max_residual"] <= 1e-9
    assert np.max(np.asarray(report["block_residuals"])) <= 1e-9


def test_rll_theta_count(lattice, rng, monkeypatch):
    """Each operator evaluates its lambda-independent factors once, when it is
    built (a(z), b(z) and c(z) share theirs, and the model's cross thetas and
    hop coefficients come from the cached hop table), and each R-matrix,
    factor table and block takes its thetas from one array call: one cold RLL
    check at two sites reads the per-entry coefficients' 467 distinct theta
    arguments and theta(0) at 1,633 points in 277 calls, where the per-entry
    coefficients (one point per call, beside the R-matrices of the
    multiplication operators) read 4,628 points in 4,142 calls, and reports
    the same numbers.  theta(0) is the table's theta(lambda_w) at the weight
    w = 0, which only the grid transfer matrix reads.  With a(z)'s own
    theta(z + x_j): 482 distinct arguments and theta(0) at 1,665 points in
    281 calls; with per-operator hop factors: 475 distinct arguments (b and c
    read a's theta(z + x_j) then) at 1,758 points in 284 calls; with one
    scalar call per theta, 1,758 calls."""
    params = make_params(lattice, Z2, (1, 1))
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    samples = [sample_point(rng, lattice) for _ in range(5)]
    eqg._hop_table.cache_clear()
    calls = count_theta(monkeypatch)
    report = rll_residual(params, z, w, samples)
    points = [p for call in calls for p in call]
    assert report["max_residual"] <= 1e-9
    assert len(set(points)) == 468
    assert len(calls) <= 277 and len(points) <= 1_633

    calls.clear()
    monkeypatch.setattr(eqg, "build_quadruple", reference_quadruple)
    assert rll_residual(params, z, w, samples) == report
    assert {p for call in calls for p in call} == set(points) - {0j}
    assert (len(calls), sum(map(len, calls))) == (4_142, 4_628)


def test_central_element_theta_count(lattice, rng, monkeypatch):
    """The centrality check reads its operators' factor tables too: cold,
    1,077 theta points in 348 array calls at two sites (1,101 in 351 with
    a(z)'s own theta(z + x_j), 1,166 in 353 with per-operator hop factors,
    and 1,166 scalar calls before the array calls), not the per-entry
    coefficients' 3,608 points (3,602 calls: each determinant takes one)."""
    params = make_params(lattice, Z2, (1, 1))
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    samples = [sample_point(rng, lattice) for _ in range(3)]
    eqg._hop_table.cache_clear()
    calls = count_theta(monkeypatch)
    report = central_element_residual(params, z, w, samples)
    assert report["scalar_residual"] <= 1e-10
    assert len(calls) <= 348 and sum(map(len, calls)) <= 1_077

    calls.clear()
    monkeypatch.setattr(eqg, "build_quadruple", reference_quadruple)
    assert central_element_residual(params, z, w, samples) == report
    assert (len(calls), sum(map(len, calls))) == (3_602, 3_608)


@pytest.mark.parametrize("lams", [(1, 1, 1), (2, 1), (3, 1, 1)])
def test_hop_coefficients_are_the_shift_polynomials(lattice, lams):
    """Each hop's coefficient in the hop table is A_plus(x_i) for b and A_minus(x_i)
    for c at its target: eqg._shift_polys, the pair that the off-grid operator
    and continuous_bethe read, at S0Grid.xs through spaces.eval_elliptic_polys.
    The other polynomial of the pair misses (negative control)."""
    params = make_params(lattice, Z3[: len(lams)], lams)
    table = eqg._hop_table(params)
    polys = spaces.eval_elliptic_polys(params.evaluator(), eqg._shift_polys(params), S0Grid(params).xs)
    for d in (0, 1):
        target, _, site, _ = table.hops[d]
        coefs = np.array(table.coefs)[table.factors[d][-1] - len(table.cross)]
        assert np.max(np.abs(coefs - polys[d][target, site]) / np.abs(polys[d][target, site])) <= 1e-13
        assert np.min(np.abs(coefs - polys[1 - d][target, site]) / np.abs(coefs)) > 1e-3
    # every coefficient serves a hop
    served = np.unique(np.concatenate([f[-1] for f in table.factors]))
    assert np.array_equal(served, len(table.cross) + np.arange(len(table.coefs)))


def test_rll_residual_sees_perturbed_a_and_b(lattice, rng, monkeypatch):
    """The sixteen relations hold the a-b exchange relation among them: a
    1e-6 change of a(z) at grid point 0, or of b's site-0 hop coefficient (which
    leaves a-b exchange, linear in b on both sides, intact), moves the
    residual from below 1e-12 to above 1e-8."""
    params = make_params(lattice, Z2, (1, 1))
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    samples = [sample_point(rng, lattice) for _ in range(4)]
    assert rll_residual(params, z, w, samples)["max_residual"] <= 1e-12

    build = eqg.build_quadruple

    def perturbed_a(params):
        quad = build(params)

        def a(z):
            op = quad.a(z)

            def blocks(lam):
                m = op.blocks(lam)[-1].copy()
                m[0, 0] *= 1.0 + 1e-6
                return {-1: m}

            return ShiftOp(op.dim, op.step, blocks)

        return OperatorQuadruple(grid=quad.grid, a=a, b=quad.b, c=quad.c, d=quad.d)

    with monkeypatch.context() as patch:
        patch.setattr(eqg, "build_quadruple", perturbed_a)
        assert rll_residual(params, z, w, samples)["max_residual"] > 1e-8

    hop_table = eqg._hop_table

    def perturbed_b_coefficient(params):
        # the table's first coefficient is b's A_plus(x_0) at m_0 = 1
        table = hop_table(params)
        return dataclasses.replace(table, coefs=(table.coefs[0] * (1.0 + 1e-6),) + table.coefs[1:])

    monkeypatch.setattr(eqg, "_hop_table", perturbed_b_coefficient)
    assert rll_residual(params, z, w, samples)["max_residual"] > 1e-8


def test_restriction_closure(lattice, rng):
    """b closes the grid boundary with Delta_+, c with Delta_-; recorded, not assumed."""
    params = make_params(lattice, Z2, (2, 2))
    z = sample_point(rng, lattice)
    lam = sample_point(rng, lattice)
    report = reference_restriction_closure(params, z, lam)
    scale = max(1.0, report["b"]["delta_minus"], report["c"]["delta_plus"])
    assert report["b"]["delta_plus"] <= 1e-12 * scale
    assert report["c"]["delta_minus"] <= 1e-12 * scale
    assert report["b_closes_with"] == "delta_plus"
    assert report["c_closes_with"] == "delta_minus"
    # the opposite signs genuinely fail to close
    assert report["b"]["delta_minus"] > 1e-3
    assert report["c"]["delta_plus"] > 1e-3


def test_s1_preservation(lattice, rng):
    """b and c keep functions vanishing on lambda = eta h vanishing there.

    All-odd weights with an odd site count keep eta h(m) away from the
    theta(lambda) pole, the same genericity the finite restriction needs.
    """
    params = make_params(lattice, Z3, (1, 1, 1))
    quad = build_quadruple(params)
    grid = quad.grid
    z = sample_point(rng, lattice)
    dim = grid.dim
    coef = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))

    def vanishing(lam):
        out = np.zeros(dim, dtype=complex)
        for t in range(dim):
            poly = sum(coef[t, k] * lam**k for k in range(4))
            out[t] = (lam - ETA * grid.weights[t]) * poly
        return out

    worst = 0.0
    scale = 1.0
    for op in (quad.b(z), quad.c(z)):
        for t in range(dim):
            val = op.apply(vanishing, ETA * grid.weights[t])
            worst = max(worst, abs(val[t]))
            scale = max(scale, float(np.max(np.abs(val))))
    assert worst <= 1e-12 * scale


def test_highest_weight(lattice, rng):
    params = make_params(lattice, Z2, (2, 2))
    z_samples = [sample_point(rng, lattice) for _ in range(3)]
    lam_samples = [sample_point(rng, lattice) for _ in range(3)]
    report = highest_weight_check(params, z_samples, lam_samples)
    assert report["weight"] == report["weight_expected"] == 4
    assert report["c_residual"] <= 1e-12
    assert report["a_residual"] <= 1e-12
    assert report["d_residual"] <= 1e-10
    assert report["pair_residual"] <= 1e-10


def test_centrality(lattice, rng):
    params = make_params(lattice, Z2, (1, 1))
    z = sample_point(rng, lattice)
    w = sample_point(rng, lattice)
    samples = [sample_point(rng, lattice) for _ in range(3)]
    report = central_element_residual(params, z, w, samples)
    assert report["scalar_residual"] <= 1e-10
    for name in ("a", "b", "c"):
        assert report[f"commutator_{name}"] <= 1e-10

    # the scalar itself
    ev = params.evaluator()
    val = det_scalar(params, z)
    expected = 1.0
    for zi, li in zip(params.zs, params.lams):
        expected *= theta_value(ev, z - zi - li * ETA) * theta_value(ev, z - zi + li * ETA + 2 * ETA)
    assert_allclose(val, expected, rtol=1e-13)


def test_residue_sum(lattice):
    params = make_params(lattice, Z2, (2, 2))
    grid = S0Grid(params)
    for gi in (0, grid.dim // 2):
        for i in (0, 1):
            assert abs(residue_sum(params, gi, i)) <= 1e-10


def test_residue_sum_poles_close_mod_lattice(lattice):
    """Poles 0.37 apart in the plane but 0.081 apart modulo the lattice: the
    quadrature radius must follow the lattice distance, or a circle encloses
    a translate of another pole and the sum comes out near 1."""
    params = ModelParams(
        lattice=lattice,
        eta=0.244551 - 0.091536j,
        zs=(0.797729 + 1.046006j, 0.206087 + 0.872536j),
        lams=(1, 1),
    )
    for gi in (0, 3):
        for i in (0, 1):
            assert abs(residue_sum(params, gi, i)) <= 1e-10


def test_shift_residual_against_zero(lattice, rng):
    """b = None is the zero operator: the residual is the largest entry of a."""
    params = make_params(lattice, Z2, (1, 1))
    quad = build_quadruple(params)
    z = sample_point(rng, lattice)
    lams = [sample_point(rng, lattice) for _ in range(2)]
    op = quad.a(z).compose(quad.b(z)) + quad.c(z)
    size = max(float(np.max(np.abs(m))) for lam in lams for m in op.blocks(lam).values())
    assert shift_residual(op, None, lams) == size > 0.0
    assert shift_residual(op, op, lams) == 0.0


@pytest.mark.parametrize("lams", [(1,), (1, 1), (2, 1), (2, 2), (1, 1, 1)])
def test_quadruple_matches_reference(lattice, rng, lams):
    """a, b, c and d equal the per-entry coefficients bit for bit.

    Two spectral parameters per quadruple: a factor table that ignored z
    would serve the second one the first one's factors.
    """
    params = make_params(lattice, Z3[: len(lams)], lams)
    quad, ref = build_quadruple(params), reference_quadruple(params)
    for z in (sample_point(rng, lattice), sample_point(rng, lattice)):
        lam_samples = [sample_point(rng, lattice) for _ in range(3)]
        for name in "abcd":
            op, ref_op = getattr(quad, name)(z), getattr(ref, name)(z)
            for lam in lam_samples:
                got, want = op.blocks(lam), ref_op.blocks(lam)
                assert got.keys() == want.keys()
                for k in want:
                    assert np.array_equal(got[k], want[k]), (name, k)
