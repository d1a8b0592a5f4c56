"""Face weights, dual transfer constructions, spectrum certificates, continuous roots."""

import itertools
import math
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import irf, spaces
from ellsov.eqg import S0Grid
from ellsov.irf import (
    BoltzmannWeights,
    apply_transfer_continuous,
    build_T_irf_paths,
    build_T_irf_sov,
    certify_spectrum,
    continuous_bethe,
    eigenvalue_character,
    partition_function,
    reconcile_constructions,
)
from ellsov.params import ModelParams, ParameterError
from ellsov.theta import ThetaEvaluator

from conftest import TAU, sample_point

ETA = 0.173 - 0.061j
Z1 = (0.12 + 0.23j,)
Z3 = Z1 + (0.57 + 0.71j, 0.34 + 0.52j)
Z5 = Z3 + (0.81 + 0.11j, 0.29 + 0.88j)
Z9 = Z5 + (0.66 + 0.34j, 0.05 + 0.64j, 0.48 + 0.95j, 0.91 + 0.42j)


def make_params(lattice, zs):
    return ModelParams(lattice=lattice, eta=ETA, zs=zs, lams=(1,) * len(zs))


def spectral_point(params, rng):
    avoid = tuple(z + 2 * ETA for z in params.zs)
    return params.sample_generic(rng, margin=5e-2, avoid=avoid)


def test_s0grid_weight_one(lattice):
    # both IRF state sets are the rows of S0Grid at weight 1, in product order
    for n in (1, 3, 5):
        grid = S0Grid(make_params(lattice, Z5[:n]))
        ms = list(itertools.product(range(2), repeat=n))
        assert grid.points == ms and grid.dim == 2 ** n
        assert grid.weights.tolist() == [n - 2 * sum(m) for m in ms]
        for m, heights in zip(ms, path_heights(n)):
            # antiperiodic paths a_{n+1} = -a_1 with steps 1 - 2 m_i
            assert heights[-1] == -heights[0]
            assert [(heights[i] - heights[i + 1]) // 2 for i in range(n)] == [1 - 2 * mi for mi in m]


def test_boltzmann_weights(lattice, rng):
    params = make_params(lattice, Z1)
    z = sample_point(rng, lattice)
    w = BoltzmannWeights(params, z)

    # the all-ascending face is the unit of the normalization, any base height
    for l in (-2.5, -0.5, 0.5, 1.5):
        assert w.value(l + 1, l + 2, l + 1, l) == 1.0
    # non-admissible corners vanish identically
    assert w.value(0.5, 1.5, 0.5, 2.5) == 0.0
    assert w.value(0.5, 0.5, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        w.value(0.3, 1.5, 0.5, -0.5)

    # at z = 0 the weight collapses to delta(a, c) on admissible faces
    w0 = BoltzmannWeights(params, 0.0)
    for d2 in (-3, -1, 1, 3):
        for a2 in (d2 - 2, d2 + 2):
            for c2 in (d2 - 2, d2 + 2):
                for b2 in set((a2 - 2, a2 + 2)) & set((c2 - 2, c2 + 2)):
                    val = w0.value_doubled(c2, b2, a2, d2)
                    expect = 1.0 if a2 == c2 else 0.0
                    assert abs(val - expect) <= 1e-12


def test_paths_one_site_closed_form(lattice, rng):
    params = make_params(lattice, Z1)
    ev = params.evaluator()
    rng2 = np.random.default_rng(7)
    for _ in range(4):
        z = spectral_point(params, rng2)
        t = build_T_irf_paths(params, z)
        # single column, single face: the off-diagonal weight at corner -1/2
        s = z - Z1[0]
        off = -ev.theta(s - ETA) * ev.theta(2 * ETA) / (ev.theta(-ETA) * ev.theta(s - 2 * ETA))
        assert t[0, 0] == 0.0 and t[1, 1] == 0.0
        assert_allclose(t[0, 1], off, rtol=1e-13)
        assert_allclose(t[1, 0], off, rtol=1e-13)


def path_heights(n):
    """Doubled heights of the antiperiodic paths with signs 1 - 2 m, m in product order."""
    paths = []
    for m in itertools.product(range(2), repeat=n):
        sigmas = [1 - 2 * mi for mi in m]
        heights = [sum(sigmas)]  # antiperiodicity fixes 2 a_1 = sum sigma
        for s in sigmas:
            heights.append(heights[-1] - 2 * s)
        paths.append(heights)
    return paths


def reference_paths(params, z):
    """The path transfer matrix as a loop over all state pairs, as an oracle."""
    states = path_heights(params.n)
    weights = [BoltzmannWeights(params, z - zi) for zi in params.zs]
    t = np.zeros((len(states), len(states)), dtype=complex)
    for acol, ah in enumerate(states):
        for brow, bh in enumerate(states):
            if any(abs(ah[i] - bh[i]) != 2 for i in range(params.n + 1)):
                continue
            val = 1.0 + 0.0j
            for i in range(params.n):
                val *= weights[i].value_doubled(ah[i + 1], ah[i], bh[i], bh[i + 1])
                if val == 0.0:
                    break
            t[brow, acol] = val
    return t


def test_paths_match_reference_loop(lattice):
    # the index-form build reproduces the pair loop bit for bit
    rng2 = np.random.default_rng(11)
    for zs in (Z1, Z3, Z5, Z9[:7]):
        params = make_params(lattice, zs)
        for _ in range(2):
            z = spectral_point(params, rng2)
            assert np.array_equal(build_T_irf_paths(params, z), reference_paths(params, z))


def test_paths_support_size(lattice):
    # two paths are neighbours when they differ by one at every node:
    # 3^n - 1 such pairs, each with a generically nonzero weight
    rng2 = np.random.default_rng(13)
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        t = build_T_irf_paths(params, spectral_point(params, rng2))
        assert np.count_nonzero(t) == 3 ** n - 1


def test_paths_theta_count(lattice, monkeypatch):
    """Five sites: one R-matrix per (site, corner height), 30 in all, each
    evaluating theta once at each of its 9 distinct arguments."""
    params = make_params(lattice, Z5)
    calls = [0]
    original = ThetaEvaluator.theta_taylor

    def counting(self, z, degree):
        calls[0] += 1
        return original(self, z, degree)

    monkeypatch.setattr(ThetaEvaluator, "theta_taylor", counting)
    build_T_irf_paths(params, 0.41 + 0.37j)
    assert calls[0] <= 270


def reference_sov(params, zeta):
    """The grid transfer matrix as the former loop over rows and site pairs, as an oracle."""
    n, ev, eta, zs = params.n, params.evaluator(), params.eta, params.zs
    zdisp = -complex(zeta)
    flip_coeff = {}
    for i in range(n):
        for s in (-1, 1):
            on_branch = 1.0 + 0.0j
            for zk in zs:
                on_branch *= ev.theta(zk - zs[i] + 2 * s * eta)
            flip_coeff[(i, s)] = on_branch
    spect = {(j, s): ev.theta(zdisp + zs[j] - s * eta) for j in range(n) for s in (-1, 1)}
    cross = {
        (i, si, j, sj): ev.theta(-zs[i] + zs[j] + (si - sj) * eta)
        for i in range(n) for j in range(n) if i != j for si in (-1, 1) for sj in (-1, 1)
    }
    th_lam = {k: ev.theta(-eta * k) for k in range(-n, n + 1, 2)}
    head = {
        (total, i, s): ev.theta(-eta * total - zdisp + (-zs[i] + s * eta))
        for total in range(-n, n + 1, 2) for i in range(n) for s in (-1, 1)
        if abs(total - s) <= n - 1
    }
    sigmas = (2 * np.array(S0Grid(params).points) - 1).tolist()
    t = np.zeros((len(sigmas), len(sigmas)), dtype=complex)
    for row, sig in enumerate(sigmas):
        total = sum(sig)
        for i in range(n):
            pref = head[(total, i, sig[i])] / th_lam[total]
            for j in range(n):
                if j != i:
                    pref *= spect[(j, sig[j])] / cross[(i, sig[i], j, sig[j])]
            t[row, row ^ (1 << (n - 1 - i))] = pref * flip_coeff[(i, sig[i])]
    return t


def test_sov_match_reference_loop(lattice):
    # the index-form build reproduces the row loop bit for bit
    rng2 = np.random.default_rng(19)
    for zs in (Z1, Z3, Z5, Z9[:7], Z9):
        params = make_params(lattice, zs)
        for _ in range(2):
            zeta = spectral_point(params, rng2)
            assert np.array_equal(build_T_irf_sov(params, zeta), reference_sov(params, zeta))


def test_sov_cold_build_equals_warm(lattice):
    # the per-model data is a cache, never a second source of values
    params = make_params(lattice, Z5)
    irf._grid_model.cache_clear()
    cold = build_T_irf_sov(params, 0.41 + 0.37j)
    assert irf._grid_model.cache_info().misses == 1
    warm = build_T_irf_sov(params, 0.41 + 0.37j)
    assert irf._grid_model.cache_info().hits == 1
    assert np.array_equal(cold, warm)
    assert not irf._grid_model(params).factors.flags.writeable


def test_sov_cache_key_includes_eta(lattice):
    # negative control: two models that differ only in eta share no cached data
    first = make_params(lattice, Z3)
    second = ModelParams(lattice=lattice, eta=ETA + 0.01, zs=Z3, lams=(1, 1, 1))
    zeta = 0.41 + 0.37j
    a, b = build_T_irf_sov(first, zeta), build_T_irf_sov(second, zeta)
    assert not np.allclose(a, b)
    assert np.array_equal(b, reference_sov(second, zeta))


def test_sov_repeat_build_theta_count(lattice, monkeypatch):
    """Five sites: once the model's data is cached, a build evaluates only
    the 2n spectral and 2n^2 prefactor thetas, 60 in all (146 when every
    build recomputed the cross thetas and theta(lambda))."""
    params = make_params(lattice, Z5)
    build_T_irf_sov(params, 0.41 + 0.37j)
    calls = [0]
    original = ThetaEvaluator.theta_taylor

    def counting(self, z, degree):
        calls[0] += 1
        return original(self, z, degree)

    monkeypatch.setattr(ThetaEvaluator, "theta_taylor", counting)
    build_T_irf_sov(params, 0.29 - 0.13j)
    assert calls[0] <= 60


def test_sov_one_site_closed_form(lattice, rng):
    params = make_params(lattice, Z1)
    ev = params.evaluator()
    for _ in range(4):
        zeta = sample_point(rng, lattice)
        t = build_T_irf_sov(params, zeta)
        closed = -ev.theta(zeta - Z1[0]) * ev.theta(2 * ETA) / ev.theta(ETA)
        assert t[0, 0] == 0.0 and t[1, 1] == 0.0
        assert_allclose(t[0, 1], closed, rtol=1e-13)
        assert_allclose(t[1, 0], closed, rtol=1e-13)


def test_sov_entry_is_theta_function_of_z(lattice, rng):
    # each matrix entry transforms with the antiperiodic character at level n
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    entry = lambda zeta: build_T_irf_sov(params, zeta)[0, 1]
    report = spaces.membership_test(ev, entry, 3, chi0, rng, tol=1e-9)
    assert report.passed


def test_off_grid_coefficient_vanishes(lattice):
    # the shift leaving the grid carries theta(0) = 0 through its own site:
    # exactly so in the reduced arguments, at rounding level in the raw ones
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    for i, zi in enumerate(params.zs):
        for s in (-1, 1):
            xi = -zi + s * ETA
            raw = 1.0 + 0.0j
            reduced = 1.0 + 0.0j
            for zk in params.zs:
                raw *= ev.theta(xi + zk - s * ETA)
                reduced *= ev.theta(zk - zi)
            assert reduced == 0.0
            assert abs(raw) <= 1e-12


def test_dual_reconciliation(lattice, rng):
    # entrywise the two constructions disagree at order one; after the
    # eta shift, the scalar factor, and the basis change they coincide
    for zs, tol in ((Z1, 1e-12), (Z3, 1e-11), (Z5, 1e-10)):
        params = make_params(lattice, zs)
        rec = reconcile_constructions(params, rng)
        assert rec.constant == -1.0
        assert rec.residual <= tol
        assert rec.literal_gap > 0.1
        assert rec.condition == pytest.approx(np.linalg.cond(rec.conjugation, 1), rel=1e-12)
        assert math.isfinite(rec.condition) and rec.condition >= 1.0
        assert math.isfinite(rec.min_gap) and rec.min_gap > 0.0
    # from three sites on no relabelling or rescaling of states carries one
    # matrix to the other: both keep each row's count of nonzeros, and the
    # grid rows have one per site where the path rows have three or four
    params = make_params(lattice, Z3)
    z = spectral_point(params, rng)
    paths_rows = np.count_nonzero(build_T_irf_paths(params, z), axis=1)
    sov_rows = np.count_nonzero(build_T_irf_sov(params, z), axis=1)
    assert np.all(sov_rows == 3)
    assert sorted(paths_rows) != sorted(sov_rows)


def reference_reconcile(params, rng):
    """The bridge with both eigs on the calling thread, in the former order."""
    z0 = irf.sample_spectral(params, rng)
    tp = build_T_irf_paths(params, z0)
    ts = build_T_irf_sov(params, z0 - ETA)
    kap = irf.kappa_factor(params, z0 - ETA)
    literal = float(np.max(np.abs(tp - build_T_irf_sov(params, z0))) / np.max(np.abs(tp)))
    mu, vp = np.linalg.eig(tp)
    nu, vs = np.linalg.eig(ts)
    constant = -1.0 + 0.0j
    perm = irf._pair_spectra(mu, constant * kap * nu, 1e-8 * float(np.max(np.abs(mu))))
    conj = vp @ np.linalg.inv(vs[:, perm])
    conj_inv = np.linalg.inv(conj)
    residual = 0.0
    for _ in range(2):
        zf = irf.sample_spectral(params, rng)
        lhs = build_T_irf_paths(params, zf)
        kapf = irf.kappa_factor(params, zf - ETA)
        rhs = constant * kapf * conj @ build_T_irf_sov(params, zf - ETA) @ conj_inv
        residual = max(residual, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    return conj, residual, literal


def test_reconcile_matches_sequential_reference(lattice):
    # the overlapped eigs and in-place differences leave every byte as it was
    for zs in (Z5, Z9[:7]):
        params = make_params(lattice, zs)
        rec = reconcile_constructions(params, np.random.default_rng(5))
        conj, residual, literal = reference_reconcile(params, np.random.default_rng(5))
        assert np.array_equal(rec.conjugation, conj)
        assert rec.residual == residual
        assert rec.literal_gap == literal


def test_concurrently_threads_and_errors():
    caller = threading.get_ident()
    here, there = irf._concurrently(threading.get_ident, threading.get_ident)
    assert here == caller and there != caller

    def fail():
        raise np.linalg.LinAlgError("worker failed")

    with pytest.raises(np.linalg.LinAlgError, match="worker failed"):
        irf._concurrently(lambda: None, fail)


def test_pair_spectra():
    rng2 = np.random.default_rng(17)
    target = rng2.normal(size=64) + 1j * rng2.normal(size=64)
    perm = rng2.permutation(64)
    mu = target[perm] + 1e-12
    assert np.array_equal(irf._pair_spectra(mu, target, 1e-9), perm)
    # a duplicated target gives one eigenvalue two candidates
    doubled = target.copy()
    doubled[perm[1]] = doubled[perm[0]]
    with pytest.raises(ParameterError, match="ambiguous"):
        irf._pair_spectra(mu, doubled, 1e-9)


def test_eigenvalue_map(lattice, rng):
    params = make_params(lattice, Z3)
    rec = reconcile_constructions(params, rng)
    certs = certify_spectrum(params, spectral_point(params, rng), tol=1e-8, rng=rng)
    zf = spectral_point(params, rng)
    mu = np.linalg.eigvals(build_T_irf_paths(params, zf))
    scale = np.max(np.abs(mu))
    for cert in certs:
        mapped = rec.map_eigenvalue(params, cert.eps)(zf)
        assert np.min(np.abs(mu - mapped)) <= 1e-9 * scale


def test_commuting_families(lattice, rng):
    for zs in (Z3, Z5):
        params = make_params(lattice, zs)
        for _ in range(5):
            za = spectral_point(params, rng)
            zb = spectral_point(params, rng)
            a, b = build_T_irf_sov(params, za), build_T_irf_sov(params, zb)
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12 * np.max(np.abs(a @ b))
            a, b = build_T_irf_paths(params, za), build_T_irf_paths(params, zb)
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12 * np.max(np.abs(a @ b))


def test_validation_rejects_bad_setups(lattice):
    with pytest.raises(ParameterError):
        build_T_irf_paths(ModelParams(lattice, ETA, Z1 + (0.9 + 0.4j,), (1, 1)), 0.3)
    with pytest.raises(ParameterError):
        build_T_irf_sov(ModelParams(lattice, ETA, Z3, (1, 2, 1)), 0.3)
    resonant = (Z1[0], Z1[0] + 2 * ETA, 0.9 + 0.4j)
    with pytest.raises(ParameterError):
        build_T_irf_sov(ModelParams(lattice, ETA, resonant, (1, 1, 1)), 0.3)


def test_certify_spectrum_without_nodes_is_parameter_error(lattice, monkeypatch):
    # no admissible interpolation nodes: the typed error the CLI maps to exit 2
    def resonant(*args):
        raise spaces.ResonantCharacterError("resonant node sum")

    monkeypatch.setattr(spaces, "ThetaSpaceBasis", resonant)
    with pytest.raises(ParameterError):
        certify_spectrum(make_params(lattice, Z3), 0.37 + 0.29j)


def test_certify_spectrum(lattice, rng):
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    start = time.perf_counter()
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    elapsed = time.perf_counter() - start

    assert len(certs) == 8
    assert all(c.passed for c in certs)
    assert all(not c.degenerate for c in certs)
    for c in certs:
        assert c.membership_residual <= 1e-10
        assert c.cluster_residual <= 1e-10
        assert max(c.quadratic_residuals) <= 1e-10
        assert c.angle <= 1e-6
        assert len(c.q_pairs) == 3

    # the eight factorized vectors span the whole space
    recon = np.stack(
        [c.reconstruction / np.linalg.norm(c.reconstruction) for c in certs], axis=1
    )
    assert np.linalg.svd(recon, compute_uv=False)[-1] > 1e-3

    # eigenvalue functions carry the antiperiodic character
    chi0 = eigenvalue_character(params)
    tau = lattice.tau
    z = sample_point(rng, lattice)
    for c in certs[:3]:
        for (r, s) in ((1, 0), (0, 1)):
            expect = spaces.expected_multiplier(chi0, 3, z, r, s, tau) * c.eps(z)
            assert abs(c.eps(z + r + s * tau) - expect) <= 1e-9 * abs(expect)

    assert elapsed < 10.0


def test_certify_spectrum_theta_count(lattice, monkeypatch):
    """Five sites: every certificate shares one cardinal basis, so theta calls
    stay far below the 22,390 that per-certificate interpolation made; the
    flip coefficients, cross thetas and theta(lambda) are computed once per
    model, and each of the 9 grid matrices evaluates only its 60
    zeta-dependent thetas (1,540 when each matrix recomputed the cross
    thetas and theta(lambda))."""
    params = make_params(lattice, Z5)
    calls = [0]
    original = ThetaEvaluator.theta_taylor

    def counting(self, z, degree):
        calls[0] += 1
        return original(self, z, degree)

    monkeypatch.setattr(ThetaEvaluator, "theta_taylor", counting)
    irf._grid_model.cache_clear()
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert len(certs) == 32 and all(c.passed for c in certs)
    assert calls[0] <= 852


def test_certify_ratios_match_reference_loop(lattice):
    """Each cluster reads its sample ratios from one batched product; the
    former loop over sample matrices gives the same residuals bit for bit."""
    params = make_params(lattice, Z5)
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    # replay certify_spectrum's draws: the basis nodes, then the validation points
    rng2 = np.random.default_rng(7)
    chi0 = eigenvalue_character(params)
    basis = spaces.make_basis(params.evaluator(), params.n, chi0, rng2, margin=5e-2)
    val_pts = [irf.sample_spectral(params, rng2) for _ in range(3)]
    stacked = np.concatenate([c.vectors for c in certs], axis=1)
    node_images = [build_T_irf_sov(params, z) @ stacked for z in basis.nodes]
    val_images = [build_T_irf_sov(params, z) @ stacked for z in val_pts]
    end = 0
    for c in certs:
        dim = c.vectors.shape[1]
        cols = slice(end, end + dim)
        end += dim

        def sample_ratio(image):
            block = c.vectors.conj().T @ image[:, cols]
            val = complex(np.trace(block)) / dim
            return val, float(np.max(np.abs(block - val * np.eye(dim))))

        vals, cluster_dev = [], 0.0
        for image in node_images:
            val, dev = sample_ratio(image)
            vals.append(val)
            cluster_dev = max(cluster_dev, dev)
        scale = max(max(abs(v) for v in vals), 1e-300)
        member_dev = 0.0
        for zv, image in zip(val_pts, val_images):
            val, dev = sample_ratio(image)
            cluster_dev = max(cluster_dev, dev)
            member_dev = max(member_dev, abs(val - c.eps(zv)))
            scale = max(scale, abs(val))
        assert c.cluster_residual == cluster_dev / scale
        assert c.membership_residual == member_dev / scale


def test_reconstruction_from_q_pairs(lattice):
    """The report keeps only q_pairs; README's rule rebuilds the factorized
    vector from them: q_minus where sigma_i < 0, q_plus elsewhere."""
    for zs in (Z3, Z5):
        params = make_params(lattice, zs)
        certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(5))
        sigmas = [[2 * m - 1 for m in point] for point in S0Grid(params).points]
        for c in certs:
            u = [
                math.prod(qm if s < 0 else qp for (qm, qp), s in zip(c.q_pairs, sig))
                for sig in sigmas
            ]
            assert np.array_equal(np.array(u), c.reconstruction)


def pairwise_clusters(mu, gap_tol):
    """Union over all pairs closer than gap_tol * scale, as a reference."""
    scale = max(float(np.max(np.abs(mu))), 1.0)
    order = sorted(range(len(mu)), key=lambda i: (mu[i].real, mu[i].imag))
    parent = list(range(len(mu)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a in range(len(mu)):
        for b in range(a + 1, len(mu)):
            if abs(mu[a] - mu[b]) < gap_tol * scale:
                parent[find(a)] = find(b)
    groups = {}
    for i in order:
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def test_clusters_match_pairwise_reference():
    rng = np.random.default_rng(4242)
    gap_tol = 1e-7
    for trial in range(40):
        size = int(rng.integers(1, 200))
        mu = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-2, 3)
        scale = max(float(np.max(np.abs(mu))), 1.0)
        # plant near-degenerate clusters: chains just inside the threshold,
        # near misses just outside it, exact repeats and equal real parts
        for _ in range(int(rng.integers(0, 6))):
            i = int(rng.integers(size))
            step = gap_tol * scale * rng.choice([0.3, 0.9, 1.1, 0.0])
            chain = mu[i] + step * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.arange(1, 4)
            mu = np.concatenate([mu, chain, [complex(mu[i].real, mu[i].imag + 5.0)]])
        mu = mu[rng.permutation(len(mu))]
        assert irf._clusters(mu, gap_tol) == pairwise_clusters(mu, gap_tol)


def test_certify_rejects_impostor(lattice, rng):
    # nudging one sample off the true eigenvalue function must blow up the
    # quadratic relations by a detectable margin
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    nodes = [params.sample_generic(rng, margin=5e-2) for _ in range(3)]
    for cert in certs[:3]:
        vals = [cert.eps(zn) for zn in nodes]
        vals[0] *= 1.0 + 1e-3
        impostor = spaces.interpolate(ev, 3, chi0, nodes, vals)
        worst = 0.0
        for i in range(3):
            em = impostor(params.zs[i] - ETA)
            ep = impostor(params.zs[i] + ETA)
            lhs = em * ep
            rhs = 1.0 + 0.0j
            for zk in params.zs:
                rhs *= ev.theta(zk - params.zs[i] + 2 * ETA)
                rhs *= ev.theta(zk - params.zs[i] - 2 * ETA)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        assert worst >= 1e-4


def test_partition_function(lattice, rng):
    params = make_params(lattice, Z3)
    ws = [0.21 + 0.17j, 0.72 + 0.55j, 0.43 + 0.81j, 0.05 + 0.33j]
    shuffled = [ws[2], ws[0], ws[3], ws[1]]
    for kind in ("paths", "sov"):
        za = partition_function(params, ws, kind=kind)
        zb = partition_function(params, shuffled, kind=kind)
        assert abs(za - zb) <= 1e-12 * abs(za)
    with pytest.raises(ValueError):
        partition_function(params, ws, kind="rows")
    with pytest.raises(ParameterError):
        partition_function(params, [], kind="sov")


def test_partition_single_row_matches_spectrum(lattice, rng):
    # one-flip structure forces a zero diagonal, so the single-row trace
    # vanishes along with the (plus/minus symmetric) eigenvalue sum; the
    # comparison scale must be the absolute eigenvalue mass
    params = make_params(lattice, Z3)
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    w = spectral_point(params, rng)
    eps_w = [c.eps(w) for c in certs]
    mass = sum(abs(v) for v in eps_w)
    trace = partition_function(params, [w], kind="sov")
    assert abs(trace - sum(eps_w)) <= 1e-9 * mass
    assert abs(trace) <= 1e-12 * mass
    assert abs(partition_function(make_params(lattice, Z1), [w], kind="paths")) == 0.0

    # two rows make the check nontrivial: tr T(w1) T(w2) = sum eps(w1) eps(w2)
    w2 = spectral_point(params, rng)
    two = partition_function(params, [w, w2], kind="sov")
    expect = sum(c.eps(w) * c.eps(w2) for c in certs)
    assert abs(two - expect) <= 1e-9 * sum(abs(c.eps(w) * c.eps(w2)) for c in certs)


def test_continuous_operator_matches_grid_rows(lattice, rng):
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    cs = [sample_point(rng, lattice) for _ in range(3)]

    def u_any(xs):
        val = 1.0 + 0.0j
        for x, c in zip(xs, cs):
            val *= ev.theta(x - c)
        return val

    zeta = sample_point(rng, lattice)
    t = build_T_irf_sov(params, zeta)
    grid = [tuple(2 * mi - 1 for mi in m) for m in itertools.product(range(2), repeat=3)]
    xs_of = lambda sig: [-z + s * ETA for z, s in zip(params.zs, sig)]
    uvec = np.array([u_any(xs_of(sig)) for sig in grid])
    for row, sig in enumerate(grid):
        lhs = apply_transfer_continuous(params, zeta, u_any, xs_of(sig))
        rhs = t[row] @ uvec
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_continuous_bethe_families(lattice, rng):
    cases = [
        ((0.12 + 0.23j, 0.57 + 0.71j), (1, 1), 1e-10),
        ((0.12 + 0.23j, 0.57 + 0.71j), (1, 3), 1e-8),
        ((0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.52j), (2, 1, 1), 1e-10),
    ]
    for zs, lams, tol in cases:
        params = ModelParams(lattice, ETA, zs, lams)
        cb = continuous_bethe(params, rng)
        assert cb.solution.residual <= 1e-11

        # factorized function is an eigenfunction at generic continuous points
        for _ in range(2):
            xs = [sample_point(rng, lattice) for _ in zs]
            zeta = sample_point(rng, lattice)
            lhs = apply_transfer_continuous(params, zeta, cb.u_value, xs)
            rhs = cb.eps_value(zeta) * cb.u_value(xs)
            assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs))

        # q lives in the m-dimensional space of its character
        ev = params.evaluator()
        m = sum(lams) // 2
        report = spaces.membership_test(ev, cb.q_value, m, cb.chi, rng)
        assert report.passed


def test_continuous_bethe_eigenvalue_membership(lattice, rng):
    # the transfer eigenvalue, read in the separated variable, lives at
    # level n with the character induced from the shift coefficients
    params = ModelParams(lattice, ETA, (0.12 + 0.23j, 0.57 + 0.71j), (1, 1))
    cb = continuous_bethe(params, rng)
    ev = params.evaluator()
    chi_plus = spaces.character_of(cb.a_plus, TAU)
    chi_sep = spaces.induced_eigenvalue_character(chi_plus, 2 * ETA, 1)
    eps_sep = lambda x: cb.eps_value(-x)
    report = spaces.membership_test(ev, eps_sep, 2, chi_sep, rng, tol=1e-9)
    assert report.passed
    with pytest.raises(ParameterError):
        continuous_bethe(ModelParams(lattice, ETA, Z3, (1, 1, 1)), rng)


def test_eps_character_negative_control(lattice, rng):
    """The CLI's character_match comparison: eps's multipliers under z -> z + 1
    and z -> z + tau match the character induced with 2 eta, and miss the one
    induced with -2 eta."""
    cases = [
        ((0.12 + 0.23j, 0.57 + 0.71j), (1, 1)),
        ((0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.52j), (2, 1, 1)),
        ((0.23 + 0.31j, 0.67 + 0.52j, 0.12 + 0.8j, 0.5 + 0.1j), (1, 1, 1, 1)),
    ]
    for zs, lams in cases:
        params = ModelParams(lattice, ETA, zs, lams)
        cb = continuous_bethe(params, rng)
        ev = params.evaluator()
        m = sum(lams) // 2
        eps = spaces.difference_eigenvalue(ev, cb.a_plus, cb.a_minus, 2 * ETA, cb.solution)
        chi_plus = spaces.character_of(cb.a_plus, TAU)
        z = params.sample_generic(rng, margin=5e-2, avoid=cb.solution.roots)
        for gamma, within in ((2 * ETA, True), (-2 * ETA, False)):
            chi = spaces.induced_eigenvalue_character(chi_plus, gamma, m)
            dev = spaces.multiplier_deviation(ev, eps, len(zs), chi, z)
            assert (dev <= 1e-9) if within else (dev >= 0.5)


def test_nine_sites_dense_spectrum(lattice, rng):
    params = make_params(lattice, Z9)
    start = time.perf_counter()
    t = build_T_irf_sov(params, 0.4 + 0.4j)
    mu = np.linalg.eigvals(t)
    elapsed = time.perf_counter() - start
    assert t.shape == (512, 512)
    assert np.count_nonzero(np.abs(np.diag(t))) == 0
    # plus/minus symmetric spectrum, checked as a multiset
    mu_sorted = np.sort_complex(mu)
    neg_sorted = np.sort_complex(-mu)
    assert np.max(np.abs(mu_sorted - neg_sorted)) <= 1e-9 * np.max(np.abs(mu))
    assert elapsed < 30.0
