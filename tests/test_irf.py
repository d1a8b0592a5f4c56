"""Face weights, dual transfer constructions, spectrum certificates, continuous roots."""

import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import irf, spaces
from ellsov.irf import (
    BoltzmannWeights,
    PathState,
    apply_transfer_continuous,
    build_T_irf_paths,
    build_T_irf_sov,
    certify_spectrum,
    continuous_bethe,
    eigenvalue_character,
    partition_function,
    path_states,
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


def test_path_states():
    for n in (1, 3, 5):
        states = path_states(n)
        assert len(states) == 2 ** n
        for st in states:
            assert st.twice_heights[-1] == -st.twice_heights[0]
            assert all(s in (-1, 1) for s in st.sigmas)
            assert PathState.from_sigmas(st.sigmas) == st
    with pytest.raises(ParameterError):
        path_states(2)
    with pytest.raises(ValueError):
        PathState((1, -1, 1))  # periodic, not antiperiodic
    with pytest.raises(ValueError):
        PathState((1, 5, -1))


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
    # the basis change is genuinely non-diagonal from three sites on
    params = make_params(lattice, Z3)
    rec = reconcile_constructions(params, rng)
    conj = rec.conjugation
    off = conj - np.diag(np.diag(conj))
    assert np.max(np.abs(off)) > 1e-3 * np.max(np.abs(conj))


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
        assert max(c.second_line_residuals) <= 1e-10
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
    stay far below the 22,390 that per-certificate interpolation made."""
    params = make_params(lattice, Z5)
    calls = [0]
    original = ThetaEvaluator.theta_taylor

    def counting(self, z, degree):
        calls[0] += 1
        return original(self, z, degree)

    monkeypatch.setattr(ThetaEvaluator, "theta_taylor", counting)
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert len(certs) == 32 and all(c.passed for c in certs)
    assert calls[0] <= 3000


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

        # the stored character is the factorization character of q
        chi_q = spaces.character_of(cb.q, TAU)
        assert abs(cb.chi.chi1 - chi_q.chi1) <= 1e-12 * abs(chi_q.chi1)
        assert abs(cb.chi.chiTau - chi_q.chiTau) <= 1e-12 * abs(chi_q.chiTau)

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
