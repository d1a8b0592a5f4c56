"""Face weights, dual transfer constructions, spectrum certificates, continuous roots."""

import cmath
import dataclasses
import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellsov import cli, eqg, irf, spaces
from ellsov.eqg import S0Grid, r_matrix
from ellsov.irf import (
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

from conftest import (
    TAU, count_reductions, count_theta_calls, dense, hexes, membership_passes, pointwise, sample_point, theta_value,
)

ETA = 0.173 - 0.061j
Z1 = (0.12 + 0.23j,)
Z3 = Z1 + (0.57 + 0.71j, 0.34 + 0.52j)
Z5 = Z3 + (0.81 + 0.11j, 0.29 + 0.88j)
Z9 = Z5 + (0.66 + 0.34j, 0.05 + 0.64j, 0.48 + 0.95j, 0.91 + 0.42j)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _twice(height):
    """Exact integer 2*height; heights live in (1/2) Z."""
    doubled = 2.0 * float(height)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError("height %r is not a half-integer" % (height,))
    return int(rounded)


# R-matrix slot of a step between doubled heights: up is 0, down is 1
_STEP_SLOT = {2: 0, -2: 1}


class BoltzmannWeights:
    """Face weights W(c, b, a, d | z) read off the dynamical R-matrix, one face at a time.

    The four arguments are the heights around a face; the weight vanishes
    unless all four differences c-d, b-c, b-a, a-d are +-1.  The dynamical
    parameter of the R-matrix is pinned to -2 eta d, so the weight depends
    on the corner height d itself and not only on the differences.  The
    all-ascending weight W(l+1, l+2, l+1, l | z) equals one.  The oracle of
    the index-form build_T_irf_paths.
    """

    def __init__(self, params, z):
        self.params = params
        self.z = complex(z)
        self._cache = {}

    def value_doubled(self, c2, b2, a2, d2):
        """Weight with doubled-height integer arguments."""
        try:
            row = 2 * _STEP_SLOT[b2 - a2] + _STEP_SLOT[a2 - d2]
            col = 2 * _STEP_SLOT[c2 - d2] + _STEP_SLOT[b2 - c2]
        except KeyError:  # a difference other than +-1
            return 0.0j
        if d2 not in self._cache:
            self._cache[d2] = r_matrix(self.params, self.z, -self.params.eta * d2)
        return self._cache[d2][row, col]

    def value(self, c, b, a, d):
        return self.value_doubled(_twice(c), _twice(b), _twice(a), _twice(d))


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
        t = dense(build_T_irf_paths(params, z))
        # single column, single face: the off-diagonal weight at corner -1/2
        s = z - Z1[0]
        off = -theta_value(ev, s - ETA) * theta_value(ev, 2 * ETA) / (theta_value(ev, -ETA) * theta_value(ev, s - 2 * ETA))
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
    # the index-form build reproduces the pair loop bit for bit, from a cold
    # per-model cache and from a warm one; B's bytes pin signed zeros too
    rng2 = np.random.default_rng(11)
    for zs in (Z1, Z3, Z5, Z9[:7]):
        params = make_params(lattice, zs)
        even, odd = irf._parity_order(params.n)
        irf._path_model.cache_clear()
        for _ in range(2):
            z = spectral_point(params, rng2)
            ref = reference_paths(params, z)
            assert np.array_equal(dense(build_T_irf_paths(params, z)), ref)
            assert build_T_irf_paths(params, z)[0].tobytes() == ref[np.ix_(even, odd)].tobytes()
        assert irf._path_model.cache_info().misses == 1


def test_paths_support_size(lattice):
    # two paths are neighbours when they differ by one at every node:
    # 3^n - 1 such pairs, each with a generically nonzero weight
    rng2 = np.random.default_rng(13)
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        t = dense(build_T_irf_paths(params, spectral_point(params, rng2)))
        assert np.count_nonzero(t) == 3 ** n - 1


def test_paths_theta_count(lattice, monkeypatch):
    """Five sites: 15 distinct (site, corner height) pairs over 6 corner
    heights on the rows of B, whose reflection gives C.  A cold build
    evaluates theta(z - z_i) and theta(z - z_i - 2 eta) per site (10),
    theta(l + z - z_i) for l = +/-lambda per pair (30), theta(l) and
    theta(l + 2 eta) per corner height pair {d, -d}, which share
    {lambda, -lambda} (12), and theta(2 eta) once: 53 points in two calls
    (the model's 13, the build's 40), against 65 when d and -d each
    evaluated theirs, 95 when C's 15 pairs were built too and 270 when each
    pair built its own R-matrix.  A repeat build evaluates only the
    z-dependent ones, 2n + 2 * 15 = 40 (70 with C's pairs), in one call.
    With a scalar call per theta the cold build made 53 calls."""
    params = make_params(lattice, Z5)
    counts = count_theta_calls(monkeypatch)
    irf._path_model.cache_clear()
    build_T_irf_paths(params, 0.41 + 0.37j)
    assert counts["theta_array"] == [2, 53]
    pairs = sum(map(len, irf._path_model(params).corners))
    assert pairs == 15
    counts["theta_array"] = [0, 0]
    build_T_irf_paths(params, 0.29 - 0.13j)
    assert counts["theta_array"] == [1, 2 * params.n + 2 * pairs] == [1, 40]


def test_paths_cold_build_equals_warm(lattice):
    # the per-model data is a cache, never a second source of values
    params = make_params(lattice, Z9)
    z = spectral_point(params, np.random.default_rng(23))
    irf._path_model.cache_clear()
    cold = dense(build_T_irf_paths(params, z))
    assert np.array_equal(cold, dense(build_T_irf_paths(params, z)))
    assert irf._path_model.cache_info().hits == 1
    model = irf._path_model(params)
    arrays = (model.rows, model.cols, model.faces)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        model.faces[0, 0] = 0
    # uint16 pairs and a uint8 face index per site for the (3^n - 1)/2 pairs
    # of B: (3^n - 1)(4 + n)/2 bytes, 128 kB at n = 9, under an lru_cache of 8
    assert [a.dtype for a in arrays] == [np.uint16, np.uint16, np.uint8]
    assert sum(a.nbytes for a in arrays) == (3 ** 9 - 1) * (4 + 9) // 2 < 150_000


def test_path_pairs_match_dense_mask():
    # the pairs grown site by site are the neighbours of the dense node-by-node
    # mask, each once; for odd n the even-parity rows are half of them
    for n in range(1, 10):
        heights = np.array(path_heights(n))
        mask = np.all(np.abs(heights[:, None, :] - heights[None, :, :]) == 2, axis=2)
        rows, cols = irf._path_pairs(n)
        assert len(rows) == 3 ** n - 1
        grown = np.zeros_like(mask)
        grown[rows, cols] = True
        assert np.array_equal(grown, mask)
        if n % 2:
            # every pair flips the parity, and B's rows are half of them
            assert np.all(np.bitwise_count(rows) % 2 != np.bitwise_count(cols) % 2)
            assert np.count_nonzero(np.bitwise_count(rows) % 2 == 0) == (3 ** n - 1) // 2


def test_height_reflection_symmetry(lattice, rng):
    """The reflection a -> -a maps path r to r XOR (2^n - 1) and keeps every
    face weight, so the oracle has C = B[::-1, ::-1] bit for bit; the grid
    matrix has no such symmetry (negative control)."""
    for n in (1, 3, 5, 7):
        params = make_params(lattice, Z9[:n])
        z = spectral_point(params, rng)
        even, odd = irf._parity_order(n)
        flip = 2 ** n - 1
        assert np.array_equal(even ^ flip, odd[::-1])
        ref = reference_paths(params, z)
        b, c = ref[np.ix_(even, odd)], ref[np.ix_(odd, even)]
        assert np.array_equal(c, b[::-1, ::-1])
        assert np.array_equal(ref[flip ^ np.arange(2 ** n)][:, flip ^ np.arange(2 ** n)], ref)
        if n > 1:
            sov = reference_sov(params, z)
            b, c = sov[np.ix_(even, odd)], sov[np.ix_(odd, even)]
            assert np.max(np.abs(c - b[::-1, ::-1])) > 0.1 * np.max(np.abs(b))


def test_paths_lambda_check_runs_in_the_cache(lattice):
    # negative control: 3 eta = 1 is a lattice point and three sites have
    # doubled corner heights +/-3, so the build raises r_matrix's error
    params = ModelParams(lattice, 1 / 3, Z3, (1, 1, 1))
    with pytest.raises(ParameterError) as expected:
        r_matrix(params, 0.41 + 0.37j, -params.eta * 3)
    irf._path_model.cache_clear()
    with pytest.raises(ParameterError) as raised:
        build_T_irf_paths(params, 0.41 + 0.37j)
    assert str(raised.value) == str(expected.value)
    assert irf._path_model.cache_info().currsize == 0


@pytest.mark.parametrize(
    "eta, message",
    [(1 / 3, "dynamical parameter lambda is within rho of a lattice point"),
     (1 / 2, "shift 2 eta sits within rho of the lattice")],
    ids=["lambda_3eta", "shift_2eta"],
)
def test_irf_lattice_gate_is_the_validator(lattice, eta, message):
    # negative controls: 3 eta = 1 puts the denominator theta(lambda) at
    # lambda = 3 eta on the lattice, 2 eta = 1 the shift theta(2 eta); the
    # validator rejects both, for both caches, and neither keeps an entry
    params = ModelParams(lattice, eta, Z3, (1, 1, 1))
    with pytest.raises(ParameterError, match=message):
        params.validate_for_irf()
    caches = (irf._validated_for_irf, eqg._hop_table, irf._path_model)
    for build in (build_T_irf_sov, build_T_irf_paths):
        for cache in caches:
            cache.cache_clear()
        with pytest.raises(ParameterError) as raised:
            build(params, 0.41 + 0.37j)
        assert str(raised.value) == message
        assert all(cache.cache_info().currsize == 0 for cache in caches)


def test_paths_spectral_check_on_warm_cache(lattice):
    # negative control: the z - 2 eta check runs per build, not once per model
    params = make_params(lattice, Z5)
    build_T_irf_paths(params, 0.41 + 0.37j)
    hits = irf._path_model.cache_info().hits
    z = Z5[2] + 2 * ETA
    with pytest.raises(ParameterError) as expected:
        r_matrix(params, z - Z5[2], -ETA)
    with pytest.raises(ParameterError) as raised:
        build_T_irf_paths(params, z)
    assert str(raised.value) == str(expected.value)
    assert irf._path_model.cache_info().hits == hits + 1


def reference_sov(params, zeta, nudge=None):
    """The grid transfer matrix as the former loop over rows and site pairs, on
    one-point kernel values, as an oracle; nudge = (j, s, factor) scales one
    spectral theta(zdisp + z_j - s eta)."""
    n, ev, eta, zs = params.n, params.evaluator(), params.eta, params.zs
    zdisp = -complex(zeta)
    flip_coeff = {}
    for i in range(n):
        for s in (-1, 1):
            on_branch = 1.0 + 0.0j
            for zk in zs:
                on_branch *= theta_value(ev, zk - zs[i] + 2 * s * eta)
            flip_coeff[(i, s)] = on_branch
    spect = {(j, s): theta_value(ev, zdisp + zs[j] - s * eta) for j in range(n) for s in (-1, 1)}
    if nudge is not None:
        spect[nudge[:2]] *= nudge[2]
    cross = {
        (i, si, j, sj): theta_value(ev, -zs[i] + zs[j] + (si - sj) * eta)
        for i in range(n) for j in range(n) if i != j for si in (-1, 1) for sj in (-1, 1)
    }
    th_lam = {k: theta_value(ev, -eta * k) for k in range(-n, n + 1, 2)}
    head = {
        (total, i, s): theta_value(ev, -eta * total - zdisp + (-zs[i] + s * eta))
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


def relative_entry_gap(t, ref):
    """Largest entrywise relative difference; the zero patterns must agree exactly."""
    assert np.array_equal(t == 0, ref == 0)
    live = ref != 0
    return float(np.max(np.abs(t[live] - ref[live]) / np.abs(ref[live])))


def test_sov_match_reference_loop(lattice):
    # the index-form build equals the row loop on one-point kernel values byte
    # for byte: each row of its theta_array calls is the one-point value
    rng2 = np.random.default_rng(19)
    for zs in (Z1, Z3, Z5, Z9[:7], Z9):
        params = make_params(lattice, zs)
        even, odd = irf._parity_order(params.n)
        for _ in range(2):
            zeta = spectral_point(params, rng2)
            b, c = build_T_irf_sov(params, zeta)
            exact = reference_sov(params, zeta)
            assert b.tobytes() == exact[np.ix_(even, odd)].tobytes()
            assert c.tobytes() == exact[np.ix_(odd, even)].tobytes()
    # negative control: one spectral theta off by 1e-10 breaks the bound
    params = make_params(lattice, Z5)
    zeta = spectral_point(params, rng2)
    nudged = reference_sov(params, zeta, nudge=(2, 1, 1.0 + 1e-10))
    assert relative_entry_gap(dense(build_T_irf_sov(params, zeta)), nudged) > 1e-13


def test_sov_rows_are_eqg_b_plus_c(lattice):
    """Row r of T_sov(zeta) is row r of eqg's b(zeta) + c(zeta) at lambda_r = eta (n -
    2 sum m), bit for bit, at n = 1, 3, 5 and 7: both read the one hop table through
    the one product.  When irf and eqg coded the operator twice, the entries of
    these four models agreed to a relative 7.8e-15, and 2 of the 1,082 bit for bit."""
    rng2 = np.random.default_rng(23)
    for zs in (Z1, Z3, Z5, Z9[:7]):
        params = make_params(lattice, zs)
        quad = eqg.build_quadruple(params)
        zeta = spectral_point(params, rng2)
        t = dense(build_T_irf_sov(params, zeta))
        b, c = quad.b(zeta), quad.c(zeta)
        for w in np.unique(quad.grid.weights).tolist():
            lam = params.eta * w
            rows = np.flatnonzero(quad.grid.weights == w)
            displayed = b.blocks(lam)[1] + c.blocks(lam)[-1]
            assert np.count_nonzero(displayed[rows]) == params.n * len(rows)
            assert t[rows].tobytes() == displayed[rows].tobytes(), (params.n, w)


def test_eqg_and_grid_matrix_share_one_hop_table_entry(lattice):
    """eqg's b and the grid transfer matrix of one model read one hop-table entry (two
    when the table's key held the validator), and the IRF validation runs once."""
    params = make_params(lattice, Z5)
    for cache in (irf._validated_for_irf, eqg._hop_table):
        cache.cache_clear()
    eqg.build_quadruple(params).b(0.41 + 0.37j).blocks(0.29 - 0.13j)
    build_T_irf_sov(params, 0.41 + 0.37j)
    build_T_irf_sov(params, 0.52 + 0.18j)
    tables, validations = eqg._hop_table.cache_info(), irf._validated_for_irf.cache_info()
    assert (tables.misses, tables.currsize) == (1, 1)
    assert (validations.misses, validations.hits) == (1, 1)


def test_each_model_is_validated_once(lattice, monkeypatch):
    """build_quadruple, eqg's only entry to the hop table, checks the sites
    before it reads the table: colliding sites raise the collision error before
    any theta call and leave no entry.  The IRF callers run validate_for_irf,
    whose array pass checks the same collisions, so a cold build_T_irf_sov
    makes no validate_distinct_sites call."""
    counts = count_theta_calls(monkeypatch)
    calls, original = [], ModelParams.validate_distinct_sites

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModelParams, "validate_distinct_sites", counted)
    eqg._hop_table.cache_clear()
    colliding = make_params(lattice, (Z3[0], Z3[0] + 1.0, Z3[2]))
    with pytest.raises(ParameterError, match=r"^sites 0 and 1 collide modulo the lattice$"):
        eqg.build_quadruple(colliding)
    assert counts["theta_array"] == [0, 0] and eqg._hop_table.cache_info().currsize == 0
    calls.clear()
    for cache in (irf._validated_for_irf, eqg._hop_table):
        cache.cache_clear()
    params = make_params(lattice, Z5)
    build_T_irf_sov(params, 0.41 + 0.37j)
    assert calls == [] and eqg._hop_table.cache_info().currsize == 1
    eqg.build_quadruple(params)
    assert calls == [params]


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_quadratic_relation_is_the_quantum_determinant(lattice, n):
    """The right side of certify_spectrum's quadratic relation at site i, A_plus(x_i) at
    m_i = 1 times A_minus(x_i) at m_i = 0, is the quantum determinant Det(z_i - eta) =
    A_plus(-z_i + eta) A_minus(-z_i - eta) to 1e-13 relative (3.6e-15 at most here, 7.2e-15
    when Det took its own theta products); Det(z_i - eta + 0.05) misses it by more than
    1e-3 (control)."""
    params = make_params(lattice, Z9[:n])
    table = eqg._hop_table(params)
    for i, zi in enumerate(params.zs):
        rhs, det = table.coefs[i] * table.coefs[n + i], eqg.det_scalar(params, zi - ETA)
        assert abs(rhs - det) <= 1e-13 * abs(det)
        assert abs(rhs - eqg.det_scalar(params, zi - ETA + 0.05)) > 1e-3 * abs(det)


def test_sov_cold_build_equals_warm(lattice):
    # the per-model data is a cache, never a second source of values
    params = make_params(lattice, Z5)
    eqg._hop_table.cache_clear()
    cold = dense(build_T_irf_sov(params, 0.41 + 0.37j))
    assert eqg._hop_table.cache_info().misses == 1
    warm = dense(build_T_irf_sov(params, 0.41 + 0.37j))
    assert eqg._hop_table.cache_info().hits == 1
    assert np.array_equal(cold, warm)
    table = eqg._hop_table(params)
    assert not any(arr.flags.writeable for arr in (*table.hops, *table.factors, table.bits))


def test_sov_cache_key_includes_eta(lattice):
    # negative control: two models that differ only in eta share no cached data
    first = make_params(lattice, Z3)
    second = ModelParams(lattice=lattice, eta=ETA + 0.01, zs=Z3, lams=(1, 1, 1))
    zeta = 0.41 + 0.37j
    eqg._hop_table.cache_clear()
    a, b = dense(build_T_irf_sov(first, zeta)), dense(build_T_irf_sov(second, zeta))
    assert not np.allclose(a, b)
    # second's build must not have read first's entry: it equals its own cold build
    assert eqg._hop_table.cache_info().misses == 2
    eqg._hop_table.cache_clear()
    assert np.array_equal(b, dense(build_T_irf_sov(second, zeta)))
    assert relative_entry_gap(b, reference_sov(second, zeta)) <= 1e-13


def test_sov_repeat_build_theta_count(lattice, monkeypatch):
    """Five sites: once the model's data is cached, a build evaluates only
    the 2n spectral and 2n^2 prefactor thetas, 60 in all, in one array call
    (60 scalar calls before, 146 when every build recomputed the cross
    thetas and theta(lambda))."""
    params = make_params(lattice, Z5)
    build_T_irf_sov(params, 0.41 + 0.37j)
    counts = count_theta_calls(monkeypatch)
    build_T_irf_sov(params, 0.29 - 0.13j)
    assert counts["theta_array"] == [1, 60]


def test_sov_one_site_closed_form(lattice, rng):
    params = make_params(lattice, Z1)
    ev = params.evaluator()
    for _ in range(4):
        zeta = sample_point(rng, lattice)
        t = dense(build_T_irf_sov(params, zeta))
        closed = -theta_value(ev, zeta - Z1[0]) * theta_value(ev, 2 * ETA) / theta_value(ev, ETA)
        assert t[0, 0] == 0.0 and t[1, 1] == 0.0
        assert_allclose(t[0, 1], closed, rtol=1e-13)
        assert_allclose(t[1, 0], closed, rtol=1e-13)


def test_sov_entry_is_theta_function_of_z(lattice, rng):
    # each matrix entry transforms with the antiperiodic character at level n
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    entry = lambda zeta: dense(build_T_irf_sov(params, zeta))[0, 1]
    report = spaces.membership_test(ev, pointwise(entry), 3, chi0, rng)
    assert membership_passes(report, 1e-9)


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
                raw *= theta_value(ev, xi + zk - s * ETA)
                reduced *= theta_value(ev, zk - zi)
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
        k_even, k_odd = rec.conjugation
        half = len(k_even)
        conj = np.zeros((2 * half, 2 * half), dtype=complex)
        conj[:half, :half], conj[half:, half:] = k_even, k_odd
        assert rec.condition == pytest.approx(np.linalg.cond(conj, 1), rel=1e-12)
        assert math.isfinite(rec.condition) and rec.condition >= 1.0
        assert math.isfinite(rec.min_gap) and rec.min_gap > 0.0
    # from three sites on no relabelling or rescaling of states carries one
    # matrix to the other: both keep each row's count of nonzeros, and the
    # grid rows have one per site where the path rows have three or four
    params = make_params(lattice, Z3)
    z = spectral_point(params, rng)
    paths_rows = np.count_nonzero(dense(build_T_irf_paths(params, z)), axis=1)
    sov_rows = np.count_nonzero(dense(build_T_irf_sov(params, z)), axis=1)
    assert np.all(sov_rows == 3)
    assert sorted(paths_rows) != sorted(sov_rows)


def reference_reconcile(params, rng):
    """The bridge from dense eigs of both matrices, as before the parity split."""
    z0 = irf.sample_spectral(params, rng)
    tp = dense(build_T_irf_paths(params, z0))
    ts = dense(build_T_irf_sov(params, z0 - ETA))
    kap = irf.kappa_factor(params, z0 - ETA)
    literal = float(np.max(np.abs(tp - dense(build_T_irf_sov(params, z0)))) / np.max(np.abs(tp)))
    mu, vp = np.linalg.eig(tp)
    nu, vs = np.linalg.eig(ts)
    constant = -1.0 + 0.0j
    perm = pair_spectra_reference(mu, constant * kap * nu, 1e-8 * float(np.max(np.abs(mu))))
    conj = vp @ np.linalg.inv(vs[:, perm])
    conj_inv = np.linalg.inv(conj)
    residual = 0.0
    for _ in range(2):
        zf = irf.sample_spectral(params, rng)
        lhs = dense(build_T_irf_paths(params, zf))
        kapf = irf.kappa_factor(params, zf - ETA)
        rhs = constant * kapf * conj @ dense(build_T_irf_sov(params, zf - ETA)) @ conj_inv
        residual = max(residual, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    return conj, residual, literal


def test_reconcile_matches_sequential_reference(lattice):
    """The block-diagonal conjugation against the dense-eig bridge.

    The two conjugations differ by a diagonal scaling of the eigenbasis,
    which cancels in conj T conj^-1, so the residuals are compared, not the
    bytes: within 10x of the dense reference and within the criterion
    tolerance.  The new conjugation is stored as its two diagonal blocks.
    """
    for zs in (Z5, Z9[:7]):
        params = make_params(lattice, zs)
        rec = reconcile_constructions(params, np.random.default_rng(5))
        conj, residual, literal = reference_reconcile(params, np.random.default_rng(5))
        assert rec.residual <= max(10 * residual, 1e-15) and rec.residual <= 1e-9
        assert rec.literal_gap == literal
        half = 2 ** (params.n - 1)
        assert [k.shape for k in rec.conjugation] == [(half, half)] * 2
        even, odd = irf._parity_order(params.n)
        # the dense reference is not block-diagonal: its eig scales each +/- pair apart
        assert np.count_nonzero(conj[np.ix_(even, odd)]) > 0


def pair_spectra_reference(mu, target, tol):
    """The former pairing of whole spectra: perm with |mu[l] - target[perm[l]]| < tol, unique."""
    close = np.abs(mu[:, None] - target[None, :]) < tol
    if np.any(np.count_nonzero(close, axis=1) != 1):
        raise ParameterError("eigenvalue pairing between the two constructions is ambiguous")
    perm = np.argmax(close, axis=1)
    if np.unique(perm).size != len(mu):
        raise ParameterError("eigenvalue pairing is not a bijection")
    return perm


def chiral_eig_reference(b, c):
    """The former _chiral_eig, with a fresh array for every intermediate."""
    sq, x = np.linalg.eig(b @ c)
    nu = np.sqrt(sq)
    tol = irf._GAP_TOL * float(np.max(np.abs(nu)))
    if not np.min(np.abs(nu)) > tol:
        raise ParameterError("transfer matrix has a (near) zero eigenvalue; its +/- pair does not split")
    y = (c @ x) / nu
    for _ in range(2):
        g = np.linalg.solve(x, b @ y)
        h = np.linalg.solve(y, c @ x)
        s, d = (g + h) / 2, (g - h) / 2
        nu = s.diagonal().copy()
        minus, plus = nu[None, :] - nu[:, None], nu[None, :] + nu[:, None]
        f11 = np.divide(s, minus, out=np.zeros_like(s), where=np.abs(minus) > tol)
        f21 = np.divide(d, plus, out=np.zeros_like(d), where=np.abs(plus) > tol)
        x, y = x + x @ (f11 + f21), y + y @ (f11 - f21)
    return nu, x, y


def path_blocks(b):
    """The eigensolvers' blocks() for the path parity blocks (B, B[::-1, ::-1])."""
    return lambda: (b, b[::-1, ::-1])


def reflected_eig_reference(b):
    """The former _reflected_eig, with a fresh array for every intermediate."""
    m = np.ascontiguousarray(b[:, ::-1])
    nu, x = np.linalg.eig(m)
    tol = irf._GAP_TOL * float(np.max(np.abs(nu)))
    if not np.min(np.abs(nu)) > tol:
        raise ParameterError("transfer matrix has a (near) zero eigenvalue; its +/- pair does not split")
    g = np.linalg.solve(x, m @ x)
    nu = g.diagonal().copy()
    minus = nu[None, :] - nu[:, None]
    x = x + x @ np.divide(g, minus, out=np.zeros_like(g), where=np.abs(minus) > tol)
    return nu, x, x[::-1]


def reconcile_reference(params, rng):
    """The former reconcile_constructions: a copied C, the 2h x 2h pairing of
    [nu_p, -nu_p] and min_gap over the 2h x 2h distance table."""
    z0 = irf.sample_spectral(params, rng)
    b = build_T_irf_paths(params, z0)[0]
    tp = (b, b[::-1, ::-1].copy())
    kap = irf.kappa_factor(params, z0 - ETA)
    gap = max(float(np.max(np.abs(p - s))) for p, s in zip(tp, build_T_irf_sov(params, z0)))
    literal = gap / max(float(np.max(np.abs(p))) for p in tp)
    nu_p, xp, yp = reflected_eig_reference(tp[0])
    nu_s, xs, ys = chiral_eig_reference(*build_T_irf_sov(params, z0 - ETA))
    constant = -1.0 + 0.0j
    half = len(nu_p)
    mu = np.concatenate([nu_p, -nu_p])
    scale = float(np.max(np.abs(nu_p)))
    target = constant * kap * nu_s
    perm = pair_spectra_reference(mu, np.concatenate([target, -target]), 1e-8 * scale)[:half]
    sign = np.where(perm < half, 1.0, -1.0)
    perm %= half
    blocks = (xp @ np.linalg.inv(xs[:, perm]), (yp * sign) @ np.linalg.inv(ys[:, perm]))
    inverses = tuple(np.linalg.inv(k) for k in blocks)
    condition = float(
        max(np.linalg.norm(k, 1) for k in blocks) * max(np.linalg.norm(k, 1) for k in inverses)
    )
    off_diagonal = ~np.eye(len(mu), dtype=bool)
    min_gap = float(np.min(np.abs(mu[:, None] - mu[None, :]), where=off_diagonal, initial=np.inf)) / scale
    residual = 0.0
    for _ in range(2):
        zf = irf.sample_spectral(params, rng)
        kapf = constant * irf.kappa_factor(params, zf - ETA)
        bs, cs = build_T_irf_sov(params, zf - ETA)
        rhs = (kapf * blocks[0] @ bs @ inverses[1], kapf * blocks[1] @ cs @ inverses[0])
        b = build_T_irf_paths(params, zf)[0]
        lhs = (b, b[::-1, ::-1].copy())
        dev = max(float(np.max(np.abs(r - l))) for r, l in zip(rhs, lhs))
        residual = max(residual, dev / max(float(np.max(np.abs(l))) for l in lhs))
    return irf.DualReconciliation(constant, blocks, residual, literal, condition, min_gap)


def certify_spectrum_reference(params, z0, tol=1e-8, *, rng):
    """The former certify_spectrum: the eigenvectors in a fresh 2^n-square array, a
    copy per cluster basis, their concatenation, the conjugated unit columns and
    a K x 2^n projection, and the reconstruction formed for all clusters at once."""
    irf._validated_for_irf(params)
    table = eqg._hop_table(params)
    n = params.n
    chi0 = eigenvalue_character(params)
    basis = spaces.make_basis(params.evaluator(), n, chi0, rng, margin=5e-2)
    nu, x, y = chiral_eig_reference(*build_T_irf_sov(params, z0))
    half = len(nu)
    mu = np.concatenate([nu, -nu])
    even, odd = irf._parity_order(n)
    vecs = np.empty((2 * half, 2 * half), dtype=complex)
    vecs[even, :half], vecs[even, half:] = x, x
    vecs[odd, :half], vecs[odd, half:] = y, -y
    val_pts = [irf.sample_spectral(params, rng) for _ in range(irf._VALIDATION_POINTS)]
    groups, dist = irf._clusters(mu, irf._GAP_TOL)
    label = np.empty(len(mu), dtype=int)
    for k, group in enumerate(groups):
        label[group] = k
    dist[label[:, None] == label[None, :]] = np.inf
    nearest = dist.min(axis=1)
    bases = [
        vecs[:, g] / np.linalg.norm(vecs[:, g]) if len(g) == 1 else np.linalg.qr(vecs[:, g])[0]
        for g in groups
    ]
    dims = np.array([len(g) for g in groups])
    starts = np.cumsum(dims) - dims
    stacked = np.concatenate(bases, axis=1)
    unit = dims == 1
    units = stacked[:, starts[unit]].conj()
    blocks = np.flatnonzero(~unit)
    points = list(basis.nodes) + val_pts
    ratios = np.empty((len(groups), len(points)), dtype=complex)
    cluster_dev = np.zeros(len(groups))
    for p, zp in enumerate(points):
        b, c = build_T_irf_sov(params, zp)
        image = np.empty_like(stacked)
        image[even], image[odd] = b @ stacked[odd], c @ stacked[even]
        ratios[unit, p] = np.einsum("rk,rk->k", units, image[:, starts[unit]])
        for k in blocks:
            cols = slice(starts[k], starts[k] + dims[k])
            block = bases[k].conj().T @ image[:, cols]
            ratios[k, p] = complex(np.trace(block)) / dims[k]
            dev = float(np.max(np.abs(block - ratios[k, p] * np.eye(dims[k]))))
            cluster_dev[k] = np.maximum(cluster_dev[k], dev)
    scale = np.maximum(np.max(np.abs(ratios), axis=1), 1e-300)
    zs = params.zs
    evals = val_pts + [zi - params.eta for zi in zs] + [zi + params.eta for zi in zs]
    fitted = ratios[:, :n] @ basis.cardinal_vector(evals).T
    member_dev = np.max(np.abs(ratios[:, n:] - fitted[:, : len(val_pts)]), axis=1)
    em, ep = fitted[:, len(val_pts) : -n], fitted[:, -n:]
    lhs = em * ep
    q_plus, minus = table.coefs[:n], table.coefs[n:]
    rhs = np.array([p * m for p, m in zip(q_plus, minus)])
    quad = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    negative = table.bits == 0
    recon = eqg._exact_product(itertools.chain(
        [np.ones((), dtype=complex)],
        (np.where(negative[:, i], em[:, i, None], q_plus[i]) for i in range(n)),
    ))
    norms = np.linalg.norm(recon, axis=1)
    found = norms > 0.0
    outside = recon / np.where(found, norms, 1.0)[:, None]
    outside[unit] -= np.einsum("rk,kr->k", units, outside[unit])[:, None] * units.T.conj()
    for k in blocks:
        outside[k] -= bases[k] @ (bases[k].conj().T @ outside[k])
    angles = np.where(found, np.arcsin(np.minimum(1.0, np.linalg.norm(outside, axis=1))), np.pi / 2)
    return irf.SpectralCertificates(
        eigenvalues=np.array([np.mean(mu[group]) for group in groups]), bases=tuple(bases), basis=basis,
        eps_nodes=ratios[:, :n].copy(), membership_residuals=member_dev / scale,
        cluster_residuals=cluster_dev / scale, quadratic_residuals=quad, q_minus=em, q_plus=np.array(q_plus),
        reconstruction=recon, angles=angles, degenerate=dims > 1,
        gaps=np.array([np.min(nearest[group]) for group in groups]), tol=tol,
    )


def assert_certificates_equal(got, ref):
    """Every SpectralCertificates field bit for bit: the arrays, each cluster basis,
    and the shared basis by its nodes and its cardinal vectors at them."""
    for field in dataclasses.fields(got):
        a, r = getattr(got, field.name), getattr(ref, field.name)
        if field.name == "bases":
            assert len(a) == len(r) and all(np.array_equal(u, v) for u, v in zip(a, r)), field.name
        elif field.name == "basis":
            assert a.nodes == r.nodes
            assert np.array_equal(a.cardinal_vector(a.nodes), r.cardinal_vector(r.nodes))
        else:
            assert np.array_equal(a, r), field.name


def test_pair_spectra():
    """nu against [t, -t] reads the same perm as the former 2h x 2h pairing
    of [nu, -nu] against [t, -t] (its first half), and fails where it does."""
    rng2 = np.random.default_rng(17)
    target = rng2.normal(size=64) + 1j * rng2.normal(size=64)
    perm, sign = rng2.permutation(64), rng2.choice([1.0, -1.0], size=64)
    nu = sign * target[perm] + 1e-12
    full = np.concatenate([target, -target])
    expect = perm + 64 * (sign < 0)
    assert np.array_equal(irf._pair_spectra(nu, target, 1e-9), expect)
    assert np.array_equal(pair_spectra_reference(np.concatenate([nu, -nu]), full, 1e-9)[:64], expect)
    # a duplicated target gives one eigenvalue two candidates
    doubled = target.copy()
    doubled[perm[1]] = doubled[perm[0]]
    # +nu_0 and +nu_1 matched to -t_k and t_k: every row has one candidate,
    # but -nu_1 then takes -t_k as well, so the pairing is not a bijection
    crossed = nu.copy()
    crossed[0] = -nu[1]
    for n, t, match in ((nu, doubled, "ambiguous"), (crossed, target, "not a bijection")):
        with pytest.raises(ParameterError, match=match):
            irf._pair_spectra(n, t, 1e-9)
        with pytest.raises(ParameterError, match=match):
            pair_spectra_reference(np.concatenate([n, -n]), np.concatenate([t, -t]), 1e-9)


def test_working_set_rewrite_is_bit_identical(lattice, monkeypatch):
    """The in-place refinements, the h x 2h pairing, the h x h gap tables, the
    reversed-view C, the blocks formed afresh for each refinement step, and the
    cluster bases as column views of one array, against the former code, bit
    for bit, on the Z9 prefixes: (nu, x, y) of both eigensolvers, every
    DualReconciliation field from cold per-model caches and warm, and every
    SpectralCertificates field; at n = 5 also with two clusters merged, so
    that the QR block path runs."""
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        got = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
        assert_certificates_equal(got, certify_spectrum_reference(params, 0.41 + 0.37j, rng=np.random.default_rng(7)))
    original = irf._clusters

    def merged(mu, gap_tol):
        groups, dist = original(mu, gap_tol)
        return [groups[0] + groups[1]] + groups[2:], dist

    monkeypatch.setattr(irf, "_clusters", merged)
    params = make_params(lattice, Z5)
    got = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert got.degenerate[0]
    assert_certificates_equal(got, certify_spectrum_reference(params, 0.41 + 0.37j, rng=np.random.default_rng(7)))
    monkeypatch.undo()
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        irf._path_model.cache_clear()
        eqg._hop_table.cache_clear()
        recs = [reconcile_constructions(params, np.random.default_rng(5)) for _ in ("cold", "warm")]
        expect = reconcile_reference(params, np.random.default_rng(5))
        for rec in recs:
            for field in dataclasses.fields(rec):
                got, ref = getattr(rec, field.name), getattr(expect, field.name)
                if field.name == "conjugation":
                    assert all(np.array_equal(a, r) for a, r in zip(got, ref)), n
                else:
                    assert got == ref, (n, field.name)
        sov = build_T_irf_sov(params, 0.41 + 0.37j)
        b = build_T_irf_paths(params, 0.41 + 0.37j)[0]
        for got, ref in ((irf._chiral_eig(lambda: sov), chiral_eig_reference(*sov)),
                         (irf._reflected_eig(path_blocks(b)), reflected_eig_reference(b))):
            assert all(np.array_equal(a, r) for a, r in zip(got, ref)), n


def traced_blocks(n, call):
    """tracemalloc peak of call() above the memory traced before it, in 2^(n-1)-square complex blocks."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (16 * 4 ** (n - 1))


def test_reconcile_working_set(lattice):
    """The traced numpy peak of a warm reconcile_constructions at n = 7 and 9
    and of _chiral_eig above its inputs at n = 9, in 2^(n-1)-square complex
    blocks.  The former code read 16.1, 15.0 and 12.0 blocks: its first-order
    updates held the f11/f21, minus/plus and zeros_like temporaries, C was a
    copy, the pairing and min_gap ran on 2h x 2h tables, and T_sov's
    eigensolver ran beside the path eigenbasis.  At n = 9 the bridge samples
    held 9.02 while T_sov's B and C were views of one array: the conjugation
    and its inverse (four blocks), T_sov's two, the first product and the
    second one's two temporaries.  With separate blocks, B is dropped once
    its product is formed, and the peak, 8.02, is the bridge samples' again.
    _chiral_eig read 6.01 while it held B and C through its refinement: it
    now drops them once B y and C x are formed and forms them again for the
    second step, and its peak is _divide_gaps's tables beside x, y, G and D.
    tracemalloc does not see the operand copies that solve makes, so the
    n = 7 and 9 pins stay where they were, though the eigensolver stage no
    longer holds B and C beside those copies."""
    for n, pinned in ((7, 9.14), (9, 8.02)):
        params = make_params(lattice, Z9[:n])
        reconcile_constructions(params, np.random.default_rng(3))  # warm the per-model caches
        peak = traced_blocks(n, lambda: reconcile_constructions(params, np.random.default_rng(3)))
        assert abs(peak - pinned) <= 0.05, (n, peak)
    params = make_params(lattice, Z9)
    blocks = build_T_irf_sov(params, 0.41 + 0.37j)
    irf._chiral_eig(lambda: blocks)
    peak = traced_blocks(9, lambda: irf._chiral_eig(lambda: blocks))
    assert abs(peak - 5.57) <= 0.05, peak


def test_certify_spectrum_working_set(lattice):
    """The traced numpy peak of a warm certify_spectrum at n = 9, in 2^n-square
    complex matrices.  The former code read 6.17: the eigenvectors, their
    per-cluster copies and the concatenation of those, the conjugated unit
    columns and the per-sample copy of their images, and at the angle stage a
    K x 2^n projection beside the full-size reconstruction temporaries.  The
    cluster bases are now column views of the one array the eigenvectors are
    written into, and the reconstruction and its projection run 128 clusters
    at a time (3.0 at that stage).  The peak, 3.57, is the sample loop's: the
    bases, the image, B and C, and one half-height product with the rows it
    reads."""
    params = make_params(lattice, Z9)
    run = lambda: certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    run()  # warm the per-model caches
    peak = traced_blocks(9, run) / 4
    assert abs(peak - 3.57) <= 0.05, peak


def test_transfer_matrices_flip_parity(lattice, rng):
    # each grid term flips one sigma_i and each face-weight row moves a_1 by
    # one, so both reference loops map even sums m onto odd ones and back
    for n in (1, 3, 5, 7):
        params = make_params(lattice, Z9[:n])
        z = spectral_point(params, rng)
        even, odd = irf._parity_order(n)
        for ref in (reference_paths(params, z), reference_sov(params, z)):
            assert np.count_nonzero(ref[np.ix_(even, even)]) == 0
            assert np.count_nonzero(ref[np.ix_(odd, odd)]) == 0
    # each parity class holds one of 2k and 2k + 1, so index r sits at r >> 1 of its block
    for n in range(1, 10):
        even, odd = irf._parity_order(n)
        assert np.all(np.bitwise_count(even) % 2 == 0) and np.all(np.bitwise_count(odd) % 2 == 1)
        assert np.array_equal(even >> 1, np.arange(2 ** (n - 1)))
        assert np.array_equal(odd >> 1, np.arange(2 ** (n - 1)))
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        z = spectral_point(params, rng)
        for build in (build_T_irf_paths, build_T_irf_sov):
            assert [m.shape for m in build(params, z)] == [(2 ** (n - 1), 2 ** (n - 1))] * 2


def chiral_check(blocks, nu, x, y):
    """(residual, kappa) of the eigenpairs (+/-nu, [x; +/-y]) of t = [[0, B], [C, 0]].

    The residual is max |t v - lambda v| over max |lambda| for unit v.  The
    left eigenvectors are the rows of [[x, x], [y, -y]]^-1, which is
    [[x^-1, y^-1], [x^-1, -y^-1]] / 2, so kappa_l = |v_l| |w_l| / |w_l^H v_l|
    needs only the two half-size inverses.
    """
    b, c = blocks
    norms = np.sqrt(np.linalg.norm(x, axis=0) ** 2 + np.linalg.norm(y, axis=0) ** 2)
    xu, yu = x / norms, y / norms
    # (+nu, [x; y]) leaves B y - nu x and C x - nu y, and (-nu, [x; -y]) their negatives
    residual = max(np.max(np.abs(b @ yu - xu * nu)), np.max(np.abs(c @ xu - yu * nu)))
    rows = np.linalg.norm(np.linalg.inv(x), axis=1) ** 2 + np.linalg.norm(np.linalg.inv(y), axis=1) ** 2
    kappa = norms * np.sqrt(rows) / 2
    return residual / np.max(np.abs(nu)), np.concatenate([kappa, kappa])


def test_chiral_eig_matches_lapack(lattice, rng):
    """_chiral_eig on both matrices, and _reflected_eig on the path matrix,
    against LAPACK's eig of the dense t: a residual at most LAPACK's and
    1e-13 (_reflected_eig's also within 2x of _chiral_eig's on the same
    blocks), and both spectra the same to rounding times each eigenvalue's
    condition (up to 1.4e4 on the 9-site path matrix)."""
    for n in (1, 3, 5, 7, 9):
        params = make_params(lattice, Z9[:n])
        z = spectral_point(params, rng)
        for build in (build_T_irf_paths, build_T_irf_sov):
            blocks = build(params, z)
            t = dense(blocks)
            ref_mu, ref_v = np.linalg.eig(t)
            ref_v /= np.linalg.norm(ref_v, axis=0)
            scale = float(np.max(np.abs(ref_mu)))
            ref_residual = float(np.max(np.abs(t @ ref_v - ref_v * ref_mu))) / scale
            solved = [irf._chiral_eig(lambda: blocks)]
            if build is build_T_irf_paths:
                solved.append(irf._reflected_eig(lambda: blocks))
                assert np.array_equal(solved[1][2], solved[1][1][::-1])
            residuals = []
            for nu, x, y in solved:
                assert nu.shape == (2 ** (n - 1),) and x.shape == y.shape == (2 ** (n - 1),) * 2
                residual, kappa = chiral_check(blocks, nu, x, y)
                residuals.append(residual)
                assert residual <= ref_residual and residual <= 1e-13, (n, build.__name__)
                mu = np.concatenate([nu, -nu])
                dist = np.abs(mu[:, None] - ref_mu[None, :])
                pair = np.argmin(dist, axis=1)
                assert sorted(pair) == list(range(2 ** n))
                assert np.all(dist[np.arange(2 ** n), pair] <= np.maximum(1e-12, 1e-14 * kappa) * scale)
            # on the path blocks, _reflected_eig's residual against _chiral_eig's
            assert residuals[-1] <= 2 * residuals[0]


def test_chiral_eig_rejects_broken_structure(lattice):
    params = make_params(lattice, Z3)
    b, c = build_T_irf_sov(params, 0.41 + 0.37j)
    b_paths = build_T_irf_paths(params, 0.41 + 0.37j)[0]
    assert np.all(np.isfinite(irf._chiral_eig(lambda: (b, c))[0]))
    assert np.all(np.isfinite(irf._reflected_eig(path_blocks(b_paths))[0]))
    # a zero (or tiny) row of B makes B C and B[:, ::-1] singular: nu = 0 has
    # no +/- pair to split
    for factor in (0.0, 1e-20):
        singular = b.copy()
        singular[0] *= factor
        with pytest.raises(ParameterError, match="zero eigenvalue"):
            irf._chiral_eig(lambda: (singular, c))
        singular = b_paths.copy()
        singular[0] *= factor
        with pytest.raises(ParameterError, match="zero eigenvalue"):
            irf._reflected_eig(path_blocks(singular))
    with pytest.raises(ParameterError, match="zero eigenvalue"):
        irf._chiral_eig(lambda: (np.zeros_like(b), np.zeros_like(c)))
    with pytest.raises(ParameterError, match="zero eigenvalue"):
        irf._reflected_eig(path_blocks(np.zeros_like(b)))


def test_chiral_eig_skips_cluster_denominators():
    """Exact and near-equal nu, and +/-2i, whose squares straddle the branch
    cut of sqrt so that the computed nu_i + nu_j can vanish: denominators
    below _GAP_TOL * scale get no correction, and every eigenpair stays
    accurate and finite."""
    rng2 = np.random.default_rng(11)
    true_nu = np.array([1.0, 1.0, 1.0 + 1e-10, 2j, -2j, 0.5 + 0.3j, 3.0, -0.7 + 0.2j])
    x = rng2.standard_normal((8, 8)) + 1j * rng2.standard_normal((8, 8))
    y = rng2.standard_normal((8, 8)) + 1j * rng2.standard_normal((8, 8))
    blocks = (x @ np.diag(true_nu) @ np.linalg.inv(y), y @ np.diag(true_nu) @ np.linalg.inv(x))
    nu, xs, ys = irf._chiral_eig(lambda: blocks)
    assert np.all(np.isfinite(nu)) and np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    residual, _ = chiral_check(blocks, nu, xs, ys)
    assert residual <= 1e-13
    mu, expect = np.concatenate([nu, -nu]), np.concatenate([true_nu, -true_nu])
    # the same multiset: every value within 1e-12 of the other side, with equal counts near each
    dist = np.abs(mu[:, None] - expect[None, :])
    assert np.max(dist.min(axis=0)) <= 1e-12 and np.max(dist.min(axis=1)) <= 1e-12
    near = np.abs(expect[:, None] - expect[None, :]) <= 1e-9
    assert np.array_equal(np.count_nonzero(dist <= 1e-9, axis=0), np.count_nonzero(near, axis=0))
    # the same nu as the spectrum of M = B[:, ::-1], C = B[::-1, ::-1]: the
    # cluster's denominators in _reflected_eig get no correction either
    b = (x @ np.diag(true_nu) @ np.linalg.inv(x))[:, ::-1]
    blocks = (b, b[::-1, ::-1])
    nu, xs, ys = irf._reflected_eig(path_blocks(b))
    assert np.all(np.isfinite(nu)) and np.all(np.isfinite(xs))
    assert chiral_check(blocks, nu, xs, ys)[0] <= 1e-13
    dist = np.abs(nu[:, None] - true_nu[None, :])
    assert np.max(dist.min(axis=0)) <= 1e-12 and np.max(dist.min(axis=1)) <= 1e-12


def test_certify_spectrum_at_a_crossing(lattice):
    """At a point z* where two eigenvalue functions cross, the eigensolver
    meets an exactly degenerate pair (and its negative).  Its cluster
    denominators get no correction, certify_spectrum forms two 2-dim
    clusters spanning the crossing eigenvectors, flags them degenerate and
    certifies every other eigenvalue; the clusters fail, as they must,
    because the two functions differ away from z*."""
    params = make_params(lattice, Z3)
    certs = certify_spectrum(params, 0.39 + 0.41j, rng=np.random.default_rng(7))

    def gap(z):  # eps_a - eps_b of the first two clusters, a level-3 theta function
        a, b = certs.eps(z)[:2]
        return a - b

    z0, z1 = 0.3 + 0.4j, 0.31 + 0.42j
    for _ in range(60):  # secant on eps_a - eps_b
        f0, f1 = gap(z0), gap(z1)
        if f1 == f0:
            break
        z0, z1 = z1, z1 - f1 * (z1 - z0) / (f1 - f0)
    assert abs(gap(z1)) <= 1e-13 * abs(certs.eps(z1)[0])
    crossing = certify_spectrum(params, z1, rng=np.random.default_rng(7))
    dims = np.array([v.shape[1] for v in crossing.bases])
    assert len(dims) == 6 and np.count_nonzero(dims > 1) == 2
    assert np.array_equal(crossing.degenerate, dims > 1)
    assert np.array_equal(crossing.passed, dims == 1)
    # a's and b's eigenvectors (from the generic point) lie in one cluster's span
    pair = np.concatenate(certs.bases[:2], axis=1)
    inside = max(np.linalg.norm(v.conj().T @ pair, axis=0).min() for v in crossing.bases if v.shape[1] > 1)
    assert inside >= 1 - 1e-10


def test_eigenvalue_map(lattice, rng):
    params = make_params(lattice, Z3)
    rec = reconcile_constructions(params, rng)
    certs = certify_spectrum(params, spectral_point(params, rng), tol=1e-8, rng=rng)
    zf = spectral_point(params, rng)
    mu = np.linalg.eigvals(dense(build_T_irf_paths(params, zf)))
    scale = np.max(np.abs(mu))
    for mapped in irf.bridge_scalar(params, zf) * certs.eps(zf - params.eta):
        assert np.min(np.abs(mu - mapped)) <= 1e-9 * scale


def test_bridge_scalar_is_the_kappa_product(lattice):
    """prod_k bridge_scalar(w_k) over N rows is (-1)^N prod_k kappa(w_k - eta)
    bit for bit, the bridge of irf partition's construction_consistency;
    N = 1 is the scalar of reconcile_constructions' pairing and residuals
    (test_working_set_rewrite_is_bit_identical)."""
    rng2 = np.random.default_rng(29)
    for zs in (Z1, Z3, Z5):
        params = make_params(lattice, zs)
        ws = [spectral_point(params, rng2) for _ in range(4)]
        for count in range(1, 5):
            ref = (-1.0) ** count
            for w in ws[:count]:
                ref *= irf.kappa_factor(params, w - ETA)
            assert hexes([math.prod(irf.bridge_scalar(params, w) for w in ws[:count])]) == hexes([ref])
    rec = reconcile_constructions(params, rng2)
    assert rec.constant == -1.0 + 0.0j


def test_commuting_families(lattice, rng):
    for zs in (Z3, Z5):
        params = make_params(lattice, zs)
        for _ in range(5):
            za = spectral_point(params, rng)
            zb = spectral_point(params, rng)
            a, b = dense(build_T_irf_sov(params, za)), dense(build_T_irf_sov(params, zb))
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12 * np.max(np.abs(a @ b))
            a, b = dense(build_T_irf_paths(params, za)), dense(build_T_irf_paths(params, zb))
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12 * np.max(np.abs(a @ b))


def test_validation_rejects_bad_setups(lattice):
    with pytest.raises(ParameterError):
        build_T_irf_paths(ModelParams(lattice, ETA, Z1 + (0.9 + 0.4j,), (1, 1)), 0.3)
    with pytest.raises(ParameterError):
        build_T_irf_sov(ModelParams(lattice, ETA, Z3, (1, 2, 1)), 0.3)
    resonant = (Z1[0], Z1[0] + 2 * ETA, 0.9 + 0.4j)
    with pytest.raises(ParameterError):
        build_T_irf_sov(ModelParams(lattice, ETA, resonant, (1, 1, 1)), 0.3)
    # the models are validated in the per-model caches, which keep no failed
    # entry: every call raises, and certify_spectrum raises before drawing nodes
    two_sites = ModelParams(lattice, ETA, Z1 + (0.9 + 0.4j,), (1, 1))
    for _ in range(2):
        with pytest.raises(ParameterError, match="odd number of sites"):
            certify_spectrum(two_sites, 0.3, rng=np.random.default_rng(1))


def test_certify_spectrum_without_nodes_is_parameter_error(lattice, monkeypatch):
    # no admissible interpolation nodes: the typed error the CLI maps to exit 2
    def resonant(*args):
        raise spaces.ResonantCharacterError("resonant node sum")

    monkeypatch.setattr(spaces, "ThetaSpaceBasis", resonant)
    with pytest.raises(ParameterError):
        certify_spectrum(make_params(lattice, Z3), 0.37 + 0.29j, rng=np.random.default_rng(20250811))


def test_certify_spectrum(lattice, rng):
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    start = time.perf_counter()
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    elapsed = time.perf_counter() - start

    assert certs.eigenvalues.shape == (8,) and len(certs.bases) == 8
    assert certs.passed.all()
    assert not certs.degenerate.any()
    assert np.max(certs.membership_residuals) <= 1e-10
    assert np.max(certs.cluster_residuals) <= 1e-10
    assert np.max(certs.quadratic_residuals) <= 1e-10
    assert np.max(certs.angles) <= 1e-6
    assert certs.q_minus.shape == (8, 3) and certs.q_plus.shape == (3,)
    assert certs.reconstruction.shape == (8, 8) and certs.gaps.shape == (8,)

    # the eight factorized vectors span the whole space
    recon = np.stack([u / np.linalg.norm(u) for u in certs.reconstruction], axis=1)
    assert np.linalg.svd(recon, compute_uv=False)[-1] > 1e-3

    # eigenvalue functions carry the antiperiodic character
    chi0 = eigenvalue_character(params)
    tau = lattice.tau
    z = sample_point(rng, lattice)
    for (r, s) in ((1, 0), (0, 1)):
        expect = spaces.expected_multiplier(chi0, 3, z, r, s, tau) * certs.eps(z)[:3]
        assert np.all(np.abs(certs.eps(z + r + s * tau)[:3] - expect) <= 1e-9 * np.abs(expect))

    assert elapsed < 10.0


def test_certify_spectrum_theta_count(lattice, monkeypatch):
    """Five sites: every certificate shares one cardinal basis, so theta calls
    stay far below the 22,390 that per-certificate interpolation made.  The
    model's flip coefficients, cross thetas and theta(lambda) take one array
    call of 136 points (136 scalar calls before), each of the 9 grid
    matrices its 60 zeta-dependent thetas one, the basis its 20
    node-difference thetas and theta(b) one, and the cardinal vectors at the
    3 validation points and the 10 points z_i -/+ eta their 130 thetas one.
    With the scalar basis and cardinal vectors: 287 scalar calls and 9 array
    calls of 540 points; before the grid matrices' array calls, 852 scalar
    calls."""
    params = make_params(lattice, Z5)
    counts = count_theta_calls(monkeypatch)
    eqg._hop_table.cache_clear()
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert len(certs.eigenvalues) == 32 and certs.passed.all()
    assert counts["theta_array"] == [12, 827]


def test_certificate_eps_reads_the_node_values(lattice):
    """certs.eps gives every eigenvalue function from one cardinal_vector call
    and one product: at the basis nodes it returns eps_nodes (read-only) to
    1e-12, and at any points the per-cluster loop cardinal_vector(z) @
    eps_nodes[k] to rounding.  Not bit for bit: OpenBLAS's zgemm takes the
    points four at a time, and the last (points mod 4) round differently
    from a dot product."""
    for zs in (Z3, Z5):
        params = make_params(lattice, zs)
        certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
        assert not certs.eps_nodes.flags.writeable
        at_nodes = certs.eps(certs.basis.nodes)
        assert np.max(np.abs(at_nodes - certs.eps_nodes)) <= 1e-12 * np.max(np.abs(certs.eps_nodes))
        points = [spectral_point(params, np.random.default_rng(k)) for k in range(7)]
        cards = certs.basis.cardinal_vector(points)
        loop = np.array([[certs.basis.cardinal_vector(z) @ nodes for z in points] for nodes in certs.eps_nodes])
        terms = np.abs(certs.eps_nodes) @ np.abs(cards).T
        assert np.all(np.abs(certs.eps(points) - loop) <= 4 * params.n * np.finfo(float).eps * terms)
        assert certs.eps(points[0]).shape == (len(certs.eigenvalues),)


def reference_certificates(params, certs, seed):
    """The former per-cluster loop over sample matrices: per certificate its
    node ratios, cluster deviation, validation deviation, scale and angle
    (by its sine, the part of u/|u| outside the cluster basis)."""
    # replay certify_spectrum's draws: the basis nodes, then the validation points
    rng2 = np.random.default_rng(seed)
    chi0 = eigenvalue_character(params)
    basis = spaces.make_basis(params.evaluator(), params.n, chi0, rng2, margin=5e-2)
    val_pts = [irf.sample_spectral(params, rng2) for _ in range(3)]
    stacked = np.concatenate(certs.bases, axis=1)
    node_images = [dense(build_T_irf_sov(params, z)) @ stacked for z in basis.nodes]
    val_images = [dense(build_T_irf_sov(params, z)) @ stacked for z in val_pts]
    signs = [[2 * m - 1 for m in point] for point in S0Grid(params).points]
    out = []
    end = 0
    for vectors in certs.bases:
        dim = vectors.shape[1]
        cols = slice(end, end + dim)
        end += dim

        def sample_ratio(image):
            block = vectors.conj().T @ image[:, cols]
            val = complex(np.trace(block)) / dim
            return val, float(np.max(np.abs(block - val * np.eye(dim))))

        vals, cluster_dev = [], 0.0
        for image in node_images:
            val, dev = sample_ratio(image)
            vals.append(val)
            cluster_dev = max(cluster_dev, dev)
        scale = max(max(abs(v) for v in vals), 1e-300)

        def eps(z, vals=np.array(vals)):
            return basis.cardinal_vector(z) @ vals

        member_dev = 0.0
        for zv, image in zip(val_pts, val_images):
            val, dev = sample_ratio(image)
            cluster_dev = max(cluster_dev, dev)
            member_dev = max(member_dev, abs(val - eps(zv)))
            scale = max(scale, abs(val))
        qm = [eps(zi - ETA) for zi in params.zs]
        qp = certs.q_plus.tolist()
        u = np.array([math.prod(qm[i] if s < 0 else qp[i] for i, s in enumerate(sig)) for sig in signs])
        un = u / np.linalg.norm(u)
        outside = np.linalg.norm(un - vectors @ (vectors.conj().T @ un))
        out.append((vals, cluster_dev / scale, member_dev / scale, math.asin(min(1.0, outside))))
    return out


def test_certify_ratios_match_reference_loop(lattice):
    """The batched pass reads each simple eigenvalue's ratios as v* T v from
    one column-wise product per sample matrix; the former loop over sample
    matrices and clusters gives the same node values to rounding, and a
    simple eigenvalue's cluster residual stays an exact zero."""
    params = make_params(lattice, Z5)
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert all(v.shape[1] == 1 for v in certs.bases)
    for k, (vals, cluster_res, member_res, angle) in enumerate(reference_certificates(params, certs, 7)):
        assert_allclose(certs.eps_nodes[k], vals, rtol=1e-12)
        assert certs.cluster_residuals[k] == 0.0 == cluster_res
        assert abs(certs.membership_residuals[k] - member_res) <= 1e-13
        assert abs(certs.angles[k] - angle) <= 1e-12


def test_certify_block_path_matches_reference_loop(lattice, monkeypatch):
    """No seeded model has reached a cluster of two eigenvalues, so two are
    merged by hand: the block path's ratios, cluster deviation and subspace
    angle match the former loop, and the merged certificate fails."""
    original = irf._clusters

    def merged(mu, gap_tol):
        groups, dist = original(mu, gap_tol)
        return [groups[0] + groups[1]] + groups[2:], dist

    monkeypatch.setattr(irf, "_clusters", merged)
    params = make_params(lattice, Z5)
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert len(certs.bases) == 31 and certs.bases[0].shape[1] == 2
    assert certs.degenerate[0] and not certs.passed[0]
    assert certs.passed[1:].all()
    for k, (vals, cluster_res, member_res, angle) in enumerate(reference_certificates(params, certs, 7)):
        assert_allclose(certs.eps_nodes[k], vals, rtol=1e-12)
        assert_allclose(certs.cluster_residuals[k], cluster_res, rtol=1e-12)
        assert abs(certs.membership_residuals[k] - member_res) <= 1e-13
        assert abs(certs.angles[k] - angle) <= 1e-12
    # the two eigenvalues differ, so their block is far from a scalar
    assert certs.cluster_residuals[0] > 1e-3


def test_reconstruction_from_q_minus_and_q_plus(lattice):
    """The report keeps only q_minus per certificate and q_plus once per model;
    README's rule rebuilds the factorized vector from them: q_minus where
    sigma_i < 0, q_plus elsewhere, byte for byte as math.prod forms it."""
    for zs in (Z1, Z3, Z5, Z9[:7]):
        params = make_params(lattice, zs)
        certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(5))
        sigmas = [[2 * m - 1 for m in point] for point in S0Grid(params).points]
        qp = certs.q_plus.tolist()
        for qm, recon in zip(certs.q_minus.tolist(), certs.reconstruction):
            u = [math.prod(m if s < 0 else p for m, p, s in zip(qm, qp, sig)) for sig in sigmas]
            assert np.array(u).tobytes() == recon.tobytes()


def pairwise_clusters(mu, gap_tol):
    """Union over all pairs closer than gap_tol * max |mu|, as a reference."""
    scale = float(np.max(np.abs(mu)))
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
        scale = float(np.max(np.abs(mu)))
        # plant near-degenerate clusters: chains just inside the threshold,
        # near misses just outside it, exact repeats and equal real parts
        for _ in range(int(rng.integers(0, 6))):
            i = int(rng.integers(size))
            step = gap_tol * scale * rng.choice([0.3, 0.9, 1.1, 0.0])
            chain = mu[i] + step * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.arange(1, 4)
            mu = np.concatenate([mu, chain, [complex(mu[i].real, mu[i].imag + 5.0)]])
        mu = mu[rng.permutation(len(mu))]
        groups, dist = irf._clusters(mu, gap_tol)
        assert groups == pairwise_clusters(mu, gap_tol)
        assert np.array_equal(dist, np.abs(mu[:, None] - mu[None, :]))


def test_clusters_long_chain():
    # 256 eigenvalues, each 0.9 threshold from the next: the scale max |mu| is
    # |0.3 + 0.2j| to 3e-5 relative, so the ratio stays 0.9 to that: one group
    gap_tol = 1e-7
    step = 0.9 * gap_tol * abs(0.3 + 0.2j) * np.exp(0.7j)
    mu = (0.3 + 0.2j + step * np.arange(256))[np.random.default_rng(9).permutation(256)]
    groups, _ = irf._clusters(mu, gap_tol)
    assert len(groups) == 1 and sorted(groups[0]) == list(range(256))
    assert groups == pairwise_clusters(mu, gap_tol)


def test_reconstruction_angle_resolves_small_rotations(lattice, monkeypatch):
    """Each eigensolver vector turned by 1e-10 reads an angle of 1e-10 to
    1e-12; arccos of the overlap, cos(1e-10) = 1.0 in double precision,
    read 0.0.  The turn w of v = [x; y] is orthogonal to v and to every
    T(z)^H v (T(z) lies in the span of T at n + 1 generic points), so the
    ratios v* T(z) v move only at second order and the reconstruction
    stays where it was.  The partner [x; -y] = P v (P is -1 on the odd
    states) turns by P w, orthogonal to P v and to every T(z)^H P v because
    T anticommutes with P."""
    turn = 1e-10
    params = make_params(lattice, Z5)
    rng2 = np.random.default_rng(3)
    family = [dense(build_T_irf_sov(params, spectral_point(params, rng2))) for _ in range(6)]
    even, odd = irf._parity_order(params.n)
    chiral_eig = irf._chiral_eig

    def rotated(blocks):
        nu, x, y = chiral_eig(blocks)
        vecs = np.empty((2 * len(nu), len(nu)), dtype=complex)
        vecs[even], vecs[odd] = x, y
        vecs /= np.linalg.norm(vecs, axis=0)
        for k in range(len(nu)):
            v = vecs[:, k]
            fixed = np.linalg.qr(np.stack([v] + [t.conj().T @ v for t in family], axis=1))[0]
            w = rng2.standard_normal(len(v)) + 1j * rng2.standard_normal(len(v))
            w -= fixed @ (fixed.conj().T @ w)
            vecs[:, k] = math.cos(turn) * v + math.sin(turn) * w / np.linalg.norm(w)
        return nu, vecs[even], vecs[odd]

    plain = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert np.max(plain.angles) <= 1e-13
    monkeypatch.setattr(irf, "_chiral_eig", rotated)
    certs = certify_spectrum(params, 0.41 + 0.37j, rng=np.random.default_rng(7))
    assert len(certs.angles) == 32 and certs.passed.all()
    assert np.max(np.abs(certs.angles - turn)) <= 1e-12


def test_certify_rejects_impostor(lattice, rng):
    # nudging one sample off the true eigenvalue function must blow up the
    # quadratic relations by a detectable margin
    params = make_params(lattice, Z3)
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    nodes = [params.sample_generic(rng, margin=5e-2) for _ in range(3)]
    impostor = spaces.ThetaSpaceBasis(ev, 3, chi0, nodes)
    for k in range(3):
        vals = np.array([certs.eps(zn)[k] for zn in nodes])
        vals[0] *= 1.0 + 1e-3
        worst = 0.0
        for i in range(3):
            em = impostor.cardinal_vector(params.zs[i] - ETA) @ vals
            ep = impostor.cardinal_vector(params.zs[i] + ETA) @ vals
            lhs = em * ep
            rhs = 1.0 + 0.0j
            for zk in params.zs:
                rhs *= theta_value(ev, zk - params.zs[i] + 2 * ETA)
                rhs *= theta_value(ev, zk - params.zs[i] - 2 * ETA)
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


def test_partition_function_parity_blocks(lattice, rng):
    # an odd product of rows has no diagonal block: its trace is exactly 0; an
    # even one is two chains of half-size blocks, equal to the dense trace
    for zs in (Z3, Z5):
        params = make_params(lattice, zs)
        ws = [spectral_point(params, rng) for _ in range(4)]
        for kind, build in (("paths", build_T_irf_paths), ("sov", build_T_irf_sov)):
            for rows in (1, 3):
                assert partition_function(params, ws[:rows], kind=kind) == 0j
            for rows in (2, 4):
                product = dense(build(params, ws[0]))
                for w in ws[1:rows]:
                    product = product @ dense(build(params, w))
                ref = complex(np.trace(product))
                got = partition_function(params, ws[:rows], kind=kind)
                assert abs(got - ref) <= 1e-12 * abs(ref)


def test_partition_single_row_matches_spectrum(lattice, rng):
    # one-flip structure forces a zero diagonal, so the single-row trace
    # vanishes along with the (plus/minus symmetric) eigenvalue sum; the
    # comparison scale must be the absolute eigenvalue mass
    params = make_params(lattice, Z3)
    certs = certify_spectrum(params, 0.39 + 0.41j, tol=1e-8, rng=rng)
    w = spectral_point(params, rng)
    eps_w = certs.eps(w)
    mass = sum(abs(v) for v in eps_w)
    trace = partition_function(params, [w], kind="sov")
    assert abs(trace - sum(eps_w)) <= 1e-9 * mass
    assert abs(trace) <= 1e-12 * mass
    assert abs(partition_function(make_params(lattice, Z1), [w], kind="paths")) == 0.0

    # two rows make the check nontrivial: tr T(w1) T(w2) = sum eps(w1) eps(w2)
    w2 = spectral_point(params, rng)
    two = partition_function(params, [w, w2], kind="sov")
    products = eps_w * certs.eps(w2)
    assert abs(two - sum(products)) <= 1e-9 * sum(abs(products))


def continuous_grid_gaps(params, lattice, rng):
    """Per-row misses of apply_transfer_continuous on the grid points against
    the rows of build_T_irf_sov, each relative to max(|lhs|, |rhs|, 1)."""
    ev = params.evaluator()
    cs = [sample_point(rng, lattice) for _ in range(3)]

    def u_any(stack):
        """prod_i theta(x_i - c_i) for each coordinate set of the stack."""
        vals = []
        for xs in stack:
            val = 1.0 + 0.0j
            for x, c in zip(xs, cs):
                val *= theta_value(ev, x - c)
            vals.append(val)
        return np.array(vals)

    zeta = sample_point(rng, lattice)
    t = dense(build_T_irf_sov(params, zeta))
    grid = [tuple(2 * mi - 1 for mi in m) for m in itertools.product(range(2), repeat=3)]
    xs_of = lambda sig: [-z + s * ETA for z, s in zip(params.zs, sig)]
    uvec = u_any([xs_of(sig) for sig in grid])
    gaps = []
    for row, sig in enumerate(grid):
        lhs = apply_transfer_continuous(params, zeta, u_any, xs_of(sig))
        rhs = t[row] @ uvec
        gaps.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return gaps


def test_continuous_operator_matches_grid_rows(lattice, rng):
    gaps = continuous_grid_gaps(make_params(lattice, Z3), lattice, rng)
    assert all(gap <= 1e-12 for gap in gaps)


def test_continuous_operator_character_negative_control(lattice, rng, monkeypatch):
    """The cardinal basis of the off-grid operator carries chi(tau) =
    (-1)^n e^{-2 pi i sum z_j}.  With the eigenvalue character chi_0, whose
    chi_0(tau) has e^{+2 pi i sum z_j}, it interpolates another function
    and the grid rows miss by far more than 1e-12."""
    params = make_params(lattice, Z3)
    basis, wrong = spaces.ThetaSpaceBasis, irf.eigenvalue_character(params)
    monkeypatch.setattr(spaces, "ThetaSpaceBasis", lambda ev, k, chi, nodes: basis(ev, k, wrong, nodes))
    gaps = continuous_grid_gaps(params, lattice, rng)
    assert all(math.isfinite(gap) for gap in gaps) and max(gaps) > 1e-3


def test_continuous_operator_typed_errors(lattice, rng):
    """Coordinates that coincide modulo the lattice (theta(x_i - x_j) = 0, once
    a bare ZeroDivisionError) and a dynamical value -sum (x_i + z_i) within
    rho of the lattice are ParameterErrors."""
    zs = (0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.95j, 0.83 + 0.41j)
    params = ModelParams(lattice, ETA, zs, (1, 1, 1, 1))
    u = lambda stack: np.ones(len(stack), dtype=complex)
    zeta = sample_point(rng, lattice)
    xs = [sample_point(rng, lattice) for _ in zs]
    assert isinstance(apply_transfer_continuous(params, zeta, u, xs), complex)
    for twin in (xs[0], xs[0] + 1.0, xs[0] - TAU):
        with pytest.raises(ParameterError, match="collide modulo the lattice"):
            apply_transfer_continuous(params, zeta, u, [xs[0], twin] + xs[2:])
    last = 1.0 + TAU - sum(xs[:3]) - sum(zs) + 1e-3 * params.rho
    with pytest.raises(ParameterError, match="resonant locus"):
        apply_transfer_continuous(params, zeta, u, xs[:3] + [last])


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
        assert membership_passes(report)


def test_continuous_bethe_eigenvalue_membership(lattice, rng):
    # the transfer eigenvalue, read in the separated variable, lives at
    # level n with the character induced from the shift coefficients
    params = ModelParams(lattice, ETA, (0.12 + 0.23j, 0.57 + 0.71j), (1, 1))
    cb = continuous_bethe(params, rng)
    ev = params.evaluator()
    chi_plus = spaces.character_of(cb.a_plus, TAU)
    chi_sep = spaces.induced_eigenvalue_character(chi_plus, 2 * ETA, 1)
    eps_sep = lambda x: cb.eps_value(-x)
    report = spaces.membership_test(ev, pointwise(eps_sep), 2, chi_sep, rng)
    assert membership_passes(report, 1e-9)
    with pytest.raises(ParameterError):
        continuous_bethe(ModelParams(lattice, ETA, Z3, (1, 1, 1)), rng)


def test_difference_bethe_evaluation_budget(lattice, monkeypatch):
    """No difference-Bethe solve spends more than 120 system evaluations, on
    the bundled irf bethe configs or on 20 seeded 4-site models (sites in the
    cell, eta in [0.10, 0.25] x [-0.10, 0.10]i).  On the sum t_i0 + t_i1 a start
    could run all 200 iterations, over 1,400 evaluations, before giving way;
    the ratio form took at most 84 on 240 such models."""
    evaluations = []
    make_system = spaces._bethe_system

    def counted(*args):
        system = make_system(*args)

        def evaluate(x):
            evaluations[-1] += 1
            return system(x)

        return evaluate

    monkeypatch.setattr(spaces, "_bethe_system", counted)
    configs = Path(__file__).resolve().parents[1] / "configs"
    models = []
    for name in ("irf_bethe_n2.json", "irf_bethe_n4.json"):
        cfg = json.loads((configs / name).read_text())
        models.append((cli.build_params(cfg), cfg["seed"]))
    draw = np.random.default_rng(20261020)
    while len(models) < 22:
        eta = complex(draw.uniform(0.10, 0.25), draw.uniform(-0.10, 0.10))
        zs = tuple(complex(draw.uniform(0.0, 1.0), draw.uniform(0.0, 1.0) * TAU.imag) for _ in range(4))
        params = ModelParams(lattice, eta, zs, (1, 1, 1, 1))
        try:
            params.validate_distinct_sites()
        except ParameterError:
            continue
        models.append((params, int(draw.integers(0, 2**31 - 1))))
    for params, seed in models:
        evaluations.append(0)
        assert continuous_bethe(params, np.random.default_rng(seed)).solution.residual <= 1e-10
    assert len(evaluations) == 22 and max(evaluations) <= 120


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
        chi_plus = spaces.character_of(cb.a_plus, TAU)
        z = params.sample_generic(rng, margin=5e-2, avoid=cb.solution.roots)
        for gamma, within in ((2 * ETA, True), (-2 * ETA, False)):
            chi = spaces.induced_eigenvalue_character(chi_plus, gamma, m)
            dev = spaces.multiplier_deviation(ev, cb.eps, len(zs), chi, z)
            assert (dev <= 1e-9) if within else (dev >= 0.5)


def test_nine_sites_dense_spectrum(lattice, rng):
    params = make_params(lattice, Z9)
    start = time.perf_counter()
    t = dense(build_T_irf_sov(params, 0.4 + 0.4j))
    mu = np.linalg.eigvals(t)
    elapsed = time.perf_counter() - start
    assert t.shape == (512, 512)
    assert np.count_nonzero(np.abs(np.diag(t))) == 0
    # plus/minus symmetric spectrum, checked as a multiset
    mu_sorted = np.sort_complex(mu)
    neg_sorted = np.sort_complex(-mu)
    assert np.max(np.abs(mu_sorted - neg_sorted)) <= 1e-9 * np.max(np.abs(mu))
    assert elapsed < 30.0


def test_stacked_transfer_samples_equal_one_sample_calls():
    """apply_transfer_continuous and eps_value on a stack of 3 samples equal their
    one-sample calls bit for bit: a theta_array row does not depend on its
    batch, and the arithmetic after it is elementwise.  (When the kernel's rows
    rounded by batch shape, they agreed to 1e-13 relative.)"""
    params = cli.build_params(json.loads((CONFIGS / "irf_bethe_n4.json").read_text()))
    rng = np.random.default_rng(3)
    cb = continuous_bethe(params, rng)
    xs = np.array([[params.sample_generic(rng, margin=5e-2) for _ in params.zs] for _ in range(3)])
    zetas = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(3)])
    lhs, eps = apply_transfer_continuous(params, zetas, cb.u_value, xs), cb.eps_value(zetas)
    assert lhs.shape == eps.shape == (3,)
    for p in range(3):
        one = apply_transfer_continuous(params, zetas[p], cb.u_value, xs[p])
        assert isinstance(one, complex) and hexes([lhs[p]]) == hexes([one])
        assert hexes([eps[p]]) == hexes([cb.eps_value(zetas[p])])
    first = apply_transfer_continuous(params, zetas[:1], cb.u_value, xs[:1])
    assert first.shape == (1,) and first[0] == apply_transfer_continuous(params, zetas[0], cb.u_value, xs[0])
    assert cb.eps_value(zetas[:1])[0] == cb.eps_value(zetas[0])


def test_irf_bethe_work(monkeypatch, tmp_path):
    """One cold irf bethe on configs/irf_bethe_n4.json: 35 theta_array calls over
    976 points and as many reductions, and no distance pass.  The solver's
    certificate at the accepted point makes one call over 24 points (22 when
    theta(-/+gamma) was evaluated once, not per root; 22 scalar calls before).
    The Newton makes 18 evaluations, one call each, whose 11 Jacobians read the distances of the evaluation's
    own call; the 3 eigen samples make 10 as one stack (a basis and its
    cardinal vector per sample, u on every shifted set, A_plus and A_minus,
    eps, and u at the samples); q_membership 3 and character_match 3.  With
    one pass per eigen sample it made 42 calls and 53 reductions, 11 of them
    the Jacobians' distance passes."""
    counts = count_theta_calls(monkeypatch)
    reductions = count_reductions(monkeypatch)
    argv = ["irf", "bethe", "--config", str(CONFIGS / "irf_bethe_n4.json"), "--out", str(tmp_path / "b.json")]
    assert cli.main(argv) == 0
    assert counts == {"theta_array": [35, 976]}
    assert reductions == {"reduce_array": 35, "dist_to_lattice_array": 0}
