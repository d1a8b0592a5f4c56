"""Model data validation: typed errors for inputs outside the hypotheses."""

import math

import numpy as np
import pytest

from ellsov.params import ModelParams, ParameterError
from ellsov.theta import Lattice, LatticeError

from conftest import TAU

ZS = (0.12 + 0.23j, 0.57 + 0.71j, 0.34 + 0.52j)


def make(lattice, eta=0.173 - 0.061j, zs=ZS):
    return ModelParams(lattice=lattice, eta=eta, zs=zs, lams=(1,) * len(zs))


def test_valid_model(lattice):
    params = make(lattice)
    assert params.n == 3 and params.lattice.tau == TAU


def test_nan_eta_rejected(lattice):
    with pytest.raises(ParameterError, match="eta"):
        make(lattice, eta=complex(math.nan, 0.1))


def test_infinite_eta_rejected(lattice):
    with pytest.raises(ParameterError, match="eta"):
        make(lattice, eta=complex(0.1, math.inf))


def test_nan_site_rejected(lattice):
    with pytest.raises(ParameterError, match="site 1"):
        make(lattice, zs=(ZS[0], complex(0.4, math.nan), ZS[2]))


def test_sample_generic(lattice):
    """One sampler: the model's draws are the lattice's, at margin 100 rho by default."""
    params = make(lattice)
    z = params.sample_generic(np.random.default_rng(7), avoid=ZS)
    assert z == lattice.sample_generic(np.random.default_rng(7), 100 * params.rho, ZS)
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = params.sample_generic(rng, margin=0.3, avoid=ZS)
        assert min(lattice.dist_to_lattice(z - p) for p in (0.0,) + ZS) >= 0.3
    # no point of the cell is 2 away from the lattice
    with pytest.raises(LatticeError, match="generic point"):
        params.sample_generic(rng, margin=2.0)


def reference_resonant_pair(params):
    """The first (i, j, ell) loop hit of the 2*eta-resonance check, scalar distances."""
    for i in range(params.n):
        for j in range(params.n):
            for ell in (-1, 0, 1):
                shift = params.zs[i] - params.zs[j] - 2.0 * ell * params.eta
                if i != j and params.lattice.dist_to_lattice(shift) < params.rho:
                    return i, j
    return None


@pytest.mark.parametrize(
    "moves", [((2, 1, 2),), ((4, 3, -2),), ((3, 0, -2),), ((1, 4, 2),), ((4, 1, 2), (3, 0, -2))]
)
def test_resonance_error_names_first_pair(lattice, moves):
    # each move sets site = partner + offset eta plus a lattice vector; the
    # error names the first resonant (i, j) of the scalar loop over i, then j
    zs = list(ZS) + [0.81 + 0.11j, 0.29 + 0.88j]
    assert reference_resonant_pair(make(lattice, zs=tuple(zs))) is None
    for site, partner, offset in moves:
        zs[site] = zs[partner] + offset * (0.173 - 0.061j) + 1 + lattice.tau
    params = make(lattice, zs=tuple(zs))
    i, j = reference_resonant_pair(params)
    with pytest.raises(ParameterError, match="sites %d and %d are" % (i, j)):
        params.validate_for_irf()


def test_irf_collisions_come_from_the_array_pass(lattice, monkeypatch):
    """validate_for_irf reads collisions from its one array pass, before the
    weight, parity and resonance checks: a collision planted at each pair
    position, with a weight other than 1, or after an earlier resonant pair,
    gives validate_distinct_sites' text, and no scalar distance is taken."""
    zs5 = ZS + (0.81 + 0.11j, 0.29 + 0.88j)
    eta = 0.173 - 0.061j
    cases = []
    for i in range(5):
        for j in range(i + 1, 5):
            zs = list(zs5)
            zs[j] = zs[i] + 1 + lattice.tau
            cases.append((make(lattice, zs=tuple(zs)), (i, j)))
    zs = list(zs5)
    zs[3] = zs[1] - lattice.tau
    cases.append((ModelParams(lattice=lattice, eta=eta, zs=tuple(zs), lams=(1, 1, 2, 1, 1)), (1, 3)))
    zs[1] = zs[0] + 2 * eta + 1  # (0, 1) is 2*eta-resonant, ahead of the collision
    zs[3] = zs[1] - lattice.tau
    cases.append((make(lattice, zs=tuple(zs)), (1, 3)))
    assert reference_resonant_pair(cases[-1][0]) == (0, 1)

    calls = []
    scalar = Lattice.dist_to_lattice
    monkeypatch.setattr(Lattice, "dist_to_lattice", lambda self, z: calls.append(z) or scalar(self, z))
    for params, (i, j) in cases:
        with pytest.raises(ParameterError) as raised:
            params.validate_for_irf()
        assert str(raised.value) == "sites %d and %d collide modulo the lattice" % (i, j)
        assert not calls
        with pytest.raises(ParameterError) as expected:
            params.validate_distinct_sites()
        assert str(raised.value) == str(expected.value)
        calls.clear()
