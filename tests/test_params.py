"""Model data validation: typed errors for inputs outside the hypotheses."""

import math

import numpy as np
import pytest

from ellsov.params import ModelParams, ParameterError
from ellsov.theta import LatticeError

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
