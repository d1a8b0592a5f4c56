"""Model data validation: typed errors for inputs outside the hypotheses."""

import math

import pytest

from ellsov.params import ModelParams, ParameterError

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
