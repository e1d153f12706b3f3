"""Shared fixtures and small data builders for the test suite."""

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from mnarmean.data import BasisTerm, Dataset, ModelConfig


def make_dataset(r, y, x):
    return Dataset(r=np.asarray(r), y=np.asarray(y, dtype=float), x=np.asarray(x, dtype=float))


def mixture_cdf(mix):
    """The cdf of a GaussianMixture, from its components, for KS tests."""

    def cdf(x):
        return sum(w * norm.cdf(x, loc=m, scale=np.sqrt(s2)) for w, m, s2 in mix.components)

    return cdf


def mar_complete_data(n: int, seed: int, a0: float = -0.5, b: float = 0.7):
    """(r, y, x) of ``mar_dataset`` with y drawn for every row, the missing
    ones included."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    pi = expit(-(a0 + b * x1))
    r = (rng.random(n) < pi).astype(np.int64)
    y = 1.0 + 0.5 * x1 - 0.8 * x2 + x2**2 + rng.normal(0.0, 1.0, n)
    return r, y, np.column_stack([x1, x2])


def mar_dataset(n: int, seed: int, a0: float = -0.5, b: float = 0.7) -> Dataset:
    """Missingness depends on x only (gamma = 0): pr(R=1|x) = expit(-(a0 + b x1)).

    y given x is linear with standard normal noise, so any estimator that
    assumes outcome-dependent missingness should find gamma near 0.
    """
    r, y, x = mar_complete_data(n, seed, a0, b)
    return Dataset(r=r, y=np.where(r == 1, y, np.nan), x=x)


@pytest.fixture
def cfg_2d() -> ModelConfig:
    """Intercept + x1 + x2 + x2^2 mean with x1 in the propensity."""
    return ModelConfig(
        mean_basis=(BasisTerm((0, 0)), BasisTerm((1, 0)), BasisTerm((0, 1)), BasisTerm((0, 2))),
        x1_columns=(1,),
    )


@pytest.fixture
def example1_fit_inputs():
    """A moderate Example-1 dataset plus its config, used by several modules."""
    from mnarmean.simulate import example1, generate_dataset

    sc = example1(alpha0=-1.7, delta=0.0)
    ds = generate_dataset(sc, 2000, seed=314)
    return sc, ds, sc.model_config()
