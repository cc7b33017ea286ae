from __future__ import annotations

import numpy as np
import pytest

from adwynn.errors import DomainError
from adwynn.noise import (
    Heteroscedastic,
    IIDGaussian,
    IIDScaledT,
    NonAH,
    make_error_spec,
    make_rng,
    mix_seed,
)


# ------------------------------------------------------------ conditional variance


def test_conditional_variance_iid_gaussian():
    spec = IIDGaussian(0.1)
    for step in (1, 5, 1000):
        assert spec.conditional_sd(step) ** 2 == pytest.approx(0.01)


def test_conditional_variance_heteroscedastic():
    spec = Heteroscedastic(sigma=1.0, decay=2.0)
    assert spec.conditional_sd(2) ** 2 == pytest.approx(2.0)
    assert spec.conditional_sd(1) ** 2 == pytest.approx(3.0)
    assert spec.conditional_sd(10**9) ** 2 == pytest.approx(1.0, rel=1e-6)


def test_conditional_variance_non_ah_oscillates():
    spec = NonAH(sigma_odd=1.0, sigma_even=2.0)
    assert spec.conditional_sd(1) ** 2 == pytest.approx(1.0)
    assert spec.conditional_sd(2) ** 2 == pytest.approx(4.0)
    assert spec.conditional_sd(3) ** 2 == pytest.approx(1.0)
    assert spec.limit_variance() is None


def test_ah_convergence_bound():
    # |cv(n) - sigma^2| <= sigma^2 * c / n, with equality for this variant
    spec = Heteroscedastic(sigma=0.7, decay=3.0)
    for n in (1, 2, 10, 100, 10000):
        assert abs(spec.conditional_sd(n) ** 2 - 0.49) <= 0.49 * 3.0 / n + 1e-15


# ------------------------------------------------------------ draws


def test_degenerate_gaussian_is_zero():
    spec = IIDGaussian(0.0)
    rng = make_rng(1)
    assert all(spec.draw(step, rng) == 0.0 for step in range(1, 21))


def test_gaussian_law_of_large_numbers():
    spec = IIDGaussian(0.1)
    rng = make_rng(777)
    draws = np.array([spec.draw(step, rng) for step in range(1, 100001)])
    assert abs(draws.mean()) <= 4 * 0.1 / np.sqrt(100000)
    assert abs(draws.var() - 0.01) <= 0.05 * 0.01


def test_scaled_t_variance_matches_scale():
    spec = IIDScaledT(df=5.0, scale=0.5)
    rng = make_rng(2024)
    draws = np.array([spec.draw(step, rng) for step in range(1, 200001)])
    assert abs(draws.mean()) <= 0.01
    assert draws.var() == pytest.approx(0.25, rel=0.05)


def test_heteroscedastic_step_advances():
    # a draw at step s scales one standard normal by the s.d. at step s
    spec = Heteroscedastic(sigma=1.0, decay=1.0)
    rng, ref = make_rng(5), make_rng(5)
    for step in (1, 2, 7):
        assert spec.draw(step, rng) == np.sqrt(1.0 + 1.0 / step) * ref.standard_normal()


def test_martingale_property_binned_history():
    # mean of e_i given binned e_{i-1} stays within 4 standard errors of 0
    spec = Heteroscedastic(sigma=1.0, decay=1.0)
    rng = make_rng(99)
    paths = 10000
    e1 = np.empty(paths)
    e2 = np.empty(paths)
    for r in range(paths):
        e1[r] = spec.draw(1, rng)
        e2[r] = spec.draw(2, rng)
    bins = np.quantile(e1, [0.25, 0.5, 0.75])
    which = np.digitize(e1, bins)
    for b in range(4):
        sel = e2[which == b]
        se = sel.std(ddof=1) / np.sqrt(sel.size)
        assert abs(sel.mean()) <= 4 * se


def test_lindeberg_proxy_decreases_for_scaled_t():
    spec = IIDScaledT(df=5.0, scale=1.0)
    rng = make_rng(31)
    sample = np.array([spec.draw(step, rng) for step in range(1, 200001)])
    eps = 0.5
    values = []
    for n in (10, 100, 1000):
        cut = eps * np.sqrt(n)
        values.append(float((sample**2 * (np.abs(sample) > cut)).mean()))
    assert values[0] > values[1] > values[2]


# ------------------------------------------------------------ construction


def test_spec_validation():
    with pytest.raises(DomainError):
        IIDGaussian(-1.0)
    with pytest.raises(DomainError):
        IIDScaledT(df=4.0, scale=1.0)
    with pytest.raises(DomainError):
        IIDScaledT(df=5.0, scale=0.0)
    with pytest.raises(DomainError):
        Heteroscedastic(sigma=0.0, decay=1.0)
    with pytest.raises(DomainError):
        NonAH(sigma_odd=1.0, sigma_even=1.0)


def test_make_error_spec():
    spec = make_error_spec("iid_gaussian", sigma=0.2)
    assert isinstance(spec, IIDGaussian)
    spec = make_error_spec("non_ah", sigma_odd=1.0, sigma_even=2.0)
    assert isinstance(spec, NonAH)
    with pytest.raises(DomainError):
        make_error_spec("bogus", sigma=1.0)
    with pytest.raises(DomainError):
        make_error_spec("iid_gaussian", sigma=1.0, extra=2.0)
    with pytest.raises(DomainError):
        make_error_spec("iid_scaled_t", df=5.0)


# ------------------------------------------------------------ seeding


def test_mix_seed_is_deterministic_and_spread():
    a = mix_seed(123, 0)
    assert a == mix_seed(123, 0)
    seeds = {mix_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    # flipping the master seed changes every derived seed
    assert all(mix_seed(124, i) != mix_seed(123, i) for i in range(100))


def test_make_rng_reproducible():
    r1 = make_rng(42)
    r2 = make_rng(42)
    assert r1.standard_normal(5).tolist() == r2.standard_normal(5).tolist()
