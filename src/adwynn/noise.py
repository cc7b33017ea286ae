"""Martingale-difference error generators.

Every variant draws errors with conditional mean zero and bounded
conditional variance given the past.  The catalog covers the regimes
the asymptotic results distinguish:

- ``IIDGaussian`` and ``IIDScaledT``: i.i.d., independent of the past
  (the Lindeberg condition holds by identical distribution).
- ``IIDScaledT`` with df > 4 additionally has finite third absolute
  conditional moments, the classical sufficient moment bound.
- ``Heteroscedastic``: conditional s.d. sigma * sqrt(1 + c/i) at step
  i, so the conditional variance converges to sigma^2 (asymptotic
  homogeneity).
- ``NonAH``: the conditional variance alternates between two values
  and never settles; deliberately violates asymptotic homogeneity for
  negative tests while still being a martingale difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import DomainError, require_positive_finite
from .model import check_value

_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """Derive a replicate seed from a master seed and replicate index.

    SplitMix-style 64-bit avalanche of master_seed + (index+1) * golden
    ratio increment.  Documented so replicate streams are reproducible
    by construction, not by accident of the RNG library.
    """
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit-seeded generator."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


class _Gaussian:
    """Draws a normal error with the spec's ``conditional_sd`` at the step."""

    def draw(self, step: int, rng: np.random.Generator) -> float:
        return self.conditional_sd(step) * rng.standard_normal()


@dataclass(frozen=True)
class IIDGaussian(_Gaussian):
    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")

    def conditional_sd(self, step: int) -> float:
        return self.sigma

    def limit_variance(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class IIDScaledT:
    """Student-t rescaled so the variance equals scale^2; df must exceed 4."""

    df: float
    scale: float

    def __post_init__(self):
        if not 4 < self.df < math.inf:
            # df > 4: third absolute moments exist comfortably
            raise DomainError(f"df must be finite and exceed 4, got {self.df!r}")
        require_positive_finite("scale", self.scale)

    def conditional_sd(self, step: int) -> float:
        return self.scale

    def limit_variance(self) -> float:
        return self.scale**2

    def draw(self, step: int, rng: np.random.Generator) -> float:
        return self.scale * np.sqrt((self.df - 2.0) / self.df) * rng.standard_t(self.df)


@dataclass(frozen=True)
class Heteroscedastic(_Gaussian):
    """Gaussian with conditional s.d. sigma*sqrt(1 + decay/i) at step i."""

    sigma: float
    decay: float

    def __post_init__(self):
        require_positive_finite("sigma", self.sigma)
        if not 0 <= self.decay < math.inf:
            raise DomainError(f"decay must be finite and >= 0, got {self.decay!r}")

    def conditional_sd(self, step: int) -> float:
        return self.sigma * np.sqrt(1.0 + self.decay / step)

    def limit_variance(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class NonAH(_Gaussian):
    """Oscillating conditional variance; no asymptotic limit exists."""

    sigma_odd: float
    sigma_even: float

    def __post_init__(self):
        require_positive_finite("sigma_odd", self.sigma_odd)
        require_positive_finite("sigma_even", self.sigma_even)
        if self.sigma_odd == self.sigma_even:
            raise DomainError("NonAH requires sigma_odd != sigma_even")

    def conditional_sd(self, step: int) -> float:
        return self.sigma_odd if step % 2 == 1 else self.sigma_even

    def limit_variance(self) -> None:
        return None


ErrorSpec = Union[IIDGaussian, IIDScaledT, Heteroscedastic, NonAH]


_VARIANTS = {
    "iid_gaussian": IIDGaussian,
    "iid_scaled_t": IIDScaledT,
    "heteroscedastic": Heteroscedastic,
    "non_ah": NonAH,
}


def make_error_spec(variant: str, **params) -> ErrorSpec:
    """Build an error spec from its configuration name and parameters, each
    a finite number (``check_value``)."""
    try:
        cls = _VARIANTS[variant]
    except KeyError:
        known = ", ".join(sorted(_VARIANTS))
        raise DomainError(f"unknown noise variant {variant!r}; known: {known}") from None
    names = tuple(f.name for f in fields(cls))
    missing = [k for k in names if k not in params]
    extra = [k for k in params if k not in names]
    if missing or extra:
        raise DomainError(
            f"noise variant {variant!r} takes {names}; missing {missing}, unexpected {extra}"
        )
    return cls(**{k: check_value(v, k, float) for k, v in params.items()})
