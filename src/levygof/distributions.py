"""One-sided Levy distribution kernel and alternative-family samplers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .streams import RandomStream

__all__ = [
    "LevyParams",
    "AlternativeSpec",
    "ALTERNATIVE_FAMILIES",
    "levy_cdf",
    "levy_pdf",
    "levy_quantile",
    "sample_levy",
    "sample_alternative",
]


@dataclass(frozen=True)
class LevyParams:
    """Location-scale parameters of the (possibly shifted) one-sided Levy law."""

    c: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.c) or self.c <= 0.0:
            raise ValueError("scale c must be finite and > 0")
        if not np.isfinite(self.mu):
            raise ValueError("location mu must be finite")


def levy_cdf(x, p: LevyParams = LevyParams()):
    """CDF: 0 for x <= mu, else erfc(sqrt(c / (2 (x - mu))))."""
    from scipy.special import erfc

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.where(np.isnan(x), np.nan, 0.0)
    pos = x > p.mu
    if np.any(pos):
        out[pos] = erfc(np.sqrt(p.c / (2.0 * (x[pos] - p.mu))))
    return float(out[0]) if scalar else out


def levy_pdf(x, p: LevyParams = LevyParams()):
    """Density: sqrt(c/2pi) * (x-mu)^(-3/2) * exp(-c/(2(x-mu))) on (mu, inf)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.where(np.isnan(x), np.nan, 0.0)
    pos = x > p.mu
    t = x[pos] - p.mu
    e = np.exp(-p.c / (2.0 * t))
    # The density is 0 where the exponential underflows (t < c/1490); below
    # t = 3.1e-206, t**-1.5 would also overflow and the product be inf * 0.
    live = e > 0.0
    pos[pos] = live
    out[pos] = np.sqrt(p.c / (2.0 * np.pi)) * t[live] ** -1.5 * e[live]
    return float(out[0]) if scalar else out


def levy_quantile(prob, p: LevyParams = LevyParams()):
    """Quantile: mu + c / (2 erfcinv(prob)^2) for prob in (0, 1)."""
    from scipy.special import erfcinv

    q = np.asarray(prob, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile requires 0 < prob < 1")
    return p.mu + p.c / (2.0 * erfcinv(q) ** 2)


def sample_levy(p: LevyParams, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n i.i.d. values from Lv(mu, c) as mu + c / Z^2, Z standard normal
    (exact in law)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = stream.generator().standard_normal(n)
    return p.mu + p.c / (z * z)


# Alternative families: name -> (parameter count, sampler).
# Parameter conventions follow the PDFs used in the power study. The Pareto
# order (shape alpha, scale sigma) is confirmed by two pinned power cells
# (on at n=20 and cn at n=50 under Pareto(0.75, 1)); the absloggamma reading
# |log G|, G ~ Gamma(k, scale theta), is not: its pinned power cell stays
# unmatched under every natural reading of the pair.

def _sample_gamma(rng, n, k, theta):
    return rng.gamma(k, theta, size=n)


def _sample_chisq(rng, n, k):
    return rng.chisquare(k, size=n)


def _sample_weibull(rng, n, lam, k):
    return lam * rng.weibull(k, size=n)


def _sample_lognormal(rng, n, mu, sigma_sq):
    return rng.lognormal(mu, np.sqrt(sigma_sq), size=n)


def _sample_pareto(rng, n, alpha, sigma):
    # Parameters in the order (alpha, sigma):
    # pdf alpha*sigma^alpha / x^(alpha+1) on [sigma, inf)
    return sigma * (1.0 + rng.pareto(alpha, size=n))


def _sample_rayleigh(rng, n, sigma):
    return rng.rayleigh(sigma, size=n)


def _sample_halfnormal(rng, n, sigma):
    return np.abs(sigma * rng.standard_normal(n))


def _sample_frechet(rng, n, m, s, alpha):
    # Triple read as (location m, scale s, shape alpha); shape must be positive.
    return m + s * rng.weibull(alpha, size=n) ** -1.0


def _sample_absloggamma(rng, n, k, theta):
    return np.abs(np.log(rng.gamma(k, theta, size=n)))


def _sample_invgaussian(rng, n, mu, lam):
    # Two-root transform with uniform rejection (Michael-Schucany-Haas).
    return rng.wald(mu, lam, size=n)


def _sample_burr(rng, n, mu, eta, sigma):
    # CDF 1 - (1 + (x/mu)^sigma)^(-eta); sampled by inversion.
    u = rng.random(n)
    return mu * ((1.0 - u) ** (-1.0 / eta) - 1.0) ** (1.0 / sigma)


ALTERNATIVE_FAMILIES = {
    "gamma": (2, _sample_gamma),
    "chisquared": (1, _sample_chisq),
    "weibull": (2, _sample_weibull),
    "lognormal": (2, _sample_lognormal),
    "pareto": (2, _sample_pareto),
    "rayleigh": (1, _sample_rayleigh),
    "halfnormal": (1, _sample_halfnormal),
    "frechet": (3, _sample_frechet),
    "absloggamma": (2, _sample_absloggamma),
    "invgaussian": (2, _sample_invgaussian),
    "burr": (3, _sample_burr),
}

# Families whose parameters may legitimately include zero (Frechet location).
_ZERO_OK = {"frechet": {0}, "lognormal": {0}}


@dataclass(frozen=True)
class AlternativeSpec:
    """One of the benchmark alternative families of the power study."""

    family: str
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        fam = self.family.lower().replace("-", "").replace("_", "")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if fam not in ALTERNATIVE_FAMILIES:
            raise ValueError(f"unknown alternative family: {self.family!r}")
        nparams, _ = ALTERNATIVE_FAMILIES[fam]
        if len(self.params) != nparams:
            raise ValueError(f"{fam} takes {nparams} parameter(s), got {len(self.params)}")
        zero_ok = _ZERO_OK.get(fam, set())
        for i, v in enumerate(self.params):
            if not np.isfinite(v):
                raise ValueError(f"{fam} parameter {i} must be finite")
            if v <= 0.0 and i not in zero_ok:
                raise ValueError(f"{fam} parameter {i} must be > 0")

    def label(self) -> str:
        return f"{self.family}({','.join(format(v, 'g') for v in self.params)})"


def sample_alternative(spec: AlternativeSpec, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n i.i.d. values from the given alternative family."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, sampler = ALTERNATIVE_FAMILIES[spec.family]
    return sampler(stream.generator(), n, *spec.params)

