"""The one-sided Levy law: its distribution functions, its closed-form
conditional moments on a quantile window, and its samplers and those of the
alternative families."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .streams import RandomStream

__all__ = [
    "QuantileSplit",
    "theoretical_qcm",
    "theoretical_qcv",
    "LevyParams",
    "AlternativeSpec",
    "ALTERNATIVE_FAMILIES",
    "PAPER_ALTERNATIVES",
    "family_name",
    "levy_cdf",
    "levy_pdf",
    "levy_quantile",
    "sample_levy",
    "sample_alternative",
]


_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class QuantileSplit:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("split bounds must be finite")
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError("split requires 0 <= a < b <= 1")

    def require_open_top(self):
        # The closed forms diverge at b = 1 (the unconditional mean is infinite).
        if self.b >= 1.0:
            raise ValueError("theoretical moments require b < 1")


def _check_scale(c: float) -> None:
    if not np.isfinite(c) or c <= 0.0:
        raise ValueError("scale c must be finite and > 0")


def _erfcinv(q: float) -> float:
    """erfc^-1(q) = -Phi^-1(q/2) / sqrt(2); inf at q = 0 (a = 0) and where q/2 underflows."""
    half = q / 2.0
    return math.inf if half == 0.0 else -NormalDist().inv_cdf(half) / math.sqrt(2.0)


def _exp_over(u: float, power: int) -> float:
    """exp(-u^2) / u^power with the u -> inf limit handled (a = 0 windows)."""
    if not np.isfinite(u):
        return 0.0
    return float(np.exp(-u * u) / u**power)


@lru_cache
def theoretical_qcm(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional mean of Lv(c) between its a- and b-quantiles; linear in c.

    Cached: the statistics divide every batch by the same few constants.
    """
    split.require_open_top()
    _check_scale(c)
    ga = _erfcinv(split.a)
    gb = _erfcinv(split.b)
    return c * ((_exp_over(gb, 1) - _exp_over(ga, 1)) / (_SQRT_PI * (split.b - split.a)) - 1.0)


def _second_moment_antiderivative(u: float) -> float:
    # Antiderivative of exp(-u^2)/u^4 scaled into the second-moment substitution.
    if not np.isfinite(u):
        return 2.0 * _SQRT_PI / 3.0
    e = float(np.exp(-u * u))
    return -e / (3.0 * u**3) + (2.0 / 3.0) * e / u + (2.0 * _SQRT_PI / 3.0) * math.erf(u)


def theoretical_second_moment(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional second moment of Lv(c) on the window; quadratic in c."""
    split.require_open_top()
    _check_scale(c)
    ga = _erfcinv(split.a)
    gb = _erfcinv(split.b)
    num = _second_moment_antiderivative(ga) - _second_moment_antiderivative(gb)
    return c * c * num / (2.0 * _SQRT_PI * (split.b - split.a))


@lru_cache
def theoretical_qcv(split: QuantileSplit, c: float = 1.0) -> float:
    """Conditional variance of Lv(c) on the window; scales as c^2."""
    m1 = theoretical_qcm(split, c)
    return theoretical_second_moment(split, c) - m1 * m1


@dataclass(frozen=True)
class LevyParams:
    """Location-scale parameters of the (possibly shifted) one-sided Levy law."""

    c: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        _check_scale(self.c)
        if not np.isfinite(self.mu):
            raise ValueError("location mu must be finite")


def _on_support(x, p: LevyParams, fn):
    """fn(x - mu) where x > mu, 0 elsewhere and NaN at NaN; a float for a 0-d x."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x)
    out = np.where(np.isnan(flat), np.nan, 0.0)
    pos = flat > p.mu
    out[pos] = fn(flat[pos] - p.mu)
    return float(out[0]) if x.ndim == 0 else out


def levy_cdf(x, p: LevyParams = LevyParams()):
    """CDF: 0 for x <= mu, else erfc(sqrt(c / (2 (x - mu))))."""
    return _on_support(x, p, lambda t: [math.erfc(math.sqrt(p.c / (2.0 * v)))
                                        for v in t.tolist()])


def levy_pdf(x, p: LevyParams = LevyParams()):
    """Density: sqrt(c/2pi) * (x-mu)^(-3/2) * exp(-c/(2(x-mu))) on (mu, inf)."""
    def density(t):
        e = np.exp(-p.c / (2.0 * t))
        # The density is 0 where the exponential underflows (t < c/1490); below
        # t = 3.1e-206, t**-1.5 would also overflow and the product be inf * 0.
        live = e > 0.0
        out = np.zeros_like(t)
        out[live] = np.sqrt(p.c / (2.0 * np.pi)) * t[live] ** -1.5 * e[live]
        return out
    return _on_support(x, p, density)


def levy_quantile(prob, p: LevyParams = LevyParams()):
    """Quantile: mu + c / (2 erfcinv(prob)^2) for prob in (0, 1)."""
    q = np.asarray(prob, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile requires 0 < prob < 1")
    g = np.array([_erfcinv(v) for v in q.ravel().tolist()]).reshape(q.shape)
    return p.mu + p.c / (2.0 * g ** 2)


def _draw(n: int, stream: RandomStream, rows: int | None, fill) -> np.ndarray:
    """n values, or with `rows` a (rows, n) block whose row k is filled by
    fill(generator, row) from stream (stream.master_seed, stream.stream_index + k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    streams = [stream] if rows is None else stream.block(rows)
    out = np.empty((len(streams), n))
    # Extreme parameters may draw inf (e.g. Frechet with a tiny shape). The
    # values stand, without a NumPy warning, for the caller to judge: `sample`
    # refuses them, and a power study counts them as failed replicates.
    with np.errstate(all="ignore"):
        for s, row in zip(streams, out):
            fill(s.generator(), row)
    return out if rows is not None else out[0]


def sample_levy(p: LevyParams, n: int, stream: RandomStream,
                rows: int | None = None) -> np.ndarray:
    """Draw n i.i.d. values from Lv(mu, c) as mu + c / Z^2, Z standard normal
    (exact in law).

    With `rows`, a (rows, n) block whose row k is the draw of stream
    (stream.master_seed, stream.stream_index + k), bit for bit: each row's
    normals come from its own stream, and the block is transformed once.
    """
    z = _draw(n, stream, rows, lambda rng, row: rng.standard_normal(n, out=row))
    z *= z
    with np.errstate(all="ignore"):  # a huge c overflows to inf, as in _draw
        np.divide(p.c, z, out=z)
    z += p.mu
    return z


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


def family_name(text: str) -> str:
    """A law's name as the code spells it: lower case, without `-` and `_`."""
    return text.lower().replace("-", "").replace("_", "")


# The parameters, by index, that need not be positive: the lognormal mu and the
# Frechet location m take any finite value; every other parameter must be > 0.
_ZERO_OK = {"frechet": {0}, "lognormal": {0}}


@dataclass(frozen=True)
class AlternativeSpec:
    """One of the benchmark alternative families of the power study."""

    family: str
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        fam = family_name(self.family)
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if fam not in ALTERNATIVE_FAMILIES:
            raise ValueError(f"unknown alternative family: {self.family!r}; "
                             f"choose from {sorted(ALTERNATIVE_FAMILIES)}")
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
        """family(p1,p2,...): each value in its `g` format when that reads back
        as the value, else in full, so two distinct specs never share a label."""
        return f"{self.family}({','.join(_label_value(v) for v in self.params)})"


def _label_value(v: float) -> str:
    text = format(v, "g")
    return text if float(text) == v else repr(v)


# The alternatives of the paper's power study, in the order of its tables.
PAPER_ALTERNATIVES = tuple(AlternativeSpec(fam, params) for fam, params in (
    ("gamma", (2.0, 3.0)),
    ("chisquared", (4.0,)),
    ("weibull", (1.75, 1.0)),
    ("lognormal", (0.0, 1.0)),
    ("pareto", (0.75, 1.0)),
    ("pareto", (1.5, 0.5)),
    ("rayleigh", (1.0,)),
    ("halfnormal", (1.0,)),
    ("frechet", (0.0, 0.5, 1.0)),
    ("absloggamma", (3.0, 2.0)),
    ("invgaussian", (1.0, 1.5)),
    ("burr", (1.5, 0.5, 0.5)),
))


def sample_alternative(spec: AlternativeSpec, n: int, stream: RandomStream,
                       rows: int | None = None) -> np.ndarray:
    """Draw n i.i.d. values from the given alternative family.

    With `rows`, a (rows, n) block whose row k is the draw of stream
    (stream.master_seed, stream.stream_index + k), bit for bit.
    """
    _, sampler = ALTERNATIVE_FAMILIES[spec.family]
    return _draw(n, stream, rows,
                 lambda rng, row: np.copyto(row, sampler(rng, n, *spec.params)))

