"""Independent reference implementations the tests check the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it by
name, as pytest puts this directory on ``sys.path``. Each oracle shares no
code with the part of the package it checks:

* ``qcmoment_quadrature_oracle`` integrates the Levy density numerically,
  against the closed-form window moments of ``condmoments``;
* ``sample_levy_inverse`` draws by the quantile transform of uniforms,
  against the ``mu + c / Z^2`` sampler of ``distributions``;
* ``alternative_cdf`` gives each alternative family's CDF from scipy.stats,
  against the samplers of ``distributions``;
* ``fixture_sha256`` digests the embedded case-study data.
"""
from __future__ import annotations

import hashlib

import numpy as np
from scipy import stats
from scipy.integrate import quad

from levygof.condmoments import QuantileSplit
from levygof.datasets import fixture_raw
from levygof.distributions import AlternativeSpec, LevyParams, levy_pdf, levy_quantile
from levygof.streams import RandomStream


class QuadratureError(RuntimeError):
    pass


def qcmoment_quadrature_oracle(split: QuantileSplit, c: float = 1.0, order: int = 1) -> float:
    """E[X^order | window] by adaptive quadrature; independent of the closed forms."""
    split.require_open_top()
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    p = LevyParams(c=c)
    lo = 0.0 if split.a == 0.0 else float(levy_quantile(split.a, p))
    hi = float(levy_quantile(split.b, p))
    val, err = quad(lambda x: x**order * levy_pdf(x, p), lo, hi,
                    epsabs=1e-12, epsrel=1e-12, limit=500)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(
            f"quadrature did not converge: value={val!r} err={err!r} split={split}")
    return val / (split.b - split.a)


def sample_levy_inverse(p: LevyParams, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n i.i.d. values from Lv(mu, c) by the quantile transform of uniforms."""
    u = stream.generator().random(n)
    # Guard the open-interval requirement of the quantile map.
    u = np.clip(u, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    return levy_quantile(u, p)


def alternative_cdf(spec: AlternativeSpec, x) -> np.ndarray:
    """Closed-form CDF of the alternative family."""
    x = np.asarray(x, dtype=float)
    fam, p = spec.family, spec.params
    if fam == "gamma":
        return stats.gamma.cdf(x, p[0], scale=p[1])
    if fam == "chisquared":
        return stats.chi2.cdf(x, p[0])
    if fam == "weibull":
        return stats.weibull_min.cdf(x, p[1], scale=p[0])
    if fam == "lognormal":
        return stats.lognorm.cdf(x, np.sqrt(p[1]), scale=np.exp(p[0]))
    if fam == "pareto":
        alpha, sigma = p
        return stats.pareto.cdf(x, alpha, scale=sigma)
    if fam == "rayleigh":
        return stats.rayleigh.cdf(x, scale=p[0])
    if fam == "halfnormal":
        return stats.halfnorm.cdf(x, scale=p[0])
    if fam == "frechet":
        m, s, alpha = p
        return stats.invweibull.cdf(x, alpha, loc=m, scale=s)
    if fam == "absloggamma":
        k, theta = p
        g = stats.gamma(k, scale=theta)
        x_pos = np.maximum(x, 0.0)
        return g.cdf(np.exp(x_pos)) - g.cdf(np.exp(-x_pos))
    if fam == "invgaussian":
        mu, lam = p
        return stats.invgauss.cdf(x, mu / lam, scale=lam)
    if fam == "burr":
        mu, eta, sigma = p
        x_pos = np.maximum(x, 0.0)
        return 1.0 - (1.0 + (x_pos / mu) ** sigma) ** -eta
    raise ValueError(fam)


def fixture_sha256(name: str) -> str:
    """Digest of the canonical two-decimal rendering of the raw values."""
    text = "\n".join(f"{v:.2f}" for v in fixture_raw(name))
    return hashlib.sha256(text.encode()).hexdigest()
