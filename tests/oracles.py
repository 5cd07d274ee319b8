"""Independent reference implementations the tests check the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it by
name, as pytest puts this directory on ``sys.path``. Each oracle shares no
code with the part of the package it checks:

* ``qcmoment_quadrature_oracle`` integrates the Levy density numerically,
  against the closed-form window moments of ``distributions``;
* ``sample_levy_inverse`` draws by the quantile transform of uniforms,
  against the ``mu + c / Z^2`` sampler of ``distributions``;
* ``alternative_cdf`` gives each alternative family's CDF from scipy.stats,
  against the samplers of ``distributions``;
* ``qcv_unscaled`` and ``cn_unscaled`` cut each window by ``window_indices``
  themselves and take its variance as given, against the ``qcv`` and ``cn``
  kernels of ``statistics``, which first scale each window by a power of two;
  the two agree bit for bit at ordinary magnitudes;
* ``shift_pairs_in_blocks`` and ``exp_pairs_77`` are the earlier pair
  kernels of ``ran``: cyclic shifts in blocks of at most 2**15 elements, and
  the exponential sum on 77 nodes at step 1/4 with an ``exp`` per node. The
  one-block shift kernel must equal the first bit for bit, and the
  exponential sum on squared exponentials must stay near the second;
* ``vn_asymptotic_sd`` is the sd of vn's asymptotic null law by the delta
  method and quadrature, against the Monte Carlo null of ``montecarlo``;
* ``fixture_sha256`` digests the embedded case-study data.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import digamma

from levygof.datasets import fixture_raw
from levygof.distributions import (AlternativeSpec, LevyParams, QuantileSplit, levy_pdf,
                                   levy_quantile, theoretical_qcv)
from levygof.statistics import window_indices
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


def vn_asymptotic_sd() -> float:
    """Asymptotic sd of vn = sqrt(n) (cov / mle - 1) under the null.

    Under Lv(1), Y = 1/X = Z^2 ~ chi^2_1 with Z standard normal, and
    cov / mle = 2 mean(Y) / S, S the mean of (Y - mean Y)(log Y - mean log Y),
    whose limit is Cov(Y, log Y) = 2. The delta method gives the influence
    function psi(Y) = (Y - 1) - ((Y - 1)(log Y - E log Y) - 2) / 2, with
    E log Y = digamma(1/2) + log 2, and the sd is sqrt(E psi^2): the integral
    against the normal density in z over (0, inf), doubled.
    """
    elog = digamma(0.5) + math.log(2.0)

    def psi_sq_density(z):
        y = z * z
        psi = (y - 1.0) - ((y - 1.0) * (math.log(y) - elog) - 2.0) / 2.0
        return psi * psi * math.exp(-y / 2.0) / math.sqrt(2.0 * math.pi)

    half, _ = quad(psi_sq_density, 0.0, math.inf)
    return math.sqrt(2.0 * half)


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


def _window_var(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    i, j = window_indices(xs.shape[-1], split)
    return xs[..., i:j].var(axis=-1)


def qcv_unscaled(xs: np.ndarray, split: QuantileSplit) -> np.ndarray:
    """QCV scale of sorted rows: root of the windowed variance over the Lv(1) constant."""
    return np.sqrt(_window_var(xs, split) / theoretical_qcv(split, 1.0))


def cn_unscaled(xs: np.ndarray, s1: QuantileSplit, s2: QuantileSplit) -> np.ndarray:
    """The cn statistic of sorted rows; NaN where a windowed variance is not positive."""
    v1 = _window_var(xs, s1) / theoretical_qcv(s1, 1.0)
    v2 = _window_var(xs, s2) / theoretical_qcv(s2, 1.0)
    with np.errstate(all="ignore"):
        out = np.sqrt(xs.shape[-1]) * (np.sqrt(v1 / v2) - 1.0)
    out[(v1 <= 0.0) | (v2 <= 0.0)] = np.nan
    return out


def fixture_sha256(name: str) -> str:
    """Digest of the canonical two-decimal rendering of the raw values."""
    text = "\n".join(f"{v:.2f}" for v in fixture_raw(name))
    return hashlib.sha256(text.encode()).hexdigest()


_PAIR_BUDGET = 2**15
_EXP_TAU_77 = np.exp(np.arange(-60, 17) / 4.0)
_EXP_W_77 = 0.25 * _EXP_TAU_77 ** 2.5 / math.gamma(2.5)


def shift_pairs_in_blocks(q: np.ndarray) -> np.ndarray:
    """sum_ij (q_i + q_j)^-2.5 per row, by cyclic shifts d0 <= d < d0 + h in
    blocks of at most 2**15 elements, summed into a zeroed vector."""
    b, n = q.shape
    half = n // 2
    wrapped = np.concatenate([q, q[:, :half]], axis=1)
    shifted = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)
    height = max(1, min(half, _PAIR_BUDGET // (16 * n)))
    group = max(1, _PAIR_BUDGET // (height * n))
    buf = np.empty((2, min(group, b) * height * n))
    pairs = np.zeros(b)
    for r0 in range(0, b, group):
        g = min(group, b - r0)
        for d0 in range(1, half + 1, height):
            h = min(height, half + 1 - d0)
            t, w = buf[:, :g * h * n].reshape(2, g, h, n)
            np.add(q[r0:r0 + g, None, :], shifted[r0:r0 + g, d0:d0 + h], out=t)
            np.sqrt(t, out=w)
            w *= t
            w *= t
            np.divide(1.0, w, out=t)
            if d0 + h > half and 2 * half == n:
                t[:, -1] *= 0.5
            pairs[r0:r0 + g] += t.reshape(g, h * n).sum(axis=1)
    return ((2.0 * q) ** -2.5).sum(axis=1) + 2.0 * pairs


def exp_pairs_77(q: np.ndarray) -> np.ndarray:
    """sum_ij (q_i + q_j)^-2.5 per row, as v^-2.5 sum_k w_k (sum_i exp(-tau_k
    q_i / v))^2 with v = 2 min q, on 77 trapezoid nodes with an exp each."""
    b, n = q.shape
    v = 2.0 * q.min(axis=1)
    p = q / -v[:, None]
    nodes = max(1, min(_EXP_TAU_77.size, 2 * _PAIR_BUDGET // n))
    group = max(1, 2 * _PAIR_BUDGET // (nodes * n))
    buf = np.empty(min(group, b) * nodes * n)
    sums = np.empty((b, _EXP_TAU_77.size))
    for r0 in range(0, b, group):
        g = min(group, b - r0)
        for k0 in range(0, _EXP_TAU_77.size, nodes):
            k = min(nodes, _EXP_TAU_77.size - k0)
            t = buf[:g * k * n].reshape(g, k, n)
            np.multiply(p[r0:r0 + g, None, :], _EXP_TAU_77[k0:k0 + k, None], out=t)
            np.maximum(t, -700.0, out=t)
            np.exp(t, out=t)
            t.sum(axis=2, out=sums[r0:r0 + g, k0:k0 + k])
    sums *= sums
    sums *= _EXP_W_77
    return v ** -2.5 * sums.sum(axis=1)
