"""Shared fixtures and independent oracles.

The oracles here are deliberately dumb (explicit Python loops, dense
general-purpose solves) so they stay independent of the vectorized
library paths they check.
"""

import numpy as np
import pytest

import covreg as cr
from covreg.factors import FactorModel


def brute_force_covariance(x: np.ndarray) -> np.ndarray:
    """Elementwise-loop SCM with denominator M = T - 1."""
    n, t = x.shape
    m = t - 1
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for s in range(t):
                acc += x[i, s] * x[j, s]
            c[i, j] = acc / m
    return c


def brute_force_dense(model: FactorModel) -> np.ndarray:
    """Triple-loop assembly of diag(xi^2) + Omega Phi Omega^T."""
    n, k = model.n_assets, model.n_factors
    xi, omega, phi = model.specific_risk, model.loadings, model.fcm
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = xi[i] ** 2 if i == j else 0.0
            for a in range(k):
                for b in range(k):
                    acc += omega[i, a] * phi[a, b] * omega[j, b]
            d[i, j] = acc
    return d


def brute_force_low_rank(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Triple-loop assembly of W diag(s) W^T."""
    n, r = w.shape
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for a in range(r):
                b[i, j] += w[i, a] * s[a] * w[j, a]
    return b


def dense_solve_inverse(model: FactorModel) -> np.ndarray:
    """General-purpose dense inverse of the assembled matrix."""
    return np.linalg.inv(brute_force_dense(model))


def random_panel(rng, n, t) -> cr.ReturnsPanel:
    return cr.ReturnsPanel(rng.standard_normal((n, t)), tuple(f"A{i}" for i in range(n)))


def random_scm(rng, n, t) -> cr.SampleCovariance:
    return cr.sample_covariance(random_panel(rng, n, t))


def random_pd_model(rng, n, k) -> FactorModel:
    """Random PD factor model: positive specific risk, PSD fcm."""
    xi = rng.uniform(0.5, 2.0, n)
    omega = rng.standard_normal((n, k))
    root = rng.standard_normal((k, k))
    phi = root @ root.T + 0.1 * np.eye(k)
    return FactorModel(specific_risk=xi, loadings=omega, fcm=0.5 * (phi + phi.T))


def random_matched_target(rng, scm: cr.SampleCovariance, k: int) -> FactorModel:
    """Random K-factor model rescaled so its diagonal equals the SCM's."""
    raw = random_pd_model(rng, scm.n_assets, k)
    raw_diag = np.diag(cr.dense(raw))
    scale = np.sqrt(scm.variances / raw_diag)
    return FactorModel(
        specific_risk=scale * raw.specific_risk,
        loadings=scale[:, None] * raw.loadings,
        fcm=raw.fcm,
    )


def one_factor_rows(rng, n, t):
    beta = rng.uniform(0.5, 1.5, n)
    return beta[:, None] * rng.standard_normal(t) + rng.standard_normal((n, t))


def near_duplicate_rows(rng, pairs, t):
    base = np.repeat(rng.standard_normal((pairs, t)), 2, axis=0)
    return base + 1e-6 * rng.standard_normal((2 * pairs, t))


def spread_variance_rows(rng, n, t):
    """Variances log-spaced from 1e-8 to 1e4."""
    return rng.standard_normal((n, t)) * np.sqrt(np.logspace(-8, 4, n))[:, None]


def collinear_rows(rng, n, t):
    """n rows of one unit-variance series plus 1e-3 noise: variances near 1, lambda_max near n."""
    base = rng.standard_normal(t)
    base = (base - base.mean()) / base.std()
    return base + 1e-3 * rng.standard_normal((n, t))


def counting_linalg(monkeypatch, *names) -> list:
    """Patch the named np.linalg functions to append their name to the returned list."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def spectral_route(monkeypatch, scm: cr.SampleCovariance) -> str:
    """"svd" or "eigh": the one decomposition spectral_decompose runs on scm."""
    with monkeypatch.context() as mp:
        calls = counting_linalg(mp, "svd", "eigh")
        cr.spectral_decompose(scm)
    assert len(calls) == 1, calls
    return calls[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
