"""Metamorphic relations: relabelling or rescaling the input moves the outputs predictably.

Each relation runs on a wide panel (T <= N/2, thin-SVD path) and on a
tall one (eigh path). Tolerances are fixed here.
"""

import numpy as np
import pytest

import covreg as cr

from conftest import spectral_route

PERM_REL = 1e-12  # a permutation only reorders the sums
SCALE_REL = 1e-12  # s^2 C differs from C(s r) by rounding only
MODEL_REL = 1e-10  # nu and weights pass through a decomposition and a solve

SHAPES = {"wide": (60, 20), "tall": (20, 60)}


def one_factor_panel(n, t, seed=7):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.5, 1.5, n)
    scale = np.exp(rng.uniform(-1.0, 1.0, n))[:, None]
    returns = scale * (beta[:, None] * rng.standard_normal(t) + rng.standard_normal((n, t)))
    return cr.ReturnsPanel(returns=returns, asset_ids=tuple(f"A{i}" for i in range(n)))


def fit(panel, target_kind):
    """(C, nu of the one-PC truncated model, min-variance weights of shrink q=0.5)."""
    scm = cr.sample_covariance(panel)
    spectral = cr.spectral_decompose(scm)
    target = cr.build_target(scm, target_kind)
    _, nu = cr.truncated_pc_model(scm, spectral, cr.diagonal_target(scm), 1)
    model = cr.shrink_as_factor_model(spectral, target, 0.5)
    return scm, nu, cr.min_variance_weights(model)


def close(got, want, rel):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("target_kind", ["diagonal", "constant_correlation"])
def test_permuting_assets_permutes_outputs(monkeypatch, shape, target_kind):
    panel = one_factor_panel(*shape)
    perm = np.random.default_rng(1).permutation(panel.n_assets)
    shuffled = cr.ReturnsPanel(returns=panel.returns[perm],
                               asset_ids=tuple(panel.asset_ids[i] for i in perm))
    scm, nu, w = fit(panel, target_kind)
    scm_p, nu_p, w_p = fit(shuffled, target_kind)
    route = "eigh" if shape == SHAPES["tall"] else "svd"
    assert spectral_route(monkeypatch, scm) == spectral_route(monkeypatch, scm_p) == route
    close(scm_p.c, scm.c[np.ix_(perm, perm)], PERM_REL)
    close(nu_p, nu[perm], MODEL_REL)
    close(w_p, w[perm], MODEL_REL)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("s", [1e-3, 7.5, 1e4])
def test_scaling_returns_scales_c_only(shape, s):
    panel = one_factor_panel(*shape)
    scaled = cr.ReturnsPanel(returns=s * panel.returns, asset_ids=panel.asset_ids)
    scm, nu, w = fit(panel, "diagonal")
    scm_s, nu_s, w_s = fit(scaled, "diagonal")
    close(scm_s.c, s**2 * scm.c, SCALE_REL)
    close(nu_s, nu, MODEL_REL)
    close(w_s, w, MODEL_REL)


@pytest.mark.parametrize("k", [332, -300])
def test_weights_exact_under_power_of_two_scaling(k):
    # the Woodbury solve and its conditioning check see D^-1/2 B, which a
    # power of 2 leaves unchanged; the parent rejected both as ill conditioned
    panel = one_factor_panel(40, 12)
    scaled = cr.ReturnsPanel(returns=np.ldexp(panel.returns, k), asset_ids=panel.asset_ids)
    fits = []
    for p in (panel, scaled):
        scm = cr.sample_covariance(p)
        target = cr.build_target(scm, "constant_correlation")
        assert target.loadings.any()
        fits.append(cr.min_variance_weights(
            cr.shrink_as_factor_model(cr.spectral_decompose(scm), target, 0.5)))
    np.testing.assert_array_equal(fits[1], fits[0])


@pytest.mark.parametrize("k", [332, -300])
def test_records_exact_under_power_of_two_scaling(k):
    # returns times 2^k and truth times 2^2k: every error and realized
    # variance times 2^2k, same overlap
    panel = one_factor_panel(40, 12)
    scaled = cr.ReturnsPanel(returns=np.ldexp(panel.returns, k), asset_ids=panel.asset_ids)
    truth = np.cov(panel.returns) + np.eye(panel.n_assets)
    methods = [cr.MethodConfig("shrink", q=0.5, target_kind="constant_correlation"),
               cr.MethodConfig("truncated_pc", f_hat=1), cr.MethodConfig("scm_ridge")]
    base = cr.stability_experiment(panel, 0.5, methods, truth=truth).records
    got = cr.stability_experiment(scaled, 0.5, methods, truth=np.ldexp(truth, 2 * k)).records
    for a, b in zip(base, got):
        assert b.invertible
        for field in ("in_sample_error", "out_of_sample_error", "realized_variance",
                      "truth_error"):
            assert getattr(b, field) == np.ldexp(getattr(a, field), 2 * k), field
        assert b.leading_pc_overlap == a.leading_pc_overlap


@pytest.mark.parametrize("k", [332, -300])
@pytest.mark.parametrize("target_kind", ["diagonal", "constant_correlation"])
def test_grid_q_unchanged_under_power_of_two_scaling(k, target_kind):
    panel = one_factor_panel(40, 12)
    scaled = cr.ReturnsPanel(returns=np.ldexp(panel.returns, k), asset_ids=panel.asset_ids)
    grid = [i / 20 for i in range(21)]
    q = cr.grid_search_q(panel, target_kind, grid, 0.5)
    assert cr.grid_search_q(scaled, target_kind, grid, 0.5) == q
