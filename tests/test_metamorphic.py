"""Metamorphic relations: relabelling or rescaling the input moves the outputs predictably.

Each relation runs on a wide panel (T <= N/2, thin-SVD path) and on a
tall one (eigh path). Tolerances are fixed here.
"""

import numpy as np
import pytest

import covreg as cr

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
    scm = cr.sample_covariance(cr.demean(panel))
    spectral = cr.spectral_decompose(scm)
    target = cr.build_target(scm, target_kind)
    nu = cr.truncated_pc_model(scm, spectral, cr.diagonal_target(scm), 1).nu
    model = cr.shrink_as_factor_model(spectral, cr.ShrinkageSpec(q=0.5, target=target))
    return scm, nu, cr.min_variance_weights(model.base)


def close(got, want, rel):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("target_kind", ["diagonal", "constant_correlation"])
def test_permuting_assets_permutes_outputs(shape, target_kind):
    panel = one_factor_panel(*shape)
    perm = np.random.default_rng(1).permutation(panel.n_assets)
    shuffled = cr.ReturnsPanel(returns=panel.returns[perm],
                               asset_ids=tuple(panel.asset_ids[i] for i in perm))
    scm, nu, w = fit(panel, target_kind)
    scm_p, nu_p, w_p = fit(shuffled, target_kind)
    assert (scm.root is None) == (scm_p.root is None) == (shape == SHAPES["tall"])
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
