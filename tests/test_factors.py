import json

import numpy as np
import pytest

import covreg as cr
from covreg import factors
from covreg.errors import IllConditioned, NumericalError, SingularSpecificRisk, ValidationError
from covreg.factors import COND_LIMIT, FactorModel
from covreg.serialize import (
    dumps,
    factor_model_from_json_dict,
    factor_model_to_json_dict,
)

from conftest import (brute_force_dense, brute_force_low_rank, dense_solve_inverse,
                      random_panel, random_pd_model)


class TestDense:
    def test_diagonal_model_identity(self):
        model = FactorModel.diagonal([1.0, 1.0])
        np.testing.assert_array_equal(cr.dense(model), np.eye(2))

    def test_rank_one(self):
        model = FactorModel(
            specific_risk=[0.0, 0.0],
            loadings=[[1.0], [1.0]],
            fcm=[[2.0]],
        )
        np.testing.assert_allclose(cr.dense(model), [[2, 2], [2, 2]])

    def test_matches_triple_loop_oracle(self, rng):
        model = random_pd_model(rng, 6, 2)
        np.testing.assert_allclose(
            cr.dense(model), brute_force_dense(model), rtol=0, atol=1e-12
        )

    def test_diagonal_entries(self, rng):
        model = random_pd_model(rng, 5, 3)
        oracle = brute_force_dense(model)
        np.testing.assert_allclose(
            np.diag(cr.dense(model)), np.diag(oracle), rtol=0, atol=1e-12
        )

    def test_k0_round_trip(self):
        xi = np.array([0.5, 1.5, 2.5])
        model = FactorModel.diagonal(xi)
        np.testing.assert_array_equal(np.diag(cr.dense(model)), xi**2)


class TestFactorPart:
    @pytest.mark.parametrize("diagonal_phi", [True, False], ids=["diagonal", "psd"])
    def test_factor_densifies_to_omega_phi_omega_t(self, rng, diagonal_phi):
        model = random_pd_model(rng, 8, 3)
        phi = np.diag(np.diag(model.fcm)) if diagonal_phi else model.fcm
        model = FactorModel(specific_risk=model.specific_risk, loadings=model.loadings, fcm=phi)
        oracle = brute_force_dense(FactorModel(np.zeros(8), model.loadings, phi))
        if diagonal_phi:
            assert model.factor.w is model.loadings
        np.testing.assert_allclose(brute_force_low_rank(model.factor.w, model.factor.s),
                                   oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())
        np.testing.assert_allclose(model.factor.h, np.diag(oracle), rtol=1e-12, atol=0)


class TestInvert:
    def test_identity_model(self):
        model = FactorModel.diagonal([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(cr.invert(model), np.eye(3))

    def test_2x2_analytic(self):
        model = FactorModel(
            specific_risk=[1.0, 1.0], loadings=[[1.0], [1.0]], fcm=[[1.0]]
        )
        # dense = [[2,1],[1,2]], inverse = (1/3)[[2,-1],[-1,2]]
        np.testing.assert_allclose(
            cr.invert(model), np.array([[2, -1], [-1, 2]]) / 3, atol=1e-14
        )

    def test_matches_dense_solve_oracle(self, rng):
        model = random_pd_model(rng, 8, 3)
        np.testing.assert_allclose(
            cr.invert(model), dense_solve_inverse(model), rtol=0, atol=1e-8
        )

    def test_product_is_identity(self, rng):
        model = random_pd_model(rng, 8, 3)
        prod = cr.dense(model) @ cr.invert(model)
        assert np.abs(prod - np.eye(8)).max() <= 1e-8

    def test_singular_phi_still_works(self, rng):
        # PSD but singular fcm: Woodbury variant must not need phi^-1
        omega = rng.standard_normal((5, 2))
        phi = np.array([[1.0, 1.0], [1.0, 1.0]])
        model = FactorModel(specific_risk=np.ones(5), loadings=omega, fcm=phi)
        prod = cr.dense(model) @ cr.invert(model)
        assert np.abs(prod - np.eye(5)).max() <= 1e-8

    def test_zero_specific_risk_rejected(self):
        model = FactorModel(
            specific_risk=[0.0, 1.0], loadings=[[1.0], [1.0]], fcm=[[1.0]]
        )
        with pytest.raises(SingularSpecificRisk):
            cr.invert(model)

    @pytest.mark.parametrize("solve", [cr.invert, cr.min_variance_weights])
    def test_ill_conditioned_core_rejected(self, solve):
        # core = I + Phi Omega^T D^-1 Omega = [[1e9+1, 1e9], [1e9, 1e9+1]]
        model = FactorModel(
            specific_risk=[1e-9, 1e-9, 1.0],
            loadings=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            fcm=[[1.0, 1.0], [1.0, 1.0]],
        )
        with pytest.raises(IllConditioned):
            solve(model)


class TestMinVarianceWeights:
    def test_identity_equal_weights(self):
        model = FactorModel.diagonal([1.0] * 4)
        np.testing.assert_allclose(cr.min_variance_weights(model), [0.25] * 4)

    def test_inverse_variance_weighting(self):
        model = FactorModel.diagonal([1.0, 2.0])  # variances 1 and 4
        np.testing.assert_allclose(cr.min_variance_weights(model), [0.8, 0.2])

    def test_matches_dense_solve(self, rng):
        model = random_pd_model(rng, 7, 2)
        raw = np.linalg.solve(brute_force_dense(model), np.ones(7))
        np.testing.assert_allclose(
            cr.min_variance_weights(model), raw / raw.sum(), rtol=0, atol=1e-8
        )

    def test_weights_sum_to_one(self, rng):
        model = random_pd_model(rng, 9, 3)
        assert cr.min_variance_weights(model).sum() == pytest.approx(1.0)


def _with_fcm(rng, n, phi):
    return FactorModel(specific_risk=rng.uniform(0.5, 2.0, n),
                       loadings=rng.standard_normal((n, phi.shape[0])), fcm=phi)


def _rotated(rng, evals):
    q = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))[0]
    phi = (q * evals) @ q.T
    return 0.5 * (phi + phi.T)


# seeded models for the Woodbury solve: FCMs diagonal, dense, rank-deficient, spread over 1e10
SOLVE_MODELS = {
    "diagonal": lambda rng: _with_fcm(rng, 9, np.diag(rng.uniform(0.1, 3.0, 4))),
    "dense": lambda rng: random_pd_model(rng, 9, 4),
    "rank_deficient": lambda rng: _with_fcm(rng, 9, _rotated(rng, [2.0, 1.0, 0.0, 0.0])),
    "spread_1e10": lambda rng: _with_fcm(rng, 9, _rotated(rng, np.logspace(-5, 5, 4))),
}


def cond_bound_oracle(model: FactorModel) -> float:
    """1 + sum_i (Omega Phi Omega^T)_ii / xi_i^2, off the triple-loop dense form."""
    xi2 = model.specific_risk ** 2
    return 1.0 + float(np.sum((np.diag(brute_force_dense(model)) - xi2) / xi2))


@pytest.mark.parametrize("make", SOLVE_MODELS.values(), ids=SOLVE_MODELS.keys())
class TestWoodburyOracles:
    def test_bound_covers_core_condition(self, rng, make):
        model = make(rng)
        _, _, core = factors._woodbury_terms(model)
        np.testing.assert_array_equal(core, core.T)
        assert np.linalg.eigvalsh(core).min() >= 1.0 - 1e-12
        assert cond_bound_oracle(model) >= np.linalg.cond(core)

    def test_invert_matches_dense_solve(self, rng, make):
        model = make(rng)
        np.testing.assert_allclose(
            cr.invert(model), dense_solve_inverse(model), rtol=0, atol=1e-8
        )

    def test_weights_match_dense_solve(self, rng, make):
        model = make(rng)
        raw = np.linalg.solve(brute_force_dense(model), np.ones(model.n_assets))
        np.testing.assert_allclose(
            cr.min_variance_weights(model), raw / raw.sum(), rtol=0, atol=1e-8
        )


@pytest.mark.parametrize("over", [0.5, 2.0], ids=["below", "above"])
def test_ill_conditioned_iff_bound_exceeds_limit(over):
    # one factor: the bound is 1 + sum_i omega_i^2 phi / xi_i^2 = 1 + 3 phi
    phi = over * (COND_LIMIT - 1.0) / 3.0
    model = FactorModel(specific_risk=np.ones(3), loadings=np.ones((3, 1)), fcm=[[phi]])
    assert cond_bound_oracle(model) == pytest.approx(1.0 + over * (COND_LIMIT - 1.0))
    if over > 1:
        with pytest.raises(IllConditioned):
            cr.min_variance_weights(model)
    else:
        assert cr.min_variance_weights(model) == pytest.approx(np.full(3, 1 / 3))


@pytest.mark.parametrize("target_kind", ["diagonal", "constant_correlation"])
def test_block_diagonal_models_decompose_nothing(rng, monkeypatch, target_kind):
    # both regularizers build a diagonal FCM, whose diagonal is its spectrum
    scm = cr.sample_covariance(random_panel(rng, 30, 12))
    spectral = cr.spectral_decompose(scm)
    target = cr.build_target(scm, target_kind)

    def refuse(*args, **kwargs):
        raise AssertionError("decomposition called")

    for name in ("svd", "cond", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    shrunk = cr.shrink_as_factor_model(spectral, target, 0.5)
    truncated, _ = cr.truncated_pc_model(scm, spectral, target, 2)
    for model in (shrunk, truncated):
        assert np.isfinite(cr.min_variance_weights(model)).all()


def test_dense_fcm_decomposed_once(rng, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    model = random_pd_model(rng, 9, 4)
    cr.min_variance_weights(model)
    cr.invert(model)
    assert calls == [(4, 4)]


class TestValidation:
    def test_negative_specific_risk_rejected(self):
        with pytest.raises(ValidationError):
            FactorModel.diagonal([1.0, -1.0])

    def test_non_psd_fcm_rejected(self):
        with pytest.raises(ValidationError):
            FactorModel(
                specific_risk=[1.0, 1.0],
                loadings=[[1.0, 0.0], [0.0, 1.0]],
                fcm=[[1.0, 0.0], [0.0, -1.0]],
            )

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "dense"])
    def test_psd_threshold_unchanged(self, rng, rotate):
        # rejected below -QUASI_NULL_REL * lambda_max, on either spectrum path
        for smallest, ok in ((-0.5e-10, True), (-2e-10, False)):
            evals = np.array([1.0, 0.5, smallest])
            phi = _rotated(rng, evals) if rotate else np.diag(evals)
            if ok:
                _with_fcm(rng, 4, phi)
            else:
                with pytest.raises(ValidationError):
                    _with_fcm(rng, 4, phi)

    @pytest.mark.parametrize("xi, omega, phi", [
        ([1.0, 1.0], [[1.0], [np.inf]], [[np.nan]]),
        ([1.0, np.inf], [[1.0], [1.0]], [[1.0]]),
        ([1.0, 1.0], [[1.0], [-np.inf]], [[1.0]]),
        ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]),
    ], ids=["loading_and_fcm", "specific_risk", "loading", "fcm"])
    def test_non_finite_entry_rejected(self, xi, omega, phi):
        with pytest.raises(ValidationError, match="non-finite"):
            FactorModel(specific_risk=xi, loadings=omega, fcm=phi)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FactorModel(
                specific_risk=[1.0, 1.0, 1.0],
                loadings=[[1.0], [1.0]],
                fcm=[[1.0]],
            )
        # a flat array is not reshaped: loadings and fcm must be 2-D
        with pytest.raises(ValidationError, match="2-D"):
            FactorModel(specific_risk=[1.0, 1.0], loadings=[1.0, 2.0, 3.0, 4.0], fcm=np.eye(2))
        with pytest.raises(ValidationError, match="2-D"):
            FactorModel(specific_risk=[1.0, 1.0, 1.0], loadings=np.eye(3), fcm=np.ones(9))

    @pytest.mark.parametrize("k", [-80, 0, 80])
    def test_symmetry_check_is_scale_free(self, k):
        # the tolerance is relative to max |Phi|, so a power of 2 changes no verdict
        asym = np.ldexp([[1.0, 0.5], [0.0, 1.0]], k)
        with pytest.raises(ValidationError, match="symmetric"):
            FactorModel(specific_risk=[1.0, 1.0], loadings=np.eye(2), fcm=asym)
        near = np.ldexp([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]], k)
        FactorModel(specific_risk=[1.0, 1.0], loadings=np.eye(2), fcm=near)

    def test_callers_arrays_stay_writeable(self, rng):
        xi, omega, phi = rng.uniform(0.5, 1.0, 4), rng.standard_normal((4, 2)), np.eye(2)
        model = FactorModel(specific_risk=xi, loadings=omega, fcm=phi)
        before = cr.dense(model)
        for a in (xi, omega, phi):
            assert a.flags.writeable
            a[...] = 7.0
        np.testing.assert_array_equal(cr.dense(model), before)
        assert not model.loadings.flags.writeable


def test_json_round_trip(rng):
    model = random_pd_model(rng, 4, 2)
    back = factor_model_from_json_dict(json.loads(dumps(factor_model_to_json_dict(model))))
    np.testing.assert_array_equal(back.specific_risk, model.specific_risk)
    np.testing.assert_array_equal(back.loadings, model.loadings)
    np.testing.assert_array_equal(back.fcm, model.fcm)


def test_json_with_nan_rejected():
    payload = json.loads('{"n": 2, "k": 1, "xi": [1.0, NaN], "omega": [1.0, 0.5], "phi": [1.0]}')
    with pytest.raises(ValidationError, match="non-finite"):
        factor_model_from_json_dict(payload)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dumps_rejects_non_finite(value):
    # JSON has no Infinity or NaN; json.dumps would write them anyway
    with pytest.raises(NumericalError):
        dumps({"x": value})


def test_block_diagonal_assembly():
    # the shrinkage and truncated-PC models build their FCM with this helper
    from covreg.regularizers import _block_fcm

    fcm = _block_fcm(np.array([[2.0]]), np.array([3.0, 4.0]))
    assert fcm.shape == (3, 3)
    np.testing.assert_array_equal(fcm, np.diag([2.0, 3.0, 4.0]))
