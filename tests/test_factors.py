import json

import numpy as np
import pytest

import covreg as cr
from covreg.errors import IllConditioned, SingularSpecificRisk, ValidationError
from covreg.factors import FactorModel
from covreg.serialize import (
    dumps,
    factor_model_from_json_dict,
    factor_model_to_json_dict,
)

from conftest import brute_force_dense, dense_solve_inverse, random_pd_model


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FactorModel(
                specific_risk=[1.0, 1.0, 1.0],
                loadings=[[1.0], [1.0]],
                fcm=[[1.0]],
            )


def test_json_round_trip(rng):
    model = random_pd_model(rng, 4, 2)
    back = factor_model_from_json_dict(json.loads(dumps(factor_model_to_json_dict(model))))
    np.testing.assert_array_equal(back.specific_risk, model.specific_risk)
    np.testing.assert_array_equal(back.loadings, model.loadings)
    np.testing.assert_array_equal(back.fcm, model.fcm)


def test_block_diagonal_assembly():
    # the shrinkage and truncated-PC models build their FCM with this helper
    from covreg.regularizers import _block_fcm

    fcm = _block_fcm(np.array([[2.0]]), np.array([3.0, 4.0]))
    assert fcm.shape == (3, 3)
    np.testing.assert_array_equal(fcm, np.diag([2.0, 3.0, 4.0]))
