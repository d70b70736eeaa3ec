import numpy as np
import pytest

import covreg as cr
from covreg.covariance import SampleCovariance
from covreg.errors import (
    DiagonalMismatch,
    FhatOutOfRange,
    RhoOutOfRange,
    ValidationError,
)
from covreg.factors import FactorModel

from conftest import random_matched_target, random_scm


def scm_2x2():
    return SampleCovariance.from_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


class TestTargets:
    def test_diagonal_target_reads_diagonal(self):
        target = cr.diagonal_target(scm_2x2())
        assert target.n_factors == 0
        np.testing.assert_allclose(target.specific_risk, [1.0, 1.0])

    def test_diagonal_target_square_roots(self):
        scm = SampleCovariance.from_matrix(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(
            cr.diagonal_target(scm).specific_risk, [2.0, 3.0]
        )

    def test_diagonal_target_offdiag_zero(self, rng):
        scm = random_scm(rng, 5, 30)
        d = cr.dense(cr.diagonal_target(scm))
        np.testing.assert_array_equal(d - np.diag(np.diag(d)), np.zeros((5, 5)))

    def test_constant_correlation_dense(self):
        scm = SampleCovariance.from_matrix(np.diag([1.0, 4.0]))
        target = cr.constant_correlation_target(scm, 0.5)
        np.testing.assert_allclose(cr.dense(target), [[1, 1], [1, 4]], atol=1e-12)

    def test_rho_zero_is_diagonal(self, rng):
        scm = random_scm(rng, 4, 20)
        d = cr.dense(cr.constant_correlation_target(scm, 0.0))
        np.testing.assert_allclose(
            d, cr.dense(cr.diagonal_target(scm)), atol=1e-12
        )

    def test_uniform_correlation_pd(self):
        scm = SampleCovariance.from_matrix(np.eye(3))
        target = cr.constant_correlation_target(scm, 0.3)
        d = cr.dense(target)
        np.testing.assert_allclose(d, 0.3 + 0.7 * np.eye(3), atol=1e-12)
        assert np.linalg.eigvalsh(d).min() > 0

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_estimate_rho_is_mean_pairwise_correlation(self, rng, n):
        # one common factor keeps the mean inside the (0, 0.999) clamp
        x = rng.standard_normal((n, 60)) + rng.standard_normal(60)
        panel = cr.ReturnsPanel(x, tuple(f"A{i}" for i in range(n)))
        scm = cr.sample_covariance(cr.demean(panel))
        sigma = np.sqrt(np.diag(scm.c))
        pairs = [scm.c[i, j] / (sigma[i] * sigma[j])
                 for i in range(n) for j in range(i + 1, n)]
        assert cr.estimate_rho(scm) == pytest.approx(np.mean(pairs), rel=0, abs=1e-14)

    def test_build_target_dispatch(self, rng):
        scm = random_scm(rng, 5, 30)
        np.testing.assert_array_equal(
            cr.dense(cr.build_target(scm, "diagonal")),
            cr.dense(cr.diagonal_target(scm)),
        )
        for rho, expected in ((None, cr.estimate_rho(scm)), (0.2, 0.2)):
            np.testing.assert_array_equal(
                cr.dense(cr.build_target(scm, "constant_correlation", rho)),
                cr.dense(cr.constant_correlation_target(scm, expected)),
            )
        with pytest.raises(ValidationError):
            cr.build_target(scm, "bogus")

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            cr.constant_correlation_target(scm_2x2(), -0.1)
        with pytest.raises(RhoOutOfRange):
            cr.constant_correlation_target(scm_2x2(), 1.0)


class TestEstimateRho:
    def test_identity_gives_zero(self):
        assert cr.estimate_rho(SampleCovariance.from_matrix(np.eye(4))) == 0.0

    def test_single_pair(self):
        scm = SampleCovariance.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert cr.estimate_rho(scm) == pytest.approx(0.5)

    def test_uniform_correlation_recovered(self):
        n = 6
        c = 0.3 * np.ones((n, n)) + 0.7 * np.eye(n)
        scm = SampleCovariance.from_matrix(c)
        assert cr.estimate_rho(scm) == pytest.approx(0.3, abs=1e-12)

    def test_clamped_to_non_negative(self):
        assert cr.estimate_rho(scm_2x2()) == 0.0


class TestShrinkDense:
    def test_q_zero_returns_scm(self, rng):
        scm = random_scm(rng, 5, 30)
        np.testing.assert_array_equal(
            cr.shrink_dense(scm, cr.diagonal_target(scm), 0.0), scm.c)

    def test_q_one_returns_target(self, rng):
        scm = random_scm(rng, 5, 30)
        target = cr.diagonal_target(scm)
        np.testing.assert_allclose(
            cr.shrink_dense(scm, target, 1.0), cr.dense(target), atol=1e-15
        )

    def test_halfway_average(self):
        scm = scm_2x2()
        np.testing.assert_allclose(
            cr.shrink_dense(scm, cr.diagonal_target(scm), 0.5), [[1, -0.5], [-0.5, 1]],
            atol=1e-12
        )

    def test_diagonal_preserved(self, rng):
        scm = random_scm(rng, 6, 40)
        shrunk = cr.shrink_dense(scm, cr.constant_correlation_target(scm, 0.2), 0.37)
        np.testing.assert_allclose(
            np.diag(shrunk), scm.variances, rtol=1e-10
        )

    def test_mismatched_target_rejected(self, rng):
        scm = random_scm(rng, 4, 20)
        bad = FactorModel.diagonal(np.sqrt(scm.variances) * 1.5)
        with pytest.raises(DiagonalMismatch):
            cr.shrink_dense(scm, bad, 0.5)

    def test_factor_target_diagonal_includes_loadings(self, rng):
        # the check reads the diagonal from the factor form, loadings included
        scm = random_scm(rng, 4, 20)
        good = random_matched_target(rng, scm, 2)
        cr.shrink_dense(scm, good, 0.5)
        bad = FactorModel(specific_risk=good.specific_risk,
                          loadings=good.loadings * 1.5, fcm=good.fcm)
        with pytest.raises(DiagonalMismatch):
            cr.shrink_dense(scm, bad, 0.5)

    def test_q_out_of_range(self, rng):
        scm = random_scm(rng, 4, 20)
        target = cr.diagonal_target(scm)
        spectral = cr.spectral_decompose(scm)
        for q in (1.5, -0.1, np.nan):
            with pytest.raises(ValidationError, match=r"q must be in \[0, 1\]"):
                cr.shrink_dense(scm, target, q)
            with pytest.raises(ValidationError, match=r"q must be in \[0, 1\]"):
                cr.shrink_as_factor_model(spectral, target, q)


class TestShrinkAsFactorModel:
    @pytest.mark.parametrize("q, n, t", [
        *(pytest.param(q, 8, 5, id=str(q)) for q in (0.0, 0.25, 0.5, 0.75, 1.0)),
        pytest.param(0.5, 40, 12, id="wide-0.5"),  # T <= N/2: thin-SVD path
    ])
    def test_central_identity_diagonal_target(self, rng, q, n, t):
        scm = random_scm(rng, n, t)  # singular SCM, the interesting case
        spectral = cr.spectral_decompose(scm)
        target = cr.diagonal_target(scm)
        direct = cr.shrink_dense(scm, target, q)
        via_model = cr.dense(cr.shrink_as_factor_model(spectral, target, q))
        err = np.linalg.norm(via_model - direct)
        assert err <= 1e-8 * np.linalg.norm(scm.c)

    def test_q_one_reduces_to_target(self, rng):
        scm = random_scm(rng, 5, 30)
        target = cr.constant_correlation_target(scm, 0.4)
        model = cr.shrink_as_factor_model(cr.spectral_decompose(scm), target, 1.0)
        np.testing.assert_allclose(
            cr.dense(model), cr.dense(target), atol=1e-10
        )
        # PC block of the FCM is identically zero at q = 1
        pc_block = model.fcm[target.n_factors:, target.n_factors:]
        np.testing.assert_array_equal(pc_block, np.zeros_like(pc_block))

    def test_q_zero_reduces_to_scm(self, rng):
        scm = random_scm(rng, 5, 30)
        model = cr.shrink_as_factor_model(
            cr.spectral_decompose(scm), cr.diagonal_target(scm), 0.0)
        assert np.all(model.specific_risk == 0)
        np.testing.assert_allclose(cr.dense(model), scm.c, atol=1e-12)

    def test_2x2_worked_example(self):
        scm = scm_2x2()
        spectral = cr.spectral_decompose(scm)
        model = cr.shrink_as_factor_model(spectral, cr.diagonal_target(scm), 0.5)
        np.testing.assert_allclose(model.specific_risk**2, [0.5, 0.5])
        # lone PC block entry (K = 0, so it is the whole FCM): (1 - q) * lambda = 0.5 * 2
        assert model.fcm.shape == (1, 1)
        assert model.fcm[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(
            cr.dense(model), [[1, -0.5], [-0.5, 1]], atol=1e-12
        )

    def test_block_structure_matches_fcm(self, rng):
        # the paper's claim: FCM = blockdiag(q Phi, (1 - q) diag(lambda))
        scm = random_scm(rng, 6, 4)
        target = random_matched_target(rng, scm, 2)
        q = 0.3
        spectral = cr.spectral_decompose(scm)
        fcm = cr.shrink_as_factor_model(spectral, target, q).fcm
        k, f = target.n_factors, spectral.n_positive
        assert fcm.shape == (k + f, k + f)
        np.testing.assert_array_equal(fcm[:k, :k], q * target.fcm)
        np.testing.assert_array_equal(
            fcm[k:, k:], np.diag((1 - q) * spectral.eigenvalues)
        )
        assert np.all(fcm[:k, k:] == 0.0) and np.all(fcm[k:, :k] == 0.0)

    def test_shrunk_pd_for_positive_q(self, rng):
        # singular SCM, PD target: shrunk matrix bounded below by q * target
        scm = random_scm(rng, 10, 4)
        target = cr.diagonal_target(scm)
        for q in (0.1, 0.5, 1.0):
            shrunk = cr.shrink_dense(scm, target, q)
            min_ev = np.linalg.eigvalsh(shrunk).min()
            target_min = np.linalg.eigvalsh(cr.dense(target)).min()
            assert min_ev >= q * target_min - 1e-9


class TestTruncatedPC:
    def test_f_hat_full_reproduces_scm(self, rng):
        scm = random_scm(rng, 6, 4)  # singular: quasi-nulls must not matter
        spectral = cr.spectral_decompose(scm)
        model = cr.truncated_pc_model(
            scm, spectral, cr.diagonal_target(scm), spectral.n_positive
        )
        np.testing.assert_array_equal(model.nu, np.zeros(6))
        np.testing.assert_allclose(cr.dense(model.base), scm.c, atol=1e-10)

    def test_f_hat_zero_reproduces_target(self, rng):
        scm = random_scm(rng, 6, 30)
        spectral = cr.spectral_decompose(scm)
        target = cr.constant_correlation_target(scm, 0.25)
        model = cr.truncated_pc_model(scm, spectral, target, 0)
        np.testing.assert_allclose(model.nu, np.ones(6), rtol=1e-7)
        np.testing.assert_allclose(
            cr.dense(model.base), cr.dense(target), atol=1e-8
        )

    @pytest.mark.parametrize("shape", [(5, 40), (40, 12)], ids=["tall", "wide"])
    def test_diagonal_preserved_midway(self, rng, shape):
        x = rng.standard_normal(shape)
        scm = cr.sample_covariance(
            cr.DemeanedPanel(x - x.mean(axis=1, keepdims=True))
        )
        spectral = cr.spectral_decompose(scm)
        model = cr.truncated_pc_model(scm, spectral, cr.diagonal_target(scm), 1)
        d = cr.dense(model.base)
        np.testing.assert_allclose(np.diag(d), scm.variances, rtol=1e-12)
        # off-diagonals are a genuine blend: differ from both endpoints
        assert not np.allclose(d, scm.c)
        assert not np.allclose(d, cr.dense(cr.diagonal_target(scm)))

    def test_nu_non_negative(self, rng):
        scm = random_scm(rng, 7, 5)
        spectral = cr.spectral_decompose(scm)
        for f_hat in range(spectral.n_positive + 1):
            model = cr.truncated_pc_model(
                scm, spectral, cr.diagonal_target(scm), f_hat
            )
            assert np.all(model.nu >= 0)

    def test_dense_psd_for_psd_target(self, rng):
        scm = random_scm(rng, 6, 4)
        spectral = cr.spectral_decompose(scm)
        target = random_matched_target(rng, scm, 2)
        for f_hat in (0, 1, spectral.n_positive):
            d = cr.dense(cr.truncated_pc_model(scm, spectral, target, f_hat).base)
            assert np.linalg.eigvalsh(d).min() >= -1e-9 * np.abs(d).max()

    def test_f_hat_out_of_range(self, rng):
        scm = random_scm(rng, 5, 20)
        spectral = cr.spectral_decompose(scm)
        with pytest.raises(FhatOutOfRange):
            cr.truncated_pc_model(
                scm, spectral, cr.diagonal_target(scm), spectral.n_positive + 1
            )
        with pytest.raises(FhatOutOfRange):
            cr.truncated_pc_model(scm, spectral, cr.diagonal_target(scm), -1)
