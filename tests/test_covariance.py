import numpy as np
import pytest

import covreg as cr
from covreg.covariance import SampleCovariance, spectral_decompose
from covreg.errors import NegativeEigenvalueError, ValidationError, ZeroVarianceAsset

from conftest import (brute_force_covariance, near_duplicate_rows, one_factor_rows,
                      random_demeaned, random_scm, spectral_route, spread_variance_rows)


def panel_from(rows):
    rows = np.asarray(rows, dtype=float)
    ids = tuple(f"A{i}" for i in range(rows.shape[0]))
    return cr.demean(cr.ReturnsPanel(returns=rows, asset_ids=ids))


class TestSampleCovariance:
    def test_two_asset_anticorrelated(self):
        scm = cr.sample_covariance(panel_from([[1, 2, 3], [3, 2, 1]]))
        np.testing.assert_allclose(scm.c, [[1, -1], [-1, 1]], atol=1e-15)
        assert scm.n_obs_minus_one == 2

    def test_variance_formula(self):
        # x = [-1, 0, 1], M = 2: (1/2)(1 + 0 + 1) = 1
        scm = cr.sample_covariance(panel_from([[0, 1, 2], [2, 1, 0]]))
        assert scm.c[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_force_oracle(self, rng):
        x = random_demeaned(rng, 5, 21)
        scm = cr.sample_covariance(x)
        np.testing.assert_allclose(
            scm.c, brute_force_covariance(x.x), rtol=0, atol=1e-12
        )

    def test_exact_symmetry(self, rng):
        scm = random_scm(rng, 12, 7)
        assert np.array_equal(scm.c, scm.c.T)

    def test_zero_variance_asset_rejected(self):
        with pytest.raises(ZeroVarianceAsset):
            cr.sample_covariance(panel_from([[5, 5, 5], [1, 2, 3]]))


class TestSpectralDecompose:
    def test_rank_one_2x2(self):
        scm = SampleCovariance.from_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        sd = spectral_decompose(scm)
        assert sd.n_positive == 1
        np.testing.assert_allclose(sd.eigenvalues, [2.0])
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(sd.components[0], [s, -s], atol=1e-12)

    def test_identity(self):
        sd = spectral_decompose(SampleCovariance.from_matrix(np.eye(3)))
        np.testing.assert_allclose(sd.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(sd.reconstruct(), np.eye(3), atol=1e-12)

    def test_rank_bound_short_panel(self, rng):
        # 10 assets, 6 observations: rank at most M = 5
        sd = spectral_decompose(random_scm(rng, 10, 6))
        assert sd.n_positive <= 5

    def test_reconstruction(self, rng):
        scm = random_scm(rng, 8, 40)
        sd = spectral_decompose(scm)
        err = np.linalg.norm(sd.reconstruct() - scm.c)
        assert err <= 1e-8 * np.linalg.norm(scm.c)

    def test_orthonormal_components(self, rng):
        sd = spectral_decompose(random_scm(rng, 9, 30))
        gram = sd.components @ sd.components.T
        assert np.abs(gram - np.eye(sd.n_positive)).max() <= 1e-9

    def test_trace_preserved(self, rng):
        scm = random_scm(rng, 7, 50)
        sd = spectral_decompose(scm)
        trace = np.trace(scm.c)
        assert abs(sd.eigenvalues.sum() - trace) <= 1e-8 * trace

    def test_sign_convention(self, rng):
        sd = spectral_decompose(random_scm(rng, 6, 20))
        for row in sd.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_deterministic(self, rng):
        scm = random_scm(rng, 6, 20)
        a = spectral_decompose(scm)
        b = spectral_decompose(scm)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.components, b.components)

    def test_non_psd_input_rejected(self):
        bad = SampleCovariance.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NegativeEigenvalueError):
            spectral_decompose(bad)

    def test_quasi_null_scaling_consistent(self, rng):
        # relative threshold: rescaling the panel must not change the rank
        x = random_demeaned(rng, 10, 5)
        a = spectral_decompose(cr.sample_covariance(x))
        scaled = cr.DemeanedPanel(x.x * 1e-6)
        b = spectral_decompose(cr.sample_covariance(scaled))
        assert a.n_positive == b.n_positive


class TestPanelRoot:
    """A panel-built SCM keeps X; c is formed only when read."""

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_c_formed_on_first_read(self, rng, n, t):
        x = random_demeaned(rng, n, t)
        scm = cr.sample_covariance(x)
        assert scm._c is None
        oracle = brute_force_covariance(x.x)
        np.testing.assert_allclose(scm.variances, np.diag(oracle), rtol=1e-14, atol=0)
        s = rng.uniform(0.5, 2.0, n)
        assert scm.quadratic_form(s) == pytest.approx(s @ oracle @ s, rel=1e-12)
        assert scm._c is None
        np.testing.assert_allclose(scm.c, oracle, rtol=0, atol=1e-12)
        assert np.array_equal(np.diag(scm.c), scm.variances)
        assert scm.c is scm.c

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_gram_root(self, rng, n, t):
        x = random_demeaned(rng, n, t)
        scm = cr.sample_covariance(x)
        r = scm.gram_root
        assert r.shape == (n, min(n, t))
        np.testing.assert_allclose(r @ r.T / scm.n_obs_minus_one,
                                   brute_force_covariance(x.x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_zero_variance_asset_rejected_without_c(self, rng, n, t, monkeypatch):
        rows = rng.standard_normal((n, t))
        rows[2] = 3.0
        monkeypatch.setattr(SampleCovariance, "c", property(lambda self: pytest.fail("c read")))
        with pytest.raises(ZeroVarianceAsset):
            cr.sample_covariance(panel_from(rows))

    def test_from_matrix_has_no_panel_root(self):
        with pytest.raises(ValidationError):
            SampleCovariance.from_matrix(np.eye(3)).gram_root


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValidationError):
        SampleCovariance(c=np.array([[1.0, 0.2], [0.1, 1.0]]), n_obs_minus_one=5)


WIDE_PANELS = {
    "small": lambda rng: rng.standard_normal((12, 5)),
    "n_much_larger_than_m": lambda rng: rng.standard_normal((2000, 6)),
    "near_duplicate_pairs": lambda rng: near_duplicate_rows(rng, 150, 60),
    "variance_spread": lambda rng: spread_variance_rows(rng, 400, 100),
    "one_factor": lambda rng: one_factor_rows(rng, 1000, 250),
}


class TestThinSvdPath:
    """A wide panel's thin SVD against eigh of the same C (the oracle)."""

    @pytest.mark.parametrize("n, t, wide", [(10, 5, True), (10, 6, False)])
    def test_svd_only_when_wide(self, rng, monkeypatch, n, t, wide):
        scm = cr.sample_covariance(random_demeaned(rng, n, t))
        assert spectral_route(monkeypatch, scm) == ("svd" if wide else "eigh")

    def test_from_matrix_takes_eigh(self, monkeypatch):
        assert spectral_route(monkeypatch, SampleCovariance.from_matrix(np.eye(3))) == "eigh"

    @pytest.mark.parametrize("make", WIDE_PANELS.values(), ids=WIDE_PANELS.keys())
    def test_agrees_with_eigh(self, rng, monkeypatch, make):
        x = panel_from(make(rng))
        scm = cr.sample_covariance(x)
        assert spectral_route(monkeypatch, scm) == "svd"
        svd = spectral_decompose(scm)
        eigh = spectral_decompose(SampleCovariance(c=scm.c, n_obs_minus_one=scm.n_obs_minus_one))
        lam_max = eigh.eigenvalues[0]
        assert svd.n_positive == eigh.n_positive <= x.n_obs - 1
        assert svd.quasi_null_threshold == pytest.approx(eigh.quasi_null_threshold, rel=1e-12)
        assert np.abs(svd.eigenvalues - eigh.eigenvalues).max() <= 1e-12 * lam_max
        gram = svd.components @ svd.components.T
        assert np.abs(gram - np.eye(svd.n_positive)).max() <= 1e-12
        for row in svd.components:
            assert row[np.argmax(np.abs(row))] > 0
        if x.n_assets <= 20:
            np.testing.assert_allclose(
                svd.reconstruct(), brute_force_covariance(x.x), rtol=0, atol=1e-12
            )
        else:
            err = np.linalg.norm(svd.reconstruct() - scm.c)
            assert err <= 1e-12 * np.linalg.norm(scm.c)
