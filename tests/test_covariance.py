import numpy as np
import pytest

import covreg as cr
from covreg.covariance import LowRank, SampleCovariance, spectral_decompose
from covreg.errors import NegativeEigenvalueError, ValidationError, ZeroVarianceAsset
from covreg.serialize import spectral_to_json_dict

from conftest import (brute_force_covariance, brute_force_low_rank, collinear_rows,
                      near_duplicate_rows, one_factor_rows, random_panel, random_scm,
                      spectral_route, spread_variance_rows)


def panel_from(rows):
    rows = np.asarray(rows, dtype=float)
    ids = tuple(f"A{i}" for i in range(rows.shape[0]))
    return cr.ReturnsPanel(returns=rows, asset_ids=ids)


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
        x = random_panel(rng, 5, 21)
        scm = cr.sample_covariance(x)
        np.testing.assert_allclose(
            scm.c, brute_force_covariance(cr.demean(x)), rtol=0, atol=1e-12
        )

    def test_exact_symmetry(self, rng):
        scm = random_scm(rng, 12, 7)
        assert np.array_equal(scm.c, scm.c.T)

    def test_callers_matrix_stays_writeable(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        scm = SampleCovariance(c=a, n_obs_minus_one=3)
        assert a.flags.writeable
        a[...] = 7.0
        np.testing.assert_array_equal(scm.c, [[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(scm.variances, [2.0, 1.0])
        assert not scm.c.flags.writeable

    def test_zero_variance_asset_rejected(self):
        with pytest.raises(ZeroVarianceAsset):
            cr.sample_covariance(panel_from([[5, 5, 5], [1, 2, 3]]))


    def test_row_sum_overflow_rejected(self):
        # the row mean overflows, so the demeaned row is non-finite
        with pytest.raises(ValidationError, match="non-finite entries"):
            cr.sample_covariance(panel_from([[1.7e308, 1.7e308, -1.7e308], [1, 2, 4]]))

    def test_variances_near_the_float_limit(self):
        # sum_t x_it^2 near 250 x 7.8e305 overflows, the variance itself does not:
        # rows scaled by powers of 2 give C exactly 2^1200 times C at 2^-600 scale
        rows = collinear_rows(np.random.default_rng(5), 400, 250)
        scm = cr.sample_covariance(panel_from(9e152 * rows))
        small = cr.sample_covariance(panel_from(np.ldexp(9e152 * rows, -600)))
        assert 7e305 < scm.variances.max() < np.finfo(float).max
        np.testing.assert_array_equal(scm.variances, np.ldexp(small.variances, 1200))
        np.testing.assert_array_equal(scm.c, np.ldexp(small.c, 1200))


class TestSpectralDecompose:
    def test_rank_one_2x2(self):
        scm = SampleCovariance.from_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        sd = spectral_decompose(scm)
        assert sd.s.shape[0] == 1
        np.testing.assert_allclose(sd.s, [2.0])
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(sd.w[:, 0], [s, -s], atol=1e-12)

    def test_identity(self):
        sd = spectral_decompose(SampleCovariance.from_matrix(np.eye(3)))
        np.testing.assert_allclose(sd.s, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(brute_force_low_rank(sd.w, sd.s), np.eye(3), atol=1e-12)

    def test_rank_bound_short_panel(self, rng):
        # 10 assets, 6 observations: rank at most M = 5
        sd = spectral_decompose(random_scm(rng, 10, 6))
        assert sd.s.shape[0] <= 5

    def test_reconstruction(self, rng):
        scm = random_scm(rng, 8, 40)
        sd = spectral_decompose(scm)
        err = np.linalg.norm(brute_force_low_rank(sd.w, sd.s) - scm.c)
        assert err <= 1e-8 * np.linalg.norm(scm.c)

    def test_orthonormal_components(self, rng):
        sd = spectral_decompose(random_scm(rng, 9, 30))
        gram = sd.w.T @ sd.w
        assert np.abs(gram - np.eye(sd.s.shape[0])).max() <= 1e-9

    def test_trace_preserved(self, rng):
        scm = random_scm(rng, 7, 50)
        sd = spectral_decompose(scm)
        trace = np.trace(scm.c)
        assert abs(sd.s.sum() - trace) <= 1e-8 * trace

    def test_sign_convention(self, rng):
        sd = spectral_decompose(random_scm(rng, 6, 20))
        for row in sd.w.T:
            assert row[np.argmax(np.abs(row))] > 0

    def test_deterministic(self, rng):
        scm = random_scm(rng, 6, 20)
        a = spectral_decompose(scm)
        b = spectral_decompose(scm)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.w, b.w)

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_returns_read_only_low_rank(self, rng, n, t):
        sd = spectral_decompose(random_scm(rng, n, t))
        assert isinstance(sd, LowRank)
        assert sd.w.shape == (n, sd.s.shape[0])
        for a in (sd.w, sd.s):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.all(sd.s > 0) and np.all(np.diff(sd.s) <= 0)

    def test_zero_matrix_has_no_pairs(self):
        sd = spectral_decompose(SampleCovariance.from_matrix(np.zeros((3, 3))))
        assert sd.w.shape == (3, 0) and sd.s.shape == (0,)

    def test_non_psd_input_rejected(self):
        bad = SampleCovariance.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NegativeEigenvalueError):
            spectral_decompose(bad)

    def test_quasi_null_scaling_consistent(self, rng):
        # relative threshold: rescaling the panel must not change the rank
        x = random_panel(rng, 10, 5)
        a = spectral_decompose(cr.sample_covariance(x))
        scaled = cr.ReturnsPanel(x.returns * 1e-6, x.asset_ids)
        b = spectral_decompose(cr.sample_covariance(scaled))
        assert a.s.shape[0] == b.s.shape[0]


class TestPanelRoot:
    """A panel-built SCM keeps X; c is formed only when read."""

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_c_formed_on_first_read(self, rng, n, t):
        x = random_panel(rng, n, t)
        scm = cr.sample_covariance(x)
        assert scm._c is None
        oracle = brute_force_covariance(cr.demean(x))
        np.testing.assert_allclose(scm.variances, np.diag(oracle), rtol=1e-14, atol=0)
        s = rng.uniform(0.5, 2.0, n)
        assert scm.quadratic_form(s) == pytest.approx(s @ oracle @ s, rel=1e-12)
        assert scm._c is None
        np.testing.assert_allclose(scm.c, oracle, rtol=0, atol=1e-12)
        assert np.array_equal(np.diag(scm.c), scm.variances)
        assert scm.c is scm.c

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_root(self, rng, n, t):
        x = random_panel(rng, n, t)
        scm = cr.sample_covariance(x)
        r = scm.root.w
        assert r.shape == (n, min(n, t))
        oracle = brute_force_covariance(cr.demean(x))
        np.testing.assert_allclose(r @ r.T / scm.n_obs_minus_one, oracle, rtol=0, atol=1e-12)
        # the root is C's LowRank form, built once: _OffdiagGram keys its entries on id
        root = scm.root
        assert isinstance(root, LowRank) and scm.root is root
        np.testing.assert_array_equal(root.s, np.full(min(n, t), 1.0 / (t - 1)))
        assert root.h is scm.variances
        np.testing.assert_allclose(brute_force_low_rank(root.w, root.s), oracle,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, t", [(12, 5), (5, 12)], ids=["wide", "tall"])
    def test_zero_variance_asset_rejected_without_c(self, rng, n, t, monkeypatch):
        rows = rng.standard_normal((n, t))
        rows[2] = 3.0
        monkeypatch.setattr(SampleCovariance, "c", property(lambda self: pytest.fail("c read")))
        with pytest.raises(ZeroVarianceAsset):
            cr.sample_covariance(panel_from(rows))

    def test_from_matrix_has_no_panel_root(self):
        with pytest.raises(ValidationError):
            SampleCovariance.from_matrix(np.eye(3)).root


class TestLowRank:
    @pytest.mark.parametrize("r", [0, 1, 4])
    def test_h_is_the_diagonal(self, rng, r):
        w, s = rng.standard_normal((7, r)), rng.uniform(0.1, 2.0, r)
        np.testing.assert_allclose(LowRank(w, s).h, np.diag(brute_force_low_rank(w, s)),
                                   rtol=1e-13, atol=0)

    def test_given_h_is_kept(self, rng):
        given = rng.uniform(size=5)
        assert LowRank(rng.standard_normal((5, 2)), np.ones(2), given).h is given

    @pytest.mark.parametrize("r", [0, 1, 4])
    def test_pairs(self, rng, r):
        w, s = rng.standard_normal((7, r)), rng.uniform(0.1, 2.0, r)
        whole = brute_force_low_rank(w, s)
        for k in range(r + 1):
            head, tail = LowRank(w, s).pairs(0, k), LowRank(w, s).pairs(k)
            assert head.w.shape == (7, k) and tail.w.shape == (7, r - k)
            np.testing.assert_array_equal(np.concatenate([head.s, tail.s]), s)
            np.testing.assert_allclose(
                brute_force_low_rank(head.w, head.s) + brute_force_low_rank(tail.w, tail.s),
                whole, rtol=0, atol=1e-14 * max(1.0, np.abs(whole).max()))

    @pytest.mark.parametrize("make", [lambda rng: rng.standard_normal((12, 5)),
                                      lambda rng: one_factor_rows(rng, 9, 30)],
                             ids=["wide", "tall"])
    def test_spectral_pairs(self, rng, make):
        x = panel_from(make(rng))
        spectral = spectral_decompose(cr.sample_covariance(x))
        c = brute_force_covariance(cr.demean(x))
        f = spectral.s.shape[0]
        for k in range(f + 1):
            kept, dropped = spectral.pairs(0, k), spectral.pairs(k)
            np.testing.assert_array_equal(kept.w, spectral.w[:, :k])
            np.testing.assert_array_equal(dropped.s, spectral.s[k:])
            assert dropped.w.shape == (x.n_assets, f - k)
            # the dropped-PC diagonal is C_ii minus the kept part
            oracle = np.diag(c - brute_force_low_rank(kept.w, kept.s))
            np.testing.assert_allclose(dropped.h, oracle, rtol=0, atol=1e-12 * c.max())


def test_from_matrix_non_square_rejected():
    with pytest.raises(ValidationError, match="covariance must be square"):
        SampleCovariance.from_matrix(np.ones((2, 3)))


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
        scm = cr.sample_covariance(random_panel(rng, n, t))
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
        lam_max = eigh.s[0]
        assert svd.s.shape[0] == eigh.s.shape[0] <= x.n_obs - 1
        threshold = [spectral_to_json_dict(sd)["quasi_null_threshold"] for sd in (svd, eigh)]
        assert threshold[0] == pytest.approx(threshold[1], rel=1e-12)
        assert np.abs(svd.s - eigh.s).max() <= 1e-12 * lam_max
        gram = svd.w.T @ svd.w
        assert np.abs(gram - np.eye(svd.s.shape[0])).max() <= 1e-12
        for row in svd.w.T:
            assert row[np.argmax(np.abs(row))] > 0
        if x.n_assets <= 20:
            np.testing.assert_allclose(
                brute_force_low_rank(svd.w, svd.s), brute_force_covariance(cr.demean(x)),
                rtol=0, atol=1e-12
            )
        else:
            # the loop oracle is O(N^2 F) Python steps, too slow at N = 1000-2000
            err = np.linalg.norm((svd.w * svd.s) @ svd.w.T - scm.c)
            assert err <= 1e-12 * np.linalg.norm(scm.c)
