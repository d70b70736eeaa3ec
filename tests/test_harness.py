import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import covreg as cr
from covreg import factors, harness, regularizers
from covreg.covariance import _quasi_null_threshold, root_pcs, spectral_decompose
from covreg.errors import (DimensionMismatch, FhatOutOfRange, InvalidSpec, RhoOutOfRange,
                           SplitTooSmall, ValidationError)
from covreg.factors import dense
from covreg.harness import MethodConfig
from covreg.regularizers import TARGET_KINDS, build_target, shrink_dense, truncated_pc_model

from conftest import counting_linalg, near_duplicate_rows, one_factor_rows, spread_variance_rows

CLOSED_FORM_REL = 1e-12  # the expanded square rounds err^2 at eps (q||A|| + ||D||)^2
RECORD_REL = 1e-11  # Gram-form records against dense direct norms
IN_SAMPLE_REL = 1e-12  # shrink in-sample error against q ||offdiag(T - C_1)||
PC_REL = 1e-12  # leading PC from the root's Gram against the full decomposition
NU2_ABS = 1e-12  # truncated-PC nu^2 from root_pcs against spectral_decompose's
ROUTE_REL = 1e-12  # records fitted from root_pcs against those from spectral_decompose
SOLVE_REL = 1e-6  # the Woodbury solve of a model with condition number up to ~1e6

GRID_PANELS = {
    "one_factor": lambda rng: one_factor_rows(rng, 200, 120),
    "n_much_larger_than_m": lambda rng: rng.standard_normal((2000, 6)),
    "near_duplicate_pairs": lambda rng: near_duplicate_rows(rng, 150, 60),
    "variance_spread": lambda rng: spread_variance_rows(rng, 400, 100),
    "tall": lambda rng: one_factor_rows(rng, 30, 400),
}


def two_generator_returns(n, t, seed, one_factor=False, beta=None, factor_variance=1.0,
                          specific_variances=None):
    """The draw of the recipe's predecessor: an "iid_unit" or a "one_factor" generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if not one_factor:
        return rng.standard_normal((n, t))
    beta = np.ones(n) if beta is None else beta
    sv = np.ones(n) if specific_variances is None else specific_variances
    f = np.sqrt(factor_variance) * rng.standard_normal(t)
    eps = rng.standard_normal((n, t)) * np.sqrt(sv)[:, None]
    return beta[:, None] * f[None, :] + eps


def two_generator_truth(n, one_factor=False, beta=None, factor_variance=1.0,
                        specific_variances=None):
    """The predecessor's true covariance: I, or fv beta beta^T + diag(sv)."""
    if not one_factor:
        return np.eye(n)
    beta = np.ones(n) if beta is None else beta
    sv = np.ones(n) if specific_variances is None else specific_variances
    return factor_variance * np.outer(beta, beta) + np.diag(sv)


BETA_30 = np.random.default_rng(17).standard_normal(30)
SV_30 = np.random.default_rng(18).uniform(0.1, 3.0, 30)
ONE_FACTOR_KWARGS = {
    "unit": {},
    "beta": {"beta": BETA_30},
    "sv": {"specific_variances": SV_30},
    "beta+sv": {"beta": BETA_30, "specific_variances": SV_30},
}


class TestGeneratePanel:
    def test_deterministic(self):
        spec = cr.SyntheticSpec(n_assets=5, n_obs=10, seed=42)
        a = cr.generate_panel(spec)
        b = cr.generate_panel(spec)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_shape_contract(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=2, n_obs=3, seed=1))
        assert panel.returns.shape == (2, 3)
        assert panel.asset_ids == ("A0001", "A0002")

    def test_seed_changes_output(self):
        a = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8, seed=1))
        b = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8, seed=2))
        assert not np.array_equal(a.returns, b.returns)

    def test_one_factor_beta_zero_uncorrelated(self):
        spec = cr.SyntheticSpec(n_assets=6, n_obs=10_000, seed=3, beta=np.zeros(6))
        scm = cr.sample_covariance(cr.generate_panel(spec))
        sigma = np.sqrt(scm.variances)
        corr = scm.c / np.outer(sigma, sigma)
        iu = np.triu_indices(6, k=1)
        assert np.abs(corr[iu]).mean() < 0.05

    def test_one_factor_true_covariance(self):
        beta = np.array([1.0, 2.0])
        spec = cr.SyntheticSpec(
            n_assets=2, n_obs=5, seed=0,
            beta=beta, factor_variance=0.5,
            specific_variances=np.array([1.0, 2.0]),
        )
        expected = 0.5 * np.outer(beta, beta) + np.diag([1.0, 2.0])
        np.testing.assert_array_equal(spec.true_covariance(), expected)

    @pytest.mark.parametrize("n, t", [(5, 10), (200, 801), (30, 120), (1000, 501)])
    @pytest.mark.parametrize("seed", [0, 42, 2**63 + 5])
    def test_iid_matches_two_generator_draw(self, n, t, seed):
        spec = cr.SyntheticSpec(n_assets=n, n_obs=t, seed=seed)
        assert spec.beta.shape == (n, 0)
        panel = cr.generate_panel(spec)
        assert panel.returns.tobytes() == two_generator_returns(n, t, seed).tobytes()
        assert spec.true_covariance().tobytes() == two_generator_truth(n).tobytes()
        assert panel.asset_ids == tuple(f"A{i + 1:04d}" for i in range(n))

    @pytest.mark.parametrize("fv", [0.25, 0.3, 1.7])
    @pytest.mark.parametrize("kwargs", ONE_FACTOR_KWARGS.values(), ids=ONE_FACTOR_KWARGS.keys())
    @pytest.mark.parametrize("seed", [0, 5])
    def test_one_factor_matches_two_generator_draw(self, fv, kwargs, seed):
        spec = cr.SyntheticSpec(n_assets=30, n_obs=120, seed=seed, factor_variance=fv,
                                **{"beta": np.ones(30), **kwargs})
        expected = two_generator_returns(30, 120, seed, one_factor=True, factor_variance=fv,
                                         **kwargs)
        assert cr.generate_panel(spec).returns.tobytes() == expected.tobytes()
        truth = two_generator_truth(30, one_factor=True, factor_variance=fv, **kwargs)
        assert spec.true_covariance().tobytes() == truth.tobytes()

    def test_three_factors_draw_factors_first(self):
        rng = np.random.default_rng(4)
        beta, sv = rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8)
        spec = cr.SyntheticSpec(n_assets=8, n_obs=50, seed=9, beta=beta, factor_variance=0.3,
                                specific_variances=sv)
        draws = np.random.default_rng(9)
        f = np.sqrt(0.3) * draws.standard_normal((3, 50))
        expected = beta @ f + draws.standard_normal((8, 50)) * np.sqrt(sv)[:, None]
        assert cr.generate_panel(spec).returns.tobytes() == expected.tobytes()

    def test_three_factor_truth_exact_and_scm_near_it(self):
        rng = np.random.default_rng(6)
        beta, sv = rng.standard_normal((6, 3)), rng.uniform(0.5, 2.0, 6)
        spec = cr.SyntheticSpec(n_assets=6, n_obs=40_000, seed=2, beta=beta,
                                factor_variance=0.3, specific_variances=sv)
        truth = spec.true_covariance()
        assert truth.tobytes() == (0.3 * (beta @ beta.T) + np.diag(sv)).tobytes()
        scm = cr.sample_covariance(cr.generate_panel(spec))
        # each entry's standard error is at most about sqrt(2 / T) max(truth)
        np.testing.assert_allclose(scm.c, truth, rtol=0, atol=0.05 * np.abs(truth).max())
        assert np.linalg.matrix_rank(truth - np.diag(sv)) == 3

    def test_seed_sequence_seeds_like_its_int(self):
        a = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8, seed=11))
        b = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8,
                                               seed=np.random.SeedSequence(11)))
        assert a.returns.tobytes() == b.returns.tobytes()

    def test_spec_keeps_no_reference_to_caller_arrays(self):
        beta, sv = np.ones((4, 2)), np.ones(4)
        spec = cr.SyntheticSpec(n_assets=4, n_obs=8, beta=beta, specific_variances=sv)
        assert beta.flags.writeable and sv.flags.writeable
        assert not spec.beta.flags.writeable and not spec.specific_variances.flags.writeable

    @pytest.mark.parametrize("kwargs", [
        {"beta": np.ones(5)},
        {"beta": np.ones((5, 2))},
        {"beta": np.ones((4, 2, 1))},
        {"beta": np.float64(1.0)},
        {"specific_variances": np.ones(3)},
        {"specific_variances": np.array([1.0, -0.5, 1.0, 1.0])},
        {"factor_variance": -1.0},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "7"},
        {"n_assets": 1},
        {"n_obs": 1},
        {"n_assets": 4.5},
        {"n_obs": 8.0},
        {"beta": "x"},
        {"specific_variances": ["1", "a", "1", "1"]},
        {"factor_variance": "a"},
        {"beta": [1.0, np.inf, 1.0, 1.0]},
        {"specific_variances": [1.0, 1.0, np.nan, 1.0]},
        {"factor_variance": np.nan},
        {"factor_variance": np.inf},
    ], ids=["beta-length", "beta-rows", "beta-3d", "beta-scalar", "sv-length", "sv-negative",
            "fv-negative", "seed-negative", "seed-float", "seed-str", "one-asset", "one-obs",
            "n-assets-float", "n-obs-float", "beta-str", "sv-str", "fv-str", "beta-inf",
            "sv-nan", "fv-nan", "fv-inf"])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(InvalidSpec):
            cr.SyntheticSpec(**{"n_assets": 4, "n_obs": 8, **kwargs})


def two_generator_bai_yin(n, m, trials, seed):
    """The predecessor's own Bai-Yin trial loop: (observed_min, observed_max)."""
    mins, maxs = [], []
    for child in np.random.SeedSequence(seed).spawn(trials):
        data = np.random.default_rng(child).standard_normal((n, m + 1))
        panel = cr.ReturnsPanel(data, tuple(f"A{i + 1:04d}" for i in range(n)))
        scm = cr.sample_covariance(panel)
        evals = np.linalg.eigvalsh(scm.c if n <= m + 1 else scm.x.T @ scm.x / m)
        evals = evals[evals > _quasi_null_threshold(evals)]
        mins.append(evals[0])
        maxs.append(evals[-1])
    return float(np.mean(mins)), float(np.mean(maxs))


class TestBaiYin:
    def test_limits_quarter(self):
        rep = cr.bai_yin_check(n=8, m=32, trials=1, seed=0)
        assert rep.y == pytest.approx(0.25)
        assert rep.lambda_min_limit == pytest.approx(0.25)
        assert rep.lambda_max_limit == pytest.approx(2.25)

    def test_limits_y_one(self):
        rep = cr.bai_yin_check(n=16, m=16, trials=1, seed=0)
        assert rep.lambda_min_limit == pytest.approx(0.0)
        assert rep.lambda_max_limit == pytest.approx(4.0)

    def test_limit_gap_identity(self):
        rep = cr.bai_yin_check(n=10, m=40, trials=1, seed=0)
        gap = rep.lambda_max_limit - rep.lambda_min_limit
        assert gap == pytest.approx(4 * np.sqrt(rep.y))

    def test_deterministic(self):
        a = cr.bai_yin_check(n=10, m=20, trials=3, seed=5)
        b = cr.bai_yin_check(n=10, m=20, trials=3, seed=5)
        assert a == b

    def test_runs_without_threads(self, monkeypatch):
        def no_threads(self):
            raise RuntimeError("bai_yin_check must not start threads")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        rep = cr.bai_yin_check(n=10, m=20, trials=3, seed=5)
        assert rep.n_trials == 3

    def test_observed_near_limits(self):
        rep = cr.bai_yin_check(n=100, m=400, trials=3, seed=11)
        assert rep.observed_max == pytest.approx(rep.lambda_max_limit, rel=0.10)
        assert rep.observed_min == pytest.approx(rep.lambda_min_limit, rel=0.10)

    @pytest.mark.parametrize("args", [(200, 800, 5, 3), (50, 20, 5, 1), (8, 32, 1, 0)])
    def test_matches_two_generator_trials(self, args):
        rep = cr.bai_yin_check(*args)
        assert (rep.observed_min, rep.observed_max) == two_generator_bai_yin(*args)

    @pytest.mark.parametrize("args", [(8, 32, 1, -1), (1, 32, 1, 0), (8, 1, 1, 0),
                                      (8, 32, 0, 0), (8, 32, 1, 1.5), (8.5, 32, 1, 0),
                                      (8, 32.0, 1, 0), (8, 32, 1.0, 0)])
    def test_bad_arguments_rejected(self, args):
        with pytest.raises(InvalidSpec):
            cr.bai_yin_check(*args)

    @pytest.mark.parametrize("n, m", [(60, 20), (12, 30)], ids=["wide", "tall"])
    def test_extremes_match_full_spectrum(self, monkeypatch, n, m):
        # oracle: eigvalsh of the N x N C of each trial's replayed panel; a wide
        # trial reads the smaller T x T Gram instead, and no trial takes eigenvectors
        mins, maxs = [], []
        for child in np.random.SeedSequence(3).spawn(2):
            ev = np.linalg.eigvalsh(np.cov(np.random.default_rng(child).standard_normal((n, m + 1))))
            ev = ev[ev > 1e-10 * ev[-1]]
            mins.append(ev[0])
            maxs.append(ev[-1])
        calls = counting_linalg(monkeypatch, "eigh", "svd")
        rep = cr.bai_yin_check(n=n, m=m, trials=2, seed=3)
        assert calls == []
        assert rep.observed_min == pytest.approx(np.mean(mins), rel=1e-10)
        assert rep.observed_max == pytest.approx(np.mean(maxs), rel=1e-10)


class TestStability:
    def test_singular_scm_recorded_not_raised(self):
        # M < N in each segment: raw-ish q=0 shrink cannot be inverted
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=10, n_obs=8, seed=4))
        report = cr.stability_experiment(
            panel, 0.5, [MethodConfig(kind="shrink", q=0.0)]
        )
        rec = report.records[0]
        assert not rec.invertible
        assert rec.realized_variance is None

    def test_shrunk_always_invertible(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=10, n_obs=8, seed=4))
        report = cr.stability_experiment(
            panel, 0.5, [MethodConfig(kind="shrink", q=0.5)]
        )
        rec = report.records[0]
        assert rec.invertible
        assert rec.realized_variance > 0

    def test_metrics_non_negative(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        report = cr.stability_experiment(
            panel, 0.5,
            [
                MethodConfig(kind="scm_ridge", q=0.01),
                MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
                MethodConfig(kind="truncated_pc", f_hat=1),
            ],
        )
        for rec in report.records:
            assert rec.in_sample_error >= 0
            assert rec.out_of_sample_error >= 0

    def test_permutation_invariant(self):
        spec = cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9)
        panel = cr.generate_panel(spec)
        perm = np.array([3, 0, 5, 1, 4, 2])
        shuffled = cr.ReturnsPanel(
            returns=panel.returns[perm],
            asset_ids=tuple(panel.asset_ids[i] for i in perm),
        )
        methods = [MethodConfig(kind="shrink", q=0.5)]
        a = cr.stability_experiment(panel, 0.5, methods).records[0]
        b = cr.stability_experiment(shuffled, 0.5, methods).records[0]
        assert a.out_of_sample_error == pytest.approx(b.out_of_sample_error)
        assert a.realized_variance == pytest.approx(b.realized_variance)

    def test_split_too_small(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=10, seed=0))
        with pytest.raises(SplitTooSmall):
            cr.stability_experiment(panel, 0.05, [MethodConfig(kind="shrink", q=0.5)])

    def test_pc_overlap_reported(self):
        panel = cr.generate_panel(
            cr.SyntheticSpec(n_assets=8, n_obs=60, seed=2, beta=np.ones(8))
        )
        report = cr.stability_experiment(
            panel, 0.5, [MethodConfig(kind="shrink", q=0.5)]
        )
        overlap = report.records[0].leading_pc_overlap
        assert 0.0 <= overlap <= 1.0 + 1e-12

    def test_truth_wrong_shape_rejected(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        with pytest.raises(DimensionMismatch):
            cr.stability_experiment(panel, 0.5, [MethodConfig(kind="shrink", q=0.5)],
                                    truth=np.eye(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_truth_non_finite_rejected(self, bad):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        truth = np.eye(6)
        truth[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            cr.stability_experiment(panel, 0.5, [MethodConfig(kind="shrink", q=0.5)],
                                    truth=truth)

    def test_truth_beyond_the_panel_scale_rejected(self):
        # the truth enters at the run's scale, 2^-2e with 2^e near 1e-160: a
        # unit truth would be near 2^1062 there, so it is refused up front
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        tiny = cr.ReturnsPanel(1e-160 * panel.returns, panel.asset_ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="does not fit the panel's scale"):
                cr.stability_experiment(tiny, 0.5, [MethodConfig(kind="shrink", q=0.5)],
                                        truth=np.eye(6))

    @pytest.mark.parametrize("n_methods", [1, 4])
    def test_one_decomposition_per_segment(self, monkeypatch, n_methods):
        # a tall panel: each segment's root is the N x N factor of a QR
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        methods = [
            MethodConfig(kind="shrink", q=0.5),
            MethodConfig(kind="truncated_pc", f_hat=1),
            MethodConfig(kind="scm_ridge"),
            MethodConfig(kind="shrink", q=0.2, target_kind="constant_correlation"),
        ]
        report = assert_one_gram_eigh_per_segment(monkeypatch, panel, methods[:n_methods])
        assert len(report.records) == n_methods


def assert_one_gram_eigh_per_segment(monkeypatch, panel, methods):
    """grid_search_q decomposes nothing; stability_experiment takes no svd and
    one eigh per segment, of a Gram at most min(N, T) square. Returns the report."""
    shapes = []
    calls = counting_linalg(monkeypatch, "svd", "eigh", shapes=shapes)
    cr.grid_search_q(panel, "constant_correlation", [0.0, 0.5, 1.0], 0.5)
    assert calls == []
    report = cr.stability_experiment(panel, 0.5, methods)
    assert calls == ["eigh", "eigh"]
    n = panel.n_assets
    limits = [min(n, report.n_train), min(n, report.n_test)]
    assert all(a == b <= r for (a, b), r in zip(shapes, limits)), (shapes, limits)
    return report


def record_methods(f):
    """Shrink at four q and truncated-PC at f_hat 1 and F - 1, on both targets."""
    methods = [MethodConfig(kind="shrink", q=q, target_kind=kind)
               for kind in TARGET_KINDS for q in (1e-6, 0.01, 0.5, 1.0)]
    return methods + [MethodConfig(kind="truncated_pc", f_hat=f_hat, target_kind=kind)
                      for kind in TARGET_KINDS for f_hat in (1, f - 1)]


def offdiag_norm(a):
    a = a.copy()
    np.fill_diagonal(a, 0.0)
    return float(np.linalg.norm(a))


class TestGramRecords:
    """Records from the segment roots against dense direct-norm oracles."""

    @pytest.mark.parametrize("make", GRID_PANELS.values(), ids=GRID_PANELS.keys())
    def test_records_match_dense_oracle(self, rng, make):
        rows = make(rng)
        n = rows.shape[0]
        panel = cr.ReturnsPanel(rows, tuple(f"A{i}" for i in range(n)))
        truth = np.cov(rows) + 0.1 * np.diag(np.cov(rows).diagonal())
        # the oracles read the run's SCMs of 2^-e returns; records are 2^2e times them
        _, _, e, scm_train, scm_test = harness._split_scms(panel, 0.5)
        scaled_truth = np.ldexp(truth, -2 * e)
        spectral = spectral_decompose(scm_train)
        methods = record_methods(spectral.s.shape[0])
        report = cr.stability_experiment(panel, 0.5, methods, truth=truth)
        targets = {kind: build_target(scm_train, kind) for kind in TARGET_KINDS}
        gaps = {kind: offdiag_norm(dense(t) - scm_train.c) for kind, t in targets.items()}
        for cfg, rec in zip(methods, report.records):
            target = targets[cfg.target_kind]
            if cfg.kind == "shrink":
                est = shrink_dense(scm_train, target, cfg.q)
                in_err = np.ldexp(cfg.q * gaps[cfg.target_kind], 2 * e)
                assert rec.in_sample_error == pytest.approx(in_err, rel=IN_SAMPLE_REL, abs=0)
            else:
                est = dense(truncated_pc_model(scm_train, spectral, target, cfg.f_hat)[0])
                in_err = np.ldexp(offdiag_norm(est - scm_train.c), 2 * e)
                assert rec.in_sample_error == pytest.approx(in_err, rel=RECORD_REL, abs=0)
            out_err = np.ldexp(offdiag_norm(est - scm_test.c), 2 * e)
            assert rec.out_of_sample_error == pytest.approx(out_err, rel=RECORD_REL, abs=0)
            truth_err = np.ldexp(offdiag_norm(est - scaled_truth), 2 * e)
            assert rec.truth_error == pytest.approx(truth_err, rel=RECORD_REL, abs=0)

    @pytest.mark.parametrize("make", GRID_PANELS.values(), ids=GRID_PANELS.keys())
    def test_root_pcs_match_the_full_spectrum(self, rng, make):
        rows = make(rng)
        panel = cr.ReturnsPanel(rows, tuple(f"A{i}" for i in range(rows.shape[0])))
        _, _, _, scm_train, _ = harness._split_scms(panel, 0.5)
        full, root = spectral_decompose(scm_train), root_pcs(scm_train)
        f = full.s.shape[0]
        assert root.s.shape[0] == f
        target = build_target(scm_train, "diagonal")
        # on variance_spread the SVD's own nu^2 is the less accurate one: against
        # a 40-digit mpmath oracle it is off by up to 1.1e-10, the root form by 2.7e-15
        atol = 1e-9 if make is GRID_PANELS["variance_spread"] else NU2_ABS
        for f_hat in (0, 1, f // 2, f - 1, f):
            nu_full = truncated_pc_model(scm_train, full, target, f_hat)[1]
            nu_root = truncated_pc_model(scm_train, root, target, f_hat)[1]
            np.testing.assert_allclose(nu_root ** 2, nu_full ** 2, rtol=0, atol=atol)
        assert not truncated_pc_model(scm_train, root, target, f)[1].any()

    @pytest.mark.parametrize("make", GRID_PANELS.values(), ids=GRID_PANELS.keys())
    def test_records_match_the_full_spectrum_route(self, rng, monkeypatch, make):
        rows = make(rng)
        panel = cr.ReturnsPanel(rows, tuple(f"A{i}" for i in range(rows.shape[0])))
        truth = np.cov(rows) + 0.1 * np.diag(np.cov(rows).diagonal())
        _, _, _, scm_train, _ = harness._split_scms(panel, 0.5)
        methods = record_methods(spectral_decompose(scm_train).s.shape[0])
        got = cr.stability_experiment(panel, 0.5, methods, truth=truth)
        monkeypatch.setattr(harness, "root_pcs", spectral_decompose)
        want = cr.stability_experiment(panel, 0.5, methods, truth=truth)
        for g, w in zip(got.records, want.records):
            for field in ("in_sample_error", "out_of_sample_error", "truth_error",
                          "leading_pc_overlap"):
                assert getattr(g, field) == pytest.approx(getattr(w, field), rel=ROUTE_REL,
                                                          abs=0), (g.label, field)
            assert g.invertible == w.invertible
            if g.invertible:
                assert g.realized_variance == pytest.approx(w.realized_variance, rel=SOLVE_REL,
                                                            abs=0), g.label

    @pytest.mark.parametrize("n, t", [(300, 61), (20, 201)], ids=["wide", "tall"])
    def test_leading_pc_matches_full_decomposition(self, rng, n, t):
        panel = cr.ReturnsPanel(one_factor_rows(rng, n, t), tuple(f"A{i}" for i in range(n)))
        _, _, _, _, scm_test = harness._split_scms(panel, 0.5)
        full = spectral_decompose(scm_test).w[:, 0]
        v = root_pcs(scm_test).w[:, 0]
        v = v / np.linalg.norm(v)
        assert min(np.abs(v - full).max(), np.abs(v + full).max()) <= PC_REL

    def test_wide_fit_allocates_no_n_by_n_array(self):
        # the segment SCMs, targets, errors and weights all stay in factor form
        n, t = 4000, 121
        panel = cr.ReturnsPanel(one_factor_rows(np.random.default_rng(3), n, t),
                                tuple(f"A{i}" for i in range(n)))
        methods = [
            MethodConfig(kind="scm_ridge"),
            MethodConfig(kind="shrink", q=0.5),
            MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
            MethodConfig(kind="truncated_pc", f_hat=1),
        ]
        tracemalloc.start()
        try:
            cr.grid_search_q(panel, "constant_correlation", [i / 10 for i in range(11)], 0.5)
            cr.stability_experiment(panel, 0.5, methods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


    @pytest.mark.parametrize("n_methods", [1, 4])
    def test_wide_fit_takes_one_gram_eigh_per_segment(self, rng, monkeypatch, n_methods):
        # the targets' factor parts are read off their FactorModels; the train
        # segment's eigh gives every fit its pairs, the test segment's the
        # leading PC, and the q grid needs none
        panel = cr.ReturnsPanel(one_factor_rows(rng, 60, 21), tuple(map(str, range(60))))
        methods = [MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
                   MethodConfig(kind="scm_ridge"),
                   MethodConfig(kind="truncated_pc", f_hat=1),
                   MethodConfig(kind="truncated_pc", f_hat=1, target_kind="constant_correlation")]
        assert_one_gram_eigh_per_segment(monkeypatch, panel, methods[:n_methods])


class TestMethodConfig:
    @pytest.mark.parametrize("kind", ["shrink", "scm_ridge"])
    @pytest.mark.parametrize("q", [1.5, -0.1, float("nan")])
    def test_q_outside_unit_interval_rejected(self, kind, q):
        with pytest.raises(ValidationError, match=r"q must be in \[0, 1\]"):
            MethodConfig(kind=kind, q=q)

    @pytest.mark.parametrize("f_hat", [-1, -3, 1.5, 1.0, "1"])
    def test_f_hat_not_a_non_negative_int_rejected(self, f_hat):
        with pytest.raises(FhatOutOfRange, match="f_hat"):
            MethodConfig(kind="truncated_pc", f_hat=f_hat)

    @pytest.mark.parametrize("kind", ["shrink", "truncated_pc"])
    @pytest.mark.parametrize("rho", [1.0, 1.5, 7.0, -0.1, float("nan")])
    def test_rho_outside_unit_interval_rejected(self, kind, rho):
        with pytest.raises(RhoOutOfRange, match=r"rho must be in \[0, 1\)"):
            MethodConfig(kind=kind, target_kind="constant_correlation", rho=rho)

    @pytest.mark.parametrize("kind", ["scm_ridge", "shrink", "truncated_pc"])
    def test_rho_with_diagonal_target_rejected(self, kind):
        with pytest.raises(InvalidSpec, match="rho"):
            MethodConfig(kind=kind, rho=0.5)

    def test_rho_in_label(self):
        spec = dict(kind="shrink", q=0.5, target_kind="constant_correlation")
        low, high = MethodConfig(**spec, rho=0.1), MethodConfig(**spec, rho=0.8)
        assert low.label == "shrink(q=0.5,constant_correlation,rho=0.1)"
        assert high.label == "shrink(q=0.5,constant_correlation,rho=0.8)"
        assert MethodConfig(**spec).label == "shrink(q=0.5,constant_correlation)"
        assert MethodConfig(kind="truncated_pc", f_hat=1, target_kind="constant_correlation",
                            rho=0.0).label == "truncated_pc(f_hat=1,constant_correlation,rho=0.0)"
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        a, b = cr.stability_experiment(panel, 0.5, [low, high]).records
        assert a.label != b.label and a.in_sample_error != b.in_sample_error

    def test_scm_ridge_default_q_in_label_and_fit(self):
        cfg = MethodConfig(kind="scm_ridge")
        assert cfg.q == 0.01
        assert cfg.label == "scm+ridge(q=0.01)"
        assert MethodConfig(kind="scm_ridge", q=0.05).label == "scm+ridge(q=0.05)"
        cc = dict(kind="scm_ridge", target_kind="constant_correlation")
        assert MethodConfig(**cc).label == "scm+ridge(q=0.01,constant_correlation)"
        assert (MethodConfig(**cc, rho=0.2).label
                == "scm+ridge(q=0.01,constant_correlation,rho=0.2)")
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        ridge, shrink = cr.stability_experiment(
            panel, 0.5, [cfg, MethodConfig(kind="shrink", q=0.01)]
        ).records
        assert ridge.out_of_sample_error == shrink.out_of_sample_error
        assert ridge.realized_variance == shrink.realized_variance


class TestGridSearch:
    def test_singleton_grid(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=5, n_obs=20, seed=1))
        assert cr.grid_search_q(panel, "diagonal", [0.0], 0.5) == 0.0

    def test_iid_truth_prefers_heavy_shrinkage(self):
        # truth is diagonal, so the diagonal target is exact: max q should
        # win in a majority of seeded runs
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        picks = [
            cr.grid_search_q(
                cr.generate_panel(
                    cr.SyntheticSpec(n_assets=10, n_obs=40, seed=seed)
                ),
                "diagonal", grid, 0.5,
            )
            for seed in range(10)
        ]
        assert sum(p >= 0.75 for p in picks) > 5

    def test_factor_truth_keeps_some_scm(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        picks = [
            cr.grid_search_q(
                cr.generate_panel(
                    cr.SyntheticSpec(
                        n_assets=10, n_obs=80, seed=seed, beta=np.ones(10),
                        factor_variance=1.0,
                    )
                ),
                "diagonal", grid, 0.5,
            )
            for seed in range(10)
        ]
        assert sum(p < 1.0 for p in picks) > 5

    def test_bad_grid_rejected(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=5, n_obs=20, seed=1))
        with pytest.raises(InvalidSpec):
            cr.grid_search_q(panel, "diagonal", [0.5, 1.5], 0.5)

    @pytest.mark.parametrize("target_kind", ["diagonal", "constant_correlation"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_stability_argmin(self, seed, target_kind):
        # the grid scores q from the segment SCMs; stability_experiment fits
        # the full models: both must rank q the same, ties to the larger q
        grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        panel = cr.generate_panel(cr.SyntheticSpec(
            n_assets=12, n_obs=4 + 9 * seed, seed=seed, beta=np.ones(12)))
        methods = [MethodConfig(kind="shrink", q=q, target_kind=target_kind) for q in grid]
        errors = [r.out_of_sample_error
                  for r in cr.stability_experiment(panel, 0.5, methods).records]
        best = min(range(len(grid)), key=lambda i: (errors[i], -grid[i]))
        assert cr.grid_search_q(panel, target_kind, grid, 0.5) == grid[best]

    def test_fits_no_model(self, monkeypatch):
        calls = []

        def counting(module, name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper, raising=False)

        counting(harness, "spectral_decompose", spectral_decompose)
        counting(harness, "min_variance_weights", harness.min_variance_weights)
        for module in (harness, regularizers):
            counting(module, "shrink_dense", regularizers.shrink_dense)
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        cr.grid_search_q(panel, "constant_correlation", [0.0, 0.5, 1.0], 0.5)
        assert calls == []

    @pytest.mark.parametrize("n_q", [1, 101])
    def test_one_dense_target_per_grid(self, monkeypatch, n_q):
        calls = []

        def counting(model):
            calls.append(model)
            return dense(model)

        for module in (factors, regularizers, harness):
            monkeypatch.setattr(module, "dense", counting, raising=False)
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        grid = [i / max(n_q - 1, 1) for i in range(n_q)]
        cr.grid_search_q(panel, "constant_correlation", grid, 0.5)
        assert calls == []

    @pytest.mark.parametrize("target_kind", TARGET_KINDS)
    @pytest.mark.parametrize("make", GRID_PANELS.values(), ids=GRID_PANELS.keys())
    def test_closed_form_matches_direct_errors(self, rng, make, target_kind):
        # oracle: the dense shrunk train SCM against the test SCM, q by q
        rows = make(rng)
        panel = cr.ReturnsPanel(rows, tuple(f"A{i}" for i in range(rows.shape[0])))
        _, _, _, scm_train, scm_test = harness._split_scms(panel, 0.5)
        target = build_target(scm_train, target_kind)
        grid = [i / 10 for i in range(11)]
        direct = []
        for q in grid:
            diff = shrink_dense(scm_train, target, q) - scm_test.c
            np.fill_diagonal(diff, 0.0)
            direct.append(np.linalg.norm(diff))
        closed = harness._grid_errors(scm_train, scm_test, target, grid)
        np.testing.assert_allclose(closed, direct, rtol=CLOSED_FORM_REL, atol=0)
