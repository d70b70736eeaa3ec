import threading

import numpy as np
import pytest

import covreg as cr
from covreg import harness
from covreg.covariance import spectral_decompose
from covreg.errors import InvalidSpec, SplitTooSmall
from covreg.harness import MethodConfig


class TestGeneratePanel:
    def test_deterministic(self):
        spec = cr.SyntheticSpec(n_assets=5, n_obs=10, seed=42)
        a = cr.generate_panel(spec)
        b = cr.generate_panel(spec)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_shape_contract(self):
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=2, n_obs=3, seed=1))
        assert panel.returns.shape == (2, 3)

    def test_seed_changes_output(self):
        a = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8, seed=1))
        b = cr.generate_panel(cr.SyntheticSpec(n_assets=4, n_obs=8, seed=2))
        assert not np.array_equal(a.returns, b.returns)

    def test_one_factor_beta_zero_uncorrelated(self):
        spec = cr.SyntheticSpec(
            n_assets=6, n_obs=10_000, generator="one_factor", seed=3,
            beta=np.zeros(6),
        )
        scm = cr.sample_covariance(cr.demean(cr.generate_panel(spec)))
        sigma = np.sqrt(scm.variances)
        corr = scm.c / np.outer(sigma, sigma)
        iu = np.triu_indices(6, k=1)
        assert np.abs(corr[iu]).mean() < 0.05

    def test_one_factor_true_covariance(self):
        beta = np.array([1.0, 2.0])
        spec = cr.SyntheticSpec(
            n_assets=2, n_obs=5, generator="one_factor", seed=0,
            beta=beta, factor_variance=0.5,
            specific_variances=np.array([1.0, 2.0]),
        )
        expected = 0.5 * np.outer(beta, beta) + np.diag([1.0, 2.0])
        np.testing.assert_array_equal(spec.true_covariance(), expected)

    def test_bad_generator_rejected(self):
        with pytest.raises(InvalidSpec):
            cr.SyntheticSpec(n_assets=4, n_obs=8, generator="bogus")


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
            cr.SyntheticSpec(n_assets=8, n_obs=60, generator="one_factor", seed=2)
        )
        report = cr.stability_experiment(
            panel, 0.5, [MethodConfig(kind="shrink", q=0.5)]
        )
        overlap = report.records[0].leading_pc_overlap
        assert 0.0 <= overlap <= 1.0 + 1e-12

    @pytest.mark.parametrize("n_methods", [1, 4])
    def test_one_decomposition_per_segment(self, monkeypatch, n_methods):
        calls = []

        def counting(scm):
            calls.append(scm)
            return spectral_decompose(scm)

        monkeypatch.setattr(harness, "spectral_decompose", counting)
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        methods = [
            MethodConfig(kind="shrink", q=0.5),
            MethodConfig(kind="truncated_pc", f_hat=1),
            MethodConfig(kind="scm_ridge"),
            MethodConfig(kind="shrink", q=0.2, target_kind="constant_correlation"),
        ]
        report = cr.stability_experiment(panel, 0.5, methods[:n_methods])
        assert len(report.records) == n_methods
        assert len(calls) == 2


class TestMethodConfig:
    def test_scm_ridge_default_q_in_label_and_fit(self):
        cfg = MethodConfig(kind="scm_ridge")
        assert cfg.q == 0.01
        assert cfg.label == "scm+ridge(q=0.01)"
        assert MethodConfig(kind="scm_ridge", q=0.05).label == "scm+ridge(q=0.05)"
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
                        n_assets=10, n_obs=80, generator="one_factor",
                        seed=seed, factor_variance=1.0,
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
            n_assets=12, n_obs=4 + 9 * seed, generator="one_factor", seed=seed))
        methods = [MethodConfig(kind="shrink", q=q, target_kind=target_kind) for q in grid]
        errors = [r.out_of_sample_error
                  for r in cr.stability_experiment(panel, 0.5, methods).records]
        best = min(range(len(grid)), key=lambda i: (errors[i], -grid[i]))
        assert cr.grid_search_q(panel, target_kind, grid, 0.5) == grid[best]

    def test_fits_no_model(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(harness, name, wrapper)

        counting("spectral_decompose", spectral_decompose)
        counting("min_variance_weights", harness.min_variance_weights)
        panel = cr.generate_panel(cr.SyntheticSpec(n_assets=6, n_obs=30, seed=9))
        cr.grid_search_q(panel, "constant_correlation", [0.0, 0.5, 1.0], 0.5)
        assert calls == []
