import threading
import tracemalloc

import numpy as np
import pytest

import covreg as cr
from covreg import factors, harness, regularizers
from covreg.covariance import spectral_decompose
from covreg.errors import DimensionMismatch, InvalidSpec, SplitTooSmall, ValidationError
from covreg.factors import dense
from covreg.harness import MethodConfig
from covreg.regularizers import (TARGET_KINDS, ShrinkageSpec, build_target, shrink_dense,
                                 truncated_pc_model)

from conftest import counting_linalg, near_duplicate_rows, one_factor_rows, spread_variance_rows

CLOSED_FORM_REL = 1e-12  # the expanded square rounds err^2 at eps (q||A|| + ||D||)^2
RECORD_REL = 1e-11  # Gram-form records against dense direct norms
IN_SAMPLE_REL = 1e-12  # shrink in-sample error against q ||offdiag(T - C_1)||
PC_REL = 1e-12  # leading PC from the root's Gram against the full decomposition

GRID_PANELS = {
    "one_factor": lambda rng: one_factor_rows(rng, 200, 120),
    "n_much_larger_than_m": lambda rng: rng.standard_normal((2000, 6)),
    "near_duplicate_pairs": lambda rng: near_duplicate_rows(rng, 150, 60),
    "variance_spread": lambda rng: spread_variance_rows(rng, 400, 100),
    "tall": lambda rng: one_factor_rows(rng, 30, 400),
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
            cr.SyntheticSpec(n_assets=8, n_obs=60, generator="one_factor", seed=2)
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
        assert len(calls) == 1


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
        _, _, scm_train, scm_test = harness._split_scms(panel, 0.5)
        spectral = spectral_decompose(scm_train)
        methods = [MethodConfig(kind="shrink", q=q, target_kind=kind)
                   for kind in TARGET_KINDS for q in (1e-6, 0.01, 0.5, 1.0)]
        methods += [MethodConfig(kind="truncated_pc", f_hat=f, target_kind=kind)
                    for kind in TARGET_KINDS for f in (1, spectral.n_positive - 1)]
        report = cr.stability_experiment(panel, 0.5, methods, truth=truth)
        targets = {kind: build_target(scm_train, kind) for kind in TARGET_KINDS}
        gaps = {kind: offdiag_norm(dense(t) - scm_train.c) for kind, t in targets.items()}
        for cfg, rec in zip(methods, report.records):
            target = targets[cfg.target_kind]
            if cfg.kind == "shrink":
                est = shrink_dense(scm_train, ShrinkageSpec(q=cfg.q, target=target))
                in_err = cfg.q * gaps[cfg.target_kind]
                assert rec.in_sample_error == pytest.approx(in_err, rel=IN_SAMPLE_REL, abs=0)
            else:
                est = dense(truncated_pc_model(scm_train, spectral, target, cfg.f_hat).base)
                in_err = offdiag_norm(est - scm_train.c)
                assert rec.in_sample_error == pytest.approx(in_err, rel=RECORD_REL, abs=0)
            out_err = offdiag_norm(est - scm_test.c)
            assert rec.out_of_sample_error == pytest.approx(out_err, rel=RECORD_REL, abs=0)
            assert rec.truth_error == pytest.approx(offdiag_norm(est - truth), rel=RECORD_REL, abs=0)

    @pytest.mark.parametrize("n, t", [(300, 61), (20, 201)], ids=["wide", "tall"])
    def test_leading_pc_matches_full_decomposition(self, rng, n, t):
        panel = cr.ReturnsPanel(one_factor_rows(rng, n, t), tuple(f"A{i}" for i in range(n)))
        _, _, _, scm_test = harness._split_scms(panel, 0.5)
        full = spectral_decompose(scm_test).components[0]
        v = harness._leading_pc(scm_test)
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
    def test_wide_fit_takes_one_eigh(self, rng, monkeypatch, n_methods):
        # the targets' factor parts are read off their FactorModels; the one
        # eigh is the test segment's leading PC, and the q grid needs none
        panel = cr.ReturnsPanel(one_factor_rows(rng, 60, 21), tuple(map(str, range(60))))
        methods = [MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
                   MethodConfig(kind="scm_ridge"),
                   MethodConfig(kind="truncated_pc", f_hat=1),
                   MethodConfig(kind="truncated_pc", f_hat=1, target_kind="constant_correlation")]
        calls = counting_linalg(monkeypatch, "eigh")
        cr.grid_search_q(panel, "constant_correlation", [0.0, 0.5, 1.0], 0.5)
        assert calls == []
        cr.stability_experiment(panel, 0.5, methods[:n_methods])
        assert calls == ["eigh"]


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
        _, _, scm_train, scm_test = harness._split_scms(panel, 0.5)
        target = build_target(scm_train, target_kind)
        grid = [i / 10 for i in range(11)]
        direct = []
        for q in grid:
            diff = shrink_dense(scm_train, ShrinkageSpec(q=q, target=target)) - scm_test.c
            np.fill_diagonal(diff, 0.0)
            direct.append(np.linalg.norm(diff))
        closed = harness._grid_errors(scm_train, scm_test, target, grid)
        np.testing.assert_allclose(closed, direct, rtol=CLOSED_FORM_REL, atol=0)
