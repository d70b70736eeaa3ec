"""Acceptance suite.

Each test prints one PASS line on success; run with -s (or rely on
pytest's captured output on failure) to see them. Tolerances are fixed
here, not configurable.
"""

import time

import numpy as np
import pytest

import covreg as cr
from covreg.harness import MethodConfig

from conftest import (
    brute_force_covariance,
    brute_force_dense,
    dense_solve_inverse,
    random_matched_target,
    random_pd_model,
)


def _report(name):
    print(f"PASS {name}")


def _random_scm(rng, n, t):
    data = rng.standard_normal((n, t))
    x = cr.DemeanedPanel(data - data.mean(axis=1, keepdims=True))
    return cr.sample_covariance(x)


def test_criterion_1_central_identity():
    """Shrunk SCM equals its factor-model rewriting on 50 random instances."""
    rng = np.random.default_rng(20151025)
    start = time.time()
    sizes = [(5, 4), (5, 30), (20, 4), (20, 30), (20, 200), (60, 30), (60, 200)]
    checked = 0
    while checked < 50:
        n, t = sizes[checked % len(sizes)]
        scm = _random_scm(rng, n, t)
        spectral = cr.spectral_decompose(scm)
        targets = [
            cr.diagonal_target(scm),
            cr.constant_correlation_target(scm, cr.estimate_rho(scm)),
            random_matched_target(rng, scm, 3),
        ]
        target = targets[checked % 3]
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            direct = cr.shrink_dense(scm, target, q)
            rewritten = cr.dense(cr.shrink_as_factor_model(spectral, target, q))
            err = np.linalg.norm(rewritten - direct)
            assert err <= 1e-8 * np.linalg.norm(scm.c), (n, t, q, err)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 30
    _report(f"criterion 1: central identity, 50 instances x 5 q values "
            f"({elapsed:.1f}s)")


def test_criterion_2_rank_bound():
    """Singular SCMs keep at most M eigenvalues above the null threshold."""
    rng = np.random.default_rng(7)
    start = time.time()
    for trial in range(20):
        n = int(rng.integers(6, 40))
        t = int(rng.integers(3, n))  # M + 1 <= n, so M < N
        m = t - 1
        scm = _random_scm(rng, n, t)
        spectral = cr.spectral_decompose(scm)
        assert spectral.n_positive <= m, (n, m, spectral.n_positive)
    elapsed = time.time() - start
    assert elapsed < 5
    _report(f"criterion 2: rank bound on 20 singular SCMs ({elapsed:.1f}s)")


def test_criterion_3_diagonal_preservation():
    """Truncated-PC preserves the diagonal and hits both endpoints."""
    rng = np.random.default_rng(63)
    for trial in range(20):
        n = int(rng.integers(4, 16))
        t = int(rng.integers(3, 40))
        scm = _random_scm(rng, n, t)
        spectral = cr.spectral_decompose(scm)
        target = (cr.diagonal_target(scm) if trial % 2 == 0
                  else cr.constant_correlation_target(scm, cr.estimate_rho(scm)))
        f = spectral.n_positive
        for f_hat in sorted({0, min(1, f), f // 2, f}):
            model = cr.truncated_pc_model(scm, spectral, target, f_hat)
            d = cr.dense(model.base)
            rel = np.abs(np.diag(d) - scm.variances) / scm.variances
            assert rel.max() <= 1e-9, (n, t, f_hat, rel.max())
        # endpoints
        at_zero = cr.dense(cr.truncated_pc_model(scm, spectral, target, 0).base)
        target_dense = cr.dense(target)
        err0 = np.linalg.norm(at_zero - target_dense)
        assert err0 <= 1e-9 * np.linalg.norm(target_dense)
        at_full = cr.dense(cr.truncated_pc_model(scm, spectral, target, f).base)
        errf = np.linalg.norm(at_full - scm.c)
        assert errf <= 1e-9 * np.linalg.norm(scm.c)
    _report("criterion 3: truncated-PC diagonal preservation + endpoints, "
            "20 instances")


def test_criterion_4_invertibility():
    """Shrinkage of singular SCMs yields invertible matrices for q > 0."""
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(8, 30))
        t = int(rng.integers(3, n))  # M < N: SCM singular
        scm = _random_scm(rng, n, t)
        spectral = cr.spectral_decompose(scm)
        target = (cr.diagonal_target(scm) if trial % 2 == 0
                  else random_matched_target(rng, scm, 2))
        target_min_ev = np.linalg.eigvalsh(cr.dense(target)).min()
        assert target_min_ev > 0  # PD target as required
        for q in (0.1, 0.5, 1.0):
            shrunk = cr.shrink_dense(scm, target, q)
            min_ev = np.linalg.eigvalsh(shrunk).min()
            assert min_ev >= 0.5 * q * target_min_ev, (n, t, q)
            model = cr.shrink_as_factor_model(spectral, target, q)
            prod = cr.dense(model) @ cr.invert(model)
            assert np.abs(prod - np.eye(n)).max() <= 1e-8, (n, t, q)
    _report("criterion 4: shrunk-matrix invertibility for q > 0, "
            "10 singular instances x 3 q values")


def test_criterion_5_bai_yin_edges():
    """Observed extreme eigenvalues within 10% of the (1 +- sqrt(y))^2 limits."""
    start = time.time()
    rep = cr.bai_yin_check(n=200, m=800, trials=5, seed=7)
    elapsed = time.time() - start
    assert rep.lambda_min_limit == pytest.approx(0.25)
    assert rep.lambda_max_limit == pytest.approx(2.25)
    assert abs(rep.observed_min - 0.25) <= 0.10 * 0.25, rep.observed_min
    assert abs(rep.observed_max - 2.25) <= 0.10 * 2.25, rep.observed_max
    assert elapsed < 60
    _report(f"criterion 5: Bai-Yin edges y=0.25, observed "
            f"[{rep.observed_min:.4f}, {rep.observed_max:.4f}] ({elapsed:.1f}s)")


def test_criterion_6_regularization_benefit():
    """Truncated-PC beats near-raw SCM out of sample on 1-factor truth."""
    wins = 0
    for seed in range(20):
        spec = cr.SyntheticSpec(
            n_assets=30, n_obs=120, seed=seed, beta=np.ones(30),
            factor_variance=0.25,
        )
        panel = cr.generate_panel(spec)
        report = cr.stability_experiment(
            panel, 0.5,
            [
                MethodConfig(kind="scm_ridge", q=0.01),
                MethodConfig(kind="truncated_pc", f_hat=1,
                             target_kind="diagonal"),
            ],
        )
        ridge, truncated = report.records
        assert report.n_train == 60 and report.n_test == 60
        if truncated.out_of_sample_error <= ridge.out_of_sample_error:
            wins += 1
    assert wins >= 16, f"truncated-PC won only {wins}/20 seeds"
    _report(f"criterion 6: regularization benefit, truncated-PC won "
            f"{wins}/20 seeds")


def test_criterion_7_oracle_equivalences():
    """Library paths agree with brute-force loop / dense-solve oracles."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        n = int(rng.integers(3, 11))
        t = int(rng.integers(3, 25))
        data = rng.standard_normal((n, t))
        x = cr.DemeanedPanel(data - data.mean(axis=1, keepdims=True))
        scm = cr.sample_covariance(x)
        assert np.abs(scm.c - brute_force_covariance(x.x)).max() <= 1e-8

        model = random_pd_model(rng, n, int(rng.integers(1, 4)))
        oracle_dense = brute_force_dense(model)
        assert np.abs(cr.dense(model) - oracle_dense).max() <= 1e-8
        assert np.abs(cr.invert(model) - dense_solve_inverse(model)).max() <= 1e-8
    _report("criterion 7: oracle equivalences on 5 random small instances")
