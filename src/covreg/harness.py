"""Synthetic panels, Bai-Yin edge checks, and out-of-sample stability runs.

All randomness flows from an explicit 64-bit seed through
numpy's SeedSequence, so every report is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .covariance import (SampleCovariance, SpectralDecomposition, sample_covariance,
                         spectral_decompose)
from .errors import (DimensionMismatch, IllConditioned, InvalidSpec, SingularSpecificRisk,
                     SplitTooSmall, ValidationError)
from .factors import FactorModel, dense, min_variance_weights
from .panels import ReturnsPanel, demean
from .regularizers import (
    TARGET_KINDS,
    ShrinkageSpec,
    build_target,
    shrink_as_factor_model,
    shrink_dense,
    truncated_pc_model,
)

GENERATORS = ("iid_unit", "one_factor")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic-panel recipe."""

    n_assets: int
    n_obs: int
    generator: str = "iid_unit"
    seed: int = 0
    beta: np.ndarray | None = None
    factor_variance: float = 1.0
    specific_variances: np.ndarray | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise InvalidSpec(f"unknown generator {self.generator!r}")
        if self.n_assets < 2 or self.n_obs < 2:
            raise InvalidSpec("need n_assets >= 2 and n_obs >= 2")
        if self.generator == "one_factor":
            beta = np.asarray(
                self.beta if self.beta is not None else np.ones(self.n_assets),
                dtype=float,
            )
            sv = np.asarray(
                self.specific_variances
                if self.specific_variances is not None
                else np.ones(self.n_assets),
                dtype=float,
            )
            if beta.shape != (self.n_assets,) or sv.shape != (self.n_assets,):
                raise InvalidSpec("beta/specific_variances must have length N")
            if self.factor_variance < 0 or np.any(sv < 0):
                raise InvalidSpec("variances must be non-negative")
            beta.setflags(write=False)
            sv.setflags(write=False)
            object.__setattr__(self, "beta", beta)
            object.__setattr__(self, "specific_variances", sv)

    def true_covariance(self) -> np.ndarray:
        if self.generator == "iid_unit":
            return np.eye(self.n_assets)
        cov = self.factor_variance * np.outer(self.beta, self.beta)
        return cov + np.diag(self.specific_variances)


def generate_panel(spec: SyntheticSpec) -> ReturnsPanel:
    """Draw a seeded panel; same spec gives bitwise-identical output."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n, t = spec.n_assets, spec.n_obs
    if spec.generator == "iid_unit":
        data = rng.standard_normal((n, t))
    else:
        f = np.sqrt(spec.factor_variance) * rng.standard_normal(t)
        eps = rng.standard_normal((n, t)) * np.sqrt(spec.specific_variances)[:, None]
        data = spec.beta[:, None] * f[None, :] + eps
    ids = tuple(f"A{i + 1:04d}" for i in range(n))
    return ReturnsPanel(returns=data, asset_ids=ids)


@dataclass(frozen=True)
class BaiYinReport:
    """Observed vs. limiting extreme eigenvalues for y = N/M."""

    y: float
    lambda_min_limit: float
    lambda_max_limit: float
    observed_min: float
    observed_max: float
    n_trials: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def bai_yin_check(n: int, m: int, trials: int, seed: int) -> BaiYinReport:
    """Monte Carlo check of the (1 +- sqrt(y))^2 eigenvalue edges.

    Averages the extreme positive eigenvalues of demeaned unit-variance
    SCMs. When m < n the smallest *positive* eigenvalue stands in for
    the minimum.
    """
    if n < 2 or m < 2 or trials < 1:
        raise InvalidSpec("need n, m >= 2 and trials >= 1")
    y = n / m
    seeds = np.random.SeedSequence(seed).spawn(trials)

    def one_trial(child) -> tuple[float, float]:
        rng = np.random.default_rng(child)
        data = rng.standard_normal((n, m + 1))
        panel = ReturnsPanel(
            returns=data, asset_ids=tuple(f"A{i + 1:04d}" for i in range(n))
        )
        spectral = spectral_decompose(sample_covariance(demean(panel)))
        return spectral.eigenvalues[-1], spectral.eigenvalues[0]

    mins, maxs = zip(*map(one_trial, seeds))
    return BaiYinReport(
        y=y,
        lambda_min_limit=float((1.0 - np.sqrt(y)) ** 2),
        lambda_max_limit=float((1.0 + np.sqrt(y)) ** 2),
        observed_min=float(np.mean(mins)),
        observed_max=float(np.mean(maxs)),
        n_trials=trials,
    )


@dataclass(frozen=True)
class MethodConfig:
    """One estimator entry for the stability comparison.

    kind: "scm_ridge" (shrink with a small q, 0.01 when q is left at 0:
    the stand-in for raw SCM when inversion is required), "shrink", or
    "truncated_pc". rho applies to the constant-correlation target and
    may be None for "auto".
    """

    kind: str
    q: float = 0.0
    f_hat: int = 0
    target_kind: str = "diagonal"
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("scm_ridge", "shrink", "truncated_pc"):
            raise InvalidSpec(f"unknown method kind {self.kind!r}")
        if self.target_kind not in TARGET_KINDS:
            raise InvalidSpec(f"unknown target kind {self.target_kind!r}")
        if self.kind == "scm_ridge" and not self.q:
            object.__setattr__(self, "q", 0.01)

    @property
    def label(self) -> str:
        if self.kind == "scm_ridge":
            return f"scm+ridge(q={self.q})"
        if self.kind == "shrink":
            return f"shrink(q={self.q},{self.target_kind})"
        return f"truncated_pc(f_hat={self.f_hat},{self.target_kind})"


def estimate_method(scm: SampleCovariance, spectral: SpectralDecomposition,
                    cfg: MethodConfig) -> tuple[np.ndarray, FactorModel]:
    """Fit one method on an SCM and its decomposition; returns (dense, factor model)."""
    target = build_target(scm, cfg.target_kind, cfg.rho)
    if cfg.kind == "truncated_pc":
        model = truncated_pc_model(scm, spectral, target, cfg.f_hat).base
        return dense(model), model
    spec = ShrinkageSpec(q=cfg.q, target=target)
    return shrink_dense(scm, spec), shrink_as_factor_model(spectral, spec).base


@dataclass(frozen=True)
class MethodRecord:
    label: str
    in_sample_error: float
    out_of_sample_error: float
    realized_variance: float | None
    invertible: bool
    truth_error: float | None = None
    leading_pc_overlap: float | None = None


@dataclass(frozen=True)
class StabilityReport:
    n_train: int
    n_test: int
    records: tuple[MethodRecord, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        header = f"{'method':<36} {'in_err':>12} {'out_err':>12} {'real_var':>12}"
        lines = [header, "-" * len(header)]
        for r in self.records:
            rv = f"{r.realized_variance:.6g}" if r.invertible else "singular"
            lines.append(
                f"{r.label:<36} {r.in_sample_error:>12.6g} "
                f"{r.out_of_sample_error:>12.6g} {rv:>12}"
            )
        return "\n".join(lines)


def _offdiag_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    np.fill_diagonal(diff, 0.0)
    return float(np.linalg.norm(diff))


def _split_scms(panel: ReturnsPanel, split: float):
    """(n_train, n_test, train SCM, test SCM, demeaned test panel) of a split."""
    if not 0.0 < split < 1.0:
        raise SplitTooSmall(f"split must be in (0, 1), got {split}")
    t = panel.n_obs
    n_train = int(round(split * t))
    n_test = t - n_train
    if n_train < 2 or n_test < 2:
        raise SplitTooSmall("both segments need at least 2 observations")
    train = ReturnsPanel(panel.returns[:, :n_train], panel.asset_ids)
    test_demeaned = demean(ReturnsPanel(panel.returns[:, n_train:], panel.asset_ids))
    return (n_train, n_test, sample_covariance(demean(train)),
            sample_covariance(test_demeaned), test_demeaned)


def stability_experiment(
    panel: ReturnsPanel,
    split: float,
    methods: list[MethodConfig],
    truth: np.ndarray | None = None,
) -> StabilityReport:
    """Train/test comparison of regularizers on one panel.

    Each method is fitted on the first split fraction of observations;
    errors are off-diagonal Frobenius distances to the train-segment and
    test-segment SCMs (and to the truth matrix when supplied), plus the
    realized variance of the train-fitted minimum-variance weights over
    the test segment. Non-invertible fits are recorded, not raised.
    truth, when given, must be a finite N x N matrix.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        n = panel.n_assets
        if truth.shape != (n, n):
            raise DimensionMismatch(f"truth must be {n} x {n}, got shape {truth.shape}")
        if not np.all(np.isfinite(truth)):
            raise ValidationError("truth has non-finite entries")
    n_train, n_test, scm_train, scm_test, test_demeaned = _split_scms(panel, split)
    spectral_train = spectral_decompose(scm_train)
    spectral_test = spectral_decompose(scm_test)
    pc_overlap = float(abs(spectral_train.components[0] @ spectral_test.components[0]))

    records = []
    for cfg in methods:
        est, model = estimate_method(scm_train, spectral_train, cfg)
        in_err = _offdiag_frobenius(est, scm_train.c)
        out_err = _offdiag_frobenius(est, scm_test.c)
        truth_err = _offdiag_frobenius(est, truth) if truth is not None else None
        try:
            w = min_variance_weights(model)
            test_returns = w @ test_demeaned.x
            realized = float(test_returns @ test_returns / (n_test - 1))
            invertible = True
        except (SingularSpecificRisk, IllConditioned):
            realized, invertible = None, False
        records.append(
            MethodRecord(
                label=cfg.label,
                in_sample_error=in_err,
                out_of_sample_error=out_err,
                realized_variance=realized,
                invertible=invertible,
                truth_error=truth_err,
                leading_pc_overlap=pc_overlap,
            )
        )
    return StabilityReport(records=tuple(records), n_train=n_train, n_test=n_test)


def _grid_errors(scm_train: SampleCovariance, scm_test: SampleCovariance,
                 target: FactorModel, grid: list[float]) -> np.ndarray:
    """grid_search_q's closed-form error of shrink(q, target), one per grid q."""
    ShrinkageSpec(q=0.0, target=target).validate_against(scm_train)
    a = dense(target)
    a -= scm_train.c
    np.fill_diagonal(a, 0.0)
    d = scm_train.c - scm_test.c
    np.fill_diagonal(d, 0.0)
    aa, ad, dd = np.vdot(a, a), np.vdot(a, d), np.vdot(d, d)
    q = np.asarray(grid, dtype=float)
    return np.sqrt(np.maximum(q * q * aa + 2.0 * q * ad + dd, 0.0))


def grid_search_q(
    panel: ReturnsPanel,
    target_kind: str,
    grid: list[float],
    split: float,
) -> float:
    """Pick the grid q with the lowest out-of-sample off-diagonal error.

    The error of q is stability_experiment's out_of_sample_error of
    shrink(q, target_kind), ||offdiag(q T + (1-q) C_1 - C_2)||_F with T
    the target fitted on the train SCM C_1 and C_2 the test SCM. It is
    computed in closed form from A = offdiag(T - C_1) and D = offdiag(C_1
    - C_2): err(q) = sqrt(max(q^2 <A,A> + 2q <A,D> + <D,D>, 0)), so the
    whole grid costs one dense target and three inner products, with no
    decomposition, factor model or weights. The expanded square rounds
    err^2 with an absolute error of order eps (q ||A|| + ||D||)^2, which
    is relative only where the error is not much smaller than
    q ||A|| + ||D||. Ties go to the larger q (more regularization).
    """
    if not grid:
        raise InvalidSpec("empty q grid")
    for q in grid:
        if not 0.0 <= q <= 1.0:
            raise InvalidSpec(f"grid value {q} outside [0, 1]")
    _, _, scm_train, scm_test, _ = _split_scms(panel, split)
    target = build_target(scm_train, target_kind)
    errors = _grid_errors(scm_train, scm_test, target, grid)
    best = min(
        range(len(grid)),
        key=lambda i: (errors[i], -grid[i]),
    )
    return grid[best]
