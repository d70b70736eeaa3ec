"""Synthetic panels, Bai-Yin edge checks, and out-of-sample stability runs.

All randomness flows from an explicit 64-bit seed through
numpy's SeedSequence, so every report is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .covariance import (SampleCovariance, SpectralDecomposition, _quasi_null_threshold,
                         sample_covariance, spectral_decompose)
from .errors import (DimensionMismatch, IllConditioned, InvalidSpec, SingularSpecificRisk,
                     SplitTooSmall, ValidationError)
from .factors import FactorModel, min_variance_weights
from .panels import ReturnsPanel, demean
from .regularizers import (
    TARGET_KINDS,
    ShrinkageSpec,
    build_target,
    shrink_as_factor_model,
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
    SCMs, read off eigvalsh with no eigenvectors. When m < n the
    smallest *positive* eigenvalue stands in for the minimum.
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
        scm = sample_covariance(demean(panel))
        # C's positive eigenvalues are those of the smaller Gram x^T x / M when T < N
        evals = np.linalg.eigvalsh(scm.c if n <= m + 1 else scm.x.T @ scm.x / m)
        evals = evals[evals > _quasi_null_threshold(evals)]
        return evals[0], evals[-1]

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
                    cfg: MethodConfig) -> tuple[FactorModel, list, list]:
    """Fit one method on an SCM and its decomposition.

    Returns (factor model, fit, in_sample): lists of (coefficient, basis)
    terms for _OffdiagGram whose sums have the off-diagonal of the fitted
    matrix and of its difference from C. The difference keeps only the
    terms that do not cancel: q (T - C) for shrink, the nu-rescaled
    target minus the dropped-PC part for truncated-PC.
    """
    target = build_target(scm, cfg.target_kind, cfg.rho)
    w, theta = target._factor
    if cfg.kind == "truncated_pc":
        model = truncated_pc_model(scm, spectral, target, cfg.f_hat)
        rescaled = _LowRank(model.nu[:, None] * w, theta)
        f = cfg.f_hat
        kept = _LowRank(spectral.components[:f].T, spectral.eigenvalues[:f])
        dropped = _LowRank(spectral.components[f:].T, spectral.eigenvalues[f:])
        return model.base, [(1.0, rescaled), (1.0, kept)], [(1.0, rescaled), (-1.0, dropped)]
    spec = ShrinkageSpec(q=cfg.q, target=target)
    spec.validate_against(scm)
    loading, q = _LowRank(w, theta), cfg.q
    return (shrink_as_factor_model(spectral, spec).base,
            [(q, loading), (1.0 - q, scm)], [(q, loading), (-q, scm)])


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


class _LowRank:
    """B = W diag(s) W^T with W N x r, and its diagonal h."""

    def __init__(self, w: np.ndarray, s: np.ndarray, h: np.ndarray | None = None):
        self.w, self.s = w, s
        self.h = (w * w) @ s if h is None else h


def _exponent(a: np.ndarray) -> int:
    """e with max |a| in [2^(e-1), 2^e), 0 for an empty or zero a."""
    return int(np.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))[1])


def _near_unit(a: np.ndarray) -> tuple[int, np.ndarray]:
    """(e, 2^-e a): e = 0 while max |a| is in [2^-64, 2^64], else 2^-e max |a| is in [1/2, 1)."""
    e = _exponent(a)
    return (0, a) if abs(e) <= 64 else (e, np.ldexp(a, -e))


def _scaled_form(basis):
    """(t, f) with basis = 2^t f: f a _LowRank form (or the dense truth) near unit scale.

    A SampleCovariance is R diag(1/M) R^T over its gram_root R. Powers
    of 2 change no mantissa, so returns scaled by 2^k give the same f
    and t + 2k. s and h are always copied: BLAS sums can depend on the
    alignment of their operands.
    """
    if isinstance(basis, np.ndarray):
        return _near_unit(basis)
    if isinstance(basis, SampleCovariance):
        w = basis.gram_root
        basis = _LowRank(w, np.full(w.shape[1], 1.0 / basis.n_obs_minus_one), basis.variances)
    (ew, w), es = _near_unit(basis.w), _exponent(basis.s)
    t = 2 * ew + es
    return t, _LowRank(w, np.ldexp(basis.s, -es), np.ldexp(basis.h, -t))


class _OffdiagGram:
    """Gamma_ab = <offdiag B_a, offdiag B_b>_F over the bases of one run.

    A basis is a _LowRank form, a SampleCovariance or a dense N x N array
    (the truth). For two forms, Gamma_ab = s_a^T (P o P) s_b - h_a . h_b
    with P = W_a^T W_b, in O(N r_a r_b); the truth enters through
    truth @ W_a, the only O(N^2) step. Entries are kept as 2^-(t_a + t_b)
    Gamma_ab over the forms of _scaled_form, so they stay finite where
    Gamma_ab itself would overflow. Each form and entry is computed once
    and kept with its bases, so their ids stay unique.
    """

    def __init__(self):
        self._forms, self._entries = {}, {}

    def _form(self, basis):
        if id(basis) not in self._forms:
            self._forms[id(basis)] = (basis, *_scaled_form(basis))
        return self._forms[id(basis)][1:]

    def entry(self, a, b) -> float:
        """2^-(t_a + t_b) Gamma_ab."""
        key = (id(a), id(b))
        if key not in self._entries:
            (_, fa), (_, fb) = self._form(a), self._form(b)
            if isinstance(fa, np.ndarray):
                fa, fb = fb, fa
            if isinstance(fa, np.ndarray):
                value = np.vdot(fa, fb) - np.diag(fa) @ np.diag(fb)
            elif isinstance(fb, np.ndarray):
                value = np.einsum("ij,ij->j", fb @ fa.w, fa.w) @ fa.s - fa.h @ np.diag(fb)
            else:
                p = fa.w.T @ fb.w
                value = fa.s @ (p * p) @ fb.s - fa.h @ fb.h
            self._entries[key] = self._entries[key[::-1]] = (a, b, float(value))
        return self._entries[key][2]

    def norms(self, bases: list, coef: np.ndarray) -> np.ndarray:
        """||offdiag(sum_a coef[a, j] B_a)||_F = sqrt(max(c^T Gamma c, 0)) per column j.

        Summed as 2^tau sqrt(c~^T Gamma~ c~) with c~_a = 2^(t_a - tau) c_a
        and tau the largest t_a of a basis with a nonzero off-diagonal.
        err^2 is rounded with an absolute error of order
        eps sum |c_a c_b Gamma_ab|.
        """
        t = np.array([self._form(b)[0] for b in bases])
        gamma = np.array([[self.entry(a, b) for b in bases] for a in bases])
        tau = int(t[np.diag(gamma) > 0].max(initial=t.min()))
        c = np.ldexp(np.asarray(coef, dtype=float), (t - tau)[:, None])
        return np.ldexp(np.sqrt(np.maximum(np.einsum("iq,ij,jq->q", c, gamma, c), 0.0)), tau)

    def norm(self, terms: list) -> float:
        """norms of one list of (c_a, B_a) terms."""
        coef = np.array([[c] for c, _ in terms])
        return float(self.norms([b for _, b in terms], coef)[0])


def _leading_pc(scm: SampleCovariance) -> np.ndarray:
    """Unit leading PC of scm: R u / ||R u||, u the top eigenvector of R^T R, R near unit scale."""
    r = _near_unit(scm.gram_root)[1]
    v = r @ np.linalg.eigh(r.T @ r)[1][:, -1]
    return v / np.linalg.norm(v)


def _split_scms(panel: ReturnsPanel, split: float):
    """(n_train, n_test, train SCM, test SCM) of a split."""
    if not 0.0 < split < 1.0:
        raise SplitTooSmall(f"split must be in (0, 1), got {split}")
    t = panel.n_obs
    n_train = int(round(split * t))
    n_test = t - n_train
    if n_train < 2 or n_test < 2:
        raise SplitTooSmall("both segments need at least 2 observations")
    train = ReturnsPanel(panel.returns[:, :n_train], panel.asset_ids)
    scm_test = sample_covariance(demean(ReturnsPanel(panel.returns[:, n_train:], panel.asset_ids)))
    return n_train, n_test, sample_covariance(demean(train)), scm_test


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
    realized variance w^T C_2 w of the train-fitted minimum-variance
    weights on the test SCM C_2. Non-invertible fits are recorded, not raised.
    truth, when given, must be a finite N x N matrix. The errors come
    from _OffdiagGram, so no dense estimate or N x N difference is built;
    the leading-PC overlap reads the test segment's top PC off its root.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        n = panel.n_assets
        if truth.shape != (n, n):
            raise DimensionMismatch(f"truth must be {n} x {n}, got shape {truth.shape}")
        if not np.all(np.isfinite(truth)):
            raise ValidationError("truth has non-finite entries")
    n_train, n_test, scm_train, scm_test = _split_scms(panel, split)
    spectral_train = spectral_decompose(scm_train)
    pc_overlap = float(abs(spectral_train.components[0] @ _leading_pc(scm_test)))

    gram = _OffdiagGram()
    records = []
    for cfg in methods:
        model, fit, in_sample = estimate_method(scm_train, spectral_train, cfg)
        in_err = gram.norm(in_sample)
        out_err = gram.norm(fit + [(-1.0, scm_test)])
        truth_err = gram.norm(fit + [(-1.0, truth)]) if truth is not None else None
        try:
            realized, invertible = scm_test.quadratic_form(min_variance_weights(model)), True
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
    q = np.asarray(grid, dtype=float)
    return _OffdiagGram().norms([_LowRank(*target._factor), scm_train, scm_test],
                                np.stack([q, 1.0 - q, -np.ones_like(q)]))


def grid_search_q(
    panel: ReturnsPanel,
    target_kind: str,
    grid: list[float],
    split: float,
) -> float:
    """Pick the grid q with the lowest out-of-sample off-diagonal error.

    The error of q is stability_experiment's out_of_sample_error of
    shrink(q, target_kind), ||offdiag(q T + (1-q) C_1 - C_2)||_F with T
    the target fitted on the train SCM C_1 and C_2 the test SCM. With
    Gamma the 3 x 3 off-diagonal Gram of the target's loading part and
    the two segment SCMs (_OffdiagGram, built from the segment roots, no
    N x N matrix) and c(q) = (q, 1 - q, -1), err(q) = sqrt(max(c^T Gamma
    c, 0)): the whole grid costs one Gram, with no decomposition, factor
    model or weights. err^2 is rounded with an absolute error of order
    eps sum |c_a c_b Gamma_ab|, which is relative only where the error is
    not much smaller than q ||T|| + ||C_1|| + ||C_2||. Ties go to the
    larger q (more regularization).
    """
    if not grid:
        raise InvalidSpec("empty q grid")
    for q in grid:
        if not 0.0 <= q <= 1.0:
            raise InvalidSpec(f"grid value {q} outside [0, 1]")
    _, _, scm_train, scm_test = _split_scms(panel, split)
    target = build_target(scm_train, target_kind)
    errors = _grid_errors(scm_train, scm_test, target, grid)
    best = min(
        range(len(grid)),
        key=lambda i: (errors[i], -grid[i]),
    )
    return grid[best]
