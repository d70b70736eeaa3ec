"""Synthetic panels, Bai-Yin edge checks, and out-of-sample stability runs.

All randomness flows from an explicit 64-bit seed through
numpy's SeedSequence, so every report is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .covariance import (LowRank, SampleCovariance, _quasi_null_threshold, sample_covariance,
                         spectral_decompose)
from .errors import (DimensionMismatch, FhatOutOfRange, IllConditioned, InvalidSpec,
                     NumericalError, SingularSpecificRisk, SplitTooSmall, ValidationError)
from .factors import FactorModel, min_variance_weights
from .panels import ReturnsPanel, synthetic_ids
from .regularizers import (TARGET_KINDS, _require_matched_target, _require_q,
                           _require_target_rho, build_target, shrink_as_factor_model,
                           truncated_pc_model)


def _is_int_at_least(x, low: int) -> bool:
    """x is a Python or numpy int no smaller than low: the rule for sizes and seeds."""
    return isinstance(x, (int, np.integer)) and x >= low


def _finite_floats(value, name: str) -> np.ndarray:
    """A new float array of value; InvalidSpec unless it is numeric and finite."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSpec(f"{name} must be numeric") from None
    if not np.all(np.isfinite(a)):
        raise InvalidSpec(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic K-factor panel recipe: returns = beta f + eps.

    beta is N x K, (N,) for K = 1, or None for K = 0 (the iid panel). The
    K factors are iid N(0, factor_variance) and eps_i is N(0,
    specific_variances[i]), unit by default. InvalidSpec unless n_assets,
    n_obs are ints >= 2, seed a non-negative int or a SeedSequence, and
    the rest finite numbers.
    """

    n_assets: int
    n_obs: int
    seed: int | np.random.SeedSequence = 0
    beta: np.ndarray | None = None
    factor_variance: float = 1.0
    specific_variances: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_assets
        if not (_is_int_at_least(n, 2) and _is_int_at_least(self.n_obs, 2)):
            raise InvalidSpec("need int n_assets >= 2 and n_obs >= 2")
        if not (isinstance(self.seed, np.random.SeedSequence)
                or _is_int_at_least(self.seed, 0)):
            raise InvalidSpec(f"seed must be a non-negative int or a SeedSequence, "
                              f"got {self.seed!r}")
        beta = np.zeros((n, 0)) if self.beta is None else _finite_floats(self.beta, "beta")
        if beta.ndim == 1:
            beta = beta[:, None]
        sv = np.ones(n) if self.specific_variances is None else _finite_floats(
            self.specific_variances, "specific_variances")
        fv = _finite_floats(self.factor_variance, "factor_variance")
        if beta.ndim != 2 or beta.shape[0] != n or sv.shape != (n,) or fv.shape:
            raise InvalidSpec("beta must be N x K or (N,), specific_variances (N,), "
                              "factor_variance a scalar")
        if fv < 0 or np.any(sv < 0):
            raise InvalidSpec("variances must be non-negative")
        beta.setflags(write=False)
        sv.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "factor_variance", float(fv))
        object.__setattr__(self, "specific_variances", sv)

    def true_covariance(self) -> np.ndarray:
        return self.factor_variance * (self.beta @ self.beta.T) + np.diag(self.specific_variances)


def generate_panel(spec: SyntheticSpec) -> ReturnsPanel:
    """Draw a seeded panel, the factors first; same spec gives bitwise-identical output."""
    rng = np.random.default_rng(spec.seed)
    f = np.sqrt(spec.factor_variance) * rng.standard_normal((spec.beta.shape[1], spec.n_obs))
    returns = rng.standard_normal((spec.n_assets, spec.n_obs))
    returns *= np.sqrt(spec.specific_variances)[:, None]
    returns += spec.beta @ f
    return ReturnsPanel(returns=returns, asset_ids=synthetic_ids(spec.n_assets))


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

    Averages the extreme positive eigenvalues of the demeaned SCMs of iid
    unit-variance panels, one generate_panel draw per spawned seed, read
    off eigvalsh with no eigenvectors. When m < n the smallest *positive*
    eigenvalue stands in for the minimum. n, m, trials and seed are ints
    under SyntheticSpec's rule, else InvalidSpec.
    """
    if not all(map(_is_int_at_least, (n, m, trials, seed), (2, 2, 1, 0))):
        raise InvalidSpec("need n, m >= 2, trials >= 1 and seed >= 0")
    y = n / m
    seeds = np.random.SeedSequence(seed).spawn(trials)

    def one_trial(child) -> tuple[float, float]:
        scm = sample_covariance(generate_panel(SyntheticSpec(n, m + 1, seed=child)))
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
    """The one method spec: an `eval --method` entry or the `shrink`/`truncate` flags.

    fit_method fits it. kind: "scm_ridge" (shrink with a small q, 0.01
    when q is left at 0: the stand-in for raw SCM when inversion is
    required), "shrink", or "truncated_pc". rho applies to the
    constant-correlation target only, in [0, 1), and may be None for
    "auto"; a given rho shows in the label. q must be in [0, 1], as for
    shrinkage, and f_hat an int >= 0 (its upper bound needs the
    spectrum). InvalidSpec, RhoOutOfRange or FhatOutOfRange otherwise.
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
        _require_q(self.q)
        if not _is_int_at_least(self.f_hat, 0):
            raise FhatOutOfRange(f"f_hat must be an int >= 0, got {self.f_hat}")
        _require_target_rho(self.target_kind, self.rho)

    @property
    def label(self) -> str:
        rho = "" if self.rho is None else f",rho={self.rho}"
        if self.kind == "scm_ridge":
            target = "" if self.target_kind == "diagonal" else f",{self.target_kind}"
            return f"scm+ridge(q={self.q}{target}{rho})"
        if self.kind == "shrink":
            return f"shrink(q={self.q},{self.target_kind}{rho})"
        return f"truncated_pc(f_hat={self.f_hat},{self.target_kind}{rho})"


def fit_method(scm: SampleCovariance, pcs: LowRank,
               cfg: MethodConfig) -> tuple[FactorModel, FactorModel, np.ndarray | None]:
    """(model, target, nu): cfg fitted on an SCM and its pairs pcs = spectral_decompose(scm).

    The target is build_target's for cfg and must match scm as in
    regularizers; nu is truncated_pc_model's rescaling, None for shrinkage.
    """
    target = build_target(scm, cfg.target_kind, cfg.rho)
    if cfg.kind == "truncated_pc":
        model, nu = truncated_pc_model(scm, pcs, target, cfg.f_hat)
        return model, target, nu
    _require_matched_target(scm, target)
    return shrink_as_factor_model(pcs, target, cfg.q), target, None


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
        width = max([36, *(len(r.label) for r in self.records)])
        header = f"{'method':<{width}} {'in_err':>12} {'out_err':>12} {'real_var':>12}"
        lines = [header, "-" * len(header)]
        for r in self.records:
            rv = f"{r.realized_variance:.6g}" if r.invertible else "singular"
            lines.append(
                f"{r.label:<{width}} {r.in_sample_error:>12.6g} "
                f"{r.out_of_sample_error:>12.6g} {rv:>12}"
            )
        return "\n".join(lines)


class _OffdiagGram:
    """Gamma_ab = <offdiag B_a, offdiag B_b>_F over the bases of one run.

    A basis is a LowRank (an SCM enters as its root) or a dense N x N
    array (the truth). For two LowRanks,
    Gamma_ab = s_a^T (P o P) s_b - h_a . h_b with P = W_a^T W_b, in
    O(N r_a r_b); the truth enters through truth @ W_a, the only O(N^2)
    step. A run's bases are near unit scale (_split_scms), so every entry
    is finite. Each entry is computed once and kept with its bases, so
    their ids stay unique.
    """

    def __init__(self):
        self._entries = {}

    def entry(self, a, b) -> float:
        """Gamma_ab."""
        key = (id(a), id(b))
        if key not in self._entries:
            fa, fb = (b, a) if isinstance(a, np.ndarray) else (a, b)
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

        err^2 is rounded with an absolute error of order eps sum |c_a c_b Gamma_ab|.
        """
        gamma = np.array([[self.entry(a, b) for b in bases] for a in bases])
        c = np.asarray(coef, dtype=float)
        return np.sqrt(np.maximum(np.einsum("iq,ij,jq->q", c, gamma, c), 0.0))

    def norm(self, terms: list) -> float:
        """norms of one list of (c_a, B_a) terms."""
        coef = np.array([[c] for c, _ in terms])
        return float(self.norms([b for _, b in terms], coef)[0])


def _leading_pc(scm: SampleCovariance) -> np.ndarray:
    """Unit leading PC of scm: R u / ||R u||, u the top eigenvector of R^T R."""
    r = scm.root.w
    v = r @ np.linalg.eigh(r.T @ r)[1][:, -1]
    return v / np.linalg.norm(v)


def _split_scms(panel: ReturnsPanel, split: float):
    """(n_train, n_test, e, train SCM, test SCM) of a split, both SCMs of 2^-e returns.

    e has max |returns| in [2^(e-1), 2^e), so the scaled cells are below 1
    in magnitude. A power of 2 changes no mantissa: every fit, q and PC
    comes out as at full scale, and each error or variance is 2^2e times
    its scaled value. The full-scale SCMs must still be finite.
    """
    if not 0.0 < split < 1.0:
        raise SplitTooSmall(f"split must be in (0, 1), got {split}")
    t = panel.n_obs
    n_train = int(round(split * t))
    n_test = t - n_train
    if n_train < 2 or n_test < 2:
        raise SplitTooSmall("both segments need at least 2 observations")
    r = panel.returns
    e = int(np.frexp(max(r.max(), -r.min()))[1])
    r = np.ldexp(r, -e)
    scms = [sample_covariance(ReturnsPanel(seg, panel.asset_ids))
            for seg in (r[:, :n_train], r[:, n_train:])]
    # |C_ij| <= sqrt(C_ii C_jj): 2^2e C is finite where its variances are
    if any(np.frexp(scm.variances.max())[1] + 2 * e > 1024 for scm in scms):
        raise ValidationError("covariance has non-finite entries")
    return n_train, n_test, e, *scms


def _full_scale(value: float | None, e: int, name: str) -> float | None:
    """2^2e value: a record of the scaled panel at the panel's own scale."""
    if value is None:
        return None
    if np.frexp(value)[1] + 2 * e > 1024:
        raise NumericalError(f"{name} exceeds the float range")
    return float(np.ldexp(value, 2 * e))


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
    The run fits 2^-e times the returns (_split_scms) and scales each
    error and realized variance back by 2^2e; one beyond the float range
    raises NumericalError. truth, when given, must be a finite N x N
    matrix that fits the run's scale: it enters as 2^-2e truth, and N and
    max |2^-2e truth|, each rounded up to a power of 2, must have a
    product of at most 2^511, so its Gram entry stays below 2^1022. The
    errors come from _OffdiagGram, so no dense estimate or N x N
    difference is built; the leading-PC overlap reads the test segment's
    top PC off its root.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        n = panel.n_assets
        if truth.shape != (n, n):
            raise DimensionMismatch(f"truth must be {n} x {n}, got shape {truth.shape}")
        if not np.all(np.isfinite(truth)):
            raise ValidationError("truth has non-finite entries")
    n_train, n_test, e, scm_train, scm_test = _split_scms(panel, split)
    if truth is not None:
        if np.frexp(max(truth.max(), -truth.min()))[1] - 2 * e + n.bit_length() > 511:
            raise ValidationError("truth does not fit the panel's scale")
        truth = np.ldexp(truth, -2 * e)
    pcs_train = spectral_decompose(scm_train)
    pc_overlap = float(abs(pcs_train.w[:, 0] @ _leading_pc(scm_test)))

    gram = _OffdiagGram()
    records = []
    for cfg in methods:
        model, target, nu = fit_method(scm_train, pcs_train, cfg)
        # (coefficient, basis) terms with the off-diagonal of the fit and of the fit
        # minus C, whose terms that cancel are left out: q (T - C) for shrink, the
        # nu-rescaled target minus the dropped PCs for truncated-PC
        loading, f, q = target.factor, cfg.f_hat, cfg.q
        if nu is None:
            fit = [(q, loading), (1.0 - q, scm_train.root)]
            in_sample = [(q, loading), (-q, scm_train.root)]
        else:
            rescaled = LowRank(nu[:, None] * loading.w, loading.s)
            fit = [(1.0, rescaled), (1.0, pcs_train.pairs(0, f))]
            in_sample = [(1.0, rescaled), (-1.0, pcs_train.pairs(f))]
        try:
            realized = scm_test.quadratic_form(min_variance_weights(model))
        except (SingularSpecificRisk, IllConditioned):
            realized = None
        scaled = {"in_sample_error": gram.norm(in_sample),
                  "out_of_sample_error": gram.norm(fit + [(-1.0, scm_test.root)]),
                  "truth_error": None if truth is None else gram.norm(fit + [(-1.0, truth)]),
                  "realized_variance": realized}
        records.append(MethodRecord(
            label=cfg.label, invertible=realized is not None, leading_pc_overlap=pc_overlap,
            **{k: _full_scale(v, e, f"{cfg.label} {k}") for k, v in scaled.items()}))
    return StabilityReport(records=tuple(records), n_train=n_train, n_test=n_test)


def _grid_errors(scm_train: SampleCovariance, scm_test: SampleCovariance,
                 target: FactorModel, grid: list[float]) -> np.ndarray:
    """grid_search_q's closed-form error of shrink(q, target), one per grid q."""
    _require_matched_target(scm_train, target)
    q = np.asarray(grid, dtype=float)
    return _OffdiagGram().norms([target.factor, scm_train.root, scm_test.root],
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
    _, _, _, scm_train, scm_test = _split_scms(panel, split)
    target = build_target(scm_train, target_kind)
    errors = _grid_errors(scm_train, scm_test, target, grid)
    return grid[min(range(len(grid)), key=lambda i: (errors[i], -grid[i]))]
