"""Shrinkage targets, shrinkage, and the truncated-PC regularizer.

Two facts drive this module. First, shrinking an SCM toward a K-factor
target with constant q yields exactly a (K+F)-factor model whose factor
covariance is block-diagonal: q Phi on the target block and (1-q)
diag(lambda) on the principal-component block. shrink_as_factor_model
builds that model; tests verify its dense form against shrink_dense.
Second, keeping only the top F_hat principal components and rescaling
the target by per-asset coefficients nu_i restores the diagonal without
any shrinkage constant; truncated_pc_model builds that one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SampleCovariance, SpectralDecomposition
from .errors import (
    DiagonalMismatch,
    DimensionMismatch,
    FhatOutOfRange,
    InvalidSpec,
    RhoOutOfRange,
    ValidationError,
    ZeroVarianceAsset,
)
from .factors import FactorModel, dense

DIAG_MATCH_REL = 1e-10
TARGET_KINDS = ("diagonal", "constant_correlation")


def _require_positive_variances(scm: SampleCovariance) -> np.ndarray:
    var = scm.variances
    if np.any(var <= 0):
        raise ZeroVarianceAsset("target construction needs C_ii > 0")
    return var


@dataclass(frozen=True)
class ShrinkageSpec:
    """Shrinkage constant q in [0, 1] plus a diagonal-matched target."""

    q: float
    target: FactorModel

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValidationError(f"q must be in [0, 1], got {self.q}")

    def validate_against(self, scm: SampleCovariance) -> None:
        t = self.target
        if t.n_assets != scm.n_assets:
            raise DimensionMismatch("target size differs from SCM")
        target_diag = t.specific_risk ** 2 + ((t.loadings @ t.fcm) * t.loadings).sum(axis=1)
        mismatch = np.abs(target_diag - scm.variances)
        if np.any(mismatch > DIAG_MATCH_REL * scm.variances):
            raise DiagonalMismatch("target diagonal must equal SCM diagonal")


@dataclass(frozen=True)
class ShrunkFactorModel:
    """The shrunk SCM written as a (K+F)-factor model."""

    base: FactorModel
    q: float


@dataclass(frozen=True)
class TruncatedPCModel:
    """Top-F_hat PC expansion plus nu-rescaled target, diagonal preserved."""

    base: FactorModel
    nu: np.ndarray
    f_hat: int

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        nu.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        if np.any(nu < 0):
            raise ValidationError("nu entries must be non-negative")


def diagonal_target(scm: SampleCovariance) -> FactorModel:
    """K=0 target matching the SCM variances."""
    var = _require_positive_variances(scm)
    return FactorModel.diagonal(np.sqrt(var))


def constant_correlation_target(scm: SampleCovariance, rho: float) -> FactorModel:
    """1-factor target with off-diagonals rho * sigma_i * sigma_j.

    Requires 0 <= rho < 1: the single-factor loadings are sqrt(rho) *
    sigma_i, so negative uniform correlation has no real representation
    in this form.
    """
    if not 0.0 <= rho < 1.0:
        raise RhoOutOfRange(f"rho must be in [0, 1), got {rho}")
    var = _require_positive_variances(scm)
    sigma = np.sqrt(var)
    xi = np.sqrt((1.0 - rho) * var)
    omega = (np.sqrt(rho) * sigma)[:, None]
    return FactorModel(specific_risk=xi, loadings=omega, fcm=np.ones((1, 1)))


def build_target(scm: SampleCovariance, kind: str, rho: float | None = None
                 ) -> FactorModel:
    """Target named kind (one of TARGET_KINDS) for scm.

    rho applies to the constant-correlation target; None estimates it.
    """
    if kind == "diagonal":
        return diagonal_target(scm)
    if kind == "constant_correlation":
        return constant_correlation_target(scm, estimate_rho(scm) if rho is None else rho)
    raise InvalidSpec(f"unknown target kind {kind!r}")


def estimate_rho(scm: SampleCovariance) -> float:
    """Mean pairwise correlation, clamped to [0, 0.999]."""
    var = _require_positive_variances(scm)
    sigma = np.sqrt(var)
    corr = scm.c / np.outer(sigma, sigma)
    n = scm.n_assets
    iu = np.triu_indices(n, k=1)
    rho = float(corr[iu].mean())
    return min(max(rho, 0.0), 0.999)


def _block_fcm(target_fcm: np.ndarray, pc_variances: np.ndarray) -> np.ndarray:
    """blockdiag(target_fcm, diag(pc_variances)), exactly zero off the blocks."""
    k, f = target_fcm.shape[0], pc_variances.shape[0]
    phi = np.zeros((k + f, k + f))
    phi[:k, :k] = target_fcm
    phi[k:, k:] = np.diag(pc_variances)
    return phi


def shrink_dense(scm: SampleCovariance, spec: ShrinkageSpec) -> np.ndarray:
    """q * dense(target) + (1 - q) * C."""
    spec.validate_against(scm)
    return spec.q * dense(spec.target) + (1.0 - spec.q) * scm.c


def shrink_as_factor_model(
    spectral: SpectralDecomposition, spec: ShrinkageSpec
) -> ShrunkFactorModel:
    """Rewrite the shrunk SCM as a factor model with block-diagonal FCM.

    Loadings are the target's K columns followed by the F principal
    components; the FCM is blockdiag(q * Phi, (1 - q) * diag(lambda));
    specific variance is q * xi^2.
    """
    target = spec.target
    if target.n_assets != spectral.n_assets:
        raise DimensionMismatch("target size differs from spectral decomposition")
    q = spec.q
    base = FactorModel(
        specific_risk=np.sqrt(q) * target.specific_risk,
        loadings=np.hstack([target.loadings, spectral.components.T]),
        fcm=_block_fcm(q * target.fcm, (1.0 - q) * spectral.eigenvalues),
    )
    return ShrunkFactorModel(base=base, q=q)


def truncated_pc_model(
    scm: SampleCovariance,
    spectral: SpectralDecomposition,
    target: FactorModel,
    f_hat: int,
) -> TruncatedPCModel:
    """Keep the top f_hat principal components; rescale the target by nu.

    nu_i^2 = (1 / C_ii) * sum over dropped components of lambda V_i^2,
    which pins the dense diagonal to C_ii with no shrinkage constant.
    The rescaling multiplies both the specific risk and the target
    loadings (the target block enters as nu_i nu_j Delta_ij).
    """
    f = spectral.n_positive
    if not 0 <= f_hat <= f:
        raise FhatOutOfRange(f"f_hat must be in [0, {f}], got {f_hat}")
    if target.n_assets != scm.n_assets or spectral.n_assets != scm.n_assets:
        raise DimensionMismatch("target/spectral size differs from SCM")
    var = _require_positive_variances(scm)
    ShrinkageSpec(q=0.0, target=target).validate_against(scm)

    kept_ev = spectral.eigenvalues[:f_hat]
    kept_pc = spectral.components[:f_hat]
    dropped_ev = spectral.eigenvalues[f_hat:]
    dropped_pc = spectral.components[f_hat:]

    nu_sq = (dropped_pc.T ** 2 @ dropped_ev) / var if f_hat < f else np.zeros_like(var)
    nu = np.sqrt(np.maximum(nu_sq, 0.0))

    base = FactorModel(
        specific_risk=nu * target.specific_risk,
        loadings=np.hstack([nu[:, None] * target.loadings, kept_pc.T]),
        fcm=_block_fcm(target.fcm, kept_ev),
    )
    return TruncatedPCModel(base=base, nu=nu, f_hat=f_hat)
