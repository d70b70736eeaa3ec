"""Shrinkage targets, shrinkage, and the truncated-PC regularizer.

Two facts drive this module. First, shrinking an SCM toward a K-factor
target with constant q yields exactly a (K+F)-factor model whose factor
covariance is block-diagonal: q Phi on the target block and (1-q)
diag(lambda) on the principal-component block. shrink_as_factor_model
returns that FactorModel; tests verify its dense form against
shrink_dense. Second, keeping only the top F_hat principal components
and rescaling the target by per-asset coefficients nu_i restores the
diagonal without any shrinkage constant; truncated_pc_model returns
that FactorModel and nu. A target must match its SCM: the same N, and a
diagonal within DIAG_MATCH_REL (1e-10) relative of C_ii, else DiagonalMismatch.
"""

from __future__ import annotations

import numpy as np

from .covariance import LowRank, SampleCovariance
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


def _require_matched_target(scm: SampleCovariance, target: FactorModel) -> None:
    """The one target check: same N as scm, diagonal within DIAG_MATCH_REL of C_ii."""
    if target.n_assets != scm.n_assets:
        raise DimensionMismatch("target size differs from SCM")
    mismatch = np.abs(target.specific_risk ** 2 + target.factor.h - scm.variances)
    if np.any(mismatch > DIAG_MATCH_REL * scm.variances):
        raise DiagonalMismatch("target diagonal must equal SCM diagonal")


def _require_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must be in [0, 1], got {q}")


def _require_rho(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise RhoOutOfRange(f"rho must be in [0, 1), got {rho}")


def _require_target_rho(target_kind: str, rho: float | None) -> None:
    """A given rho (None is "auto") needs the constant_correlation target and [0, 1)."""
    if rho is None:
        return
    if target_kind != "constant_correlation":
        raise InvalidSpec(f"rho applies only to the constant_correlation target, "
                          f"not {target_kind}")
    _require_rho(rho)


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
    _require_rho(rho)
    var = _require_positive_variances(scm)
    sigma = np.sqrt(var)
    xi = np.sqrt((1.0 - rho) * var)
    omega = (np.sqrt(rho) * sigma)[:, None]
    return FactorModel(specific_risk=xi, loadings=omega, fcm=np.ones((1, 1)))


def build_target(scm: SampleCovariance, kind: str, rho: float | None = None
                 ) -> FactorModel:
    """Target named kind (one of TARGET_KINDS) for scm.

    rho applies to the constant-correlation target only; None estimates it.
    """
    _require_target_rho(kind, rho)
    if kind == "diagonal":
        return diagonal_target(scm)
    if kind == "constant_correlation":
        return constant_correlation_target(scm, estimate_rho(scm) if rho is None else rho)
    raise InvalidSpec(f"unknown target kind {kind!r}")


def estimate_rho(scm: SampleCovariance) -> float:
    """Mean pairwise correlation, clamped to [0, 0.999]."""
    var = _require_positive_variances(scm)
    s = 1.0 / np.sqrt(var)
    n = scm.n_assets
    # s^T C s sums the correlation matrix without forming it; the SCM is
    # exactly symmetric, so the off-diagonal mean is the upper triangle's
    rho = float((scm.quadratic_form(s) - np.sum(var * s * s)) / (n * (n - 1)))
    return min(max(rho, 0.0), 0.999)


def _block_fcm(target_fcm: np.ndarray, pc_variances: np.ndarray) -> np.ndarray:
    """blockdiag(target_fcm, diag(pc_variances)), exactly zero off the blocks."""
    k, f = target_fcm.shape[0], pc_variances.shape[0]
    phi = np.zeros((k + f, k + f))
    phi[:k, :k] = target_fcm
    phi[k:, k:] = np.diag(pc_variances)
    return phi


def shrink_dense(scm: SampleCovariance, target: FactorModel, q: float) -> np.ndarray:
    """q * dense(target) + (1 - q) * C."""
    _require_q(q)
    _require_matched_target(scm, target)
    return q * dense(target) + (1.0 - q) * scm.c


def shrink_as_factor_model(pcs: LowRank, target: FactorModel, q: float) -> FactorModel:
    """Rewrite the shrunk SCM as a factor model with block-diagonal FCM.

    pcs is LowRank(V, lambda) of C, as spectral_decompose returns it.
    Loadings are the target's K columns followed by the F columns of V;
    the FCM is blockdiag(q * Phi, (1 - q) * diag(lambda));
    specific variance is q * xi^2.
    """
    _require_q(q)
    if target.n_assets != pcs.w.shape[0]:
        raise DimensionMismatch("target size differs from spectral decomposition")
    return FactorModel(
        specific_risk=np.sqrt(q) * target.specific_risk,
        loadings=np.hstack([target.loadings, pcs.w]),
        fcm=_block_fcm(q * target.fcm, (1.0 - q) * pcs.s),
    )


def truncated_pc_model(
    scm: SampleCovariance, pcs: LowRank, target: FactorModel, f_hat: int
) -> tuple[FactorModel, np.ndarray]:
    """(model, read-only nu): the top f_hat principal components and the target rescaled by nu.

    pcs is LowRank(V, lambda) of scm, as spectral_decompose returns it;
    nu_i^2 = (1 / C_ii) * sum over dropped components of lambda V_i^2,
    which pins the dense diagonal to C_ii with no shrinkage constant.
    The rescaling multiplies both the specific risk and the target
    loadings (the target block enters as nu_i nu_j Delta_ij).
    FhatOutOfRange unless f_hat is a Python or numpy int in [0, F].
    """
    f = pcs.s.shape[0]
    if not (isinstance(f_hat, (int, np.integer)) and 0 <= f_hat <= f):
        raise FhatOutOfRange(f"f_hat must be in [0, {f}], got {f_hat}")
    if pcs.w.shape[0] != scm.n_assets:
        raise DimensionMismatch("spectral size differs from SCM")
    _require_matched_target(scm, target)
    var = _require_positive_variances(scm)

    # every dropped term is >= 0; no dropped pair (f_hat = F) gives nu = 0
    nu = np.sqrt(pcs.pairs(f_hat).h / var)
    nu.setflags(write=False)
    kept = pcs.pairs(0, f_hat)
    model = FactorModel(
        specific_risk=nu * target.specific_risk,
        loadings=np.hstack([nu[:, None] * target.loadings, kept.w]),
        fcm=_block_fcm(target.fcm, kept.s),
    )
    return model, nu
