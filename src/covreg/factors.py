"""K-factor covariance models: Delta = diag(xi^2) + Omega Phi Omega^T.

Solves go through the Woodbury identity on a root of Phi, so only one
symmetric positive-definite K x K solve is ever needed; one right-hand
side costs O(N K^2 + K^3). K = 0 is a legal pure-diagonal model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import QUASI_NULL_REL, LowRank
from .errors import (
    IllConditioned,
    SingularSpecificRisk,
    ValidationError,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class FactorModel:
    """specific_risk xi (N,), loadings omega (N, K), fcm phi (K, K)."""

    specific_risk: np.ndarray
    loadings: np.ndarray
    fcm: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        xi = np.atleast_1d(np.array(self.specific_risk, dtype=float))
        omega = np.array(self.loadings, dtype=float)
        phi = np.array(self.fcm, dtype=float)
        if omega.ndim != 2 or phi.ndim != 2:
            raise ValidationError("loadings and fcm must be 2-D")
        for a in (xi, omega, phi):
            a.setflags(write=False)
        object.__setattr__(self, "specific_risk", xi)
        object.__setattr__(self, "loadings", omega)
        object.__setattr__(self, "fcm", phi)

        n, k = omega.shape
        if xi.shape != (n,):
            raise ValidationError("specific risk length must match loadings rows")
        if phi.shape != (k, k):
            raise ValidationError("fcm must be K x K")
        if not all(np.all(np.isfinite(a)) for a in (xi, omega, phi)):
            raise ValidationError("factor model has non-finite entries")
        if np.any(xi < 0):
            raise ValidationError("specific risk must be non-negative")
        # Phi = V diag(theta) V^T: a diagonal Phi is its own spectrum (V = I),
        # any other takes one eigh. The factor part Omega Phi Omega^T is kept
        # as factor = LowRank(W, max(theta, 0)) with W = Omega V, Omega itself if V = I
        theta, w = np.diag(phi), omega
        if np.count_nonzero(phi) > np.count_nonzero(theta):
            if not np.allclose(phi, phi.T, rtol=0, atol=1e-12 * np.abs(phi).max()):
                raise ValidationError("fcm must be symmetric")
            theta, basis = np.linalg.eigh(0.5 * (phi + phi.T))
            w = omega @ basis
        if k and theta.min() < -QUASI_NULL_REL * max(theta.max(), 0.0):
            raise ValidationError("fcm must be positive semi-definite")
        object.__setattr__(self, "factor", LowRank(w, np.maximum(theta, 0.0)))

    @property
    def n_assets(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @classmethod
    def diagonal(cls, specific_risk) -> "FactorModel":
        """K = 0 model with the given specific risks."""
        xi = np.atleast_1d(np.asarray(specific_risk, dtype=float))
        n = xi.shape[0]
        return cls(specific_risk=xi, loadings=np.zeros((n, 0)),
                   fcm=np.zeros((0, 0)))


def dense(model: FactorModel) -> np.ndarray:
    """Assemble diag(xi^2) + Omega Phi Omega^T."""
    d = np.diag(model.specific_risk ** 2)
    if model.n_factors:
        d = d + model.loadings @ model.fcm @ model.loadings.T
    return 0.5 * (d + d.T)


def _woodbury_terms(model: FactorModel):
    """(d_inv, left, core) with Delta^-1 = diag(d_inv) - left core^-1 left^T.

    With D = diag(xi^2) and the factor root B = W diag(sqrt(theta+)),
    Delta = D + B B^T, left = D^-1 B and core = S = I + B^T D^-1 B:
    symmetric with every eigenvalue >= 1, and valid for a singular (PSD)
    Phi. left and core are None when K = 0. Apart from unit eigenvalues,
    S has the spectrum of D^-1/2 Delta D^-1/2. The check bounds cond_2(S)
    = lambda_max(S) by 1 + tr(B^T D^-1 B) = 1 + sum_i (Omega Phi
    Omega^T)_ii / xi_i^2, an O(N K) number that does not change with the
    factor basis or a scaling of Delta.
    """
    xi = model.specific_risk
    xi2 = xi ** 2
    if np.any(xi2 == 0):
        raise SingularSpecificRisk("zero specific risk; dense form may be singular")
    d_inv = 1.0 / xi2
    if model.n_factors == 0:
        return d_inv, None, None
    w, theta = model.factor.w, model.factor.s
    with np.errstate(over="ignore"):  # an overflow fails the check below
        half = w * np.sqrt(theta) / xi[:, None]  # D^-1/2 B
        cond_bound = 1.0 + np.vdot(half, half)
    if not np.isfinite(cond_bound) or cond_bound > COND_LIMIT:
        raise IllConditioned(f"inner system condition bound {cond_bound:.3g}")
    core = half.T @ half
    core[np.diag_indices_from(core)] += 1.0
    return d_inv, half / xi[:, None], core


def invert(model: FactorModel) -> np.ndarray:
    """Inverse of the dense form, D^-1 - left core^-1 left^T."""
    d_inv, left, core = _woodbury_terms(model)
    inv = np.diag(d_inv)
    if core is not None:
        inv -= left @ np.linalg.solve(core, left.T)
    return 0.5 * (inv + inv.T)


def min_variance_weights(model: FactorModel) -> np.ndarray:
    """w = Delta^-1 1 / (1^T Delta^-1 1), in O(N K^2) without the N x N inverse."""
    d_inv, left, core = _woodbury_terms(model)
    raw = d_inv if core is None else d_inv - left @ np.linalg.solve(core, left.sum(axis=0))
    return raw / raw.sum()
