"""K-factor covariance models: Delta = diag(xi^2) + Omega Phi Omega^T.

Solves go through the Woodbury identity so only K x K dense solves are
ever needed; one right-hand side costs O(N K^2 + K^3). K = 0 is a legal
pure-diagonal model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import QUASI_NULL_REL
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
        xi = np.atleast_1d(np.asarray(self.specific_risk, dtype=float))
        omega = np.asarray(self.loadings, dtype=float)
        phi = np.asarray(self.fcm, dtype=float)
        if omega.ndim != 2:
            omega = omega.reshape(xi.shape[0], -1)
        if phi.ndim != 2:
            phi = phi.reshape(omega.shape[1], omega.shape[1])
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
        if np.any(xi < 0):
            raise ValidationError("specific risk must be non-negative")
        if k and not np.allclose(phi, phi.T, rtol=0, atol=1e-12 * max(1.0, np.abs(phi).max())):
            raise ValidationError("fcm must be symmetric")
        if k:
            evals = np.linalg.eigvalsh(0.5 * (phi + phi.T))
            if evals.min() < -QUASI_NULL_REL * max(evals.max(), 0.0):
                raise ValidationError("fcm must be positive semi-definite")

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
    """(d_inv, left, core) with Delta^-1 = diag(d_inv) - left core^-1 Phi left^T.

    The Woodbury identity (D + U Phi U^T)^-1 = D^-1 - D^-1 U (I + Phi U^T
    D^-1 U)^-1 Phi U^T D^-1 stays valid for singular (PSD) Phi; left is
    D^-1 Omega. core is None when K = 0.
    """
    xi2 = model.specific_risk ** 2
    if np.any(xi2 == 0):
        raise SingularSpecificRisk("zero specific risk; dense form may be singular")
    d_inv = 1.0 / xi2
    if model.n_factors == 0:
        return d_inv, None, None
    omega = model.loadings
    core = np.eye(model.n_factors) + model.fcm @ (omega.T * d_inv) @ omega
    cond = np.linalg.cond(core)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"inner system condition estimate {cond:.3g}")
    return d_inv, omega * d_inv[:, None], core


def _woodbury_solve(model: FactorModel, rhs: np.ndarray) -> np.ndarray:
    """Delta^-1 rhs for an (N, R) right-hand side."""
    d_inv, left, core = _woodbury_terms(model)
    d_inv_rhs = d_inv[:, None] * rhs
    if core is None:
        return d_inv_rhs
    return d_inv_rhs - left @ np.linalg.solve(core, model.fcm @ (left.T @ rhs))


def invert(model: FactorModel) -> np.ndarray:
    """Inverse of the dense form, D^-1 - left (core^-1 Phi) left^T."""
    d_inv, left, core = _woodbury_terms(model)
    inv = np.diag(d_inv)
    if core is not None:
        inv -= (left @ np.linalg.solve(core, model.fcm)) @ left.T
    return 0.5 * (inv + inv.T)


def min_variance_weights(model: FactorModel) -> np.ndarray:
    """w = Delta^-1 1 / (1^T Delta^-1 1), in O(N K^2) without the N x N inverse."""
    raw = _woodbury_solve(model, np.ones((model.n_assets, 1)))[:, 0]
    return raw / raw.sum()
