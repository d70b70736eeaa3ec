"""Sample covariance construction and spectral decomposition.

C = (1/M) X X^T over serially demeaned returns X (unbiased denominator
M, not M+1). Eigenvalues within 1e-10 of the largest one from zero are
treated as quasi-null: rounded to zero and dropped from the
decomposition, so the retained count is the numerical rank.

A wide panel (T <= N/2 columns) is decomposed by a thin SVD of X in
O(N T^2); any other SCM by an N x N eigh of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeEigenvalueError, ValidationError, ZeroVarianceAsset
from .panels import DemeanedPanel

QUASI_NULL_REL = 1e-10


@dataclass(frozen=True)
class SampleCovariance:
    """Symmetric N x N sample covariance with its denominator.

    root is the demeaned N x T panel X with C = X X^T / n_obs_minus_one,
    kept only for a wide panel so spectral_decompose can take its thin
    SVD; None otherwise.
    """

    c: np.ndarray
    n_obs_minus_one: int
    root: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError("covariance must be square")
        if self.root is not None and self.root.shape[0] != c.shape[0]:
            raise ValidationError("root must have one row per asset")
        if not np.all(np.isfinite(c)):
            raise ValidationError("covariance has non-finite entries")
        if not np.array_equal(c, c.T):
            raise ValidationError("covariance must be exactly symmetric")
        if np.any(np.diag(c) < 0):
            raise ValidationError("negative variance on the diagonal")

    @property
    def n_assets(self) -> int:
        return self.c.shape[0]

    @property
    def variances(self) -> np.ndarray:
        return np.diag(self.c)

    @classmethod
    def from_matrix(cls, c: np.ndarray) -> "SampleCovariance":
        """Wrap an externally supplied matrix, symmetrizing exactly."""
        c = np.asarray(c, dtype=float)
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check
            sym = 0.5 * (c + c.T)
        return cls(c=sym, n_obs_minus_one=sym.shape[0])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Positive eigenpairs of an SCM, sorted descending.

    components has shape (n_positive, N); row a is the a-th principal
    component. Quasi-null and matching small negative eigenvalues were
    rounded to zero and excluded.
    """

    eigenvalues: np.ndarray
    components: np.ndarray
    quasi_null_threshold: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        pc = np.asarray(self.components, dtype=float)
        ev.setflags(write=False)
        pc.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "components", pc)
        if np.any(ev <= 0):
            raise ValidationError("retained eigenvalues must be positive")
        if np.any(np.diff(ev) > 0):
            raise ValidationError("eigenvalues must be non-increasing")
        if pc.shape[0] != ev.shape[0]:
            raise ValidationError("one component per eigenvalue required")

    @property
    def n_positive(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_assets(self) -> int:
        return self.components.shape[1]

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda(a) V(a) V(a)^T over retained pairs."""
        if self.n_positive == 0:
            return np.zeros((self.n_assets, self.n_assets))
        return (self.components.T * self.eigenvalues) @ self.components


def sample_covariance(x: DemeanedPanel) -> SampleCovariance:
    """C_ij = (1/M) sum_s x_is x_js; keeps X as the root when T <= N/2."""
    m = x.n_obs - 1
    if m < 1:
        raise ValidationError("need at least 2 observations")
    c = (x.x @ x.x.T) / m
    c = 0.5 * (c + c.T)  # exact symmetry; BLAS product is only near-symmetric
    if np.any(np.diag(c) == 0):
        raise ZeroVarianceAsset("asset with zero sample variance")
    wide = 2 * x.n_obs <= x.n_assets
    return SampleCovariance(c=c, n_obs_minus_one=m, root=x.x if wide else None)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = vectors.copy()
    pivots = out[np.arange(out.shape[0]), np.argmax(np.abs(out), axis=1)]
    out[pivots < 0] *= -1.0
    return out


def spectral_decompose(scm: SampleCovariance) -> SpectralDecomposition:
    """Eigendecompose, round quasi-null eigenvalues to zero, sort descending.

    With a root X (wide panel) the eigenpairs come from its thin SVD,
    lambda = s^2 / M and V = U, else from eigh of C; both ascending here.
    """
    if scm.root is None:
        evals, evecs = np.linalg.eigh(scm.c)
    else:
        u, s, _ = np.linalg.svd(scm.root, full_matrices=False)
        evals, evecs = (s ** 2 / scm.n_obs_minus_one)[::-1], u[:, ::-1]
    lam_max = evals[-1] if evals.size else 0.0
    threshold = QUASI_NULL_REL * max(lam_max, 0.0)
    if np.any(evals < -threshold):
        raise NegativeEigenvalueError(
            f"eigenvalue {evals.min():.6g} below -{threshold:.6g}; input not PSD"
        )
    keep = evals > threshold
    # descending order
    evals = evals[keep][::-1]
    evecs = evecs[:, keep][:, ::-1].T
    return SpectralDecomposition(
        eigenvalues=evals,
        components=_fix_signs(evecs),
        quasi_null_threshold=threshold,
    )
