"""Sample covariance construction and spectral decomposition.

C = (1/M) X X^T over serially demeaned returns X (unbiased denominator
M, not M+1). Eigenvalues within 1e-10 of the largest one from zero are
treated as quasi-null: rounded to zero and dropped from the
decomposition, so the retained count is the numerical rank.

A panel's SCM keeps X and forms the dense C only when something reads
it. A wide panel (T <= N/2 columns) is decomposed by a thin SVD of X in
O(N T^2); any other SCM by an N x N eigh of C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeEigenvalueError, ValidationError, ZeroVarianceAsset
from .panels import DemeanedPanel

QUASI_NULL_REL = 1e-10


class SampleCovariance:
    """Symmetric N x N sample covariance with its denominator.

    Built from a panel, it keeps the demeaned N x T panel x, with
    C = x x^T / n_obs_minus_one, rejects an asset of zero variance, and
    forms the dense c only on first read: variances and s^T C s come
    from x in O(N T), summed over rows scaled by powers of 2: an entry
    overflows only if it is itself too large. Built from a matrix c, it has no x.
    """

    def __init__(self, c: np.ndarray | None, n_obs_minus_one: int,
                 x: np.ndarray | None = None):
        self.n_obs_minus_one, self.x = n_obs_minus_one, x
        self._c = self._gram_root = None
        if x is not None:
            # x_i = 2^e_i xs_i with max |xs_i| in [1/2, 1): row products stay in range
            self._e = e = np.frexp(np.maximum(x.max(axis=1), -x.min(axis=1)))[1]
            xs = np.ldexp(x, -e[:, None])
            v = np.einsum("ij,ij->i", xs, xs) / n_obs_minus_one
            # |C_ij| <= sqrt(C_ii C_jj): finite variances keep all of C finite
            if np.any(np.frexp(v)[1] + 2 * e > 1024):
                raise ValidationError("covariance has non-finite entries")
            self.variances = np.ldexp(v, 2 * e)
            self.variances.setflags(write=False)
            if np.any(self.variances == 0):
                raise ZeroVarianceAsset("asset with zero sample variance")
            return
        c = np.asarray(c, dtype=float)
        c.setflags(write=False)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError("covariance must be square")
        if not np.all(np.isfinite(c)):
            raise ValidationError("covariance has non-finite entries")
        if not np.array_equal(c, c.T):
            raise ValidationError("covariance must be exactly symmetric")
        if np.any(np.diag(c) < 0):
            raise ValidationError("negative variance on the diagonal")
        self._c, self.variances = c, np.diag(c)

    @property
    def c(self) -> np.ndarray:
        if self._c is None:
            xs = np.ldexp(self.x, -self._e[:, None])
            c = (xs @ xs.T) / self.n_obs_minus_one
            c = 0.5 * (c + c.T)  # exact symmetry; BLAS product is only near-symmetric
            np.ldexp(c, self._e[:, None] + self._e, out=c)
            np.fill_diagonal(c, self.variances)
            c.setflags(write=False)
            self._c = c
        return self._c

    @property
    def n_assets(self) -> int:
        return self.variances.shape[0]

    @property
    def gram_root(self) -> np.ndarray:
        """R with C = R R^T / n_obs_minus_one and at most N columns.

        x itself when T <= N, else the N x N factor of a QR of x^T, so
        products of roots cost O(N min(N, T)^2). Needs x.
        """
        if self.x is None:
            raise ValidationError("an SCM built from a matrix has no panel root")
        if self._gram_root is None:
            x = self.x
            self._gram_root = x if x.shape[1] <= x.shape[0] else np.linalg.qr(x.T, mode="r").T
        return self._gram_root

    def quadratic_form(self, s: np.ndarray) -> float:
        """s^T C s, as ||x^T s||^2 / M when x is kept."""
        if self.x is None:
            return float(s @ self._c @ s)
        y = s @ self.x
        return float(y @ y) / self.n_obs_minus_one

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
    """C_ij = (1/M) sum_s x_is x_js, kept as x; c is formed on first read."""
    m = x.n_obs - 1
    if m < 1:
        raise ValidationError("need at least 2 observations")
    return SampleCovariance(c=None, n_obs_minus_one=m, x=x.x)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = vectors.copy()
    pivots = out[np.arange(out.shape[0]), np.argmax(np.abs(out), axis=1)]
    out[pivots < 0] *= -1.0
    return out


def _quasi_null_threshold(evals: np.ndarray) -> float:
    """QUASI_NULL_REL * max(lambda_max, 0) of ascending evals, which must be finite and >= -it."""
    if not np.all(np.isfinite(evals)):
        raise ValidationError("covariance has a non-finite eigenvalue")
    threshold = QUASI_NULL_REL * max(evals[-1] if evals.size else 0.0, 0.0)
    if np.any(evals < -threshold):
        raise NegativeEigenvalueError(
            f"eigenvalue {evals.min():.6g} below -{threshold:.6g}; input not PSD"
        )
    return threshold


def spectral_decompose(scm: SampleCovariance) -> SpectralDecomposition:
    """Eigendecompose, round quasi-null eigenvalues to zero, sort descending.

    A wide panel (x with T <= N/2 columns) takes a thin SVD of x, lambda =
    (s / sqrt(M))^2 and V = U, any other SCM eigh of C; both ascending here.
    """
    x = scm.x
    if x is None or 2 * x.shape[1] > x.shape[0]:
        evals, evecs = np.linalg.eigh(scm.c)
    else:
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check
            evals = ((s / np.sqrt(scm.n_obs_minus_one)) ** 2)[::-1]
        evecs = u[:, ::-1]
    threshold = _quasi_null_threshold(evals)
    keep = evals > threshold
    # descending order
    evals = evals[keep][::-1]
    evecs = evecs[:, keep][:, ::-1].T
    return SpectralDecomposition(
        eigenvalues=evals,
        components=_fix_signs(evecs),
        quasi_null_threshold=threshold,
    )
