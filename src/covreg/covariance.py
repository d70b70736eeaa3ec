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

from functools import cached_property

import numpy as np

from .errors import NegativeEigenvalueError, ValidationError, ZeroVarianceAsset
from .panels import ReturnsPanel, demean

QUASI_NULL_REL = 1e-10


class LowRank:
    """B = W diag(s) W^T with W N x r, s (r,); its diagonal h is given or formed on first read."""

    def __init__(self, w: np.ndarray, s: np.ndarray, h: np.ndarray | None = None):
        self.w, self.s = w, s
        if h is not None:
            self.h = h

    @cached_property
    def h(self) -> np.ndarray:
        return (self.w * self.w) @ self.s

    def pairs(self, start: int = 0, stop: int | None = None) -> "LowRank":
        """The columns start:stop as LowRank(w[:, start:stop], s[start:stop])."""
        return LowRank(self.w[:, start:stop], self.s[start:stop])


class SampleCovariance:
    """Symmetric N x N sample covariance with its denominator.

    Built from a panel, it keeps the demeaned N x T panel x, with
    C = x x^T / n_obs_minus_one, rejects a non-finite x or an asset of
    zero variance, and forms the dense c only on first read: variances
    and s^T C s come from x in O(N T), summed over rows scaled by powers
    of 2: an entry overflows only if it is itself too large. Built from a
    matrix c, it has no x.
    """

    def __init__(self, c: np.ndarray | None, n_obs_minus_one: int,
                 x: np.ndarray | None = None):
        self.n_obs_minus_one, self.x = n_obs_minus_one, x
        self._c = None
        if x is not None:
            peak = np.maximum(x.max(axis=1), -x.min(axis=1))
            if not np.all(np.isfinite(peak)):
                raise ValidationError("covariance has non-finite entries")
            # x_i = 2^e_i xs_i with max |xs_i| in [1/2, 1): row products stay in range
            self._e = e = np.frexp(peak)[1]
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
        c = np.array(c, dtype=float)  # a copy: the caller's c stays writeable
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
            # exact symmetry, which also lets serialize's writers format each
            # mirrored pair once; the BLAS product is only near-symmetric
            c = 0.5 * (c + c.T)
            np.ldexp(c, self._e[:, None] + self._e, out=c)
            np.fill_diagonal(c, self.variances)
            c.setflags(write=False)
            self._c = c
        return self._c

    @property
    def n_assets(self) -> int:
        return self.variances.shape[0]

    @cached_property
    def root(self) -> LowRank:
        """C as LowRank(R, 1/M, variances), built once; R has at most N columns.

        R is x itself when T <= N, else the N x N factor of a QR of x^T, so
        products of roots cost O(N min(N, T)^2). Needs x.
        """
        x = self.x
        if x is None:
            raise ValidationError("an SCM built from a matrix has no panel root")
        r = x if x.shape[1] <= x.shape[0] else np.linalg.qr(x.T, mode="r").T
        return LowRank(r, np.full(r.shape[1], 1.0 / self.n_obs_minus_one), self.variances)

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
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError("covariance must be square")
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check
            sym = 0.5 * (c + c.T)
        return cls(c=sym, n_obs_minus_one=sym.shape[0])


def sample_covariance(panel: ReturnsPanel) -> SampleCovariance:
    """C_ij = (1/M) sum_s x_is x_js, x = demean(panel) kept; c is formed on first read."""
    return SampleCovariance(c=None, n_obs_minus_one=panel.n_obs - 1, x=demean(panel))


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


def spectral_decompose(scm: SampleCovariance) -> LowRank:
    """The positive eigenpairs as a read-only LowRank(V, lambda), lambda descending.

    Quasi-null eigenvalues are rounded to zero and dropped, so V has one
    column per retained pair. A wide panel (x with T <= N/2 columns)
    takes a thin SVD of x, lambda = (s / sqrt(M))^2 and V = U, any other
    SCM eigh of C; both ascending here.
    """
    x = scm.x
    if x is None or 2 * x.shape[1] > x.shape[0]:
        evals, evecs = np.linalg.eigh(scm.c)
    else:
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check
            evals = ((s / np.sqrt(scm.n_obs_minus_one)) ** 2)[::-1]
        evecs = u[:, ::-1]
    keep = evals > _quasi_null_threshold(evals)
    # descending order; V^T is kept row-major, one PC per row
    rows = _fix_signs(evecs[:, keep][:, ::-1].T)
    evals = evals[keep][::-1]
    rows.setflags(write=False)
    evals.setflags(write=False)
    return LowRank(rows.T, evals)
