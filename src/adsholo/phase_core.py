"""Covariance/symplectic linear algebra on a finite-dimensional real phase space.

A phase space carries a positive semidefinite symmetric form ``eta`` (the
state covariance) and an antisymmetric form ``sigma``.  The one-particle
structure of the quasi-free state they define is one factorization
K^H K = 2 eta + i sigma of a Hermitian form, which exists exactly when sigma
is dominated by the covariance.

Subspace geometry (span bases, inclusion residuals) works on plain arrays in
coordinates where eta is the identity, as it is for the ground state in the
mode coordinates: the span of a generator matrix is the rank cutoff of its
SVD, and residuals are Euclidean.
"""

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """A computation cannot run on its inputs or settings; the message names
    the cause.  It is the package's one refusal type, and the command line's
    ConfigError is its only other error class."""


# numerical tolerances for double-precision Gram computations
RANK_TOLERANCE = 1e-10       # relative singular value cutoff
NUM_TOLERANCE = 1e-9         # residuals of exact matrix identities


def _as_matrix(a, d=None):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise ShapeError(f"expected a {d}x{d} matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class PhaseSpace:
    """Real phase space with covariance eta and (pre-)symplectic form sigma."""

    dim: int
    eta: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("dim must be positive")
        eta = _as_matrix(self.eta, self.dim)
        sigma = _as_matrix(self.sigma, self.dim)
        scale = max(np.abs(eta).max(), 1.0)
        if np.abs(eta - eta.T).max() > NUM_TOLERANCE * scale:
            raise ShapeError("eta is not symmetric")
        sscale = max(np.abs(sigma).max(), 1.0)
        if np.abs(sigma + sigma.T).max() > NUM_TOLERANCE * sscale:
            raise ShapeError("sigma is not antisymmetric")
        object.__setattr__(self, "eta", 0.5 * (eta + eta.T))
        object.__setattr__(self, "sigma", 0.5 * (sigma - sigma.T))


def one_particle_structure(ps):
    """The (m, d) complex matrix K with K^H K = 2 eta + i sigma: the
    one-particle structure of the quasi-free state of (eta, sigma), unique up
    to a unitary on C^m (Kay & Wald, Phys. Rep. 207, 1991, Appendix A).

    The Hermitian form is positive semidefinite exactly when sigma is
    dominated by the covariance, |sigma(v, w)|^2 <= 4 eta(v, v) eta(w, w);
    an eigenvalue below -NUM_TOLERANCE max(mu_max, 1) raises ShapeError.
    K is sqrt(mu) V^H on the eigenpairs with mu above RANK_TOLERANCE mu_max,
    so m is the rank of the form: d / 2 for a pure state, more for a mixed
    one.  The field of v is the Segal field of K v, whose commutators are
    i sigma and whose vacuum expectations are exp(-eta(v, v) / 2).
    """
    mu, v = np.linalg.eigh(2.0 * ps.eta + 1j * ps.sigma)
    if mu[0] < -NUM_TOLERANCE * max(mu[-1], 1.0):
        raise ShapeError(
            f"2 eta + i sigma has eigenvalue {mu[0]:.3e} < 0: sigma is not "
            "dominated by the covariance")
    keep = mu > RANK_TOLERANCE * mu[-1]
    return np.sqrt(mu[keep])[:, None] * v[:, keep].conj().T


def span_basis(g):
    """Orthonormal d x r basis of the column span of g (d x n): the left
    singular vectors whose singular values exceed RANK_TOLERANCE times the
    largest.  A d x 0 input gives a d x 0 basis."""
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    return u[:, s > RANK_TOLERANCE * s.max(initial=0.0)]


def relative_residuals(basis, w):
    """||w_i - U U^T w_i|| / ||w_i|| for each column w_i of w (d x n),
    where U = basis has orthonormal columns; 0 for a zero column."""
    norms = np.linalg.norm(w, axis=0)
    res = np.linalg.norm(w - basis @ (basis.T @ w), axis=0)
    return res / np.where(norms > 0, norms, 1.0)
