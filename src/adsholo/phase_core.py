"""Covariance/symplectic linear algebra on a finite-dimensional real phase space.

A phase space carries a strictly positive symmetric form ``eta`` (the state
covariance) and an antisymmetric form ``sigma``.  From the pair one builds the
operator ``b = eta^{-1} sigma / 2``, its polar parts in the eta-geometry, and a
compatible complex structure ``j``.

Subspace geometry (span bases, inclusion residuals) works on plain arrays in
coordinates where eta is the identity, as it is for the ground state in the
mode coordinates: the span of a generator matrix is the rank cutoff of its
SVD, and residuals are Euclidean.
"""

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """A computation cannot run on its inputs or settings: inconsistent
    dimensions or broken (anti)symmetry here, a more specific cause in a
    subclass.  Every error class of the package other than the command
    line's ConfigError derives from it."""


class DegenerateCovarianceError(ShapeError):
    """eta has an eigenvalue at or below the relative rank cutoff."""


class KernelParityError(ShapeError):
    """ker(b) is odd-dimensional, so no anti-involution exists on it."""


class PositivityViolationError(ShapeError):
    """sigma is not dominated by the covariance at the requested factor."""


# numerical tolerances for double-precision Gram computations
RANK_TOLERANCE = 1e-10       # relative singular value cutoff
NUM_TOLERANCE = 1e-9         # residuals of exact matrix identities
SPECTRAL_TOLERANCE = 1e-8    # eigenvalue-of-|b| equality with 1


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


@dataclass(frozen=True)
class KahlerData:
    """Polar data of b = eta^{-1} sigma / 2 and the compatible complex structure.

    The pair arrays live in eta-orthonormal coordinates: column k of
    ``pair_p``/``pair_q`` spans a j-invariant plane on which |b| acts with
    eigenvalue ``pair_lambda[k]``.  ``doubling`` flags the planes whose
    eigenvalue differs from 1 (the non-pure part).
    """

    b: np.ndarray
    b_modulus: np.ndarray
    j: np.ndarray
    pure: bool
    doubled_dim: int
    pair_p: np.ndarray = field(repr=False)
    pair_q: np.ndarray = field(repr=False)
    pair_lambda: np.ndarray = field(repr=False)
    doubling: np.ndarray = field(repr=False)
    eta_sqrt: np.ndarray = field(repr=False)
    eta_sqrt_inv: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PositivityReport:
    holds: bool
    domination_norm: float


def _eta_eig(ps):
    w, v = np.linalg.eigh(ps.eta)
    if w[-1] <= 0.0 or w[0] <= RANK_TOLERANCE * w[-1]:
        raise DegenerateCovarianceError(
            f"eta eigenvalue {w[0]:.3e} below rank cutoff "
            f"{RANK_TOLERANCE * w[-1]:.3e}")
    return w, v


def _eta_sqrts(ps):
    w, v = _eta_eig(ps)
    s = np.sqrt(w)
    return (v * s) @ v.T, (v / s) @ v.T


def check_positivity(ps, c):
    """Check that sigma is dominated by c times the covariance norm.

    domination_norm is the spectral norm of eta^{-1/2} sigma eta^{-1/2};
    c = 1 corresponds to the literal Cauchy-Schwarz domination, c = 2 to
    sigma = 2 eta b with ||b|| <= 1.
    """
    _, eta_isqrt = _eta_sqrts(ps)
    m = eta_isqrt @ ps.sigma @ eta_isqrt
    norm = float(np.linalg.norm(m, ord=2))
    return PositivityReport(holds=norm <= c + NUM_TOLERANCE,
                            domination_norm=norm)


def kahler_from_covariance(ps):
    """Build b, |b| and the complex structure j from (eta, sigma).

    On the eta-orthogonal complement of ker b, j is the polar isometry part
    of b.  On ker b, j pairs consecutive vectors of an eta-orthonormalized
    kernel basis (index order), which fixes an otherwise arbitrary choice.
    """
    rep = check_positivity(ps, 2.0)
    if not rep.holds:
        raise PositivityViolationError(
            f"domination norm {rep.domination_norm:.6f} exceeds 2")
    d = ps.dim
    eta_sqrt, eta_isqrt = _eta_sqrts(ps)
    bt = 0.5 * (eta_isqrt @ ps.sigma @ eta_isqrt)
    bt = 0.5 * (bt - bt.T)

    mu, u = np.linalg.eigh(-bt @ bt)   # symmetric PSD, ascending
    lam = np.sqrt(np.clip(mu, 0.0, None))
    lam_max = lam[-1] if d else 0.0
    kernel_cut = RANK_TOLERANCE * max(lam_max, 1.0)
    in_kernel = lam <= kernel_cut

    n_kernel = int(np.sum(in_kernel))
    if n_kernel % 2 == 1:
        raise KernelParityError(f"ker b has odd dimension {n_kernel}")

    ps_cols, qs_cols, lams = [], [], []

    # kernel planes: pair consecutive kernel basis vectors, q = u_{2i}, p = u_{2i+1}
    # so that the block of j in that basis is [[0, 1], [-1, 0]]
    ker_basis = u[:, in_kernel]
    for i in range(0, n_kernel, 2):
        ps_cols.append(ker_basis[:, i + 1])
        qs_cols.append(ker_basis[:, i])
        lams.append(0.0)

    # nonzero planes: greedy pairing inside eigenspaces of |b|, descending
    nz_idx = np.nonzero(~in_kernel)[0][::-1]
    taken = np.zeros((d, 0))
    for i in nz_idx:
        cand = u[:, i]
        if taken.shape[1]:
            cand = cand - taken @ (taken.T @ cand)
        nrm = np.linalg.norm(cand)
        if nrm < 0.5:
            continue   # already covered by the partner of a previous p
        p = cand / nrm
        bp = bt @ p
        lam_i = np.linalg.norm(bp)
        q = bp / lam_i
        ps_cols.append(p)
        qs_cols.append(q)
        lams.append(float(lam_i))
        taken = np.column_stack([taken, p, q])

    pair_p = np.column_stack(ps_cols) if ps_cols else np.zeros((d, 0))
    pair_q = np.column_stack(qs_cols) if qs_cols else np.zeros((d, 0))
    pair_lambda = np.array(lams)

    jt = pair_q @ pair_p.T - pair_p @ pair_q.T
    bmod_t = (pair_p * pair_lambda) @ pair_p.T + (pair_q * pair_lambda) @ pair_q.T

    doubling = np.abs(pair_lambda - 1.0) > SPECTRAL_TOLERANCE
    doubled_dim = 2 * int(np.sum(doubling))

    return KahlerData(
        b=eta_isqrt @ bt @ eta_sqrt,
        b_modulus=eta_isqrt @ bmod_t @ eta_sqrt,
        j=eta_isqrt @ jt @ eta_sqrt,
        pure=doubled_dim == 0,
        doubled_dim=doubled_dim,
        pair_p=pair_p,
        pair_q=pair_q,
        pair_lambda=pair_lambda,
        doubling=doubling,
        eta_sqrt=eta_sqrt,
        eta_sqrt_inv=eta_isqrt,
    )


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
