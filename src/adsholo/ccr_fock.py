"""Truncated bosonic Fock representation.

The one-particle space is C^m; the Fock space is truncated at total
occupation n_max, so CCR identities hold exactly only below the cutoff.
Each representation computes its ladder pattern, and the CSR layout of the
Hermitian field pattern, once; a field operator only fills in the data.
Weyl operators exp(i phi(h)) are never formed: weyl_apply applies one to
vectors by its Chebyshev-Bessel series (Tal-Ezer & Kosloff 1984), and every
Weyl identity is checked on the vectors it produces.  A batch of b
displacements is one Weyl operator on the direct sum of b copies of the
Fock space, the same series on a block-diagonal field.  Its callers are
ccr-verify and kw-verify; the Weyl-convergence experiment needs only
Gaussian overlaps of Weyl operators, which holography takes in closed form.
A quasi-free state enters only through its one-particle structure K
(phase_core.one_particle_structure): the field of a phase-space vector v is
segal_field(rep, K v) on the Fock space over C^m, m the number of rows of K.
A displacement past WEYL_NORM_CAP, which the cutoff cannot support, or
vectors of the wrong shape raise phase_core.ShapeError.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import sparse, special

from .phase_core import ShapeError

WEYL_NORM_CAP = 2.0     # coherent displacement the default cutoff can support
EXP_TOLERANCE = 1e-10
SERIES_CUT = 1e-17      # Bessel coefficients below this end the Weyl series


@dataclass(frozen=True)
class FockRep:
    """Occupation-number basis, total occupation <= n_max, lexicographic.

    ladder is (row, col, mode, sqrt(n)) over every nonzero of the mode
    annihilators: a_mode has sqrt(n_mode) at (index of n - e_mode, index of n).
    pattern is (indptr, indices, order), the CSR layout of the field
    pattern, the ladder positions followed by their transposes: entry p of
    the CSR data is entry order[p] of that list, rows ascending and columns
    sorted within each row.
    """

    one_particle_dim: int
    n_max: int
    basis: tuple
    index: dict = field(repr=False)
    ladder: tuple = field(repr=False, compare=False)
    pattern: tuple = field(repr=False, compare=False)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def vacuum_index(self):
        return self.index[(0,) * self.one_particle_dim]


def fock_rep(m, n_max):
    if m < 1 or n_max < 1:
        raise ShapeError("need one_particle_dim >= 1 and n_max >= 1")
    # stars and bars: bars c_0 < ... < c_{m-1} give n_j = c_j - c_{j-1} - 1
    bars = np.array(list(combinations(range(n_max + m), m)))
    occ = np.diff(bars, axis=1, prepend=-1) - 1
    basis = tuple(map(tuple, occ.tolist()))
    index = {n: i for i, n in enumerate(basis)}
    col, mode = np.nonzero(occ > 0)
    low = occ[col] - np.eye(m, dtype=occ.dtype)[mode]
    # basis index of low: over j, the rows equal to low before j, smaller at j
    k, room = m - np.arange(m), n_max - np.cumsum(low, axis=1) + low
    row = np.rint((special.comb(k + room, k) - special.comb(
        k + room - low, k)).sum(axis=1)).astype(np.int64)
    ladder = (row, col, mode, np.sqrt(occ[col, mode]))
    # no position repeats, so row-major order with sorted columns is the
    # order a COO to CSR conversion of the pattern produces
    rows, cols = np.concatenate([row, col]), np.concatenate([col, row])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows,
                                                        minlength=len(occ)))])
    return FockRep(m, n_max, basis, index, ladder, (indptr, cols[order], order))


def _check_vectors(rep, h, norm_cap=np.inf):
    """h as a complex vector of length m, or a (b, m) batch of them."""
    h = np.asarray(h, dtype=complex)
    m = rep.one_particle_dim
    if h.ndim not in (1, 2) or h.shape[-1] != m or h.size == 0:
        raise ShapeError(
            f"expected a vector of length {m} or a batch of them, "
            f"got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ShapeError("vector has non-finite entries")
    nrm = float(np.linalg.norm(h, axis=-1).max())
    if nrm > norm_cap:
        raise ShapeError(
            f"||h|| = {nrm:.3f} exceeds the displacement cap {norm_cap}")
    return h


def segal_field(rep, h):
    """phi(h) = (a*(h) + a(h)) / sqrt(2), self-adjoint on the truncation.
    For a (b, m) batch h, the block-diagonal direct sum of phi(h_1), ...,
    phi(h_b) on b copies of the Fock space.

    a(h) = sum_i conj(h_i) a_i puts sqrt(n_i) conj(h_i) at each ladder
    position; a*(h) puts the conjugates at the transposed positions.  Only
    the data is computed here; the layout is rep.pattern, offset per block.
    """
    _, _, mode, sqrt_n = rep.ladder
    indptr, indices, order = rep.pattern
    hs = _check_vectors(rep, h).reshape(-1, rep.one_particle_dim)
    low = sqrt_n * np.conj(hs[:, mode]) / np.sqrt(2.0)
    block = np.arange(len(hs))[:, None]
    return sparse.csr_matrix(
        (np.concatenate([low, low.conj()], axis=1)[:, order].ravel(),
         (indices + rep.dim * block).ravel(),
         np.concatenate([[0], (indptr[1:] + len(order) * block).ravel()])),
        shape=(len(hs) * rep.dim,) * 2)


def _series_coefficients(a):
    """J_0(a), then 2 i^k J_k(a) up to the last k with |J_k(a)| >= SERIES_CUT.

    Past k = a, |J_k(a)| decreases in k.  The search window k < a +
    12 a^(1/3) + 20 spans twelve widths of its Airy transition; for a up to
    3000 the cut falls at least 15 terms inside it."""
    j = special.jv(np.arange(int(a + 12.0 * np.cbrt(a)) + 20), a)
    n = max(2, int(np.flatnonzero(np.abs(j) >= SERIES_CUT)[-1]) + 1)
    c = 2.0 * j[:n] * np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
    c[0] = j[0]
    return c


def weyl_apply(rep, h, psis):
    """exp(i phi(h)) applied to a vector or a (dim, k) block of vectors.

    For a (b, m) batch h, the b operators exp(i phi(h_j)) on a leading axis
    of length b: each on the same vector or block when psis.ndim <= 2, or
    each on its own block when psis has shape (b, dim, k).  Which one is
    read from psis.ndim alone, since dim may equal b.

    With a >= ||phi|| and x = phi / a, the Jacobi-Anger expansion
    e^{i a x} = J_0(a) + 2 sum_k i^k J_k(a) T_k(x) is summed by the
    Chebyshev recurrence T_{k+1} = 2 x T_k - T_{k-1} on the whole block
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  A batch is one
    Weyl operator on the direct sum of b Fock spaces, so one series, with a
    at least the largest ||phi(h_j)||, serves every block.
    """
    h = _check_vectors(rep, h, WEYL_NORM_CAP)
    b = len(h) if h.ndim == 2 else 1
    psis = np.asarray(psis, dtype=complex)
    if not (psis.ndim == 3 and h.ndim == 2):    # shared by every h
        psis = np.broadcast_to(psis, (b,) + psis.shape)
    if psis.shape[:2] != (b, rep.dim) or psis.ndim > 3:
        raise ShapeError("Fock vectors must match the representation dim, "
                         "and a block per h the number of h")
    x = psis.reshape((b * rep.dim,) + psis.shape[2:])
    phi = segal_field(rep, h)
    # the 1-norm, the largest column sum of |phi|, bounds the spectral
    # radius of a Hermitian matrix; on the direct sum it is the largest
    # over the blocks
    a = float(np.bincount(phi.indices, np.abs(phi.data)).max())
    if a == 0.0:
        out = x.copy()
    else:
        c = _series_coefficients(a)
        x2 = phi * (2.0 / a)            # 2x, so that T_{k+1} = x2 T_k - T_{k-1}
        t_prev, t = x, 0.5 * (x2 @ x)
        out = c[0] * t_prev + c[1] * t
        for ck in c[2:]:
            t_prev, t = t, x2 @ t - t_prev
            out += ck * t
    out = out.reshape(psis.shape)
    return out if h.ndim == 2 else out[0]


def quasifree_expectation_check(rep, k, ps, v):
    """Absolute gap between the truncated vacuum expectation of
    exp(i phi(K v)) and the closed Gaussian form exp(-eta(v, v) / 2), for
    K = k the one-particle structure of ps, so that ||K v||^2 = 2 eta(v, v)."""
    v = np.asarray(v, dtype=float)
    vac = np.zeros(rep.dim)
    vac[rep.vacuum_index] = 1.0
    lhs = complex(weyl_apply(rep, k @ v, vac)[rep.vacuum_index])
    return abs(lhs - float(np.exp(-0.5 * (v @ (ps.eta @ v)))))
