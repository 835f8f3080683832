"""Classical Klein-Gordon field theory on the AdS2 strip.

The strip is x in (-pi/2, pi/2) with metric (dt^2 - dx^2)/cos^2 x and
boundary-defining function z = cos x.  Separation of variables reduces the
field equation to the singular Sturm-Liouville problem

    A phi = -phi'' + (nu^2 - 1/4) sec^2(x) phi + W(x) phi = omega^2 phi

with the Dirichlet branch phi ~ beta cos^{nu_+}(x) at both walls,
nu_+ = 1/2 + nu.  Without perturbation the eigenpairs are Gegenbauer:
omega_k = nu_+ + k, phi_k = N_k cos^{nu_+}(x) C_k^{(nu_+)}(sin x); modes are
sign-fixed so that the boundary amplitude at x = -pi/2 is positive.

All L^2(M, g) pairings carry the measure cos^{-2}(x) dt dx; a bulk test
function is kept as time factors times densitized (multiplied by sec^2 x)
space factors on the model grid, a product that is never formed.
The boundary dual map and the unique-continuation scan share one boundary
trace, Re sum_k beta_k e^{-i omega_k t} c_k / sqrt(2 omega_k): both read the
frequencies and amplitudes from _trace_factor.  The retarded propagator
gives the mode coefficients u_k(t) of its solution; its time integral is an
in-module equal-step cumulative Simpson rule (Cartwright 2017): SciPy's
cumulative_simpson on equal steps, with the same floating-point operations
in the same order.

uc_scan samples that trace on one lattice t_start + j step, which it builds
itself up to the last interval end, and folds the samples block by block
into the triangular factor of a running QR decomposition, so its memory
does not grow with the sampling window.

build_model assembles the mode basis without checking it; the command line
front end compares it with its quadrature Gram matrix and with the
finite-difference oracle fd_mode_frequencies, and it checks the config
rules (nu > 0, K >= 1, ...) that the functions here take as given.
Results are plain arrays and numbers (uc_scan gives the smallest singular
value, nan when the region holds too few samples), and what cannot run at
valid settings raises phase_core.ShapeError, which the front end reports
with exit code 2.

_jacobi_grid and fd_mode_frequencies are pure and memoized per process, for
the last _MEMO_SIZE distinct arguments each (a perturbation is a key, so it
should hash by value): an equal call gets the first call's arrays, bit for
bit, read-only so that no caller can change them for a later one.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_gegenbauer, gammaln, roots_jacobi

from .phase_core import ShapeError


# grid cells next to each wall that a perturbation and a bulk test
# function must leave clear
SUPPORT_MARGIN = 3

# distinct arguments each memo keeps; a k_sweep pass needs 1 grid, 2 oracles
_MEMO_SIZE = 8


@dataclass(frozen=True)
class AdsStripModel:
    nu: float
    nu_plus: float
    mass: float
    K: int
    x: np.ndarray                 # interior quadrature nodes
    wq: np.ndarray                # weights for plain dx integration
    omegas: np.ndarray            # (K,) mode frequencies
    mode_values: np.ndarray       # (K, len(x)) mode samples on x
    beta_minus: np.ndarray        # (K,) boundary amplitudes at x = -pi/2
    beta_plus: np.ndarray         # (K,) boundary amplitudes at x = +pi/2
    # unperturbed normalization data and, for perturbed models, the
    # coefficient matrix expanding eigenmodes in the unperturbed basis
    _n_basis: int = field(repr=False, default=0)
    _coeff: np.ndarray | None = field(repr=False, default=None)

    def betas(self, component):
        """Boundary amplitudes on component "-" or "+"."""
        return self.beta_minus if component == "-" else self.beta_plus

    def eval_modes(self, x):
        """Mode values phi_k(x) at arbitrary interior points, shape (K, len(x))."""
        x = np.asarray(x, dtype=float)
        if self._coeff is None:
            return _gegenbauer_modes(self.nu_plus, self.K, x)
        basis = _gegenbauer_modes(self.nu_plus, self._n_basis, x)
        return self._coeff.T @ basis

    def max_omega(self):
        return float(self.omegas[-1])


def _gegenbauer_norm_consts(lam, K):
    """1/sqrt of the Gegenbauer weighted L^2 norms, via log-gamma."""
    k = np.arange(K)
    log_h = (np.log(np.pi) + (1.0 - 2.0 * lam) * np.log(2.0)
             + gammaln(k + 2.0 * lam) - np.log(k + lam)
             - 2.0 * gammaln(lam) - gammaln(k + 1.0))
    return np.exp(-0.5 * log_h)


def _gegenbauer_modes(lam, K, x):
    """Orthonormal eigenfunctions of the unperturbed operator, (K, len(x)).

    Sign convention: positive boundary amplitude at x = -pi/2.
    """
    s = np.sin(x)
    weight = np.cos(x) ** lam
    nk = _gegenbauer_norm_consts(lam, K)
    out = np.empty((K, x.size))
    for k in range(K):
        out[k] = ((-1.0) ** k) * nk[k] * weight * eval_gegenbauer(k, lam, s)
    return out


def _boundary_amplitudes(lam, K):
    """beta_k^- (positive) and beta_k^+ = (-1)^k beta_k^-."""
    k = np.arange(K)
    log_c1 = gammaln(k + 2.0 * lam) - gammaln(2.0 * lam) - gammaln(k + 1.0)
    beta_minus = _gegenbauer_norm_consts(lam, K) * np.exp(log_c1)
    beta_plus = ((-1.0) ** k) * beta_minus
    return beta_minus, beta_plus


@lru_cache(maxsize=_MEMO_SIZE)
def _jacobi_grid(nu_plus, N):
    """Interior nodes clustered at the walls, with weights for plain dx
    integration that integrate cos^{2 nu_+}(x) * polynomial(sin x) exactly."""
    a = nu_plus - 0.5
    s, wj = roots_jacobi(N, a, a)
    x = np.arcsin(s)
    wq = wj * (1.0 - s * s) ** (-nu_plus)
    x.flags.writeable = wq.flags.writeable = False
    return x, wq


@lru_cache(maxsize=_MEMO_SIZE)
def fd_mode_frequencies(nu, K, N=2000, perturbation=None):
    """Finite-difference oracle for the first K frequencies.

    Conservative cell-centered scheme for the weighted form
    -(w psi')' + (nu_+^2 + W) w psi = omega^2 w psi, w = cos^{2 nu_+},
    with zero-flux walls (w vanishes there exactly).  Three dyadic grids
    eliminate the h^2 and h^{2+2nu} boundary-layer error terms.
    """
    nup = 0.5 + nu

    def raw(n):
        h = np.pi / n
        x = -np.pi / 2 + (np.arange(n) + 0.5) * h
        xm = -np.pi / 2 + np.arange(n + 1) * h
        w = np.cos(x) ** (2 * nup)
        ww = w[:-1] * w[1:]
        if not ww.min() > 0.0:
            raise ShapeError(
                f"nu = {nu}: the weight cos^(2 nu_+) underflows in the wall "
                f"cells of the {n}-cell finite-difference grid")
        wm = np.cos(xm) ** (2 * nup)
        wm[0] = 0.0
        wm[-1] = 0.0
        pot = nup ** 2
        if perturbation is not None:
            pot = pot + perturbation(x)
        diag = (wm[:-1] + wm[1:]) / (h * h * w) + pot
        off = -wm[1:-1] / (h * h * np.sqrt(ww))
        vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, K - 1))
        return np.sqrt(vals)

    ns = np.array([N // 4, N // 2, N])
    h = np.pi / ns
    p = 2.0 + 2.0 * nu
    a = np.vstack([np.ones(3), h ** 2, h ** p]).T
    vals = np.vstack([raw(n) for n in ns])
    freqs = np.linalg.lstsq(a, vals, rcond=None)[0][0]
    freqs.flags.writeable = False
    return freqs


def build_model(nu, K, N=512, perturbation=None):
    """Assemble the mode basis of the strip model.

    perturbation, if given, is a smooth callable W(x) that vanishes on the
    SUPPORT_MARGIN grid cells next to each wall; the perturbed eigenproblem
    is solved by Galerkin projection on max(2K, K + 16) unperturbed modes.
    The model is not checked here: its quadrature Gram residual and its
    agreement with fd_mode_frequencies are for the caller to judge.
    """
    nu_plus = 0.5 + nu
    mass = nu * nu - 0.25
    x, wq = _jacobi_grid(nu_plus, N)

    coeff = None
    nb = 0

    if perturbation is None:
        vals = _gegenbauer_modes(nu_plus, K, x)
        omegas = nu_plus + np.arange(K)
        bm, bp = _boundary_amplitudes(nu_plus, K)
    else:
        wvals = np.asarray(perturbation(x), dtype=float)
        m = SUPPORT_MARGIN
        if np.any(wvals[:m] != 0.0) or np.any(wvals[-m:] != 0.0):
            raise ShapeError(
                "perturbation support touches the boundary margin")
        nb = max(2 * K, K + 16)
        if N < 4 * nb:
            raise ShapeError(f"need N >= 4 n_basis (N = {N}, n_basis = {nb})")
        basis = _gegenbauer_modes(nu_plus, nb, x)
        om0 = nu_plus + np.arange(nb)
        pot = (basis * (wq * wvals)) @ basis.T
        a = np.diag(om0 ** 2) + 0.5 * (pot + pot.T)
        evals, evecs = np.linalg.eigh(a)
        coeff = evecs[:, :K]
        omegas = np.sqrt(evals[:K])
        bm0, bp0 = _boundary_amplitudes(nu_plus, nb)
        bm = coeff.T @ bm0
        bp = coeff.T @ bp0
        # fix the per-mode sign so the amplitude at x = -pi/2 is positive
        sign = np.where(np.abs(bm) > 1e-12, np.sign(bm),
                        np.sign(coeff[np.argmax(np.abs(coeff), axis=0),
                                      np.arange(K)]))
        coeff = coeff * sign
        bm = bm * sign
        bp = bp * sign
        vals = coeff.T @ basis

    # normalize by quadrature (a no-op up to roundoff for the closed form)
    norms = np.sqrt(np.einsum("kn,n,kn->k", vals, wq, vals))
    vals = vals / norms[:, None]
    bm = bm / norms
    bp = bp / norms
    if coeff is not None:
        coeff = coeff / norms[None, :]

    return AdsStripModel(nu, nu_plus, mass, K, x, wq, omegas, vals, bm, bp,
                         _n_basis=nb, _coeff=coeff)


# ----------------------------------------------------------------------
# test functions

@dataclass(frozen=True)
class BulkTestFunction:
    """Interior test function sum_r g_r(t) h_r(x), whose densitized samples on
    a time grid times the model x grid are t_factors @ x_factors."""

    t_grid: np.ndarray
    t_factors: np.ndarray         # shape (nt, r)
    x_factors: np.ndarray         # shape (r, len(model.x))
    support_x: tuple

    @property
    def t_step(self):
        return float(self.t_grid[1] - self.t_grid[0])


def _check_margin(model, x_lo, x_hi):
    m = SUPPORT_MARGIN
    if x_lo < model.x[m] or x_hi > model.x[-(m + 1)]:
        raise ShapeError(
            f"support [{x_lo:.4f}, {x_hi:.4f}] closer than {m} grid cells "
            f"to the boundary on the n = {len(model.x)} grid")


def _trapezoid_weights(grid):
    w = np.full(grid.size, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def mollifier(u):
    """Standard C-infinity bump: exp(1 - 1/(1-u^2)) on |u| < 1, else 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def bulk_bump(model, t_center, x_center, t_width, x_width, t_step=None,
              amplitude=1.0, t_modulation=0.0, n_sigma=8.5):
    """Densitized Gaussian bump g(t) h(x) truncated at n_sigma widths.

    The truncation at n_sigma = 8.5 leaves a relative tail below 1e-15, so
    the samples are smooth to double precision.
    """
    t0 = t_center - n_sigma * t_width
    t1 = t_center + n_sigma * t_width
    x0 = x_center - n_sigma * x_width
    x1 = x_center + n_sigma * x_width
    _check_margin(model, x0, x1)
    if t_step is None:
        # uniform time quadrature resolving the highest retained frequency
        t_step = min(0.2 / model.max_omega(), t_width / 6.0)
    nt = int(np.ceil((t1 - t0) / t_step)) + 1
    t = t0 + np.arange(nt) * t_step
    xg = model.x
    prof_t = np.exp(-0.5 * ((t - t_center) / t_width) ** 2)
    if t_modulation:
        prof_t = prof_t * np.cos(t_modulation * (t - t_center))
    prof_x = np.exp(-0.5 * ((xg - x_center) / x_width) ** 2)
    prof_x[np.abs(xg - x_center) > n_sigma * x_width] = 0.0
    prof_t[np.abs(t - t_center) > n_sigma * t_width] = 0.0
    h = amplitude * prof_x / np.cos(xg) ** 2
    return BulkTestFunction(t, prof_t[:, None], h[None, :],
                            (float(x0), float(x1)))


# ----------------------------------------------------------------------
# operations

def _mode_time_series(model, v):
    """vtilde_k(t_j) = integral phi_k(x) vtilde(t_j, x) dx, shape (nt, K)."""
    return v.t_factors @ ((v.x_factors * model.wq) @ model.mode_values.T)


def one_particle_map(model, v):
    """Mode coefficients (2 omega_k)^{-1/2} iint phi_k e^{-i omega_k t} vtilde."""
    vt = _mode_time_series(model, v)                       # (nt, K)
    om = model.omegas
    wt = _trapezoid_weights(v.t_grid)
    phases = np.exp(-1j * np.outer(v.t_grid, om))          # (nt, K)
    return (phases * vt * wt[:, None]).sum(axis=0) / np.sqrt(2.0 * om)


def embed_one_particle(c):
    """Real 2K-vector (Re c, Im c) of a mode-coefficient array."""
    return np.concatenate([c.real, c.imag])


def extract_one_particle(v):
    """Inverse of embed_one_particle."""
    v = np.asarray(v, dtype=float)
    k = v.size // 2
    return v[:k] + 1j * v[k:]


def _aligned_indices(v, t_out):
    dt = v.t_step
    idx = np.round((t_out - v.t_grid[0]) / dt)
    if np.abs(t_out - (v.t_grid[0] + idx * dt)).max() > 1e-9 * dt:
        raise ShapeError("output times must lie on the source time lattice")
    return idx.astype(int)


def _cumulative_simpson(y, dx):
    """Cumulative Simpson integral of y along axis 0 with equal steps dx,
    starting from 0; the same shape as y, which needs at least 3 samples.

    Each step gets the three-point quadratic integral
    dx/3 (5 f1/4 + 2 f2 - f3/4) from the samples after it (forward) or, on
    odd steps and the last one, from the samples before it (reversed)."""
    if y.shape[0] < 3:
        raise ShapeError(f"need at least 3 samples, got {y.shape[0]}")

    def steps(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    fwd, rev = steps(y), steps(y[::-1])[::-1]
    sub = np.empty_like(y[1:], dtype=fwd.dtype)
    sub[:-1:2] = fwd[::2]
    sub[1::2] = rev[::2]
    sub[-1] = rev[-1]
    # + 0.0 turns a -0.0 sum into +0.0, as SciPy's initial=0.0 does
    return np.concatenate([np.zeros_like(sub[:1]),
                           np.cumsum(sub, axis=0) + 0.0])


def propagator_apply(model, v, t_out):
    """Retarded Dirichlet solution of P u = v, mode by mode: its mode
    coefficients u_k(t_out), shape (len(t_out), K).

    Output times must lie on the (extension of the) source time lattice.
    """
    _check_margin(model, *v.support_x)
    t_out = np.asarray(t_out, dtype=float)
    idx = _aligned_indices(v, t_out)

    om = model.omegas
    vt = _mode_time_series(model, v)                       # (nt, K)
    t_src = v.t_grid
    cos_s = np.cos(np.outer(t_src, om)) * vt
    sin_s = np.sin(np.outer(t_src, om)) * vt
    c_cum = _cumulative_simpson(cos_s, v.t_step)
    s_cum = _cumulative_simpson(sin_s, v.t_step)

    # source integral up to each output time: 0 before the source support
    # (c_cum[0] = 0), the full integral after it (c_cum[-1])
    n = np.clip(idx, 0, t_src.size - 1)
    phase = np.outer(t_out, om)
    return (np.sin(phase) * c_cum[n] - np.cos(phase) * s_cum[n]) / om


def _trace_factor(model, component, k):
    """The boundary trace of the first k modes on one component, whose value
    at time t is Re sum_k amp_k e^{-i om_k t} c_k: (om, amp) with the
    frequencies om_k and the amplitudes amp_k = beta_k / sqrt(2 omega_k),
    each shape (k,)."""
    om = model.omegas[:k]
    return om, model.betas(component)[:k] / np.sqrt(2.0 * om)


def dual_boundary_matrix(model, component, t_grid, profiles):
    """Boundary dual map of several smearings on one component and one time
    grid, shape (K, len(profiles)).

    Column i holds the mode coefficients d of profiles[i], in the
    e^{-i omega t} convention of one_particle_map: the smeared trace of the
    solution with coefficients c is Re sum_k d_k c_k.  Each column is reduced
    on its own, so it does not depend on the other profiles."""
    om, amp = _trace_factor(model, component, model.K)
    phase = np.exp(-1j * np.outer(om, t_grid))
    wt = _trapezoid_weights(t_grid)
    fhat = np.empty((model.K, len(profiles)), dtype=complex)
    for i, p in enumerate(profiles):
        fhat[:, i] = (phase * (p * wt)).sum(axis=1)
    return amp[:, None] * fhat


# sample rows per QR fold in uc_scan: 2048 x 160 doubles (k_eff = 80) is
# 2.6 MB
_UC_BLOCK = 2048


def uc_scan(model, o_intervals, k_eff, t_start, step):
    """Smallest singular value of the map from the first k_eff modes to their
    boundary samples; 0 when no lattice time falls inside the intervals, and
    nan when fewer than 2 k_eff do, too few to determine the modes.

    o_intervals is a list of (component, t0, t1).  The lattice is
    t_start + j step, j = 0, 1, ..., up to the last interval end.  Each of
    its times inside an interval gives one row of the _trace_factor trace
    on (Re c, Im c), weighted by sqrt(step), so nested regions on one
    lattice give nested row sets.

    The sample rows are never stacked: each block of at most _UC_BLOCK rows
    is written below the triangular factor R of a running QR decomposition
    and folded into it, and R has the singular values of all the rows
    folded so far (Golub & Van Loan, Sec. 5.2).  Memory is
    O((_UC_BLOCK + k_eff) * k_eff) however long the window is.
    """
    if k_eff < 1 or k_eff > model.K:
        raise ShapeError(f"need 1 <= k_eff <= K, got {k_eff}")
    t_end = max((t1 for _, _, t1 in o_intervals), default=t_start)
    t_lattice = t_start + np.arange(
        int(np.ceil((t_end - t_start) / step)) + 1) * step

    # the running R in the top rows, the next block of samples below it
    buf = np.empty((2 * k_eff + _UC_BLOCK, 2 * k_eff))
    n_r = 0
    n_rows = 0
    for component, t0, t1 in o_intervals:
        ts = t_lattice[(t_lattice >= t0) & (t_lattice <= t1)]
        om, amp = _trace_factor(model, component, k_eff)
        amp = amp * np.sqrt(step)
        for start in range(0, ts.size, _UC_BLOCK):
            tb = ts[start:start + _UC_BLOCK]
            end = n_r + tb.size
            # the real trace map on (Re c, Im c): a cos block, a sin block
            cos, sin = buf[n_r:end, :k_eff], buf[n_r:end, k_eff:]
            np.multiply.outer(tb, om, out=cos)
            np.sin(cos, out=sin)
            np.cos(cos, out=cos)
            cos *= amp
            sin *= amp
            r = np.linalg.qr(buf[:end], mode="r")
            n_r = r.shape[0]
            buf[:n_r] = r
        n_rows += ts.size

    if not n_rows:
        return 0.0
    if n_rows < 2 * k_eff:
        return float("nan")
    return float(np.linalg.svd(buf[:n_r], compute_uv=False)[-1])
