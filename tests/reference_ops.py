"""Reference operations that the tests compare the package with and the
command line never runs: each is a second path to a number the package
computes another way."""
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from adsholo import ads_model as am


def annihilation(rep, h):
    """a(h) = sum_i conj(h_i) a_i as a sparse matrix on the ladder pattern of
    rep: the lowering half of ccr_fock.segal_field on its own.  For a (b, m)
    batch h, the block-diagonal direct sum of a(h_1), ..., a(h_b), laid out
    as ccr_fock.segal_field lays out a batch."""
    h = np.asarray(h, dtype=complex)
    if h.ndim == 2:
        return sparse.block_diag([annihilation(rep, g) for g in h],
                                 format="csr")
    row, col, mode, sqrt_n = rep.ladder
    data = sqrt_n * np.conj(h[mode])
    return sparse.csr_matrix((data, (row, col)), shape=(rep.dim, rep.dim))


def coo_segal_field(rep, h):
    """phi(h) for one h by a COO to CSR conversion of the ladder positions
    and their transposes: the per-call sort that ccr_fock.segal_field
    replaced with a layout each representation computes once."""
    row, col, mode, sqrt_n = rep.ladder
    data = sqrt_n * np.conj(np.asarray(h, dtype=complex)[mode]) / np.sqrt(2.0)
    return sparse.csr_matrix(
        (np.concatenate([data, data.conj()]),
         (np.concatenate([row, col]), np.concatenate([col, row]))),
        shape=(rep.dim, rep.dim))


def bulk_from_products(t_grid, products, support_x):
    """The bulk test function sum_r g_r(t) h_r(x) from its (g_r, h_r) pairs:
    samples of g_r on t_grid and densitized samples of h_r on the model x
    grid."""
    g, h = zip(*products)
    return am.BulkTestFunction(t_grid, np.column_stack(g), np.vstack(h),
                               support_x)


def bulk_samples(v):
    """The dense (nt, len(model.x)) densitized samples of a bulk test
    function, which the package never forms."""
    return v.t_factors @ v.x_factors


@dataclass(frozen=True)
class BoundaryBump:
    """Samples f(t_j) of a compactly supported profile on one boundary
    component."""

    component: str
    t_grid: np.ndarray
    samples: np.ndarray


def boundary_bump(model, component, t_center, width, t_step=None,
                  modulation=0.0, phase="cos"):
    """One dictionary element on its own: a mollifier profile on a boundary
    component, optionally cosine/sine modulated, on its own time grid."""
    if t_step is None:
        t_step = min(0.15 / model.max_omega(), width / 40.0)
    t0 = t_center - width
    t1 = t_center + width
    nt = int(np.ceil((t1 - t0) / t_step)) + 1
    t = t0 + np.arange(nt) * t_step
    f = am.mollifier((t - t_center) / width)
    if modulation:
        carrier = np.cos if phase == "cos" else np.sin
        f = f * carrier(modulation * (t - t_center))
    return BoundaryBump(component, t, f)


def bump_stream(model, o_region, size):
    """The first `size` elements of the boundary dictionary stream, each
    built on its own: what holography.boundary_dictionary builds one bump
    center at a time."""
    om_max = model.max_omega()
    out = []
    level = 0
    while o_region and len(out) < size:
        for comp, t0, t1 in o_region:
            length = t1 - t0
            n_c = 2 ** level
            width = 0.95 * length / (2 * n_c)
            for i in range(n_c):
                center = t0 + (i + 0.5) * length / n_c
                for m in range(level + 1):
                    mu = m * om_max / max(level, 1)
                    for ph in (("cos",) if m == 0 else ("cos", "sin")):
                        out.append(boundary_bump(model, comp, center, width,
                                                 modulation=mu, phase=ph))
        level += 1
    return out[:size]


def symplectic_form(model, v1, v2):
    """(v1 | G v2)_{L^2(M, g)} by double quadrature on v1's dense samples,
    with the
    Pauli-Jordan solution G v2 = (retarded - advanced) v2 in closed form
    from the full time integrals of v2."""
    om = model.omegas
    vt = ((bulk_samples(v2) * model.wq) @ model.mode_values.T) \
        * am._trapezoid_weights(v2.t_grid)[:, None]
    c_full = (np.cos(np.outer(v2.t_grid, om)) * vt).sum(axis=0)
    s_full = (np.sin(np.outer(v2.t_grid, om)) * vt).sum(axis=0)
    phase = np.outer(v1.t_grid, om)
    gv2 = ((np.sin(phase) * c_full - np.cos(phase) * s_full) / om) \
        @ model.mode_values
    inner_x = (bulk_samples(v1) * gv2 * model.wq).sum(axis=1)
    return float((inner_x * am._trapezoid_weights(v1.t_grid)).sum())


def trace_rows(model, component, t_grid, k):
    """The complex boundary trace map of the first k modes on one component,
    beta_k e^{-i omega_k t_j} / sqrt(2 omega_k), shape (len(t_grid), k),
    from model.omegas and model.betas alone."""
    om = model.omegas[:k]
    return (np.exp(-1j * np.outer(t_grid, om))
            * (model.betas(component)[:k] / np.sqrt(2.0 * om)))


def boundary_trace(model, c, component, t_grid):
    """Rescaled boundary values Re sum_k beta_k e^{-i omega_k t}
    c_k / sqrt(2 omega_k) of the solution with mode coefficients c."""
    return np.real(trace_rows(model, component, t_grid, len(c)) @ c)


def per_bump_dual_map(model, f):
    """The dual map of one boundary bump with its own phase matrix: the
    reference that one phase matrix per time grid must reproduce bit for
    bit."""
    om = model.omegas
    wt = am._trapezoid_weights(f.t_grid)
    fhat = (np.exp(-1j * np.outer(om, f.t_grid)) * (f.samples * wt)).sum(axis=1)
    return model.betas(f.component) / np.sqrt(2.0 * om) * fhat


def uc_dense_sigma_min(model, o_intervals, k_eff, t_start, step):
    """(sigma_min, sigma_max) of the boundary trace-sampling map that
    ads_model.uc_scan measures on the lattice t_start + j step, from the
    whole stacked sample matrix and one SVD: the dense construction that the
    blockwise QR fold replaced.  (0, 0) when no lattice time falls inside
    the intervals."""
    t_end = max(t1 for _, _, t1 in o_intervals)
    t_lattice = t_start + step * np.arange(
        int(np.ceil((t_end - t_start) / step)) + 1)
    rows = []
    for component, t0, t1 in o_intervals:
        ts = t_lattice[(t_lattice >= t0) & (t_lattice <= t1)]
        tr = trace_rows(model, component, ts, k_eff)
        if ts.size:
            rows.append(np.sqrt(step) * np.hstack([tr.real, -tr.imag]))
    if not rows:
        return 0.0, 0.0
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return float(s[-1]), float(s[0])
