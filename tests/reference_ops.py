"""Reference operations that the tests compare the package with and the
command line never runs: each is a second path to a number the package
computes another way."""
import numpy as np

from adsholo import ads_model as am


def bulk_from_samples(t_grid, values, support_x):
    """A bulk test function from densitized samples on the model x grid."""
    return am.BulkTestFunction(t_grid, values,
                               (float(t_grid[0]), float(t_grid[-1])), support_x)


def symplectic_form(model, v1, v2):
    """(v1 | G v2)_{L^2(M, g)} by double quadrature on v1's grid, with the
    Pauli-Jordan solution G v2 = (retarded - advanced) v2 in closed form
    from the full time integrals of v2."""
    om = model.omegas
    vt = am._mode_time_series(model, v2) \
        * am._trapezoid_weights(v2.t_grid)[:, None]
    c_full = (np.cos(np.outer(v2.t_grid, om)) * vt).sum(axis=0)
    s_full = (np.sin(np.outer(v2.t_grid, om)) * vt).sum(axis=0)
    phase = np.outer(v1.t_grid, om)
    gv2 = ((np.sin(phase) * c_full - np.cos(phase) * s_full) / om) \
        @ model.mode_values
    inner_x = (v1.values * gv2 * model.wq).sum(axis=1)
    return float((inner_x * am._trapezoid_weights(v1.t_grid)).sum())


def boundary_trace(model, c, component, t_grid):
    """Rescaled boundary values Re sum_k beta_k e^{-i omega_k t}
    c_k / sqrt(2 omega_k) of the solution with mode coefficients c."""
    amp, phase = am._trace_factor(model, component, t_grid)
    return np.real(phase.T @ (amp * c))


def per_bump_dual_map(model, f):
    """The dual map of one boundary bump with its own phase matrix: the
    reference that one phase matrix per time grid must reproduce bit for
    bit."""
    om = model.omegas
    wt = am._trapezoid_weights(f.t_grid)
    fhat = (np.exp(-1j * np.outer(om, f.t_grid)) * (f.samples * wt)).sum(axis=1)
    return model.betas(f.component) / np.sqrt(2.0 * om) * fhat
