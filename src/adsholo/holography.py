"""End-to-end inclusion and Weyl-convergence experiments.

Given a boundary region O and a bulk region V, the experiments embed a
growing dictionary of boundary smearings and a fixed family of bulk test
functions into the 2K-dimensional mode-coefficient phase space of the ground
state, where its one-particle norm is the Euclidean one, and measure how
well the closure of the boundary span captures the bulk vectors.  The
dictionary is a deterministic prefix stream, so every rung of a ladder is a
column prefix of one matrix built at the top size, and the spans are nested.
Residuals are monotone along the ladder up to the rank cutoff of the rung's
SVD.  Both experiments are functions of one ladder pass: the rung span bases
and the embedded bulk generators, which a run computes once and shares.  The
Weyl experiment builds no Fock space: its errors on the vacuum and a
one-particle vector are Gaussian overlaps, taken in closed form, and the
same form bounds them by a constant times the distance from the target.

The regions, the ladder, the bulk family size and the seed come in as plain
arguments, and the results go out as plain rows and numbers; the command
line turns them into checks and artifacts.  The Weyl run raises
phase_core.ShapeError when its two-dimensional compression is rank
deficient or the top rung is too far from the target.
"""

from dataclasses import dataclass

import numpy as np

from . import ads_model as am
from . import phase_core as pc


def boundary_dictionary(model, o_region, size):
    """First `size` elements of a deterministic dyadic stream of bumps in O,
    as one (component, t_grid, profiles) group per bump center.

    Level l places 2^l mollifier bumps per interval.  Each center gives the
    plain bump and the bump modulated at l equispaced frequencies up to the
    top model frequency, in cosine and sine phase: 2l + 1 profiles on the
    center's time grid.  The last group is cut at `size`.  Because
    dictionaries of different sizes are prefixes of one stream, their spans
    are nested.
    """
    if not o_region:
        return []
    om_max = model.max_omega()
    groups = []
    left = size
    level = 0
    while True:
        for comp, t0, t1 in o_region:
            length = t1 - t0
            n_c = 2 ** level
            width = 0.95 * length / (2 * n_c)
            t_step = min(0.15 / om_max, width / 40.0)
            for i in range(n_c):
                center = t0 + (i + 0.5) * length / n_c
                lo, hi = center - width, center + width
                nt = int(np.ceil((hi - lo) / t_step)) + 1
                t = lo + np.arange(nt) * t_step
                u = t - center
                bump = am.mollifier(u / width)
                profiles = [bump]
                for m in range(1, level + 1):
                    mu = m * om_max / level
                    profiles += [bump * np.cos(mu * u), bump * np.sin(mu * u)]
                groups.append((comp, t, profiles[:left]))
                left -= len(profiles)
                if left <= 0:
                    return groups
        level += 1


def boundary_ladder(model, o_region, ladder):
    """Orthonormal basis of the boundary span for each rung of the ladder.

    The dictionary is dual-mapped once at the top size, one
    dual_boundary_matrix call per bump center, into the columns of one
    2K x max(ladder) matrix; rung s is the span basis of its first s
    columns, the vectors a dictionary of size s would give.  An empty region
    gives 2K x 0 bases.  The ladder is strictly increasing with entries
    >= 1, as the command line's parse_ladder makes it.
    """
    d = np.hstack([np.zeros((model.K, 0))] + [
        am.dual_boundary_matrix(model, *group)
        for group in boundary_dictionary(model, o_region, max(ladder))])
    g = np.vstack([d.real, d.imag])
    return [pc.span_basis(g[:, :s]) for s in ladder]


def bulk_generators(model, v_region, count, seed=0):
    """Seeded smooth bumps with random centers/widths inside V."""
    if not v_region:
        return []
    rng = np.random.default_rng(seed)
    om_max = model.max_omega()
    out = []
    for i in range(count):
        t0, t1, x0, x1 = v_region[i % len(v_region)]
        t_half = 0.5 * (t1 - t0)
        x_half = 0.5 * (x1 - x0)
        u_t = rng.uniform(0.3, 0.7)
        u_x = rng.uniform(0.3, 0.7)
        tc = 0.5 * (t0 + t1) + rng.uniform(-1, 1) * (1 - u_t) * t_half
        xc = 0.5 * (x0 + x1) + rng.uniform(-1, 1) * (1 - u_x) * x_half
        out.append(am.bulk_bump(
            model, tc, xc, u_t * t_half / 8.5, u_x * x_half / 8.5,
            amplitude=rng.uniform(0.5, 1.5),
            t_modulation=rng.uniform(0.0, om_max / 4.0)))
    return out


def ladder_pass(model, o_region, v_region, ladder, n_bulk, seed):
    """(bases, w): the rung span bases of boundary_ladder and the (2K, n_bulk)
    matrix of embedded bulk generators, the inputs both experiments share."""
    bases = boundary_ladder(model, o_region, ladder)
    bulk = bulk_generators(model, v_region, n_bulk, seed=seed)
    w = np.zeros((2 * model.K, len(bulk)))
    for i, v in enumerate(bulk):
        w[:, i] = am.embed_one_particle(am.one_particle_map(model, v))
    return bases, w


@dataclass(frozen=True)
class InclusionTable:
    rungs: tuple        # (dict_size, max_residual, mean_residual, rank)
    sigma_min_ref: float


def run_inclusion(model, o_region, ladder, bases, w):
    """Residual ladder of the bulk vectors w against the rung bases; a rung's
    rank is the numerical rank of its boundary span.

    sigma_min_ref is the uc_scan of O at the full cutoff, on a lattice from
    the earliest interval start whose step resolves the top frequency; nan
    when O holds too few lattice times.  An empty O gives residual 1 for
    every nonzero bulk vector, an empty V residual 0; sigma_min_ref is 0
    for either.
    """
    rungs = []
    for size, u in zip(ladder, bases):
        r = pc.relative_residuals(u, w)
        rungs.append((size, float(r.max(initial=0.0)),
                      float(r.mean()) if r.size else 0.0, u.shape[1]))

    sigma_min_ref = 0.0
    if o_region and w.shape[1]:
        sigma_min_ref = am.uc_scan(
            model, o_region, model.K, min(t0 for _, t0, _ in o_region),
            min(0.01, 0.15 / model.max_omega()))
    return InclusionTable(tuple(rungs), sigma_min_ref)


def _compress_directions(c_target, c_approx):
    """Orthonormal pair (u1, u2) in C^K: the target direction and the
    dominant direction of the approximation residuals."""
    n1 = np.linalg.norm(c_target)
    if n1 == 0.0:
        raise pc.ShapeError("target vector vanishes")
    u1 = c_target / n1
    res = []
    for c in c_approx:
        r = c - u1 * np.vdot(u1, c)
        nr = np.linalg.norm(r)
        if nr > 1e-14 * n1:
            res.append(r / nr)
    if not res:
        raise pc.ShapeError(
            "all approximants lie on the target line; nothing to compress")
    u, s, _ = np.linalg.svd(np.column_stack(res), full_matrices=False)
    u2 = u[:, 0]
    u2 = u2 - u1 * np.vdot(u1, u2)
    n2 = np.linalg.norm(u2)
    if n2 < 1e-10:
        raise pc.ShapeError("residual direction degenerate with target")
    return u1, u2 / n2


def _weyl_errors(z_seq, z_lim):
    """max over psi in {Omega, a*(e_1) Omega} of ||(W(f_n) - W(g)) psi||, for
    f_n, g the pure-state plane embeddings sqrt(2) (-i z[::-1]) of z_n, z_lim
    and e_1 the mode of occupation (1, 0).  With d = z_n - z_lim,
    x = |d|^2 / 2 and theta = Im <d, z_lim>, the squares are
    2 (1 - cos theta e^-x) and that plus 2 cos theta e^-x |d_2|^2.  The
    first is summed as 2 (-expm1(-x) + 2 e^-x sin^2(theta / 2)), with no
    cancellation at distances near the rounding floor.

    Since 1 - cos theta e^-x <= theta^2 / 2 + x, |theta| <= |d| |z_lim| and
    |d_2| <= |d|, each error is at most sqrt(3 + |z_lim|^2) |d|."""
    d = np.asarray(z_seq) - z_lim
    x = 0.5 * np.sum(np.abs(d) ** 2, axis=1)
    theta = np.imag(d.conj() @ z_lim)
    decay = np.exp(-x)
    e_vac = 2.0 * (-np.expm1(-x) + 2.0 * decay * np.sin(0.5 * theta) ** 2)
    e_one = e_vac + 2.0 * np.cos(theta) * decay * np.abs(d[:, 1]) ** 2
    return np.sqrt(np.maximum(e_vac, e_one))


def run_weyl_convergence(ladder, bases, w):
    """Weyl-operator convergence along the boundary approximant ladder, as
    (rows, lipschitz).

    The first bulk vector of ladder_pass (rescaled to norm 1/2) and its
    orthogonal projections onto the boundary spans are compressed to the
    complex plane spanned by the target and the dominant residual direction;
    the compressed pure-state Weyl operators are compared on the vacuum and a
    one-particle vector, in the closed form of _weyl_errors.  One row per
    rung: (dict_size, distance of the approximant from the target, the same
    in the compressed plane, largest Weyl-operator error over the two
    vectors).  lipschitz is the constant sqrt(3 + |z_lim|^2) of
    _weyl_errors: no error exceeds it times the compressed distance.
    """
    if not w.shape[1]:
        raise pc.ShapeError("bulk region is empty; no target vector")
    w = (0.5 / np.linalg.norm(w[:, 0])) * w[:, 0]
    c_target = am.extract_one_particle(w)

    approx = [u @ (u.T @ w) for u in bases]

    distances = [float(np.linalg.norm(a - w)) for a in approx]
    if distances[-1] > 0.1 * np.linalg.norm(w):
        raise pc.ShapeError(
            f"top-rung residual {distances[-1]:.3e} too large for the "
            "convergence experiment")

    c_approx = [am.extract_one_particle(a) for a in approx]
    u1, u2 = _compress_directions(c_target, c_approx)
    z_lim, *z_seq = [np.array([np.vdot(u1, c), np.vdot(u2, c)])
                     for c in [c_target] + c_approx]

    comp_dist = [float(np.linalg.norm(am.embed_one_particle(z - z_lim)))
                 for z in z_seq]
    errors = _weyl_errors(z_seq, z_lim).tolist()
    lipschitz = float(np.sqrt(3.0 + np.linalg.norm(z_lim) ** 2))
    return list(zip(ladder, distances, comp_dist, errors)), lipschitz
