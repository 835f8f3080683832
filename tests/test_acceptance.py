"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; the numerical
thresholds are frozen regression values calibrated on the default
configuration (nu = 0.7, K = 30, N = 512).
"""
import time

import numpy as np
import pytest

import reference_ops as ro
from adsholo import ads_model as am
from adsholo import ccr_fock as cf
from adsholo import cli
from adsholo import holography as hg
from adsholo import phase_core as pc


def report(num, desc, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {num}] {desc}: {tag}{suffix}")
    assert ok


@pytest.fixture(scope="session")
def default_plan():
    """The ladder_pass arguments of the default config."""
    cfg = cli.RunConfig()
    return dict(o_region=cli.parse_o_region(cfg.o),
                v_region=cli.parse_v_region(cfg.v),
                ladder=cli.parse_ladder(cfg.ladder), n_bulk=cfg.n_bulk,
                seed=cfg.seed)


@pytest.fixture(scope="session")
def default_model():
    return cli.build_cfg_model(cli.RunConfig(), {})


@pytest.fixture(scope="session")
def inclusion_run(default_plan, default_model):
    t0 = time.monotonic()
    table = inclusion(default_model, default_plan)
    return table, time.monotonic() - t0


def inclusion(model, plan):
    """Residuals (max_residual per rung) of run_inclusion on plan."""
    table = hg.run_inclusion(model, plan["o_region"], plan["ladder"],
                             *hg.ladder_pass(model, **plan))
    return [r[1] for r in table.rungs]


def gaussian_pair(model, rng):
    """Interior bump and its image under the wave operator, as time and
    space factors on the model grid with analytic t/x derivatives."""
    tc = rng.uniform(-0.5, 0.5)
    xc = rng.uniform(-0.3, 0.3)
    st = rng.uniform(0.1, 0.2)
    sx = rng.uniform(0.08, 0.14)
    amp = rng.uniform(0.5, 1.5)
    ns = 8.0
    tg = np.linspace(tc - ns * st, tc + ns * st, 1601)
    x = model.x
    gt = np.exp(-0.5 * ((tg - tc) / st) ** 2)
    gx = np.exp(-0.5 * ((x - xc) / sx) ** 2)
    gtt = gt * (((tg - tc) / st ** 2) ** 2 - 1.0 / st ** 2)
    gxx = gx * (((x - xc) / sx ** 2) ** 2 - 1.0 / sx ** 2)
    # densitize: the measure of L^2(M, g) is cos^{-2}(x) dt dx, and
    # P = cos^2 x (d_t^2 - d_x^2) + m^2 makes P w a sum of three products
    wx = amp * gx / np.cos(x) ** 2
    supx = (xc - ns * sx, xc + ns * sx)
    return (ro.bulk_from_products(tg, [(gt, wx)], supx),
            ro.bulk_from_products(tg, [(gtt, amp * gx), (gt, -amp * gxx),
                                       (gt, model.mass * wx)], supx))


def seeded_bump(model, rng):
    return am.bulk_bump(model, rng.uniform(-0.5, 0.5),
                        rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.25),
                        rng.uniform(0.05, 0.09),
                        amplitude=rng.uniform(0.5, 1.5),
                        t_modulation=rng.uniform(0.0, 8.0))


def test_criterion_1_spectrum_closed_form():
    t0 = time.monotonic()
    worst_cf = 0.0
    worst_fd = 0.0
    for nu in (0.3, 0.5, 0.7, 1.2):
        model = am.build_model(nu, 30, 512)
        k = np.arange(30)
        worst_cf = max(worst_cf,
                       float(np.abs(model.omegas - (nu + 0.5 + k)).max()))
        fd = am.fd_mode_frequencies(nu, 30, 2000)
        worst_fd = max(worst_fd, float(np.abs(fd - model.omegas).max()))
    elapsed = time.monotonic() - t0
    ok = worst_cf <= 1e-10 and worst_fd <= 1e-6 and elapsed < 10.0
    report(1, "closed-form spectrum and finite-difference oracle", ok,
           f"closed-form {worst_cf:.2e}, fd {worst_fd:.2e}, {elapsed:.1f}s")


def test_criterion_2_quotient_bisolution(default_model):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for _ in range(20):
        vw, vp = gaussian_pair(default_model, rng)
        kw = np.linalg.norm(am.one_particle_map(default_model, vw))
        kp = np.linalg.norm(am.one_particle_map(default_model, vp))
        bound = 1e-6 * kw + 1e-9
        worst = max(worst, kp / bound)
        ok &= kp <= bound
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(2, "wave operator maps into the one-particle kernel", ok,
           f"worst residual {worst:.2e} of bound, {elapsed:.1f}s")


def worst_boundary_dual_identity(model, rng):
    """Largest relative gap, over 50 seeded pairs, between the production
    boundary dual map paired with a bulk solution and the smeared reference
    boundary trace."""
    worst = 0.0
    for _ in range(50):
        f = ro.boundary_bump(model, rng.choice(["-", "+"]),
                             rng.uniform(-1, 1), rng.uniform(0.3, 1.0),
                             modulation=rng.uniform(0, 20),
                             phase=rng.choice(["cos", "sin"]))
        v = seeded_bump(model, rng)
        c = am.one_particle_map(model, v)
        d = am.dual_boundary_matrix(model, f.component, f.t_grid,
                                    [f.samples])[:, 0]
        lhs = float(np.real((d * c).sum()))
        tr = ro.boundary_trace(model, c, f.component, f.t_grid)
        wt = np.gradient(f.t_grid)
        rhs = float((f.samples * tr * wt).sum())
        scale = max(abs(rhs), np.linalg.norm(d) * np.linalg.norm(c))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def test_criterion_3_two_path_identities(default_model):
    model = default_model
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for _ in range(50):
        v1 = seeded_bump(model, rng)
        v2 = seeded_bump(model, rng)
        direct = ro.symplectic_form(model, v1, v2)
        c1 = am.one_particle_map(model, v1)
        c2 = am.one_particle_map(model, v2)
        gram = 2.0 * float(np.imag(np.vdot(c1, c2)))
        scale = max(abs(direct), abs(gram),
                    np.linalg.norm(c1) * np.linalg.norm(c2))
        rel = abs(direct - gram) / scale
        worst = max(worst, rel)
        ok &= rel <= 1e-6
    worst_riesz = worst_boundary_dual_identity(model, rng)
    ok &= worst_riesz <= 1e-6
    report(3, "symplectic form and boundary-dual two-path identities", ok,
           f"worst rel {worst:.2e} / {worst_riesz:.2e}")


def test_criterion_3_detects_conjugated_dual_map(default_model,
                                                 monkeypatch):
    # a dual map with conjugated coefficients (the wrong frequency
    # convention) must fail the boundary-dual half of criterion 3; the
    # ladder of criterion 6 cannot see it, because the top rungs span the
    # whole 2K-dimensional phase space with or without the conjugation
    dual = am.dual_boundary_matrix
    monkeypatch.setattr(am, "dual_boundary_matrix",
                        lambda *args: np.conj(dual(*args)))
    worst = worst_boundary_dual_identity(default_model,
                                         np.random.default_rng(3))
    assert worst > 1e-6


def canonical_phase_space(model):
    """Ground-state forms on the real 2K mode-coefficient space."""
    k = model.K
    eye = np.eye(k)
    zero = np.zeros((k, k))
    omega_block = np.block([[zero, eye], [-eye, zero]])
    return pc.PhaseSpace(2 * k, np.eye(2 * k), 2.0 * omega_block)


def test_criterion_4_positivity_purity(default_model):
    ps = canonical_phase_space(default_model)
    form = 2.0 * ps.eta + 1j * ps.sigma
    k = pc.one_particle_structure(ps)
    gap = float(np.abs(k.conj().T @ k - form).max())
    ok = len(k) == ps.dim // 2 and gap <= 1e-12 * np.abs(form).max()
    report(4, "ground state positivity, one-particle rank d/2, purity", ok,
           f"rank {len(k)} of d = {ps.dim}, factor gap {gap:.2e}")


def test_criterion_5_ccr_suite():
    t0 = time.monotonic()
    rep = cf.fock_rep(1, 40)
    eye = np.eye(rep.dim)
    e_low = eye[:, [j for j, occ in enumerate(rep.basis) if sum(occ) <= 10]]
    rng = np.random.default_rng(5)
    ok = True
    worst_weyl = 0.0
    for _ in range(20):
        h1 = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        h2 = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        h1 *= 0.5 / max(abs(h1), 1.0)
        h2 *= 0.5 / max(abs(h2), 1.0)
        phase = np.exp(-0.5j * np.imag(np.conj(h1) * h2))
        w1w2 = cf.weyl_apply(rep, [h1], cf.weyl_apply(rep, [h2], e_low))
        w12 = cf.weyl_apply(rep, [h1 + h2], e_low)
        res = float(np.abs(w1w2 - phase * w12).max())
        worst_weyl = max(worst_weyl, res)
        ok &= res <= 1e-6
    worst_vac = 0.0
    i0 = rep.vacuum_index
    for r in np.linspace(0.1, 1.0, 10):
        w_vac = cf.weyl_apply(rep, [r], eye[:, i0])
        err = abs(w_vac[i0] - np.exp(-0.25 * r * r))
        worst_vac = max(worst_vac, err)
        ok &= err <= 1e-8
    # field commutator reproduces the symplectic form
    ps = pc.PhaseSpace(2, np.eye(2), 2.0 * np.array([[0., 1.], [-1., 0.]]))
    k = pc.one_particle_structure(ps)
    worst_comm = 0.0
    for _ in range(5):
        v = 0.5 * rng.standard_normal(2)
        u = 0.5 * rng.standard_normal(2)
        fv = cf.segal_field(rep, k @ v).toarray()
        fu = cf.segal_field(rep, k @ u).toarray()
        comm = fv @ fu - fu @ fv
        s = float(v @ (ps.sigma @ u))
        low = [j for j, occ in enumerate(rep.basis)
               if sum(occ) <= rep.n_max - 2]
        err = 0.0
        for j in low:
            col = comm[:, j].copy()
            col[j] -= 1j * s
            err = max(err, float(np.linalg.norm(col)))
        worst_comm = max(worst_comm, err)
        ok &= err <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(5, "Weyl relations, vacuum expectation, field commutator", ok,
           f"weyl {worst_weyl:.2e}, vac {worst_vac:.2e}, "
           f"comm {worst_comm:.2e}, {elapsed:.1f}s")


def test_criterion_6_inclusion_ladder(inclusion_run):
    res, elapsed = inclusion_run
    monotone = all(b <= a + cli.MONOTONICITY_SLACK
                   for a, b in zip(res, res[1:]))
    plateau_ok = res[-1] <= 1e-3 * res[0]
    ok = monotone and plateau_ok and elapsed < 300.0
    report(6, "boundary dictionary ladder contracts onto the bulk", ok,
           f"initial {res[0]:.3e}, plateau {res[-1]:.3e}, {elapsed:.1f}s")


def test_criterion_7_contrast_small_window(default_plan, default_model,
                                           inclusion_run):
    res6, _ = inclusion_run
    res = inclusion(default_model,
                    {**default_plan, "o_region": (("-", -0.5, 0.5),)})
    ratio = res[-1] / max(res6[-1], 1e-300)
    ok = ratio >= 10.0
    report(7, "small boundary window leaves a 10x higher plateau", ok,
           f"plateau {res[-1]:.3e}, ratio {ratio:.2e}")


def test_criterion_8_weyl_strong_convergence(default_plan, default_model):
    rows, lipschitz = hg.run_weyl_convergence(
        default_plan["ladder"], *hg.ladder_pass(default_model, **default_plan))
    errors = [r[3] for r in rows]
    # errors reach the machine floor on the last rungs; allow roundoff
    # jitter there without weakening the decrease requirement above it
    decreasing = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    # the closed-form bound error <= lipschitz * compressed distance
    bounded = all(e <= lipschitz * cd for _, _, cd, e in rows)
    ok = decreasing and errors[-1] <= 1e-3 and bounded
    report(8, "Weyl operators converge strongly along the ladder", ok,
           f"final {errors[-1]:.2e}, Lipschitz constant {lipschitz:.4f}")


def test_criterion_9_uc_scan_monotone(default_model):
    sigmas = [am.uc_scan(default_model, [("-", -th, th), ("+", -th, th)], 4,
                         -3.0, 0.01) for th in (0.6, 1.2, 1.8, 2.4, 3.0)]
    empty = am.uc_scan(default_model, [], 4, -3.0, 0.01)
    nondecreasing = all(a <= b + 1e-14 for a, b in zip(sigmas, sigmas[1:]))
    ok = nondecreasing and empty == 0.0
    report(9, "unique-continuation scan monotone in the window", ok,
           f"sigma_min {sigmas[0]:.3e} -> {sigmas[-1]:.3e}")
