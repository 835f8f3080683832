import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.special import erf

import reference_ops as ro
from adsholo import ads_model as am
from adsholo import cli
from adsholo import holography as hg
from adsholo import phase_core as pc


@pytest.fixture(scope="module")
def model():
    return am.build_model(0.7, 30, 512)


@pytest.fixture(scope="module")
def model48():
    # above the default cutoff: the time integrator's error grows with omega
    return am.build_model(0.7, 48, 512)


def propagator_source(model):
    """The source g(t) h(x) of the propagator check, g(t) = e^{-t^2/2 sigma^2}
    with sigma = 0.3 on a time step of 0.003."""
    return am.bulk_bump(model, 0.0, 0.0, 0.3, 0.22, t_step=0.003, n_sigma=6.8)


@pytest.fixture(scope="module")
def model80():
    # the largest cutoff of the k_sweep benchmark
    return am.build_model(0.7, 80, 1024)


@pytest.fixture(scope="module")
def model_half():
    # nu = 1/2: massless flat Dirichlet string in disguise
    return am.build_model(0.5, 30, 512)


class TestBuildModel:
    def test_rejects_small_grid(self):
        # the config rule n >= 4 k holds at K = 30, N = 120, but the
        # perturbed model's Galerkin basis of max(2K, K + 16) = 60 modes
        # needs N >= 240
        w = cli.parse_perturbation("0.8:0.1:0.4")
        with pytest.raises(pc.ShapeError, match=r"need N >= 4 n_basis "
                           r"\(N = 120, n_basis = 60\)"):
            am.build_model(0.7, 30, 120, perturbation=w)

    def test_unperturbed_spectrum_closed_form(self, model):
        assert np.abs(model.omegas - (1.2 + np.arange(30))).max() < 1e-12
        gaps = np.diff(model.omegas)
        assert np.abs(gaps - 1.0).max() < 1e-12

    def test_mode_orthonormality(self, model):
        gram = (model.mode_values * model.wq) @ model.mode_values.T
        assert np.abs(gram - np.eye(30)).max() < 1e-8

    def test_flat_string_modes(self, model_half):
        # nu = 1/2: phi_k(x) = sqrt(2/pi) sin((k+1)(x + pi/2))
        x = np.linspace(-1.2, 1.2, 7)
        vals = model_half.eval_modes(x)
        for k in range(8):
            expect = np.sqrt(2.0 / np.pi) * np.sin((k + 1) * (x + np.pi / 2))
            assert np.abs(vals[k] - expect).max() < 1e-12

    def test_flat_string_boundary_amplitudes(self, model_half):
        k = np.arange(30)
        expect = (k + 1) * np.sqrt(2.0 / np.pi)
        assert np.abs(model_half.beta_minus - expect).max() < 1e-10
        assert np.abs(model_half.beta_plus - (-1.0) ** k * expect).max() < 1e-10
        assert model_half.beta_minus[0] == pytest.approx(0.7978845608028654)

    def test_fd_oracle_agreement(self):
        for nu in (0.3, 0.7, 1.2):
            fd = am.fd_mode_frequencies(nu, 10, 2000)
            assert np.abs(fd - (0.5 + nu + np.arange(10))).max() < 1e-6

    @pytest.mark.parametrize("perturbation", [
        pytest.param(None, id="unperturbed"),
        pytest.param(lambda x: 2.0 * am.mollifier(np.asarray(x) / 0.8),
                     id="perturbed")])
    def test_fd_oracle_skips_eigenvectors_bit_for_bit(self, monkeypatch,
                                                      perturbation):
        # the eigenvalue-only call runs the same bisection as the call that
        # also computes (and drops) the eigenvectors
        fast = am.fd_mode_frequencies(0.7, 30, 2000, perturbation)
        tridiagonal = am.eigh_tridiagonal

        def with_vectors(diag, off, eigvals_only, **kwargs):
            assert eigvals_only
            return tridiagonal(diag, off, **kwargs)[0]

        monkeypatch.setattr(am, "eigh_tridiagonal", with_vectors)
        slow = am.fd_mode_frequencies(0.7, 30, 2000, perturbation)
        assert np.array_equal(fast, slow)

    def test_boundary_amplitude_extrapolation(self, model):
        # beta_k^- = lim cos^{-nu_plus}(x) phi_k(x), via a 3-point fit in
        # powers of cos^2 x near the wall
        deltas = np.array([0.08, 0.06, 0.04, 0.02])
        x = -np.pi / 2 + deltas
        vals = model.eval_modes(x) / np.cos(x) ** model.nu_plus
        a = np.vander(np.cos(x) ** 2, 4, increasing=True)
        for k in range(6):
            coef = np.linalg.solve(a, vals[k])
            assert coef[0] == pytest.approx(model.beta_minus[k], rel=1e-8)


class TestPerturbedModel:
    def test_rejects_boundary_touching_perturbation(self):
        with pytest.raises(pc.ShapeError, match="perturbation support "
                           "touches the boundary margin"):
            am.build_model(0.7, 10, 128,
                           perturbation=lambda x: np.cos(x) ** 2)

    def test_perturbed_spectrum_against_fd_oracle(self):
        w = lambda x: 2.0 * am.mollifier(np.asarray(x) / 0.8)
        m = am.build_model(0.7, 12, 256, perturbation=w)
        fd = am.fd_mode_frequencies(0.7, 12, 2000, perturbation=w)
        assert np.abs(fd - m.omegas).max() < 1e-6

    def test_positive_perturbation_raises_frequencies(self):
        w = lambda x: 2.0 * am.mollifier(np.asarray(x) / 0.8)
        m0 = am.build_model(0.7, 8, 256)
        m1 = am.build_model(0.7, 8, 256, perturbation=w)
        assert np.all(m1.omegas > m0.omegas)

    def test_perturbed_modes_orthonormal(self):
        w = lambda x: 1.5 * am.mollifier((np.asarray(x) - 0.2) / 0.6)
        m = am.build_model(0.7, 10, 256, perturbation=w)
        gram = (m.mode_values * m.wq) @ m.mode_values.T
        assert np.abs(gram - np.eye(10)).max() < 1e-8


class TestOneParticleMap:
    def test_zero_function(self, model):
        v = ro.bulk_from_products(np.linspace(-1, 1, 11),
                                  [(np.zeros(11), np.zeros(512))], (-1.0, 1.0))
        assert np.abs(am.one_particle_map(model, v)).max() == 0.0

    def test_delta_approximant(self, model_half):
        # narrow normalized bump at (0,0): (Kv)_k ~ (2 omega_k)^{-1/2} phi_k(0)
        # with the Gaussian temporal form factor e^{-omega^2 s^2/2}
        s = 0.02
        t = np.arange(-8 * s, 8 * s + 1e-12, s / 4.0)
        gt = np.exp(-0.5 * (t / s) ** 2) / (s * np.sqrt(2 * np.pi))
        gx = np.exp(-0.5 * (model_half.x / s) ** 2) / (s * np.sqrt(2 * np.pi))
        v = ro.bulk_from_products(t, [(gt, gx)], (-8 * s, 8 * s))
        c = am.one_particle_map(model_half, v)
        om = model_half.omegas
        phi0 = model_half.eval_modes(np.array([0.0]))[:, 0]
        expect = phi0 * np.exp(-0.5 * (om * s) ** 2) / np.sqrt(2 * om)
        for k in range(6):
            assert c[k] == pytest.approx(expect[k], rel=2e-2)

    def test_margin_enforced(self, model):
        with pytest.raises(pc.ShapeError, match="closer than 3 grid cells"):
            am.bulk_bump(model, 0.0, 0.0, 0.2, 0.3)

    def test_source_stays_factored(self, model48):
        # traced allocation peaks for the propagator check's source, the
        # source itself included; dense (nt, N) samples, nt = 1361 and
        # N = 512, would take 5.6 MB each
        tracemalloc.start()
        try:
            v = propagator_source(model48)
            bump_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            am.one_particle_map(model48, v)
            map_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.t_factors.shape == (1361, 1) and v.x_factors.shape == (1, 512)
        assert bump_peak < 0.5e6
        assert map_peak < 5e6

    def test_propagator_check_keeps_solution_factored(self):
        # traced allocation peak of the propagator command on a memoized
        # default model: the residual's one (t, x) product, 677 x 597, and
        # its absolute value take 3.2 MB each; the (t, x) values of u and
        # their two stencils would take 13 MB
        cfg, memo = cli.RunConfig(), {}
        cli.build_cfg_model(cfg, memo)
        tracemalloc.start()
        try:
            cli.cmd_propagator(cfg, memo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def seeded_bump_pair(model, rng):
    def one():
        return am.bulk_bump(model,
                            rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5),
                            rng.uniform(0.15, 0.3), rng.uniform(0.05, 0.09),
                            amplitude=rng.uniform(0.5, 2.0),
                            t_modulation=rng.uniform(0.0, 6.0))
    return one(), one()


class TestSymplecticForm:
    def test_self_pairing_vanishes(self, model):
        v = am.bulk_bump(model, 0.0, 0.1, 0.2, 0.07)
        assert abs(ro.symplectic_form(model, v, v)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 2])
    def test_antisymmetry(self, model, seed):
        rng = np.random.default_rng(seed)
        v1, v2 = seeded_bump_pair(model, rng)
        a = ro.symplectic_form(model, v1, v2)
        b = ro.symplectic_form(model, v2, v1)
        assert a == pytest.approx(-b, rel=1e-8)

    def test_matches_gram_path(self, model):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v1, v2 = seeded_bump_pair(model, rng)
            s_grid = ro.symplectic_form(model, v1, v2)
            c1 = am.one_particle_map(model, v1)
            c2 = am.one_particle_map(model, v2)
            s_gram = 2.0 * np.imag(np.vdot(c1, c2))
            assert s_grid == pytest.approx(s_gram, rel=1e-6, abs=1e-12)

    def test_spacelike_supports_nearly_commute(self, model):
        # supports at |delta x| ~ 1.4, |delta t| <~ 1.0 are spacelike, also
        # to all wall reflections (those arrive only after delta t ~ pi)
        def ratio(dt_centers):
            v1 = am.bulk_bump(model, 0.0, -0.7, 0.1, 0.04, n_sigma=5.0)
            v2 = am.bulk_bump(model, dt_centers, 0.7, 0.1, 0.04, n_sigma=5.0)
            c1 = am.one_particle_map(model, v1)
            c2 = am.one_particle_map(model, v2)
            scale = 2.0 * np.linalg.norm(c1) * np.linalg.norm(c2)
            return abs(ro.symplectic_form(model, v1, v2)) / scale

        assert ratio(0.3) < 1e-6
        assert ratio(1.6) > 1e-1  # timelike contrast


class TestCumulativeSimpson:
    # the propagator's time integral is a port of SciPy's equal-step
    # cumulative_simpson; it must give the same bits, sign of zero included
    @staticmethod
    def assert_same_bits(y, dx):
        ours = am._cumulative_simpson(y, dx)
        ref = cumulative_simpson(y, dx=dx, axis=0, initial=0.0)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))

    @pytest.mark.parametrize("dx", [0.003, 0.1, 1.0, 2.5])
    @pytest.mark.parametrize("cols", [None, 7])
    def test_matches_scipy(self, dx, cols):
        rng = np.random.default_rng(11)
        for n in range(3, 42):
            y = rng.standard_normal(n if cols is None else (n, cols))
            self.assert_same_bits(y, dx)

    def test_zero_sum_is_positive_zero(self):
        # a negative step turns the sub-integrals of a zero array into -0.0
        self.assert_same_bits(np.zeros(5), -0.1)
        self.assert_same_bits(np.zeros((6, 2)), -0.1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_samples_rejected(self, n):
        with pytest.raises(pc.ShapeError):
            am._cumulative_simpson(np.ones((n, 3)), 0.1)


class TestPropagator:
    def test_zero_source(self, model):
        v = ro.bulk_from_products(np.linspace(0, 1, 21),
                                  [(np.zeros(21), np.zeros(512))], (-1.0, 1.0))
        u = am.propagator_apply(model, v, v.t_grid)
        assert u.shape == (21, model.K)
        assert np.abs(u @ model.mode_values).max() == 0.0

    def test_retarded_vanishes_before_support(self, model):
        v = am.bulk_bump(model, 0.0, 0.2, 0.15, 0.07)
        t_pre = v.t_grid[0] - v.t_step * np.arange(1, 8)
        u = am.propagator_apply(model, v, t_pre)
        assert u.shape == (7, model.K)
        assert np.abs(u @ model.mode_values).max() == 0.0

    def test_misaligned_output_times_rejected(self, model):
        v = am.bulk_bump(model, 0.0, 0.0, 0.2, 0.07)
        with pytest.raises(pc.ShapeError):
            am.propagator_apply(model, v, v.t_grid[:3] + 0.37 * v.t_step)

    @staticmethod
    def integrator_error(model):
        """Largest gap between the modes of the retarded solution of the
        propagator check's source and their closed form, relative to the
        largest partial integral.

        Mode k of the solution is -Im(e^{-i omega t} I_k(t)) / omega, with
        I_k(t) = h_k int_{t_0}^t g(s) e^{i omega s} ds and h_k the mode
        integral of the space factor.  For g(s) = e^{-s^2/2 sigma^2}, the
        integrand has the primitive
        sigma sqrt(pi/2) e^{-a^2} erf(s / (sigma sqrt 2) - i a),
        a = omega sigma / sqrt 2."""
        sig = 0.3
        v = propagator_source(model)
        om = model.omegas
        h = (v.x_factors[0] * model.wq) @ model.mode_values.T
        a = om * sig / np.sqrt(2.0)
        prim = sig * np.sqrt(np.pi / 2.0) * np.exp(-a ** 2) * erf(
            v.t_grid[:, None] / (sig * np.sqrt(2.0)) - 1j * a)
        integral = (prim - prim[0]) * h
        modes = am.propagator_apply(model, v, v.t_grid)
        want = -np.imag(np.exp(-1j * np.outer(v.t_grid, om)) * integral) / om
        return np.abs(om * (modes - want)).max() / np.abs(integral).max()

    def test_time_integrator_against_erf_closed_form(self, model48):
        # the Simpson rule is within 6.3e-10 (fourth order in the step)
        assert self.integrator_error(model48) < 1e-8

    def test_second_order_integrator_fails(self, model48, monkeypatch):
        # a cumulative trapezoid rule is 2.7e-6 off
        monkeypatch.setattr(am, "_cumulative_simpson",
                            lambda y, dx: cumulative_trapezoid(
                                y, dx=dx, axis=0, initial=0.0))
        assert self.integrator_error(model48) > 1e-8

    def test_against_leapfrog_wave_solver(self):
        # nu = 1/2 is the flat Dirichlet string: an independent second-order
        # leapfrog integrator of u_tt = u_xx + sec^2(x) v provides the oracle
        k_big = 200
        m = am.build_model(0.5, k_big, 1024)
        sig_t, sig_x = 0.25, 0.1
        v = am.bulk_bump(m, 0.0, 0.0, sig_t, sig_x, n_sigma=6.0)

        mm = 2400
        h = np.pi / (mm + 1)
        xg = -np.pi / 2 + h * np.arange(1, mm + 1)
        dt = 0.5 * h
        t0 = -2.0
        n_steps = int(round(4.0 / dt))
        src_x = np.exp(-0.5 * (xg / sig_x) ** 2) / np.cos(xg) ** 2
        src_x[np.abs(xg) > 6.0 * sig_x] = 0.0
        u_prev = np.zeros(mm)
        u_cur = np.zeros(mm)
        lap = np.zeros(mm)
        for n in range(n_steps):
            t = t0 + n * dt
            lap[1:-1] = (u_cur[:-2] - 2 * u_cur[1:-1] + u_cur[2:]) / h ** 2
            lap[0] = (-2 * u_cur[0] + u_cur[1]) / h ** 2
            lap[-1] = (u_cur[-2] - 2 * u_cur[-1]) / h ** 2
            f = np.exp(-0.5 * (t / sig_t) ** 2) * src_x \
                if abs(t) < 6.0 * sig_t else 0.0
            u_next = 2 * u_cur - u_prev + dt ** 2 * (lap + f)
            u_prev, u_cur = u_cur, u_next
        t_end = t0 + n_steps * dt

        idx = int(round((t_end - v.t_grid[0]) / v.t_step))
        t_out = v.t_grid[0] + idx * v.t_step
        assert abs(t_out - t_end) < 2e-3
        u_modal = am.propagator_apply(m, v, [t_out]) @ m.eval_modes(xg)
        # leapfrog is second order; compare in relative L2 on the slice
        diff = u_modal[0] - u_cur
        rel = np.linalg.norm(diff) / np.linalg.norm(u_cur)
        assert rel < 1e-3


def solution_representative(model, c, t_grid, x):
    """Re sum_k (2 omega_k)^{-1/2} phi_k(x) e^{-i omega_k t} c_k."""
    om = model.omegas
    amp = np.exp(-1j * np.outer(t_grid, om)) * (c / np.sqrt(2.0 * om))
    return np.real(amp @ model.eval_modes(x))


def dual_map(model, f):
    """The dual map of one smearing: a one-column dual_boundary_matrix."""
    return am.dual_boundary_matrix(model, f.component, f.t_grid,
                                   [f.samples])[:, 0]


class TestBoundaryMaps:
    def test_zero_coeffs_zero_trace(self, model):
        t = np.linspace(-1, 1, 50)
        tr = ro.boundary_trace(model, np.zeros(30, dtype=complex), "-", t)
        assert np.abs(tr).max() == 0.0

    def test_single_mode_closed_form(self, model_half):
        # k = 0, component -: trace(t) = cos(t)/sqrt(pi)
        c = np.zeros(30, dtype=complex)
        c[0] = 1.0
        t = np.linspace(-2, 2, 101)
        tr = ro.boundary_trace(model_half, c, "-", t)
        assert np.abs(tr - np.cos(t) / np.sqrt(np.pi)).max() < 1e-12

    def test_trace_linearity(self, model):
        rng = np.random.default_rng(3)
        t = np.linspace(-1, 1, 33)
        c1 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        c2 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        lhs = ro.boundary_trace(model, 0.7 * c1 + c2, "-", t)
        rhs = 0.7 * ro.boundary_trace(model, c1, "-", t) \
            + ro.boundary_trace(model, c2, "-", t)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_trace_matches_rescaled_solution_near_wall(self, model):
        # extrapolate cos^{-nu_plus} E_u toward the wall and compare
        rng = np.random.default_rng(4)
        c = (rng.standard_normal(30) + 1j * rng.standard_normal(30)) \
            / (1.0 + np.arange(30)) ** 3
        t = np.linspace(-1.0, 1.0, 9)
        deltas = np.array([0.08, 0.06, 0.04, 0.02])
        x = -np.pi / 2 + deltas
        eu = solution_representative(model, c, t, x=x)
        resc = eu / np.cos(x) ** model.nu_plus
        a = np.vander(np.cos(x) ** 2, 4, increasing=True)
        extrap = np.linalg.solve(a, resc.T)[0]
        tr = ro.boundary_trace(model, c, "-", t)
        assert np.abs(extrap - tr).max() < 1e-5

    def test_dual_map_zero(self, model):
        f = ro.BoundaryBump("-", np.linspace(0, 1, 20), np.zeros(20))
        assert np.abs(dual_map(model, f)).max() == 0.0

    def test_dual_map_narrow_bump_closed_form(self, model_half):
        # unit-mass narrow bump at t = 0 on component -:
        # coeffs_k -> sqrt((k+1)/pi)
        f = ro.boundary_bump(model_half, "-", 0.0, 0.02, t_step=0.0005)
        mass = float(np.trapezoid(f.samples, f.t_grid))
        d = dual_map(model_half, f) / mass
        expect = np.sqrt((1.0 + np.arange(30)) / np.pi)
        for k in range(8):
            assert d[k] == pytest.approx(expect[k], rel=5e-3)

    def test_riesz_identity(self, model):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = ro.boundary_bump(model, rng.choice(["-", "+"]),
                                 rng.uniform(-1, 1), rng.uniform(0.3, 1.0),
                                 modulation=rng.uniform(0, 20),
                                 phase=rng.choice(["cos", "sin"]))
            v = am.bulk_bump(model, rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.4, 0.4), rng.uniform(0.15, 0.3),
                             rng.uniform(0.05, 0.09))
            c = am.one_particle_map(model, v)
            d = dual_map(model, f)
            lhs = float(np.real((d * c).sum()))
            tr = ro.boundary_trace(model, c, f.component, f.t_grid)
            wt = am._trapezoid_weights(f.t_grid)
            rhs = float((f.samples * tr * wt).sum())
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-6)


SHORT_WINDOW = (("-", -1.0, 1.0), ("+", -1.0, 1.0))
LONG_WINDOW = (("-", -3.3, 3.3), ("+", -3.3, 3.3))


def uc_lattice(model):
    """(t_start, step) of the sigma_min_ref lattice on [-3.3, 3.3]."""
    return -3.3, min(0.01, 0.15 / model.max_omega())


def uc_gap(model, o_intervals, k_eff, t_start, step):
    """|uc_scan - dense SVD| over the dense sigma_max."""
    lo, hi = ro.uc_dense_sigma_min(model, o_intervals, k_eff, t_start, step)
    return abs(am.uc_scan(model, o_intervals, k_eff, t_start, step) - lo) / hi


def amplitudes_scaled(trace_factor):
    """The boundary trace with its amplitudes scaled by 1.3."""
    def scaled(*args):
        om, amp = trace_factor(*args)
        return om, 1.3 * amp
    return scaled


# three QR blocks: 5,000 lattice times on [-3, 3]
THREE_BLOCKS = (-3.0, 6.0 / 4999)


class DropCarriedR:
    """np.linalg.qr for a faulty fold that forgets the R it returned last:
    each call factors only the rows below it."""

    def __init__(self):
        self.qr = np.linalg.qr
        self.carried = 0

    def __call__(self, a, mode):
        r = self.qr(a[self.carried:], mode=mode)
        self.carried = r.shape[0]
        return r


class TestUcScan:
    @pytest.mark.parametrize("window", [SHORT_WINDOW[:1], SHORT_WINDOW,
                                        LONG_WINDOW[1:], LONG_WINDOW])
    @pytest.mark.parametrize("k_eff", [1, 4, 30])
    def test_fold_matches_dense_svd(self, model, window, k_eff):
        assert uc_gap(model, window, k_eff, *uc_lattice(model)) < 1e-13

    def test_fold_matches_dense_svd_at_k80(self, model80):
        # two blocks per interval: 3,529 lattice times in [-3.3, 3.3]
        assert uc_gap(model80, LONG_WINDOW, 80, *uc_lattice(model80)) < 1e-13

    def test_fold_matches_dense_svd_over_three_blocks(self, model):
        assert 2 * am._UC_BLOCK < 5000 <= 3 * am._UC_BLOCK
        assert uc_gap(model, [("-", -3.0, 3.0)], 4, *THREE_BLOCKS) < 1e-13

    def test_fold_that_drops_carried_r_fails(self, model, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", DropCarriedR())
        assert uc_gap(model, [("-", -3.0, 3.0)], 4, *THREE_BLOCKS) > 1e-13

    def test_scaled_trace_amplitudes_fail(self, model, monkeypatch):
        # the dense reference builds its trace from model.omegas and
        # model.betas, so a fault in the shared _trace_factor shows
        monkeypatch.setattr(am, "_trace_factor",
                            amplitudes_scaled(am._trace_factor))
        assert uc_gap(model, LONG_WINDOW, 4, *uc_lattice(model)) > 1e-13

    def test_reference_peak_memory_stays_blocked(self, model80):
        # traced allocation peak of sigma_min_ref at K = 80 on the default
        # long window; the stacked 7,058 x 160 sample matrix and its copies
        # peaked at 22.6 MB
        w = np.ones((2 * model80.K, 1))
        tracemalloc.start()
        try:
            table = hg.run_inclusion(model80, LONG_WINDOW, (), [], w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.sigma_min_ref > 0.0
        assert peak < 10e6

    def test_empty_region(self, model):
        assert am.uc_scan(model, [], 4, -1.0, 0.01) == 0.0

    def test_single_mode_full_period_injective(self, model):
        assert am.uc_scan(model, [("-", -np.pi, np.pi)], 1, -np.pi,
                          2 * np.pi / 199) > 0.0

    def test_underdetermined_rejected(self, model):
        # 5 lattice times for 20 solution dimensions
        assert np.isnan(am.uc_scan(model, [("-", -0.1, 0.1)], 10, -0.1, 0.05))

    def test_nested_monotonicity(self, model):
        sig = []
        for th in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            ivs = [("-", -th, th), ("+", -th, th)]
            sig.append(am.uc_scan(model, ivs, 4, -3.0, 0.01))
        assert all(a <= b + 1e-14 for a, b in zip(sig, sig[1:]))
