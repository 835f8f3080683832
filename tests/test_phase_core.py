import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adsholo import phase_core as pc

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_phase_space(rng, d, sigma_scale=1.0):
    a = rng.standard_normal((d, d))
    eta = a @ a.T + d * np.eye(d)
    s = rng.standard_normal((d, d))
    sigma = s - s.T
    # scale sigma so domination with c = 2 holds
    w = np.linalg.eigvalsh(eta)
    nrm = np.linalg.norm(sigma, 2) / w.min()
    return pc.PhaseSpace(d, eta, sigma_scale * sigma / max(nrm, 1e-12))


class TestPhaseSpace:
    def test_symmetrizes_inputs(self):
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(ps.eta, ps.eta.T)

    def test_rejects_nonsymmetric_eta(self):
        with pytest.raises(pc.ShapeError):
            pc.PhaseSpace(2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))

    def test_rejects_nonantisymmetric_sigma(self):
        with pytest.raises(pc.ShapeError):
            pc.PhaseSpace(2, np.eye(2), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(pc.ShapeError):
            pc.PhaseSpace(3, np.eye(2), np.zeros((2, 2)))


class TestCheckPositivity:
    def test_zero_sigma(self):
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        rep = pc.check_positivity(ps, 1.0)
        assert rep.holds and rep.domination_norm == 0.0

    def test_scaled_j(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        assert not pc.check_positivity(ps, 1.0).holds
        rep = pc.check_positivity(ps, 2.0)
        assert rep.holds
        assert abs(rep.domination_norm - 2.0) < 1e-12

    def test_degenerate_eta_rejected(self):
        ps = pc.PhaseSpace(2, np.diag([1.0, 1e-15]), np.zeros((2, 2)))
        with pytest.raises(pc.DegenerateCovarianceError):
            pc.check_positivity(ps, 1.0)


class TestKahlerFromCovariance:
    def test_pure_kernel_case(self):
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        kd = pc.kahler_from_covariance(ps)
        assert np.allclose(kd.b, 0.0)
        assert np.allclose(kd.b_modulus, 0.0)
        assert np.allclose(kd.j, J)
        assert not kd.pure and kd.doubled_dim == 2

    def test_saturated_case(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        kd = pc.kahler_from_covariance(ps)
        assert np.allclose(kd.b, J, atol=1e-12)
        assert np.allclose(kd.b_modulus, np.eye(2), atol=1e-12)
        assert np.allclose(kd.j, J, atol=1e-12)
        assert kd.pure and kd.doubled_dim == 0

    def test_mixed_4d_block_case(self):
        # eta = diag(1,1,2,2), sigma = blkdiag(2J, 2J): b has eigenvalue
        # moduli (1, 1, 1/2, 1/2); oracle by direct eigendecomposition
        eta = np.diag([1.0, 1.0, 2.0, 2.0])
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = 2.0 * J
        sigma[2:, 2:] = 2.0 * J
        ps = pc.PhaseSpace(4, eta, sigma)
        kd = pc.kahler_from_covariance(ps)
        b_expect = 0.5 * np.linalg.solve(eta, sigma)
        assert np.allclose(kd.b, b_expect, atol=1e-12)
        mod_eigs = np.sort(np.linalg.eigvals(kd.b_modulus).real)
        assert np.allclose(mod_eigs, [0.5, 0.5, 1.0, 1.0], atol=1e-10)
        assert kd.doubled_dim == 2 and not kd.pure

    def test_odd_kernel_rejected(self):
        eta = np.eye(3)
        sigma = np.zeros((3, 3))
        sigma[:2, :2] = 2.0 * J
        with pytest.raises(pc.KernelParityError):
            pc.kahler_from_covariance(pc.PhaseSpace(3, eta, sigma))

    def test_positivity_violation_rejected(self):
        ps = pc.PhaseSpace(2, np.eye(2), 3.0 * J)
        with pytest.raises(pc.PositivityViolationError):
            pc.kahler_from_covariance(ps)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_invariants_on_random_spaces(self, seed, d):
        rng = np.random.default_rng(seed)
        ps = random_phase_space(rng, d, sigma_scale=1.6)
        kd = pc.kahler_from_covariance(ps)
        tol = 1e-9
        # sigma = 2 eta b
        assert np.abs(ps.sigma - 2.0 * ps.eta @ kd.b).max() < tol
        # j^2 = -1
        assert np.abs(kd.j @ kd.j + np.eye(d)).max() < tol
        # j is eta-orthogonal and -eta j antisymmetric
        assert np.abs(kd.j.T @ ps.eta @ kd.j - ps.eta).max() < tol
        m = ps.eta @ kd.j
        assert np.abs(m + m.T).max() < tol
        # eta-operator norm of b <= 1
        w, v = np.linalg.eigh(ps.eta)
        es = (v * np.sqrt(w)) @ v.T
        esi = (v / np.sqrt(w)) @ v.T
        assert np.linalg.norm(es @ kd.b @ esi, 2) <= 1.0 + tol
        # purity dichotomy
        lam = np.linalg.eigvals(esi @ (es @ kd.b_modulus @ esi) @ es).real
        all_one = np.all(np.abs(lam - 1.0) <= 1e-8)
        assert kd.pure == (kd.doubled_dim == 0) == all_one


def kw_inner_product(kd, ps, v, w):
    """Hermitian inner product eta(v, w) - i eta(v, j w) on the phase space."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (ps.dim,) or w.shape != (ps.dim,):
        raise pc.ShapeError("vectors must match the phase space dimension")
    ew = ps.eta @ w
    return complex(v @ ew - 1j * (v @ (ps.eta @ (kd.j @ w))))


class TestKwInnerProduct:
    def test_diagonal_real_positive(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        kd = pc.kahler_from_covariance(ps)
        v = np.array([0.3, -1.1])
        val = kw_inner_product(kd, ps, v, v)
        assert abs(val.imag) < 1e-12
        assert val.real == pytest.approx(v @ v)

    def test_basis_pair(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        kd = pc.kahler_from_covariance(ps)
        val = kw_inner_product(kd, ps, [1.0, 0.0], [0.0, 1.0])
        assert val == pytest.approx(-1j)

    def test_hermitian_and_sesquilinear(self):
        rng = np.random.default_rng(7)
        ps = random_phase_space(rng, 6, sigma_scale=1.5)
        kd = pc.kahler_from_covariance(ps)
        for _ in range(100):
            v = rng.standard_normal(6)
            w = rng.standard_normal(6)
            a = kw_inner_product(kd, ps, v, w)
            b = kw_inner_product(kd, ps, w, v)
            assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(a))
            c = kw_inner_product(kd, ps, kd.j @ v, w)
            assert abs(c - (-1j) * a) < 1e-9 * max(1.0, abs(a))


def projector(g):
    u = pc.span_basis(g)
    return u @ u.T


class TestEtaProjector:
    """The projector onto a span at eta = I: U U^T with U = span_basis."""

    def test_single_vector(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        assert np.allclose(projector(e1), e1 @ e1.T)

    def test_dependent_generators_collapse(self):
        e1 = np.array([1.0, 0.0, 0.0])
        u = pc.span_basis(np.column_stack([e1, 2.0 * e1]))
        assert u.shape == (3, 1)
        assert np.allclose(u @ u.T, projector(e1[:, None]))

    def test_full_span_is_identity(self):
        assert np.allclose(projector(np.eye(3)), np.eye(3))

    def test_empty_is_zero(self):
        u = pc.span_basis(np.zeros((3, 0)))
        assert u.shape == (3, 0)
        assert np.array_equal(u @ u.T, np.zeros((3, 3)))

    def test_recombination_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 3))
        m = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert np.abs(projector(g) - projector(g @ m)).max() < 1e-9

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        u = pc.span_basis(rng.standard_normal((6, 3)))
        assert np.abs(u.T @ u - np.eye(3)).max() < 1e-9


class TestInclusionCheck:
    """Inclusion residuals at eta = I: relative_residuals."""

    def test_empty_bulk_vacuous(self):
        r = pc.relative_residuals(np.zeros((2, 0)), np.zeros((2, 0)))
        assert r.shape == (0,)

    def test_empty_boundary_span_excludes_everything(self):
        w = np.array([[0.3, 0.0], [-0.7, 0.0]])
        r = pc.relative_residuals(pc.span_basis(np.zeros((2, 0))), w)
        assert list(r) == [1.0, 0.0]

    def test_total_boundary_span(self):
        r = pc.relative_residuals(pc.span_basis(np.eye(2)),
                                  np.array([[0.3], [-0.7]]))
        assert r.max() < 1e-12

    def test_plane_geometry(self):
        r = pc.relative_residuals(pc.span_basis(np.array([[1.0], [0.0]])),
                                  np.array([[1.0], [1.0]]))
        assert r.max() == pytest.approx(1.0 / np.sqrt(2.0))

    def test_monotone_in_boundary_span(self):
        rng = np.random.default_rng(5)
        bulk = rng.standard_normal((8, 3))
        gens = rng.standard_normal((8, 6))
        prev = None
        for n in range(1, 7):
            r = pc.relative_residuals(pc.span_basis(gens[:, :n]), bulk)
            if prev is not None:
                assert all(b <= a + 1e-12 for a, b in zip(prev, r))
            prev = r


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5).map(lambda k: 2 * k))
@settings(max_examples=25, deadline=None)
def test_kahler_roundtrip_property(seed, d):
    """sigma reconstructed as 2 eta j |b| (polar factors recombine)."""
    rng = np.random.default_rng(seed)
    ps = random_phase_space(rng, d, sigma_scale=1.2)
    kd = pc.kahler_from_covariance(ps)
    recon = 2.0 * ps.eta @ (kd.j @ kd.b_modulus)
    scale = max(np.abs(ps.sigma).max(), 1.0)
    assert np.abs(recon - ps.sigma).max() < 1e-8 * scale
