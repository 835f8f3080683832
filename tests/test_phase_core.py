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


def form(ps):
    return 2.0 * ps.eta + 1j * ps.sigma


def assert_factors(k, ps, rtol=1e-12):
    """K^H K = 2 eta + i sigma to rtol relative to the largest entry."""
    f = form(ps)
    assert np.abs(k.conj().T @ k - f).max() <= rtol * max(np.abs(f).max(),
                                                           1.0)


class TestCheckPositivity:
    """Domination of sigma by the covariance, as positivity of
    2 eta + i sigma, the condition under which one_particle_structure
    returns a factor."""

    def test_zero_sigma(self):
        # any covariance dominates sigma = 0; K is sqrt(2 eta) up to a unitary
        ps = pc.PhaseSpace(2, np.diag([1.0, 3.0]), np.zeros((2, 2)))
        k = pc.one_particle_structure(ps)
        assert np.allclose(np.linalg.norm(k, axis=1) ** 2, [2.0, 6.0],
                           atol=1e-14)
        assert_factors(k, ps)

    def test_scaled_j(self):
        k = pc.one_particle_structure(pc.PhaseSpace(2, np.eye(2), 2.0 * J))
        assert k.shape == (1, 2)
        with pytest.raises(pc.ShapeError, match="not dominated"):
            pc.one_particle_structure(
                pc.PhaseSpace(2, np.eye(2), 2.0 * (1.0 + 1e-6) * J))

    def test_degenerate_eta_rejected(self):
        # sigma does not vanish on the kernel of eta: 2 eta + i sigma has a
        # negative eigenvalue, however small sigma is
        ps = pc.PhaseSpace(2, np.diag([1.0, 0.0]), 1e-3 * J)
        with pytest.raises(pc.ShapeError, match="not dominated"):
            pc.one_particle_structure(ps)

    def test_degenerate_eta_with_vanishing_sigma_accepted(self):
        # a valid quasi-free state: the kernel of eta carries no field
        ps = pc.PhaseSpace(3, np.diag([1.0, 1.0, 0.0]),
                           np.pad(2.0 * J, ((0, 1), (0, 1))))
        k = pc.one_particle_structure(ps)
        assert k.shape == (1, 3)
        assert np.abs(k[:, 2]).max() < 1e-15
        assert_factors(k, ps)


class TestKahlerFromCovariance:
    """The one-particle structure K of a covariance pair: K^H K equals
    2 eta + i sigma, and its m rows span the range of that form, so
    m = d / 2 exactly for a pure state."""

    def test_pure_kernel_case(self):
        # sigma = 0: a classical state, no saturated plane, m = d
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        k = pc.one_particle_structure(ps)
        assert k.shape == (2, 2) and 2 * len(k) - ps.dim == 2
        assert_factors(k, ps)

    def test_saturated_case(self):
        # 2 (I + i J) = 4 u u^H for u = (1, -i) / sqrt(2), so K is
        # sqrt(2) (1, i) up to a phase
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        assert k.shape == (1, 2)
        assert abs(abs(k[0, 0]) - np.sqrt(2.0)) < 1e-14
        assert abs(k[0, 1] - 1j * k[0, 0]) < 1e-14
        assert_factors(k, ps)

    def test_mixed_4d_block_case(self):
        # eta = diag(1, 1, 2, 2), sigma = blkdiag(2J, 2J): the form has
        # eigenvalues (0, 4) on the saturated plane and (2, 6) on the other
        eta = np.diag([1.0, 1.0, 2.0, 2.0])
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = 2.0 * J
        sigma[2:, 2:] = 2.0 * J
        ps = pc.PhaseSpace(4, eta, sigma)
        k = pc.one_particle_structure(ps)
        assert k.shape == (3, 4) and 2 * len(k) - ps.dim == 2
        assert np.allclose(np.sort(np.linalg.norm(k, axis=1) ** 2),
                           [2.0, 4.0, 6.0], atol=1e-12)
        assert_factors(k, ps)

    def test_odd_kernel_accepted(self):
        # the third direction commutes with everything: one saturated plane
        # and one classical direction, m = 2
        eta = np.eye(3)
        sigma = np.zeros((3, 3))
        sigma[:2, :2] = 2.0 * J
        ps = pc.PhaseSpace(3, eta, sigma)
        k = pc.one_particle_structure(ps)
        assert k.shape == (2, 3)
        assert_factors(k, ps)

    def test_positivity_violation_rejected(self):
        ps = pc.PhaseSpace(2, np.eye(2), 3.0 * J)
        with pytest.raises(pc.ShapeError, match="not dominated"):
            pc.one_particle_structure(ps)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_invariants_on_random_spaces(self, seed, d):
        # domination with room to spare: the form is definite, m = d, and
        # the rows of K are orthogonal with squared norms its eigenvalues
        rng = np.random.default_rng(seed)
        ps = random_phase_space(rng, d, sigma_scale=1.6)
        k = pc.one_particle_structure(ps)
        assert k.shape == (d, d)
        assert_factors(k, ps, rtol=1e-13)
        gram = k @ k.conj().T
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12 * d
        assert np.allclose(np.diag(gram).real,
                           np.linalg.eigvalsh(form(ps)), rtol=1e-12)


def complex_structure(k):
    """For a pure state (K square as a real map R^d -> C^{d/2}), the real
    j with K j v = i K v."""
    r = np.vstack([k.real, k.imag])
    m = len(k)
    i_mult = np.block([[np.zeros((m, m)), -np.eye(m)],
                       [np.eye(m), np.zeros((m, m))]])
    return np.linalg.solve(r, i_mult @ r)


def kw_inner_product(k, v, w):
    """<K v, K w> = 2 eta(v, w) + i sigma(v, w)."""
    return complex(np.vdot(k @ np.asarray(v, dtype=float),
                           k @ np.asarray(w, dtype=float)))


class TestKwInnerProduct:
    def test_diagonal_real_positive(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        v = np.array([0.3, -1.1])
        val = kw_inner_product(k, v, v)
        assert abs(val.imag) < 1e-12
        assert val.real == pytest.approx(2.0 * v @ v)

    def test_basis_pair(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        assert kw_inner_product(k, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            2j)

    def test_hermitian_and_sesquilinear(self):
        # a pure state on R^6 in random symplectic coordinates: the inner
        # product is Hermitian, and complex linear for the complex structure
        # j that K carries, which is eta-orthogonal with j^2 = -1
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        z, e = np.zeros((3, 3)), np.eye(3)
        ps = pc.PhaseSpace(6, a.T @ a,
                           2.0 * a.T @ np.block([[z, e], [-e, z]]) @ a)
        k = pc.one_particle_structure(ps)
        assert k.shape == (3, 6)
        j = complex_structure(k)
        assert np.abs(j @ j + np.eye(6)).max() < 1e-9
        assert np.abs(j.T @ ps.eta @ j - ps.eta).max() < 1e-9 * np.abs(
            ps.eta).max()
        for _ in range(100):
            v = rng.standard_normal(6)
            w = rng.standard_normal(6)
            x = kw_inner_product(k, v, w)
            assert abs(x - np.conj(kw_inner_product(k, w, v))) < 1e-12 * max(
                1.0, abs(x))
            assert abs(x - (2.0 * v @ ps.eta @ w + 1j * v @ ps.sigma @ w)) \
                < 1e-10 * max(1.0, abs(x))
            assert abs(kw_inner_product(k, v, j @ w) - 1j * x) < 1e-9 * max(
                1.0, abs(x))


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


def canonical_pair(rng, d, saturated):
    """(PhaseSpace, rank of 2 eta + i sigma) in random coordinates: planes
    with eta = I and sigma = 2 lam J, lam = 1 (one-dimensional range) or in
    [0, 0.9] (two-dimensional), plus for odd d a direction with eta = 1 and
    sigma = 0, or with eta = sigma = 0, which adds nothing to the rank."""
    half = d // 2
    lam = np.where(saturated | (rng.uniform(size=half) < 0.5), 1.0,
                   rng.uniform(0.0, 0.9, half))
    eta = np.eye(d)
    sigma = np.zeros((d, d))
    for i, l in enumerate(lam):
        sigma[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 2.0 * l * J
    rank = int(np.sum(np.where(lam == 1.0, 1, 2)))
    if d % 2:
        eta[-1, -1] = float(rng.integers(2))
        rank += int(eta[-1, -1])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = q * rng.uniform(0.5, 2.0, d)
    return pc.PhaseSpace(d, a.T @ eta @ a, a.T @ sigma @ a), rank


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_kahler_roundtrip_property(seed, d, saturated):
    """2 eta + i sigma recombines from its factor K to 1e-12 relative, K has
    one row per dimension of its range, and a saturated pair of even
    dimension is pure: m = d / 2."""
    ps, rank = canonical_pair(np.random.default_rng(seed), d, saturated)
    k = pc.one_particle_structure(ps)
    assert_factors(k, ps)
    assert k.shape == (rank, d)
    if saturated and d % 2 == 0:
        assert len(k) == d // 2
