from itertools import product
from math import factorial

import numpy as np
import pytest
from scipy import special
from scipy.linalg import block_diag

import reference_ops as ro
from adsholo import ccr_fock as cf
from adsholo import phase_core as pc

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def low_occupation_columns(rep, cap):
    return [j for j, occ in enumerate(rep.basis) if sum(occ) <= cap]


class TestFockRep:
    def test_dimension_count(self):
        rep = cf.fock_rep(2, 3)
        assert rep.dim == 10  # C(5, 2)

    def test_vacuum_index(self):
        rep = cf.fock_rep(3, 2)
        assert rep.basis[rep.vacuum_index] == (0, 0, 0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(pc.ShapeError):
            cf.fock_rep(0, 3)

    @pytest.mark.parametrize("m, n_max", [(1, 1), (1, 7), (2, 5), (3, 4),
                                          (5, 2)])
    def test_simplex_matches_filtered_product(self, m, n_max):
        basis = tuple(n for n in product(range(n_max + 1), repeat=m)
                      if sum(n) <= n_max)
        assert cf.fock_rep(m, n_max).basis == basis


def dense_annihilation(rep, h):
    """Reference a(h): the dense loop over basis vectors and modes."""
    h = np.asarray(h, dtype=complex)
    a = np.zeros((rep.dim, rep.dim), dtype=complex)
    for col, occ in enumerate(rep.basis):
        for i, n_i in enumerate(occ):
            if n_i == 0 or h[i] == 0:
                continue
            lowered = occ[:i] + (n_i - 1,) + occ[i + 1:]
            a[rep.index[lowered], col] += np.sqrt(n_i) * np.conj(h[i])
    return a


def dense_weyl(rep, h):
    """Reference W(h) = exp(i phi(h)) from the eigendecomposition
    phi(h) = V diag(lam) V^H of the dense Hermitian field: V e^{i lam} V^H."""
    lam, v = np.linalg.eigh(cf.segal_field(rep, h).toarray())
    return (v * np.exp(1j * lam)) @ v.conj().T


class TestLadderOperators:
    @pytest.mark.parametrize("m, n_max", [(1, 40), (2, 12), (3, 6), (6, 2)])
    def test_sparse_equals_dense_loop(self, m, n_max):
        rep = cf.fock_rep(m, n_max)
        rng = np.random.default_rng(m)
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h[0] = 0.0          # a mode with zero weight contributes no entries
        for g in (h, np.eye(m)[-1]):
            ref = dense_annihilation(rep, g)
            assert np.array_equal(ro.annihilation(rep, g).toarray(), ref)
            phi = cf.segal_field(rep, g).toarray()
            assert np.array_equal(phi, (ref + ref.conj().T) / np.sqrt(2.0))

    def test_one_mode_ladder_action(self):
        rep = cf.fock_rep(1, 5)
        a = ro.annihilation(rep, [1.0])
        for n in range(1, 6):
            col = rep.index[(n,)]
            row = rep.index[(n - 1,)]
            assert a[row, col] == pytest.approx(np.sqrt(n))
        assert np.abs(a[:, rep.vacuum_index]).max() == 0.0

    def test_ccr_below_cutoff_and_cutoff_artifact(self):
        rep = cf.fock_rep(1, 3)
        a = ro.annihilation(rep, [1.0])
        comm = a @ a.conj().T - a.conj().T @ a
        for n in range(3):
            i = rep.index[(n,)]
            assert comm[i, i] == pytest.approx(1.0)
        i3 = rep.index[(3,)]
        assert comm[i3, i3] != pytest.approx(1.0)  # truncation artifact

    def test_two_mode_commutator_norm(self):
        rep = cf.fock_rep(2, 6)
        h = np.array([1.0, 1j])
        a = ro.annihilation(rep, h).toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        cols = low_occupation_columns(rep, 5)
        for j in cols:
            col = comm[:, j].copy()
            col[j] -= 2.0  # (h|h) = 2
            assert np.linalg.norm(col) < 1e-12

    def test_number_operator_vacuum(self):
        rep = cf.fock_rep(2, 4)
        h = np.array([0.3, -0.4j])
        a = ro.annihilation(rep, h)
        num = (a.conj().T @ a).toarray()
        assert np.linalg.eigvalsh(num).min() > -1e-12
        i0 = rep.vacuum_index
        assert abs(num[i0, i0]) < 1e-14


class TestSegalField:
    def test_zero_vector(self):
        rep = cf.fock_rep(1, 4)
        assert np.abs(cf.segal_field(rep, [0.0])).max() == 0.0

    def test_self_adjoint(self):
        # the transposed half carries the exact conjugates
        rng = np.random.default_rng(0)
        for m, n_max in [(1, 40), (2, 5), (3, 8)]:
            f = cf.segal_field(cf.fock_rep(m, n_max), rng.standard_normal(m)
                               + 1j * rng.standard_normal(m))
            assert f.nnz and (f != f.conj().T).nnz == 0

    def test_commutator_identity(self):
        rep = cf.fock_rep(1, 8)
        f1 = cf.segal_field(rep, [1.0]).toarray()
        f2 = cf.segal_field(rep, [1j]).toarray()
        comm = f1 @ f2 - f2 @ f1
        for j in low_occupation_columns(rep, 6):
            col = comm[:, j].copy()
            col[j] -= 1j  # Im(h1|h2) = 1
            assert np.linalg.norm(col) < 1e-12

    def test_vacuum_second_moment(self):
        rep = cf.fock_rep(1, 10)
        f = cf.segal_field(rep, [1.0])
        i0 = rep.vacuum_index
        assert (f @ f)[i0, i0].real == pytest.approx(0.5)

    def test_real_linearity(self):
        rep = cf.fock_rep(2, 4)
        h1 = np.array([0.2 + 1j, -0.5])
        h2 = np.array([1.0, 0.3j])
        lhs = cf.segal_field(rep, 1.7 * h1 + h2)
        rhs = 1.7 * cf.segal_field(rep, h1) + cf.segal_field(rep, h2)
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("m, n_max", [(1, 40), (2, 40), (3, 12), (2, 16),
                                          (6, 2)])
    def test_layout_matches_coo_constructor(self, m, n_max):
        # one h fills the stored layout with the very arrays that a COO to
        # CSR conversion of the ladder pattern gives
        rep = cf.fock_rep(m, n_max)
        rng = np.random.default_rng(m + n_max)
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        got, want = cf.segal_field(rep, h), ro.coo_segal_field(rep, h)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_batch_is_direct_sum(self):
        rep = cf.fock_rep(2, 5)
        rng = np.random.default_rng(3)
        hs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        want = block_diag(*[cf.segal_field(rep, h).toarray() for h in hs])
        assert np.array_equal(cf.segal_field(rep, hs).toarray(), want)


def weyl_relation_residual(rep, h1, h2, phase):
    """Largest entry of (W(h1) W(h2) - phase W(h1 + h2)) on occupations <= 10."""
    e_low = np.eye(rep.dim)[:, low_occupation_columns(rep, 10)]
    w12 = cf.weyl_apply(rep, [h1], cf.weyl_apply(rep, [h2], e_low))
    return np.abs(w12 - phase * cf.weyl_apply(rep, [h1 + h2], e_low)).max()


class TestWeylOperator:
    """W(h) = exp(i phi(h)) through weyl_apply on blocks of basis vectors."""

    def test_zero_is_identity(self):
        rep = cf.fock_rep(1, 6)
        eye = np.eye(rep.dim)
        assert np.abs(cf.weyl_apply(rep, [0.0], eye) - eye).max() < 1e-14

    def test_parallel_displacements_compose(self):
        rep = cf.fock_rep(1, 40)
        assert weyl_relation_residual(rep, 0.3, 0.5, 1.0) < 1e-10

    def test_weyl_relation(self):
        rep = cf.fock_rep(1, 40)
        h1, h2 = 0.4, 0.3j
        phase = np.exp(-0.5j * np.imag(np.conj(h1) * h2))
        assert weyl_relation_residual(rep, h1, h2, phase) < 1e-6

    def test_conjugated_phase_breaks_weyl_relation(self):
        # the wrong sign of the symplectic phase is visible far above the
        # 1e-6 bound of ccr-verify and criterion 5
        rep = cf.fock_rep(1, 40)
        h1, h2 = 0.4, 0.3j
        phase = np.exp(-0.5j * np.imag(np.conj(h1) * h2))
        assert weyl_relation_residual(rep, h1, h2, np.conj(phase)) > 1e-2

    def test_vacuum_coherent_overlap(self):
        rep = cf.fock_rep(1, 40)
        i0 = rep.vacuum_index
        w_vac = cf.weyl_apply(rep, [1.0], np.eye(rep.dim)[:, i0])
        assert abs(w_vac[i0] - np.exp(-0.25)) < 1e-8

    def test_adjoint_is_negated_argument(self):
        rep = cf.fock_rep(1, 30)
        h = 0.6 - 0.1j
        eye = np.eye(rep.dim)
        w = cf.weyl_apply(rep, [h], eye)
        wm = cf.weyl_apply(rep, [-h], eye)
        assert np.abs(w.conj().T - wm).max() < cf.EXP_TOLERANCE

    def test_norm_cap_enforced(self):
        rep = cf.fock_rep(1, 10)
        with pytest.raises(pc.ShapeError, match="displacement cap"):
            cf.weyl_apply(rep, [2.5], np.zeros(rep.dim))


def random_block(rng, dim, k):
    psi = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return psi / np.linalg.norm(psi, axis=0)


def displacement(rng, m, radius):
    """A random h in C^m with ||h|| = radius, less 1e-12 relative so that
    the rounding of the norm cannot push h at the cap over it."""
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return h * (radius * (1.0 - 1e-12) / np.linalg.norm(h))


def dense_weyl_gaps(rep, seed):
    """Largest entry of weyl_apply minus the dense exponential, for ||h||
    from 0.03 to WEYL_NORM_CAP: one h per call on a random block and on a
    single vector, then the four h in one call, on one shared block and on
    a block each."""
    rng = np.random.default_rng(seed)
    single, hs, blocks, weyls = 0.0, [], [], []
    for radius in (0.03, 0.3, 1.0, cf.WEYL_NORM_CAP):
        h = displacement(rng, rep.one_particle_dim, radius)
        psis = random_block(rng, rep.dim, 3)
        w = dense_weyl(rep, h)
        want = w @ psis
        single = max(single,
                     np.abs(cf.weyl_apply(rep, h, psis) - want).max(),
                     np.abs(cf.weyl_apply(rep, h, psis[:, 0])
                            - want[:, 0]).max())
        hs.append(h)
        blocks.append(psis)
        weyls.append(w)
    shared = random_block(rng, rep.dim, 3)
    return {
        "single": single,
        "shared batch": np.abs(cf.weyl_apply(rep, hs, shared) - np.array(
            [w @ shared for w in weyls])).max(),
        "per-h batch": np.abs(cf.weyl_apply(rep, hs, np.array(blocks))
                              - np.array([w @ p for w, p in zip(weyls, blocks)])
                              ).max()}


class TestWeylApply:
    @pytest.mark.parametrize("m, n_max", [(1, 40), (2, 40), (2, 16), (3, 8)])
    def test_matches_dense_weyl_operator(self, m, n_max):
        gaps = dense_weyl_gaps(cf.fock_rep(m, n_max), 10 + m)
        assert max(gaps.values()) <= 1e-13, gaps

    def test_series_three_terms_short_misses(self, monkeypatch):
        # the Bessel tail the series keeps is visible at the 1e-13 agreement
        # on the short series of the smallest displacement; a batch runs the
        # longer series of its largest block, whose last three terms add
        # less than 1e-15
        series = cf._series_coefficients
        monkeypatch.setattr(cf, "_series_coefficients",
                            lambda a: series(a)[:-3])
        gaps = dense_weyl_gaps(cf.fock_rep(1, 40), 11)
        assert gaps["single"] > 1e-13, gaps

    def test_crossed_blocks_miss(self, monkeypatch):
        # block j given exp(i phi(h_(j-1))) is visible in both batches
        weyl_apply = cf.weyl_apply
        monkeypatch.setattr(cf, "weyl_apply", lambda rep, h, psis: weyl_apply(
            rep, np.roll(h, 1, axis=0), psis))
        gaps = dense_weyl_gaps(cf.fock_rep(1, 40), 11)
        assert min(gaps["shared batch"], gaps["per-h batch"]) > 1e-2, gaps

    @pytest.mark.parametrize("m, n_max", [(1, 40), (2, 16), (3, 8)])
    def test_series_bound_covers_spectrum(self, monkeypatch, m, n_max):
        # one h, then a batch whose largest block is not its first
        rep = cf.fock_rep(m, n_max)
        rng = np.random.default_rng(m)
        hs = [displacement(rng, m, r) for r in (cf.WEYL_NORM_CAP, 0.4, 1.3)]
        bounds = []
        series = cf._series_coefficients
        monkeypatch.setattr(cf, "_series_coefficients",
                            lambda a: bounds.append(a) or series(a))
        cf.weyl_apply(rep, hs[0], np.zeros(rep.dim))
        cf.weyl_apply(rep, hs[1:] + hs[:1], np.zeros(rep.dim))
        radius = [np.abs(np.linalg.eigvalsh(
            cf.segal_field(rep, h).toarray())).max() for h in hs]
        assert len(bounds) == 2
        assert bounds[0] >= radius[0] and bounds[1] >= max(radius)

    def test_zero_block_returns_its_input(self):
        rep = cf.fock_rep(2, 16)
        rng = np.random.default_rng(4)
        hs = [displacement(rng, 2, 1.5), np.zeros(2)]
        psis = np.array([random_block(rng, rep.dim, 3) for _ in hs])
        assert np.abs(cf.weyl_apply(rep, hs, psis)[1] - psis[1]).max() <= 1e-14

    def test_shared_block_when_dim_equals_batch_size(self):
        # fock_rep(1, 2) has dim 3: three h and a (3, k) block or a (3,)
        # vector still share psis, which is read from ndim, not from shape
        rep = cf.fock_rep(1, 2)
        rng = np.random.default_rng(5)
        hs = [displacement(rng, 1, r) for r in (0.2, 0.9, 1.6)]
        psis = random_block(rng, rep.dim, 2)
        for p in (psis, psis[:, 0]):
            got = cf.weyl_apply(rep, hs, p)
            assert got.shape == (3,) + p.shape
            assert max(np.abs(g - dense_weyl(rep, h) @ p).max()
                       for g, h in zip(got, hs)) <= 1e-13
    @pytest.mark.parametrize("h", [0.5, -1.2j, 1.0 + 0.7j, 2.0, -1.2 - 1.6j])
    def test_vacuum_is_coherent_state(self, h):
        # W(h)|0> = exp(-|h|^2/4) sum_n alpha^n / sqrt(n!) |n>, alpha = i h/sqrt2
        # (Cahill & Glauber 1969), on every level of the n_max = 40 cutoff
        rep = cf.fock_rep(1, 40)
        vac = np.zeros(rep.dim)
        vac[rep.vacuum_index] = 1.0
        alpha = 1j * h / np.sqrt(2.0)
        want = np.array([np.exp(-abs(h) ** 2 / 4.0) * alpha ** n
                         / np.sqrt(float(factorial(n))) for n in range(41)])
        got = cf.weyl_apply(rep, [h], vac)
        assert np.abs(got[[rep.index[(n,)] for n in range(41)]]
                      - want).max() <= 1e-12

    def test_rejects_bad_input(self):
        rep = cf.fock_rep(2, 6)
        psi = np.zeros(rep.dim)
        with pytest.raises(pc.ShapeError, match="displacement cap"):
            cf.weyl_apply(rep, [2.0, 0.5], psi)
        with pytest.raises(pc.ShapeError):
            cf.weyl_apply(rep, [0.5], psi)
        with pytest.raises(pc.ShapeError):
            cf.weyl_apply(rep, [0.5, 0.0], psi[1:])

    def test_rejects_bad_batch(self):
        rep = cf.fock_rep(2, 6)
        hs = [[0.5, 0.1j], [0.2, 0.0], [0.0, -0.3]]
        blocks = np.zeros((3, rep.dim, 2))
        with pytest.raises(pc.ShapeError, match="displacement cap"):
            cf.weyl_apply(rep, hs + [[2.0, 0.5]], blocks[0])
        with pytest.raises(pc.ShapeError):
            cf.weyl_apply(rep, hs, blocks[:2])      # a block per h, short
        with pytest.raises(pc.ShapeError):
            cf.weyl_apply(rep, hs[0], blocks)       # one h, a block per h
        with pytest.raises(pc.ShapeError):
            cf.weyl_apply(rep, np.zeros((0, 2)), blocks[0])


def coherent_gap(rep, weyl_apply, seed):
    """Largest entry of weyl_apply(rep, h, vacuum) minus the coherent state
    exp(-||h||^2 / 4) prod_j (i h_j / sqrt 2)^(n_j) / sqrt(n_j!) over the
    whole basis, for ||h|| from 0.03 to 1.9, so that a displacement 1 %
    too large stays under WEYL_NORM_CAP."""
    rng = np.random.default_rng(seed)
    occ = np.array(rep.basis)
    root_factorial = np.sqrt([float(factorial(n))
                              for n in range(rep.n_max + 1)])
    vac = np.zeros(rep.dim)
    vac[rep.vacuum_index] = 1.0
    gap = 0.0
    for radius in (0.03, 0.3, 1.0, 1.9):
        h = displacement(rng, rep.one_particle_dim, radius)
        alpha = 1j * h / np.sqrt(2.0)
        want = np.exp(-np.linalg.norm(h) ** 2 / 4.0) * np.prod(
            alpha ** occ / root_factorial[occ], axis=1)
        gap = max(gap, np.abs(weyl_apply(rep, h, vac) - want).max())
    return gap


class TestCoherentState:
    @pytest.mark.parametrize("m, n_max", [(1, 40), (2, 40), (3, 40)])
    def test_vacuum_displacement_amplitudes(self, m, n_max):
        assert coherent_gap(cf.fock_rep(m, n_max), cf.weyl_apply, m) <= 1e-13

    @pytest.mark.parametrize("fault", [
        lambda h: np.conj(h), lambda h: 1.01 * np.asarray(h)],
        ids=["conjugated", "scaled"])
    def test_wrong_displacement_misses(self, fault):
        gap = coherent_gap(cf.fock_rep(2, 40), lambda rep, h, psis:
                           cf.weyl_apply(rep, fault(h), psis), 2)
        assert gap > 1e-3


def series_cut_misses(series):
    """The a on a grid from 0 to 3000 where series(a) is not J_0(a), then
    2 i^k J_k(a) up to the last k with |J_k(a)| >= SERIES_CUT, and at least
    two terms.  That k is found in a window of 30 a^(1/3) + 60 past a."""
    misses = []
    for a in np.concatenate([[0.0, 1e-18], np.geomspace(1e-3, 3000.0, 60)]):
        j = special.jv(np.arange(int(a + 30.0 * np.cbrt(a)) + 60), a)
        n = max(2, int(np.flatnonzero(np.abs(j) >= cf.SERIES_CUT)[-1]) + 1)
        want = 2.0 * j[:n] * np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
        want[0] = j[0]
        c = series(a)
        if len(c) != n or np.abs(c - want).max() > 1e-15:
            misses.append(a)
    return misses


class TestSeriesCoefficients:
    def test_cut_at_last_coefficient_above_series_cut(self):
        assert series_cut_misses(cf._series_coefficients) == []

    def test_three_terms_short_misses(self):
        assert series_cut_misses(lambda a: cf._series_coefficients(a)[:-3])


def kw_field(rep, k, v):
    """The field of the phase-space vector v for one-particle structure k."""
    return cf.segal_field(rep, k @ np.asarray(v, dtype=float)).toarray()


class TestKwField:
    """Fields phi(K v) of a quasi-free state reproduce its symplectic form:
    [phi(K v), phi(K w)] = i sigma(v, w) below the cutoff."""

    def test_classical_limit_commutes(self):
        # sigma = 0: K has d rows and all fields commute
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(len(k), 6)
        f1, f2 = kw_field(rep, k, [1.0, 0.0]), kw_field(rep, k, [0.0, 1.0])
        comm = f1 @ f2 - f2 @ f1
        cols = low_occupation_columns(rep, rep.n_max - 2)
        assert np.abs(comm[:, cols]).max() < 1e-12

    def test_pure_case_commutator(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(len(k), 12)
        f1, f2 = kw_field(rep, k, [1.0, 0.0]), kw_field(rep, k, [0.0, 1.0])
        comm = f1 @ f2 - f2 @ f1
        for j in low_occupation_columns(rep, 10):
            col = comm[:, j].copy()
            col[j] -= 2j  # v . sigma w = 2
            assert np.linalg.norm(col) < 1e-10

    def test_mixed_case_commutator(self):
        eta = np.diag([1.0, 1.0, 2.0, 2.0])
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = 2.0 * J
        sigma[2:, 2:] = 2.0 * J
        ps = pc.PhaseSpace(4, eta, sigma)
        k = pc.one_particle_structure(ps)
        assert len(k) == 3
        rep = cf.fock_rep(3, 12)
        rng = np.random.default_rng(1)
        for _ in range(3):
            v = 0.5 * rng.standard_normal(4)
            w = 0.5 * rng.standard_normal(4)
            fv, fw = kw_field(rep, k, v), kw_field(rep, k, w)
            comm = fv @ fw - fw @ fv
            s = float(v @ (ps.sigma @ w))
            for j in low_occupation_columns(rep, 10):
                col = comm[:, j].copy()
                col[j] -= 1j * s
                assert np.linalg.norm(col) < 1e-9


class TestQuasifreeExpectation:
    def test_zero_vector(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(1, 10)
        # exp(i phi(0)) = 1, and exp(-eta(0, 0) / 2) = 1 exactly
        assert cf.quasifree_expectation_check(
            rep, k, ps, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_pure_case_gaussian_form(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(1, 40)
        assert cf.quasifree_expectation_check(rep, k, ps, [1.0, 0.0]) <= 1e-6

    def test_error_sweep_within_unit_ball(self):
        ps = pc.PhaseSpace(2, np.eye(2), 2.0 * J)
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(1, 40)
        for s in (0.2, 0.5, 0.8, 1.0):
            assert cf.quasifree_expectation_check(
                rep, k, ps, [s, 0.0]) <= 1e-5

    def test_mixed_state_expectation(self):
        # sigma = 0 with eta = identity: fully classical Gaussian state
        ps = pc.PhaseSpace(2, np.eye(2), np.zeros((2, 2)))
        k = pc.one_particle_structure(ps)
        rep = cf.fock_rep(len(k), 30)
        assert cf.quasifree_expectation_check(rep, k, ps, [0.7, 0.2]) <= 1e-8
