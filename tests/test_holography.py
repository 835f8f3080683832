import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ro
from adsholo import ads_model as am
from adsholo import ccr_fock as cf
from adsholo import cli
from adsholo import holography as hg
from adsholo import phase_core as pc


@pytest.fixture(scope="module")
def small_plan():
    """The ladder_pass arguments of the default regions and seed, with a
    short ladder and four bulk generators."""
    cfg = cli.RunConfig()
    return dict(o_region=cli.parse_o_region(cfg.o),
                v_region=cli.parse_v_region(cfg.v),
                ladder=(10, 20, 40, 80), n_bulk=4, seed=cfg.seed)


@pytest.fixture(scope="module")
def small_model():
    return am.build_model(0.7, 12, 256)


class TestBoundaryDictionary:
    def test_single_bump(self, small_model):
        groups = hg.boundary_dictionary(small_model, (("-", -1.0, 1.0),), 1)
        assert len(groups) == 1
        comp, t, profiles = groups[0]
        assert comp == "-" and len(profiles) == 1
        inside = t[profiles[0] != 0.0]
        assert inside.min() >= -1.0 and inside.max() <= 1.0

    def test_empty_region(self, small_model):
        assert hg.boundary_dictionary(small_model, (), 5) == []

    def test_groups_are_the_bump_stream(self, small_model):
        # each center's 2l + 1 profiles share its grid; the last group is
        # cut at the size; the stream is the one of bumps built one by one
        o = (("-", -2.0, 2.0), ("+", -2.0, 2.0))
        groups = hg.boundary_dictionary(small_model, o, 23)
        assert [len(p) for _, _, p in groups] == [1, 1, 3, 3, 3, 3, 5, 4]
        ref = iter(ro.bump_stream(small_model, o, 23))
        for comp, t, profiles in groups:
            for p in profiles:
                f = next(ref)
                assert f.component == comp
                assert np.array_equal(f.t_grid, t)
                assert np.array_equal(f.samples, p)
        assert next(ref, None) is None

    def test_prefix_property(self, small_model):
        o = (("-", -2.0, 2.0), ("+", -2.0, 2.0))
        small = elements(hg.boundary_dictionary(small_model, o, 7))
        big = elements(hg.boundary_dictionary(small_model, o, 23))
        assert len(small) == 7 and len(big) == 23
        for (ca, a), (cb, b) in zip(small, big):
            assert ca == cb
            assert np.array_equal(a, b)

    def test_supports_inside_region(self, small_model):
        o = (("-", 0.5, 1.5),)
        for _, t, profiles in hg.boundary_dictionary(small_model, o, 30):
            for p in profiles:
                inside = t[p != 0.0]
                assert inside.min() >= 0.5 - 1e-12
                assert inside.max() <= 1.5 + 1e-12

    def test_gram_rank_nondecreasing(self, small_model):
        o = (("-", -2.0, 2.0), ("+", -2.0, 2.0))
        ranks = []
        for size in (4, 8, 16, 32):
            s = np.linalg.svd(dual_matrix(small_model, o, size),
                              compute_uv=False)
            ranks.append(int(np.sum(s > 1e-10 * s[0])))
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] > ranks[0]


class TestDualBoundaryMatrix:
    """One dual_boundary_matrix call per bump center gives, column by
    column, the numbers of one dual map per bump built on its own."""

    def test_columns_equal_per_bump_dual_maps(self, small_model):
        # 166 elements end level 3 (8 centers) on both components
        o = (("-", -2.0, 2.0), ("+", -2.0, 2.0))
        groups = hg.boundary_dictionary(small_model, o, 166)
        assert len(groups) == 2 * (1 + 2 + 4 + 8)
        d = np.hstack([am.dual_boundary_matrix(small_model, *g)
                       for g in groups])
        ref = ro.bump_stream(small_model, o, 166)
        assert d.shape == (small_model.K, len(ref))
        for col, f in zip(d.T, ref):
            assert np.array_equal(col, ro.per_bump_dual_map(small_model, f))

    def test_empty_region_gives_empty_ladder(self, small_model):
        bases = hg.boundary_ladder(small_model, (), (5, 10))
        assert [u.shape for u in bases] == [(2 * small_model.K, 0)] * 2

    def test_conjugated_dual_matrix_changes_residuals(self, small_plan,
                                                      small_model,
                                                      monkeypatch):
        # on a short window the top rung does not span the 2K-dimensional
        # phase space, so the ladder sees the wrong frequency convention
        plan = {**small_plan, "o_region": (("-", -1.0, 1.0),)}
        table = inclusion(small_model, plan)
        assert table.rungs[-1][3] < 2 * small_model.K
        dual = am.dual_boundary_matrix
        monkeypatch.setattr(am, "dual_boundary_matrix",
                            lambda *args: np.conj(dual(*args)))
        conj = inclusion(small_model, plan)
        assert max(abs(a[1] - b[1])
                   for a, b in zip(table.rungs, conj.rungs)) > 1e-3


class TestBulkGenerators:
    def test_deterministic_under_seed(self, small_model):
        v = ((-0.5, 0.5, -0.6, 0.6),)
        g1 = hg.bulk_generators(small_model, v, 3, seed=11)
        g2 = hg.bulk_generators(small_model, v, 3, seed=11)
        for a, b in zip(g1, g2):
            assert np.array_equal(a.t_factors, b.t_factors)
            assert np.array_equal(a.x_factors, b.x_factors)

    def test_seed_changes_family(self, small_model):
        v = ((-0.5, 0.5, -0.6, 0.6),)
        g1 = hg.bulk_generators(small_model, v, 3, seed=1)
        g2 = hg.bulk_generators(small_model, v, 3, seed=2)
        assert not np.array_equal(ro.bulk_samples(g1[0]),
                                  ro.bulk_samples(g2[0]))

    def test_supports_inside_region(self, small_model):
        v = ((-0.5, 0.5, -0.6, 0.6),)
        for g in hg.bulk_generators(small_model, v, 6, seed=3):
            inside = g.t_grid[np.abs(ro.bulk_samples(g)).max(axis=1) != 0.0]
            assert inside.min() >= -0.5 and inside.max() <= 0.5
            assert g.support_x[0] >= -0.6 and g.support_x[1] <= 0.6

    def test_empty_region(self, small_model):
        assert hg.bulk_generators(small_model, (), 4) == []


class TestRunInclusion:
    def test_empty_bulk_region_vacuous(self, small_plan, small_model):
        table = inclusion(small_model, {**small_plan, "v_region": ()})
        assert all(r[1] == 0.0 for r in table.rungs)

    def test_empty_boundary_region_includes_nothing(self, small_plan,
                                                    small_model):
        table = inclusion(small_model, {**small_plan, "o_region": ()})
        assert all(r[1:] == (1.0, 1.0, 0) for r in table.rungs)
        assert table.sigma_min_ref == 0.0

    def test_rank_is_span_dimension(self, small_plan, small_model):
        table = inclusion(small_model, small_plan)
        ranks = [r[3] for r in table.rungs]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[0] == small_plan["ladder"][0]
        assert ranks[-1] <= 2 * small_model.K

    def test_residuals_monotone_and_witnessed(self, small_plan, small_model):
        table = inclusion(small_model, small_plan)
        res = [r[1] for r in table.rungs]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
        assert res[-1] < res[0]

    def test_isotony_of_boundary_spans(self, small_model):
        # every O1-dictionary vector lies in the O2 >= O1 span built from
        # the same stream at larger size
        o1 = (("-", -1.0, 1.0),)
        u2 = pc.span_basis(dual_matrix(small_model, o1, 24))
        assert pc.relative_residuals(
            u2, dual_matrix(small_model, o1, 6)).max() <= 1e-9

    @given(nu=st.floats(0.3, 2.0), k=st.sampled_from([8, 12, 16]),
           tau=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_time_translation_covariance(self, small_plan, nu, k, tau):
        # shifting O and V by tau multiplies every mode coefficient by
        # exp(-i omega tau), which preserves every residual
        model = am.build_model(nu, k, 256)
        plan1 = {
            **small_plan,
            "o_region": tuple((c, a + tau, b + tau)
                              for c, a, b in small_plan["o_region"]),
            "v_region": tuple((t0 + tau, t1 + tau, x0, x1)
                              for t0, t1, x0, x1 in small_plan["v_region"])}
        t0 = inclusion(model, small_plan)
        t1 = inclusion(model, plan1)
        for r0, r1 in zip(t0.rungs, t1.rungs):
            assert r1[1] == pytest.approx(r0[1], abs=1e-12)


def inclusion(model, plan):
    """run_inclusion on the ladder pass of plan, the ladder_pass keywords."""
    return hg.run_inclusion(model, plan["o_region"], plan["ladder"],
                            *hg.ladder_pass(model, **plan))


def weyl(model, plan):
    """run_weyl_convergence on the ladder pass of plan."""
    return hg.run_weyl_convergence(plan["ladder"],
                                   *hg.ladder_pass(model, **plan))


def elements(groups):
    """[(component, profile)] of a boundary dictionary, in stream order."""
    return [(comp, p) for comp, _, profiles in groups for p in profiles]


def dual_matrix(model, o_region, size):
    """The embedded dual maps of the first `size` stream bumps, each built
    and dual-mapped on its own."""
    return np.column_stack([
        am.embed_one_particle(ro.per_bump_dual_map(model, f))
        for f in ro.bump_stream(model, o_region, size)])


def fresh_boundary_basis(model, o_region, size):
    return pc.span_basis(dual_matrix(model, o_region, size))


class TestSharedLadder:
    """Rungs sliced from the top-size dictionary give exactly the numbers
    of a dictionary rebuilt at each rung size."""

    def test_inclusion_residuals_match_fresh_dictionaries(self, small_plan,
                                                          small_model):
        table = inclusion(small_model, small_plan)
        bulk = np.column_stack([
            am.embed_one_particle(am.one_particle_map(small_model, v))
            for v in hg.bulk_generators(small_model, small_plan["v_region"],
                                        small_plan["n_bulk"],
                                        seed=small_plan["seed"])])
        for rung, size in zip(table.rungs, small_plan["ladder"]):
            u = fresh_boundary_basis(small_model, small_plan["o_region"], size)
            r = pc.relative_residuals(u, bulk)
            assert rung == (size, float(r.max()), float(r.mean()), u.shape[1])

    def test_weyl_distances_match_fresh_dictionaries(self, small_plan,
                                                     small_model):
        rows, _ = weyl(small_model, small_plan)
        target = hg.bulk_generators(small_model, small_plan["v_region"],
                                    small_plan["n_bulk"],
                                    seed=small_plan["seed"])[0]
        w = am.embed_one_particle(am.one_particle_map(small_model, target))
        w = (0.5 / np.linalg.norm(w)) * w
        for (size, dist, *_), want in zip(rows, small_plan["ladder"]):
            u = fresh_boundary_basis(small_model, small_plan["o_region"], size)
            assert size == want
            assert dist == np.linalg.norm(u @ (u.T @ w) - w)


class TestWeylConvergence:
    def test_report_structure_and_decay(self, small_plan, small_model):
        rows, _ = weyl(small_model, small_plan)
        sizes, dists, comp_dists, errors = zip(*rows)
        assert sizes == small_plan["ladder"]
        assert all(b <= a + 1e-3 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]
        assert all(cd <= d + 1e-12 for cd, d in zip(comp_dists, dists))

    def test_closed_form_matches_fock(self):
        # the Weyl errors of the pure-state plane embeddings
        # sqrt(2) (-i z[::-1]), applied on the
        # two-mode Fock space of cutoff 40 to the vacuum and the (1, 0)
        # state, equal the closed form over six decades of |z|; half the
        # pairs lie within 1e-8 relative of each other, where the direct
        # form 1 - cos(theta) e^-x misses by about 1e-10
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 40, 2)) + 1j * rng.standard_normal(
            (2, 40, 2))
        z *= 10.0 ** rng.uniform(-6, 0, (2, 40, 1)) / np.linalg.norm(
            z, axis=2, keepdims=True)
        near = 10.0 ** rng.uniform(-16, -8, (20, 1))
        z[1, ::2] = z[0, ::2] + near * z[1, ::2]
        rep = cf.fock_rep(2, 40)
        psis = np.zeros((rep.dim, 2))
        psis[[rep.vacuum_index, rep.index[(1, 0)]], [0, 1]] = 1.0
        plane = np.sqrt(2.0) * (-1j * z.reshape(-1, 2)[:, ::-1])
        w_seq, w_lim = cf.weyl_apply(rep, plane, psis).reshape(
            2, 40, rep.dim, 2)
        fock = np.linalg.norm(w_seq - w_lim, axis=1).max(axis=1)
        closed = [hg._weyl_errors([a], b)[0] for a, b in zip(*z)]
        assert np.abs(fock - closed).max() <= 1e-13

    def test_constant_sequence_zero_error(self):
        z = np.array([0.5 + 0.1j, -0.2 + 0.3j])
        assert hg._weyl_errors([z, z, z], z).max() == 0.0

    def test_geometric_approach_halves_error(self):
        z = np.array([0.6 - 0.2j, 0.3 + 0.4j])
        errs = hg._weyl_errors([(1.0 - 2.0 ** -n) * z for n in range(1, 7)],
                               z)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(0.35 < r < 0.65 for r in ratios)

    def test_lipschitz_constant_bounds_errors(self, small_plan, small_model):
        # the target has norm 1/2, so the constant is sqrt(3 + 1/4)
        rows, lipschitz = weyl(small_model, small_plan)
        assert lipschitz == pytest.approx(np.sqrt(3.25), rel=1e-14)
        assert all(e <= lipschitz * cd for _, _, cd, e in rows)

    def test_lipschitz_bound_on_random_pairs(self):
        # error <= sqrt(3 + |z_lim|^2) |z_n - z_lim| over six decades of
        # distance
        rng = np.random.default_rng(9)
        for _ in range(50):
            z_lim = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            d = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            d *= 10.0 ** rng.uniform(-6, 0, (6, 1))
            bound = np.sqrt(3.0 + np.linalg.norm(z_lim) ** 2) * np.linalg.norm(
                d, axis=1)
            assert np.all(hg._weyl_errors(z_lim + d, z_lim) <= bound)

    def test_lipschitz_constant_is_sharp(self):
        # a small step d = (0, delta) against z_lim = (0, i r) has
        # theta = delta r and error -> sqrt(3 + r^2) delta
        r, delta = 0.5, 1e-4
        z_lim = np.array([0.0, 1j * r])
        err, = hg._weyl_errors([z_lim + [0.0, delta]], z_lim)
        assert 0.9999 < err / (np.sqrt(3.0 + r * r) * delta) <= 1.0

