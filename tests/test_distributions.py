import math

import numpy as np
import pytest
from scipy import stats

from graphwishart import (
    IncompleteMatrix,
    NotPositiveDefinite,
    OutOfDomain,
    OutOfSupport,
    RngStream,
    ShapeNotAdmissible,
    ShapeParam,
    SparsePrecision,
    WishartSpec,
    canonical_shape,
    complete,
    decompose,
    laplace,
    logpdf,
    logpdf_f,
    mean_type1,
    mean_type2,
    parse_graph,
    phi,
    precision_of,
    project,
    sample,
    sample_base_wishart,
    sample_batch,
    sample_matrix_normal,
)
from graphwishart import cones, shapes
from graphwishart.cones import require_qg

from conftest import (
    random_first_admissible,
    random_qg,
    random_second_admissible,
)

K1 = parse_graph({"n": 1, "edges": []})


class TestBaseWishart:

    def test_scalar_gamma_mean(self):
        rng = RngStream(1)
        draws = sample_base_wishart(1, 2.0, np.array([[3.0]]), rng,
                                    size=100000)
        mean = float(np.mean(draws))
        se = float(np.std(draws)) / math.sqrt(draws.shape[0])
        assert abs(mean - 6.0) < 4 * se

    def test_matrix_mean(self):
        rng = RngStream(2)
        draws = sample_base_wishart(2, 1.5, np.eye(2), rng,
                                    size=60000)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - 1.5 * np.eye(2)) < 4 * se + 1e-12)

    def test_shape_domain(self):
        with pytest.raises(OutOfDomain):
            sample_base_wishart(2, 0.4, np.eye(2), RngStream(3))

    def test_draws_positive_definite(self):
        rng = RngStream(4)
        draws = sample_base_wishart(3, 2.0, np.eye(3), rng, size=200)
        for d in draws:
            np.linalg.cholesky(d)


class TestMatrixNormal:

    def test_scalar_variance_half(self):
        rng = RngStream(5)
        d = np.array([sample_matrix_normal(np.zeros((1, 1)),
                                           np.eye(1), np.eye(1), rng)
                      for _ in range(40000)]).ravel()
        assert abs(d.var() - 0.5) < 0.02

    def test_row_scale_doubles_variance(self):
        rng = RngStream(6)
        d = np.array([sample_matrix_normal(np.zeros((1, 1)),
                                           2 * np.eye(1), np.eye(1),
                                           rng)
                      for _ in range(40000)]).ravel()
        assert abs(d.var() - 1.0) < 0.04

    def test_column_mate_shrinks_variance(self):
        rng = RngStream(7)
        d = np.array([sample_matrix_normal(np.zeros((2, 1)),
                                           np.eye(2),
                                           4 * np.eye(1), rng)
                      for _ in range(40000)])
        cov = np.cov(d[:, :, 0].T)
        assert np.all(np.abs(cov - np.eye(2) / 8) < 0.01)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sample_matrix_normal(np.zeros((2, 2)), -np.eye(2),
                                 np.eye(2), RngStream(8))


class TestLogpdf:

    def test_scalar_gamma_reduction(self):
        ordering = decompose(K1)
        sigma = IncompleteMatrix(K1, np.array([[2.0]]))
        spec = WishartSpec(K1, ShapeParam((1.7,), ()), sigma, "type1",
                           ordering=ordering)
        for x in (0.3, 1.0, 4.2):
            ours = logpdf(spec, IncompleteMatrix(
                K1, np.array([[x]])))
            ref = stats.gamma.logpdf(x, a=1.7, scale=2.0)
            assert ours == pytest.approx(ref, abs=1e-11)

    def test_out_of_support(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1")
        bad = IncompleteMatrix(a4, -np.eye(4))
        with pytest.raises(OutOfSupport):
            logpdf(spec, bad)

    @pytest.mark.parametrize("family", ["type1", "inv_type2"])
    def test_point_checked_once(self, family, g0, g0_ord, monkeypatch):
        kind, value = ("hyper", 2.5) if family == "type1" \
            else ("gwishart", 3.0)
        spec = WishartSpec(g0, canonical_shape(kind, g0_ord, value),
                           project(np.eye(6), g0), family)
        point = random_qg(g0, np.random.default_rng(4))
        expect = logpdf(spec, point)  # fills the spec's caches
        calls = []
        real = cones._require_pd_cliques

        def counted(data, ordering):
            calls.append(1)
            return real(data, ordering)

        monkeypatch.setattr(cones, "_require_pd_cliques", counted)
        monkeypatch.setattr(shapes, "_require_pd_cliques", counted)
        assert logpdf(spec, point) == expect
        assert len(calls) == 1
        bad = point.data.copy()
        bad[2, 2] = -1.0  # vertex 3 lies only in the clique {1, 2, 3}
        with pytest.raises(OutOfSupport) as info:
            logpdf(spec, IncompleteMatrix(g0, bad))
        assert info.value.context["clique"] == [1, 2, 3]
        assert len(calls) == 2

    def test_inadmissible_shape(self, a4):
        shape = ShapeParam((2.0, 2.0, 2.0), (1.0, 1.0))
        with pytest.raises(ShapeNotAdmissible):
            spec = WishartSpec(a4, shape, project(np.eye(4), a4),
                               "type1")
            logpdf(spec, project(np.eye(4), a4))

    def test_families_normalized_on_scalar(self):
        # all four families collapse to gamma/inverse-gamma laws on a
        # single vertex; integrate each density over a grid
        ordering = decompose(K1)
        sigma = IncompleteMatrix(K1, np.array([[1.0]]))
        for family, shape in (
                ("type1", ShapeParam((2.0,), ())),
                ("type2", ShapeParam((-2.5,), ())),
                ("inv_type1", ShapeParam((2.0,), ())),
                ("inv_type2", ShapeParam((-2.5,), ()))):
            spec = WishartSpec(K1, shape, sigma, family,
                               ordering=ordering)
            fn = (IncompleteMatrix if family in
                  ("type1", "inv_type2") else SparsePrecision)
            dens = np.exp([logpdf(spec, fn(K1, np.array([[g]])))
                           for g in np.linspace(1e-3, 60, 6000)])
            total = np.trapezoid(dens, np.linspace(1e-3, 60, 6000))
            assert total == pytest.approx(1.0, abs=5e-3)


class TestSampling:

    def test_complete_graph_mean(self, k2):
        ordering = decompose(k2)
        shape = canonical_shape("hyper", ordering, 2.0)
        spec = WishartSpec(k2, shape, project(np.eye(2), k2), "type1",
                           ordering=ordering)
        batch = sample_batch(spec, RngStream(9), 60000)
        mean = batch.mean(axis=0)
        se = batch.std(axis=0) / math.sqrt(batch.shape[0])
        assert np.all(np.abs(mean - 2 * np.eye(2)) < 4 * se + 1e-12)

    def test_scalar_exponential(self):
        ordering = decompose(K1)
        spec = WishartSpec(K1, ShapeParam((1.0,), ()),
                           IncompleteMatrix(K1, np.array([[1.0]])),
                           "type1", ordering=ordering)
        draws = sample_batch(spec, RngStream(10), 10000)[:, 0, 0]
        stat, _ = stats.kstest(draws, "expon")
        assert stat < 1.63 / math.sqrt(10000)

    def test_support_membership(self, a4, g0):
        rng = RngStream(11)
        for g in (a4, g0):
            ordering = decompose(g)
            s1 = random_first_admissible(ordering,
                                         np.random.default_rng(1))
            s2 = random_second_admissible(ordering,
                                          np.random.default_rng(2))
            scale = project(np.eye(g.vertex_count) * 1.5, g)
            for family, shp in (("type1", s1), ("inv_type2", s2),
                                ("type2", s2), ("inv_type1", s1)):
                spec = WishartSpec(g, shp, scale, family,
                                   ordering=ordering)
                batch = sample_batch(spec, rng, 500)
                mask = g.edge_mask()
                for b in batch[:50]:
                    if family in ("type1", "inv_type2"):
                        require_qg(IncompleteMatrix(g, b))
                    else:
                        np.linalg.cholesky(b)
                        assert np.max(np.abs(b[~mask])) == 0.0

    def test_sample_wrapper_types(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        out = sample(spec, RngStream(12), 3)
        assert len(out) == 3
        assert all(isinstance(o, IncompleteMatrix) for o in out)

    def test_reproducible(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        b1 = sample_batch(spec, RngStream(77), 5)
        b2 = sample_batch(spec, RngStream(77), 5)
        assert np.array_equal(b1, b2)

    def test_homogeneous_sampler_matches_density(self, g0, g0_ord):
        # draw from the tree-structured path and validate the first
        # and second moments of the initial clique block against the
        # per-order law, which must agree on shapes both accept
        rng_np = np.random.default_rng(21)
        shape = random_first_admissible(g0_ord, rng_np)
        scale = project(np.eye(6), g0)
        spec = WishartSpec(g0, shape, scale, "type1",
                           ordering=g0_ord)
        batch = sample_batch(spec, RngStream(13), 40000)
        mean = batch.mean(axis=0)
        expect = complete(mean_type1(spec)) \
            * g0.edge_mask()
        se = batch.std(axis=0) / math.sqrt(batch.shape[0])
        mask = g0.edge_mask()
        assert np.all(np.abs(mean - expect)[mask] < 4.5 * se[mask])


class TestMeans:

    def test_complete_graph_type1(self, k3):
        ordering = decompose(k3)
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 5))
        sig = project(a @ a.T / 5 + np.eye(3), k3)
        spec = WishartSpec(k3, ShapeParam((2.5,), ()), sig, "type1",
                           ordering=ordering)
        m = mean_type1(spec)
        assert np.allclose(m.data, 2.5 * sig.data, atol=1e-12)

    def test_hyper_shape_collapses(self, path3):
        ordering = decompose(path3)
        p = 1.8
        shape = canonical_shape("hyper", ordering, p)
        m = np.array([[1.0, 0.4, 0.0],
                      [0.4, 1.2, 0.3],
                      [0.0, 0.3, 0.9]])
        sig = IncompleteMatrix(path3, m)
        spec = WishartSpec(path3, shape, sig, "type1",
                           ordering=ordering)
        out = mean_type1(spec)
        assert np.allclose(out.data, p * sig.data, atol=1e-12)

    def test_type1_against_mc(self, a4, a4_ord):
        shape = ShapeParam((2.5, 2.0, 1.5), (2.0, 1.5))
        m = np.eye(4)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            m[i, j] = m[j, i] = 0.3
        spec = WishartSpec(a4, shape, IncompleteMatrix(a4, m),
                           "type1", ordering=a4_ord)
        batch = sample_batch(spec, RngStream(14), 100000)
        emp = batch.mean(axis=0)
        se = batch.std(axis=0) / math.sqrt(batch.shape[0])
        expect = mean_type1(spec).data
        mask = a4.edge_mask()
        assert np.all(np.abs(emp - expect)[mask] < 4 * se[mask])

    def test_scalar_type2(self):
        ordering = decompose(K1)
        spec = WishartSpec(K1, ShapeParam((-2.0,), ()),
                           IncompleteMatrix(K1, np.array([[0.5]])),
                           "type2", ordering=ordering)
        assert mean_type2(spec).data[0, 0] == pytest.approx(4.0)

    def test_complete_graph_type2(self, k3):
        ordering = decompose(k3)
        delta = 3.0
        shape = canonical_shape("gwishart", ordering, delta)
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 5))
        theta_dense = a @ a.T / 5 + np.eye(3)
        spec = WishartSpec(k3, shape, project(theta_dense, k3),
                           "type2", ordering=ordering)
        expect = ((delta + 2) / 2.0) * np.linalg.inv(theta_dense)
        assert np.allclose(mean_type2(spec).data, expect, atol=1e-10)

    def test_type2_against_mc(self, a4, a4_ord):
        shape = ShapeParam((-1.0, -1.0, -1.0), (1.0, -0.5))
        spec = WishartSpec(a4, shape, project(np.eye(4), a4),
                           "type2", ordering=a4_ord)
        batch = sample_batch(spec, RngStream(16), 100000)
        emp = batch.mean(axis=0)
        se = batch.std(axis=0) / math.sqrt(batch.shape[0])
        expect = mean_type2(spec).data
        mask = a4.edge_mask()
        assert np.all(np.abs(emp - expect)[mask] < 4 * se[mask])


class TestLaplace:

    def test_zero_shift(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        assert laplace(spec, np.zeros((4, 4))) == pytest.approx(0.0)

    def test_scalar_mgf(self):
        ordering = decompose(K1)
        alpha, sig, t = 1.7, 2.0, 0.1
        spec = WishartSpec(K1, ShapeParam((alpha,), ()),
                           IncompleteMatrix(K1, np.array([[sig]])),
                           "type1", ordering=ordering)
        got = laplace(spec, np.array([[t]]))
        assert got == pytest.approx(-alpha * math.log(1 - t * sig),
                                    abs=1e-12)

    def test_against_empirical(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        rng_np = np.random.default_rng(17)
        t = rng_np.uniform(-0.05, 0.02, (4, 4))
        t = 0.5 * (t + t.T) * a4.edge_mask()
        batch = sample_batch(spec, RngStream(18), 100000)
        pair = np.einsum("nij,ij->n", batch, t)
        vals = np.exp(pair)
        emp = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(len(vals))
        expect = math.exp(laplace(spec, t))
        assert abs(emp - expect) < 5 * se

    def test_convolution_identity(self, a4, a4_ord):
        rng_np = np.random.default_rng(19)
        s1 = random_first_admissible(a4_ord, rng_np)
        s2 = random_first_admissible(a4_ord, rng_np)
        ssum = s1 + s2
        scale = project(np.eye(4) * 1.3, a4)
        specs = [WishartSpec(a4, s, scale, "type1", ordering=a4_ord)
                 for s in (s1, s2, ssum)]
        for _ in range(10):
            t = rng_np.uniform(-0.1, 0.05, (4, 4))
            t = 0.5 * (t + t.T) * a4.edge_mask()
            try:
                vals = [laplace(sp, t) for sp in specs]
            except OutOfDomain:
                continue
            assert vals[0] + vals[1] == pytest.approx(vals[2],
                                                      abs=1e-12)

    def test_shift_outside_cone(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        with pytest.raises(OutOfDomain):
            laplace(spec, np.eye(4) * 5.0)


class TestFDensity:

    def test_scalar_reduction(self):
        # one vertex: ratio of gamma laws gives a beta-prime density
        a, ap = 1.5, -4.0
        sigma = np.array([[1.0]])
        for x in (0.2, 1.0, 3.0):
            got = logpdf_f(K1, ShapeParam((a,), ()),
                           ShapeParam((ap,), ()), IncompleteMatrix(
                               K1, sigma),
                           IncompleteMatrix(K1, np.array([[x]])))
            ref = stats.betaprime.logpdf(x, a, -ap)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_difference_shape_guard(self, a4, a4_ord):
        good = canonical_shape("hyper", a4_ord, 1.0)
        bad_prime = ShapeParam((0.5, 0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ShapeNotAdmissible):
            logpdf_f(a4, good, bad_prime, project(np.eye(4), a4),
                     project(np.eye(4), a4))


class TestLargeClassTreeDraws:

    def test_inv_type1_logpdf_on_nested_star(self):
        """At r = 401 the dense inverse inside phi is asymmetric by
        rounding (about 7e-10 here, above the 1e-12 relative check on
        outside input); phi symmetrizes it, so logpdf accepts every
        draw."""
        edges, v = [], 2
        for _ in range(20):
            hub, v = v, v + 1
            edges.append([1, hub])
            for _ in range(19):
                edges += [[1, v], [hub, v]]
                v += 1
        g = parse_graph({"n": v - 1, "edges": edges})
        o = decompose(g)
        shape = ShapeParam((2.0,) * o.k, (1.0,) * o.k_prime)
        scale = random_qg(g, np.random.default_rng(1))
        spec = WishartSpec(g, shape, scale, "inv_type1")
        assert spec.walk is spec.hasse
        for d in sample_batch(spec, RngStream(1), 6):
            point = SparsePrecision(g, d)
            x = phi(point)
            assert np.array_equal(x.data, x.data.T)
            assert np.isfinite(logpdf(spec, point))
