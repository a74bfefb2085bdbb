import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from graphwishart import (
    CliqueOrdering,
    DimensionMismatch,
    GraphMismatch,
    GraphWishartError,
    HasseTree,
    IncompleteMatrix,
    MalformedInput,
    NotInQG,
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
    enumerate_perfect_orders,
    laplace,
    log_h,
    logpdf,
    logpdf_f,
    mean_type1,
    mean_type2,
    mc_normalizer,
    parse_graph,
    phi,
    precision_of,
    project,
    realign_shape,
    sample,
    sample_base_wishart,
    sample_batch,
    sample_matrix_normal,
    split_blocks,
)
from graphwishart import cones, distributions, graphs, shapes
from graphwishart.cones import require_qg

from conftest import (
    TREE_ONLY_RULES,
    class_tree_only_spec,
    count_calls,
    nested_star,
    random_first_admissible,
    random_qg,
    random_second_admissible,
)

K1 = parse_graph({"n": 1, "edges": []})
FAMILIES = ("type1", "inv_type1", "type2", "inv_type2")
BAD_SIZES = [-1, 2.5, "3"]


def _spec(g, family):
    """Spec on g with a random per-order shape for the family's side and
    a random scale."""
    o = decompose(g)
    rng = np.random.default_rng(1)
    shape = random_first_admissible(o, rng) \
        if family in ("type1", "inv_type1") \
        else random_second_admissible(o, rng)
    return WishartSpec(g, shape, random_qg(g, rng), family)


def _count_clique_checks(monkeypatch):
    """List that gets one entry per clique positive-definiteness check."""
    calls = count_calls(monkeypatch, cones, "_require_pd_cliques")
    monkeypatch.setattr(shapes, "_require_pd_cliques",
                        cones._require_pd_cliques)
    return calls


class TestFamilyTable:
    """The four laws form a 2 x 2 table: a side (the shape conditions and
    the sampler walk) and a cone the points live on."""

    @pytest.mark.parametrize("family, side, cone", [
        ("type1", "first", IncompleteMatrix),
        ("type2", "second", SparsePrecision),
        ("inv_type1", "first", SparsePrecision),
        ("inv_type2", "second", IncompleteMatrix)])
    def test_side_and_cone(self, family, side, cone, g0):
        spec = _spec(g0, family)
        assert (spec.side, spec.cone) == (side, cone)
        draws = sample(spec, RngStream(20), 2)
        assert all(type(d) is cone for d in draws)
        other = SparsePrecision if cone is IncompleteMatrix \
            else IncompleteMatrix
        with pytest.raises(OutOfSupport) as err:
            logpdf(spec, other(g0, draws[0].data))
        assert err.value.context == {"family": family}
        bad = draws[0].data.copy()
        bad[2, 2] = -1.0  # vertex 3 lies only in the clique {1, 2, 3}
        with pytest.raises(OutOfSupport) as err:
            logpdf(spec, cone(g0, bad))
        # g0 has 6 vertices: one supernode on the sparse cone
        assert err.value.context == (
            {"clique": [1, 2, 3]} if cone is IncompleteMatrix
            else {"vertices": [1, 2, 3, 4, 5, 6]})

    @pytest.mark.parametrize("family", ["type3", ["type1"], None])
    def test_unknown_family(self, family, a4, a4_ord):
        with pytest.raises(OutOfDomain) as err:
            WishartSpec(a4, canonical_shape("hyper", a4_ord, 1.5),
                        project(np.eye(4), a4), family)
        assert err.value.context == {"family": family}


class TestSpecWeights:
    """The block weights of logpdf's log h and of the type2 mean are
    built once per spec, read-only, with the bits of ``shapes._weights``."""

    @pytest.mark.parametrize("family", ["type1", "type2"])
    def test_built_once_with_the_same_bits(self, family, g0, monkeypatch):
        spec = _spec(g0, family)
        o = spec.ordering
        for got, shape in ((spec.logpdf_weights, spec.logpdf_shape),
                           (spec.mean_weights, -spec.shape)):
            assert not got.flags.writeable
            assert got.tolist() == list(shapes._weights(shape, o))
        point = sample(spec, RngStream(4), 1)[0]
        first = logpdf(spec, point)
        mean = mean_type2(spec).values if family == "type2" else None
        calls = count_calls(monkeypatch, distributions, "_weights")
        assert logpdf(spec, point) == first
        if mean is not None:
            assert np.array_equal(mean_type2(spec).values, mean)
        assert calls == []


class TestRngStream:

    @pytest.mark.parametrize("field", ["seed", "substream"])
    @pytest.mark.parametrize("value", [2 ** 64, 2 ** 64 - 1, 2 ** 63, -1,
                                       -2 ** 63, 2.9, "3", None])
    def test_seed_outside_the_range_is_domain_error(self, field, value):
        """A seed or substream must be an integer in [0, 2**63): no
        overflow, no cast warning, no wrap onto another stream and no
        silent truncation."""
        args = {"seed": 1, "substream": 0, field: value}
        with pytest.raises(OutOfDomain) as err:
            RngStream(**args)
        assert err.value.context == {field: repr(value)}

    def test_seed_inside_the_range(self):
        top = RngStream(2 ** 63 - 1, 2 ** 63 - 1)
        assert (top.seed, top.substream) == (2 ** 63 - 1, 2 ** 63 - 1)
        assert RngStream(np.int64(5)).seed == 5
        draws = [RngStream(s).gen.random(4) for s in (0, 2 ** 63 - 1)]
        assert not np.array_equal(*draws)
        assert RngStream(7).spawn(2 ** 63 - 1).substream == 2 ** 63 - 1


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

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_shape_not_finite(self, p):
        """A NaN shape passed the domain check and drew NaN; an infinite
        one drew NaN with a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain) as err:
                sample_base_wishart(2, p, np.eye(2), RngStream(0), 2)
        assert err.value.context == {"p": p}

    def test_draws_positive_definite(self):
        rng = RngStream(4)
        draws = sample_base_wishart(3, 2.0, np.eye(3), rng, size=200)
        for d in draws:
            np.linalg.cholesky(d)

    def test_indefinite_scale_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sample_base_wishart(2, 1.5, -np.eye(2), RngStream(3))

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_bad_draw_count(self, size):
        with pytest.raises(OutOfDomain) as err:
            sample_base_wishart(2, 1.5, np.eye(2), RngStream(3), size=size)
        assert err.value.context == {"size": repr(size)}

    def test_zero_draws(self):
        out = sample_base_wishart(2, 1.5, np.eye(2), RngStream(3), size=0)
        assert out.shape == (0, 2, 2)


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

    @pytest.mark.parametrize("row, col, what, expected, got", [
        (np.eye(2), np.eye(2), "column", [3, 3], [2, 2]),
        (np.eye(3), np.eye(2), "row", [2, 2], [3, 3]),
        (np.eye(2), np.ones((4, 3, 3)), "column", [3, 3], [4, 3, 3]),
    ], ids=["column", "row", "stack-length"])
    def test_matrix_that_does_not_fit_the_mean(self, row, col, what,
                                               expected, got):
        """Matrices whose shape does not fit the (2, 3) mean: a typed
        refusal naming the matrix, where numpy raised ValueError."""
        with pytest.raises(DimensionMismatch, match=what) as err:
            sample_matrix_normal(np.zeros((2, 3)), row, col, RngStream(8),
                                 size=2)
        assert err.value.context == {"expected": expected, "got": got}

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_bad_draw_count(self, size):
        with pytest.raises(OutOfDomain) as err:
            sample_matrix_normal(np.zeros((2, 1)), np.eye(2), np.eye(1),
                                 RngStream(8), size=size)
        assert err.value.context == {"size": repr(size)}

    def test_zero_draws(self):
        out = sample_matrix_normal(np.zeros((2, 1)), np.eye(2), np.eye(1),
                                   RngStream(8), size=0)
        assert out.shape == (0, 2, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_failed_pivot_in_a_stack(self, k, bad):
        """A zero, negative or NaN pivot in one block of a stack long
        enough for the unrolled Cholesky raises NotPositiveDefinite
        naming the matrix, with no floating point warning; the walk's
        factorization names the drawn block the same way."""
        n = 2 * cones._CHOL_MIN[k]
        stack = np.broadcast_to(np.eye(k), (n, k, k)).copy()
        stack[n // 2, k - 1, k - 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="row matrix"):
                sample_matrix_normal(np.zeros((k, 2)), stack, np.eye(2),
                                     RngStream(9), size=n)
            with pytest.raises(NotPositiveDefinite, match="column matrix"):
                sample_matrix_normal(np.zeros((2, k)), np.eye(2), stack,
                                     RngStream(9), size=n)
            with pytest.raises(NotPositiveDefinite, match="drawn block"):
                distributions._factor(cones._chol, stack.transpose(1, 2, 0),
                                      "drawn block is not positive definite")


class TestBlockDensityShapes:
    """The block densities refuse shapes that do not fit, as their
    samplers do, where numpy raised ValueError."""

    @pytest.mark.parametrize("f", [distributions.log_wishart_pdf,
                                   distributions.log_inv_wishart_pdf])
    @pytest.mark.parametrize("x, other, what", [
        (np.eye(2), np.eye(3), "scale|rate"),
        (np.ones(2), np.eye(2), "matrix"),
        (np.ones((2, 3)), np.eye(2), "matrix"),
    ], ids=["other-order", "vector", "not-square"])
    def test_wishart(self, f, x, other, what):
        with pytest.raises(DimensionMismatch, match=what):
            f(x, 1.5, other)

    @pytest.mark.parametrize("mean, row, col, what", [
        (np.zeros((2, 3)), np.eye(3), np.eye(2), "row"),
        (np.zeros((2, 3)), np.eye(2), np.eye(2), "column"),
        (np.zeros((3, 2)), np.eye(2), np.eye(3), "mean"),
    ], ids=["row", "column", "mean"])
    def test_matrix_normal(self, mean, row, col, what):
        with pytest.raises(DimensionMismatch, match=what):
            distributions.log_matrix_normal_pdf(np.zeros((2, 3)), mean,
                                                row, col)


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
        calls = _count_clique_checks(monkeypatch)
        assert logpdf(spec, point) == expect
        assert len(calls) == 1
        bad = point.data.copy()
        bad[2, 2] = -1.0  # vertex 3 lies only in the clique {1, 2, 3}
        with pytest.raises(OutOfSupport) as info:
            logpdf(spec, IncompleteMatrix(g0, bad))
        assert info.value.context["clique"] == [1, 2, 3]
        assert len(calls) == 2

    @pytest.mark.parametrize("family", ["type1", "inv_type2"])
    def test_scale_checked_once(self, family, g0, g0_ord, monkeypatch):
        kind, value = ("hyper", 2.5) if family == "type1" \
            else ("gwishart", 3.0)
        shape = canonical_shape(kind, g0_ord, value)
        scale = random_qg(g0, np.random.default_rng(5))
        expect = log_h(shape, scale)
        calls = _count_clique_checks(monkeypatch)
        assert WishartSpec(g0, shape, scale, family).log_h_scale == expect
        assert len(calls) == 1

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

    @pytest.mark.parametrize("size", BAD_SIZES + [None])
    def test_bad_draw_count(self, a4, size):
        spec = _spec(a4, "type1")
        for draw in (sample_batch, sample):
            with pytest.raises(OutOfDomain) as err:
                draw(spec, RngStream(12), size)
            assert err.value.context == {"size": repr(size)}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_draws(self, g0, family):
        spec = _spec(g0, family)
        assert sample_batch(spec, RngStream(12), 0).shape == (0, 6, 6)
        assert sample(spec, RngStream(12), 0) == []

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

    def test_t_of_wrong_shape(self, a4, a4_ord):
        spec = WishartSpec(a4, canonical_shape("hyper", a4_ord, 1.5),
                           project(np.eye(4), a4), "type1")
        with pytest.raises(DimensionMismatch):
            laplace(spec, np.zeros((3, 3)))

    def test_asymmetric_t(self, a4, a4_ord):
        spec = WishartSpec(a4, canonical_shape("hyper", a4_ord, 1.5),
                           project(np.eye(4), a4), "type1")
        with pytest.raises(MalformedInput):
            laplace(spec, np.triu(np.full((4, 4), 0.01), 1))

    def test_shift_outside_cone(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.5)
        spec = WishartSpec(a4, shape, project(np.eye(4), a4), "type1",
                           ordering=a4_ord)
        with pytest.raises(OutOfDomain):
            laplace(spec, np.eye(4) * 5.0)


    @pytest.mark.parametrize("family", ["type1", "type2"])
    def test_one_factorisation_per_call(self, family, a4, a4_ord,
                                        monkeypatch):
        """type1 factors the shifted precision once (inside phi), type2
        checks the shifted scale's cliques once, in and out of the
        cone."""
        kind, value = ("hyper", 1.5) if family == "type1" \
            else ("gwishart", 3.0)
        shape = canonical_shape(kind, a4_ord, value)
        scale = project(np.eye(4) + 0.2 * a4.edge_mask(), a4)
        spec = WishartSpec(a4, shape, scale, family)
        t = 0.1 * a4.edge_mask()
        if family == "type1":
            point = phi(SparsePrecision(a4, spec.precision.data - t))
        else:
            point = IncompleteMatrix(a4, scale.data - t)
        expect = log_h(shape, point) - log_h(shape, scale)
        if family == "type1":
            calls = []
            real = np.linalg.cholesky
            monkeypatch.setattr(np.linalg, "cholesky",
                                lambda a: calls.append(1) or real(a))
        else:
            calls = _count_clique_checks(monkeypatch)
        assert laplace(spec, t) == pytest.approx(expect, abs=1e-12)
        assert len(calls) == 1
        with pytest.raises(OutOfDomain):
            laplace(spec, np.eye(4) * 5.0)
        assert len(calls) == 2

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

    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_error_paths(self, kind, a4, a4_ord):
        """A scale of the wrong type or graph is OutOfDomain, a point of
        the wrong type or outside the cone OutOfSupport, and so is an
        unknown kind OutOfDomain; each comes before any shape check."""
        cone, other = (IncompleteMatrix, SparsePrecision) \
            if kind == "first" else (SparsePrecision, IncompleteMatrix)
        star = parse_graph({"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]})
        shape = canonical_shape("hyper", a4_ord, 1.5)
        good = cone(a4, np.eye(4))
        bad = np.eye(4)
        bad[0, 0] = -1.0  # vertex 1 lies only in the clique {1, 2}

        def call(scale, point, kind=kind):
            return logpdf_f(a4, shape, shape, scale, point, kind)

        for scale in (other(a4, np.eye(4)), cone(star, np.eye(4))):
            with pytest.raises(OutOfDomain):
                call(scale, good)
        for point in (other(a4, np.eye(4)), cone(star, np.eye(4))):
            with pytest.raises(OutOfSupport):
                call(good, point)
        with pytest.raises(OutOfSupport) as err:
            call(good, cone(a4, bad))
        assert err.value.context == (
            {"clique": [1, 2]} if kind == "first"
            else {"vertices": [1, 2, 3, 4]})
        with pytest.raises(OutOfDomain) as err:
            call(good, good, "third")
        assert err.value.context == {"kind": "third"}

    def test_two_clique_checks_per_first_kind_call(self, g0, g0_ord,
                                                   monkeypatch):
        """The scale and the point are checked once each; the sum of two
        checked points is not checked again."""
        rng = np.random.default_rng(22)
        args = (g0, canonical_shape("hyper", g0_ord, 2.0),
                canonical_shape("gwishart", g0_ord, 3.0),
                random_qg(g0, rng), random_qg(g0, rng))
        logpdf_f(*args)
        calls = _count_clique_checks(monkeypatch)
        assert np.isfinite(logpdf_f(*args))
        assert len(calls) == 2

    def test_difference_shape_guard(self, a4, a4_ord):
        good = canonical_shape("hyper", a4_ord, 1.0)
        bad_prime = ShapeParam((0.5, 0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ShapeNotAdmissible):
            logpdf_f(a4, good, bad_prime, project(np.eye(4), a4),
                     project(np.eye(4), a4))


class TestNearZeroStepExponent:

    def test_logpdf_of_draws_is_finite_or_out_of_support(self):
        """With one type1 step exponent at 1e-3 on banded r=60, a draw's
        conditional block is lost in rounding and its clique can be
        singular in floating point.  logpdf of every draw, from sample
        and sample_batch, returns a finite value or raises OutOfSupport,
        never anything else."""
        r = 60
        g = parse_graph({"n": r, "edges": [
            [i, j] for i in range(1, r + 1)
            for j in range(i + 1, min(r, i + 4) + 1)]})
        o = decompose(g)
        j = o.k // 2
        alpha = [2.5] * o.k
        alpha[j] = len(o.steps[j][1]) / 2.0 + 1e-3
        beta = [sum(alpha[c] for c in o.occurrences[i]) / o.multiplicity[i]
                for i in range(o.k_prime)]
        beta[o.sep_index[0]] = 1.0
        dense = 2.0 * np.eye(r) + 0.3 * (np.eye(r, k=1) + np.eye(r, k=-1))
        spec = WishartSpec(g, ShapeParam(tuple(alpha), tuple(beta)),
                           project(dense, g), "type1")
        assert spec.walk is o
        assert min(spec.exponents) == pytest.approx(1e-3)
        points = sample(spec, RngStream(1), 20) + [
            IncompleteMatrix(g, d)
            for d in sample_batch(spec, RngStream(2), 20)]
        outcomes = []
        for x in points:
            try:
                outcomes.append(math.isfinite(logpdf(spec, x)))
            except OutOfSupport:
                outcomes.append("out of support")
        assert False not in outcomes

    @pytest.mark.parametrize("family", ["type2", "inv_type2"])
    def test_second_side_draws_are_finite_or_not_positive_definite(
            self, family):
        """With a second-side step exponent of 1e-3 on a 1x1 block about
        half of the gamma variates underflow to 0, and the conditional
        block, their inverse, is not a float.  The walk raises
        NotPositiveDefinite naming the drawn block, or returns finite
        draws, never inf or NaN, with no floating point warning."""
        g = parse_graph({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]})
        o = decompose(g)
        # alpha_j = -p_j and beta from the separator equalities
        shape = ShapeParam((-2.5, -2.5, -1e-3, -2.5), (-3.0, 0.499, -2.0))
        dense = 2.0 * np.eye(5) + 0.3 * (np.eye(5, k=1) + np.eye(5, k=-1))
        spec = WishartSpec(g, shape, project(dense, g), family)
        assert spec.side == "second" and spec.walk is o
        assert min(spec.exponents) == pytest.approx(1e-3)
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(20):
                try:
                    draws = sample_batch(spec, RngStream(seed), 1 + seed % 3)
                except NotPositiveDefinite as err:
                    assert "drawn block" in str(err)
                    raised += 1
                else:
                    assert np.all(np.isfinite(draws))
        assert 0 < raised < 20


class TestClassTreeSecondSide:

    @pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                             ids=["star-3x2", "star-2x3"])
    def test_type2_mean(self, hubs, leaves):
        """A second-side shape that only the class tree admits is sampled
        along the tree: the mean of 20,000 type2 draws matches
        mean_type2 within 4.5 standard errors on every entry."""
        spec = class_tree_only_spec(hubs, leaves, "type2")
        n = 20000
        draws = np.stack([k.values for k in sample(spec, RngStream(1), n)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        z = np.abs(draws.mean(axis=0) - mean_type2(spec).values) / se
        assert z.max() <= 4.5


class TestOrderOfAnotherGraph:
    """A clique order of another graph with the same clique and
    separator counts (the path 2-1-3-4 against the path a4) is
    GraphMismatch at every entry point that takes one; it was read
    against the wrong pattern."""

    @pytest.fixture
    def case(self, a4):
        other = decompose(parse_graph(
            {"n": 4, "edges": [[1, 2], [1, 3], [3, 4]]}))
        shape = canonical_shape("hyper", decompose(a4), 2.0)
        return other, shape, project(2.0 * np.eye(4) + 0.5, a4)

    def test_spec(self, a4, case):
        other, shape, scale = case
        with pytest.raises(GraphMismatch):
            WishartSpec(a4, shape, scale, "type1", ordering=other)

    def test_log_h(self, case):
        other, shape, scale = case
        with pytest.raises(GraphMismatch):
            log_h(shape, scale, other)

    def test_split_blocks(self, case):
        other, _, scale = case
        with pytest.raises(GraphMismatch):
            split_blocks(scale, other)

    def test_mc_normalizer(self, a4, case):
        other, shape, scale = case
        with pytest.raises(GraphMismatch):
            mc_normalizer("I", a4, other, shape, scale, RngStream(1), 100)


class TestClassTreeAcrossOrders:

    @pytest.mark.parametrize("family", ["type1", "type2"])
    @pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                             ids=["star-3x2", "star-2x3"])
    def test_spec_on_every_order(self, hubs, leaves, family):
        """A shape only the class tree admits, realigned to each of the
        first 200 perfect orders of its nested star: the spec built on
        that order has the log normalizer of the spec on the graph's
        own order and, when it walks the class tree, its step exponents
        and bit for bit its fixed-seed draws."""
        spec = class_tree_only_spec(hubs, leaves, family,
                                    *TREE_ONLY_RULES[family])
        g, o = spec.graph, spec.ordering
        draws = np.stack([x.values for x in sample(spec, RngStream(5), 20)])
        walked = 0
        for p in enumerate_perfect_orders(g)[:200]:
            other = WishartSpec(g, realign_shape(spec.shape, o, p),
                                spec.scale, family, ordering=p)
            assert abs(other.log_gamma - spec.log_gamma) <= \
                1e-12 * (1 + abs(spec.log_gamma))
            if isinstance(other.walk, HasseTree):
                walked += 1
                assert other.exponents == spec.exponents
                assert np.array_equal(np.stack([
                    x.values for x in sample(other, RngStream(5), 20)]),
                    draws)
        assert walked


class TestLargeClassTreeDraws:

    def test_inv_type1_logpdf_on_nested_star(self):
        """At r = 401 an LU inverse inside phi was asymmetric by
        rounding (about 7e-10 here, above the 1e-12 relative check on
        outside input); phi reads one triangle of the inverse from its
        Cholesky factor, so logpdf accepts every draw."""
        g = parse_graph(nested_star(20, 19))
        o = decompose(g)
        shape = ShapeParam((2.0,) * o.k, (1.0,) * o.k_prime)
        scale = random_qg(g, np.random.default_rng(1))
        spec = WishartSpec(g, shape, scale, "inv_type1")
        assert isinstance(spec.walk, HasseTree)
        for d in sample_batch(spec, RngStream(1), 6):
            point = SparsePrecision(g, d)
            x = phi(point)
            assert np.array_equal(x.data, x.data.T)
            assert np.isfinite(logpdf(spec, point))


class TestStepPlan:
    """The walk's scale side and slot tables are built once: per spec for
    the step plan, per walk for the slot tables."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_second_batch_factors_only_draws(self, family, g0,
                                             monkeypatch):
        """A second sample_batch builds no plan and no slot table, and
        makes one Cholesky factorization per step with a non-empty given
        block: X[given] on the first side, the conditional block on the
        second."""
        spec = _spec(g0, family)
        sample_batch(spec, RngStream(14), 3)
        plans = count_calls(monkeypatch, WishartSpec.__dict__["plan"],
                            "func")
        tables = count_calls(
            monkeypatch, graphs._Walk.__dict__["step_slots"], "func")
        factors = count_calls(monkeypatch, cones, "_chol")
        sample_batch(spec, RngStream(14), 3)
        assert not plans and not tables
        given = sum(1 for new, g in spec.walk.steps if new and g)
        assert given > 0 and len(factors) == given

    def test_scale_that_does_not_factor_raises_typed(self, path3):
        """A scale at the edge of the cone: its clique {1, 2} passes the
        check, but the conditional block of vertex 1 given 2 may round
        to a number that is not positive.  Each call that reads the plan
        (the type-I mean, the sampler and both normalizer kinds) then
        raises NotPositiveDefinite naming the step's new block, as the
        plan does; no call raises an untyped error."""
        scale = IncompleteMatrix(path3, np.array([
            [2.422238057639163, 2.477, 0.0], [2.477, 2.533, 0.5],
            [0.0, 0.5, 2.0]]))
        shape = ShapeParam((3.0, 3.0), (3.0,))
        spec = WishartSpec(path3, shape, scale, "type1")
        o = decompose(path3)
        calls = [lambda: spec.plan, lambda: mean_type1(spec),
                 lambda: sample(spec, RngStream(16), 2)] + [
            lambda k=k: mc_normalizer(k, path3, o, shape, scale,
                                      RngStream(16), 500)
            for k in ("I", "II")]
        outcomes = []
        for call in calls:
            try:
                call()
                outcomes.append(None)
            except GraphWishartError as err:
                outcomes.append((type(err), err.context))
        if outcomes[0] is not None:
            assert outcomes == [(NotPositiveDefinite, {"new": [1]})] * 5

    def test_point_singular_in_floating_point_is_out_of_support(self):
        """A point whose clique {1, 2} is exactly singular in exact
        arithmetic: where LAPACK admits the block but cannot invert it,
        ``precision_of`` names the clique in NotInQG, and ``logpdf`` on
        the second side, which sums the same inverses, raises
        OutOfSupport naming it, on paths of 10 and 40 vertices alike."""
        a, b = 2.6579473058747163, 0.24876732149455005
        for r in (10, 40):
            g = parse_graph({"n": r, "edges": [[i, i + 1]
                                               for i in range(1, r)]})
            m = np.eye(r)
            m[0, 0], m[0, 1], m[1, 0], m[1, 1] = a, b, b, b * b / a
            x = IncompleteMatrix(g, m)
            spec = _spec(g, "inv_type2")
            try:
                precision_of(x)
                continue  # this platform's LAPACK inverts the block
            except NotInQG as err:
                assert err.context == {"clique": [1, 2]}
            with pytest.raises(OutOfSupport) as out:
                logpdf(spec, x)
            assert out.value.context == {"clique": [1, 2]}

    def test_walk_shares_slot_tables(self, monkeypatch):
        """Specs on one walk share its slot tables, and so does the
        type-I mean once the walk has been sampled."""
        g = parse_graph(nested_star(3, 2))
        spec = _spec(g, "type1")
        sample_batch(spec, RngStream(15), 2)
        tables = count_calls(
            monkeypatch, graphs._Walk.__dict__["step_slots"], "func")
        mean_type1(spec)
        twin = _spec(g, "inv_type1")
        assert twin.walk is spec.walk
        sample_batch(twin, RngStream(15), 2)
        assert not tables


def _sha(arrays):
    """SHA-256 of the dtype, shape and bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(("%s%s" % (a.dtype, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _per_step_plan(scale, steps, first):
    """The step plan built one step at a time, each matrix factored on
    its own: the reference for the stacked build.  A step that does not
    factor raises, naming its blocks, before any later step is read."""
    values, pos = scale.values, scale.graph.pattern.pos
    out = []
    for new, given in steps:
        if not new:
            out.append(None)
            continue
        t_cond, t_ratio = cones._regress(values, pos, new, given)

        def factor(kernel, a, new=new):
            out = kernel(a)
            if out is None:
                raise NotPositiveDefinite("does not factor", new=list(new))
            return out

        if first:
            wishart = side = factor(cones._potrf, t_cond)
        else:
            wishart = factor(cones._potrf, factor(cones._inv, t_cond))
            side = factor(cones._potrf, cones._block(scale.data, given))
        out.append((t_cond, t_ratio, wishart, side))
    return out


def _per_step_slots(pattern, steps):
    """(given, cross, new, *new_sel) per step, one step at a time."""
    out = []
    for new, given in steps:
        ni = np.asarray(new, dtype=int) - 1
        gi = np.asarray(given, dtype=int) - 1
        sel = np.tril_indices(len(ni))
        out.append((pattern.pos[gi[:, None], gi],
                    pattern.pos[ni[:, None], gi],
                    pattern.pos[ni[:, None], ni][sel]) + sel)
    return out


def _flat(plan):
    return [a for step in plan if step is not None for a in step]


class TestStackedPlan:
    """One plan per scale, walk and side, built by shape of step."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("which", ["banded", "class-tree", "K4"])
    def test_bits_of_the_per_step_build(self, which, family):
        """The stacked plan and slot tables have the bits of a build one
        step at a time (SHA-256 of every array), on a banded graph with
        steps of several shapes, on a class-tree walk, and on K4, whose
        clique order starts with the empty step ((), ()): the plan holds
        None there."""
        if which == "K4":
            spec = _spec(parse_graph({"n": 4, "edges": [
                [i, j] for i in range(1, 5) for j in range(i + 1, 5)]}),
                family)
            assert spec.walk.steps[0] == ((), ()) and spec.plan[0] is None
        elif which == "banded":
            r, w = 12, 3
            g = parse_graph({"n": r, "edges": [
                [i, j] for i in range(1, r + 1)
                for j in range(i + 1, min(i + w, r) + 1)]})
            spec = _spec(g, family)
        else:
            rule = TREE_ONLY_RULES["type1" if family in ("type1", "inv_type1")
                                   else "type2"]
            spec = class_tree_only_spec(2, 3, family, *rule)
            assert isinstance(spec.walk, HasseTree)
        steps, first = spec.walk.steps, spec.side == "first"
        assert len(set(map(lambda s: (len(s[0]), len(s[1])), steps))) > 1
        want = _per_step_plan(spec.scale, steps, first)
        assert [s is None for s in spec.plan] == [s is None for s in want]
        assert _sha(_flat(spec.plan)) == _sha(_flat(want))
        got = [(t.given, t.cross, t.new) + tuple(t.new_sel)
               for t in spec.walk.step_slots]
        want = _per_step_slots(spec.graph.pattern, steps)
        assert _sha(sum(got, ())) == _sha(sum(want, ()))
        for a in _flat(spec.plan) + list(sum(got, ())):
            assert not a.flags.writeable

    def test_specs_on_one_scale_walk_and_side_share_it(self, monkeypatch):
        """Specs on one scale, walk and side share the plan objects, and
        a second spec builds none; another side or walk has its own.
        Specs on one SparsePrecision scale share it too."""
        g = parse_graph(nested_star(2, 3))
        o = decompose(g)
        scale = random_qg(g, np.random.default_rng(1))
        uniform = ShapeParam((4.0,) * o.k, (4.0,) * o.k_prime)
        tree = class_tree_only_spec(2, 3, "type1", *TREE_ONLY_RULES["type1"])
        built = count_calls(monkeypatch, distributions, "_step_plan")
        t1 = WishartSpec(g, uniform, scale, "type1")
        i1 = WishartSpec(g, uniform + ShapeParam((0.5,) * o.k,
                                                 (0.5,) * o.k_prime),
                         scale, "inv_type1")
        assert t1.walk is o and i1.walk is o
        assert i1.plan is t1.plan
        assert all(a is b for x, y in zip(t1.plan, i1.plan)
                   for a, b in zip(x, y))
        assert len(built) == 1
        second = WishartSpec(g, random_second_admissible(
            o, np.random.default_rng(2)), scale, "inv_type2")
        assert second.walk is o and second.plan is not t1.plan
        on_tree = WishartSpec(g, tree.shape, scale, "type1")
        assert isinstance(on_tree.walk, HasseTree)
        assert on_tree.plan is not t1.plan
        assert len(built) == 3
        sparse = SparsePrecision(g, scale.data)
        on_sparse = [WishartSpec(g, spec.shape, sparse, spec.family)
                     for spec in (t1, i1)]
        assert on_sparse[0].plan is on_sparse[1].plan
        assert len(built) == 4

    @pytest.mark.parametrize("first", [True, False])
    def test_first_failing_step_of_the_walk_is_named(self, first):
        """On K4 with steps of three shapes, the stack of shape (1, 1)
        comes before that of shape (1, 2) but fails only at its later
        step: the error names the earlier failing step, of shape
        (1, 2), as the one-step-at-a-time build does.  A singular
        block on ``given`` raises NotInQG naming it."""
        g = parse_graph({"n": 4, "edges": [[i, j] for i in range(1, 5)
                                           for j in range(i + 1, 5)]})
        x = np.eye(4)
        x[0, 1] = x[1, 0] = 2.0  # 1 given (2, 3): 1 - 4 < 0
        x[2, 3] = x[3, 2] = 2.0  # 4 given 3: 1 - 4 < 0
        scale = IncompleteMatrix(g, x)
        steps = (((2,), ()), ((3,), (2,)), ((1,), (2, 3)), ((4,), (3,)))
        walk = graphs._Walk()
        walk.graph, walk.steps = g, steps
        outcomes = []
        for build, on in ((distributions._step_plan, walk),
                          (_per_step_plan, steps)):
            with pytest.raises(GraphWishartError) as err:
                build(scale, on, first)
            outcomes.append((type(err.value), err.value.context))
        assert outcomes[0] == outcomes[1] == \
            (NotPositiveDefinite, {"new": [1]})
        x[1, 2] = x[2, 1] = 1.0  # the block on (2, 3) is singular
        x[2, 2] = 2.0
        x[1, 1] = 0.5
        walk.steps = steps[:1] + steps[2:3]
        with pytest.raises(NotInQG) as err:
            distributions._step_plan(IncompleteMatrix(g, x), walk, first)
        assert err.value.context == {"given": [2, 3]}


def _exact_gram_inverse(low):
    """(L L^T)^-1 of a lower triangular float matrix L in exact rational
    arithmetic, rounded once to float."""
    k = len(low)
    lo = [[Fraction(float(v)) for v in row] for row in low]
    u = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        u[i][i] = 1 / lo[i][i]
        for j in range(i):
            u[i][j] = -sum(lo[i][m] * u[m][j]
                           for m in range(j, i)) / lo[i][i]
    return np.array([[float(sum(u[m][i] * u[m][j] for m in range(k)))
                      for j in range(k)] for i in range(k)])


class TestGramInverse:
    """The second side's inverse of a Wishart draw from its factor."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, k):
        """On 2,000 random lower triangular factors L with diagonals in
        [0.5, 2] and N(0, 1) below, (L L^T)^-1 from the factor is exactly
        symmetric and within 1e-15 times the condition number of L L^T
        of LAPACK's inverse of L L^T, relative to its largest entry: the
        bound of LAPACK's own error.  1x1 and 5x5 blocks take LAPACK's
        inverse itself, bit for bit.  The gap to LAPACK reaches 1.1e-13
        on one ill-conditioned 4x4 draw; on the 20 draws of the largest
        gap the exact inverse shows it to be LAPACK's: the factor's
        inverse is within 1e-15 of the exact one."""
        rng = np.random.default_rng(k)
        n = 2000
        low = np.tril(rng.normal(size=(n, k, k)), -1)
        low[:, np.arange(k), np.arange(k)] = rng.uniform(0.5, 2.0, (n, k))
        gram = low @ low.swapaxes(1, 2)
        got = distributions._gram_inverse(low.transpose(1, 2, 0),
                                          gram.transpose(1, 2, 0))
        got = got.transpose(2, 0, 1)
        want = np.linalg.inv(gram)
        if k in (1, 5):
            assert np.array_equal(got, want)
            return
        assert np.array_equal(got, got.swapaxes(1, 2))
        top = np.abs(want).max(axis=(1, 2))
        gap = np.abs(got - want).max(axis=(1, 2)) / top
        assert np.all(gap <= 1e-15 * np.linalg.cond(gram))
        for i in np.argsort(gap)[-20:]:
            exact = _exact_gram_inverse(low[i])
            assert np.abs(got[i] - exact).max() <= 1e-15 * top[i]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_zero_pivot_is_not_positive_definite(self, k):
        """A factor with a zero on its diagonal in one of its draws
        raises NotPositiveDefinite, with no floating point warning."""
        lt = np.repeat(np.eye(k)[:, :, None], 3, axis=2)
        lt[k - 1, k - 1, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"), \
                    pytest.raises(NotPositiveDefinite):
                distributions._gram_inverse(lt, cones._mul(
                    lt, lt.swapaxes(0, 1)))


class TestSpecBuild:

    @pytest.mark.parametrize("family", ["type1", "inv_type2"])
    def test_one_walk_search_per_build(self, family, monkeypatch):
        """On the nested star 20x19, alpha = 2 / beta = 1 walks the class
        tree on the first side and the G-Wishart shape walks the clique
        order on the second.  From a fresh graph, the shape and one spec
        build make at most one class-tree exponent pass, no shape_class
        call and one clique_sizes build."""
        tree_passes = count_calls(monkeypatch, shapes, "hasse_exponents")
        classified = count_calls(monkeypatch, shapes, "shape_class")
        sizes = count_calls(
            monkeypatch, CliqueOrdering.__dict__["clique_sizes"], "func")
        g = parse_graph(nested_star(20, 19))
        o = decompose(g)
        shape = ShapeParam((2.0,) * o.k, (1.0,) * o.k_prime) \
            if family == "type1" else canonical_shape("gwishart", o, 3.0)
        spec = WishartSpec(g, shape, random_qg(g, np.random.default_rng(2)),
                           family)
        assert spec.walk is (graphs._class_tree(g) if family == "type1"
                             else o)
        assert len(tree_passes) <= 1 and not classified
        assert len(sizes) == 1

    def test_equality_is_identity(self, a4, a4_ord):
        """Cone matrices and specs compare by identity and hash, so
        ``==`` never compares arrays."""
        x, y = project(np.eye(4), a4), project(np.eye(4), a4)
        k = SparsePrecision(a4, np.eye(4))
        assert x == x and x != y and not (x == k)
        assert len({x, y, k}) == 3
        assert not isinstance(x, SparsePrecision)
        assert not isinstance(k, IncompleteMatrix)
        shape = canonical_shape("hyper", a4_ord, 1.5)
        s1, s2 = (WishartSpec(a4, shape, x, "type1") for _ in range(2))
        assert s1 == s1 and s1 != s2 and len({s1, s2}) == 2

