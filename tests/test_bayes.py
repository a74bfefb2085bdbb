import math

import numpy as np
import pytest

from graphwishart import (
    ColumnMismatch,
    IncompleteMatrix,
    NonNumeric,
    NotInQG,
    OutOfDomain,
    PosteriorShapeInadmissible,
    RngStream,
    ShapeNotAdmissible,
    ShapeParam,
    WishartSpec,
    canonical_shape,
    decompose,
    ingest,
    log_likelihood,
    logpdf,
    mean_type2,
    mle,
    parse_graph,
    posterior_summaries,
    posterior_update,
    project,
    sample_batch,
)

from conftest import count_spec_builds, random_qg

K1 = parse_graph({"n": 1, "edges": []})


def a4_prior(a4, scale_dense=None):
    shape = ShapeParam((-1.0, -1.0, -1.0), (1.0, -0.5))
    scale = project(np.eye(4) if scale_dense is None
                    else scale_dense, a4)
    return WishartSpec(a4, shape, scale, "inv_type2")


class TestIngest:

    def test_single_row(self, a4):
        s = ingest([[1.0, 0.0, 0.0, 0.0]], a4)
        assert s.n == 1 and s.r == 4
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(s.suffstat, expect)
        assert np.allclose(np.diag(s.projected.data), [1, 0, 0, 0])

    def test_large_sample_concentrates(self, a4):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 4))
        s = ingest(data.tolist(), a4)
        assert np.max(np.abs(s.projected.data / 100
                             - np.eye(4) * a4.edge_mask())) < 0.5

    def test_column_mismatch(self, a4):
        with pytest.raises(ColumnMismatch):
            ingest([[1.0, 2.0, 3.0]], a4)

    def test_non_numeric(self, a4):
        with pytest.raises(NonNumeric):
            ingest([[1.0, "x", 0.0, 0.0]], a4)

    def test_centering_flag(self, a4):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((50, 4)) + 10.0
        s = ingest(data.tolist(), a4, center=True)
        assert s.n == 49
        centered = data - data.mean(axis=0)
        assert np.allclose(s.suffstat, centered.T @ centered)


class TestMle:

    def test_identity_covariance(self, a4):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((2000, 4))
        # force the empirical covariance to exactly the identity
        chol = np.linalg.cholesky(data.T @ data / 2000)
        data = data @ np.linalg.inv(chol).T
        s = ingest(data.tolist(), a4)
        sig, prec = mle(s)
        assert np.allclose(sig.data, np.eye(4) * a4.edge_mask(),
                           atol=1e-10)
        assert np.allclose(prec.data, np.eye(4), atol=1e-10)

    def test_consistency(self, a4):
        truth = np.array([[1.0, 0.4, 0.0, 0.0],
                          [0.4, 1.0, 0.3, 0.0],
                          [0.0, 0.3, 1.0, 0.2],
                          [0.0, 0.0, 0.2, 1.0]])
        rng = np.random.default_rng(4)
        cov = np.linalg.inv(truth)
        data = rng.multivariate_normal(np.zeros(4), cov, size=10000)
        _, prec = mle(ingest(data.tolist(), a4))
        assert np.max(np.abs(prec.data - truth)) < 0.1

    def test_rank_deficient(self, a4):
        with pytest.raises(NotInQG):
            mle(ingest([[1.0, 1.0, 1.0, 1.0]], a4))


class TestPosteriorUpdate:

    def test_empty_sample_identity(self, a4):
        prior = a4_prior(a4)
        post = posterior_update(prior, ingest([], a4)) \
            if False else posterior_update(
                prior, _empty_sample(a4))
        assert post.shape == prior.shape
        assert np.allclose(post.scale.data, prior.scale.data)

    def test_path_worked_example(self, a4):
        prior = a4_prior(a4)
        data = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        sample = ingest(data, a4)
        # overwrite scatter with the exact projected identity
        sample = _with_projected(a4, sample, np.eye(4), n=2)
        post = posterior_update(prior, sample)
        assert post.shape.alpha == (-2.0, -2.0, -2.0)
        assert post.shape.beta == (0.0, -1.5)
        assert np.allclose(post.scale.data,
                           2 * np.eye(4) * a4.edge_mask())

    def test_wrong_family_prior_rejected(self, a4, a4_ord):
        from graphwishart import OutOfDomain, canonical_shape
        shape = canonical_shape("hyper", a4_ord, 1.5)
        prior = WishartSpec(a4, shape, project(np.eye(4), a4),
                            "type1")
        sample = _with_projected(a4, None, np.eye(4), n=2)
        with pytest.raises(OutOfDomain):
            posterior_update(prior, sample)

    def test_conjugacy_identity(self, a4):
        prior = a4_prior(a4)
        rng = np.random.default_rng(5)
        data = rng.multivariate_normal(np.zeros(4), np.eye(4), size=3)
        sample = ingest(data.tolist(), a4)
        post = posterior_update(prior, sample)
        gaps = []
        for _ in range(100):
            sigma2 = random_qg(a4, rng)
            gaps.append(logpdf(post, sigma2)
                        - logpdf(prior, sigma2)
                        - log_likelihood(sigma2, sample))
        assert float(np.std(gaps)) < 1e-10

    def test_sequential_batches(self, a4):
        prior = a4_prior(a4)
        rng = np.random.default_rng(6)
        d1 = rng.standard_normal((2, 4)).tolist()
        d2 = rng.standard_normal((3, 4)).tolist()
        joint = posterior_update(prior, ingest(d1 + d2, a4))
        seq = posterior_update(posterior_update(prior, ingest(d1, a4)),
                               ingest(d2, a4))
        assert np.allclose(np.array(joint.shape.alpha),
                           np.array(seq.shape.alpha), atol=1e-12)
        assert np.allclose(joint.scale.data, seq.scale.data,
                           atol=1e-12)


class TestPosteriorSummaries:

    def test_scalar_precision_mean(self):
        ordering = decompose(K1)
        prior = WishartSpec(K1, ShapeParam((-3.0,), ()),
                            IncompleteMatrix(K1, np.array([[2.0]])),
                            "inv_type2", ordering=ordering)
        out = posterior_summaries(prior, RngStream(7), n_draws=2000)
        # the prior sits on twice the covariance; the precision mean
        # doubles the second-family mean at the stored scale
        spec2 = WishartSpec(K1, prior.shape, prior.scale, "type2",
                            ordering=ordering)
        expect = 2.0 * mean_type2(spec2).data[0, 0]
        assert out["precision_mean"].data[0, 0] == pytest.approx(
            expect)
        assert expect == pytest.approx(3.0)

    def test_mc_mean_matches_draws(self, a4):
        prior = a4_prior(a4)
        out = posterior_summaries(prior, RngStream(8), n_draws=20000)
        spec = WishartSpec(a4, prior.shape, prior.scale, "inv_type2")
        batch = sample_batch(spec, RngStream(8), 20000) / 2.0
        assert np.allclose(out["sigma_mean"].data, batch.mean(axis=0),
                           atol=1e-8)

    @pytest.mark.parametrize("graph", ["a4", "fig1"])
    def test_packed_moments_equal_dense_moments(self, graph, request):
        """The Monte Carlo moments on the packed draws equal, bit for bit,
        the mean and standard error over the dense batch of the same
        seed, halved; the standard error is zero off the pattern."""
        g = request.getfixturevalue(graph)
        o = decompose(g)
        prior = WishartSpec(g, canonical_shape("gwishart", o, 3.0),
                            random_qg(g, np.random.default_rng(2)),
                            "inv_type2")
        out = posterior_summaries(prior, RngStream(12), n_draws=300)
        batch = sample_batch(prior, RngStream(12), 300) / 2.0
        p = g.pattern
        assert np.array_equal(out["sigma_mean"].values,
                              batch.mean(axis=0)[p.rows, p.cols])
        assert np.array_equal(out["sigma_se"],
                              batch.std(axis=0, ddof=1) / np.sqrt(300))

    @pytest.mark.parametrize("graph", ["a4", "fig1"])
    def test_precision_mean_from_own_spec(self, graph, request,
                                          monkeypatch):
        """posterior_summaries builds no spec; its precision mean is, bit
        for bit, twice mean_type2 of the type2 spec at the posterior's
        shape, scale and order."""
        g = request.getfixturevalue(graph)
        o = decompose(g)
        post = WishartSpec(g, canonical_shape("gwishart", o, 3.0),
                           random_qg(g, np.random.default_rng(4)),
                           "inv_type2")
        builds = count_spec_builds(monkeypatch)
        out = posterior_summaries(post, RngStream(5), n_draws=50)
        assert builds == []
        type2 = WishartSpec(g, post.shape, post.scale, "type2",
                            ordering=post.ordering)
        assert np.array_equal(out["precision_mean"].values,
                              2 * mean_type2(type2).values)

    def test_precision_mean_against_sampling(self, a4):
        prior = a4_prior(a4)
        spec = WishartSpec(a4, prior.shape, prior.scale, "type2")
        batch = sample_batch(spec, RngStream(9), 100000)
        emp = 2.0 * batch.mean(axis=0)
        se = 2.0 * batch.std(axis=0) / math.sqrt(batch.shape[0])
        out = posterior_summaries(prior, RngStream(10), n_draws=200)
        mask = a4.edge_mask()
        assert np.all(np.abs(out["precision_mean"].data
                             - emp)[mask] < 4 * se[mask])


    @pytest.mark.parametrize("n_draws", [0, 1, 2.5, "3"])
    def test_needs_two_draws(self, a4, n_draws):
        with pytest.raises(OutOfDomain) as info:
            posterior_summaries(a4_prior(a4), RngStream(4), n_draws=n_draws)
        assert info.value.context == {"n_draws": n_draws}


def test_inadmissible_posterior_shape_is_named(a4, monkeypatch):
    """posterior_update leaves admissibility to the spec build and
    reports its failure with the sample count."""
    import graphwishart.bayes as bayes

    prior = a4_prior(a4)

    def refuse(*args, **kwargs):
        raise ShapeNotAdmissible("refused")

    monkeypatch.setattr(bayes, "WishartSpec", refuse)
    with pytest.raises(PosteriorShapeInadmissible) as info:
        posterior_update(prior, ingest(np.ones((3, 4)), a4))
    assert info.value.context == {"n": 3}


class TestHyperWishartLink:

    def test_scatter_matrix_law(self, a4):
        # the projected scatter of n zero-mean Gaussian rows follows
        # the first-family law with half-integer shape at twice the
        # covariance; compare empirical means
        rng = np.random.default_rng(11)
        cov = np.array([[1.0, 0.4, 0.0, 0.0],
                        [0.4, 1.0, 0.3, 0.0],
                        [0.0, 0.3, 1.0, 0.2],
                        [0.0, 0.0, 0.2, 1.0]])
        cov = np.linalg.inv(cov)
        n, reps = 6, 30000
        acc = np.zeros((4, 4))
        sq = np.zeros((4, 4))
        for _ in range(reps):
            z = rng.multivariate_normal(np.zeros(4), cov, size=n)
            s = (z.T @ z) * a4.edge_mask()
            acc += s
            sq += s * s
        emp = acc / reps
        se = np.sqrt((sq / reps - emp ** 2) / reps)
        from graphwishart import mean_type1
        spec = WishartSpec(a4, ShapeParam((n / 2.0,) * 3,
                                          (n / 2.0,) * 2),
                           project(2 * cov, a4), "type1")
        expect = mean_type1(spec).data
        mask = a4.edge_mask()
        assert np.all(np.abs(emp - expect)[mask] < 5 * se[mask])


def _empty_sample(graph):
    from graphwishart import GaussianSample
    r = graph.vertex_count
    return GaussianSample(0, r, np.zeros((r, r)),
                          project(np.zeros((r, r)), graph))


def _with_projected(graph, sample, dense, n):
    from graphwishart import GaussianSample
    return GaussianSample(n, graph.vertex_count, dense,
                          project(dense, graph))
