import math

import numpy as np
import pytest

from graphwishart import (
    IncompleteMatrix,
    OutOfDomain,
    PoleAtC,
    RngStream,
    ShapeOutsideA4B4,
    ShapeParam,
    WishartSpec,
    WrongGraph,
    a4_closed_form,
    canonical_shape,
    check_factorization,
    check_identity_327,
    check_mean426,
    decompose,
    gauss_2f1,
    log_gamma_I,
    log_gamma_II,
    log_h,
    mc_normalizer,
    mellin_2x2,
    parse_graph,
    project,
    sample_batch,
)

from conftest import random_second_admissible

K1 = parse_graph({"n": 1, "edges": []})


class TestGauss2F1:

    def test_z_zero(self):
        assert gauss_2f1(0.7, 1.3, 2.1, 0.0) == 1.0

    def test_log_closed_form(self):
        # -log(1 - z)/z identity
        got = gauss_2f1(1.0, 1.0, 2.0, 0.5)
        assert got == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_vanishing_first_parameter(self):
        for z in (0.1, 0.5, 0.95):
            assert gauss_2f1(0.0, 1.5, 2.0, z) == 1.0

    def test_binomial_series(self):
        # one unit upper parameter collapses to a power
        for z in (0.2, 0.6, 0.93):
            got = gauss_2f1(0.5, 1.7, 1.7, z)
            assert got == pytest.approx((1 - z) ** -0.5, rel=1e-12)

    def test_pole_at_c(self):
        with pytest.raises(PoleAtC):
            gauss_2f1(1.0, 1.0, -2.0, 0.3)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    def test_monotone_in_z(self):
        vals = [gauss_2f1(0.8, 1.2, 2.5, z)
                for z in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestIdentity327:

    def test_z_zero(self):
        assert check_identity_327(0.5, 1.5, 2.0, 0.0) == 0.0

    def test_spot_value(self):
        assert check_identity_327(0.5, 1.0, 2.0, 0.25) < 1e-12

    def test_grid(self):
        worst = 0.0
        for a in (0.3, 1.7):
            for b in (0.3, 1.7):
                for c in (1.1, 2.5):
                    for z in (0.1, 0.5, 0.8):
                        worst = max(worst,
                                    check_identity_327(a, b, c, z))
        assert worst < 1e-11


class TestA4ClosedForm:

    def test_identity_scale_all_ones(self, a4):
        shape = ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0))
        got = a4_closed_form("I", shape, project(np.eye(4), a4))
        assert got == pytest.approx(3 * math.log(math.pi),
                                    abs=1e-12)

    def test_wrong_graph(self, k3):
        shape = ShapeParam((1.0,), ())
        with pytest.raises(WrongGraph):
            a4_closed_form("I", shape, project(np.eye(3), k3))

    def test_shape_outside_domain(self, a4):
        shape = ShapeParam((0.2, 0.2, 0.2), (0.2, 0.2))
        with pytest.raises(ShapeOutsideA4B4):
            a4_closed_form("I", shape, project(np.eye(4), a4))

    def test_admissible_shape_ratio_constant(self, a4, a4_ord):
        shape = ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0))
        rng = np.random.default_rng(1)
        vals = []
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            sig = project(a @ a.T / 6 + np.eye(4), a4)
            vals.append(a4_closed_form("I", shape, sig)
                        - log_h(shape, sig, a4_ord))
        assert max(vals) - min(vals) < 1e-10

    def test_excluded_shape_ratio_varies(self, a4, a4_ord):
        shape = ShapeParam((1.0, 1.0, 1.0), (1.5, 1.5))
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 0.2
        base = m.copy()
        m2 = m.copy()
        m2[1, 2] = m2[2, 1] = 0.6
        vals = []
        for mm in (base, m2):
            sig = IncompleteMatrix(a4, mm)
            vals.append(a4_closed_form("I", shape, sig)
                        - log_h(shape, sig, a4_ord))
        assert abs(vals[0] - vals[1]) > 1e-3

    def test_second_kind_matches_gamma(self, a4, a4_ord):
        shape = ShapeParam((-1.0, -1.0, -1.0), (1.0, -0.5))
        sig = project(np.eye(4), a4)
        got = a4_closed_form("II", shape, sig)
        expect = log_gamma_II(shape, a4_ord) \
            + log_h(shape, sig, a4_ord)
        assert got == pytest.approx(expect, abs=1e-10)


class TestMcNormalizer:

    def test_complete_graph_known_constant(self, k2):
        ordering = decompose(k2)
        shape = ShapeParam((2.0,), ())
        scale = project(np.eye(2), k2)
        est = mc_normalizer("I", k2, ordering, shape, scale,
                            RngStream(2), 100000)
        expect = math.exp(log_gamma_I(shape, ordering))
        assert abs(est.value - expect) < 3 * est.std_error \
            + 1e-12 * expect

    def test_candidate_bug_is_not_swallowed(self, a4, a4_ord,
                                            monkeypatch):
        import graphwishart.verify as verify

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "WishartSpec", boom)
        shape = ShapeParam((2.0, 1.5, 1.5), (1.0, 1.5))
        with pytest.raises(RuntimeError):
            mc_normalizer("I", a4, a4_ord, shape, project(np.eye(4), a4),
                          RngStream(3), 1000)

    def test_first_kind_admissible(self, a4, a4_ord):
        shape = ShapeParam((2.0, 1.5, 1.5), (1.0, 1.5))
        scale = project(np.eye(4) * 1.2, a4)
        est = mc_normalizer("I", a4, a4_ord, shape, scale,
                            RngStream(3), 60000)
        expect = math.exp(log_gamma_I(shape, a4_ord)
                          + log_h(shape, scale, a4_ord))
        assert abs(est.value - expect) < 3 * est.std_error

    def test_second_kind_admissible(self, a4, a4_ord):
        shape = ShapeParam((-1.5, -1.5, -1.5), (0.5, -1.0))
        scale = project(np.eye(4), a4)
        est = mc_normalizer("II", a4, a4_ord, shape, scale,
                            RngStream(4), 60000)
        expect = math.exp(log_gamma_II(shape, a4_ord)
                          + log_h(shape, scale, a4_ord))
        assert abs(est.value - expect) < 3 * est.std_error

    def test_deterministic_given_seed(self, a4, a4_ord):
        shape = ShapeParam((2.0, 1.5, 1.5), (1.0, 1.5))
        scale = project(np.eye(4), a4)
        a = mc_normalizer("I", a4, a4_ord, shape, scale,
                          RngStream(5), 5000)
        b = mc_normalizer("I", a4, a4_ord, shape, scale,
                          RngStream(5), 5000)
        assert a.value == b.value and a.std_error == b.std_error


def test_log_h_batch_memory_is_chunked():
    """``_log_h_batch`` on 20000 packed draws of a banded r=20 graph
    walks each block size in chunks: it allocates at most twice the
    chunk bound (the gathered blocks and the LAPACK outputs of one
    chunk) plus O(n) for its outputs, not one (n, m, k, k) gather per
    size (about 40 MB here)."""
    import tracemalloc

    from graphwishart import cones, verify

    r, n = 20, 20000
    g = parse_graph({"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                       for j in range(i + 1, min(r, i + 3)
                                                      + 1)]})
    o = decompose(g)
    shape = canonical_shape("hyper", o, 3.0)
    p = g.pattern
    batch = np.empty((n, p.size))
    batch[:] = (np.eye(r) + 0.1 * g.edge_mask())[p.rows, p.cols]
    expect = verify._log_h_batch(shape, batch[:1], o)[0]
    tracemalloc.start()
    try:
        out = verify._log_h_batch(shape, batch, o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(out, expect, rtol=1e-13)
    assert cones._CHUNK_BYTES <= 8 << 20
    assert peak <= 2 * cones._CHUNK_BYTES + 16 * n


def test_mc_normalizer_reads_the_walk_store(monkeypatch):
    """``mc_normalizer`` takes log h from the walk's packed draws: on a
    banded r=20 graph with 20000 draws it calls no ``sample_batch``, and
    its allocation peak stays below the 64 MB of one dense (n, r, r)
    batch."""
    import tracemalloc

    from graphwishart import distributions, verify

    r, n = 20, 20000
    g = parse_graph({"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                       for j in range(i + 1, min(r, i + 3)
                                                      + 1)]})
    o = decompose(g)
    scale = project(np.eye(r) + 0.1 * g.edge_mask(), g)
    calls = []
    monkeypatch.setattr(distributions, "sample_batch",
                        lambda *args: calls.append(args))
    assert not hasattr(verify, "sample_batch")
    tracemalloc.start()
    try:
        est = mc_normalizer("I", g, o, canonical_shape("hyper", o, 3.0),
                            scale, RngStream(6), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and est.n_draws == n
    assert peak < n * r * r * 8


class TestMellin:

    def test_zero_moments(self):
        rng = RngStream(6)
        closed, _ = mellin_2x2(1.2, 0.0, 0.0,
                               np.array([[1.0, 0.3], [0.3, 1.0]]),
                               rng, 100)
        assert closed == pytest.approx(1.0, abs=1e-12)

    def test_marginal_mean(self):
        rng = RngStream(7)
        closed, _ = mellin_2x2(1.0, 1.0, 0.0, np.eye(2), rng, 100)
        assert closed == pytest.approx(1.0, abs=1e-12)

    def test_against_mc(self):
        rng = RngStream(8)
        closed, est = mellin_2x2(
            1.5, 0.5, 0.5, np.array([[1.0, 0.4], [0.4, 1.0]]),
            rng, 100000)
        assert abs(closed - est.value) < 3 * est.std_error


class TestFactorization:

    def _spec(self, g, shape_rng_seed=9):
        ordering = decompose(g)
        shape = random_second_admissible(
            ordering, np.random.default_rng(shape_rng_seed))
        r = g.vertex_count
        rng = np.random.default_rng(shape_rng_seed + 1)
        a = rng.standard_normal((r, r + 2))
        scale = project(a @ a.T / (r + 2) + np.eye(r), g)
        return WishartSpec(g, shape, scale, "inv_type2",
                           ordering=ordering)

    def test_path_graph(self, a4):
        spec = self._spec(a4)
        batch = sample_batch(spec, RngStream(10), 50)
        for b in batch:
            assert check_factorization(
                spec, IncompleteMatrix(a4, b)) < 1e-10

    def test_complete_graph(self, k3):
        ordering = decompose(k3)
        shape = ShapeParam((-2.5,), ())
        spec = WishartSpec(k3, shape, project(np.eye(3), k3),
                           "inv_type2", ordering=ordering)
        batch = sample_batch(spec, RngStream(11), 20)
        for b in batch:
            assert check_factorization(
                spec, IncompleteMatrix(k3, b)) < 1e-12


class TestMean426:

    def test_scalar(self):
        ordering = decompose(K1)
        spec = WishartSpec(K1, ShapeParam((-3.0,), ()),
                           IncompleteMatrix(K1, np.array([[1.0]])),
                           "type2", ordering=ordering)
        est = check_mean426(spec, RngStream(12), 50000)
        assert est.value < 3 * est.std_error + 1e-12

    def test_complete_pair(self, k2):
        ordering = decompose(k2)
        shape = canonical_shape("gwishart", ordering, 6.0)
        spec = WishartSpec(k2, shape, project(np.eye(2), k2),
                           "type2", ordering=ordering)
        est = check_mean426(spec, RngStream(13), 100000)
        assert est.value < 4 * est.std_error


@pytest.mark.parametrize("n", [0, 1, 2.5, "3"])
def test_monte_carlo_needs_two_draws(n, k2):
    """Below two draws no standard error exists: OutOfDomain, not a nan
    with RuntimeWarnings.  A count that is not an integer is OutOfDomain
    too, not truncated."""
    ordering = decompose(k2)
    shape = canonical_shape("gwishart", ordering, 6.0)
    scale = project(np.eye(2), k2)
    type2 = WishartSpec(k2, shape, scale, "type2", ordering=ordering)
    hyper = canonical_shape("hyper", ordering, 2.0)
    calls = [
        lambda: mc_normalizer("I", k2, ordering, hyper, scale,
                              RngStream(1), n),
        lambda: check_mean426(type2, RngStream(2), n),
        lambda: mellin_2x2(1.5, 0.5, 0.5, np.eye(2), RngStream(3), n),
    ]
    for call in calls:
        with pytest.raises(OutOfDomain) as info:
            call()
        assert info.value.context == {"n": n}

