import hashlib
import math

import numpy as np
import pytest

from graphwishart import (
    DegenerateWeights,
    IncompleteMatrix,
    OutOfDomain,
    PoleAtC,
    RngStream,
    ShapeOutsideA4B4,
    ShapeParam,
    WishartSpec,
    HasseTree,
    WrongGraph,
    a4_closed_form,
    canonical_shape,
    check_factorization,
    check_identity_327,
    check_mean426,
    decompose,
    enumerate_perfect_orders,
    gauss_2f1,
    log_gamma_I,
    log_gamma_II,
    log_h,
    mc_normalizer,
    mellin_2x2,
    parse_graph,
    project,
    realign_shape,
    sample,
    sample_batch,
)

from graphwishart.cones import _regress
from graphwishart.distributions import _walk_mean
from graphwishart.shapes import size_shift, step_exponents

from conftest import (
    FIG1_EDGES,
    class_tree_only_spec,
    count_spec_builds,
    random_first_admissible,
    random_qg,
    random_second_admissible,
)

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

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_pole_at_c(self, c):
        """A lower parameter that is a non-positive integer is a typed
        refusal, as in gauss_2f1, not a division by zero."""
        with pytest.raises(PoleAtC):
            check_identity_327(1.0, 1.0, c, 0.5)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            check_identity_327(1.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("f", [gauss_2f1, check_identity_327])
    @pytest.mark.parametrize("c", [-math.inf, math.inf, math.nan])
    def test_lower_parameter_not_finite(self, f, c):
        """A typed refusal naming c, where int(c) raised OverflowError
        (or, for NaN, the series ran on)."""
        with pytest.raises(OutOfDomain, match="lower parameter") as err:
            f(1.0, 1.0, c, 0.5)
        assert "c" in err.value.context

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
    """``shapes._log_h`` at one point with large cliques (banded r=400,
    w=40: 360 blocks of 41x41, 4.8 MB gathered at once) walks each block
    size in chunks of blocks: at the module's chunk size and at 1 MB it
    allocates at most twice the chunk bound (the gathered blocks and the
    LAPACK outputs of one chunk) plus O(r + |E|), and both give log h of
    the completion, hyper exponent times its log determinant."""
    import tracemalloc
    from unittest import mock

    from graphwishart import cones, shapes
    from graphwishart.cones import complete

    g = _banded(400, 40)
    o = decompose(g)
    shape = canonical_shape("hyper", o, 30.0)
    x = IncompleteMatrix(g, np.eye(400) + 0.01 * g.edge_mask())
    expect = 30.0 * np.linalg.slogdet(complete(x))[1]
    assert cones._CHUNK_BYTES <= 8 << 20
    for chunk in (cones._CHUNK_BYTES, 1 << 20):
        with mock.patch.object(cones, "_CHUNK_BYTES", chunk):
            tracemalloc.start()
            try:
                out = shapes._log_h(shape, x.values, o)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out == pytest.approx(expect, rel=1e-13)
        assert peak <= 2 * chunk + 16 * g.pattern.size


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

    @pytest.mark.parametrize("r, w", [(4, 1), (20, 3)],
                             ids=["path-4", "banded-20"])
    def test_walks_the_spec_it_is_given(self, r, w, monkeypatch):
        """check_mean426 builds no spec, and its value and standard error
        equal, bit for bit, the computation on the inv_type2 twin: the
        twin's draws read on the pattern, regressed step by step, and
        filled at the shape shifted by (size + 1) / 2."""
        g = parse_graph({"n": r, "edges": [
            [i, j] for i in range(1, r + 1)
            for j in range(i + 1, min(r, i + w) + 1)]})
        o = decompose(g)
        rng = np.random.default_rng(3)
        shape, scale = random_second_admissible(o, rng), random_qg(g, rng)
        spec = WishartSpec(g, shape, scale, "type2")
        builds = count_spec_builds(monkeypatch)
        est = check_mean426(spec, RngStream(16), 200)
        assert builds == []

        p = g.pattern
        twin = WishartSpec(g, shape, scale, "inv_type2")
        x = sample_batch(twin, RngStream(16), 200)[:, p.rows, p.cols]
        exps = step_exponents(shape + size_shift(o, 0.5, 1), o, "first")
        per_draw = _walk_mean(o, exps, [_regress(x, p.pos, new, given)
                                        for new, given in o.steps], (200,))
        resid = np.abs(-scale.values - per_draw.mean(axis=0))
        se = per_draw.std(axis=0, ddof=1) / math.sqrt(200)
        assert np.array_equal(est.value, resid.max())
        assert np.array_equal(est.std_error, se[np.argmax(resid)])


NESTED_STARS = pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                                       ids=["star-3x2", "star-2x3"])


class TestClassTreeSecondSide:
    """Both checks walk ``spec.walk``: on a second-side shape that only
    the class tree admits, the clique order's step exponents do not
    describe the draws (along it the factorization residuals of these
    points read 0.13 to 28)."""

    @NESTED_STARS
    def test_factorization(self, hubs, leaves):
        spec = class_tree_only_spec(hubs, leaves, "inv_type2")
        for point in sample(spec, RngStream(2), 20):
            assert check_factorization(spec, point) < 1e-10

    @pytest.mark.parametrize("least", [0.0, 2.0],
                             ids=["first-shape", "finite-variance"])
    @NESTED_STARS
    def test_mean426(self, hubs, leaves, least):
        """The first class-tree-only shape has step exponents below 1,
        where the inverse-gamma conditional blocks have no mean, so its
        residual and standard error are both huge and the check has no
        power.  With every step exponent above 2 each block has a
        variance: the check holds along the tree, and along the clique
        order it reads 150 (2x3) and 1,451 (3x2) standard errors."""
        spec = class_tree_only_spec(hubs, leaves, "type2", least)
        est = check_mean426(spec, RngStream(3), 20000)
        assert est.value <= 4 * est.std_error

    @NESTED_STARS
    def test_mean426_on_every_order(self, hubs, leaves):
        """The type2 shape of ``class_tree_only_spec`` realigned to each
        of the first 200 perfect orders: where the spec built on that
        order walks the class tree, the check takes the same shifted
        exponents and returns bit for bit the value on the graph's own
        order."""
        spec = class_tree_only_spec(hubs, leaves, "type2")
        o = spec.ordering
        want = check_mean426(spec, RngStream(6), 200)
        walked = 0
        for p in enumerate_perfect_orders(spec.graph)[:200]:
            other = WishartSpec(spec.graph, realign_shape(spec.shape, o, p),
                                spec.scale, "type2", ordering=p)
            if isinstance(other.walk, HasseTree):
                walked += 1
                got = check_mean426(other, RngStream(6), 200)
                assert (got.value, got.std_error) == \
                    (want.value, want.std_error)
        assert walked


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float)
                          .tobytes()).hexdigest()


@pytest.mark.skipif(tuple(map(int, np.__version__.split(".")[:2]))
                    != (2, 4), reason="digests recorded with numpy 2.4")
def test_per_order_second_side_keeps_its_bits():
    """On fig1 with a per-order second-side shape (``spec.walk`` is
    ``spec.ordering``) the draws of ``sample`` and the values of both
    checks keep the bits they had when the second side sampled and was
    checked along the clique order only: SHA-256 of their float64
    bytes, recorded on x86-64 with numpy 2.4, since the walk's products
    are index-order sums (fig1's 2x2 and 3x3 blocks rounded as
    OpenBLAS's fused multiply-adds before), and again since the second
    side inverts each Wishart draw from its Bartlett factor."""
    g = parse_graph({"n": 7, "edges": FIG1_EDGES})
    o = decompose(g)
    rng = np.random.default_rng(3)
    shape, scale = random_second_admissible(o, rng), random_qg(g, rng)
    type2, inv = (WishartSpec(g, shape, scale, f)
                  for f in ("type2", "inv_type2"))
    assert type2.walk is o and inv.walk is o
    est = check_mean426(type2, RngStream(7), 2000)
    got = [
        _digest([k.values for k in sample(type2, RngStream(5), 50)]),
        _digest([x.values for x in sample(inv, RngStream(5), 50)]),
        _digest([check_factorization(inv, x)
                 for x in sample(inv, RngStream(6), 5)]),
        _digest([est.value, est.std_error]),
    ]
    assert got == [
        "5ac361c5864b21e17e6cf8ab0d11c23bf0236d54d6a0a0d758ad371726999a29",
        "4a99ac565f0c84c7e61fdb552ec4e3b2c1352af1776dcbebfa5321290fc4e0f8",
        "3e8ab358447c40152aa18141636f9e92dad0ccd32e121701a3ad5b6ca293bea1",
        "5694038b801a8083bb03860592729964e9465ff9a1a3f82a192a259d04c5fcdf",
    ]


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



def _banded(r, w):
    return parse_graph({"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                          for j in range(i + 1,
                                                         min(r, i + w) + 1)]})


def _log_h_of_draws(shape, draws, o):
    """log h of each packed draw (n, r + |E|): one ``slogdet`` per block
    of ``o.blocks``, over all the draws at once."""
    from graphwishart import shapes

    pos = o.graph.pattern.pos
    out = np.zeros(len(draws))
    for a, w in zip(o.blocks, shapes._weights(shape, o)):
        ix = np.asarray(a) - 1
        out += w * np.linalg.slogdet(draws[:, pos[ix[:, None], ix]])[1]
    return out


def _dense_reference(kind, g, o, shape, scale, seed, n):
    """``mc_normalizer`` written out with log h taken by ``slogdet`` of
    the walk's stored draws: (chosen proposal, estimate).  A candidate
    whose pilot draws a singular block is skipped, as there."""
    from graphwishart import shapes, verify
    from graphwishart.distributions import _walk
    from graphwishart.errors import NotPositiveDefinite

    rng = RngStream(seed)
    if kind == "I":
        family, name, cands = "type1", "hyper", \
            verify._hyper_candidates(shape, o)
    else:
        family, name, cands = "inv_type2", "gwishart", \
            verify._gwishart_candidates(shape, o)
    best = None
    for i, v in enumerate(cands):
        spec = WishartSpec(g, canonical_shape(name, o, v), scale, family,
                           ordering=o)
        try:
            pilot = _walk(spec, rng.spawn(10_000 + i),
                          min(4000, max(500, n // 50)))
        except NotPositiveDefinite:
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            logw = _log_h_of_draws(shape - spec.shape, pilot, o)
        if not np.all(np.isfinite(logw)):
            continue
        w = np.exp(logw - logw.max())
        ess = w.sum() ** 2 / (w * w).sum()
        if best is None or ess > best[0]:
            best = (ess, v, spec)
    _, v, spec = best
    logw = _log_h_of_draws(shape - spec.shape, _walk(spec, rng, n), o)
    return v, float(np.exp(logw + spec.log_gamma + spec.log_h_scale).mean())


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("graph", ["fig1", "banded20"])
def test_mc_normalizer_matches_dense_log_h(kind, graph, fig1, monkeypatch):
    """The walk's tally of log h gives the estimate that ``slogdet`` of
    the stored draws gives: the same proposal and the same value to
    1e-12 relative.  ``mc_normalizer`` passes no stack of draws to
    ``slogdet`` or to ``cones._logdet_sum``; the calls that remain take
    log h of the scale, one point (its (m, k, k) blocks for ``slogdet``),
    as each candidate spec is built."""
    from graphwishart import cones, shapes

    g = fig1 if graph == "fig1" else _banded(20, 3)
    o = decompose(g)
    rng = np.random.default_rng(17)
    scale = random_qg(g, rng)
    shape = random_first_admissible(o, rng) if kind == "I" else \
        random_second_admissible(o, rng)
    ref_v, ref_value = _dense_reference(kind, g, o, shape, scale, 8, 5000)
    lead = []  # per call, the axes in front of one point's blocks or values
    real_slogdet, real_sum = np.linalg.slogdet, cones._logdet_sum

    def slogdet(a):
        lead.append(a.shape[:-3])
        return real_slogdet(a)

    def logdet_sum(values, ordering, weights):
        lead.append(values.shape[:-1])
        return real_sum(values, ordering, weights)

    monkeypatch.setattr(np.linalg, "slogdet", slogdet)
    monkeypatch.setattr(shapes, "_logdet_sum", logdet_sum)
    est = mc_normalizer(kind, g, o, shape, scale, RngStream(8), 5000)
    assert lead and set(lead) == {()}
    assert est.proposal[1] == ref_v
    assert est.value == pytest.approx(ref_value, rel=1e-12)


def test_pilot_that_raises_skips_its_candidate(monkeypatch):
    """A candidate whose pilot draws a block that is singular in floating
    point (NotPositiveDefinite out of the walk) is skipped as one whose
    weights are not finite is: here the one a plain run picks, and the
    estimate is that of the remaining candidates, bit for bit."""
    from graphwishart import verify
    from graphwishart.errors import NotPositiveDefinite

    g = _banded(20, 3)
    o = decompose(g)
    rng = np.random.default_rng(17)
    scale = random_qg(g, rng)
    shape = random_second_admissible(o, rng)
    cands = verify._gwishart_candidates(shape, o)
    chosen = mc_normalizer("II", g, o, shape, scale, RngStream(8),
                           2000).proposal[1]
    pilot = 10_000 + cands.index(chosen)
    real = verify._log_h_batch

    def estimate(fail):
        def log_h_batch(spec, target, rng, n):
            if rng.substream == pilot:
                return fail(n)
            return real(spec, target, rng, n)

        monkeypatch.setattr(verify, "_log_h_batch", log_h_batch)
        return mc_normalizer("II", g, o, shape, scale, RngStream(8), 2000)

    def singular(n):
        raise NotPositiveDefinite("drawn block is singular")

    raised = estimate(singular)
    not_finite = estimate(lambda n: np.full(n, -np.inf))
    assert raised.proposal[1] != chosen
    assert raised.proposal == not_finite.proposal
    assert raised.value == not_finite.value
    assert raised.std_error == not_finite.std_error


def test_mc_diagnostics():
    """The final run's Kish ESS is at most the draw count and the
    largest weight's share lies in (0, 1]; a target that equals a
    candidate gives equal weights, ESS n and share 1 / n."""
    g = _banded(20, 3)
    o = decompose(g)
    scale = project(np.eye(20) + 0.1 * g.edge_mask(), g)
    rng = np.random.default_rng(5)
    shape = random_first_admissible(o, rng)
    est = mc_normalizer("I", g, o, shape, scale, RngStream(9), 4000)
    assert 1.0 <= est.ess <= 4000
    assert 0.0 < est.max_weight_share <= 1.0
    same = mc_normalizer("I", g, o, canonical_shape("hyper", o, 3.0), scale,
                         RngStream(9), 4000)
    assert same.ess == pytest.approx(4000)
    assert same.max_weight_share == pytest.approx(1 / 4000)


def test_mc_normalizer_overflow_is_degenerate():
    """A normalizer beyond the float range (log 797.8 on banded r=60 at
    scale 50 I, hyper 3) raises DegenerateWeights with the log of the
    largest weight, and no RuntimeWarning on the way."""
    import warnings

    g = _banded(60, 3)
    o = decompose(g)
    shape = canonical_shape("hyper", o, 3.0)
    scale = project(50.0 * np.eye(60), g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateWeights) as info:
            mc_normalizer("I", g, o, shape, scale, RngStream(1), 1000)
    top = info.value.context["log_max_weight"]
    assert top == pytest.approx(log_gamma_I(shape, o)
                                + log_h(shape, scale, o))
    assert top > math.log(np.finfo(float).max)
