"""Sampler, block coordinates, cone algebra and densities on random
connected chordal graphs.

Every sampler example uses the same scale seed, draw seed and shape
family, so type1 and inv_type1 (and inv_type2 and type2) walk the same
steps with the same random numbers: the draws of one family of each pair
are the sparse inverses of the completions of the other's.  The cone
and density examples compare each blockwise formula with plain dense
linear algebra.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from graphwishart import (
    IncompleteMatrix,
    RngStream,
    ShapeNotAdmissible,
    ShapeParam,
    SparsePrecision,
    WishartSpec,
    assemble_blocks,
    canonical_shape,
    complete,
    decompose,
    laplace,
    logdet_hat,
    logpdf,
    mean_type1,
    mean_type2,
    parse_graph,
    phi,
    precision_of,
    sample_batch,
    split_blocks,
)
from graphwishart import cones, distributions, verify
from graphwishart.shapes import size_shift
from graphwishart.verify import check_mean426

from conftest import (
    FIG1_EDGES,
    G0_EDGES,
    chordal_graphs,
    random_first_admissible,
    random_pg,
    random_qg,
    random_second_admissible,
)

SEED = 2024
DRAWS = 4
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


def _draws(spec):
    """Draws of all four families at one fixed seed: hyper shape on the
    first side, G-Wishart (delta = 3) on the second."""
    g = parse_graph(spec)
    o = decompose(g)
    scale = random_qg(g, np.random.default_rng(SEED))
    shapes = {"first": canonical_shape("hyper", o,
                                       max(o.clique_sizes) / 2.0 + 1.0),
              "second": canonical_shape("gwishart", o, 3.0)}
    out = {}
    for family in ("type1", "inv_type1", "type2", "inv_type2"):
        side = "first" if family in ("type1", "inv_type1") else "second"
        s = WishartSpec(g, shapes[side], scale, family, ordering=o)
        out[family] = sample_batch(s, RngStream(SEED, 1), DRAWS)
    return g, o, out


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _per_block(data, o, weights):
    """Plain loops over ``o.blocks``, one block at a time: the reference
    for the size-grouped kernels of ``cones``."""
    ld = np.zeros(data.shape[:-2])
    ok = np.ones(data.shape[:-2], dtype=bool)
    inv = np.zeros(data.shape)
    for a, w in zip(o.blocks, weights):
        ix = np.asarray(a) - 1
        block = data[..., ix[:, None], ix]
        sign, val = np.linalg.slogdet(block)
        ld += w * val
        ok &= sign > 0
        inv[..., ix[:, None], ix] += w * np.linalg.inv(block)
    return ld, ok, inv


@given(spec=chordal_graphs())
@EXAMPLES
def test_step_precision_matches_clique_form(spec):
    g, o, draws = _draws(spec)
    for x_family, k_family in (("type1", "inv_type1"),
                               ("inv_type2", "type2")):
        for x, k in zip(draws[x_family], draws[k_family]):
            ref = precision_of(IncompleteMatrix(g, x)).data
            assert _rel(k, ref) < 1e-10


@given(spec=chordal_graphs())
@EXAMPLES
def test_draws_symmetric_and_zero_off_pattern(spec):
    g, _, draws = _draws(spec)
    off = ~g.edge_mask()
    for batch in draws.values():
        assert np.array_equal(batch, np.swapaxes(batch, 1, 2))
        assert not np.any(batch[:, off])


@given(spec=chordal_graphs())
@EXAMPLES
def test_blocks_roundtrip(spec):
    g, o, draws = _draws(spec)
    for x in draws["type1"]:
        back = assemble_blocks(split_blocks(IncompleteMatrix(g, x), o))
        assert _rel(back.data, x) < 1e-10


@given(spec=chordal_graphs())
@EXAMPLES
def test_cone_algebra_matches_dense(spec):
    g = parse_graph(spec)
    x = random_qg(g, np.random.default_rng(SEED))
    k = precision_of(x)
    hat = complete(x)
    assert _rel(hat, np.linalg.inv(k.data)) < 1e-10
    assert _rel(phi(k).data, x.data) < 1e-10
    sign, dense = np.linalg.slogdet(hat)
    assert sign > 0 and abs(logdet_hat(x) - dense) < 1e-10 * (1 + abs(dense))


def _first_shape(o, rng):
    """Random first-side shape with every clique exponent above half the
    largest clique size, so every step is admissible."""
    lo = max(o.clique_sizes) / 2.0
    return random_first_admissible(o, rng, lo=lo, hi=lo + 2.5)


def _outer(hat, block):
    """hat[:, A] hat[A, A]^-1 hat[A, :]: the completion minus its
    zero-padded Schur complement on A."""
    ix = np.asarray(block) - 1
    return hat[:, ix] @ np.linalg.solve(hat[np.ix_(ix, ix)], hat[ix, :])


def _weighted_outer(hat, o, shape):
    """Dense sum of alpha_j times the term of clique j, minus beta_i
    times the term of separator i at each of its occurrences."""
    ref = sum(a * _outer(hat, c) for a, c in zip(shape.alpha, o.cliques))
    for j, sep in enumerate(o.separators):
        ref = ref - shape.beta[o.sep_index[j]] * _outer(hat, sep)
    return ref


@given(spec=chordal_graphs())
@EXAMPLES
def test_mean_type1_matches_dense(spec):
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    shape = _first_shape(o, rng)
    hat = np.linalg.inv(precision_of(scale).data)
    ref = _weighted_outer(hat, o, shape)
    got = mean_type1(WishartSpec(g, shape, scale, "type1")).data
    assert _rel(got, ref * g.edge_mask()) < 1e-10


def _nested_star(hubs, leaves):
    """Root 1 joined to every vertex, each hub joined to its leaves."""
    edges, v = [], 2
    for _ in range(hubs):
        hub, v = v, v + 1
        edges.append([1, hub])
        for _ in range(leaves):
            edges += [[1, v], [hub, v]]
            v += 1
    return {"n": v - 1, "edges": edges}


@pytest.mark.parametrize("spec", [
    _nested_star(3, 2), _nested_star(2, 4), _nested_star(5, 3),
    {"n": 6, "edges": G0_EDGES}, {"n": 7, "edges": FIG1_EDGES}])
def test_mean_type1_on_class_tree_matches_dense(spec):
    """Shapes admissible only through the class tree: the mean is the
    fill along the tree, the reference the clique/separator sum."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    hat = np.linalg.inv(precision_of(scale).data)
    shapes = [ShapeParam((2.0,) * o.k, (1.0,) * o.k_prime)] + [
        ShapeParam(tuple(rng.uniform(1.5, 3.0, o.k)),
                   tuple(rng.uniform(0.3, 2.0, o.k_prime)))
        for _ in range(30)]
    hits = 0
    for shape in shapes:
        try:
            s = WishartSpec(g, shape, scale, "type1")
        except ShapeNotAdmissible:
            continue
        if s.walk is not s.hasse:
            continue
        hits += 1
        ref = _weighted_outer(hat, o, shape)
        assert _rel(mean_type1(s).data, ref * g.edge_mask()) < 1e-10
    assert hits >= 5


@given(spec=chordal_graphs())
@EXAMPLES
def test_mean426_fill_matches_dense(spec):
    """The per-draw fill inside check_mean426 against the dense weighted
    sum at the shifted shape, on the completions of the inverse draws."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    shape = random_second_admissible(o, rng)
    s = WishartSpec(g, shape, scale, "type2")
    fills = []

    def record(*args):
        fills.append(distributions._walk_mean(*args))
        return fills[-1]

    with mock.patch.object(verify, "_walk_mean", record):
        check_mean426(s, RngStream(SEED, 1), DRAWS)
    draws = sample_batch(WishartSpec(g, shape, scale, "inv_type2"),
                         RngStream(SEED, 1), DRAWS)
    shifted = shape + size_shift(o, 0.5, 1)
    pattern = g.pattern
    assert len(fills) == 1 and fills[0].shape == (DRAWS, pattern.size)
    for got, x in zip(fills[0], draws):
        ref = _weighted_outer(complete(IncompleteMatrix(g, x)), o, shifted)
        assert _rel(got, ref[pattern.rows, pattern.cols]) < 1e-10


@given(spec=chordal_graphs())
@EXAMPLES
def test_mean_type2_matches_per_occurrence_sum(spec):
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    theta = random_pg(g, rng)
    shape = random_second_admissible(o, rng)

    def pad_inv(block):
        ix = np.asarray(block) - 1
        out = np.zeros_like(theta)
        out[np.ix_(ix, ix)] = np.linalg.inv(theta[np.ix_(ix, ix)])
        return out

    ref = -sum(a * pad_inv(c) for a, c in zip(shape.alpha, o.cliques))
    for j, sep in enumerate(o.separators):
        ref = ref + shape.beta[o.sep_index[j]] * pad_inv(sep)
    got = mean_type2(WishartSpec(g, shape, SparsePrecision(g, theta),
                                 "type2")).data
    assert _rel(got, ref) < 1e-10


@given(spec=chordal_graphs())
@EXAMPLES
def test_means_are_laplace_gradients(spec):
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    specs = (WishartSpec(g, _first_shape(o, rng), scale, "type1"),
             WishartSpec(g, random_second_admissible(o, rng), scale,
                         "type2"))
    h = rng.uniform(-1.0, 1.0, scale.data.shape)
    h = (h + h.T) * g.edge_mask()
    h /= np.linalg.norm(h)
    eps = 1e-5
    for s, mean in zip(specs, (mean_type1, mean_type2)):
        fd = (laplace(s, eps * h) - laplace(s, -eps * h)) / (2 * eps)
        pairing = float(np.sum(mean(s).data * h))
        assert abs(fd - pairing) < 1e-6 * (1 + abs(pairing))


def _log_h_dense(alpha, beta, m, o):
    def ld(block):
        ix = np.asarray(block) - 1
        return np.linalg.slogdet(m[np.ix_(ix, ix)])[1]
    return sum(a * ld(c) for a, c in zip(alpha, o.cliques)) - sum(
        nu * b * ld(s) for nu, b, s in
        zip(o.multiplicity, beta, o.distinct_separators))


def _logpdf_dense(spec, point):
    """The density with dense inverses and pairings in place of the
    blockwise ones."""
    o, mask = spec.ordering, spec.graph.edge_mask()
    incomplete = spec.family in ("type1", "inv_type2")
    x = point.data if incomplete else np.linalg.inv(point.data) * mask
    shift = -0.5 if incomplete else 0.5
    if spec.family in ("type1", "inv_type1"):
        pair = np.sum(x * np.linalg.inv(complete(spec.scale)) * mask)
    elif spec.family == "inv_type2":
        pair = np.sum(spec.scale.data * np.linalg.inv(complete(point)) *
                      mask)
    else:
        pair = np.sum(spec.scale.data * point.data)
    shape = spec.shape
    return _log_h_dense(shape.alpha, shape.beta, x, o) - spec.log_gamma \
        - _log_h_dense(shape.alpha, shape.beta, spec.scale.data, o) \
        - pair + _log_h_dense(
            [shift * (len(c) + 1) for c in o.cliques],
            [shift * (len(t) + 1) for t in o.distinct_separators], x, o)


@given(spec=chordal_graphs())
@EXAMPLES
def test_logpdf_matches_dense(spec):
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    shapes = {"first": _first_shape(o, rng),
              "second": random_second_admissible(o, rng)}
    for family in ("type1", "inv_type1", "type2", "inv_type2"):
        side = "first" if family in ("type1", "inv_type1") else "second"
        s = WishartSpec(g, shapes[side], scale, family)
        point = random_qg(g, rng) if family in ("type1", "inv_type2") \
            else SparsePrecision(g, random_pg(g, rng))
        ref = _logpdf_dense(s, point)
        assert abs(logpdf(s, point) - ref) < 1e-9 * (1 + abs(ref))


@given(spec=chordal_graphs())
@EXAMPLES
def test_kernels_match_per_block_loops(spec):
    """The size-grouped kernels against per-block loops, with random
    weights, on one matrix and on a stack of six.  They run at the
    module's chunk size, at 200 bytes (a few draws or a few blocks per
    chunk) and at 8 bytes (one block of one draw per chunk)."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    r = g.vertex_count
    a = rng.standard_normal((6, r, r + 2))
    stack = a @ np.swapaxes(a, 1, 2) / (r + 2) + 0.5 * np.eye(r)
    # Draw 2 gets the block diag(-1, rest) on every block holding the
    # first vertex of the first clique: a negative determinant there.
    v = o.cliques[0][0] - 1
    stack[2, v, :] = stack[2, :, v] = 0.0
    stack[2, v, v] = -1.0
    weights = rng.standard_normal(len(o.blocks))
    for chunk in (cones._CHUNK_BYTES, 200, 8):
        with mock.patch.object(cones, "_CHUNK_BYTES", chunk):
            for data in (stack[0], stack):
                ld_ref, ok_ref, inv_ref = _per_block(data, o, weights)
                ld, ok = cones._logdet_sum(data, o, weights)
                assert np.array_equal(ok, ok_ref)
                assert np.all(np.abs(ld - ld_ref) <=
                              1e-12 * (1 + np.abs(ld_ref)))
                assert _rel(cones._inverse_sum(data, o, weights),
                            inv_ref) < 1e-12
    assert list(ok_ref) == [True, True, False, True, True, True]
