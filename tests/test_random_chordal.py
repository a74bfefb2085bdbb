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
from hypothesis import strategies as st

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
    homogeneous_structure,
    laplace,
    log_gamma_I,
    log_gamma_II,
    logdet_hat,
    logpdf,
    logpdf_f,
    mean_type1,
    mean_type2,
    parse_graph,
    phi,
    precision_of,
    sample,
    sample_base_wishart,
    sample_batch,
    sample_matrix_normal,
    split_blocks,
)
from graphwishart import cones, distributions, verify
from graphwishart import shapes as shapes_mod
from graphwishart.graphs import _class_tree
from graphwishart.shapes import shape_class, size_shift, step_exponents
from graphwishart.verify import check_mean426

from conftest import (
    FIG1_EDGES,
    G0_EDGES,
    chordal_graphs,
    homogeneous_graphs,
    nested_star,
    random_first_admissible,
    random_pg,
    random_qg,
    random_second_admissible,
)

SEED = 2024
DRAWS = 4
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


def _specs(spec):
    """Specs of all four families at one fixed scale: hyper shape on the
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
        out[family] = WishartSpec(g, shapes[side], scale, family, ordering=o)
    return g, o, out


def _draws(spec):
    """Draws of all four families of :func:`_specs` at one fixed seed."""
    g, o, specs = _specs(spec)
    return g, o, {family: sample_batch(s, RngStream(SEED, 1), DRAWS)
                  for family, s in specs.items()}


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


def _reference_walk(spec, rng, n):
    """The sampler walk written out one step at a time with the public
    samplers and the scale's regression on each step: the draws that
    ``sample_batch`` must give bit for bit (same random numbers in the
    same order, same factorizations of the same matrices)."""
    first = spec.family in ("type1", "inv_type1")
    precision = spec.family in ("type2", "inv_type1")
    pattern = spec.graph.pattern
    scale = spec.scale.data

    def slots(rows, cols):
        ri = np.asarray(rows, dtype=int) - 1
        return pattern.pos[ri[:, None], np.asarray(cols, dtype=int) - 1]

    def tril(vertices):
        sel = np.tri(len(vertices), dtype=bool)
        return slots(vertices, vertices)[sel], sel

    x = np.zeros((n, pattern.size))
    k = np.zeros_like(x)
    for (new, given), p in zip(spec.walk.steps, spec.exponents):
        if not new:
            continue
        t_cond, t_ratio = cones._regress(spec.scale.values, pattern.pos,
                                         new, given)
        x_given = x[:, slots(given, given)]
        wishart = sample_base_wishart(
            len(new), p, t_cond if first else np.linalg.inv(t_cond), rng, n)
        if first:
            cond, row, col = wishart, t_cond, x_given
        else:
            gi = np.asarray(given, dtype=int) - 1
            cond = np.linalg.inv(wishart)
            row, col = cond, scale[np.ix_(gi, gi)]
        ratio = sample_matrix_normal(t_ratio, row, col, rng, n)
        cross = ratio @ x_given
        x[:, slots(new, given)] = cross
        new_slots, sel = tril(new)
        x[:, new_slots] = (cond + cross @ ratio.swapaxes(-1, -2))[:, sel]
        if precision:
            cond_inv = np.linalg.inv(cond) if first else wishart
            lead = cond_inv @ ratio
            k[:, new_slots] += cond_inv[:, sel]
            k[:, slots(new, given)] -= lead
            given_slots, sel = tril(given)
            k[:, given_slots] += (ratio.swapaxes(-1, -2) @ lead)[:, sel]
    return cones._scatter(k if precision else x, pattern)


def _assert_walk_is_reference(spec):
    """``sample_batch`` equals the reference walk exactly, for one draw
    and for five (the second call runs on the cached step plan)."""
    for n in (1, 5):
        got = sample_batch(spec, RngStream(SEED, n), n)
        assert np.array_equal(got, _reference_walk(spec, RngStream(SEED, n),
                                                   n))


@given(spec=chordal_graphs())
@EXAMPLES
def test_walk_matches_reference_walk(spec):
    """All four families along the clique order, at random per-order
    shapes."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    lo = max(o.clique_sizes) / 2.0
    shapes = {"first": random_first_admissible(o, rng, lo=lo, hi=lo + 2.5),
              "second": random_second_admissible(o, rng)}
    for family in ("type1", "inv_type1", "type2", "inv_type2"):
        side = "first" if family in ("type1", "inv_type1") else "second"
        _assert_walk_is_reference(WishartSpec(g, shapes[side], scale, family))


@given(spec=homogeneous_graphs())
@EXAMPLES
def test_class_tree_walk_matches_reference_walk(spec):
    """The first side along the class tree: a uniform shape with the
    separator exponents (1) far below the clique exponents (r + 2) fails
    the clique order's separator equalities whenever the graph has two
    distinct separators, and is admissible on the tree.  The second side
    (sampled only along the clique order) runs on the same graphs."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    tree_shape = ShapeParam((g.vertex_count + 2.0,) * o.k,
                            (1.0,) * o.k_prime)
    for family in ("type1", "inv_type1"):
        s = WishartSpec(g, tree_shape, scale, family)
        assert s.walk is (s.hasse if o.k_prime > 1 else o)
        _assert_walk_is_reference(s)
    shape = random_second_admissible(o, rng)
    for family in ("type2", "inv_type2"):
        _assert_walk_is_reference(WishartSpec(g, shape, scale, family))


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
def test_packed_layout(spec):
    """A pattern matrix keeps its pattern entries as ``values``.  Its
    dense view is read-only, exactly symmetric and zero off the pattern,
    and building from it gives the same values.  The blockwise inverses
    are exactly symmetric."""
    g, o, specs = _specs(spec)
    x = specs["type1"].scale
    off = ~g.edge_mask()
    for y in (x, precision_of(x), mean_type2(specs["type2"])):
        d = y.data
        assert np.array_equal(type(y)(g, d).values, y.values)
        assert not d.flags.writeable and not y.values.flags.writeable
        assert np.array_equal(d, d.T)
        assert np.all(d[off] == 0.0)


@given(spec=chordal_graphs())
@EXAMPLES
def test_sample_rows_are_sample_batch_entries(spec):
    """``sample`` wraps the walk's packed rows: bit for bit the pattern
    entries of ``sample_batch`` at the same seed, in the family's cone
    type."""
    g, o, specs = _specs(spec)
    p = g.pattern
    for family, s in specs.items():
        batch = sample_batch(s, RngStream(SEED, 1), DRAWS)
        draws = sample(s, RngStream(SEED, 1), DRAWS)
        cls = IncompleteMatrix if family in ("type1", "inv_type2") \
            else SparsePrecision
        assert all(type(d) is cls for d in draws)
        assert np.array_equal([d.values for d in draws],
                              batch[:, p.rows, p.cols])


@given(spec=chordal_graphs())
@EXAMPLES
def test_walk_tally_is_log_h_of_its_draws(spec):
    """With step weights the walk draws the same store, bit for bit, on
    both sides, and its tally is log h of the store at an arbitrary
    shape.  Every step exponent here is at least 1; near 0 the dense
    store rounds the conditional block away and only the tally keeps
    it exact."""
    g, o, specs = _specs(spec)
    rng = np.random.default_rng(SEED)
    target = ShapeParam(rng.uniform(-3.0, 3.0, o.k),
                        rng.uniform(-3.0, 3.0, o.k_prime))
    for family in ("type1", "inv_type2"):
        s = specs[family]
        assert min(s.exponents) >= 1.0
        weights = shapes_mod._step_weights(target - s.shape, o)
        plain = distributions._walk(s, RngStream(SEED, 2), 20)
        store, tally = distributions._walk(s, RngStream(SEED, 2), 20,
                                           weights=weights)
        assert np.array_equal(store, plain)
        ref = shapes_mod._log_h(target - s.shape, plain, o)
        assert np.all(np.abs(tally - ref)
                      <= 1e-11 * np.maximum(1.0, np.abs(ref)))


@given(spec=st.one_of(chordal_graphs(), homogeneous_graphs()))
@EXAMPLES
def test_canonical_candidates_walk_the_clique_order(spec):
    """The walk's tally of log h is defined along a clique order; every
    proposal ``mc_normalizer`` can try, hyper on the first side and
    G-Wishart on the second, walks ``spec.ordering``, on class-tree
    graphs too."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    for kind, family, cands in (
            ("hyper", "type1", verify._hyper_candidates(
                random_first_admissible(o, rng), o)),
            ("gwishart", "inv_type2", verify._gwishart_candidates(
                random_second_admissible(o, rng), o))):
        for v in cands:
            s = WishartSpec(g, canonical_shape(kind, o, v), scale, family,
                            ordering=o)
            assert s.walk is s.ordering


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


@pytest.mark.parametrize("spec", [
    nested_star(3, 2), nested_star(2, 4), nested_star(5, 3),
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



@given(spec=homogeneous_graphs())
@EXAMPLES
def test_mean_type1_order_and_tree_agree(spec):
    """On a homogeneous graph, for shapes admissible both along the
    clique order and on the class tree, the closed-form mean (taken
    along the order) is the walk mean along the tree's steps."""
    g = parse_graph(spec)
    o = decompose(g)
    tree = homogeneous_structure(g)
    rng = np.random.default_rng(SEED)
    scale = random_qg(g, rng)
    lo = max(o.clique_sizes) / 2.0
    shapes = [canonical_shape("hyper", o, lo + 1.0)] + [
        random_first_admissible(o, rng, lo=lo, hi=lo + 2.5)
        for _ in range(10)]
    hits = 0
    for shape in shapes:
        cls = shape_class(shape, o, tree)
        if not (cls.in_a_p and cls.in_a_hom):
            continue
        hits += 1
        s = WishartSpec(g, shape, scale, "type1")
        coords = [cones._regress(scale.values, g.pattern.pos, new, given)
                  if new else None for new, given in tree.steps]
        got = distributions._walk_mean(
            tree, step_exponents(shape, tree, "first"), coords)
        ref = mean_type1(s).data[g.pattern.rows, g.pattern.cols]
        assert s.walk is o and _rel(got, ref) < 1e-10
    assert hits >= 1

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


def _f_terms_dense(o, terms):
    """The three log h terms of ``logpdf_f``, each a (shape, dense matrix)
    pair, by per-block ``slogdet``: minus the scale's, plus the sum's and
    the point's."""
    (s1, m1), (s2, m2), (s3, m3) = terms
    return -_log_h_dense(s1.alpha, s1.beta, m1, o) \
        + _log_h_dense(s2.alpha, s2.beta, m2, o) \
        + _log_h_dense(s3.alpha, s3.beta, m3, o)


@given(spec=chordal_graphs())
@EXAMPLES
def test_logpdf_f_first_kind_matches_dense(spec):
    """First kind, with a hyper shape_a and a per-order shape_b of the
    second side (shape_b - shape_a then admits the second side too): the
    log h terms at the scale, the sum and the point."""
    g = parse_graph(spec)
    o = decompose(g)
    rng = np.random.default_rng(SEED)
    a = canonical_shape("hyper", o, max(o.clique_sizes) / 2.0 + 1.0)
    b = random_second_admissible(o, rng)
    scale, point = random_qg(g, rng), random_qg(g, rng)
    ref = log_gamma_II(b - a, o) - log_gamma_I(a, o) - log_gamma_II(b, o) \
        + _f_terms_dense(o, ((b, scale.data), (b - a, scale.data + point.data),
                             (a + size_shift(o, -0.5, 1), point.data)))
    got = logpdf_f(g, a, b, scale, point)
    assert abs(got - ref) < 1e-9 * (1 + abs(ref))


def test_logpdf_f_second_kind_matches_dense():
    """Second kind on small graphs, with shape_b drawn on the second side
    and shape_a = shape_b plus a draw on the first side; draws whose
    shapes leave the admissible set (every draw on the 4-path) are
    skipped.  The log h terms are at the dense inverses of the scale,
    the sum and the point."""
    inv = np.linalg.inv
    done = 0
    for spec in ({"n": 2, "edges": [[1, 2]]},
                 {"n": 3, "edges": [[1, 2], [2, 3]]},
                 {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
                 {"n": 5, "edges": [[1, j] for j in range(2, 6)]},
                 {"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4], [3, 5],
                                    [4, 5]]},
                 {"n": 6, "edges": G0_EDGES}, nested_star(2, 2)):
        g = parse_graph(spec)
        o, hasse = decompose(g), _class_tree(g)
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            b = random_second_admissible(o, rng)
            a = b + random_first_admissible(o, rng, 5.0, 8.0)
            scale = SparsePrecision(g, random_pg(g, rng))
            point = SparsePrecision(g, random_pg(g, rng))
            try:
                got = logpdf_f(g, a, b, scale, point, "second")
            except ShapeNotAdmissible:
                continue
            ref = log_gamma_I(a - b, o, hasse) - log_gamma_I(a, o, hasse) \
                - log_gamma_II(b, o, hasse) + _f_terms_dense(o, (
                    (a, inv(scale.data)),
                    (a - b, inv(scale.data + point.data)),
                    (b + size_shift(o, 0.5, 1), inv(point.data))))
            assert abs(got - ref) < 1e-9 * (1 + abs(ref))
            done += 1
    assert done >= 50


@given(spec=chordal_graphs())
@EXAMPLES
def test_kernels_match_per_block_loops(spec):
    """The size-grouped kernels, on packed inputs, against per-block
    loops on the dense matrices, with random weights, on one matrix and
    on a stack of six.  They run at the module's chunk size, at 200
    bytes (a few draws or a few blocks per chunk) and at 8 bytes (one
    block of one draw per chunk)."""
    g = parse_graph(spec)
    o = decompose(g)
    p = g.pattern
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
                packed = data[..., p.rows, p.cols]
                ld = cones._logdet_sum(packed, o, weights)
                assert np.all(np.abs(ld - ld_ref) <=
                              1e-12 * (1 + np.abs(ld_ref)))
                assert _rel(cones._inverse_sum(packed, o, weights),
                            inv_ref[..., p.rows, p.cols]) < 1e-12
    assert list(ok_ref) == [True, True, False, True, True, True]
