import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from graphwishart import (
    IncompleteMatrix,
    NonNumeric,
    OutOfDomain,
    ShapeMismatch,
    ShapeParam,
    canonical_shape,
    decompose,
    enumerate_perfect_orders,
    homogeneous_structure,
    log_gamma_I,
    log_gamma_II,
    log_h,
    log_multigamma,
    parse_graph,
    project,
    shape_class,
)
from graphwishart.shapes import (
    realign_shape,
    step_exponents,
    steps_log_gamma,
)

from conftest import (
    TREE_ONLY_RULES,
    chordal_graphs,
    class_tree_only_spec,
    random_first_admissible,
    random_second_admissible,
)

LOG_PI = math.log(math.pi)


def _cross_formula_gaps(graphs, draw, log_gamma, side, seed):
    """Per-order log Gamma against the class-tree step sum, on 20
    shapes per graph that are admissible both ways."""
    rng = np.random.default_rng(seed)
    gaps = []
    for g in graphs:
        ordering = decompose(g)
        tree = homogeneous_structure(g)
        hits = trials = 0
        while hits < 20:
            trials += 1
            assert trials < 2000
            shape = draw(ordering, rng)
            info = shape_class(shape, ordering)
            both = (info.in_a_p and info.in_a_hom) if side == "first" \
                else (info.in_b_p and info.in_b_hom)
            if not both:
                continue
            tree_sum = steps_log_gamma(
                tree.steps, step_exponents(shape, tree, side))
            gaps.append(abs(log_gamma(shape, ordering) - tree_sum))
            hits += 1
    return gaps


def _per_order_reference(shape, o, tol=1e-12):
    """Per-order flags, S2 slacks and step exponents of a shape, written
    out one separator at a time: delta2 and gamma2 from S2's
    occurrences, every other separator's equality on its own."""
    alpha, beta, cs = shape.alpha, shape.beta, o.clique_sizes
    first = o.sep_index[:1]
    s2 = len(o.steps[0][0])
    d2 = sum(sum(alpha[j] for j in o.occurrences[i]) -
             o.multiplicity[i] * beta[i] for i in first)
    g2 = sum(sum(alpha[j] - beta[i] + (cs[j] - s2) / 2.0
                 for j in o.occurrences[i]) for i in first)
    ss = (0,) + o.separator_sizes
    others = [i for i in range(o.k_prime) if i not in first]
    eq_a = all(abs(sum(alpha[j] for j in o.occurrences[i]) -
                   o.multiplicity[i] * beta[i]) <= tol for i in others)
    eq_b = all(abs(sum(alpha[j] + (cs[j] - ss[j]) / 2.0
                       for j in o.occurrences[i]) -
                   o.multiplicity[i] * beta[i]) <= tol for i in others)
    exps_a = (alpha[0] + d2,) + tuple(
        a - len(given) / 2.0 for a, (_, given) in zip(alpha, o.steps[1:]))
    exps_b = (-alpha[0] - (cs[0] - s2) / 2.0 - g2,) + \
        tuple(-a for a in alpha)

    def steps_ok(exps):
        return all(p > (len(new) - 1) / 2.0 + tol
                   for (new, _), p in zip(o.steps, exps) if new)

    return {"in_a_p": eq_a and steps_ok(exps_a),
            "in_b_p": eq_b and steps_ok(exps_b),
            "delta2": d2 if o.separators else None,
            "gamma2": g2 if o.separators else None,
            "first": exps_a, "second": exps_b}


def _star(n):
    return parse_graph({"n": n, "edges": [[1, j] for j in range(2, n + 1)]})


class TestLogMultigamma:

    def test_scalar_case(self):
        assert log_multigamma(1, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_dim_two(self):
        assert log_multigamma(2, 1.0) == pytest.approx(LOG_PI,
                                                       abs=1e-14)

    def test_dim_three(self):
        expect = math.log(math.pi ** 2 / 2)
        assert log_multigamma(3, 2.0) == pytest.approx(expect,
                                                       abs=1e-13)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            log_multigamma(3, 0.9)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_argument_not_finite(self, p):
        with pytest.raises(OutOfDomain) as err:
            log_multigamma(2, p)
        assert err.value.context["p"] is p

    def test_recursion_identities(self):
        # reduction identities for the ratio of two multivariate
        # gamma values at shifted and unshifted arguments
        for c in range(2, 7):
            for s in range(1, c):
                for a in (0.6 * c, 0.5 * c + 1.3, c):
                    lhs = log_multigamma(c, a) - log_multigamma(s, a)
                    rhs = ((c - s) * s / 2.0) * LOG_PI + \
                        log_multigamma(c - s, a - s / 2.0)
                    assert lhs == pytest.approx(rhs, abs=1e-12)
                    lhs2 = log_multigamma(c, a + s / 2.0) - \
                        log_multigamma(s, a + s / 2.0)
                    rhs2 = ((c - s) * s / 2.0) * LOG_PI + \
                        log_multigamma(c - s, a)
                    assert lhs2 == pytest.approx(rhs2, abs=1e-12)


class TestLogH:

    def test_identity_scale(self, a4, a4_ord):
        shape = ShapeParam((1.0, 2.0, 3.0), (0.5, 0.25))
        x = project(np.eye(4), a4)
        assert log_h(shape, x, a4_ord) == pytest.approx(0.0)

    def test_hand_value(self, a4, a4_ord):
        m = np.eye(4)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            m[i, j] = m[j, i] = 0.5
        shape = ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0))
        x = IncompleteMatrix(a4, m)
        assert log_h(shape, x, a4_ord) == pytest.approx(
            3 * math.log(0.75), abs=1e-13)


class TestCanonicalShape:

    def test_hyper_on_path(self, a4_ord):
        s = canonical_shape("hyper", a4_ord, 1.0)
        assert s.alpha == (1.0, 1.0, 1.0)
        assert s.beta == (1.0, 1.0)

    def test_gwishart_on_path(self, a4_ord):
        s = canonical_shape("gwishart", a4_ord, 2.0)
        assert s.alpha == (-1.5, -1.5, -1.5)
        assert s.beta == (-1.0, -1.0)

    def test_hyper_domain(self, a4_ord):
        with pytest.raises(OutOfDomain):
            canonical_shape("hyper", a4_ord, 0.25)


class TestShapeClass:

    def test_first_family_membership(self, a4_ord):
        info = shape_class(ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0)),
                           a4_ord)
        assert info.in_a_p
        assert info.delta2 == pytest.approx(0.0)

    def test_second_family_membership(self, a4_ord):
        info = shape_class(ShapeParam((-1.0, -1.0, -1.0),
                                      (1.0, -0.5)), a4_ord)
        assert info.in_b_p

    def test_broken_equality_rejected(self, a4_ord):
        info = shape_class(ShapeParam((2.0, 2.0, 2.0), (1.0, 1.0)),
                           a4_ord)
        assert not info.in_a_p

    @pytest.mark.parametrize("alpha, beta, want", [
        ((3.0, 3.0 + 4e-15, 3.0), (3.0, 3.0), True),
        ((3.0, 3.0, 3.0), (3.0, 3.0 - 4e-15), True),
        ((3.0, 3.0 + 1e-9, 3.0), (3.0, 3.0), False),
        ((3.0, 3.0, 3.0), (3.0, 2.0), False),
        ((0.5, 0.5, 0.5), (0.5, 0.5), False),
    ], ids=["alpha-within", "beta-within", "alpha-apart", "beta-apart",
            "too-small"])
    def test_a1_equalities_hold_within_the_tolerance(self, a4_ord, alpha,
                                                     beta, want):
        """A_1 is one exponent p > (max clique size - 1) / 2 on every
        block; the equalities hold within 1e-12, as in_b1's do."""
        assert shape_class(ShapeParam(alpha, beta), a4_ord).in_a1 is want

    def test_homogeneous_membership(self, g0, g0_ord):
        alpha = tuple(1.0 if len(c) == 2 else 2.0
                      for c in g0_ord.cliques)
        info = shape_class(ShapeParam(alpha, (1.0, 1.0)), g0_ord)
        assert info.in_a_hom

    def test_hyper_grid_inside_every_order(self, a4, a4_ord):
        for p in (0.6, 1.0, 1.7, 3.2, 5.0):
            s = canonical_shape("hyper", a4_ord, p)
            for o in enumerate_perfect_orders(a4):
                s2 = realign_shape(s, a4_ord, o)
                assert shape_class(s2, o).in_a_p

    @given(spec=chordal_graphs(max_r=25), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_per_order_flags_match_reference(self, spec, seed):
        """shape_class and step_exponents against the per-separator
        formulas: the same flags, and bit for bit the same S2 slacks and
        clique-order exponents, on admissible shapes, shapes that break
        one equality by 1e-9 or keep it within 1e-14, and free ones."""
        o = decompose(parse_graph(spec))
        rng = np.random.default_rng(seed)
        shapes = [canonical_shape("hyper", o, max(o.clique_sizes)),
                  canonical_shape("gwishart", o, 3.0)]
        for draw in (random_first_admissible, random_second_admissible):
            base = draw(o, rng)
            shapes.append(base)
            for eps in (1e-9, 1e-14):
                beta = list(base.beta)
                if beta:
                    beta[int(rng.integers(len(beta)))] += eps
                shapes.append(ShapeParam(base.alpha, tuple(beta)))
        shapes += [ShapeParam(tuple(rng.uniform(-4, 4, o.k)),
                              tuple(rng.uniform(-4, 4, o.k_prime)))
                   for _ in range(4)]
        for shape in shapes:
            ref = _per_order_reference(shape, o)
            info = shape_class(shape, o)
            assert (info.in_a_p, info.in_b_p, info.delta2, info.gamma2) \
                == (ref["in_a_p"], ref["in_b_p"], ref["delta2"],
                    ref["gamma2"])
            for side in ("first", "second"):
                assert step_exponents(shape, o, side) == ref[side]

    def test_gwishart_grid_inside_every_order(self, a4, a4_ord):
        for d in (0.5, 1.0, 2.0, 3.5, 5.0):
            s = canonical_shape("gwishart", a4_ord, d)
            for o in enumerate_perfect_orders(a4):
                s2 = realign_shape(s, a4_ord, o)
                assert shape_class(s2, o).in_b_p


class TestLogGammaI:

    def test_path_all_ones(self, a4_ord):
        shape = ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0))
        assert log_gamma_I(shape, a4_ord) == pytest.approx(
            3 * LOG_PI, abs=1e-14)

    def test_complete_graph_degenerate(self, k2):
        ordering = decompose(k2)
        shape = ShapeParam((1.5,), ())
        assert log_gamma_I(shape, ordering) == pytest.approx(
            math.log(math.pi / 2), abs=1e-13)

    def test_cross_formula_agreement(self, g0, fig1):
        gaps = _cross_formula_gaps((g0, fig1, _star(8)),
                                   random_first_admissible, log_gamma_I,
                                   "first", 5)
        assert len(gaps) == 60 and max(gaps) < 1e-10

    def test_order_invariance(self, a4, a4_ord):
        shape = canonical_shape("hyper", a4_ord, 1.4)
        vals = []
        for o in enumerate_perfect_orders(a4):
            s2 = realign_shape(shape, a4_ord, o)
            vals.append(log_gamma_I(s2, o))
        assert max(vals) - min(vals) < 1e-10


class TestLogGammaII:

    def test_scalar(self):
        g = decompose(
            __import__("graphwishart").parse_graph(
                {"n": 1, "edges": []}))
        shape = ShapeParam((-2.0,), ())
        assert log_gamma_II(shape, g) == pytest.approx(0.0, abs=1e-14)

    def test_gwishart_reduction(self, a4_ord):
        delta = 2.0
        shape = canonical_shape("gwishart", a4_ord, delta)
        expect = 0.0
        for c in a4_ord.clique_sizes:
            expect += log_multigamma(c, (delta + c - 1) / 2.0)
        for s in a4_ord.separator_sizes:
            expect -= log_multigamma(s, (delta + s - 1) / 2.0)
        assert log_gamma_II(shape, a4_ord) == pytest.approx(
            expect, abs=1e-12)

    def test_cross_formula_agreement(self, g0, fig1):
        gaps = _cross_formula_gaps((g0, fig1, _star(8)),
                                   random_second_admissible, log_gamma_II,
                                   "second", 9)
        assert len(gaps) == 60 and max(gaps) < 1e-10

    def test_scalar_gamma_consistency(self, k2):
        ordering = decompose(k2)
        shape = ShapeParam((-2.5,), ())
        assert log_gamma_II(shape, ordering) == pytest.approx(
            float(log_multigamma(2, 2.5)), abs=1e-13)


def test_shape_arithmetic():
    a = ShapeParam((1.0, 2.0), (0.5,))
    b = ShapeParam((0.5, 0.5), (0.25,))
    assert (a + b).alpha == (1.5, 2.5)
    assert (a - b).beta == (0.25,)
    assert (-a).alpha == (-1.0, -2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"],
                         ids=["nan", "inf", "string"])
@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_shape_exponent_must_be_finite_real(bad, field):
    good = {"alpha": (1.0, 2.0), "beta": (0.5,)}
    values = dict(good, **{field: good[field][:-1] + (bad,)})
    with pytest.raises(NonNumeric) as info:
        ShapeParam(values["alpha"], values["beta"])
    assert info.value.context == {"field": field,
                                  "index": len(good[field]) - 1}


def test_log_multigamma_against_scipy():
    for r in (1, 2, 3, 4):
        for p in (2.0, 3.7, 5.5):
            direct = (r * (r - 1) / 4.0) * LOG_PI + sum(
                gammaln(p - j / 2.0) for j in range(r))
            assert log_multigamma(r, p) == pytest.approx(
                direct, abs=1e-12)


def test_realign_refuses_an_order_of_another_graph(a4_ord):
    """Every clique and separator of the 3-path is one of the 4-path
    too, so only the graph tells the two orders apart."""
    path3 = decompose(parse_graph({"n": 3, "edges": [[1, 2], [2, 3]]}))
    shape = ShapeParam((3.0, 2.0, 2.0), (2.0, 2.0))
    with pytest.raises(ShapeMismatch, match="different graphs"):
        realign_shape(shape, a4_ord, path3)


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                         ids=["star-3x2", "star-2x3"])
def test_class_tree_reading_does_not_depend_on_the_order(hubs, leaves,
                                                         family):
    """A shape only the class tree admits, realigned to each of the
    first 200 perfect orders of its nested star: the tree reads it in
    the graph's own clique order, so the normalizer and the tree flags
    of shape_class are those on that order."""
    spec = class_tree_only_spec(hubs, leaves, family,
                                *TREE_ONLY_RULES[family])
    o = spec.ordering
    log_gamma = log_gamma_I if family == "type1" else log_gamma_II
    want = log_gamma(spec.shape, o)
    base = shape_class(spec.shape, o)
    flags = (base.in_a_hom, base.in_b_hom)
    assert flags[family == "type2"] is True
    for p in enumerate_perfect_orders(spec.graph)[:200]:
        shape = realign_shape(spec.shape, o, p)
        assert abs(log_gamma(shape, p) - want) <= 1e-12 * (1 + abs(want))
        cls = shape_class(shape, p)
        assert (cls.in_a_hom, cls.in_b_hom) == flags
