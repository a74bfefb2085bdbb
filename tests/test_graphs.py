import dataclasses
import hashlib
import time
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwishart import graphs
from graphwishart import (
    InternalInconsistency,
    MalformedInput,
    NotChordal,
    NotConnected,
    NotHomogeneous,
    ShapeParam,
    TooManyCliques,
    decompose,
    enumerate_perfect_orders,
    hasse_exponents,
    homogeneous_structure,
    order_signature,
    parse_graph,
)

from conftest import (
    G0_EDGES,
    chordal_graphs,
    homogeneous_graphs,
    nested_star,
)


class TestParseGraph:

    def test_path_graph_valid(self, a4):
        assert a4.vertex_count == 4
        assert a4.has_edge(1, 2) and a4.has_edge(3, 4)
        assert not a4.has_edge(1, 3)

    def test_complete_graph_valid(self, k3):
        assert k3.vertex_count == 3
        assert len(k3.edges) == 3

    def test_four_cycle_rejected(self):
        with pytest.raises(NotChordal) as info:
            parse_graph({"n": 4,
                         "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
        # the witness is a chordless cycle of length at least 4
        cycle = info.value.context.get("cycle")
        assert cycle is not None and len(cycle) >= 4

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            parse_graph({"n": 4, "edges": [[1, 2], [3, 4]]})

    def test_too_few_edges_fail_fast(self):
        # 10**12 vertices: building the adjacency would never finish
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NotConnected):
                parse_graph({"n": 10 ** 12, "edges": [[1, 2]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 100_000

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph({"n": 2, "edges": [[1, 1], [1, 2]]})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph({"n": 2, "edges": [[1, 2], [2, 1]]})

    def test_out_of_range_label_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph({"n": 3, "edges": [[1, 2], [2, 5]]})


class TestPattern:

    def test_mask_is_cached_and_read_only(self, g0):
        mask = g0.edge_mask()
        assert mask is g0.edge_mask()
        with pytest.raises(ValueError):
            mask[0, 0] = False
        assert mask[0, 0]

    def test_equal_graphs_compare_equal(self, a4):
        spec = {"n": 4, "edges": [[3, 4], [1, 2], [2, 3]]}
        fresh, used = parse_graph(spec), parse_graph(spec)
        assert used.pattern.pos.shape == (4, 4)
        decompose(used)
        with pytest.raises(NotHomogeneous):
            homogeneous_structure(used)
        assert fresh == used == a4
        assert hash(fresh) == hash(used) == hash(a4)
        tree = parse_graph({"n": 3, "edges": [[1, 2], [1, 3]]})
        other = parse_graph({"n": 3, "edges": [[1, 3], [1, 2]]})
        homogeneous_structure(tree)
        assert tree == other and hash(tree) == hash(other)

    def test_slots_cover_the_pattern(self, fig1):
        p = fig1.pattern
        r = fig1.vertex_count
        assert p.size == r + len(fig1.edges)
        assert np.array_equal(p.pos >= 0, fig1.edge_mask())
        assert np.array_equal(p.pos, p.pos.T)
        assert np.array_equal(p.pos[p.rows, p.cols], np.arange(p.size))
        assert np.all(p.rows >= p.cols)


class TestStructureCache:
    """The clique order and class tree are computed once per graph, from
    the search order that the chordality test already ran."""

    def test_decompose_is_cached(self, g0):
        assert decompose(g0) is decompose(g0)
        assert homogeneous_structure(g0) is homogeneous_structure(g0)

    def test_each_structure_is_built_once(self, monkeypatch):
        counts = {}

        def counting(name):
            original = getattr(graphs, name)

            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)
            monkeypatch.setattr(graphs, name, wrapper)

        for name in ("_mcs_order", "_decompose", "_build_class_tree"):
            counting(name)
        g = parse_graph({"n": 6, "edges": G0_EDGES})
        for _ in range(3):
            decompose(g)
            homogeneous_structure(g)
            enumerate_perfect_orders(g)
        assert counts == {"_mcs_order": 1, "_decompose": 1,
                          "_build_class_tree": 1}

    def test_not_homogeneous_raises_every_time(self, monkeypatch):
        g = parse_graph({"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]})
        calls = []
        build = graphs._build_class_tree
        monkeypatch.setattr(graphs, "_build_class_tree",
                            lambda g: calls.append(g) or build(g))
        raised = []
        for _ in range(3):
            with pytest.raises(NotHomogeneous) as info:
                homogeneous_structure(g)
            raised.append(info.value)
        assert len(calls) == 1
        assert len({id(e) for e in raised}) == 3
        assert graphs._class_tree(g) is None


class TestDecompose:

    def test_path_graph(self, a4_ord):
        assert a4_ord.cliques == ((1, 2), (2, 3), (3, 4))
        assert a4_ord.separators == ((2,), (3,))
        assert a4_ord.multiplicity == (1, 1)

    def test_star_of_triangles(self, g0_ord):
        assert a_sorted(g0_ord.cliques) == [(1, 2, 3), (1, 2, 4),
                                            (1, 2, 5), (1, 6)]
        seps = dict(zip(g0_ord.distinct_separators,
                        g0_ord.multiplicity))
        assert seps == {(1, 2): 2, (1,): 1}

    def test_complete_graph(self, k3):
        ordering = decompose(k3)
        assert ordering.cliques == ((1, 2, 3),)
        assert ordering.separators == ()
        assert ordering.k_prime == 0

    def test_histories_and_residuals(self, a4_ord):
        assert a4_ord.residuals == ((1, 2), (3,), (4,))

    def test_deterministic(self, a4):
        assert decompose(a4) == decompose(a4)


def a_sorted(cliques):
    return sorted(cliques)


class TestEnumeratePerfectOrders:

    def test_path_graph_count(self, a4):
        orders = enumerate_perfect_orders(a4)
        assert len(orders) == 4
        # the middle clique never comes last
        for o in orders:
            assert o.cliques[-1] != (2, 3)

    def test_star_count(self, g0):
        assert len(enumerate_perfect_orders(g0)) == 24

    def test_complete_graph(self, k3):
        assert len(enumerate_perfect_orders(k3)) == 1

    def test_limit_guard(self, g0):
        with pytest.raises(TooManyCliques):
            enumerate_perfect_orders(g0, limit=3)

    def test_multiplicity_invariant_across_orders(self, a4, g0):
        for g in (a4, g0):
            base = None
            for o in enumerate_perfect_orders(g):
                seps = dict(zip(o.distinct_separators,
                                o.multiplicity))
                assert sum(o.multiplicity) == o.k - 1
                if base is None:
                    base = seps
                else:
                    assert seps == base

    def test_signature_dedup(self, a4):
        sigs = {order_signature(o)
                for o in enumerate_perfect_orders(a4)}
        # the two reversals share the separator signature structure
        assert 1 <= len(sigs) <= 4


class TestHomogeneousStructure:

    def test_path_graph_not_homogeneous(self, a4):
        with pytest.raises(NotHomogeneous):
            homogeneous_structure(a4)

    def test_complete_graph_single_node(self, k3):
        tree = homogeneous_structure(k3)
        assert tree.node_count == 1
        assert tree.classes == ((1, 2, 3),)
        assert tree.parent == (-1,)

    def test_seven_vertex_example(self, fig1):
        tree = homogeneous_structure(fig1)
        classes = set(tree.classes)
        assert (3, 7) in classes
        singles = {(1,), (2,), (4,), (5,), (6,)}
        assert singles <= classes
        root_class = tree.classes[tree.root]
        assert root_class == (1,)

    def test_tree_shape_counts(self, g0, fig1):
        for g in (g0, fig1):
            tree = homogeneous_structure(g)
            ordering = decompose(g)
            leaves = [u for u in range(tree.node_count)
                      if tree.is_leaf(u)]
            internal = [u for u in range(tree.node_count)
                        if not tree.is_leaf(u)]
            assert len(leaves) == ordering.k
            assert len(internal) == ordering.k_prime
            assert sum(len(tree.children[u]) - 1
                       for u in internal) == ordering.k - 1

    def test_no_only_children(self, g0, k3, fig1):
        for g in (g0, k3, fig1):
            tree = homogeneous_structure(g)
            for u in range(tree.node_count):
                assert len(tree.children[u]) != 1


class TestHasseExponents:

    def test_star_example(self, g0):
        tree = homogeneous_structure(g0)
        ordering = decompose(g0)
        # shape value 2 on each triangle, 1 on the edge clique,
        # 1 on both separators
        alpha = []
        for c in ordering.cliques:
            alpha.append(1.0 if len(c) == 2 else 2.0)
        shape = ShapeParam(tuple(alpha),
                           (1.0,) * ordering.k_prime)
        rho, lam = hasse_exponents(tree, shape)
        node2 = tree.classes.index((2,))
        assert rho[node2] == pytest.approx(4.0, abs=1e-12)
        assert lam[node2] == pytest.approx(5.0, abs=1e-12)

    def test_complete_graph_passthrough(self, k3):
        tree = homogeneous_structure(k3)
        shape = ShapeParam((2.5,), ())
        rho, lam = hasse_exponents(tree, shape)
        assert tuple(rho) == (2.5,) and tuple(lam) == (2.5,)

    @given(spec=homogeneous_graphs(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bottom_up_matches_node_scan(self, spec, seed):
        """The one-pass rho and lam against the sum over each node's
        subtree, node by node: within 1e-12 of the terms' magnitude for
        random shapes, and exact for dyadic ones, whose sums round
        nowhere."""
        tree = homogeneous_structure(parse_graph(spec))
        o = decompose(tree.graph)
        rng = np.random.default_rng(seed)

        def own(shape, v):
            if tree.is_leaf(v):
                return shape.alpha[tree.clique_index[v]]
            return -(len(tree.children[v]) - 1) * \
                shape.beta[tree.separator_index[v]]

        shapes = [ShapeParam(tuple(rng.uniform(-5, 5, o.k)),
                             tuple(rng.uniform(-5, 5, o.k_prime)))
                  for _ in range(3)]
        dyadic = ShapeParam(tuple(rng.integers(-40, 40, o.k) / 8.0),
                            tuple(rng.integers(-40, 40, o.k_prime) / 8.0))
        for shape in shapes + [dyadic]:
            rho, lam = hasse_exponents(tree, shape)
            for u in range(tree.node_count):
                terms = [own(shape, v) for v in tree.nodes_below(u)]
                ref = sum(terms)
                ref_lam = ref + 0.5 * tree.subtree_weights[u] \
                    - 0.5 * tree.depth_weights[u]
                if shape is dyadic:
                    assert (rho[u], lam[u]) == (ref, ref_lam)
                bound = 1e-12 * (1.0 + sum(map(abs, terms)))
                assert abs(rho[u] - ref) <= bound
                assert abs(lam[u] - ref_lam) <= bound


class TestRandomChordal:

    def _random_chordal(self, rng, n):
        # grow a graph one vertex at a time, each new vertex attached
        # to a clique inside an existing vertex's closed neighborhood:
        # the construction can never create a chordless cycle
        adj = {1: set()}
        edges = []
        for v in range(2, n + 1):
            anchor = int(rng.integers(1, v))
            pool = sorted(adj[anchor] | {anchor})
            keep = {anchor}
            for u in pool:
                if u != anchor and all(x in adj[u] for x in keep) \
                        and rng.random() < 0.6:
                    keep.add(u)
            adj[v] = set()
            for u in sorted(keep):
                adj[v].add(u)
                adj[u].add(v)
                edges.append([u, v])
        return {"n": n, "edges": edges}

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            spec = self._random_chordal(rng, int(rng.integers(2, 9)))
            g = parse_graph(spec)
            ordering = decompose(g)
            assert sum(ordering.multiplicity) == ordering.k - 1
            assert len(ordering.distinct_separators) <= ordering.k - 1
            # homogeneity never raises the cross-check error
            try:
                homogeneous_structure(g)
            except NotHomogeneous:
                pass
            except InternalInconsistency:  # pragma: no cover
                pytest.fail("dual homogeneity tests disagreed")


# Reference versions of the graph layer's search steps: plain scans, each
# quadratic or worse, kept only to check the linear-time code.

def _mcs_min_scan(g):
    """Maximum cardinality search taking, at each step, the lowest label
    of largest weight among all unvisited vertices."""
    weight = dict.fromkeys(range(1, g.vertex_count + 1), 0)
    order = []
    while weight:
        v = min(weight, key=lambda v: (-weight[v], v))
        order.append(v)
        del weight[v]
        for w in g.neighbors(v):
            if w in weight:
                weight[w] += 1
    return order


def _cliques_all_pairs(g, order):
    """Each vertex with its earlier neighbours, kept unless strictly
    inside another such set, once each, in search order."""
    pos = {v: i for i, v in enumerate(order)}
    cands = [frozenset(w for w in g.neighbors(v) if pos[w] < pos[v]) | {v}
             for v in order]
    out = []
    for c in cands:
        if not any(c < other for other in cands) and c not in out:
            out.append(c)
    return tuple(tuple(sorted(c)) for c in out)


def _order_fields_by_scan(cliques):
    """Separators, residuals and the distinct-separator bookkeeping of a
    clique order by list scans, or None without running intersection."""
    history = set(cliques[0])
    seps, res = [], [tuple(cliques[0])]
    for j in range(1, len(cliques)):
        sep = set(cliques[j]) & history
        if not any(sep <= set(c) for c in cliques[:j]):
            return None
        seps.append(tuple(sorted(sep)))
        res.append(tuple(sorted(set(cliques[j]) - history)))
        history |= set(cliques[j])
    distinct = []
    for sep in seps:
        if sep not in distinct:
            distinct.append(sep)
    occ = tuple(tuple(j + 1 for j, s in enumerate(seps) if s == d)
                for d in distinct)
    return (tuple(seps), tuple(res), tuple(distinct),
            tuple(len(o) for o in occ), occ,
            tuple(distinct.index(s) for s in seps))


def _class_tree_by_scan(g):
    """Classes by comparing each vertex with every class found so far;
    each parent the smallest strictly larger closed neighbourhood among
    all classes; the derived fields from each node's ancestor chain."""
    reps, classes = [], []
    for v in range(1, g.vertex_count + 1):
        nb = g.closed_neighbors(v)
        if nb in reps:
            classes[reps.index(nb)].append(v)
        else:
            reps.append(nb)
            classes.append([v])
    m = len(classes)
    parent = [min((u for u in range(m) if reps[u] > reps[v]),
                  key=lambda u: len(reps[u]), default=-1)
              for v in range(m)]
    chains = []
    for v in range(m):
        chain = [v]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        chains.append(chain)
    return {
        "classes": tuple(tuple(c) for c in classes),
        "parent": tuple(parent),
        "children": tuple(tuple(u for u in range(m) if parent[u] == v)
                          for v in range(m)),
        "vertex_sets": tuple(tuple(sorted(x for u in c for x in classes[u]))
                             for c in chains),
        "depth_weights": tuple(sum(len(classes[u]) for u in c[1:])
                               for c in chains),
        "subtree_weights": tuple(
            sum(len(classes[w]) for w in range(m) if v in chains[w][1:])
            for v in range(m)),
    }


def _has_induced_path4_brute(g):
    """Some 4-subset spans exactly 3 edges with degrees 1, 1, 2, 2."""
    for quad in combinations(range(1, g.vertex_count + 1), 4):
        pairs = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
        degrees = sorted(sum(v in p for p in pairs) for v in quad)
        if degrees == [1, 1, 2, 2]:
            return True
    return False


SEARCH = settings(max_examples=60, deadline=None, derandomize=True)
ANY_GRAPH = st.one_of(chordal_graphs(), homogeneous_graphs())


class TestAgainstScans:
    """The linear-time search steps give what the plain scans give."""

    @given(spec=ANY_GRAPH)
    @SEARCH
    def test_search_and_cliques(self, spec):
        g = parse_graph(spec)
        order = _mcs_min_scan(g)
        assert list(g._mcs) == order
        assert decompose(g).cliques == _cliques_all_pairs(g, order)

    @given(spec=st.one_of(chordal_graphs(max_r=12),
                          homogeneous_graphs(max_splits=3)))
    @SEARCH
    def test_perfect_orders(self, spec):
        g = parse_graph(spec)
        base = decompose(g)
        if base.k > 6:
            return
        expect = []
        for perm in permutations(base.cliques):
            fields = _order_fields_by_scan(perm)
            if fields is not None:
                expect.append((perm, fields))
        got = enumerate_perfect_orders(g, limit=6)
        assert [(o.cliques, (o.separators, o.residuals,
                             o.distinct_separators, o.multiplicity,
                             o.occurrences, o.sep_index)) for o in got] \
            == expect

    @given(spec=ANY_GRAPH)
    @SEARCH
    def test_class_tree(self, spec):
        g = parse_graph(spec)
        tree = graphs._class_tree(g)
        edge_test = all(g.closed_neighbors(i) >= g.closed_neighbors(j)
                        or g.closed_neighbors(j) >= g.closed_neighbors(i)
                        for i, j in g.edges)
        assert (tree is not None) == edge_test
        if tree is not None:
            ref = _class_tree_by_scan(g)
            assert {k: getattr(tree, k) for k in ref} == ref

    @given(spec=st.one_of(chordal_graphs(max_r=12),
                          homogeneous_graphs(max_splits=2)))
    @SEARCH
    def test_induced_path4(self, spec):
        g = parse_graph(spec)
        assert graphs._has_induced_path4(g) == _has_induced_path4_brute(g)

    @given(spec=homogeneous_graphs())
    @SEARCH
    def test_homogeneous_strategy(self, spec):
        tree = homogeneous_structure(parse_graph(spec))
        assert all(len(c) != 1 for c in tree.children)


def _path(r):
    return {"n": r, "edges": [[i, i + 1] for i in range(1, r)]}


def _banded(r, w):
    return {"n": r, "edges": [[i, j] for i in range(1, r + 1)
                              for j in range(i + 1, min(i + w, r) + 1)]}


def _star(r):
    return {"n": r, "edges": [[1, j] for j in range(2, r + 1)]}


def _structure_digest(g):
    """SHA-256 of the search order and every field but ``graph`` of the
    clique order and of the class tree (None when not homogeneous)."""
    def fields(obj):
        return None if obj is None else [
            (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if f.name != "graph"]
    record = (tuple(g._mcs), fields(decompose(g)),
              fields(graphs._class_tree(g)))
    return hashlib.sha256(repr(record).encode()).hexdigest()


GOLDEN = {
    "path-400": (_path(400),
        "52bce72528245a85b9c6f9fe58cdd1dc62233de23687ac3c9ee3cecd62962cdb"),
    "banded-400-4": (_banded(400, 4),
        "8b39fe544dc42789a12669bba97830f900326c7bf847d742b522b1c7929cc959"),
    "nested-star-20x19": (nested_star(20, 19),
        "3c452e5816928029b487e97c9c14a3d6bfd753f20b8ee41e1570126d7610a847"),
    "star-60": (_star(60),
        "c4a5ffdcec62b6e6d3376279ab3bd6b85d4df4f7f94f99bb4a6e9e2fd236ee82"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_structure_digest_unchanged(name):
    """The structure of four benchmark-sized graphs, digested field by
    field, is what the plain-scan graph layer produced."""
    spec, digest = GOLDEN[name]
    assert _structure_digest(parse_graph(spec)) == digest
