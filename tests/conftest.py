from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from graphwishart import (
    IncompleteMatrix,
    decompose,
    parse_graph,
    project,
)

A4_EDGES = [[1, 2], [2, 3], [3, 4]]
G0_EDGES = [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [1, 5], [2, 5],
            [1, 6]]
FIG1_EDGES = [[1, 2], [1, 3], [1, 7], [2, 3], [2, 7], [3, 7],
              [1, 4], [2, 4], [1, 5], [2, 5], [1, 6]]


@pytest.fixture(scope="session")
def a4():
    return parse_graph({"n": 4, "edges": A4_EDGES})


@pytest.fixture(scope="session")
def g0():
    return parse_graph({"n": 6, "edges": G0_EDGES})


@pytest.fixture(scope="session")
def k2():
    return parse_graph({"n": 2, "edges": [[1, 2]]})


@pytest.fixture(scope="session")
def k3():
    return parse_graph({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})


@pytest.fixture(scope="session")
def path3():
    return parse_graph({"n": 3, "edges": [[1, 2], [2, 3]]})


@pytest.fixture(scope="session")
def fig1():
    return parse_graph({"n": 7, "edges": FIG1_EDGES})


@st.composite
def chordal_graphs(draw, max_r=40):
    """Random connected chordal graph description with at most ``max_r``
    vertices, grown along a random clique tree: each clique after the
    first meets one earlier clique in a random non-empty separator and
    adds 1 to 3 fresh vertices; the labels are then permuted."""
    cliques = [list(range(draw(st.integers(1, 5))))]
    r = len(cliques[0])
    for _ in range(draw(st.integers(0, 16))):
        parent = draw(st.sampled_from(cliques))
        sep = draw(st.lists(st.sampled_from(parent), min_size=1,
                            max_size=4, unique=True))
        fresh = draw(st.integers(1, 3))
        if r + fresh > max_r:
            break
        cliques.append(sep + list(range(r, r + fresh)))
        r += fresh
    label = draw(st.permutations(range(1, r + 1)))
    edges = sorted({tuple(sorted((label[a], label[b])))
                    for c in cliques for a, b in combinations(c, 2)})
    return {"n": r, "edges": [list(e) for e in edges]}


@st.composite
def homogeneous_graphs(draw, max_splits=4):
    """Random connected homogeneous graph description.  A rooted tree
    grows by up to ``max_splits`` splits, each giving a leaf 2 or 3
    children, so no node has exactly one child; each node gets 1 to 3
    vertices, and two vertices are joined when their nodes are equal or
    one is an ancestor of the other.  The labels are then permuted."""
    parent = [-1]
    leaves = [0]
    for _ in range(draw(st.integers(0, max_splits))):
        u = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        for _ in range(draw(st.integers(2, 3))):
            leaves.append(len(parent))
            parent.append(u)
    members, r = [], 0
    for _ in parent:
        size = draw(st.integers(1, 3))
        members.append(range(r, r + size))
        r += size
    label = draw(st.permutations(range(1, r + 1)))
    edges = set()
    for u in range(len(parent)):
        line = [u]  # u and its ancestors
        while parent[line[-1]] != -1:
            line.append(parent[line[-1]])
        for a in members[u]:
            for b in (x for w in line for x in members[w]):
                if a != b:
                    edges.add(tuple(sorted((label[a], label[b]))))
    return {"n": r, "edges": [list(e) for e in sorted(edges)]}


def nested_star(hubs, leaves):
    """Graph description: root 1 joined to every vertex, each hub joined
    to its leaves."""
    edges, v = [], 2
    for _ in range(hubs):
        hub, v = v, v + 1
        edges.append([1, hub])
        for _ in range(leaves):
            edges += [[1, v], [hub, v]]
            v += 1
    return {"n": v - 1, "edges": edges}


def class_tree_only_spec(hubs, leaves, family, least=0.0,
                         interval=(-6.0, 0.0)):
    """Spec on ``nested_star(hubs, leaves)`` whose shape the class tree
    admits on the family's side and the clique order does not, with
    every step exponent above ``least``.  The shape is the first such
    one drawn by ``np.random.default_rng(0)``, its k + k' exponents
    uniform on ``interval`` per try; the scale is ``random_qg`` with
    ``np.random.default_rng(1)``."""
    from graphwishart import (HasseTree, ShapeNotAdmissible, ShapeParam,
                              WishartSpec, parse_graph)

    g = parse_graph(nested_star(hubs, leaves))
    o = decompose(g)
    rng = np.random.default_rng(0)
    scale = random_qg(g, np.random.default_rng(1))
    while True:
        v = rng.uniform(*interval, o.k + o.k_prime)
        try:
            spec = WishartSpec(g, ShapeParam(tuple(v[:o.k]),
                                             tuple(v[o.k:])), scale, family)
        except ShapeNotAdmissible:
            continue
        if isinstance(spec.walk, HasseTree) and \
                min(spec.exponents) > least:
            return spec


# class_tree_only_spec's rule per family for the order-invariance tests:
# (least, interval) -- type2 from [-6, 0], type1 from [0, 6] with every
# step exponent above 1.
TREE_ONLY_RULES = {"type1": (1.0, (0.0, 6.0)), "type2": (0.0, (-6.0, 0.0))}


def count_calls(monkeypatch, owner, name):
    """List that gets one entry per call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_spec_builds(monkeypatch):
    """List that gets the family of every ``WishartSpec`` built."""
    from graphwishart import WishartSpec

    builds = []
    real = WishartSpec.__post_init__

    def counted(self):
        builds.append(self.family)
        real(self)

    monkeypatch.setattr(WishartSpec, "__post_init__", counted)
    return builds


def random_qg(graph, rng, jitter=0.0):
    """Random incomplete matrix with positive definite clique blocks,
    built by projecting a dense positive definite matrix."""
    r = graph.vertex_count
    a = rng.standard_normal((r, r + 2))
    dense = a @ a.T / (r + 2) + (0.5 + jitter) * np.eye(r)
    return project(dense, graph)


def random_pg(graph, rng, jitter=0.0):
    """Random sparse positive definite matrix with the graph's zero
    pattern, via a diagonally dominant masked draw."""
    r = graph.vertex_count
    mask = graph.edge_mask()
    a = rng.standard_normal((r, r)) * 0.3
    sym = 0.5 * (a + a.T) * mask
    np.fill_diagonal(sym, 0.0)
    dense = sym + np.eye(r) * (np.abs(sym).sum(axis=1).max()
                               + 0.5 + jitter)
    return dense * mask


def random_first_admissible(ordering, rng, lo=1.5, hi=4.0):
    """Random shape satisfying the first-family constraints for this
    clique order: free alphas, the non-initial separator groups pinned
    by their equality constraints, the initial separator weight free
    within its inequality."""
    from graphwishart import ShapeParam

    k = ordering.k
    alpha = [float(a) for a in rng.uniform(lo, hi, k)]
    if k == 1:
        r = len(ordering.cliques[0])
        return ShapeParam((alpha[0] + (r - 1) / 2.0,), ())
    beta = [0.0] * ordering.k_prime
    first = ordering.sep_index[0]
    for i in range(ordering.k_prime):
        if i == first:
            continue
        total = sum(alpha[j] for j in ordering.occurrences[i])
        beta[i] = total / ordering.multiplicity[i]
    beta[first] = float(rng.uniform(0.2, 1.0)) * min(
        alpha[j] for j in ordering.occurrences[first])
    return ShapeParam(tuple(alpha), tuple(beta))


def random_second_admissible(ordering, rng, lo=1.5, hi=4.0):
    """Random shape satisfying the second-family constraints for this
    clique order, same construction on the negative side."""
    from graphwishart import ShapeParam

    k = ordering.k
    cs = ordering.clique_sizes
    if k == 1:
        r = cs[0]
        return ShapeParam(
            (-(float(rng.uniform(lo, hi)) + (r - 1) / 2.0),), ())
    ss = (len(ordering.separators[0]),) + ordering.separator_sizes
    alpha = [-(float(a) + (cs[j] - ss[j] - 1) / 2.0)
             for j, a in enumerate(rng.uniform(lo, hi, k))]
    beta = [0.0] * ordering.k_prime
    first = ordering.sep_index[0]
    for i in range(ordering.k_prime):
        if i == first:
            continue
        total = sum(alpha[j] + (cs[j] - len(ordering.separators[
            j - 1])) / 2.0 for j in ordering.occurrences[i])
        beta[i] = total / ordering.multiplicity[i]
    s2 = ss[0]
    nu2 = ordering.multiplicity[first]
    bound = (sum(alpha[j] + (cs[j] - s2) / 2.0
                 for j in ordering.occurrences[first])
             + alpha[0] + (cs[0] - s2) / 2.0 + (s2 - 1) / 2.0)
    beta[first] = (bound + float(rng.uniform(0.5, 2.0))) / nu2
    return ShapeParam(tuple(alpha), tuple(beta))


def schur_pad(m, vertices):
    """Dense reference: the Schur complement of the block of the
    symmetric matrix m (or a stack (..., r, r)) on the 1-based
    ``vertices`` A, zero padded: zero on the rows and columns of A,
    m_B - m_BA m_A^-1 m_AB on the complement B."""
    arr = np.asarray(m, dtype=float)
    a = np.asarray(vertices, dtype=int) - 1
    b = np.setdiff1d(np.arange(arr.shape[-1]), a)
    out = np.zeros(arr.shape)
    mba = arr[..., b[:, None], a[None, :]]
    out[..., b[:, None], b[None, :]] = arr[..., b[:, None], b[None, :]] - \
        mba @ np.linalg.solve(arr[..., a[:, None], a[None, :]],
                              mba.swapaxes(-1, -2))
    return out


def incompletify(graph, dense):
    return IncompleteMatrix(graph, np.asarray(dense, dtype=float))


@pytest.fixture(scope="session")
def a4_ord(a4):
    return decompose(a4)


@pytest.fixture(scope="session")
def g0_ord(g0):
    return decompose(g0)
