"""Decomposable graphs: validation, clique decompositions, homogeneity.

Vertices are labelled 1..r.  A graph is accepted only if it is connected
and chordal; everything downstream (matrix cones, densities, samplers)
relies on those two properties.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

from .errors import (
    InternalInconsistency,
    MalformedInput,
    NotChordal,
    NotConnected,
    NotHomogeneous,
    ShapeMismatch,
    TooManyCliques,
)

__all__ = [
    "DecomposableGraph",
    "CliqueOrdering",
    "HasseTree",
    "parse_graph",
    "decompose",
    "enumerate_perfect_orders",
    "homogeneous_structure",
    "hasse_exponents",
]


@dataclass(frozen=True)
class DecomposableGraph:
    """Connected chordal graph on vertices 1..vertex_count.

    Instances are built through :func:`parse_graph`, which performs all
    validation.  ``edges`` holds each undirected edge once as an (i, j)
    pair with i < j.  What the graph alone determines (the search order
    of the chordality test, the clique order, the class tree and the
    pattern index) is kept on the instance once computed; those fields
    take no part in equality or hashing.
    """

    vertex_count: int
    edges: frozenset
    _adj: dict = field(compare=False, repr=False, default=None)
    _mcs: tuple = field(compare=False, repr=False, default=None)
    _pattern: object = field(default=None, init=False, compare=False,
                             repr=False)
    _ordering: object = field(default=None, init=False, compare=False,
                              repr=False)
    _tree: object = field(default=None, init=False, compare=False,
                          repr=False)

    @property
    def r(self):
        return self.vertex_count

    def neighbors(self, i):
        """Set of vertices adjacent to i."""
        return self._adj[i]

    def closed_neighbors(self, i):
        return self._adj[i] | {i}

    def has_edge(self, i, j):
        if i == j:
            return True
        return (min(i, j), max(i, j)) in self.edges

    @property
    def pattern(self):
        """The graph's :class:`PatternIndex`, built on first use."""
        return _cached(self, "_pattern", _pattern_index)

    def edge_mask(self):
        """Read-only boolean r x r array, True on the diagonal and on
        edges."""
        return self.pattern.mask


def _cached(g, attr, build):
    """Value of a structure field of g, computed by ``build(g)`` on first
    use and kept on the graph."""
    value = getattr(g, attr)
    if value is None:
        value = build(g)
        object.__setattr__(g, attr, value)
    return value


@dataclass(frozen=True, eq=False)
class PatternIndex:
    """Packed storage of the entries on the diagonal and on edges.

    A packed array holds one value per slot, ``r + |E|`` slots in all:
    slot s is entry (rows[s], cols[s]) of the lower triangle (0-based,
    row-major).  ``mask`` is the read-only boolean pattern.  ``pos[i, j]``
    and ``pos[j, i]`` both give the slot of (i, j) and are -1 off the
    pattern; the table is built on first use, so a graph that is never
    sampled does not hold it.
    """

    mask: object
    rows: object
    cols: object

    @property
    def size(self):
        return len(self.rows)

    @cached_property
    def pos(self):
        import numpy as np

        r = self.mask.shape[0]
        pos = np.full((r, r), -1, dtype=np.intp)
        pos[self.rows, self.cols] = pos[self.cols, self.rows] = \
            np.arange(self.size)
        pos.setflags(write=False)
        return pos


def _pattern_index(g):
    import numpy as np

    r = g.vertex_count
    mask = np.eye(r, dtype=bool)
    for i, j in g.edges:
        mask[i - 1, j - 1] = True
        mask[j - 1, i - 1] = True
    rows, cols = np.nonzero(np.tril(mask))
    for a in (mask, rows, cols):
        a.setflags(write=False)
    return PatternIndex(mask, rows, cols)


def _build_adjacency(n, edges):
    adj = {i: set() for i in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _check_connected(n, adj):
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise NotConnected(
            "graph is not connected", unreachable=missing)


def _mcs_order(n, adj):
    """Maximum cardinality search visit order, lowest label first on ties."""
    weight = {i: 0 for i in range(1, n + 1)}
    visited = set()
    order = []
    for _ in range(n):
        best = min(
            (v for v in range(1, n + 1) if v not in visited),
            key=lambda v: (-weight[v], v),
        )
        order.append(best)
        visited.add(best)
        for w in adj[best]:
            if w not in visited:
                weight[w] += 1
    return order


def _chordless_cycle_witness(n, adj):
    """Find some chordless cycle of length >= 4, or None.

    For every vertex v with two non-adjacent neighbours u, w we look for
    a shortest u-w path avoiding the rest of the closed neighbourhood of
    v.  A shortest path in that restricted graph is induced, so closing
    it through v yields a chordless cycle.
    """
    from collections import deque

    for v in range(1, n + 1):
        nbv = sorted(adj[v])
        for u, w in combinations(nbv, 2):
            if w in adj[u]:
                continue
            banned = (adj[v] | {v}) - {u, w}
            prev = {u: None}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                if a == w:
                    break
                for b in adj[a]:
                    if b in banned or b in prev:
                        continue
                    prev[b] = a
                    queue.append(b)
            if w in prev:
                path = [w]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                path.reverse()
                return [v] + path
    return None


def parse_graph(spec):
    """Validate a graph description and return a DecomposableGraph.

    Parameters
    ----------
    spec : dict
        Mapping with keys ``"n"`` (number of vertices) and ``"edges"``
        (list of [i, j] pairs, 1-based labels).  Self loops, duplicate
        edges and out-of-range labels are rejected.

    Raises
    ------
    MalformedInput, NotConnected, NotChordal
    """
    if not isinstance(spec, dict):
        raise MalformedInput("graph description must be a mapping")
    try:
        n = spec["n"]
        raw_edges = spec["edges"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(
            "graph description needs 'n' and 'edges'") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput("'n' must be a positive integer", n=n)
    edges = set()
    for pair in raw_edges:
        try:
            i, j = pair
        except (TypeError, ValueError) as exc:
            raise MalformedInput("edge entries must be pairs",
                                 entry=pair) from exc
        if not (isinstance(i, int) and isinstance(j, int)):
            raise MalformedInput("edge labels must be integers", entry=pair)
        if i == j:
            raise MalformedInput("self loops are not allowed", vertex=i)
        if not (1 <= i <= n and 1 <= j <= n):
            raise MalformedInput("edge label out of range", entry=pair, n=n)
        e = (min(i, j), max(i, j))
        if e in edges:
            raise MalformedInput("duplicate edge", entry=list(e))
        edges.add(e)
    if len(edges) < n - 1:
        raise NotConnected("graph is not connected: fewer than n - 1 edges",
                           n=n, edges=len(edges))
    adj = _build_adjacency(n, edges)
    _check_connected(n, adj)

    order = _mcs_order(n, adj)
    pos = {v: idx for idx, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        for a, b in combinations(earlier, 2):
            if b not in adj[a]:
                cycle = _chordless_cycle_witness(n, adj)
                raise NotChordal("graph has a chordless cycle",
                                 cycle=cycle)
    return DecomposableGraph(n, frozenset(edges), adj, tuple(order))


@dataclass(frozen=True, eq=False)
class BlockGroup:
    """The blocks of one size of a clique order.

    ``index[g]`` holds the 0-based vertices of block ``members[g]`` of
    ``CliqueOrdering.blocks``; ``members`` is increasing, so its first
    ``cliques`` entries are cliques and the rest distinct separators.
    """

    size: int
    index: object
    members: object
    cliques: int


@dataclass(frozen=True)
class CliqueOrdering:
    """A perfect order of the cliques with its derived structure.

    ``cliques[j]`` is a sorted vertex tuple.  ``separators[j - 1]`` is
    the intersection of clique j with the union of the earlier cliques
    (so it is indexed by j = 1..k-1, 0-based).  ``distinct_separators``
    lists each separator set once, in order of first occurrence;
    ``multiplicity[i]`` counts its occurrences and ``occurrences[i]``
    gives the clique indices j >= 1 at which it appears.

    ``blocks`` lists the cliques and then the distinct separators, and
    ``signs`` gives each block's sign in the clique/separator sums of the
    paper: 1 per clique, ``-multiplicity[i]`` per separator.

    ``steps`` lists the order as ``(new, given)`` vertex blocks: the
    first separator S2 given nothing, the rest R1 of the first clique
    given S2, then each residual given its separator.  S2 is empty when
    there is a single clique.
    """

    graph: DecomposableGraph
    cliques: tuple
    separators: tuple
    residuals: tuple
    distinct_separators: tuple
    multiplicity: tuple
    occurrences: tuple
    sep_index: tuple  # per clique j >= 1: index into distinct_separators
    steps: tuple

    @property
    def k(self):
        return len(self.cliques)

    @property
    def k_prime(self):
        return len(self.distinct_separators)

    @property
    def blocks(self):
        return self.cliques + self.distinct_separators

    @property
    def signs(self):
        return (1,) * self.k + tuple(-m for m in self.multiplicity)

    @cached_property
    def plan(self):
        """``blocks`` grouped by size, as a tuple of :class:`BlockGroup`
        in increasing size; built on first use."""
        import numpy as np

        blocks = self.blocks
        sizes = [len(b) for b in blocks]
        out = []
        for size in sorted(set(sizes) - {0}):
            members = np.array([i for i, s in enumerate(sizes) if s == size])
            index = np.array([blocks[i] for i in members]) - 1
            for a in (members, index):
                a.setflags(write=False)
            out.append(BlockGroup(size, index, members,
                                  int(np.sum(members < self.k))))
        return tuple(out)

    @property
    def clique_sizes(self):
        return tuple(len(c) for c in self.cliques)

    @property
    def separator_sizes(self):
        return tuple(len(s) for s in self.separators)


def _ordering_from_cliques(g, cliques):
    """Build a CliqueOrdering from an ordered clique list.

    Returns None if the running intersection property fails.
    """
    k = len(cliques)
    history = set(cliques[0])
    separators = []
    residuals = [tuple(sorted(cliques[0]))]
    for j in range(1, k):
        cj = set(cliques[j])
        sep = cj & history
        if not any(sep <= set(cliques[i]) for i in range(j)):
            return None
        separators.append(tuple(sorted(sep)))
        residuals.append(tuple(sorted(cj - history)))
        history |= cj
    distinct = []
    mult = []
    occ = []
    sep_index = []
    for j, sep in enumerate(separators):
        if sep in distinct:
            i = distinct.index(sep)
            mult[i] += 1
            occ[i].append(j + 1)
        else:
            distinct.append(sep)
            mult.append(1)
            occ.append([j + 1])
            i = len(distinct) - 1
        sep_index.append(i)
    s2 = separators[0] if separators else ()
    r1 = tuple(v for v in residuals[0] if v not in s2)
    steps = ((s2, ()), (r1, s2)) + tuple(zip(residuals[1:], separators))
    return CliqueOrdering(
        graph=g,
        cliques=tuple(tuple(sorted(c)) for c in cliques),
        separators=tuple(separators),
        residuals=tuple(residuals),
        distinct_separators=tuple(distinct),
        multiplicity=tuple(mult),
        occurrences=tuple(tuple(o) for o in occ),
        sep_index=tuple(sep_index),
        steps=steps,
    )


def _maximal_cliques(g):
    """Maximal cliques with the MCS rank at which each is completed."""
    adj = g._adj
    order = g._mcs
    pos = {v: idx for idx, v in enumerate(order)}
    candidates = []
    for v in order:
        earlier = {w for w in adj[v] if pos[w] < pos[v]}
        candidates.append((frozenset(earlier | {v}), pos[v]))
    cliques = []
    for cand, rank in candidates:
        if any(cand < other for other, _ in candidates):
            continue
        if cand not in (c for c, _ in cliques):
            cliques.append((cand, rank))
    cliques.sort(key=lambda cr: cr[1])
    return [set(c) for c, _ in cliques]


def decompose(g):
    """Deterministic perfect order of the cliques of g.

    Cliques are discovered by maximum cardinality search (lowest vertex
    label wins ties) and listed in the order their last vertex is
    visited, which always satisfies the running intersection property.
    The order is computed once per graph and kept on it.
    """
    return _cached(g, "_ordering", _decompose)


def _decompose(g):
    cliques = _maximal_cliques(g)
    ordering = _ordering_from_cliques(g, cliques)
    if ordering is None:  # pragma: no cover - MCS guarantees success
        raise InternalInconsistency(
            "clique order from search fails running intersection")
    return ordering


def enumerate_perfect_orders(g, limit=8):
    """All orderings of the cliques satisfying running intersection.

    The scan is factorial in the clique count k, so it is guarded by
    ``limit``; TooManyCliques is raised when k exceeds it.
    """
    base = decompose(g)
    k = base.k
    if k > limit:
        raise TooManyCliques(
            "clique count exceeds enumeration limit", k=k, limit=limit)
    out = []
    for perm in permutations(base.cliques):
        ordering = _ordering_from_cliques(g, [set(c) for c in perm])
        if ordering is not None:
            out.append(ordering)
    return out


def order_signature(ordering):
    """Hashable summary (separator sequence and occurrence map).

    Two perfect orders with equal signatures impose identical shape
    constraints, so enumeration results may be deduplicated on this key
    when only those constraints matter.
    """
    return (
        ordering.separators,
        tuple(zip(ordering.distinct_separators, ordering.occurrences)),
    )


@dataclass(frozen=True)
class HasseTree:
    """Rooted class tree of a graph whose vertex classes nest by
    closed neighborhood.

    ``classes[u]`` holds the member vertices of node u; ``weights[u]``
    is its cardinality.  ``vertex_sets[u]`` is the union of node u with
    all its ancestors: a clique when u is a leaf, a distinct minimal
    separator otherwise.  ``clique_index`` / ``separator_index`` map
    nodes into the canonical decomposition of the graph (-1 where the
    role does not apply).  ``steps`` holds ``(class of u, strict
    ancestors of u)`` for every node u, root first, in the order of
    ``nodes_below(root)``.
    """

    graph: DecomposableGraph
    classes: tuple
    parent: tuple
    children: tuple
    weights: tuple
    depth_weights: tuple  # total weight of strict ancestors per node
    subtree_weights: tuple  # total weight of strict descendants per node
    vertex_sets: tuple
    clique_index: tuple
    separator_index: tuple
    root: int
    steps: tuple

    @property
    def node_count(self):
        return len(self.classes)

    def is_leaf(self, u):
        return not self.children[u]

    def nodes_below(self, u):
        """u together with every descendant."""
        return _nodes_below(self.children, u)


def _nodes_below(children, u):
    out = [u]
    stack = list(children[u])
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(children[v])
    return out


def _has_induced_path4(g):
    """True if some 4 vertices induce a path a-b-c-d."""
    adj = g._adj
    for b, c in g.edges:
        for b_, c_ in ((b, c), (c, b)):
            for a in adj[b_] - adj[c_] - {c_}:
                for d in adj[c_] - adj[b_] - {b_}:
                    if a != d and d not in adj[a]:
                        return True
    return False


def homogeneous_structure(g):
    """Class tree of a homogeneous graph, or NotHomogeneous.

    Two independent criteria are evaluated: pairwise comparability of
    closed neighborhoods along every edge, and absence of an induced
    4-vertex path.  They must agree; a disagreement means a bug and
    raises InternalInconsistency.  The tree is computed once per graph
    and kept on it.
    """
    tree = _class_tree(g)
    if tree is None:
        raise NotHomogeneous("graph contains an induced 4-vertex path")
    return tree


def _class_tree(g):
    """Class tree of g, or None when g is not homogeneous."""
    return _cached(g, "_tree", _build_class_tree) or None


def _build_class_tree(g):
    """Class tree of g, or False (cached like a tree) when g is not
    homogeneous."""
    adj = g._adj
    closed = {v: adj[v] | {v} for v in adj}
    edge_test = all(
        closed[i] >= closed[j] or closed[j] >= closed[i]
        for i, j in g.edges
    )
    path_test = not _has_induced_path4(g)
    if edge_test != path_test:
        raise InternalInconsistency(
            "neighborhood and induced-path homogeneity tests disagree",
            edge_test=edge_test, path_test=path_test)
    if not edge_test:
        return False

    # Vertex classes: equal closed neighborhoods.
    classes = []
    rep_closed = []
    for v in range(1, g.vertex_count + 1):
        for i, nb in enumerate(rep_closed):
            if closed[v] == nb:
                classes[i].append(v)
                break
        else:
            classes.append([v])
            rep_closed.append(closed[v])
    m = len(classes)
    # Node u lies below node v when the closed neighborhood of u
    # strictly contains that of v.
    parent = [-1] * m
    for v in range(m):
        ancestors = [u for u in range(m)
                     if u != v and rep_closed[u] > rep_closed[v]]
        if ancestors:
            parent[v] = min(ancestors, key=lambda u: len(rep_closed[u]))
    roots = [v for v in range(m) if parent[v] == -1]
    if len(roots) != 1:
        raise InternalInconsistency(
            "class order has multiple minimal nodes", roots=roots)
    root = roots[0]
    children = [[] for _ in range(m)]
    for v in range(m):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    for v in range(m):
        if len(children[v]) == 1:
            raise InternalInconsistency(
                "class tree has a node with exactly one child", node=v)

    weights = [len(c) for c in classes]
    anc_sets = []
    vertex_sets = []
    depth_weights = []
    for v in range(m):
        chain = []
        u = v
        while u != -1:
            chain.append(u)
            u = parent[u]
        anc_sets.append(chain)
        depth_weights.append(sum(weights[u] for u in chain) - weights[v])
        members = sorted(x for u in chain for x in classes[u])
        vertex_sets.append(tuple(members))
    subtree_weights = [0] * m
    for v in range(m):
        for u in anc_sets[v][1:]:
            subtree_weights[u] += weights[v]

    ordering = decompose(g)
    clique_map = {c: i for i, c in enumerate(ordering.cliques)}
    sep_map = {s: i for i, s in enumerate(ordering.distinct_separators)}
    clique_index = [-1] * m
    separator_index = [-1] * m
    for v in range(m):
        if children[v]:
            if m > 1 and vertex_sets[v] not in sep_map:
                raise InternalInconsistency(
                    "internal class node is not a separator",
                    node_vertices=vertex_sets[v])
            separator_index[v] = sep_map[vertex_sets[v]]
            if ordering.multiplicity[separator_index[v]] != \
                    len(children[v]) - 1:
                raise InternalInconsistency(
                    "separator multiplicity does not match child count",
                    node_vertices=vertex_sets[v])
        else:
            if vertex_sets[v] not in clique_map:
                raise InternalInconsistency(
                    "leaf class node is not a clique",
                    node_vertices=vertex_sets[v])
            clique_index[v] = clique_map[vertex_sets[v]]

    return HasseTree(
        graph=g,
        classes=tuple(tuple(c) for c in classes),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        weights=tuple(weights),
        depth_weights=tuple(depth_weights),
        subtree_weights=tuple(subtree_weights),
        vertex_sets=tuple(vertex_sets),
        clique_index=tuple(clique_index),
        separator_index=tuple(separator_index),
        root=root,
        steps=tuple(
            (tuple(classes[u]),
             tuple(v for v in vertex_sets[u] if v not in classes[u]))
            for u in _nodes_below(children, root)),
    )


def hasse_exponents(tree, shape):
    """Per-node shape exponents of a class tree.

    For each node u, ``rho[u]`` accumulates the clique weights of the
    leaves in the subtree of u minus the (multiplicity times) separator
    weights of the internal nodes in that subtree.  ``lam[u]`` shifts
    rho by half the weight of the strict descendants minus half the
    weight of the strict ancestors.
    """
    m = tree.node_count
    # Leaves are the cliques, internal nodes the distinct separators.
    k = sum(1 for u in range(m) if tree.is_leaf(u))
    if len(shape.alpha) != k or len(shape.beta) != m - k:
        raise ShapeMismatch(
            "shape length does not match clique/separator counts",
            alpha=len(shape.alpha), beta=len(shape.beta),
            k=k, k_prime=m - k)
    rho = [0.0] * m
    for u in range(m):
        for v in tree.nodes_below(u):
            if tree.is_leaf(v):
                rho[u] += shape.alpha[tree.clique_index[v]]
            else:
                nu = len(tree.children[v]) - 1
                rho[u] -= nu * shape.beta[tree.separator_index[v]]
    lam = [
        rho[u] + 0.5 * tree.subtree_weights[u]
        - 0.5 * tree.depth_weights[u]
        for u in range(m)
    ]
    return tuple(rho), tuple(lam)
