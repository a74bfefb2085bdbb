"""Decomposable graphs: validation, clique decompositions, homogeneity.

Vertices are labelled 1..r.  A graph is accepted only if it is connected
and chordal; everything downstream (matrix cones, densities, samplers)
relies on those two properties.
"""

import heapq
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, permutations

import numpy as np

from .errors import (
    GraphMismatch,
    GraphWishartError,
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
    pair with i < j.  What the graph alone determines (the search of the
    chordality test with each vertex's earlier neighbours, the clique
    order, the class tree and the pattern index) is kept on the instance
    once computed; those fields take no part in equality or hashing.
    """

    vertex_count: int
    edges: frozenset
    _adj: dict = field(compare=False, repr=False, default=None)
    _mcs: dict = field(compare=False, repr=False, default=None)
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
    sampled does not hold it.  ``weight`` counts each slot's entries in
    the full matrix: 1 on the diagonal, 2 off it.  All are read-only.
    """

    mask: object
    rows: object
    cols: object
    weight: object

    @property
    def size(self):
        return len(self.rows)

    @cached_property
    def pos(self):
        r = self.mask.shape[0]
        pos = np.full((r, r), -1, dtype=np.intp)
        pos[self.rows, self.cols] = pos[self.cols, self.rows] = \
            np.arange(self.size)
        pos.setflags(write=False)
        return pos


def _pattern_index(g):
    r = g.vertex_count
    mask = np.eye(r, dtype=bool)
    for i, j in g.edges:
        mask[i - 1, j - 1] = True
        mask[j - 1, i - 1] = True
    rows, cols = np.nonzero(np.tril(mask))
    weight = np.where(rows == cols, 1.0, 2.0)
    for a in (mask, rows, cols, weight):
        a.setflags(write=False)
    return PatternIndex(mask, rows, cols, weight)


class StepSlots:
    """Packed slots of one ``(new, given)`` step, laid out by the graph's
    :class:`PatternIndex`.

    ``given`` holds the slots of the block on ``given`` and ``cross``
    those of the block new x given.  ``new`` holds the slots of the lower
    triangle of the block on ``new`` (row-major) and ``new_sel`` the
    (row, column) index arrays of that triangle inside the block, which
    select it from the leading axes of a draws-last stack.
    ``given_tril`` is the same pair for the block on ``given``, built on
    first use.
    A plain class: a dataclass would cost code generation at import.
    """

    def __init__(self, given, cross, new, new_sel):
        self.given, self.cross = given, cross
        self.new, self.new_sel = new, new_sel

    @cached_property
    def given_tril(self):
        sel = np.tril_indices(len(self.given))
        return self.given[sel], sel


# A supernode grows by whole steps up to this many vertices: the block
# order of the projected inverse (Lin et al., SelInv, ACM TOMS 37(4),
# 2011).
_SUPERNODE = 32


class Supernode(StepSlots):
    """Consecutive steps merged into one block: ``vertices`` (N, sorted)
    given the first step's ``given`` S, with the slots of a step on
    (N, S), and ``block``, the slot table of N x (N then S).  N need not
    be a clique, so ``block``, ``new`` and ``cross`` hold -1 off the
    pattern; S is a clique."""

    def __init__(self, vertices, given, pos):
        ni = np.array(vertices, dtype=np.intp) - 1
        gi = np.array(given, dtype=np.intp) - 1
        block = pos[ni[:, None], np.concatenate([ni, gi])]
        sel = np.tril_indices(len(ni))
        super().__init__(pos[gi[:, None], gi], block[:, len(ni):],
                         block[sel], sel)
        self.vertices, self.block = vertices, block


class _Walk:
    """A step list on a graph: ``steps`` of ``(new, given)`` blocks."""

    def by_shape(self, build):
        """Per step, a tuple of read-only views of the stacks that
        ``build(new, given)`` returns for the steps of each shape
        ``(|new|, |given|)``, called once per shape in order of first
        occurrence with the 1-based vertex arrays (m, |new|) and
        (m, |given|) of its m steps.  When ``build`` raises a
        GraphWishartError, the steps are built one at a time in walk
        order, with 1-D vertex arrays, so the error names the first
        step that fails."""
        steps = self.steps
        groups = {}
        for i, (new, given) in enumerate(steps):
            groups.setdefault((len(new), len(given)), []).append(i)
        ids = partial(np.array, dtype=np.intp)
        stacks = []
        try:
            for idx in groups.values():
                stacks.append((idx, build(ids([steps[i][0] for i in idx]),
                                          ids([steps[i][1] for i in idx]))))
        except GraphWishartError:
            for new, given in steps:
                build(ids(new), ids(given))
            raise
        out = [None] * len(steps)
        for idx, parts in stacks:
            for a in parts:
                a.setflags(write=False)
            for i, views in zip(idx, zip(*parts)):
                out[i] = views
        return tuple(out)

    @cached_property
    def step_slots(self):
        """One :class:`StepSlots` per step, built by :meth:`by_shape` on
        first use and shared by everything that walks these steps."""
        pos = self.graph.pattern.pos

        def tables(new, given):
            ni, gi = new - 1, given - 1
            sel = np.tril_indices(ni.shape[-1])
            return (pos[gi[..., :, None], gi[..., None, :]],
                    pos[ni[..., :, None], gi[..., None, :]],
                    pos[ni[..., sel[0]], ni[..., sel[1]]]) + tuple(
                np.broadcast_to(a, ni.shape[:-1] + a.shape) for a in sel)

        return tuple(StepSlots(*t[:3], t[3:]) for t in self.by_shape(tables))


def _build_adjacency(n, edges):
    adj = {i: set() for i in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _mcs_order(n, adj):
    """Maximum cardinality search, lowest label first on ties: a heap of
    (-weight, vertex).  Weights only grow, so a vertex's older entries
    come off the heap after it is visited, and are skipped.

    Returns a dict mapping each vertex, in visit order, to the list of
    its earlier-visited neighbours, in visit order; a vertex's weight is
    the length of that list.
    """
    earlier = {v: [] for v in range(1, n + 1)}
    heap = [(0, v) for v in range(1, n + 1)]
    order = {}
    while heap:
        v = heapq.heappop(heap)[1]
        if v in order:
            continue
        order[v] = earlier.pop(v)
        for w in adj[v]:
            if w in earlier:
                earlier[w].append(v)
                heapq.heappush(heap, (-len(earlier[w]), w))
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
    if not isinstance(raw_edges, (list, tuple)):
        raise MalformedInput("'edges' must be a list of pairs",
                             edges=type(raw_edges).__name__)
    edges = set()
    for pair in raw_edges:
        try:
            i, j = pair
        except (TypeError, ValueError) as exc:
            raise MalformedInput("edge entries must be pairs",
                                 entry=pair) from exc
        if not (isinstance(i, int) and isinstance(j, int)) \
                or isinstance(i, bool) or isinstance(j, bool):
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
    mcs = _mcs_order(n, adj)
    # The search visits all of vertex 1's component before it takes a
    # vertex with no visited neighbour.
    order = list(mcs)
    lone = next((i for i, v in enumerate(order) if i and not mcs[v]), n)
    if lone < n:
        raise NotConnected("graph is not connected",
                           unreachable=sorted(order[lone:]))
    # Tarjan & Yannakakis: the reversed search order eliminates without
    # fill iff each vertex's earlier neighbours, less the last one
    # visited, are all adjacent to that last one.
    for earlier in mcs.values():
        if earlier and not adj[earlier[-1]].issuperset(earlier[:-1]):
            raise NotChordal("graph has a chordless cycle",
                             cycle=_chordless_cycle_witness(n, adj))
    return DecomposableGraph(n, frozenset(edges), adj, mcs)


@dataclass(frozen=True, eq=False)
class BlockGroup:
    """The blocks of one size of a clique order.

    ``slots[g]`` is the (size, size) table of the pattern slots of block
    ``members[g]`` of ``CliqueOrdering.blocks``: a packed array indexed
    by it gives the block.  ``members`` is increasing, so its first
    ``cliques`` entries are cliques and the rest distinct separators.
    """

    size: int
    slots: object
    members: object
    cliques: int


@dataclass(frozen=True)
class CliqueOrdering(_Walk):
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

    @cached_property
    def blocks(self):
        return self.cliques + self.distinct_separators

    @cached_property
    def signs(self):
        return (1,) * self.k + tuple(-m for m in self.multiplicity)

    @cached_property
    def plan(self):
        """``blocks`` grouped by size, as a tuple of :class:`BlockGroup`
        in increasing size; built on first use."""
        blocks = self.blocks
        sizes = [len(b) for b in blocks]
        out = []
        for size in sorted(set(sizes) - {0}):
            members = np.array([i for i, s in enumerate(sizes) if s == size])
            index = np.array([blocks[i] for i in members]) - 1
            slots = self.graph.pattern.pos[index[:, :, None], index[:, None]]
            for a in (members, slots):
                a.setflags(write=False)
            out.append(BlockGroup(size, slots, members,
                                  int(np.sum(members < self.k))))
        return tuple(out)

    @cached_property
    def supernodes(self):
        """``steps`` merged into :class:`Supernode` blocks for
        :func:`~graphwishart.cones.phi`, built on first use: a step joins
        the current run (N, S) when its ``given`` lies in N u S and N
        stays within ``_SUPERNODE`` vertices.  So each vertex of N has no
        earlier neighbour outside N u S, and S is a clique."""
        runs = []
        for new, given in self.steps:
            if runs and set(given) <= runs[-1][2] and \
                    len(runs[-1][0]) + len(new) <= _SUPERNODE:
                runs[-1][0].extend(new)
                runs[-1][2].update(new)
            else:
                runs.append((list(new), given, set(new) | set(given)))
        pos = self.graph.pattern.pos
        return tuple(Supernode(tuple(sorted(new)), given, pos)
                     for new, given, _ in runs if new)

    @cached_property
    def clique_sizes(self):
        return tuple(len(c) for c in self.cliques)

    @cached_property
    def separator_sizes(self):
        return tuple(len(s) for s in self.separators)


def _ordering_from_cliques(g, cliques):
    """Build a CliqueOrdering from an ordered list of sorted clique tuples.

    Returns None if the running intersection property fails.  A
    separator lies in an earlier clique only if that clique holds the
    separator's least-shared vertex, so only those cliques are tried.
    """
    holders = {}  # vertex -> indices of the cliques so far that hold it
    separators = []
    residuals = []
    for j, clique in enumerate(cliques):
        sep = tuple(v for v in clique if v in holders)
        if sep:
            least = holders[min(sep, key=lambda v: len(holders[v]))]
            if not any(all(i in holders[v] for v in sep) for i in least):
                return None
        if j:
            separators.append(sep)
        residuals.append(tuple(v for v in clique if v not in holders))
        for v in clique:
            holders.setdefault(v, set()).add(j)
    occurrences = {}  # distinct separator -> clique indices, first seen
    for j, sep in enumerate(separators, 1):
        occurrences.setdefault(sep, []).append(j)
    index = {sep: i for i, sep in enumerate(occurrences)}
    s2 = separators[0] if separators else ()
    r1 = tuple(v for v in residuals[0] if v not in s2)
    steps = ((s2, ()), (r1, s2)) + tuple(zip(residuals[1:], separators))
    return CliqueOrdering(
        graph=g,
        cliques=tuple(cliques),
        separators=tuple(separators),
        residuals=tuple(residuals),
        distinct_separators=tuple(occurrences),
        multiplicity=tuple(len(o) for o in occurrences.values()),
        occurrences=tuple(tuple(o) for o in occurrences.values()),
        sep_index=tuple(index[sep] for sep in separators),
        steps=steps,
    )


def _maximal_cliques(g):
    """Maximal cliques, sorted, in the order the search completes them.

    A vertex with its earlier neighbours is a maximal clique unless the
    next vertex visited has more earlier neighbours (Blair & Peyton, An
    introduction to chordal graphs and clique trees, 1993).
    """
    visits = list(g._mcs.items())
    after = [len(e) for _, e in visits[1:]] + [0]
    return [tuple(sorted(earlier + [v]))
            for (v, earlier), nxt in zip(visits, after)
            if nxt <= len(earlier)]


def decompose(g):
    """Deterministic perfect order of the cliques of g.

    Cliques are discovered by maximum cardinality search (lowest vertex
    label wins ties) and listed in the order their last vertex is
    visited, which always satisfies the running intersection property.
    The order is computed once per graph and kept on it.
    """
    return _cached(g, "_ordering", _decompose)


def _order_of(g, ordering):
    """``ordering``, or g's own clique order when it is None; a walk of
    another graph raises GraphMismatch."""
    if ordering is None:
        return decompose(g)
    if ordering.graph != g:
        raise GraphMismatch("clique order belongs to a different graph")
    return ordering


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
        ordering = _ordering_from_cliques(g, perm)
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
class HasseTree(_Walk):
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
    """True if some 4 vertices induce a path a-b-c-d.

    Each middle edge is tried one way round (the other way finds the
    same paths reversed), building the smaller end set first.
    """
    adj = g._adj
    for b, c in g.edges:
        if len(adj[b]) > len(adj[c]):
            b, c = c, b
        ends_b = adj[b] - adj[c] - {c}
        if ends_b:
            ends_c = adj[c] - adj[b] - {b}
            if any(not ends_c <= adj[a] for a in ends_b):
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
    closed = {v: frozenset(nb).union((v,)) for v, nb in adj.items()}
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

    # Vertex classes: equal closed neighborhoods.  A class's parent has
    # the smallest strictly larger closed neighborhood; every ancestor
    # of v is a neighbour of v, and on a homogeneous graph the ancestors
    # form a chain, so the smallest is unique.
    first = {}  # closed neighborhood -> class node, by lowest vertex
    node_of = {v: first.setdefault(nb, len(first))
               for v, nb in sorted(closed.items())}
    classes = [[] for _ in first]
    for v, u in node_of.items():
        classes[u].append(v)
    classes = [tuple(c) for c in classes]
    m = len(classes)
    parent = []
    for v, *_ in classes:
        above = [w for w in adj[v] if len(closed[w]) > len(closed[v])]
        parent.append(node_of[min(above, key=lambda w: len(closed[w]))]
                      if above else -1)
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

    # One pass root first, one back: ancestor vertices and weights come
    # down from the parent, descendant weights go up to it.
    weights = [len(c) for c in classes]
    walk = _nodes_below(children, root)
    vertex_sets = [classes[root]] * m
    depth_weights = [0] * m
    subtree_weights = [0] * m
    for v in walk[1:]:
        u = parent[v]
        vertex_sets[v] = tuple(sorted(vertex_sets[u] + classes[v]))
        depth_weights[v] = depth_weights[u] + weights[u]
    for v in reversed(walk[1:]):
        subtree_weights[parent[v]] += subtree_weights[v] + weights[v]

    ordering = decompose(g)
    clique_map = {c: i for i, c in enumerate(ordering.cliques)}
    sep_map = {s: i for i, s in enumerate(ordering.distinct_separators)}
    clique_index = [-1] * m
    separator_index = [-1] * m
    for v in range(m):
        if children[v]:
            if vertex_sets[v] not in sep_map:
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
        classes=tuple(classes),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        weights=tuple(weights),
        depth_weights=tuple(depth_weights),
        subtree_weights=tuple(subtree_weights),
        vertex_sets=tuple(vertex_sets),
        clique_index=tuple(clique_index),
        separator_index=tuple(separator_index),
        root=root,
        steps=((classes[root], ()),) + tuple(
            (classes[v], vertex_sets[parent[v]]) for v in walk[1:]),
    )


def hasse_exponents(tree, shape):
    """Per-node shape exponents of a class tree.

    For each node u, ``rho[u]`` accumulates the clique weights of the
    leaves in the subtree of u minus the (multiplicity times) separator
    weights of the internal nodes in that subtree, in one pass from the
    leaves up: u's own term plus its children's rho.  ``lam[u]`` shifts
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
    rho = [shape.alpha[tree.clique_index[u]] if tree.is_leaf(u) else
           -(len(tree.children[u]) - 1) * shape.beta[tree.separator_index[u]]
           for u in range(m)]
    # Backwards, every node comes after its descendants.
    for u in reversed(tree.nodes_below(tree.root)):
        if u != tree.root:
            rho[tree.parent[u]] += rho[u]
    lam = [
        rho[u] + 0.5 * tree.subtree_weights[u]
        - 0.5 * tree.depth_weights[u]
        for u in range(m)
    ]
    return tuple(rho), tuple(lam)
