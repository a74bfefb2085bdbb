"""Seeded input generators for the benchmark.

Everything here is plain numpy and the standard library; nothing imports
graphwishart.  A graph comes back as ``(spec, cliques)``: ``spec`` is the
``{"n", "edges"}`` mapping that ``parse_graph`` takes, and ``cliques`` is
the generator's own perfect sequence of cliques (1-based vertex tuples,
running intersection holds), which the dense references use.  The same
seed gives byte-identical inputs.
"""

import csv
import json
import zlib
from itertools import combinations

import numpy as np


def rng_for(seed, label):
    """Generator keyed by the run seed and a text label."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def _from_cliques(n, cliques):
    edges = sorted({(min(a, b), max(a, b))
                    for c in cliques for a, b in combinations(c, 2)})
    spec = {"n": n, "edges": [list(e) for e in edges]}
    return spec, [tuple(sorted(c)) for c in cliques]


def path_graph(r):
    return _from_cliques(r, [(i, i + 1) for i in range(1, r)])


def banded_graph(r, w):
    """Vertices i and j adjacent when 0 < |i - j| <= w."""
    return _from_cliques(
        r, [tuple(range(i, i + w + 1)) for i in range(1, r - w + 1)])


def star_graph(r):
    return _from_cliques(r, [(1, j) for j in range(2, r + 1)])


def nested_star_graph(hubs, leaves):
    """Root 1 joined to every other vertex; each hub joined to its own
    leaves.  Cliques are {root, hub, leaf}; the graph is homogeneous."""
    cliques = []
    v = 2
    for _ in range(hubs):
        hub = v
        v += 1
        for _ in range(leaves):
            cliques.append((1, hub, v))
            v += 1
    return _from_cliques(v - 1, cliques)


def named_graph(n, edges):
    """A fixed small graph given by its edges (cliques by brute force)."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    cliques = []
    for size in range(n, 1, -1):
        for c in combinations(range(1, n + 1), size):
            if all(b in adj[a] for a, b in combinations(c, 2)) and \
                    not any(set(c) <= set(d) for d in cliques):
                cliques.append(c)
    return _from_cliques(n, _perfect_sequence(cliques))


def _perfect_sequence(cliques):
    """Reorder cliques so that each one meets the union of the earlier
    ones inside a single earlier clique (running intersection)."""
    out = [cliques[0]]
    rest = list(cliques[1:])
    while rest:
        hist = set().union(*out)
        for c in rest:
            sep = set(c) & hist
            if sep and any(sep <= set(d) for d in out):
                out.append(c)
                rest.remove(c)
                break
        else:
            raise ValueError("graph is not chordal and connected")
    return out


def random_chordal_graph(r, rng):
    """Connected chordal graph grown along a random clique tree.

    Clique j > 0 keeps a random j-th separator size (1, 2, 3, 1, ...)
    of vertices from a random earlier clique that is large enough and
    adds 1 or 2 fresh vertices (alternating); the first clique has 4.
    Labels are then permuted at random.  So the clique and separator
    sizes, and with them the work a graph costs, are the same for every
    seed; the tree, the separators and the labels are not.
    """
    cliques = [list(range(4))]
    nv = 4
    j = 1
    while nv < r:
        ssize = 1 + (j - 1) % 3
        parents = [c for c in cliques if len(c) > ssize]
        parent = parents[int(rng.integers(len(parents)))]
        sep = sorted(int(v) for v in
                     rng.choice(parent, ssize, replace=False))
        fresh = min(1 + (j - 1) % 2, r - nv)
        cliques.append(sep + list(range(nv, nv + fresh)))
        nv += fresh
        j += 1
    label = rng.permutation(r) + 1
    return _from_cliques(
        r, [tuple(int(label[v]) for v in c) for c in cliques])


def edge_mask(spec):
    r = spec["n"]
    mask = np.eye(r, dtype=bool)
    for i, j in spec["edges"]:
        mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
    return mask


def pd_scale(spec, rng):
    """Pattern entries of A A^T / (r + 2) + 0.5 I, zero elsewhere."""
    r = spec["n"]
    a = rng.standard_normal((r, r + 2))
    return (a @ a.T / (r + 2) + 0.5 * np.eye(r)) * edge_mask(spec)


def sparse_pd(spec, rng):
    """Positive definite matrix with the graph's zero pattern
    (diagonally dominant)."""
    r = spec["n"]
    mask = edge_mask(spec)
    a = rng.standard_normal((r, r)) * 0.3
    sym = 0.5 * (a + a.T) * mask
    np.fill_diagonal(sym, 0.0)
    return sym + np.eye(r) * (np.abs(sym).sum(axis=1).max() + 0.5)


def gaussian_rows(n, r, rng):
    return rng.standard_normal((n, r))


# Shapes.  The block layout (sizes, separator occurrences) comes from the
# clique order the caller decomposes the graph with, since shape files
# are aligned with that order.

def hyper_shape(k, k_prime, p):
    return [p] * k, [p] * k_prime


def uniform_shape(k, k_prime, a, b):
    """Every clique exponent a and every separator exponent b; with
    a = 2, b = 1 on the nested star this is admissible only through the
    class tree."""
    return [a] * k, [b] * k_prime


def gwishart_shape(clique_sizes, distinct_sep_sizes, delta):
    return ([-(delta + c - 1) / 2.0 for c in clique_sizes],
            [-(delta + s - 1) / 2.0 for s in distinct_sep_sizes])


def first_admissible_shape(layout, rng, p, spread=0.2):
    """Per-order admissible first-side shape near the hyper shape p:
    clique exponents p +- spread, separator exponents pinned by the
    equality constraints, the first separator a little below its
    pinned value (which keeps its inequality)."""
    alpha = [float(p + rng.uniform(-spread, spread))
             for _ in layout["clique_sizes"]]
    beta = _pinned(layout, alpha)
    if beta:
        beta[layout["sep_index"][0]] -= float(rng.uniform(0.02, 0.1))
    return alpha, beta


def second_admissible_shape(layout, rng, delta, spread=0.2):
    """Per-order admissible second-side shape near the G-Wishart shape
    delta, built like :func:`first_admissible_shape`: the first
    separator sits a little above its pinned value."""
    cs = layout["clique_sizes"]
    seps = layout["separator_sizes"]
    alpha = [-(delta + c - 1) / 2.0 + float(rng.uniform(-spread, spread))
             for c in cs]
    # Clique j >= 1 enters the separator constraints as alpha_j plus half
    # its residual size.
    shifted = [alpha[0]] + [alpha[j] + (cs[j] - seps[j - 1]) / 2.0
                            for j in range(1, len(cs))]
    beta = _pinned(layout, shifted)
    if beta:
        beta[layout["sep_index"][0]] += float(rng.uniform(0.02, 0.1))
    return alpha, beta


def _pinned(layout, weights):
    """Separator exponents equal to the mean weight of the cliques at
    which each separator occurs."""
    return [sum(weights[j] for j in occ) / nu
            for occ, nu in zip(layout["occurrences"],
                               layout["multiplicity"])]


# Files for the command line.

def matrix_rows(spec, data):
    """Nested lists with None off the pattern, as the CLI reads them."""
    mask = edge_mask(spec)
    return [[float(data[i, j]) if mask[i, j] else None
             for j in range(spec["n"])] for i in range(spec["n"])]


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
