"""Sampler and block coordinates on random connected chordal graphs.

Every example uses the same scale seed, draw seed and shape family, so
type1 and inv_type1 (and inv_type2 and type2) walk the same steps with
the same random numbers: the draws of one family of each pair are the
sparse inverses of the completions of the other's.
"""

import numpy as np
from hypothesis import given, settings

from graphwishart import (
    IncompleteMatrix,
    RngStream,
    WishartSpec,
    assemble_blocks,
    canonical_shape,
    decompose,
    parse_graph,
    precision_of,
    sample_batch,
    split_blocks,
)

from conftest import chordal_graphs, random_qg

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


@given(spec=chordal_graphs())
@EXAMPLES
def test_step_precision_matches_clique_form(spec):
    g, o, draws = _draws(spec)
    for x_family, k_family in (("type1", "inv_type1"),
                               ("inv_type2", "type2")):
        for x, k in zip(draws[x_family], draws[k_family]):
            ref = precision_of(IncompleteMatrix(g, x), o).data
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
