import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwishart import (
    DimensionMismatch,
    GraphMismatch,
    IncompleteMatrix,
    MalformedInput,
    NonNumeric,
    NotInPG,
    NotInQG,
    ShapeParam,
    SparsePrecision,
    assemble_blocks,
    complete,
    decompose,
    log_h,
    logdet_hat,
    parse_graph,
    phi,
    precision_of,
    project,
    split_blocks,
    trace_pair,
)
from graphwishart import cones, graphs
from graphwishart.cones import require_qg

from conftest import (
    chordal_graphs,
    count_calls,
    incompletify,
    nested_star,
    random_pg,
    random_qg,
    schur_pad,
)


class TestProject:

    def test_identity(self, a4):
        x = project(np.eye(4), a4)
        assert np.allclose(np.diag(x.data), 1.0)
        assert x.data[0, 2] == 0.0 and x.data[0, 3] == 0.0

    def test_all_ones_on_path(self, path3):
        x = project(np.ones((3, 3)), path3)
        assert x.data[0, 0] == 1 and x.data[0, 1] == 1
        assert x.data[1, 2] == 1
        assert x.data[0, 2] == 0.0  # not a stored position

    def test_asymmetric_rejected(self, path3):
        bad = np.eye(3)
        bad[0, 1] = 1.0
        with pytest.raises((DimensionMismatch, MalformedInput)):
            project(bad, path3)

    def test_wrong_size_rejected(self, path3):
        with pytest.raises(DimensionMismatch):
            project(np.eye(4), path3)

    def test_non_finite_rejected(self, path3):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[1, 1] = bad
            with pytest.raises(NonNumeric):
                project(m, path3)
            with pytest.raises(NonNumeric):
                IncompleteMatrix(path3, m)
            with pytest.raises(NonNumeric):
                SparsePrecision(path3, m)

    def test_asymmetric_pattern_entries_rejected(self, path3):
        # The lower and upper triangles disagree at (1, 2): neither the
        # dense kernels' lower triangle nor the pairing's two triangles
        # would be right, so the constructors refuse it.
        bad = [[2, 1.9, 0], [0, 2, .5], [0, .5, 2]]
        for cls in (IncompleteMatrix, SparsePrecision):
            with pytest.raises(MalformedInput) as info:
                cls(path3, bad)
            assert set(info.value.context) == {"asymmetry"}

    def test_rounding_asymmetry_accepted(self, path3):
        m = np.array([[2, .3, 0], [.3, 2, .5], [0, .5, 2]])
        m[1, 0] *= 1 + 1e-13
        for cls in (IncompleteMatrix, SparsePrecision):
            x = cls(path3, m)
            p = path3.pattern
            assert np.array_equal(x.values, m[p.rows, p.cols])

    def test_asymmetry_tolerance_is_relative(self, k3):
        # A weighted scatter with entries near 3e9 is asymmetric by
        # rounding only: 6e-8 absolute, 2e-17 relative.
        rng = np.random.default_rng(0)
        z = rng.standard_normal((40, 3))
        scatter = z.T @ (z * rng.uniform(0, 1e8, 40)[:, None])
        assert np.max(np.abs(scatter - scatter.T)) > 1e-12
        assert np.allclose(project(scatter, k3).data, scatter)
        skewed = scatter.copy()
        skewed[0, 1] += 1e-6 * np.max(np.abs(scatter))
        with pytest.raises(MalformedInput):
            project(skewed, k3)


class TestTracePair:

    def test_identity_pair(self, a4):
        x = project(np.eye(4), a4)
        y = SparsePrecision(a4, np.eye(4))
        assert trace_pair(x, y) == pytest.approx(4.0)

    def test_off_diagonal_double_count(self, a4):
        xm = np.zeros((4, 4))
        xm[0, 1] = xm[1, 0] = 1.0
        ym = np.zeros((4, 4))
        ym[0, 1] = ym[1, 0] = 0.5
        x = IncompleteMatrix(a4, xm)
        y = SparsePrecision(a4, ym)
        assert trace_pair(x, y) == pytest.approx(1.0)

    def test_matches_dense_trace(self, g0):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_qg(g0, rng)
            y = SparsePrecision(g0, random_pg(g0, rng))
            direct = trace_pair(x, y)
            dense = float(np.trace(complete(x) @ y.data))
            assert direct == pytest.approx(dense, rel=1e-10)

    def test_graph_mismatch(self, a4, path3):
        x = project(np.eye(4), a4)
        y = SparsePrecision(path3, np.eye(3))
        with pytest.raises(GraphMismatch):
            trace_pair(x, y)


class TestComplete:

    def test_identity_fixed_point(self, g0):
        x = project(np.eye(6), g0)
        assert np.allclose(complete(x), np.eye(6), atol=1e-13)

    def test_path_fill_in(self, path3):
        m = np.array([[1.0, 0.5, 0.0],
                      [0.5, 1.0, 0.5],
                      [0.0, 0.5, 1.0]])
        x = IncompleteMatrix(path3, m)
        hat = complete(x)
        assert hat[0, 2] == pytest.approx(0.25, abs=1e-13)

    def test_bad_block_rejected(self, a4):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 2.0  # first 2x2 block indefinite
        with pytest.raises(NotInQG):
            complete(IncompleteMatrix(a4, m))

    def test_inverse_has_zero_pattern(self, g0):
        rng = np.random.default_rng(3)
        x = random_qg(g0, rng)
        inv = np.linalg.inv(complete(x))
        mask = g0.edge_mask()
        assert np.max(np.abs(inv[~mask])) < 1e-10


class TestPrecisionPhiRoundtrip:

    def test_identity(self, a4):
        x = project(np.eye(4), a4)
        assert np.allclose(precision_of(x).data, np.eye(4),
                           atol=1e-13)
        y = SparsePrecision(a4, np.eye(4))
        assert np.allclose(phi(y).data, np.eye(4), atol=1e-13)

    def test_zero_pattern(self, a4):
        m = np.eye(4)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            m[i, j] = m[j, i] = 0.5
        y = precision_of(IncompleteMatrix(a4, m))
        for i, j in ((0, 2), (0, 3), (1, 3)):
            assert y.data[i, j] == 0.0

    def test_roundtrips(self, a4, g0, k3):
        rng = np.random.default_rng(11)
        for g in (a4, g0, k3):
            for _ in range(20):
                x = random_qg(g, rng)
                back = phi(precision_of(x))
                assert np.max(np.abs(back.data - x.data)) < 1e-12
                y = SparsePrecision(g, random_pg(g, rng))
                back2 = precision_of(phi(y))
                assert np.max(np.abs(back2.data - y.data)) < 1e-12

    def test_indefinite_rejected(self, a4):
        y = SparsePrecision(a4, -np.eye(4))
        with pytest.raises(NotInPG):
            phi(y)


def _band(r, w):
    """Graph on 1..r with i ~ j when 0 < |i - j| <= w (w = 1: a path)."""
    return parse_graph({"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                          for j in range(i + 1, r + 1)
                                          if j - i <= w]})


def _phi_error(g, dense):
    """Largest gap between phi and the pattern of the dense LU inverse,
    relative to the inverse's largest entry."""
    ref = np.linalg.inv(dense)
    got = phi(SparsePrecision(g, dense)).data
    mask = g.edge_mask()
    return np.max(np.abs(got - ref)[mask]) / np.max(np.abs(ref))


def _star(r):
    return parse_graph({"n": r, "edges": [[1, j] for j in range(2, r + 1)]})


def _two_components():
    """Graph with two components, a 3-path and a triangle, built without
    :func:`parse_graph` (which accepts connected graphs only): the
    triangle's step is given nothing."""
    edges = frozenset({(1, 2), (2, 3), (4, 5), (4, 6), (5, 6)})
    adj = graphs._build_adjacency(6, edges)
    return graphs.DecomposableGraph(6, edges, adj, graphs._mcs_order(6, adj))


class TestPhi:
    """phi is a projected inverse on the supernodes of the clique order."""

    @given(spec=chordal_graphs(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_dense_inverse_on_random_chordal(self, spec, seed):
        """Within 1e-12 relative of np.linalg.inv, with the module's
        supernode size and with supernodes of 2 vertices, so that steps
        merge and split on these small graphs too.  Supernodes are kept
        on the graph's clique order, so each size parses the graph anew."""
        dense = random_pg(parse_graph(spec), np.random.default_rng(seed))
        for size in (graphs._SUPERNODE, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "_SUPERNODE", size)
                g = parse_graph(spec)
                assert _phi_error(g, dense) < 1e-12
                steps = max(len(new) for new, _ in decompose(g).steps)
                assert all(len(node.vertices) <= max(size, steps)
                           for node in decompose(g).supernodes)

    @pytest.mark.parametrize("width", [1, 4], ids=["path", "banded"])
    def test_matches_dense_inverse_at_r200(self, width):
        g = _band(200, width)
        dense = random_pg(g, np.random.default_rng(width))
        assert _phi_error(g, dense) < 1e-12

    @pytest.mark.parametrize("width", [1, 4], ids=["path", "banded"])
    def test_matches_dense_inverse_at_r1600(self, width):
        g = _band(1600, width)
        dense = random_pg(g, np.random.default_rng(width))
        assert _phi_error(g, dense) < 1e-12

    @pytest.mark.parametrize("graph", [
        lambda: _star(400), lambda: parse_graph(nested_star(19, 20)),
    ], ids=["star", "nested_star"])
    def test_matches_dense_inverse_on_stars(self, graph):
        g = graph()
        assert g.vertex_count == 400
        dense = random_pg(g, np.random.default_rng(5))
        assert _phi_error(g, dense) < 1e-12

    @pytest.mark.parametrize("size", [None, 2])
    def test_step_given_nothing(self, size):
        """A step with an empty given block merges into a supernode, or
        starts one given nothing."""
        with pytest.MonkeyPatch.context() as mp:
            if size:
                mp.setattr(graphs, "_SUPERNODE", size)
            g = _two_components()
            assert decompose(g).steps[-1] == ((4, 5, 6), ())
            assert decompose(g).supernodes[-1].vertices == \
                ((4, 5, 6) if size else (1, 2, 3, 4, 5, 6))
            dense = random_pg(g, np.random.default_rng(9))
            assert _phi_error(g, dense) < 1e-12

    def test_names_the_failing_supernode(self):
        """y indefinite only in a middle supernode of a banded graph:
        the later blocks factor, and NotInPG names the block that does
        not."""
        g = _band(200, 4)
        nodes = decompose(g).supernodes
        mid = len(nodes) // 2
        v = nodes[mid].vertices[3]
        dense = random_pg(g, np.random.default_rng(4))
        dense[v - 1, v - 1] = -1.0
        with pytest.raises(NotInPG) as exc:
            phi(SparsePrecision(g, dense))
        assert 0 < mid < len(nodes) - 1
        assert exc.value.context == {"vertices": list(nodes[mid].vertices)}

    @pytest.mark.parametrize("dense, factored", [
        ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
        (np.diag([1e-310, 1.0, 1.0]), True),
    ], ids=["indefinite", "inverse-overflows"])
    def test_refused(self, path3, dense, factored):
        """An indefinite y fails its Cholesky factor; diag(1e-310, 1, 1)
        has one (1e-310 is a positive subnormal), but its inverse's
        first entry, 1e310, is not finite."""
        y = SparsePrecision(path3, dense)
        assert (cones._potrf(y.data) is not None) == factored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInPG):
                phi(y)

    def test_small_blocks_and_no_dense_array(self, monkeypatch):
        """No dense (r, r) scatter of y: every matrix LAPACK's Cholesky
        or inv sees is one supernode block, at most ``_SUPERNODE`` on a
        side, and y keeps no dense view."""
        g = _band(200, 4)
        y = SparsePrecision(g, random_pg(g, np.random.default_rng(3)))
        scatters = count_calls(monkeypatch, cones, "_scatter")
        shapes = []
        for name in ("cholesky", "inv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, real=real: shapes.append(a.shape) or real(a))
        phi(y)
        phi(y)
        assert scatters == []
        assert y._dense is None  # the point stays packed
        assert shapes and all(k == m <= graphs._SUPERNODE
                              for k, m in shapes)

    def test_allocates_far_less_than_one_dense_array(self):
        """At banded r=1600, the peak of what phi allocates (numpy arrays
        included, by tracemalloc) stays under a tenth of one (r, r)
        array of doubles: it held one such array and more before."""
        g = _band(1600, 4)
        y = SparsePrecision(g, random_pg(g, np.random.default_rng(6)))
        phi(y)  # supernodes built and kept on the clique order
        tracemalloc.start()
        try:
            phi(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1600 * 1600 * 8 / 10


class TestLogdetHat:

    def test_identity(self, a4):
        assert logdet_hat(project(np.eye(4), a4)) == pytest.approx(0.0)

    def test_path_blocks(self, a4):
        m = np.eye(4)
        for i, j in ((0, 1), (1, 2), (2, 3)):
            m[i, j] = m[j, i] = 0.5
        val = logdet_hat(IncompleteMatrix(a4, m))
        assert val == pytest.approx(3 * np.log(0.75), abs=1e-12)

    def test_matches_dense(self, g0):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = random_qg(g0, rng)
            dense = np.linalg.slogdet(complete(x))[1]
            assert logdet_hat(x) == pytest.approx(dense, rel=1e-10)


class TestIndefiniteCliques:
    """A clique block can be indefinite with a positive determinant:
    diag(-1, -1, 1) on the clique {1, 2, 3}.  Both determinant sums must
    still reject it and name the clique."""

    @pytest.fixture
    def x(self):
        g = parse_graph({"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]})
        return IncompleteMatrix(g, np.diag([-1.0, -1.0, 1.0, 1.0]))

    def test_logdet_hat(self, x):
        with pytest.raises(NotInQG) as err:
            logdet_hat(x)
        assert err.value.context["clique"] == [1, 2, 3]

    def test_log_h(self, x):
        o = decompose(x.graph)
        shape = ShapeParam((1.0, 1.0), (1.0,))
        with pytest.raises(NotInQG) as err:
            log_h(shape, x, o)
        assert err.value.context["clique"] == [1, 2, 3]


class TestRequireQG:

    def test_names_first_failing_clique_of_the_order(self):
        # Cliques {1,2,3}, {3,4}, {4,5} in this order.  {1,2,3} and
        # {4,5} both fail; the later one is smaller, so its size group
        # comes first in the block plan.
        g = parse_graph({"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4],
                                           [4, 5]]})
        o = decompose(g)
        assert o.cliques == ((1, 2, 3), (3, 4), (4, 5))
        assert [grp.size for grp in o.plan][:2] == [1, 2]
        m = np.eye(5)
        m[0, 1] = m[1, 0] = 2.0
        m[3, 4] = m[4, 3] = 2.0
        with pytest.raises(NotInQG) as err:
            require_qg(IncompleteMatrix(g, m))
        assert err.value.context["clique"] == [1, 2, 3]

    def test_names_the_only_failing_clique(self):
        g = parse_graph({"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4],
                                           [4, 5]]})
        m = np.eye(5)
        m[3, 4] = m[4, 3] = 2.0
        with pytest.raises(NotInQG) as err:
            require_qg(IncompleteMatrix(g, m))
        assert err.value.context["clique"] == [4, 5]


class TestOneVerdictPerBlock:
    """An exactly singular 2x2 block sits on the edge of the cone, where
    rounding decides the check.  Whatever the verdict, a block gets the
    same one on every graph that holds it, and a refusal names it."""

    @staticmethod
    def _verdicts(r, blocks):
        """Per block (a, b, c) at clique {1, 2} of a path on r vertices
        (identity elsewhere): None or the refusal's message for
        ``require_qg``, ``logdet_hat`` and ``precision_of``."""
        g = parse_graph({"n": r, "edges": [[i, i + 1] for i in range(1, r)]})
        out = []
        for a, b, c in blocks:
            m = np.eye(r)
            m[0, 0], m[0, 1], m[1, 0], m[1, 1] = a, b, b, c
            x = IncompleteMatrix(g, m)
            row = []
            for f in (require_qg, logdet_hat, precision_of):
                try:
                    f(x)
                    row.append(None)
                except NotInQG as err:
                    assert err.context == {"clique": [1, 2]}
                    row.append(err.message)
            out.append(row)
        return out

    def test_same_verdict_on_a_short_and_a_long_path(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 3.0, 2000)
        b = rng.uniform(-3.0, 3.0, 2000)
        blocks = list(zip(a, b, b * b / a))
        short = self._verdicts(10, blocks)
        assert short == self._verdicts(40, blocks)
        # Both sides of the edge occur: the check is on the verdict itself.
        assert {row[0] for row in short} == {
            None, "clique submatrix is not positive definite"}


class TestBlocks:

    def test_identity_blocks(self, a4, a4_ord):
        b = split_blocks(project(np.eye(4), a4), a4_ord)
        for cond, _ in b.parts[1:]:
            assert np.allclose(cond, np.eye(len(cond)))
        for _, ratio in b.parts[1:]:
            assert np.allclose(ratio, 0.0)

    def test_schur_complement_value(self, path3):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 0.5
        b = split_blocks(IncompleteMatrix(path3, m))
        # second clique {2,3} conditions on {2}: stays 1; first clique
        # split gives the 1 - 0.25 complement
        assert b.parts[1][0][0, 0] == pytest.approx(0.75)

    def test_det_product_identity(self, g0, g0_ord):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = random_qg(g0, rng)
            b = split_blocks(x, g0_ord)
            total = np.linalg.slogdet(b.parts[1][0])[1]
            if b.parts[0][0].size:
                total += np.linalg.slogdet(b.parts[0][0])[1]
            for cond, _ in b.parts[2:]:
                total += np.linalg.slogdet(cond)[1]
            assert total == pytest.approx(logdet_hat(x), rel=1e-10)

    def test_assemble_roundtrip(self, a4, g0, k3):
        rng = np.random.default_rng(29)
        for g in (a4, g0, k3):
            ordering = decompose(g)
            for _ in range(15):
                x = random_qg(g, rng)
                back = assemble_blocks(split_blocks(x, ordering))
                assert np.max(np.abs(back.data - x.data)) < 1e-12

    def test_single_clique_passthrough(self, k3):
        rng = np.random.default_rng(31)
        x = random_qg(k3, rng)
        b = split_blocks(x)
        assert np.allclose(b.parts[1][0], x.data)


class TestSchurPad:

    def test_full_set_gives_zero(self):
        m = np.eye(3) * 2
        assert np.allclose(schur_pad(m, (1, 2, 3)), 0.0)

    def test_empty_set_identity(self):
        m = np.arange(9, dtype=float).reshape(3, 3)
        m = m + m.T
        assert np.allclose(schur_pad(m, ()), m)

    def test_identity_middle_vertex(self):
        out = schur_pad(np.eye(3), (2,))
        assert np.allclose(out, np.diag([1.0, 0.0, 1.0]))

    def test_consistency_with_dense_schur(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((4, 6))
        m = a @ a.T / 6 + np.eye(4)
        out = schur_pad(m, (1, 4))
        keep = np.ix_([1, 2], [1, 2])
        drop = np.ix_([1, 2], [0, 3])
        blk = m[keep] - m[drop] @ np.linalg.inv(
            m[np.ix_([0, 3], [0, 3])]) @ m[drop].T
        assert np.allclose(out[keep], blk)
        assert np.allclose(out[0], 0.0) and np.allclose(out[3], 0.0)


class TestPropertyBased:

    @given(offdiag=st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
           diag=st.lists(st.floats(0.5, 3.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_path(self, a4, offdiag, diag):
        m = np.diag(np.array(diag))
        for val, (i, j) in zip(offdiag, ((0, 1), (1, 2), (2, 3))):
            m[i, j] = m[j, i] = val * math.sqrt(diag[i] * diag[j])
        x = IncompleteMatrix(a4, m)
        try:
            y = precision_of(x)
        except NotInQG:
            return
        back = phi(y)
        assert np.max(np.abs(back.data - x.data)) < 1e-10

    @given(offdiag=st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
           diag=st.lists(st.floats(0.5, 3.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_logdet_matches_dense(self, a4, offdiag, diag):
        m = np.diag(np.array(diag))
        for val, (i, j) in zip(offdiag, ((0, 1), (1, 2), (2, 3))):
            m[i, j] = m[j, i] = val * math.sqrt(diag[i] * diag[j])
        x = IncompleteMatrix(a4, m)
        try:
            ld = logdet_hat(x)
        except NotInQG:
            return
        dense = np.linalg.slogdet(complete(x))[1]
        assert ld == pytest.approx(dense, rel=1e-9, abs=1e-9)


class TestDuality:

    def test_positivity(self, a4, g0):
        rng = np.random.default_rng(41)
        for g in (a4, g0):
            for _ in range(200):
                x = random_qg(g, rng)
                y = SparsePrecision(g, random_pg(g, rng))
                assert trace_pair(x, y) > 0.0


def _spd_stack(n, k, rng, log_kappa=12.0):
    """n random SPD k x k blocks with condition numbers 10**u, u uniform
    on [0, log_kappa] (exactly 10**log_kappa for the first block), and
    the condition numbers."""
    u = rng.uniform(0.0, log_kappa, n)
    u[0] = log_kappa
    q = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    lam = 10.0 ** (-u[:, None] * np.linspace(0.0, 1.0, k))
    a = (q * lam[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (a + a.swapaxes(-1, -2)), 10.0 ** u


def _last(a):
    """A draw-major stack (n, ., .) as the draws-last view the kernels
    take."""
    return a.transpose(1, 2, 0)


def _first(a):
    """A kernel's draws-last stack (., ., n) as a draw-major view."""
    return a.transpose(2, 0, 1)


def _lengths(table, k):
    """Stack lengths on both sides of a kernel's crossover for k x k."""
    least = table[k]
    return sorted({max(least - 1, 1), least, 3 * least})


class TestSmallBlockKernels:
    """The unrolled kernels agree with LAPACK within rounding scaled by
    the block's condition number, and exactly on 1x1 blocks.  The
    stacks are built draw-major and handed to the kernels draws last."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cholesky_matches_lapack(self, k):
        rng = np.random.default_rng(k)
        for n in _lengths(cones._CHOL_MIN, k):
            a, kappa = _spd_stack(n, k, rng)
            got, ref = _first(cones._chol(_last(a))), np.linalg.cholesky(a)
            gap = np.abs(got - ref).max(axis=(-1, -2))
            assert np.all(gap <= 1e-12 * kappa)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_solve_matches_lapack(self, k):
        rng = np.random.default_rng(10 + k)
        for n in (1, 7, 300):
            a, kappa = _spd_stack(n, k, rng)
            low = np.linalg.cholesky(a)
            for z in (rng.standard_normal((n, 1, k)),
                      rng.standard_normal((n, k, k))):
                ref = np.linalg.solve(low.swapaxes(-1, -2),
                                      z.swapaxes(-1, -2)).swapaxes(-1, -2)
                scale = np.abs(ref).max(axis=(-1, -2))
                for got in (_first(cones._solve_right(_last(z), _last(low))),
                            np.stack([cones._solve_right(_last(z[i:i + 1]),
                                                         low[i])[..., 0]
                                      for i in range(n)])):
                    gap = np.abs(got - ref).max(axis=(-1, -2))
                    assert np.all(gap <= 1e-12 * kappa * scale)

    def test_one_by_one_is_lapack_bit_for_bit(self):
        rng = np.random.default_rng(20)
        a = rng.uniform(1e-8, 1e8, (1000, 1, 1))
        assert np.array_equal(_first(cones._chol(_last(a))),
                              np.linalg.cholesky(a))
        assert np.array_equal(_first(cones._inv(_last(a))), np.linalg.inv(a))

    @pytest.mark.parametrize("bad", [0.0, 5e-324],
                             ids=["zero", "inverse_overflows"])
    def test_singular_inverse_is_none(self, bad):
        """A 1x1 block that is zero, or whose inverse overflows, and an
        exactly singular 2x2 block give None with no floating point
        warning."""
        a = np.ones((100, 1, 1))
        a[50] = bad
        b = np.broadcast_to(np.eye(2), (100, 2, 2)).copy()
        b[50] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cones._inv(_last(a)) is None
            assert cones._inv(_last(b)) is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_backward_error_near_lapack(self, k):
        """||L L^T - A|| / ||A|| on kappa = 1e12 blocks is at most ten
        times LAPACK's (floored at one unit roundoff)."""
        rng = np.random.default_rng(30 + k)
        n = 2 * max(cones._CHOL_MIN[k], 200)
        q = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
        a = (q * 10.0 ** -np.linspace(0.0, 12.0, k)) @ q.swapaxes(-1, -2)
        a = 0.5 * (a + a.swapaxes(-1, -2))

        def backward(low):
            return np.linalg.norm(low @ low.swapaxes(-1, -2) - a,
                                  axis=(-1, -2)) / \
                np.linalg.norm(a, axis=(-1, -2))

        ours = backward(_first(cones._chol(_last(a))))
        theirs = np.maximum(backward(np.linalg.cholesky(a)),
                            np.finfo(float).eps)
        assert np.all(ours <= 10.0 * theirs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_failed_pivot_is_none(self, k, bad):
        """A zero, negative or NaN pivot gives None on either side of
        the crossover, with no floating point warning."""
        for n in _lengths(cones._CHOL_MIN, k):
            a = np.broadcast_to(np.eye(k), (n, k, k)).copy()
            a[n // 2, k - 1, k - 1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cones._chol(_last(a)) is None


def _index_order(a, b):
    """a b for draws-last stacks a (p, q, n) and b (q, s, n), either of
    which may be one matrix: sum_m a[:, m] b[m] written out for m in
    increasing order, each term rounded before it is added."""
    if a.ndim < b.ndim:
        a = a[..., None]
    if b.ndim < a.ndim:
        b = b[..., None]
    n = max(a.shape[2], b.shape[2])
    out = np.zeros((a.shape[0], b.shape[1], n))
    for m in range(a.shape[1]):
        out = out + a[:, m, None] * b[m]
    return out


def _factors(rng, n):
    """Draws-last stacks (p, q, n) and (q, s, n) for p, s in 1..4 and q
    in 0..4, q = 0 being a first step's empty given block, with each
    one taken as a stack and, for one side at a time, as one matrix."""
    for p in range(1, 5):
        for q in range(5):
            for s in range(1, 5):
                a = rng.standard_normal((p, q, n))
                b = rng.standard_normal((q, s, n))
                yield a, b
                yield a[..., 0], b
                yield a, b[..., 0]


class TestProductKernel:
    """``cones._mul``, the products of the sampler walk on draws-last
    stacks: an index-order sum with no fused multiply-add."""

    @pytest.mark.parametrize("n", [1, 7, 300, 20000])
    def test_equals_index_order_sum(self, n):
        rng = np.random.default_rng(40 + n)
        for a, b in _factors(rng, n):
            got = cones._mul(a, b)
            assert got.shape == (a.shape[0], b.shape[1], n)
            assert np.array_equal(got, _index_order(a, b))

    @pytest.mark.parametrize("n", [1, 300])
    def test_long_inner_index_keeps_its_order(self, n):
        """From 8 terms on numpy's own sum would pair them up; the
        kernel still adds them in index order."""
        rng = np.random.default_rng(50 + n)
        for q in (8, 9, 16):
            a = rng.standard_normal((1, q, n))
            b = rng.standard_normal((q, 1, n))
            assert np.array_equal(cones._mul(a, b), _index_order(a, b))

    @pytest.mark.parametrize("n", [1, 7, 300, 20000])
    def test_matches_matmul_within_rounding(self, n):
        """Entrywise within 2 q eps of |a| |b| of numpy's ``@``, which
        may fuse multiply-adds and sum in another order."""
        rng = np.random.default_rng(60 + n)
        eps = np.finfo(float).eps
        for a, b in _factors(rng, n):
            la = a if a.ndim == 3 else np.repeat(a[..., None], n, axis=2)
            lb = b if b.ndim == 3 else np.repeat(b[..., None], n, axis=2)
            ref = _last(_first(la) @ _first(lb))
            size = _last(np.abs(_first(la)) @ np.abs(_first(lb)))
            gap = np.abs(cones._mul(a, b) - ref)
            assert np.all(gap <= 2 * a.shape[1] * eps * size)


class TestDrawMajorOutputs:
    """The walk keeps its draws last; what callers receive is draw-major
    and C-contiguous."""

    def test_sampler_outputs_are_c_contiguous(self, fig1):
        from graphwishart import (RngStream, WishartSpec, canonical_shape,
                                  sample, sample_base_wishart, sample_batch,
                                  sample_matrix_normal)

        o = decompose(fig1)
        scale = random_qg(fig1, np.random.default_rng(70))
        arrays = []
        for family, shape in (("type1", canonical_shape("hyper", o, 3.0)),
                              ("type2", canonical_shape("gwishart", o, 3.0))):
            spec = WishartSpec(fig1, shape, scale, family)
            arrays.append(sample_batch(spec, RngStream(71), 20))
            arrays += [x.values for x in sample(spec, RngStream(72), 20)]
        arrays.append(sample_base_wishart(3, 2.5, np.eye(3), RngStream(73),
                                          20))
        rows = sample_base_wishart(2, 2.0, np.eye(2), RngStream(74), 20)
        arrays.append(sample_matrix_normal(np.zeros((2, 3)), rows,
                                           np.eye(3), RngStream(75), 20))
        assert all(x.flags.c_contiguous for x in arrays)
        assert arrays[0].shape == (20, 7, 7)
