import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwishart import cli
from graphwishart.cli import run

from conftest import chordal_graphs


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def a4_file(tmp_path):
    return write_json(tmp_path / "a4.json",
                      {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]})


@pytest.fixture
def scale_file(tmp_path):
    rows = [[2.0, 0.4, None, None],
            [0.4, 2.0, 0.4, None],
            [None, 0.4, 2.0, 0.4],
            [None, None, 0.4, 2.0]]
    return write_json(tmp_path / "scale.json", {
        "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
        "matrix": rows})


@pytest.fixture
def shape_file(tmp_path):
    return write_json(tmp_path / "shape.json",
                      {"alpha": [3.0, 2.0, 2.0], "beta": [2.0, 2.0]})


class TestGraphCommands:

    def test_analyze(self, a4_file, capsys):
        code, out = invoke(["graph", "analyze", "--graph", a4_file],
                           capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["cliques"] == [[1, 2], [2, 3], [3, 4]]
        assert doc["separators"] == [[2], [3]]
        assert doc["multiplicities"] == [1, 1]
        assert doc["homogeneous"] is False

    def test_hasse_on_tree_structured_graph(self, tmp_path, capsys):
        g0 = write_json(tmp_path / "g0.json", {
            "n": 6,
            "edges": [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4],
                      [1, 5], [2, 5], [1, 6]]})
        code, out = invoke(["graph", "hasse", "--graph", g0], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == {"{1,2}": 2, "{1}": 1}
        leaves = [r for r in doc["roles"] if r == "clique"]
        assert len(leaves) == 4

    def test_hasse_rejects_path(self, a4_file, capsys):
        code, out = invoke(["graph", "hasse", "--graph", a4_file],
                           capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "not_homogeneous"

    def test_cycle_rejected(self, tmp_path, capsys):
        cyc = write_json(tmp_path / "cycle4.json", {
            "n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
        code, out = invoke(["graph", "analyze", "--graph", cyc],
                           capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "not_chordal"
        assert "message" in doc and "context" in doc


class TestConeCommands:

    def test_complete_fills_pattern(self, scale_file, capsys):
        code, out = invoke(["cone", "complete", "--matrix",
                            scale_file], capsys)
        assert code == 0
        doc = json.loads(out)
        m = np.array(doc["matrix"], dtype=float)
        assert m[0, 2] == pytest.approx(0.4 * 0.4 / 2.0)
        inv = np.linalg.inv(m)
        assert abs(inv[0, 2]) < 1e-12

    def test_cycle_exit_code(self, tmp_path, capsys):
        cyc_mat = write_json(tmp_path / "m.json", {
            "graph": {"n": 4,
                      "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
            "matrix": [[1, 0, None, 0], [0, 1, 0, None],
                       [None, 0, 1, 0], [0, None, 0, 1]]})
        code, out = invoke(["cone", "complete", "--matrix", cyc_mat],
                           capsys)
        assert code == 1
        assert json.loads(out)["code"] == "not_chordal"

    def test_phi_inverts_precision(self, tmp_path, capsys):
        m = write_json(tmp_path / "y.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[2.0, 0.5], [0.5, 2.0]]})
        code, out = invoke(["cone", "phi", "--matrix", m], capsys)
        assert code == 0
        got = np.array(json.loads(out)["matrix"], dtype=float)
        expect = np.linalg.inv([[2.0, 0.5], [0.5, 2.0]])
        assert np.allclose(got, expect)

    def test_off_pattern_value_rejected(self, tmp_path, capsys):
        m = write_json(tmp_path / "bad.json", {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
            "matrix": [[1, 0, 0.7], [0, 1, 0], [0.7, 0, 1]]})
        code, out = invoke(["cone", "complete", "--matrix", m],
                           capsys)
        assert code == 1

    def test_rounding_asymmetry_accepted(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((40, 2))
        scatter = z.T @ (z * rng.uniform(0, 1e8, 40)[:, None])
        assert abs(scatter[0, 1] - scatter[1, 0]) > 1e-12
        m = write_json(tmp_path / "big.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": scatter.tolist()})
        code, out = invoke(["cone", "complete", "--matrix", m], capsys)
        assert code == 0

    def test_nan_entry_rejected(self, tmp_path, capsys):
        m = tmp_path / "nan.json"
        m.write_text('{"graph": {"n": 2, "edges": [[1, 2]]}, '
                     '"matrix": [[NaN, 0.5], [0.5, 1.0]]}')
        code, out = invoke(["cone", "complete", "--matrix", str(m)],
                           capsys)
        assert code == 1
        assert json.loads(out)["code"] == "non_numeric"

    def test_matrix_not_a_list_rejected(self, tmp_path, capsys):
        m = write_json(tmp_path / "five.json", {
            "graph": {"n": 2, "edges": [[1, 2]]}, "matrix": 5})
        code, out = invoke(["cone", "complete", "--matrix", m], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "malformed_input"

    def test_asymmetry_rejected(self, tmp_path, capsys):
        m = write_json(tmp_path / "asym.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[1.0, 0.5], [0.25, 1.0]]})
        code, out = invoke(["cone", "complete", "--matrix", m],
                           capsys)
        assert code == 1


class TestDistCommands:

    def test_logpdf(self, shape_file, scale_file, capsys):
        code, out = invoke(["dist", "logpdf", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--matrix", scale_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "type1"
        assert math.isfinite(doc["logpdf"])

    def test_sample_emits_json_lines(self, shape_file, scale_file,
                                     capsys):
        code, out = invoke(["dist", "sample", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--n", "3", "--seed", "42"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 3
        for i, ln in enumerate(lines):
            doc = json.loads(ln)
            assert doc["seed"] == 42
            assert doc["index"] == i
            assert doc["matrix"][0][2] is None

    @pytest.mark.parametrize("alpha", ['["x"]', "[1e400]"],
                             ids=["string", "overflow"])
    def test_sample_bad_shape_exponent(self, tmp_path, capsys, alpha):
        scale = write_json(tmp_path / "scale.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[2.0, 0.5], [0.5, 2.0]]})
        shape = tmp_path / "shape.json"
        shape.write_text('{"alpha": %s, "beta": []}' % alpha)
        code, out = invoke(["dist", "sample", "--family", "type1",
                            "--shape", str(shape), "--scale", scale,
                            "--n", "2", "--seed", "1"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "non_numeric"

    def test_sample_negative_count_is_domain_error(self, shape_file,
                                                   scale_file, capsys):
        code, out = invoke(["dist", "sample", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--n", "-1", "--seed", "1"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "out_of_domain"
        assert doc["context"] == {"size": "-1"}

    @pytest.mark.parametrize("seed", ["18446744073709551616",
                                      "18446744073709551615", "-1"])
    def test_sample_seed_outside_the_range_is_domain_error(
            self, seed, shape_file, scale_file, capsys):
        code, out = invoke(["dist", "sample", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--n", "1", "--seed", seed], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "out_of_domain"
        assert doc["context"] == {"seed": seed}

    def test_sample_roundtrip_into_logpdf(self, tmp_path, shape_file,
                                          scale_file, capsys):
        code, out = invoke(["dist", "sample", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--n", "1", "--seed", "1"], capsys)
        assert code == 0
        point = tmp_path / "draw.json"
        point.write_text(out.splitlines()[0])
        code, out = invoke(["dist", "logpdf", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file,
                            "--matrix", str(point)], capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["logpdf"])

    def test_determinism(self, shape_file, scale_file, capsys):
        argv = ["dist", "sample", "--family", "type1",
                "--shape", shape_file, "--scale", scale_file,
                "--n", "2", "--seed", "9"]
        _, out1 = invoke(argv, capsys)
        _, out2 = invoke(argv, capsys)
        assert out1 == out2

    def test_mean(self, shape_file, scale_file, capsys):
        code, out = invoke(["dist", "mean", "--family", "type1",
                            "--shape", shape_file,
                            "--scale", scale_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"][0][0] > 0

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["dist", "bogus"])
        assert info.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["graph", "analyze", "--nope", "x"])
        assert info.value.code == 2


class TestBayesAndVerify:

    def test_bayes_fit(self, tmp_path, a4_file, capsys):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 4))
        csv = tmp_path / "d.csv"
        csv.write_text("\n".join(",".join("%.17g" % v for v in row)
                                 for row in data))
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-1.0, -1.0, -1.0],
                      "beta": [1.0, -0.5]},
            "scale": [[1.0, 0.0, None, None],
                      [0.0, 1.0, 0.0, None],
                      [None, 0.0, 1.0, 0.0],
                      [None, None, 0.0, 1.0]]})
        code, out = invoke(["bayes", "fit", "--graph", a4_file,
                            "--data", str(csv), "--prior", prior,
                            "--seed", "5", "--n", "500"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 5
        assert doc["n_obs"] == 40
        assert doc["posterior_shape"]["alpha"] == [-21, -21, -21]
        assert "sigma_mean" in doc and "precision_mean" in doc

    def test_bayes_fit_missing_data_file(self, tmp_path, a4_file,
                                         capsys):
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-1.0, -1.0, -1.0],
                      "beta": [1.0, -0.5]},
            "scale": np.eye(4).tolist()})
        code, out = invoke(["bayes", "fit", "--graph", a4_file,
                            "--data", str(tmp_path / "missing.csv"),
                            "--prior", prior], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "malformed_input"
        assert doc["context"]["path"].endswith("missing.csv")

    @pytest.mark.parametrize("scale, code", [
        (5, "malformed_input"),
        ([[1.0, "x", None, None], [0.0, 1.0, 0.0, None],
          [None, 0.0, 1.0, 0.0], [None, None, 0.0, 1.0]], "non_numeric"),
        ([[1.0, 0.3, None, None], [0.0, 1.0, 0.0, None],
          [None, 0.0, 1.0, 0.0], [None, None, 0.0, 1.0]],
         "malformed_input"),
        ([[1.0, 0.0, 0.5, None], [0.0, 1.0, 0.0, None],
          [0.5, 0.0, 1.0, 0.0], [None, None, 0.0, 1.0]],
         "malformed_input"),
    ], ids=["not-a-list", "string-cell", "asymmetric", "off-pattern"])
    def test_bayes_fit_bad_prior_scale(self, tmp_path, a4_file, capsys,
                                       scale, code):
        csv = tmp_path / "d.csv"
        csv.write_text("1,2,3,4\n0.5,0.1,-1,2\n")
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-1.0, -1.0, -1.0], "beta": [1.0, -0.5]},
            "scale": scale})
        status, out = invoke(["bayes", "fit", "--graph", a4_file,
                              "--data", str(csv), "--prior", prior],
                             capsys)
        assert status == 1
        assert json.loads(out)["code"] == code

    @pytest.mark.parametrize("alpha", ['["x"]', "[1e400]"],
                             ids=["string", "overflow"])
    def test_bayes_fit_bad_shape_exponent(self, tmp_path, capsys, alpha):
        graph = write_json(tmp_path / "k2.json",
                           {"n": 2, "edges": [[1, 2]]})
        csv = tmp_path / "d.csv"
        csv.write_text("1,2\n0.5,0.1\n-1,2\n")
        prior = tmp_path / "prior.json"
        prior.write_text('{"shape": {"alpha": %s, "beta": []}, '
                         '"scale": [[1.0, 0.0], [0.0, 1.0]]}' % alpha)
        code, out = invoke(["bayes", "fit", "--graph", graph,
                            "--data", str(csv), "--prior", str(prior)],
                           capsys)
        assert code == 1
        assert json.loads(out)["code"] == "non_numeric"

    def test_unexpected_exception_is_internal_error(self, a4_file,
                                                   monkeypatch, capsys):
        import graphwishart.cli as cli

        def boom(graph):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "decompose", boom)
        code = run(["graph", "analyze", "--graph", a4_file])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["code"] == "internal_error"
        assert doc["message"] == "boom"
        assert "RuntimeError" in captured.err

    def test_verify_normalizer(self, shape_file, scale_file, capsys):
        code, out = invoke(["verify", "normalizer",
                            "--shape", shape_file,
                            "--scale", scale_file, "--kind", "I",
                            "--n", "20000", "--seed", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["within_3_se"] is True

    def test_verify_normalizer_diagnostics(self, shape_file, scale_file,
                                           capsys):
        """The Kish ESS of the final run and the largest weight share
        are printed beside the estimate."""
        code, out = invoke(["verify", "normalizer",
                            "--shape", shape_file,
                            "--scale", scale_file, "--kind", "I",
                            "--n", "2000", "--seed", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert 1.0 <= doc["ess"] <= 2000
        assert 0.0 < doc["max_weight_share"] <= 1.0

    def test_verify_normalizer_overflow(self, tmp_path, capsys):
        """A normalizer beyond the float range (log 797.8: banded r=60,
        scale 50 I, hyper 3) is a domain error, exit 1, not a crash."""
        r = 60
        graph = {"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                   for j in range(i + 1, min(r, i + 3) + 1)]}
        matrix = [[50.0 if i == j else 0.0 if abs(i - j) <= 3 else None
                   for j in range(r)] for i in range(r)]
        shape = write_json(tmp_path / "s.json", {
            "alpha": [3.0] * (r - 3), "beta": [3.0] * (r - 4)})
        scale = write_json(tmp_path / "sc.json",
                           {"graph": graph, "matrix": matrix})
        code, out = invoke(["verify", "normalizer", "--shape", shape,
                            "--scale", scale, "--kind", "I",
                            "--n", "1000", "--seed", "1"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "degenerate_weights"
        assert doc["context"]["log_max_weight"] > 709.0

    def test_verify_mellin(self, tmp_path, capsys):
        m = write_json(tmp_path / "c.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[1.0, 0.3], [0.3, 1.0]]})
        code, out = invoke(["verify", "mellin", "--matrix", m,
                            "--p", "1.5", "--a1", "0.7",
                            "--a2", "0.9", "--n", "20000",
                            "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["within_3_se"] is True

    def test_verify_factorization(self, tmp_path, scale_file,
                                  capsys):
        shape = write_json(tmp_path / "bshape.json", {
            "alpha": [-3.0, -3.0, -3.0], "beta": [-1.0, -2.5]})
        code, out = invoke(["verify", "factorization",
                            "--shape", shape,
                            "--scale", scale_file,
                            "--n", "10", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["within_tolerance"] is True

    def test_verify_a4(self, shape_file, scale_file, capsys):
        code, out = invoke(["verify", "a4", "--shape", shape_file,
                            "--scale", scale_file, "--kind", "I"],
                           capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["log_value"])

    def test_verify_mean426(self, tmp_path, scale_file, capsys):
        shape = write_json(tmp_path / "bshape.json", {
            "alpha": [-3.0, -3.0, -3.0], "beta": [-1.0, -2.5]})
        code, out = invoke(["verify", "mean426", "--shape", shape,
                            "--scale", scale_file,
                            "--n", "20000", "--seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["within_4_se"] is True


    @pytest.mark.parametrize("n", ["0", "1"])
    def test_bayes_fit_too_few_draws(self, tmp_path, a4_file, capsys, n):
        csv = tmp_path / "d.csv"
        csv.write_text("1,2,3,4\n0.5,0.1,-1,2\n")
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-1.0, -1.0, -1.0], "beta": [1.0, -0.5]},
            "scale": np.eye(4).tolist()})
        code, out = invoke(["bayes", "fit", "--graph", a4_file,
                            "--data", str(csv), "--prior", prior,
                            "--n", n], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["code"] == "out_of_domain"
        assert doc["context"] == {"n_draws": int(n)}

    def test_verify_normalizer_one_draw(self, shape_file, scale_file,
                                        capsys):
        code, out = invoke(["verify", "normalizer", "--shape", shape_file,
                            "--scale", scale_file, "--n", "1"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "out_of_domain"

    def test_verify_factorization_no_points(self, tmp_path, scale_file,
                                            capsys):
        shape = write_json(tmp_path / "bshape.json", {
            "alpha": [-3.0, -3.0, -3.0], "beta": [-1.0, -2.5]})
        code, out = invoke(["verify", "factorization", "--shape", shape,
                            "--scale", scale_file, "--n", "0"], capsys)
        assert code == 1
        assert json.loads(out)["code"] == "out_of_domain"

    @pytest.mark.parametrize("argv, n", [
        (["dist", "sample", "--family", "type1", "--shape", "s",
          "--scale", "x"], 1),
        (["bayes", "fit", "--data", "d", "--prior", "p"], 4000),
        (["verify", "normalizer", "--shape", "s", "--scale", "x"], 100000),
        (["verify", "mellin", "--matrix", "m", "--p", "1", "--a1", "0",
          "--a2", "0"], 100000),
        (["verify", "factorization", "--shape", "s", "--scale", "x"], 50),
        (["verify", "mean426", "--shape", "s", "--scale", "x"], 100000),
    ], ids=["sample", "fit", "normalizer", "mellin", "factorization",
            "mean426"])
    def test_draw_count_defaults(self, argv, n):
        assert cli._build_parser().parse_args(argv).n == n


class TestFloatFormat:

    def test_fmt_golden(self):
        from graphwishart.cli import _fmt

        value = {"none": None, "t": True, "f": False, "nb": np.bool_(False),
                 "i": -3, "ni": np.int64(7), "x": 0.1,
                 "nx": np.float64(-2.5e-300), "nan": math.nan,
                 "inf": [math.inf, -math.inf],
                 "nest": [{"a": [1, (2.0, None, np.bool_(True))]}, []]}
        assert _fmt(value) == (
            '{"none":null,"t":true,"f":false,"nb":false,"i":-3,"ni":7,'
            '"x":0.10000000000000001,"nx":-2.5e-300,"nan":"nan",'
            '"inf":["inf","-inf"],"nest":[{"a":[1,[2,null,true]]},[]]}')

    def test_seventeen_digit_roundtrip(self, scale_file, capsys):
        code, out = invoke(["cone", "complete", "--matrix",
                            scale_file], capsys)
        doc = json.loads(out)
        m = np.array(doc["matrix"], dtype=float)
        # parse back and re-emit: values survive the text roundtrip
        assert float("%.17g" % m[0, 1]) == m[0, 1]


def _dense_json(graph, dense):
    """Matrix JSON formatted entry by entry from a dense array, None off
    the pattern: the formatting the per-graph writer must reproduce."""
    rows = [[v if on else None for v, on in zip(row, mask)]
            for row, mask in zip(dense.tolist(),
                                 graph.edge_mask().tolist())]
    return {"graph": {"n": graph.vertex_count,
                      "edges": [list(e) for e in sorted(graph.edges)]},
            "matrix": rows}


def _scatter(graph, values):
    p = graph.pattern
    out = np.zeros((graph.vertex_count,) * 2)
    out[p.rows, p.cols] = values
    out[p.cols, p.rows] = values
    return out


SPECIAL = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]


class TestPatternWriter:

    @given(spec=chordal_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_writer_matches_dense_formatting(self, spec, data):
        from graphwishart import parse_graph

        g = parse_graph(spec)
        values = np.array(data.draw(st.lists(
            st.sampled_from(SPECIAL) | st.floats(),
            min_size=g.pattern.size, max_size=g.pattern.size)))
        assert cli._fmt(cli._MatrixWriter(g)(values)) == \
            cli._fmt(_dense_json(g, _scatter(g, values)))

    @pytest.mark.parametrize("spec", [
        {"n": 1, "edges": []},
        {"n": 2, "edges": [[1, 2]]},
        {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    ], ids=["one-vertex", "edge", "path4"])
    def test_special_values(self, spec):
        """-0, the smallest subnormal, a huge value, nan and both
        infinities on every pattern entry; the one-vertex graph is the
        connected graph with no edges."""
        from graphwishart import parse_graph

        g = parse_graph(spec)
        writer = cli._MatrixWriter(g)
        for shift in range(len(SPECIAL)):
            values = np.array([SPECIAL[(s + shift) % len(SPECIAL)]
                               for s in range(g.pattern.size)])
            assert cli._fmt(writer(values)) == \
                cli._fmt(_dense_json(g, _scatter(g, values)))

    @pytest.mark.parametrize("family", ["type1", "type2", "inv_type1",
                                        "inv_type2"])
    def test_sample_matches_dense_batch(self, tmp_path, capsys, family):
        """``dist sample`` prints, line by line, the dense formatting of
        ``sample_batch`` at the same seed."""
        from graphwishart import (IncompleteMatrix, RngStream, WishartSpec,
                                  canonical_shape, decompose, parse_graph,
                                  sample_batch)

        spec = {"n": 12, "edges": [[1, j] for j in range(2, 13)]
                + [[2, 3], [2, 4], [3, 4], [5, 6]]}
        g = parse_graph(spec)
        o = decompose(g)
        shape = canonical_shape("hyper", o, 3.0) \
            if family in ("type1", "inv_type1") \
            else canonical_shape("gwishart", o, 3.0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 14))
        dense = (a @ a.T / 14 + 0.5 * np.eye(12)) * g.edge_mask()
        scale = write_json(tmp_path / "scale.json",
                           {"graph": spec, "matrix": [
                               [v if on else None for v, on in zip(row, m)]
                               for row, m in zip(dense.tolist(),
                                                 g.edge_mask().tolist())]})
        shape_file = write_json(tmp_path / "shape.json",
                                {"alpha": list(shape.alpha),
                                 "beta": list(shape.beta)})
        code, out = invoke(["dist", "sample", "--family", family,
                            "--shape", shape_file, "--scale", scale,
                            "--n", "4", "--seed", "11"], capsys)
        assert code == 0
        batch = sample_batch(
            WishartSpec(g, shape, IncompleteMatrix(g, dense), family),
            RngStream(11), 4)
        assert out == "".join(
            cli._fmt(dict(_dense_json(g, b), seed=11, index=i)) + "\n"
            for i, b in enumerate(batch))

    def test_bayes_fit_builds_no_dense_batch(self, tmp_path, capsys,
                                             monkeypatch):
        """``bayes fit --n 500`` on banded r=100 calls no
        ``sample_batch``, and its allocation peak stays below the 40 MB
        of one dense (n, r, r) batch."""
        import tracemalloc

        from graphwishart import (bayes, canonical_shape, decompose,
                                  distributions, parse_graph)

        r, n = 100, 500
        spec = {"n": r, "edges": [[i, j] for i in range(1, r + 1)
                                  for j in range(i + 1, min(r, i + 3) + 1)]}
        g = parse_graph(spec)
        shape = canonical_shape("gwishart", decompose(g), 3.0)
        graph = write_json(tmp_path / "graph.json", spec)
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": list(shape.alpha), "beta": list(shape.beta)},
            "scale": [[1.0 if i == j else (0.1 if on else None)
                       for j, on in enumerate(row)]
                      for i, row in enumerate(g.edge_mask().tolist())]})
        data = tmp_path / "data.csv"
        rows = np.random.default_rng(3).standard_normal((r + 10, r))
        data.write_text("\n".join(",".join(map(repr, row))
                                  for row in rows.tolist()))
        calls = []
        for owner in (distributions, bayes, cli):
            monkeypatch.setattr(owner, "sample_batch",
                                lambda *args: calls.append(args),
                                raising=False)
        tracemalloc.start()
        try:
            code, out = invoke(["bayes", "fit", "--graph", graph,
                                "--data", str(data), "--prior", prior,
                                "--n", str(n), "--seed", "2"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and calls == []
        assert json.loads(out)["n_obs"] == r + 10
        assert peak < n * r * r * 8
