import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphwishart
from graphwishart import HasseTree, cli
from graphwishart.cli import run

from conftest import TREE_ONLY_RULES, chordal_graphs, class_tree_only_spec


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

    def test_logpdf_point_on_another_graph(self, tmp_path, shape_file,
                                           scale_file, capsys):
        """A point whose file names a graph other than the scale's is
        refused; it was once read on the scale's graph, exit 0."""
        star = write_json(tmp_path / "star.json", {
            "graph": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
            "matrix": [[2.0, 0.4, 0.4, 0.4], [0.4, 2.0, None, None],
                       [0.4, None, 2.0, None], [0.4, None, None, 2.0]]})
        doc = _error(*invoke(["dist", "logpdf", "--family", "type1",
                              "--shape", shape_file, "--scale", scale_file,
                              "--matrix", star], capsys))
        assert doc["code"] == "graph_mismatch"

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

    @pytest.mark.parametrize("alpha", ['["x"]', "[1e400]", "[true]",
                                       "[1%s]" % ("0" * 400)],
                             ids=["string", "overflow", "bool", "huge-int"])
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

    def test_closed_stdout_exits_1_quietly(self, shape_file, scale_file):
        """A reader that closes stdout early (``| head -c 10``): the
        command exits 1 with nothing on stderr, and writes no error
        object into the closed pipe."""
        src = os.path.dirname(os.path.dirname(graphwishart.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphwishart.cli", "dist", "sample",
             "--family", "type1", "--shape", shape_file,
             "--scale", scale_file, "--n", "2000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{"graph":{'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

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


def _spec_files(tmp_path, spec):
    """The graph, scale rows and shape of a spec as JSON objects, and the
    paths of its scale and shape files."""
    g = spec.graph
    rows = [[v if on else None for v, on in zip(row, m)]
            for row, m in zip(spec.scale.data.tolist(),
                              g.edge_mask().tolist())]
    shape = {"alpha": list(spec.shape.alpha), "beta": list(spec.shape.beta)}
    graph = {"n": g.vertex_count, "edges": sorted(map(list, g.edges))}
    paths = (write_json(tmp_path / "scale.json",
                        {"graph": graph, "matrix": rows}),
             write_json(tmp_path / "shape.json", shape))
    return (graph, rows, shape) + paths


# One valid run of each subcommand: literal words, {a4}, {star},
# {scale}, {shape}, {bshape}, {prior}, {data} and {rate} name files.
COMMANDS = {
    "graph-analyze": "graph analyze --graph {a4} --order 1",
    "graph-hasse": "graph hasse --graph {star}",
    "cone-complete": "cone complete --matrix {scale}",
    "cone-phi": "cone phi --matrix {rate}",
    "dist-logpdf": "dist logpdf --family type1 --shape {shape} "
                   "--scale {scale} --matrix {scale}",
    "dist-sample": "dist sample --family type1 --shape {shape} "
                   "--scale {scale} --n 3 --seed 4",
    "dist-sample-n50": "dist sample --family type1 --shape {shape} "
                       "--scale {scale} --n 50 --seed 4",
    "dist-mean": "dist mean --family type1 --shape {shape} "
                 "--scale {scale}",
    "bayes-fit": "bayes fit --graph {a4} --data {data} --prior {prior} "
                 "--n 50 --seed 2",
    "verify-normalizer": "verify normalizer --shape {shape} "
                         "--scale {scale} --n 200 --seed 1",
    "verify-a4": "verify a4 --shape {shape} --scale {scale} --kind I",
    "verify-mellin": "verify mellin --matrix {rate} --p 1.5 --a1 0.7 "
                     "--a2 0.9 --n 200 --seed 5",
    "verify-factorization": "verify factorization --shape {bshape} "
                            "--scale {scale} --n 5 --seed 1",
    "verify-mean426": "verify mean426 --shape {bshape} --scale {scale} "
                      "--n 200 --seed 2",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_file_holds_what_stdout_gets(tmp_path, a4_file, scale_file,
                                            shape_file, capsys, command):
    """``--output FILE`` appends to the file exactly the bytes that the
    same run writes to stdout without it, and leaves stdout empty."""
    files = {
        "a4": a4_file, "scale": scale_file, "shape": shape_file,
        "star": write_json(tmp_path / "star.json",
                           {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}),
        "bshape": write_json(tmp_path / "bshape.json",
                             {"alpha": [-3.0] * 3, "beta": [-1.0, -2.5]}),
        "prior": write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-2.0] * 3, "beta": [-1.5] * 2},
            "scale": json.loads(
                (tmp_path / "scale.json").read_text())["matrix"]}),
        "rate": write_json(tmp_path / "rate.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[2.0, 0.5], [0.5, 1.0]]}),
    }
    data = tmp_path / "d.csv"
    data.write_text("0.3,-1.2,0.8,0.1\n1.1,0.4,-0.6,2.0\n"
                    "-0.5,0.9,0.2,-1.4\n0.7,-0.3,1.6,0.5\n")
    files["data"] = str(data)
    argv = COMMANDS[command].format(**files).split()
    code, out = invoke(argv, capsys)
    assert code == 0 and out
    target = tmp_path / "out.json"
    assert invoke(argv + ["--output", str(target)], capsys) == (0, "")
    assert target.read_text() == out


def test_run_that_fails_first_makes_no_output_file(tmp_path, scale_file,
                                                   capsys):
    """A command refused before its first line writes its error to
    stdout and creates no ``--output`` file."""
    target = tmp_path / "out.json"
    code, out = invoke(["dist", "sample", "--family", "type1", "--shape",
                        str(tmp_path / "missing.json"), "--scale",
                        scale_file, "--output", str(target)], capsys)
    assert code == 1 and json.loads(out)["code"] == "malformed_input"
    assert not target.exists()


class TestClassTreeSecondSide:
    """Commands on a second-side shape that only the class tree admits
    sample along the tree and exit 0."""

    @pytest.mark.parametrize("command", ["bayes-fit", "dist-sample",
                                         "verify-factorization"])
    @pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                             ids=["star-3x2", "star-2x3"])
    def test_exits_zero(self, tmp_path, capsys, hubs, leaves, command):
        from graphwishart.bayes import ingest, posterior_update

        spec = class_tree_only_spec(hubs, leaves, "inv_type2")
        g = spec.graph
        graph, rows, shape, scale, shape_file = _spec_files(tmp_path, spec)
        if command == "bayes-fit":
            data = np.random.default_rng(4).standard_normal((5, spec.r))
            assert isinstance(posterior_update(spec, ingest(data, g)).walk,
                              HasseTree)
            csv = tmp_path / "d.csv"
            csv.write_text("\n".join(",".join(map(repr, row))
                                     for row in data.tolist()))
            argv = ["bayes", "fit", "--graph",
                    write_json(tmp_path / "g.json", graph),
                    "--data", str(csv), "--n", "200", "--prior",
                    write_json(tmp_path / "prior.json",
                               {"shape": shape, "scale": rows})]
        elif command == "dist-sample":
            argv = ["dist", "sample", "--family", "inv_type2",
                    "--shape", shape_file, "--scale", scale, "--n", "5"]
        else:
            argv = ["verify", "factorization", "--shape", shape_file,
                    "--scale", scale, "--n", "10"]
        code, out = invoke(argv + ["--seed", "1"], capsys)
        assert code == 0
        if command == "verify-factorization":
            assert json.loads(out)["within_tolerance"] is True


@pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                         ids=["star-3x2", "star-2x3"])
def test_mean426_gives_no_verdict_without_power(tmp_path, capsys, hubs,
                                                leaves):
    """``verify mean426`` on a type2 shape with a step exponent at most
    (|new| + 3) / 2, where the draws' blocks have no variance: the
    residual and its standard error are printed, the verdict is null."""
    spec = class_tree_only_spec(hubs, leaves, "type2")
    assert any(p <= (len(new) + 3) / 2 for (new, _), p in
               zip(spec.walk.steps, spec.exponents) if new)
    *_, scale, shape = _spec_files(tmp_path, spec)
    code, out = invoke(["verify", "mean426", "--shape", shape, "--scale",
                        scale, "--n", "2000", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["residual"]) and doc["within_4_se"] is None


@pytest.mark.parametrize("hubs, leaves", [(3, 2), (2, 3)],
                         ids=["star-3x2", "star-2x3"])
def test_normalizer_closed_form_along_the_class_tree(tmp_path, capsys,
                                                     hubs, leaves):
    """``verify normalizer --kind I`` on a type1 shape only the class tree
    admits prints the closed form, exp(log_gamma + log_h_scale) of the
    spec along the tree, and a verdict on it."""
    spec = class_tree_only_spec(hubs, leaves, "type1",
                                *TREE_ONLY_RULES["type1"])
    *_, scale, shape = _spec_files(tmp_path, spec)
    code, out = invoke(["verify", "normalizer", "--kind", "I", "--shape",
                        shape, "--scale", scale, "--n", "2000", "--seed",
                        "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    want = math.exp(spec.log_gamma + spec.log_h_scale)
    assert abs(doc["closed_form"] - want) <= 1e-12 * want
    assert isinstance(doc["within_3_se"], bool)


def test_normalizer_skips_a_singular_candidate(tmp_path, capsys):
    """``verify normalizer --kind II`` on the 2x3 nested star's type2
    shape that only the class tree admits: the delta = 0.25 G-Wishart
    proposal draws a block that is singular in floating point, and the
    estimate goes on with the other candidates (exit 0, where the error
    of that one pilot once ended the command with exit 1).  The weights
    of the per-order proposals are heavy-tailed on this shape (a Kish
    ESS of a few draws), so only the verdict's type is checked."""
    spec = class_tree_only_spec(2, 3, "type2")
    *_, scale, shape = _spec_files(tmp_path, spec)
    code, out = invoke(["verify", "normalizer", "--kind", "II", "--shape",
                        shape, "--scale", scale, "--n", "20000", "--seed",
                        "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["proposal"][1] != 0.25
    assert math.isfinite(doc["estimate"]) and doc["std_error"] > 0
    assert isinstance(doc["within_3_se"], bool)


def _edge_scales():
    """Scales on the edge of the cone, where floating point decides, as
    (scale file object, shape file object): a 3-vertex path whose clique
    {1, 2} passes LAPACK's Cholesky but whose conditional block of
    vertex 1 given 2 does not, and a 40-vertex path whose clique {1, 2}
    is exactly singular in exact arithmetic (identity elsewhere), and a
    4-vertex graph with cliques {1, 2, 3} and {2, 3, 4} whose separator
    block on {2, 3} is exactly singular in exact arithmetic (diagonal 5
    at vertices 1 and 4, zero elsewhere)."""
    three = {"graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
             "matrix": [[2.422238057639163, 2.477, None],
                        [2.477, 2.533, 0.5], [None, 0.5, 2.0]]}
    a, b = 2.6579473058747163, 0.24876732149455005
    rows = np.eye(40).tolist()
    rows[0][:2], rows[1][:2] = [a, b], [b, b * b / a]
    forty = {"graph": {"n": 40, "edges": [[i, i + 1] for i in range(1, 40)]},
             "matrix": rows}
    four = {"graph": {"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [2, 4],
                                        [3, 4]]},
            "matrix": [[5.0, 0.0, 0.0, None], [0.0, a, b, 0.0],
                       [0.0, b, b * b / a, 0.0], [None, 0.0, 0.0, 5.0]]}
    return [(three, {"alpha": [3.0] * 2, "beta": [3.0]}),
            (forty, {"alpha": [3.0] * 39, "beta": [3.0] * 38}),
            (four, {"alpha": [3.0] * 2, "beta": [3.0]})]


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["path3", "path40", "separator4"])
@pytest.mark.parametrize("argv", [
    ["cone", "complete", "--matrix", "S"],
    ["dist", "logpdf", "--family", "type1", "--matrix", "S"],
    ["dist", "logpdf", "--family", "inv_type1", "--matrix", "S"],
    ["dist", "sample", "--family", "type1"],
    ["dist", "mean", "--family", "type1"],
    ["verify", "normalizer", "--kind", "I", "--n", "2000"],
    ["verify", "normalizer", "--kind", "II", "--n", "2000"],
], ids=["complete", "logpdf", "logpdf-inv_type1", "sample", "mean",
        "normalizer-I", "normalizer-II"])
def test_edge_of_the_cone_is_never_a_crash(tmp_path, capsys, case, argv):
    """On a scale at the edge of the cone a command succeeds (exit 0)
    or refuses with a typed error (exit 1), never exit 2; which one may
    follow the platform's rounding.  A dist or verify command takes the
    matrix as its scale too."""
    scale, shape = _edge_scales()[case]
    scale = write_json(tmp_path / "scale.json", scale)
    argv = [scale if a == "S" else a for a in argv]
    if argv[0] != "cone":
        argv += ["--scale", scale,
                 "--shape", write_json(tmp_path / "shape.json", shape)]
    code, out = invoke(argv, capsys)
    assert code in (0, 1)
    if code == 1:
        assert json.loads(out)["code"] in (
            "not_in_qg", "not_positive_definite", "out_of_support")


def test_a4_conditional_that_rounds_to_zero_is_typed(tmp_path, capsys):
    """``verify a4`` on a path-4 scale whose clique {1, 2} conditional
    of vertex 1 given 2, x11 - x12^2 / x22, rounds to a number that is
    not positive: a typed refusal naming the clique (exit 1), whether or
    not LAPACK's Cholesky admits the clique, never exit 2."""
    rows = np.eye(4).tolist()
    rows[0][:2], rows[1][:2] = [2.422238057639163, 2.477], [2.477, 2.533]
    scale = write_json(tmp_path / "scale.json", {
        "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
        "matrix": rows})
    shape = write_json(tmp_path / "shape.json",
                       {"alpha": [3.0] * 3, "beta": [3.0] * 2})
    code, out = invoke(["verify", "a4", "--kind", "I", "--scale", scale,
                        "--shape", shape], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["code"] == "not_in_qg" and doc["context"]["clique"] == [1, 2]


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


def _error(code, out):
    """The flat error object a failing command prints, checked to have
    exit code 1."""
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"code", "message", "context"}
    return doc


class TestMalformedFiles:
    """Inputs that once crashed (exit 2) or passed unchecked: each is a
    typed error with exit code 1."""

    @pytest.mark.parametrize("spec, key", [
        ({"n": 4, "edges": None}, "edges"),
        ({"n": 4, "edges": "1-2"}, "edges"),
        ({"n": 2, "edges": [[True, 2]]}, "entry"),
        ({"n": 2, "edges": [[1, False]]}, "entry"),
    ], ids=["null-edges", "string-edges", "bool-label", "bool-label-2"])
    def test_bad_edges(self, tmp_path, capsys, spec, key):
        g = write_json(tmp_path / "g.json", spec)
        doc = _error(*invoke(["graph", "analyze", "--graph", g], capsys))
        assert doc["code"] == "malformed_input" and key in doc["context"]

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_bytes(b'{"n": 2, "edges": [[1, 2]]}\xff')
        doc = _error(*invoke(["graph", "analyze", "--graph", str(g)],
                             capsys))
        assert doc["code"] == "malformed_input"
        assert doc["context"]["path"] == str(g)

    def test_data_file_not_utf8(self, tmp_path, a4_file, capsys):
        csv = tmp_path / "d.csv"
        csv.write_bytes(b"1,2,3,4\n\xff,0.1,-1,2\n")
        prior = write_json(tmp_path / "prior.json", {
            "shape": {"alpha": [-1.0, -1.0, -1.0], "beta": [1.0, -0.5]},
            "scale": np.eye(4).tolist()})
        doc = _error(*invoke(["bayes", "fit", "--graph", a4_file,
                              "--data", str(csv), "--prior", prior],
                             capsys))
        assert doc["code"] == "malformed_input"
        assert doc["context"]["path"] == str(csv)

    def test_pattern_entry_past_the_float_range(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text('{"graph": {"n": 2, "edges": [[1, 2]]}, '
                     '"matrix": [[2.0, 0.5], [0.5, 1%s]]}' % ("0" * 400))
        doc = _error(*invoke(["cone", "complete", "--matrix", str(m)],
                             capsys))
        assert doc["code"] == "non_numeric"
        assert doc["context"] == {"row": 2, "col": 2}

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text("[" * 200_000 + "]" * 200_000)
        doc = _error(*invoke(["graph", "analyze", "--graph", str(g)],
                             capsys))
        assert doc["code"] == "malformed_input"
        assert doc["context"]["path"] == str(g)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_a4_scale_outside_the_cone(self, tmp_path, shape_file, capsys,
                                       kind):
        scale = write_json(tmp_path / "scale.json", {
            "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
            "matrix": [[1.0, 2.0, None, None], [2.0, 1.0, 0.1, None],
                       [None, 0.1, 1.0, 0.1], [None, None, 0.1, 1.0]]})
        doc = _error(*invoke(["verify", "a4", "--shape", shape_file,
                              "--scale", scale, "--kind", kind], capsys))
        assert doc["code"] == "not_in_qg"
        assert doc["context"] == {"clique": [1, 2]}

    def test_a4_series_past_the_float_range(self, tmp_path, capsys):
        shape = write_json(tmp_path / "shape.json",
                           {"alpha": [400.0] * 3, "beta": [1.0, 1.0]})
        scale = write_json(tmp_path / "scale.json", {
            "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
            "matrix": [[1.0, 0.5, None, None], [0.5, 1.0, 0.9, None],
                       [None, 0.9, 1.0, 0.5], [None, None, 0.5, 1.0]]})
        doc = _error(*invoke(["verify", "a4", "--shape", shape,
                              "--scale", scale, "--kind", "I"], capsys))
        assert doc["code"] == "out_of_domain"
        assert doc["context"]["log_value"] == "inf"

    @pytest.mark.parametrize("p, a1, a2, rho", [
        ("3", "1e4", "1", 0.3), ("1e5", "1", "1", 0.3),
        ("3", "1e4", "1", 0.99),
    ], ids=["overflow", "nan", "overflow-near-one"])
    def test_mellin_closed_form_not_finite(self, tmp_path, capsys,
                                           p, a1, a2, rho):
        m = write_json(tmp_path / "c.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[1.0, rho], [rho, 1.0]]})
        doc = _error(*invoke(["verify", "mellin", "--matrix", m, "--p", p,
                              "--a1", a1, "--a2", a2, "--n", "100"],
                             capsys))
        assert doc["code"] == "out_of_domain"
        assert "log_value" in doc["context"]

    @pytest.mark.parametrize("rows, p, code", [
        ([[-2.0, 0.5], [0.5, -1.0]], "2", "out_of_domain"),
        ([[2.0, 0.5], [0.5, 1.0]], "1e308", "out_of_domain"),
    ], ids=["negative-definite", "huge-p"])
    def test_mellin_bad_rate_or_shape(self, tmp_path, capsys, rows, p,
                                      code):
        """A negative definite rate (its determinant is positive) was a
        math domain error, and p = 1e308 a nan from inf - inf that the
        warning flags turn into an exception; both exited 2."""
        m = write_json(tmp_path / "c.json", {
            "graph": {"n": 2, "edges": [[1, 2]]}, "matrix": rows})
        doc = _error(*invoke(["verify", "mellin", "--matrix", m, "--p", p,
                              "--a1", "0.5", "--a2", "0.5", "--n", "10"],
                             capsys))
        assert doc["code"] == code

    def test_mellin_rate_entries_past_the_square_root_range(self, tmp_path,
                                                            capsys):
        """c11 * c22 overflows to inf, and z is 0: no numpy overflow
        warning, and the closed form is finite."""
        m = write_json(tmp_path / "c.json", {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "matrix": [[1e200, 0.5], [0.5, 1e200]]})
        code, out = invoke(["verify", "mellin", "--matrix", m, "--p", "2",
                            "--a1", "0.5", "--a2", "0.5", "--n", "10"],
                           capsys)
        assert code == 0 and json.loads(out)["closed_form"] > 0
