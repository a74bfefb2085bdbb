"""Self-tests of the benchmark: deterministic inputs, checks that reject
injected faults, and the tracer's self-time arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

import gen
import refs
import run
import spans
import workloads


def _bytes(obj):
    """Stable byte image of nested inputs (dicts, lists, arrays)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + repr(obj.shape).encode() + \
            obj.tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(repr(k).encode() + b":" + _bytes(v)
                                for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_bytes(v) for v in obj) + b"]"
    return repr(obj).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic(name):
    wl = workloads.WORKLOADS[name]()
    assert _bytes(wl.generate(7)) == _bytes(wl.generate(7))
    assert _bytes(wl.generate(7)) != _bytes(wl.generate(8))


def test_cli_files_are_byte_identical(tmp_path):
    wl = workloads.CliMixed()
    images = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        _, state = run.setup_once(wl, wl.generate(3))
        state["workdir"] = str(work)
        wl.prepare(state)
        images.append({p.name: p.read_bytes() for p in work.iterdir()})
    assert images[0] == images[1]
    assert len(images[0]) == 9 * 3 + 3 * 2


def test_random_chordal_graph_is_a_clique_tree():
    spec, cliques = gen.random_chordal_graph(100, gen.rng_for(1, "t"))
    assert spec["n"] == 100
    assert set().union(*map(set, cliques)) == set(range(1, 101))
    hist = set(cliques[0])
    for c in cliques[1:]:
        sep = set(c) & hist
        assert sep and any(sep <= set(d) for d in cliques)
        hist |= set(c)


# Checks reject injected faults.

def _small_draws(family="type1"):
    import graphwishart as gw

    spec, cliques = gen.banded_graph(12, 2)
    scale = gen.pd_scale(spec, gen.rng_for(1, "s"))
    g = gw.parse_graph(spec)
    o = gw.decompose(g)
    s = gw.WishartSpec(g, workloads._shape(gw, o, family),
                       gw.IncompleteMatrix(g, scale), family, ordering=o)
    batch = gw.sample_batch(s, gw.RngStream(1), 50)
    return batch, gen.edge_mask(spec), cliques, s, scale


def test_batch_check_accepts_real_draws():
    batch, mask, cliques, _, _ = _small_draws()
    refs.check_batch(batch, mask, cliques, 50)


def test_batch_check_rejects_entry_off_pattern():
    batch, mask, cliques, _, _ = _small_draws()
    batch[3, 0, 11] = batch[3, 11, 0] = 1e-3
    with pytest.raises(refs.CheckFailed, match="off the pattern"):
        refs.check_batch(batch, mask, cliques, 50)


def test_batch_check_rejects_clique_block_not_pd():
    batch, mask, cliques, _, _ = _small_draws()
    batch[0, 0, 0] = -1.0
    with pytest.raises(refs.CheckFailed, match="positive definite"):
        refs.check_batch(batch, mask, cliques, 50)


def test_batch_check_rejects_asymmetry_and_nan():
    batch, mask, cliques, _, _ = _small_draws()
    bad = batch.copy()
    bad[5, 0, 1] += 1e-6
    with pytest.raises(refs.CheckFailed, match="symmetric"):
        refs.check_batch(bad, mask, cliques, 50)
    bad = batch.copy()
    bad[5, 0, 0] = np.nan
    with pytest.raises(refs.CheckFailed, match="non-finite"):
        refs.check_batch(bad, mask, cliques, 50)


def test_mean_check_rejects_a_wrong_mean():
    import graphwishart as gw

    _, mask, cliques, spec, scale = _small_draws()
    tracker = refs.MeanTracker(mask)
    for i in range(40):
        batch = gw.sample_batch(spec, gw.RngStream(2, i), 100)
        tracker.add(refs.check_batch(batch, mask, cliques, 100))
    p = spec.shape.alpha[0]
    ref = refs.mean_type1(scale, mask, cliques, p, p)
    assert np.allclose(ref, gw.mean_type1(spec).data, atol=1e-12)
    assert tracker.max_z(ref) <= workloads.MEAN_Z_MAX
    assert tracker.max_z(ref * 1.1) > workloads.MEAN_Z_MAX


@pytest.mark.parametrize("family",
                         ["type1", "inv_type1", "type2", "inv_type2"])
def test_logpdf_reference_matches_and_rejects_perturbation(family):
    import graphwishart as gw

    spec, cliques = gen.random_chordal_graph(30, gen.rng_for(4, "g"))
    mask = gen.edge_mask(spec)
    rng = gen.rng_for(4, "x")
    scale = gen.pd_scale(spec, rng)
    g = gw.parse_graph(spec)
    o = gw.decompose(g)
    s = gw.WishartSpec(g, workloads._shape(gw, o, family),
                       gw.IncompleteMatrix(g, scale), family, ordering=o)
    if family in ("type1", "inv_type2"):
        data, wrap = gen.pd_scale(spec, rng), gw.IncompleteMatrix
    else:
        data, wrap = gen.sparse_pd(spec, rng), gw.SparsePrecision
    p = s.shape.alpha[0]
    exp = (lambda b: p) if family in ("type1", "inv_type1") \
        else workloads.gwishart_exp
    ref = refs.logpdf(family, data, scale, mask, cliques, exp)
    value = gw.logpdf(s, wrap(g, data))
    refs.check_close(value, ref, "logpdf", 1e-9, 1e-8)
    with pytest.raises(refs.CheckFailed, match="differs"):
        refs.check_close(value + 1e-3, ref, "logpdf", 1e-9, 1e-8)


def test_mean_type2_reference_matches():
    import graphwishart as gw

    _, mask, cliques, _, scale = _small_draws()
    _, _, _, s, _ = _small_draws("type2")
    ref = refs.mean_type2(scale, cliques, workloads.gwishart_exp,
                          workloads.gwishart_exp)
    refs.check_matrix_close(gw.mean_type2(s).data, ref, "mean_type2")
    with pytest.raises(refs.CheckFailed):
        refs.check_matrix_close(gw.mean_type2(s).data * 1.001, ref,
                                "mean_type2")


def test_cli_checks_reject_faults():
    spec, _ = gen.path_graph(4)
    mask = gen.edge_mask(spec)
    scale = gen.pd_scale(spec, gen.rng_for(1, "c"))
    good = {"matrix": gen.matrix_rows(spec, scale)}
    refs.check_cli_matrix(good, mask, "m")
    off = json.loads(json.dumps(good))
    off["matrix"][0][3] = off["matrix"][3][0] = 0.5
    with pytest.raises(refs.CheckFailed, match="null"):
        refs.check_cli_matrix(off, mask, "m")
    text = json.dumps({k: good for k in ("posterior_scale",
                                         "precision_mean", "sigma_mean",
                                         "sigma_se")})
    refs.check_fit_output(0, text, mask, scale)
    with pytest.raises(refs.CheckFailed, match="posterior_scale"):
        refs.check_fit_output(0, text, mask, scale + 1e-6 * mask)
    with pytest.raises(refs.CheckFailed, match="exited"):
        refs.check_fit_output(1, text, mask, scale)


def test_loop_check_fails_each_call_once():
    calls = [workloads.Call("main", "a", lambda i: i, lambda out: None),
             workloads.Call("main", "b", lambda i: i,
                            lambda out: refs.require(out % 4 != 3, "bad"))]
    stats = run.run_loop(calls, rounds=4)
    assert (stats["ok"], stats["failed"]) == (6, 2)
    run.fail_inputs(stats, [("b", "mean is off")])
    assert (stats["ok"], stats["failed"]) == (4, 4)
    assert stats["failed_by_label"] == {"b": 4}


# Tracer.

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        inner()
        clock.now += 3.0

    inner = tracer.wrap(leaf, "cones.leaf", "cones")
    mid = tracer.wrap(middle, "shapes.middle", "shapes")

    def top():
        clock.now += 4.0
        mid()
        inner()
        clock.now += 0.5

    outer = tracer.wrap(top, "graphs.top", "graphs")
    outer()
    own = spans.self_times(tracer.spans)
    assert [s[0] for s in tracer.spans] == \
        ["graphs.top", "shapes.middle", "cones.leaf", "cones.leaf"]
    assert own == [4.5, 4.0, 2.0, 2.0]
    summary = spans.summarize(tracer.spans, ops=2)
    assert summary["layer_ms"]["graphs"] == pytest.approx(2250.0)
    assert summary["layer_ms"]["shapes"] == pytest.approx(2000.0)
    assert summary["layer_ms"]["cones"] == pytest.approx(2000.0)
    assert summary["calls"]["cones.leaf"] == 1.0
    total = (tracer.spans[0][3] - tracer.spans[0][2]) * 1e3 / 2
    assert sum(summary["layer_ms"].values()) == pytest.approx(total)


def test_instrument_reaches_names_imported_elsewhere():
    gw = run.fresh_import()
    import graphwishart.distributions as dist

    spec, _ = gen.path_graph(5)
    g = gw.parse_graph(spec)
    o = gw.decompose(g)
    scale = gw.IncompleteMatrix(g, gen.pd_scale(spec, gen.rng_for(1, "i")))
    s = gw.WishartSpec(g, workloads._shape(gw, o, "type1"), scale,
                       "type1", ordering=o)
    original = dist.precision_of
    tracer = spans.Tracer().instrument()
    try:
        assert dist.precision_of is not original
        gw.logpdf(s, scale)
    finally:
        tracer.uninstall()
    assert dist.precision_of is original
    names = [x[0] for x in tracer.spans]
    assert names[0] == "distributions.logpdf"
    assert "cones.precision_of" in names
    assert "cones.require_qg" in names
    assert "graphs.edge_mask" in names
    assert tracer.missing == []


# The command.

def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    return code, buf.getvalue().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    code, lines = _run(["--workload", "mc-verify", "--seed", "1",
                        "--seconds", "0.1", "--trace", trace])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "mc-verify", "--seed", "1",
                     "--seconds", "1"]) == 2
