"""The four closed-loop workloads.

A workload has four steps.  ``generate(seed)`` makes its inputs with
the benchmark's own generators.  ``setup(gw, inputs, clock)`` hands them
to graphwishart: only the program calls inside ``with clock:`` count
toward ``setup_s``.  ``prepare(state)`` computes reference values and
files, untimed, and returns the round of calls.  ``finish(state)`` runs
the checks that need the whole loop and returns ``(label, reason)`` for
each input they fail.

Each call is ``Call(kind, label, run, check)``: ``run(i)`` makes one
program call with call index ``i`` and is the only timed part;
``check(out)`` raises ``refs.CheckFailed`` on a wrong result.  ``kind``
is ``main``, ``aux`` or ``other`` and selects the latency metric the
call feeds; ``label`` names the input.
"""

import contextlib
import io
import os
from collections import namedtuple

import numpy as np

import gen
import refs

Call = namedtuple("Call", "kind label run check")

DRAWS_PER_CALL = 100
MEAN_Z_MAX = 6.0
MC_SE_MAX = 4.0
MC_DRAWS = 20000


def layout(ordering):
    """Block layout of a clique order, as the shape generators take it."""
    return {
        "clique_sizes": ordering.clique_sizes,
        "separator_sizes": ordering.separator_sizes,
        "distinct_sep_sizes": [len(s) for s in
                               ordering.distinct_separators],
        "occurrences": ordering.occurrences,
        "multiplicity": ordering.multiplicity,
        "sep_index": ordering.sep_index,
    }


def hyper_p(ordering):
    return (max(ordering.clique_sizes) + 3) / 2.0


GWISHART_DELTA = 3.0


def gwishart_exp(block):
    return -(GWISHART_DELTA + len(block) - 1) / 2.0


def _shape(gw, ordering, family):
    """Hyper shape on the first side, G-Wishart on the second."""
    if family in ("type1", "inv_type1"):
        a, b = gen.hyper_shape(ordering.k, ordering.k_prime,
                               hyper_p(ordering))
    else:
        lay = layout(ordering)
        a, b = gen.gwishart_shape(lay["clique_sizes"],
                                  lay["distinct_sep_sizes"],
                                  GWISHART_DELTA)
    return gw.ShapeParam(tuple(a), tuple(b))


class DrawR400:
    name = "draw-r400"
    main = "sample_batch on the path and banded specs"
    aux = "sample_batch on the nested star (class-tree walk)"

    def generate(self, seed):
        graphs = {"path": gen.path_graph(400),
                  "banded": gen.banded_graph(400, 4),
                  "nested-star": gen.nested_star_graph(20, 19)}
        return {
            "seed": seed,
            "graphs": graphs,
            "scales": {k: gen.pd_scale(g[0], gen.rng_for(seed, "scale/" + k))
                       for k, g in graphs.items()},
        }

    def setup(self, gw, inp, clock):
        specs = []
        for name, (gspec, cliques) in inp["graphs"].items():
            with clock:
                g = gw.parse_graph(gspec)
                o = gw.decompose(g)
                scale = gw.IncompleteMatrix(g, inp["scales"][name])
            if name == "nested-star":
                a, b = gen.uniform_shape(o.k, o.k_prime, 2.0, 1.0)
                plan = [("type1", gw.ShapeParam(tuple(a), tuple(b)))]
            else:
                plan = [(f, _shape(gw, o, f))
                        for f in ("type1", "inv_type1", "inv_type2")]
            for family, shape in plan:
                with clock:
                    spec = gw.WishartSpec(g, shape, scale, family,
                                          ordering=o)
                specs.append((name, family, spec))
        return {"gw": gw, "inp": inp, "specs": specs}

    def prepare(self, st):
        gw, inp = st["gw"], st["inp"]
        seed = inp["seed"]
        calls = []
        st["means"] = {}
        for name, family, spec in st["specs"]:
            gspec, cliques = inp["graphs"][name]
            mask = gen.edge_mask(gspec)
            tracker = None
            if family == "type1":
                alpha, beta = spec.shape.alpha[0], spec.shape.beta[0]
                ref = refs.mean_type1(inp["scales"][name], mask, cliques,
                                      alpha, beta)
                tracker = refs.MeanTracker(mask)
                st["means"][name] = (tracker, ref)

            def run(i, spec=spec):
                return gw.sample_batch(spec, gw.RngStream(seed, i),
                                       DRAWS_PER_CALL)

            def check(out, mask=mask, cliques=cliques, tracker=tracker):
                vals = refs.check_batch(out, mask, cliques, DRAWS_PER_CALL)
                if tracker is not None:
                    tracker.add(vals)

            kind = "aux" if name == "nested-star" else "main"
            calls.append(Call(kind, "%s/%s" % (name, family), run, check))
        return calls

    def finish(self, st):
        """Sample mean of the type1 draws against the closed-form mean."""
        failed = []
        for name, (tracker, ref) in st["means"].items():
            if tracker.n < 2:
                continue
            z = tracker.max_z(ref)
            if not z <= MEAN_Z_MAX:
                failed.append(("%s/type1" % name,
                               "sample mean is %.2f standard errors from "
                               "the closed-form mean" % z))
        return failed


class DensityR200:
    name = "density-r200"
    main = "logpdf, four families"
    aux = "mean_type1"
    families = ("type1", "inv_type1", "type2", "inv_type2")
    points = 2

    def generate(self, seed):
        graphs = {"path": gen.path_graph(200),
                  "banded": gen.banded_graph(200, 4)}
        inp = {"seed": seed, "graphs": graphs, "scales": {}, "points": {}}
        for name, (gspec, _) in graphs.items():
            inp["scales"][name] = gen.pd_scale(
                gspec, gen.rng_for(seed, "scale/" + name))
            for family in self.families:
                rng = gen.rng_for(seed, "points/%s/%s" % (name, family))
                make = gen.pd_scale if family in ("type1", "inv_type2") \
                    else gen.sparse_pd
                inp["points"][name, family] = [
                    make(gspec, rng) for _ in range(self.points)]
        return inp

    def setup(self, gw, inp, clock):
        specs = {}
        for name, (gspec, _) in inp["graphs"].items():
            with clock:
                g = gw.parse_graph(gspec)
                o = gw.decompose(g)
                scale = gw.IncompleteMatrix(g, inp["scales"][name])
            for family in self.families:
                shape = _shape(gw, o, family)
                with clock:
                    specs[name, family] = gw.WishartSpec(
                        g, shape, scale, family, ordering=o)
        return {"gw": gw, "inp": inp, "specs": specs}

    def prepare(self, st):
        gw, inp, specs = st["gw"], st["inp"], st["specs"]
        calls = []
        for name, (gspec, cliques) in inp["graphs"].items():
            mask = gen.edge_mask(gspec)
            scale = inp["scales"][name]
            for family in self.families:
                spec = specs[name, family]
                if family in ("type1", "inv_type1"):
                    p = spec.shape.alpha[0]
                    exp = (lambda block, p=p: p)
                    wrap = gw.IncompleteMatrix if family == "type1" \
                        else gw.SparsePrecision
                else:
                    exp = gwishart_exp
                    wrap = gw.SparsePrecision if family == "type2" \
                        else gw.IncompleteMatrix
                for k, data in enumerate(inp["points"][name, family]):
                    ref = refs.logpdf(family, data, scale, mask, cliques,
                                      exp)
                    point = wrap(spec.graph, data)

                    def run(i, spec=spec, point=point):
                        return gw.logpdf(spec, point)

                    def check(out, ref=ref):
                        refs.check_close(out, ref, "logpdf", 1e-9, 1e-8)

                    calls.append(Call("main", "%s/%s/logpdf%d" % (
                        name, family, k), run, check))
            t1 = specs[name, "type1"]
            p = t1.shape.alpha[0]
            ref1 = refs.mean_type1(scale, mask, cliques, p, p)
            ref2 = refs.mean_type2(scale, cliques, gwishart_exp,
                                   gwishart_exp)

            def run1(i, spec=t1):
                return gw.mean_type1(spec)

            def check1(out, ref=ref1):
                refs.check_matrix_close(out.data, ref, "mean_type1")

            def run2(i, spec=specs[name, "type2"]):
                return gw.mean_type2(spec)

            def check2(out, ref=ref2):
                refs.check_matrix_close(out.data, ref, "mean_type2")

            calls.append(Call("aux", name + "/mean_type1", run1, check1))
            calls.append(Call("other", name + "/mean_type2", run2, check2))
        return calls

    def finish(self, st):
        return []


class CliMixed:
    name = "cli-mixed"
    main = "cli bayes fit"
    aux = "cli dist sample --n 50"
    kinds = ("banded", "star", "random")
    sizes = (20, 60, 100)
    sample_n = 50

    def generate(self, seed):
        inp = {"seed": seed, "graphs": {}, "scales": {}, "rows": {}}
        for kind in self.kinds:
            for r in self.sizes:
                key = "%s-%d" % (kind, r)
                if kind == "banded":
                    graph = gen.banded_graph(r, 3)
                elif kind == "star":
                    graph = gen.star_graph(r)
                else:
                    graph = gen.random_chordal_graph(
                        r, gen.rng_for(seed, "graph/" + key))
                inp["graphs"][key] = graph
                inp["scales"][key] = gen.pd_scale(
                    graph[0], gen.rng_for(seed, "scale/" + key))
                inp["rows"][key] = gen.gaussian_rows(
                    r + 10, r, gen.rng_for(seed, "rows/" + key))
        return inp

    def setup(self, gw, inp, clock):
        with clock:
            import graphwishart.cli  # noqa: F401  (the CLI's own import)
        parsed = {}
        for key, (gspec, _) in inp["graphs"].items():
            with clock:
                g = gw.parse_graph(gspec)
                o = gw.decompose(g)
                scale = gw.IncompleteMatrix(g, inp["scales"][key])
            # The prior of bayes fit, and the type1 spec of dist sample.
            prior_shape = _shape(gw, o, "inv_type2")
            with clock:
                gw.WishartSpec(g, prior_shape, scale, "inv_type2",
                               ordering=o)
            sample_shape = None
            if key.endswith("-100"):
                sample_shape = _shape(gw, o, "type1")
                with clock:
                    gw.WishartSpec(g, sample_shape, scale, "type1",
                                   ordering=o)
            parsed[key] = (prior_shape, sample_shape)
        return {"gw": gw, "inp": inp, "parsed": parsed}

    def prepare(self, st):
        gw, inp = st["gw"], st["inp"]
        work = st["workdir"]
        cli = gw.cli
        expected = {}

        def file(key, what):
            return os.path.join(work, "%s.%s" % (key, what))

        for key, (gspec, _) in inp["graphs"].items():
            prior_shape, sample_shape = st["parsed"][key]
            scale = inp["scales"][key]
            rows = inp["rows"][key]
            gen.write_json(file(key, "graph.json"), gspec)
            gen.write_json(file(key, "prior.json"), {
                "shape": {"alpha": list(prior_shape.alpha),
                          "beta": list(prior_shape.beta)},
                "scale": gen.matrix_rows(gspec, scale)})
            gen.write_csv(file(key, "data.csv"), rows)
            expected[key] = scale + (rows.T @ rows) * gen.edge_mask(gspec)
            if sample_shape is not None:
                gen.write_json(file(key, "shape.json"), {
                    "alpha": list(sample_shape.alpha),
                    "beta": list(sample_shape.beta)})
                gen.write_json(file(key, "scale.json"),
                               {"matrix": gen.matrix_rows(gspec, scale)})

        def invoke(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue()

        calls = []
        for kind in self.kinds:
            for r in self.sizes:
                key = "%s-%d" % (kind, r)
                mask = gen.edge_mask(inp["graphs"][key][0])
                argv = ["bayes", "fit", "--graph", file(key, "graph.json"),
                        "--data", file(key, "data.csv"),
                        "--prior", file(key, "prior.json")]
                if r > 20:
                    argv += ["--n", "500"]

                def run(i, argv=argv):
                    return invoke(argv + ["--seed", str(i)])

                def check(out, mask=mask, exp=expected[key]):
                    refs.check_fit_output(out[0], out[1], mask, exp)

                calls.append(Call("main", key + "/fit", run, check))
            key = "%s-%d" % (kind, self.sizes[-1])
            mask = gen.edge_mask(inp["graphs"][key][0])
            argv = ["dist", "sample", "--family", "type1",
                    "--graph", file(key, "graph.json"),
                    "--shape", file(key, "shape.json"),
                    "--scale", file(key, "scale.json"),
                    "--n", str(self.sample_n)]

            def run_s(i, argv=argv):
                return invoke(argv + ["--seed", str(i)])

            def check_s(out, mask=mask):
                refs.check_sample_output(out[0], out[1], mask,
                                         self.sample_n)

            calls.append(Call("aux", key + "/sample", run_s, check_s))
        return calls

    def finish(self, st):
        return []


A4_EDGES = [[1, 2], [2, 3], [3, 4]]
G0_EDGES = [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [1, 5], [2, 5],
            [1, 6]]
FIG1_EDGES = [[1, 2], [1, 3], [1, 7], [2, 3], [2, 7], [3, 7],
              [1, 4], [2, 4], [1, 5], [2, 5], [1, 6]]


class McVerify:
    name = "mc-verify"
    main = "mc_normalizer kind I"
    aux = "mc_normalizer kind II"

    def generate(self, seed):
        graphs = {"path4": gen.named_graph(4, A4_EDGES),
                  "g0": gen.named_graph(6, G0_EDGES),
                  "fig1": gen.named_graph(7, FIG1_EDGES),
                  "star20": gen.star_graph(20),
                  "banded20": gen.banded_graph(20, 3)}
        return {
            "seed": seed,
            "graphs": graphs,
            "scales": {k: gen.pd_scale(g[0], gen.rng_for(seed, "scale/" + k))
                       for k, g in graphs.items()},
        }

    def setup(self, gw, inp, clock):
        items = []
        seed = inp["seed"]
        for name, (gspec, _) in inp["graphs"].items():
            with clock:
                g = gw.parse_graph(gspec)
                o = gw.decompose(g)
                scale = gw.IncompleteMatrix(g, inp["scales"][name])
            lay = layout(o)
            shapes = {
                "I": gen.first_admissible_shape(
                    lay, gen.rng_for(seed, "shape/I/" + name),
                    hyper_p(o)),
                "II": gen.second_admissible_shape(
                    lay, gen.rng_for(seed, "shape/II/" + name),
                    GWISHART_DELTA),
            }
            for kind, family in (("I", "type1"), ("II", "inv_type2")):
                shape = gw.ShapeParam(*map(tuple, shapes[kind]))
                with clock:
                    gw.WishartSpec(g, shape, scale, family, ordering=o)
                items.append((name, kind, g, o, shape, scale))
        return {"gw": gw, "inp": inp, "items": items}

    def prepare(self, st):
        gw, seed = st["gw"], st["inp"]["seed"]
        calls = []
        for name, kind, g, o, shape, scale in st["items"]:
            log_gamma = gw.log_gamma_I if kind == "I" else gw.log_gamma_II
            targets = [np.exp(log_gamma(shape, o)
                              + gw.log_h(shape, scale, o))]
            if name == "path4":
                targets.append(np.exp(gw.a4_closed_form(kind, shape,
                                                        scale)))

            def run(i, args=(kind, g, o, shape, scale)):
                return gw.mc_normalizer(*args, gw.RngStream(seed, i),
                                        MC_DRAWS)

            def check(est, targets=targets):
                refs.require(np.isfinite(est.value) and est.std_error > 0,
                             "estimate is degenerate")
                for t in targets:
                    refs.require(
                        abs(est.value - t) <= MC_SE_MAX * est.std_error,
                        "estimate %.6g is %.2f standard errors from %.6g"
                        % (est.value, abs(est.value - t) / est.std_error,
                           t))

            calls.append(Call("main" if kind == "I" else "aux",
                              "%s/%s" % (name, kind), run, check))
        return calls

    def finish(self, st):
        return []


WORKLOADS = {w.name: w for w in (DrawR400, DensityR200, CliMixed,
                                 McVerify)}
