"""Command line front end.

Everything speaks JSON: graphs as {"n": ..., "edges": [[i, j], ...]},
matrices as {"graph": ..., "matrix": [[...]]} with null at non-pattern
positions, shapes as {"alpha": [...], "beta": [...]} in the order of
the canonical clique decomposition.  Floating point numbers are
printed with 17 significant digits so identical inputs give
byte-identical output.
"""

import argparse
import csv
import functools
import json
import math
import sys
import traceback

import numpy as np

from .bayes import ingest, posterior_summaries, posterior_update
from .cones import (
    IncompleteMatrix,
    SparsePrecision,
    _check_symmetric,
    complete,
    phi,
)
from .distributions import (
    FAMILIES,
    RngStream,
    WishartSpec,
    logpdf,
    mean_type1,
    mean_type2,
    sample,
)
from .errors import (
    GraphWishartError,
    MalformedInput,
    NonNumeric,
    OutOfDomain,
)
from .graphs import (
    _class_tree,
    decompose,
    enumerate_perfect_orders,
    homogeneous_structure,
    parse_graph,
)
from .shapes import (
    ShapeParam,
    check_alignment,
    log_gamma_I,
    log_gamma_II,
    log_h,
)
from .verify import (
    a4_closed_form,
    check_factorization,
    check_mean426,
    mc_normalizer,
    mellin_2x2,
)

__all__ = ["main", "run"]


class _Json(str):
    """Text that is already JSON; :func:`_fmt` writes it as it is."""


def _fmt(value):
    # None and plain floats first: they are nearly every matrix entry.
    if value is None:
        return "null"
    if type(value) is float:
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return "%.17g" % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return _fmt(float(value))
    if isinstance(value, str):
        return value if type(value) is _Json else json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(
            "%s:%s" % (json.dumps(str(k)), _fmt(v))
            for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError("cannot serialize %r" % (value,))


def _emit(obj, output=None):
    text = _fmt(obj) + "\n"
    if output:
        with open(output, "a") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput("cannot read JSON file",
                             path=path, reason=str(exc)) from exc


def _load_graph(path):
    return parse_graph(_load_json(path))


def _load_matrix(args, path, graph=None):
    """(graph, dense array) of a matrix file.  The graph is the file's
    own, else ``graph``, else the one ``--graph`` names."""
    if graph is None and args.graph:
        graph = _load_graph(args.graph)
    obj = _load_json(path)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise MalformedInput("matrix file needs a 'matrix' key",
                             path=path)
    if "graph" in obj:
        graph = parse_graph(obj["graph"])
    if graph is None:
        raise MalformedInput(
            "matrix file has no graph; pass --graph", path=path)
    return graph, _pattern_rows(obj["matrix"], graph, "matrix", path)


def _pattern_rows(rows, graph, key, path):
    """Dense symmetric array from the JSON rows stored under ``key``:
    a number at every pattern entry, null (or 0) everywhere else."""
    r = graph.vertex_count
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise MalformedInput("%r must be a list of rows" % key, path=path)
    if len(rows) != r or any(len(row) != r for row in rows):
        raise MalformedInput("%s has wrong dimensions" % key,
                             expected=r, path=path)
    out = []
    for i, (row, on) in enumerate(zip(rows, graph.edge_mask().tolist())):
        vals = [0.0] * r
        for j, (v, m) in enumerate(zip(row, on)):
            if m:
                if type(v) not in (int, float):
                    raise NonNumeric("pattern entry is not a number",
                                     row=i + 1, col=j + 1)
                vals[j] = v
            elif v is not None and v != 0:
                raise MalformedInput("non-null entry off the graph pattern",
                                     row=i + 1, col=j + 1)
        out.append(vals)
    data = np.array(out, dtype=float)
    _check_symmetric(data, data.T)
    return data


def _load_shape(path, ordering):
    obj = _load_json(path)
    try:
        shape = ShapeParam(tuple(obj["alpha"]), tuple(obj["beta"]))
    except (KeyError, TypeError) as exc:
        raise MalformedInput("shape file needs 'alpha' and 'beta'",
                             path=path) from exc
    check_alignment(shape, ordering)
    return shape


def _graph_json(graph):
    return {"n": graph.vertex_count,
            "edges": [list(e) for e in sorted(graph.edges)]}


class _MatrixWriter:
    """Matrix JSON on one graph from packed values: the graph's JSON and
    a row template (``%s`` at each pattern entry, null elsewhere) are
    formatted once, and ``order`` lists the slots of the pattern entries
    in dense row-major order, so a matrix formats only those entries."""

    def __init__(self, graph):
        p = graph.pattern
        self.graph = _Json(_fmt(_graph_json(graph)))
        self.order = p.pos[p.mask]
        self.template = "[%s]" % ",".join(
            "[%s]" % ",".join("%s" if on else "null" for on in row)
            for row in p.mask.tolist())

    def __call__(self, values):
        """{"graph", "matrix"} object of a packed (r + |E|,) array."""
        return {"graph": self.graph, "matrix": _Json(self.template % tuple(
            map(_fmt, values[self.order].tolist())))}


def _scale_and_shape(args):
    """The --scale matrix and the --shape aligned with its graph."""
    graph, data = _load_matrix(args, args.scale)
    shape = _load_shape(args.shape, decompose(graph))
    return IncompleteMatrix(graph, data), shape


def _spec_from_args(args, family=None):
    scale, shape = _scale_and_shape(args)
    return WishartSpec(scale.graph, shape, scale, family or args.family)


def _require_graph(args):
    if not args.graph:
        raise MalformedInput("this command needs --graph")
    return _load_graph(args.graph)


def _cmd_graph_analyze(args):
    graph = _require_graph(args)
    ordering = decompose(graph)
    if args.order is not None:
        orders = enumerate_perfect_orders(graph)
        if not 0 <= args.order < len(orders):
            raise OutOfDomain("order index out of range",
                              order=args.order, count=len(orders))
        ordering = orders[args.order]
    _emit({
        **_graph_json(graph),
        "cliques": [list(c) for c in ordering.cliques],
        "separators": [list(s) for s in ordering.separators],
        "distinct_separators": [list(s) for s in
                                ordering.distinct_separators],
        "multiplicities": list(ordering.multiplicity),
        "residuals": [list(rv) for rv in ordering.residuals],
        "homogeneous": _class_tree(graph) is not None,
    }, args.output)
    return 0


def _cmd_graph_hasse(args):
    graph = _require_graph(args)
    tree = homogeneous_structure(graph)
    nu = {}
    for u in range(tree.node_count):
        if tree.children[u]:
            key = "{" + ",".join(str(v) for v in tree.vertex_sets[u]) \
                + "}"
            nu[key] = len(tree.children[u]) - 1
    _emit({
        "classes": [list(c) for c in tree.classes],
        "parent": list(tree.parent),
        "vertex_sets": [list(v) for v in tree.vertex_sets],
        "roles": ["separator" if tree.children[u] else "clique"
                  for u in range(tree.node_count)],
        "nu": nu,
        "root": tree.root,
    }, args.output)
    return 0


def _cmd_cone_complete(args):
    graph, data = _load_matrix(args, args.matrix)
    hat = complete(IncompleteMatrix(graph, data))
    _emit({"graph": _graph_json(graph), "matrix": hat.tolist()},
          args.output)
    return 0


def _cmd_cone_phi(args):
    graph, data = _load_matrix(args, args.matrix)
    x = phi(SparsePrecision(graph, data))
    _emit(_MatrixWriter(graph)(x.values), args.output)
    return 0


def _cmd_dist_logpdf(args):
    spec = _spec_from_args(args)
    _, pdata = _load_matrix(args, args.matrix, spec.graph)
    point = spec.cone(spec.graph, pdata)
    _emit({"family": spec.family, "logpdf": logpdf(spec, point)},
          args.output)
    return 0


def _cmd_dist_sample(args):
    spec = _spec_from_args(args)
    writer = _MatrixWriter(spec.graph)
    for i, x in enumerate(sample(spec, RngStream(args.seed), args.n)):
        _emit(dict(writer(x.values), seed=args.seed, index=i), args.output)
    return 0


def _cmd_dist_mean(args):
    spec = _spec_from_args(args)
    means = {"type1": mean_type1, "type2": mean_type2}
    if spec.family not in means:
        raise OutOfDomain("closed-form mean available for type1 and "
                          "type2 only", family=spec.family)
    _emit(_MatrixWriter(spec.graph)(means[spec.family](spec).values),
          args.output)
    return 0


def _cmd_bayes_fit(args):
    graph = _require_graph(args)
    prior_obj = _load_json(args.prior)
    try:
        shape = ShapeParam(tuple(prior_obj["shape"]["alpha"]),
                           tuple(prior_obj["shape"]["beta"]))
        scale_rows = prior_obj["scale"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(
            "prior file needs 'shape' and 'scale'") from exc
    data = _pattern_rows(scale_rows, graph, "scale", args.prior)
    prior = WishartSpec(graph, shape, IncompleteMatrix(graph, data),
                        "inv_type2")
    with open(args.data) as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        table = [[float(c) for c in row] for row in rows]
    except ValueError as exc:
        raise NonNumeric("data file has non-numeric cells") from exc
    sample_stats = ingest(table, graph)
    post = posterior_update(prior, sample_stats)
    summ = posterior_summaries(post, RngStream(args.seed), n_draws=args.n)
    writer, p = _MatrixWriter(graph), graph.pattern
    _emit({
        "seed": args.seed,
        "n_obs": sample_stats.n,
        "posterior_shape": {"alpha": list(post.shape.alpha),
                            "beta": list(post.shape.beta)},
        "posterior_scale": writer(post.scale.values),
        "precision_mean": writer(summ["precision_mean"].values),
        "sigma_mean": writer(summ["sigma_mean"].values),
        "sigma_se": writer(summ["sigma_se"][p.rows, p.cols]),
        "convention": "prior on twice the covariance pattern; "
                      "summaries are on the covariance scale",
    }, args.output)
    return 0


def _within(gap, k, se):
    """Whether |gap| is at most k standard errors; None when se is 0."""
    return abs(gap) <= k * se if se > 0 else None


def _cmd_verify_normalizer(args):
    scale, shape = _scale_and_shape(args)
    graph = scale.graph
    ordering = decompose(graph)
    kind = args.kind
    rng = RngStream(args.seed)
    est = mc_normalizer(kind, graph, ordering, shape, scale, rng, args.n)
    log_gamma = log_gamma_I if kind == "I" else log_gamma_II
    try:
        closed = math.exp(log_gamma(shape, ordering)
                          + log_h(shape, scale, ordering))
    except GraphWishartError:
        closed = None
    except OverflowError:
        closed = math.inf
    verdict = None if closed is None else \
        _within(est.value - closed, 3.0, est.std_error)
    _emit({
        "seed": args.seed, "kind": kind, "n": est.n_draws,
        "estimate": est.value, "std_error": est.std_error,
        "closed_form": closed, "within_3_se": verdict,
        "proposal": list(est.proposal), "ess": est.ess,
        "max_weight_share": est.max_weight_share,
    }, args.output)
    return 0


def _cmd_verify_a4(args):
    scale, shape = _scale_and_shape(args)
    val = a4_closed_form(args.kind, shape, scale)
    _emit({"kind": args.kind, "log_value": val}, args.output)
    return 0


def _cmd_verify_mellin(args):
    graph, data = _load_matrix(args, args.matrix)
    if graph.vertex_count != 2:
        raise OutOfDomain("rate matrix must be 2x2",
                          n=graph.vertex_count)
    closed, est = mellin_2x2(args.p, args.a1, args.a2, data,
                             RngStream(args.seed), args.n)
    _emit({
        "seed": args.seed, "closed_form": closed,
        "estimate": est.value, "std_error": est.std_error,
        "within_3_se": _within(closed - est.value, 3.0, est.std_error),
        "n": est.n_draws,
    }, args.output)
    return 0


def _cmd_verify_factorization(args):
    spec = _spec_from_args(args, family="inv_type2")
    rng = RngStream(args.seed)
    npts = args.n
    if npts < 1:
        raise OutOfDomain("need at least one point", n=npts)
    worst = max(check_factorization(spec, point)
                for point in sample(spec, rng, npts))
    _emit({
        "seed": args.seed, "points": npts, "max_residual": worst,
        "within_tolerance": worst < 1e-10,
    }, args.output)
    return 0


def _cmd_verify_mean426(args):
    spec = _spec_from_args(args, family="type2")
    est = check_mean426(spec, RngStream(args.seed), args.n)
    _emit({
        "seed": args.seed, "residual": est.value,
        "std_error": est.std_error, "n": est.n_draws,
        "within_4_se": _within(est.value, 4.0, est.std_error),
    }, args.output)
    return 0


_FLAGS = {
    "--graph": {},
    "--output": {},
    "--matrix": {"required": True},
    "--shape": {"required": True},
    "--scale": {"required": True},
    "--data": {"required": True},
    "--prior": {"required": True},
    "--n": {"type": int},
    "--order": {"type": int},
    "--seed": {"type": int, "default": 0},
    "--p": {"type": float, "required": True},
    "--a1": {"type": float, "required": True},
    "--a2": {"type": float, "required": True},
    "--kind": {"choices": ("I", "II"), "default": "I"},
    "--family": {"required": True, "choices": FAMILIES},
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="graphwishart",
        description="Wishart families on decomposable graph cones")
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group_parser, name, fn, flags, **defaults):
        p = group_parser.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn, **defaults)

    graph = sub.add_parser("graph").add_subparsers(
        dest="cmd", required=True)
    add(graph, "analyze", _cmd_graph_analyze,
        ["--graph", "--order", "--output"])
    add(graph, "hasse", _cmd_graph_hasse, ["--graph", "--output"])

    cone = sub.add_parser("cone").add_subparsers(
        dest="cmd", required=True)
    add(cone, "complete", _cmd_cone_complete,
        ["--matrix", "--graph", "--output"])
    add(cone, "phi", _cmd_cone_phi, ["--matrix", "--graph", "--output"])

    dist = sub.add_parser("dist").add_subparsers(
        dest="cmd", required=True)
    add(dist, "logpdf", _cmd_dist_logpdf,
        ["--family", "--shape", "--scale", "--matrix", "--graph",
         "--output"])
    add(dist, "sample", _cmd_dist_sample,
        ["--family", "--shape", "--scale", "--graph", "--n", "--seed",
         "--output"], n=1)
    add(dist, "mean", _cmd_dist_mean,
        ["--family", "--shape", "--scale", "--graph", "--output"])

    bayes = sub.add_parser("bayes").add_subparsers(
        dest="cmd", required=True)
    add(bayes, "fit", _cmd_bayes_fit,
        ["--graph", "--data", "--prior", "--n", "--seed", "--output"],
        n=4000)

    verify = sub.add_parser("verify").add_subparsers(
        dest="cmd", required=True)
    add(verify, "normalizer", _cmd_verify_normalizer,
        ["--graph", "--shape", "--scale", "--kind", "--n", "--seed",
         "--output"], n=100000)
    add(verify, "a4", _cmd_verify_a4,
        ["--graph", "--shape", "--scale", "--kind", "--output"])
    add(verify, "mellin", _cmd_verify_mellin,
        ["--matrix", "--graph", "--p", "--a1", "--a2", "--n",
         "--seed", "--output"], n=100000)
    add(verify, "factorization", _cmd_verify_factorization,
        ["--shape", "--scale", "--graph", "--n", "--seed",
         "--output"], n=50)
    add(verify, "mean426", _cmd_verify_mean426,
        ["--shape", "--scale", "--graph", "--n", "--seed",
         "--output"], n=100000)
    return parser


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphWishartError as exc:
        err = exc
    except OSError as exc:
        err = MalformedInput("cannot access file", path=exc.filename,
                             reason=exc.strerror or str(exc))
    except Exception as exc:
        traceback.print_exc()
        sys.stdout.write(_fmt({"code": "internal_error",
                               "message": str(exc),
                               "context": {"type": type(exc).__name__}})
                         + "\n")
        return 2
    sys.stdout.write(_fmt(err.to_dict()) + "\n")
    return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
