"""graphwishart benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload draw-r400 --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller makes one call after another, with no think time.  The run
prints a readable report (every metric with its unit and sample count,
and the provenance of the numbers) and, as its last line, one JSON
object: ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  See perfbench/README.md.
"""

import os
import sys

# BLAS threads are fixed before numpy loads, so every run uses the same.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

# Set-ups are repeated over the loop, at least SETUP_MIN of them and as
# many as fit in SETUP_SHARE of its wall time; setup_s is their median.
SETUP_MIN = 5
SETUP_SHARE = 0.15


class Clock:
    """Context manager that adds up the time spent inside it."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


def fresh_import():
    """Import graphwishart anew from src/ (numpy and scipy stay loaded)."""
    for name in [n for n in sys.modules
                 if n == "graphwishart" or n.startswith("graphwishart.")]:
        del sys.modules[name]
    return importlib.import_module("graphwishart")


def run_loop(calls, seconds=None, rounds=None, start=0, between=None):
    """Issue the round of calls again and again, timing each call.

    Stops at the end of a round, the one that ends nearest to
    ``seconds`` of wall time (checks included), or after ``rounds``
    rounds.  ``between(elapsed)`` runs untimed after every round.
    """
    stats = {"lat": {}, "ok": 0, "failed": 0, "busy": 0.0, "rounds": 0,
             "errors": [], "next": start, "by_label": Counter(),
             "failed_by_label": Counter(), "by_input": {}}
    i = start
    t_begin = time.perf_counter()
    while True:
        for call in calls:
            t0 = time.perf_counter()
            try:
                out = call.run(i)
                err = None
            except Exception as exc:  # a raising call is a failed call
                out, err = None, exc
            t1 = time.perf_counter()
            i += 1
            stats["busy"] += t1 - t0
            stats["by_label"][call.label] += 1
            if err is None:
                try:
                    call.check(out)
                except Exception as exc:
                    err = exc
            del out
            if err is None:
                stats["ok"] += 1
                stats["lat"].setdefault(call.kind, []).append(t1 - t0)
                stats["by_input"].setdefault((call.kind, call.label),
                                             []).append(t1 - t0)
            else:
                stats["failed"] += 1
                stats["failed_by_label"][call.label] += 1
                if len(stats["errors"]) < 5:
                    stats["errors"].append(
                        "%s: %s: %s" % (call.label, type(err).__name__, err))
        stats["rounds"] += 1
        if between is not None:
            between(time.perf_counter() - t_begin)
        if rounds is not None and stats["rounds"] >= rounds:
            break
        elapsed = time.perf_counter() - t_begin
        if seconds is not None and \
                elapsed * (1 + 0.5 / stats["rounds"]) >= seconds:
            break
    stats["next"] = i
    return stats


def typical_ms(by_input, kind, q):
    """Geometric mean, over the inputs of one call kind, of each input's
    q-quantile latency (nearest rank); with the number of calls it rests
    on and how many of them lie beyond their input's quantile."""
    picked, n, beyond = [], 0, 0
    for (k, _), v in sorted(by_input.items()):
        if k == kind:
            value, over = percentile(v, q)
            picked.append(value)
            n += len(v)
            beyond += over
    if not picked:
        return float("nan"), "ms", 0, 0
    return (1e3 * math.exp(statistics.fmean(map(math.log, picked))), "ms",
            n, beyond)


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance():
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (cfg.get("name"), cfg.get("version"))
    except Exception:
        pass
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3 or None,
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_once(workload, inputs, tracer=None):
    clock = Clock()
    gc.collect()
    with clock:
        gw = fresh_import()
    if tracer is not None:
        tracer.instrument()
    state = workload.setup(gw, inputs, clock)
    return clock.total, state


def end_to_end(stats, setup_times, extra):
    lat = stats["lat"]
    ms = lambda v: v * 1e3
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    len(setup_times), None),
        "ops_per_s": (stats["ok"] / stats["busy"], "ops/s",
                      stats["ok"] + stats["failed"], None),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1, None),
    }
    attempted = stats["ok"] + stats["failed"]
    table = dict(metrics)
    table["main_p75_ms"] = typical_ms(stats["by_input"], "main", 0.75)
    table["aux_p50_ms"] = typical_ms(stats["by_input"], "aux", 0.5)
    table["error_rate"] = (stats["failed"] / attempted, "failed/attempted",
                           attempted, None)
    for name, (kinds, fn) in extra.items():
        samples = [v for k in kinds for v in lat.get(k, [])]
        if not samples:
            continue
        if fn in ("p50", "p90"):
            value, beyond = percentile(samples, int(fn[1:]) / 100.0)
            shown = fn == "p50" or beyond >= 10
            table[name] = (ms(value) if shown else None, "ms",
                           len(samples), beyond)
        else:
            table[name] = (fn * len(samples) / stats["busy"], "draws/s",
                           len(samples), None)
    return metrics, table


# Workload-specific numbers of the readable report: the call kinds that
# feed each and how it is computed (a draw count per call for rates).
REPORT_NAMES = {
    "draw-r400": {"draws_per_s": (("main", "aux"), 100),
                  "sample_p50_ms": (("main", "aux"), "p50"),
                  "sample_p90_ms": (("main", "aux"), "p90")},
    "density-r200": {"logpdf_p50_ms": (("main",), "p50"),
                     "logpdf_p90_ms": (("main",), "p90"),
                     "mean_type1_p50_ms": (("aux",), "p50")},
    "cli-mixed": {"fit_p50_ms": (("main",), "p50"),
                  "fit_p90_ms": (("main",), "p90"),
                  "cli_sample_p50_ms": (("aux",), "p50")},
    "mc-verify": {"normalizer_p50_ms": (("main", "aux"), "p50")},
}


def per_layer(summary, loop_ms, overhead, setup_summary, bytes_out):
    from spans import LAYERS

    calls = summary["calls"]
    incl = summary["incl_ms"]
    layer = summary["layer_ms"]
    out = {}
    for name in LAYERS:
        out[name + ".self_ms"] = (layer[name], "ms")
    for name in ("graphs.decompose", "graphs.homogeneous_structure",
                 "graphs.edge_mask", "shapes.log_h", "shapes.shape_class",
                 "distributions.spec_build", "cones.require_qg",
                 "cones.complete", "cones.schur_pad"):
        out[name + ".calls"] = (calls.get(name, 0.0), "count")
    out["distributions.spec_build_ms"] = (
        incl.get("distributions.spec_build", 0.0), "ms")
    out["distributions.base_wishart_ms"] = (
        incl.get("distributions.sample_base_wishart", 0.0), "ms")
    out["distributions.draw_bytes"] = (summary["draw_bytes"], "B")
    out["verify.useful_draw_ratio"] = (summary["useful_draw_ratio"],
                                       "ratio")
    out["verify.candidates_rejected"] = (summary["candidates_rejected"],
                                         "count")
    out["cli.bytes_out"] = (bytes_out, "B")
    out["loop_ms"] = (loop_ms, "ms")
    out["untraced_ms"] = (loop_ms - sum(layer.values()), "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    for name in ("graphs", "cones", "shapes", "distributions"):
        out["setup.%s.self_ms" % name] = (
            setup_summary["layer_ms"][name], "ms")
    return out


def fail_inputs(stats, failures):
    """Count as failed every call of each ``(label, reason)`` input that
    a check over the whole loop rejected, unless it already failed its
    own check."""
    for label, reason in failures:
        newly = stats["by_label"][label] - stats["failed_by_label"][label]
        stats["failed"] += newly
        stats["ok"] -= newly
        stats["failed_by_label"][label] += newly
        stats["errors"].append("%s: %s" % (label, reason))


def count_bytes_out(calls):
    """Wrap CLI calls so the bytes they print are added up."""
    total = [0]

    def counted(call):
        def run(i):
            out = call.run(i)
            total[0] += len(out[1].encode())
            return out
        return call._replace(run=run)

    return [counted(c) for c in calls], total


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphwishart",
                                       "__init__.py")):
        print("error: %s/graphwishart not found; run from the root of a "
              "graphwishart checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (loaded before any timed import)
    import scipy.special  # noqa: F401

    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed)
    workdir = os.path.join(HERE, ".work", "%s-%d" % (workload.name,
                                                     os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(workload, inputs, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, inputs, workdir, args):
    from spans import Tracer, summarize

    prov = provenance()
    tracer = Tracer() if args.trace else None
    if tracer is None:
        t, state = setup_once(workload, inputs)
        setup_times = [t]
    else:
        _, state = setup_once(workload, inputs, tracer)
        setup_summary = summarize(tracer.spans, 1)
        tracer.uninstall()
        tracer.reset()
    state["workdir"] = workdir
    calls = workload.prepare(state)
    calls, bytes_out = count_bytes_out(calls) \
        if workload.name == "cli-mixed" else (calls, [0])
    gc.collect()

    if tracer is None:
        # More set-ups are spread over the loop, so that their median does
        # not rest on one moment of the machine.
        def setup_again(elapsed):
            least = SETUP_MIN * min(1.0, elapsed / args.seconds)
            while len(setup_times) < least or \
                    sum(setup_times) < SETUP_SHARE * elapsed:
                setup_times.append(setup_once(workload, inputs)[0])

        stats = run_loop(calls, seconds=args.seconds, between=setup_again)
    else:
        # Untraced half first, then the same rounds traced: the ratio of
        # the two is the tracing overhead.
        plain = run_loop(calls, seconds=args.seconds / 2.0)
        tracer.instrument()
        bytes_out[0] = 0
        stats = run_loop(calls, rounds=plain["rounds"],
                         start=plain["next"])
        tracer.uninstall()
        stats["ok"] += plain["ok"]
        stats["failed"] += plain["failed"]
        stats["errors"] += plain["errors"]
        stats["by_label"] += plain["by_label"]
        stats["failed_by_label"] += plain["failed_by_label"]

    attempted = stats["ok"] + stats["failed"]
    fail_inputs(stats, workload.finish(state))
    correct = stats["failed"] == 0

    print("workload %s  seed %d  seconds %g  trace %d" % (
        workload.name, args.seed, args.seconds, args.trace))
    print("closed loop, 1 caller, no think time; main = %s; aux = %s" % (
        workload.main, workload.aux))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("rounds %d  calls %d  failed %d" % (
        stats["rounds"], attempted, stats["failed"]))
    for err in stats["errors"]:
        print("FAILED " + err)

    if tracer is None:
        metrics, table = end_to_end(stats, setup_times,
                                    REPORT_NAMES[workload.name])
        print("%-20s %16s  %-16s %6s %7s" % ("metric", "value", "unit",
                                              "n", "beyond"))
        for name, (value, unit, n, beyond) in table.items():
            shown = "n/a (<10 beyond)" if value is None else "%.6g" % value
            print("%-20s %16s  %-16s %6d %7s" % (
                name, shown, unit, n, "" if beyond is None else beyond))
        result = {k: {"value": v, "unit": u}
                  for k, (v, u, _, _) in metrics.items()}
    else:
        n_ops = stats["ok"] + stats["failed"] - plain["ok"] - plain["failed"]
        summary = summarize(tracer.spans, n_ops)
        loop_ms = stats["busy"] / n_ops * 1e3
        plain_ms = plain["busy"] / (plain["ok"] + plain["failed"]) * 1e3
        metrics = per_layer(summary, loop_ms, loop_ms / plain_ms - 1.0,
                            setup_summary, bytes_out[0] / n_ops)
        print("per traced call (%d calls, %d spans)" % (
            n_ops, len(tracer.spans)))
        for name, (value, unit) in metrics.items():
            print("%-34s %14.6g  %s" % (name, value, unit))
        print("layer shares of loop time: " + json.dumps(
            {k: round(v / loop_ms, 4) for k, v in
             summary["layer_ms"].items()}))
        if tracer.missing:
            print("hooks not found: " + ", ".join(tracer.missing))
        result = {k: {"value": v, "unit": u}
                  for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": stats["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
