"""Outside-in span tracer for graphwishart.

The program is not edited.  ``instrument`` wraps the public functions of
each module (and a few named hooks) and puts the wrapper in place of the
original in every ``graphwishart`` namespace that holds it, so a call
through ``from .cones import precision_of`` in ``distributions`` is
recorded as well as a call through ``cones.precision_of``.  Spans are
kept in memory: ``[name, layer, start, end, parent, info]``.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("graphs", "cones", "shapes", "distributions", "bayes",
          "verify", "cli")

# Private names that the per-layer metrics need, per module.
HOOKS = {
    "verify": ("_log_h_batch", "_hyper_candidates",
               "_gwishart_candidates"),
}

# Methods wrapped on their class: (module, class, method, span name).
METHODS = (
    ("graphs", "DecomposableGraph", "edge_mask", "graphs.edge_mask"),
    ("distributions", "WishartSpec", "__post_init__",
     "distributions.spec_build"),
)

# Spans named here keep a summary of their arguments or result.
_INFO = {
    "distributions.sample_batch":
        lambda args, kw, out: (out.shape[0], out.nbytes / out.shape[0]),
    "verify.mc_normalizer": lambda args, kw, out: out.n_draws,
    "verify._log_h_batch":
        lambda args, kw, out: bool(np.all(np.isfinite(out))),
    "verify._hyper_candidates": lambda args, kw, out: len(out),
    "verify._gwishart_candidates": lambda args, kw, out: len(out),
}


class Tracer:
    """Span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self._undo = []
        self.missing = []

    def wrap(self, fn, name, layer):
        info = _INFO.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def instrument(self, package="graphwishart"):
        """Wrap every public function of each layer module and the
        hooks above; replace them in all namespaces of the package."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (package, layer))
            hooks = HOOKS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and \
                        obj.__module__ == mod.__name__ and \
                        (not attr.startswith("_") or attr in hooks):
                    targets[id(obj)] = self.wrap(
                        obj, "%s.%s" % (layer, attr), layer)
            self.missing += [
                "%s.%s" % (layer, h) for h in hooks if h not in vars(mod)]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or
                                   name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._replace(mod, attr, obj, wrapper)
        for modname, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules["%s.%s" % (package, modname)],
                          cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append(span)
                continue
            self._replace(cls, meth, fn,
                          self.wrap(fn, span, span.split(".")[0]))
        return self

    def _replace(self, owner, attr, old, new):
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()


def self_times(spans):
    """Per-span self time: its duration minus the durations of its
    direct children (children of one span never overlap)."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans, ops):
    """Per-op layer self times, call counts and span-derived metrics."""
    own = self_times(spans)
    layer_ms = Counter()
    calls = Counter()
    incl_ms = Counter()
    for s, t in zip(spans, own):
        layer_ms[s[1]] += t * 1e3
        calls[s[0]] += 1
        incl_ms[s[0]] += (s[3] - s[2]) * 1e3
    # Monte Carlo bookkeeping: walk up from each span to its
    # mc_normalizer ancestor, if any.
    mc_root = {}
    for i, s in enumerate(spans):
        p = s[4]
        mc_root[i] = i if s[0] == "verify.mc_normalizer" else \
            (mc_root.get(p) if p >= 0 else None)
    per_mc = defaultdict(lambda: {"drawn": 0, "cands": 0, "finite": 0})
    draw_bytes = []
    for i, s in enumerate(spans):
        root = mc_root[i]
        if s[0] == "distributions.sample_batch" and s[5] is not None:
            draw_bytes.append(s[5][1])
            if root is not None:
                per_mc[root]["drawn"] += s[5][0]
        elif root is None:
            continue
        elif s[0] in ("verify._hyper_candidates",
                      "verify._gwishart_candidates"):
            per_mc[root]["cands"] += s[5]
        elif s[0] == "verify._log_h_batch" and s[5]:
            per_mc[root]["finite"] += 1
    final = sum(spans[i][5] for i in per_mc if spans[i][5] is not None)
    drawn = sum(m["drawn"] for m in per_mc.values())
    # One finite log-weight batch per accepted candidate, plus the
    # final run.
    rejected = sum(max(m["cands"] - (m["finite"] - 1), 0)
                   for m in per_mc.values())
    ops = max(ops, 1)
    return {
        "layer_ms": {k: layer_ms[k] / ops for k in LAYERS},
        "calls": {k: v / ops for k, v in calls.items()},
        "incl_ms": {k: v / ops for k, v in incl_ms.items()},
        "draw_bytes": sum(draw_bytes) / len(draw_bytes)
        if draw_bytes else 0.0,
        "useful_draw_ratio": final / drawn if drawn else 0.0,
        "candidates_rejected": rejected / ops,
    }
