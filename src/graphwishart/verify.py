"""Independent numerical oracles.

Everything here is deliberately redundant with the analytic machinery
in the other modules: hypergeometric series summed directly, closed
forms for the four-vertex path, Monte Carlo estimates of the cone
integrals, and pointwise identity checks.  Agreement between the two
routes is the main correctness evidence for the package.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import shapes
from .cones import _regress, split_blocks
from .distributions import (
    WishartSpec,
    _as_stream,
    _mc_draws,
    _require_family,
    _walk,
    _walk_mean,
    log_inv_wishart_pdf,
    log_matrix_normal_pdf,
    logpdf,
    sample_base_wishart,
)
from .errors import (
    DegenerateWeights,
    GraphWishartError,
    NonConvergent,
    OutOfDomain,
    PoleAtC,
    ShapeOutsideA4B4,
    WrongGraph,
)
from .graphs import decompose
from .shapes import canonical_shape, size_shift, step_exponents

__all__ = [
    "McEstimate",
    "gauss_2f1",
    "a4_closed_form",
    "mc_normalizer",
    "mellin_2x2",
    "check_identity_327",
    "check_factorization",
    "check_mean426",
]

# Log of the largest float: a weight above it overflows.
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass
class McEstimate:
    """Monte Carlo result with its standard error and provenance.

    An importance-sampling estimate also gives the Kish effective
    sample size ``ess`` of its weights and the largest weight's share
    of their sum, ``max_weight_share``; both are None otherwise."""

    value: float
    std_error: float
    n_draws: int
    seed: int
    substream: int = 0
    proposal: object = None
    contributions: object = None
    ess: float = None
    max_weight_share: float = None


def _series_2f1(a, b, c, z, tol=1e-15, max_terms=100000):
    term = 1.0
    total = 1.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise NonConvergent("series did not reach tolerance",
                        a=a, b=b, c=c, z=z, max_terms=max_terms)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function on z in [0, 1).

    Direct power series, switching to the determinant-power transform
    of the parameters when z is close to 1 (which converts the
    convergence exponent and speeds the tail).
    """
    if not 0.0 <= z < 1.0:
        raise OutOfDomain("argument must lie in [0, 1)", z=z)
    if c <= 0 and c == int(c):
        raise PoleAtC("lower parameter is a non-positive integer", c=c)
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    if z > 0.9:
        return (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z)
    return _series_2f1(a, b, c, z)


def check_identity_327(a, b, c, z):
    """Residual of the parameter-swap identity for the hypergeometric
    series: (1-z)^(a+b-c) F(a,b;c;z) versus F(c-a,c-b;c;z)."""
    if not 0.0 <= z < 1.0:
        raise OutOfDomain("argument must lie in [0, 1)", z=z)
    lhs = (1.0 - z) ** (a + b - c) * _series_2f1(a, b, c, z)
    rhs = _series_2f1(c - a, c - b, c, z)
    return abs(lhs - rhs)


_PATH4_EDGES = frozenset({(1, 2), (2, 3), (3, 4)})


def _require_path4(graph):
    if graph.vertex_count != 4 or graph.edges != _PATH4_EDGES:
        raise WrongGraph("closed form applies to the 4-vertex path only",
                         n=graph.vertex_count,
                         edges=sorted(map(list, graph.edges)))


def a4_closed_form(kind, shape, scale):
    """Log of the closed-form cone integral on the 4-vertex path.

    ``kind='I'`` integrates the clique-power kernel against the
    incomplete-cone base measure at inverse-completion rate built from
    ``scale``; ``kind='II'`` is the analogue on the sparse cone with
    ``scale`` read as the rate pattern.  Every factor is positive, so
    the value is returned as a plain log.
    """
    _require_path4(scale.graph)
    a1, a2, a3 = shape.alpha
    b2, b3 = shape.beta
    m = scale.data
    s1, s2, s3, s4 = m[0, 0], m[1, 1], m[2, 2], m[3, 3]
    s12, s23, s34 = m[0, 1], m[1, 2], m[2, 3]
    z = s23 * s23 / (s2 * s3)
    if kind == "I":
        ok = a1 > 0.5 and a2 > 0.5 and a3 > 0.5 and \
            a1 + a2 > b2 and a2 + a3 > b3
        if not ok:
            raise ShapeOutsideA4B4("shape outside the first-kind "
                                   "convergence set")
        cond12 = s1 - s12 * s12 / s2
        cond23 = s2 - s23 * s23 / s3
        cond32 = s3 - s23 * s23 / s2
        cond43 = s4 - s34 * s34 / s3
        return 1.5 * math.log(math.pi) \
            + float(gammaln(a1 - 0.5) + gammaln(a2 - 0.5)
                    + gammaln(a3 - 0.5) + gammaln(a1 + a2 - b2)
                    + gammaln(a2 + a3 - b3) - gammaln(a2)) \
            + a1 * math.log(cond12) \
            + (a1 + a2 - b2) * math.log(cond23) \
            + (a2 + a3 - b3) * math.log(cond32) \
            + a3 * math.log(cond43) \
            + math.log(gauss_2f1(a1 + a2 - b2, a2 + a3 - b3, a2, z))
    if kind == "II":
        e2 = b2 - a1 - a2 - 0.5
        e3 = b3 - a2 - a3 - 0.5
        etot = b2 + b3 - a1 - a2 - a3 - 1.5
        ok = a1 < 0 and a3 < 0 and e2 > 0 and e3 > 0 and etot > 0
        if not ok:
            raise ShapeOutsideA4B4("shape outside the second-kind "
                                   "convergence set")
        cond12 = s1 - s12 * s12 / s2
        cond43 = s4 - s34 * s34 / s3
        return 1.5 * math.log(math.pi) \
            + float(gammaln(-a1) + gammaln(e2) + gammaln(etot)
                    + gammaln(e3) + gammaln(-a3)
                    - gammaln(etot + 0.5)) \
            + a1 * math.log(cond12) \
            + (a1 + a2 - b2) * math.log(s2) \
            + (a2 + a3 - b3) * math.log(s3) \
            + a3 * math.log(cond43) \
            + math.log(gauss_2f1(e2, e3, etot + 0.5, z))
    raise OutOfDomain("kind must be 'I' or 'II'", kind=kind)


def _log_h_batch(spec, shape, rng, n):
    """Log weights (n,), log h of ``shape - spec.shape``, of n draws of
    ``spec``, tallied by the walk as it draws (defined along a clique
    order; every canonical candidate of :func:`mc_normalizer` walks
    ``spec.ordering``).  The name stays because the benchmark's tracer
    (``perfbench/spans.py``) counts rejected candidates through it."""
    weights = shapes._step_weights(shape - spec.shape, spec.ordering)
    return _walk(spec, rng, n, weights=weights)[1]


def _ess(w):
    """Kish effective sample size of weights ``w``."""
    return float(w.sum() ** 2 / (w * w).sum())


def _hyper_candidates(shape, ordering):
    floor = (max(ordering.clique_sizes) - 1) / 2.0
    stats = [min(shape.alpha), float(np.mean(shape.alpha)),
             max(shape.alpha)]
    raw = stats + [stats[1] + d for d in
                   (-0.5, -0.25, 0.25, 0.5, 0.75, 1.0)] + \
        [floor + 0.5, floor + 1.0]
    return sorted({round(max(v, floor + 0.25), 6) for v in raw})


def _gwishart_candidates(shape, ordering):
    implied = [-2.0 * a - c + 1.0
               for a, c in zip(shape.alpha, ordering.clique_sizes)]
    stats = [min(implied), float(np.mean(implied)), max(implied)]
    raw = stats + [stats[1] + d for d in (-1.0, -0.5, 0.5, 1.0)]
    return sorted({round(max(v, 0.25), 6) for v in raw})


def mc_normalizer(kind, graph, ordering, shape, scale, rng, n,
                  keep_contributions=False):
    """Importance-sampling estimate of the cone integral.

    ``kind='I'`` estimates the first-cone integral at rate equal to the
    inverse completion of ``scale``; ``kind='II'`` the second-cone
    integral at rate pattern ``scale``.  The proposal is the matching
    one-parameter family at the same scale, whose normalizer is known,
    and the proposal parameter is picked by effective sample size on a
    pilot run.  Weights that collapse on every candidate raise
    DegenerateWeights, and so does a final run whose largest weight
    overflows the float range, with its log in the context.

    Every run takes its log weights from the walk's own factors
    (:func:`_log_h_batch`), with no ``slogdet`` of a draw.  The result
    carries the final run's ESS and largest weight share.
    """
    rng = _as_stream(rng)
    n = _mc_draws(n)
    ordering = ordering or decompose(graph)
    if kind == "I":
        family = "type1"
        cands = _hyper_candidates(shape, ordering)
        make = lambda v: canonical_shape("hyper", ordering, v)
    elif kind == "II":
        family = "inv_type2"
        cands = _gwishart_candidates(shape, ordering)
        make = lambda v: canonical_shape("gwishart", ordering, v)
    else:
        raise OutOfDomain("kind must be 'I' or 'II'", kind=kind)

    n_pilot = min(4000, max(500, n // 50))
    best = None
    for i, v in enumerate(cands):
        try:
            spec = WishartSpec(graph, make(v), scale, family,
                               ordering=ordering)
        except GraphWishartError:
            continue
        logw = _log_h_batch(spec, shape, rng.spawn(10_000 + i), n_pilot)
        if not np.all(np.isfinite(logw)):
            continue
        ess = _ess(np.exp(logw - logw.max()))
        if best is None or ess > best[0]:
            best = (ess, v, spec)
    if best is None or best[0] < 0.01 * n_pilot:
        raise DegenerateWeights(
            "no proposal achieved a workable effective sample size",
            best_ess=None if best is None else best[0],
            pilot=n_pilot)
    _, v, spec = best

    logw = _log_h_batch(spec, shape, rng, n)
    top = float(logw.max()) + spec.log_gamma + spec.log_h_scale
    if not (np.all(np.isfinite(logw)) and top < _LOG_MAX):
        raise DegenerateWeights(
            "importance weights overflowed on the final run",
            proposal=v, log_max_weight=top)
    w = np.exp(logw - logw.max())
    peak = math.exp(top)
    return McEstimate(peak * float(w.mean()),
                      peak * float(w.std(ddof=1)) / math.sqrt(n),
                      n, rng.seed, rng.substream, proposal=(family, v),
                      contributions=peak * w if keep_contributions
                      else None,
                      ess=_ess(w), max_weight_share=float(1.0 / w.sum()))


def mellin_2x2(p, a1, a2, c, rng, n):
    """Joint diagonal moment of a 2x2 Wishart: closed form and MC.

    The matrix follows the rate-1 Wishart with rate matrix ``c``;
    returns (closed_form, McEstimate of E[X11^a1 X22^a2]).
    """
    c = np.asarray(c, dtype=float)
    n = _mc_draws(n)
    if p < 0.5:
        raise OutOfDomain("shape parameter below one half", p=p)
    if a1 <= -p or a2 <= -p:
        raise OutOfDomain("moment exponent too negative",
                          a1=a1, a2=a2, p=p)
    c11, c22, c12 = c[0, 0], c[1, 1], c[0, 1]
    z = c12 * c12 / (c11 * c22)
    sign, ldc = np.linalg.slogdet(c)
    if sign <= 0:
        raise OutOfDomain("rate matrix must be positive definite")
    closed = math.exp(
        p * ldc - (a1 + p) * math.log(c11) - (a2 + p) * math.log(c22)
        + float(gammaln(a1 + p) + gammaln(a2 + p) - 2.0 * gammaln(p))
    ) * gauss_2f1(a1 + p, a2 + p, p, z)
    rng = _as_stream(rng)
    draws = sample_base_wishart(2, p, np.linalg.inv(c), rng, n)
    vals = draws[:, 0, 0] ** a1 * draws[:, 1, 1] ** a2
    est = McEstimate(float(vals.mean()),
                     float(vals.std(ddof=1) / math.sqrt(n)),
                     n, rng.seed, rng.substream)
    return closed, est


def check_factorization(spec, point):
    """Pointwise additivity of the inverse second-family density.

    The joint log density at a point of the incomplete cone must equal
    the sum of the log densities of its regression blocks minus the
    log Jacobian of the block coordinates.
    """
    _require_family(spec, "inv_type2",
                    "factorization check needs an inv_type2 spec")
    ordering = spec.ordering
    joint = logpdf(spec, point)
    bx = split_blocks(point, ordering).parts
    bt = split_blocks(spec.scale, ordering).parts
    exps = step_exponents(spec.shape, ordering, "second")
    parts = jac = 0.0
    for (new, given), p, (xc, xr), (tc, tr) in zip(ordering.steps, exps,
                                                   bx, bt):
        parts += log_inv_wishart_pdf(xc, p, tc)
        parts += log_matrix_normal_pdf(xr, tr, xc,
                                       spec.scale.submatrix(given))
        jac += len(new) * np.linalg.slogdet(point.submatrix(given))[1]
    return abs(joint - (parts - jac))


def check_mean426(spec, rng, n):
    """Monte Carlo residual of the rate-recovery identity.

    For a member of the sparse-cone family, the rate pattern can be
    reconstructed from expectations of the inverse draw and its padded
    Schur complements; this estimates the right-hand side by sampling
    and returns the sup-norm residual against the negated rate with
    the standard error of the worst entry.

    The draws x = phi(K) are the walk's packed store on the incomplete
    cone.  Each draw's sum is the first-side walk mean at its step
    coordinates and the shape shifted by (size + 1) / 2.
    """
    _require_family(spec, "type2", "identity check needs a type2 spec")
    rng = _as_stream(rng)
    n = _mc_draws(n)
    ordering = spec.ordering
    x = _walk(spec, rng, n)
    pos = spec.graph.pattern.pos
    exps = step_exponents(spec.shape + size_shift(ordering, 0.5, 1),
                          ordering, "first")
    per_draw = _walk_mean(ordering, exps, [
        _regress(x, pos, new, given) for new, given in ordering.steps],
        (n,))
    resid = -spec.scale.values - per_draw.mean(axis=0)
    se = per_draw.std(axis=0, ddof=1) / math.sqrt(n)
    worst = np.argmax(np.abs(resid))
    return McEstimate(float(np.abs(resid).max()),
                      float(se[worst]), n, rng.seed, rng.substream)
