"""Conjugate Bayesian analysis for the mean-zero graphical Gaussian
model on a decomposable graph.

The covariance of the model is Markov with respect to the graph, so
only its pattern entries matter; twice the covariance pattern carries
an inverse-type prior, and updating with data is a pure shift of shape
and scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    IncompleteMatrix,
    SparsePrecision,
    _inverse_sum,
    _logdet_sum,
    _scatter,
    precision_of,
    project,
    require_qg,
    trace_pair,
)
from .distributions import (WishartSpec, _as_stream, _mc_draws,
                            _precision_mean, _require_family, _walk)
from .errors import (
    ColumnMismatch,
    NonNumeric,
    OutOfDomain,
    PosteriorShapeInadmissible,
    ShapeNotAdmissible,
)
from .shapes import ShapeParam

__all__ = [
    "GaussianSample",
    "ingest",
    "mle",
    "posterior_update",
    "posterior_summaries",
]


@dataclass(frozen=True)
class GaussianSample:
    """Sufficient statistics of centered Gaussian rows.

    ``suffstat`` is the full scatter matrix (sum of outer products of
    the rows); ``projected`` keeps only its pattern entries, which is
    all the likelihood sees.
    """

    n: int
    r: int
    suffstat: np.ndarray
    projected: IncompleteMatrix


def ingest(table, graph, center=False):
    """Build sufficient statistics from a data table.

    ``table`` is any sequence of rows (or an (n, r) array) with one
    column per graph vertex.  Rows are treated as draws from a centered
    Gaussian; pass ``center=True`` to subtract column means first, in
    which case the effective sample count drops by one.
    """
    try:
        data = np.asarray(table, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NonNumeric("data table has non-numeric entries") from exc
    if not np.all(np.isfinite(data)):
        raise NonNumeric("data table has non-finite entries")
    if data.ndim == 1:
        data = data[None, :]
    if data.ndim != 2 or data.shape[1] != graph.vertex_count:
        raise ColumnMismatch(
            "column count does not match the vertex count",
            columns=int(data.shape[-1]) if data.ndim else 0,
            vertices=graph.vertex_count)
    n = data.shape[0]
    if center:
        data = data - data.mean(axis=0)
        n = n - 1
    scatter = data.T @ data
    return GaussianSample(n, graph.vertex_count, scatter,
                          project(scatter, graph))


def mle(sample):
    """Maximum likelihood covariance pattern and matching precision.

    The covariance estimate is the pattern projection of the empirical
    second-moment matrix; the precision estimate is the inverse of its
    completion.  Fails with NotInQG when too few rows make a clique
    block singular.
    """
    if sample.n < 1:
        raise OutOfDomain("need at least one observation", n=sample.n)
    g = sample.projected.graph
    sigma = IncompleteMatrix._of(g, sample.projected.values / sample.n)
    return sigma, precision_of(sigma)


def posterior_update(prior, sample):
    """Conjugate update of an inverse-type prior on twice the
    covariance pattern.

    The posterior shape subtracts half the sample count from every
    exponent; the scale adds the projected scatter.
    """
    _require_family(prior, "inv_type2", "prior must be an inv_type2 spec")
    if sample.n == 0:
        return prior
    if sample.projected.graph != prior.graph:
        raise ColumnMismatch("data and prior live on different graphs")
    half_n = sample.n / 2.0
    shape = ShapeParam(
        tuple(a - half_n for a in prior.shape.alpha),
        tuple(b - half_n for b in prior.shape.beta))
    scale = IncompleteMatrix._of(
        prior.graph, prior.scale.values + sample.projected.values)
    try:
        return WishartSpec(prior.graph, shape, scale, "inv_type2",
                           ordering=prior.ordering)
    except ShapeNotAdmissible:
        raise PosteriorShapeInadmissible(
            "updated shape leaves the admissible set", n=sample.n) from None


def log_likelihood(sigma2, sample):
    """Log likelihood of the rows given twice the covariance pattern.

    ``sigma2`` is the incomplete matrix x with covariance x / 2; the
    precision is then 2 * (completion of x)^{-1}, which is sparse, so
    the likelihood needs only pattern entries of the scatter.  x is
    checked once, then summed over its cliques and separators.
    """
    x = sigma2
    n, r = sample.n, sample.r
    ordering = require_qg(x)
    prec = SparsePrecision._of(x.graph, _inverse_sum(
        x.values, ordering, ordering.signs))
    quad = trace_pair(sample.projected, prec)
    logdet = float(_logdet_sum(x.values, ordering, ordering.signs))
    return -0.5 * n * r * math.log(2.0 * math.pi) \
        - 0.5 * n * (logdet - r * math.log(2.0)) - quad


def posterior_summaries(post, rng=None, n_draws=4000):
    """Posterior summaries of the covariance and precision.

    The precision mean is closed form at the posterior's own shape and
    scale; the covariance mean (not linear in the data) and its standard
    error are Monte Carlo over the walk's packed draws.  The record is
    on the covariance scale, halving the draws of the underlying
    parameter; ``sigma_se`` is dense, zero off the pattern.
    """
    _require_family(post, "inv_type2",
                    "posterior must be an inv_type2 spec")
    out = {
        "shape": post.shape,
        "scale": post.scale,
        # The parameter is twice the covariance: its inverse is half the
        # covariance precision.
        "precision_mean": SparsePrecision._of(post.graph,
                                              2.0 * _precision_mean(post)),
    }
    if rng is not None:
        n_draws = _mc_draws(n_draws, "n_draws")
        draws = np.ascontiguousarray(_walk(post, _as_stream(rng), n_draws))
        draws /= 2.0
        out["sigma_mean"] = IncompleteMatrix._of(
            post.graph, draws.mean(axis=0))
        out["sigma_se"] = _scatter(
            draws.std(axis=0, ddof=1) / np.sqrt(n_draws), post.graph.pattern)
        out["n_draws"] = n_draws
    return out
