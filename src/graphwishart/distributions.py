"""The four Wishart-type families on the cones of a decomposable graph.

Families: ``type1`` lives on the incomplete-matrix cone, ``type2`` on
the sparse positive definite cone, and ``inv_type1`` / ``inv_type2``
are their images under inversion (completion followed by matrix
inverse, projected back to the pattern).  A fifth pair of families with
densities of beta-prime type is exposed through :func:`logpdf_f`.

All densities are taken with respect to Lebesgue measure on the free
entries of the pattern.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cones
from .cones import (
    IncompleteMatrix,
    SparsePrecision,
    _block,
    _tr,
    phi,
    precision_of,
    trace_pair,
)
from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    GraphMismatch,
    NotInPG,
    NotInQG,
    OutOfDomain,
    OutOfSupport,
    ShapeNotAdmissible,
)
from .graphs import _class_tree, decompose
from .shapes import (
    ShapeParam,
    _log_h,
    _weights,
    admissible_walk,
    check_alignment,
    log_gamma_I,
    log_gamma_II,
    log_h,
    log_multigamma,
    shape_class,
    size_shift,
    step_exponents,
    steps_log_gamma,
)

__all__ = [
    "RngStream",
    "WishartSpec",
    "sample_base_wishart",
    "sample_matrix_normal",
    "logpdf",
    "logpdf_f",
    "sample",
    "mean_type1",
    "mean_type2",
    "laplace",
]

FAMILIES = ("type1", "type2", "inv_type1", "inv_type2")


class RngStream:
    """Counter-based random stream, reproducible across platforms.

    A (seed, substream) pair keys a Philox generator; distinct
    substreams of one seed are statistically independent.
    """

    def __init__(self, seed, substream=0):
        self.seed = int(seed)
        self.substream = int(substream)
        self.gen = np.random.Generator(
            np.random.Philox(key=[self.seed, self.substream]))

    def spawn(self, substream):
        """Independent stream under the same seed."""
        return RngStream(self.seed, substream)


def _as_stream(rng):
    if isinstance(rng, RngStream):
        return rng
    return RngStream(rng)


def sample_base_wishart(r, p, scale, rng, size=None):
    """Wishart draws with density proportional to
    det(x)^(p - (r+1)/2) exp(-tr(scale^{-1} x)); the mean is p * scale.

    Returns an (n, r, r) array when size is given, one (r, r) matrix
    otherwise.
    """
    rng = _as_stream(rng)
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (r, r):
        raise DimensionMismatch("scale has wrong shape",
                                expected=[r, r], got=list(scale.shape))
    if p <= (r - 1) / 2.0:
        raise OutOfDomain("shape parameter too small for dimension",
                          p=p, r=r)
    n = 1 if size is None else int(size)
    if r == 0:
        out = np.zeros((n, 0, 0))
        return out if size is not None else out[0]
    left = np.linalg.cholesky(scale)
    t = np.zeros((n, r, r))
    for i in range(r):
        t[:, i, i] = np.sqrt(rng.gen.gamma(p - i / 2.0, 1.0, size=n))
    if r > 1:
        rows, colidx = np.tril_indices(r, -1)
        t[:, rows, colidx] = rng.gen.normal(
            0.0, math.sqrt(0.5), size=(n, len(rows)))
    lt = left @ t
    out = lt @ _tr(lt)
    return out if size is not None else out[0]


def sample_matrix_normal(mean, row_cov, col_prec_mate, rng, size=None):
    """Matrix normal draws with density proportional to
    exp(-tr[row_cov^{-1} (d - mean) col_prec_mate (d - mean)^T]).

    The columns are coupled through ``col_prec_mate``: large values
    there mean small spread.  Entrywise the covariance of the deltas is
    0.5 * col_prec_mate^{-1} (x) row_cov.  Either matrix may also be a
    stack (n, ., .) with one matrix per draw.
    """
    rng = _as_stream(rng)
    mean = np.asarray(mean, dtype=float)
    a, b = mean.shape
    n = 1 if size is None else int(size)
    if a == 0 or b == 0:
        out = np.broadcast_to(mean, (n, a, b)).copy()
        return out if size is not None else out[0]
    try:
        lu = np.linalg.cholesky(np.asarray(row_cov, dtype=float))
        lv = np.linalg.cholesky(np.asarray(col_prec_mate, dtype=float))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "row or column matrix is not positive definite") from None
    z = rng.gen.normal(0.0, math.sqrt(0.5), size=(n, a, b))
    delta = mean + lu @ _tr(np.linalg.solve(_tr(lv), _tr(z)))
    return delta if size is not None else delta[0]


def log_wishart_pdf(x, p, scale):
    """Log density matching :func:`sample_base_wishart`."""
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    r = x.shape[0]
    if r == 0:
        return 0.0
    sign, ldx = np.linalg.slogdet(x)
    if sign <= 0:
        return -np.inf
    _, lds = np.linalg.slogdet(scale)
    return float((p - (r + 1) / 2.0) * ldx
                 - np.trace(np.linalg.solve(scale, x))
                 - log_multigamma(r, p) - p * lds)


def log_inv_wishart_pdf(u, p, rate):
    """Log density of the inverse of a Wishart draw with the given rate
    matrix: u = x^{-1} where x has scale rate^{-1}."""
    u = np.asarray(u, dtype=float)
    rate = np.asarray(rate, dtype=float)
    r = u.shape[0]
    if r == 0:
        return 0.0
    sign, ldu = np.linalg.slogdet(u)
    if sign <= 0:
        return -np.inf
    _, ldr = np.linalg.slogdet(rate)
    return float(-(p + (r + 1) / 2.0) * ldu
                 - np.trace(np.linalg.solve(u, rate))
                 - log_multigamma(r, p) + p * ldr)


def log_matrix_normal_pdf(d, mean, row_cov, col_prec_mate):
    """Log density matching :func:`sample_matrix_normal`."""
    d = np.asarray(d, dtype=float)
    a, b = d.shape
    if a == 0 or b == 0:
        return 0.0
    dev = d - np.asarray(mean, dtype=float)
    u = np.asarray(row_cov, dtype=float)
    v = np.asarray(col_prec_mate, dtype=float)
    _, ldu = np.linalg.slogdet(u)
    _, ldv = np.linalg.slogdet(v)
    quad = np.trace(np.linalg.solve(u, dev) @ v @ dev.T)
    return float(-quad - a * b / 2.0 * math.log(math.pi)
                 - b / 2.0 * ldu + a / 2.0 * ldv)


@dataclass
class WishartSpec:
    """A fully validated member of one of the four families.

    ``scale`` is an IncompleteMatrix for type1 / inv_type1 and a
    SparsePrecision for type2 / inv_type2.  Construction checks cone
    membership of the scale and admissibility of the shape; derived
    quantities (the graph's class tree ``hasse`` when it is homogeneous,
    the step list ``walk`` the shape is admissible on with one exponent
    per step, log normalizing constant) are cached on the instance, and
    so, on first use, are what ``logpdf`` and the sampler walk need of
    the scale and shape alone.  ``ordering`` is the clique order the
    shape is aligned with; it defaults to the graph's own.
    """

    graph: object
    shape: ShapeParam
    scale: object
    family: str
    ordering: object = field(default=None)
    hasse: object = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise OutOfDomain("unknown family", family=self.family)
        if self.ordering is None:
            self.ordering = decompose(self.graph)
        check_alignment(self.shape, self.ordering)
        self.hasse = _class_tree(self.graph)
        if isinstance(self.scale, SparsePrecision):
            self.scale = IncompleteMatrix(self.scale.graph,
                                          self.scale.data)
        if not isinstance(self.scale, IncompleteMatrix):
            raise OutOfDomain("scale must be an incomplete matrix",
                              family=self.family)
        if self.scale.graph != self.graph:
            raise GraphMismatch("scale lives on a different graph")
        cones.require_qg(self.scale)
        self.shape_info = shape_class(self.shape, self.ordering,
                                      self.hasse)
        side = "first" if self.family in ("type1", "inv_type1") \
            else "second"
        self.walk = admissible_walk(self.shape_info, self.ordering,
                                    self.hasse, side)
        if self.walk is None:
            raise ShapeNotAdmissible(
                "shape is not admissible for this family",
                family=self.family)
        self.admissible_per_order = self.walk is self.ordering
        self.exponents = step_exponents(self.shape, self.walk, side)
        self.log_gamma = steps_log_gamma(self.walk.steps, self.exponents)
        self.log_h_scale = log_h(self.shape, self.scale, self.ordering)

    @property
    def r(self):
        return self.graph.vertex_count

    @cached_property
    def precision(self):
        """``precision_of(scale)``: the sparse inverse of the completed
        scale, read-only."""
        out = precision_of(self.scale)
        out.data.setflags(write=False)
        return out

    @cached_property
    def logpdf_shape(self):
        """Exponent shape of ``log_h`` at the point in :func:`logpdf`."""
        shift = -0.5 if self.family in ("type1", "inv_type2") else 0.5
        return self.shape + size_shift(self.ordering, shift, 1)

    @cached_property
    def step_scales(self):
        """Per step of ``walk.steps``, None for an empty new block, else
        the scale's regression ``(t_cond, t_ratio)`` on the step's blocks
        and the scale of the step's Wishart draw: t_cond on the first
        side, its inverse on the second.  The arrays are read-only."""
        first = self.family in ("type1", "inv_type1")
        out = []
        for new, given in self.walk.steps:
            if not new:
                out.append(None)
                continue
            t_cond, t_ratio = cones._regress(self.scale.data, new, given)
            step = (t_cond, t_ratio,
                    t_cond if first else np.linalg.inv(t_cond))
            for a in step:
                a.setflags(write=False)
            out.append(step)
        return tuple(out)


def logpdf(spec, point):
    """Log density of a spec at a point of the matching cone.

    type1 and inv_type2 take incomplete matrices with positive definite
    clique blocks; type2 and inv_type1 take sparse positive definite
    matrices.  Points outside the cone raise OutOfSupport.  The point is
    checked once; the kernels after the check take it as valid.
    """
    if spec.family in ("type1", "inv_type2"):
        if not isinstance(point, IncompleteMatrix):
            raise OutOfSupport("point must be an incomplete matrix",
                               family=spec.family)
        if point.graph != spec.graph:
            raise GraphMismatch("point lives on a different graph")
        try:
            cones.require_qg(point)
        except NotInQG as exc:
            raise OutOfSupport(
                "point has a non positive definite clique block",
                **exc.context) from None
        x = point
    else:
        if not isinstance(point, SparsePrecision):
            raise OutOfSupport("point must be a sparse precision",
                               family=spec.family)
        if point.graph != spec.graph:
            raise GraphMismatch("point lives on a different graph")
        try:
            x = phi(point)
        except NotInPG:
            raise OutOfSupport(
                "point is not positive definite") from None

    if spec.family in ("type1", "inv_type1"):
        pair = trace_pair(x, spec.precision)
    elif spec.family == "type2":
        pair = trace_pair(spec.scale, point)
    else:
        # The padded inverse sum is precision_of(x), zero off the pattern.
        pair = float(np.sum(spec.scale.data * cones._inverse_sum(
            x.data, spec.ordering, spec.ordering.signs)))
    log_h_x = _log_h(spec.logpdf_shape, x.data, spec.ordering)[0]
    return float(log_h_x) - spec.log_gamma - spec.log_h_scale - pair


def logpdf_f(graph, shape_a, shape_b, scale, point, kind="first"):
    """Log density of the beta-prime type families.

    ``kind='first'`` lives on the incomplete cone with an incomplete
    scale; it needs shape_a admissible on the first side, shape_b and
    shape_b - shape_a on the second.  ``kind='second'`` lives on the
    sparse cone with a sparse scale; it needs shape_a and
    shape_a - shape_b on the first side and shape_b on the second.
    """
    ordering = decompose(graph)
    hasse = _class_tree(graph)
    if kind == "first":
        if not isinstance(scale, IncompleteMatrix) or \
                scale.graph != graph:
            raise OutOfDomain("scale must be an incomplete matrix "
                              "on the same graph")
        cones.require_qg(scale)
        if not isinstance(point, IncompleteMatrix) or \
                point.graph != graph:
            raise OutOfSupport("point must be an incomplete matrix")
        try:
            cones.require_qg(point)
        except NotInQG:
            raise OutOfSupport("point outside the cone") from None
        lg = log_gamma_II(shape_b - shape_a, ordering, hasse) \
            - log_gamma_I(shape_a, ordering, hasse) \
            - log_gamma_II(shape_b, ordering, hasse)
        shifted = IncompleteMatrix(graph, scale.data + point.data)
        return lg - log_h(shape_b, scale, ordering) \
            + log_h(shape_b - shape_a, shifted, ordering) \
            + log_h(shape_a + size_shift(ordering, -0.5, 1), point,
                    ordering)
    if kind == "second":
        if not isinstance(scale, SparsePrecision) or \
                scale.graph != graph:
            raise OutOfDomain("scale must be a sparse precision "
                              "on the same graph")
        if not isinstance(point, SparsePrecision) or \
                point.graph != graph:
            raise OutOfSupport("point must be a sparse precision")
        try:
            x = phi(point)
        except NotInPG:
            raise OutOfSupport("point outside the cone") from None
        lg = log_gamma_I(shape_a - shape_b, ordering, hasse) \
            - log_gamma_I(shape_a, ordering, hasse) \
            - log_gamma_II(shape_b, ordering, hasse)
        shifted = SparsePrecision(graph, scale.data + point.data)
        return lg - log_h(shape_a, phi(scale), ordering) \
            + log_h(shape_a - shape_b, phi(shifted), ordering) \
            + log_h(shape_b + size_shift(ordering, 0.5, 1), x, ordering)
    raise OutOfDomain("unknown kind", kind=kind)


def _walk(spec, rng, n):
    """Draws on the incomplete cone, one ``(new, given)`` step at a time,
    in a packed store (n, r + |E|) laid out by ``spec.graph.pattern``.

    Each step regresses the scale T on its blocks, draws the
    conditional block and then the regression coefficient, and places
    both.  First side: the conditional block is Wishart(p, T_cond) and
    the coefficient is matrix normal around T_ratio with row matrix
    T_cond and column matrix the block X[given] drawn so far.  Second
    side: the conditional block is the inverse of Wishart(p, T_cond^-1)
    and the coefficient has the drawn block as row matrix and T[given]
    as column matrix.

    The scale's side of every step comes from ``spec.step_scales``.
    Returns the packed draws for type1 and inv_type2.  For type2 and
    inv_type1 it returns the packed inverses of their completions,
    summed from the drawn (conditional block, coefficient) pairs.
    """
    first = spec.family in ("type1", "inv_type1")
    precision = spec.family in ("type2", "inv_type1")
    pos = spec.graph.pattern.pos
    scale = spec.scale.data
    x = np.zeros((n, spec.graph.pattern.size))
    k = np.zeros_like(x) if precision else None
    for (new, given), p, step in zip(spec.walk.steps, spec.exponents,
                                     spec.step_scales):
        if not new:
            continue
        t_cond, t_ratio, w_scale = step
        x_given = cones._gather(x, pos, given)
        wishart = sample_base_wishart(len(new), p, w_scale, rng, n)
        if first:
            cond = wishart
            row, col = t_cond, x_given
        else:
            cond = np.linalg.inv(wishart)
            row, col = cond, _block(scale, given)
        ratio = sample_matrix_normal(t_ratio, row, col, rng, n)
        cones._place(x, pos, new, given, cond, ratio, x_given)
        if precision:
            cond_inv = np.linalg.inv(cond) if first else wishart
            cones._add_step_precision(k, pos, new, given, cond_inv, ratio)
    return k if precision else x


def sample_batch(spec, rng, size):
    """Dense (n, r, r) array of draws.

    The walk works on a packed (n, r + |E|) store, one slot per entry
    on the diagonal and on the edges, and the dense array is written
    from it once: it is exactly symmetric and exactly zero off the
    pattern.  For type1 and inv_type2 the entries are those of the
    incomplete draw; for type2 and inv_type1 they are the sparse matrix
    itself, the inverse of the completion, which the walk sums from the
    drawn step coordinates.
    """
    if spec.family in ("type2", "inv_type2") and \
            not spec.admissible_per_order:
        raise ShapeNotAdmissible(
            "sampling on the second side needs per-order admissibility",
            family=spec.family)
    store = _walk(spec, _as_stream(rng), int(size))
    return cones._scatter(store, spec.graph.pattern)


def sample(spec, rng, n):
    """List of n draws wrapped in the cone type matching the family."""
    batch = sample_batch(spec, rng, n)
    if spec.family in ("type1", "inv_type2"):
        return [IncompleteMatrix(spec.graph, b) for b in batch]
    return [SparsePrecision(spec.graph, b) for b in batch]


def _walk_mean(pattern, steps, exponents, coords, lead=()):
    """Packed mean of a first-side walk along ``steps`` at the scale's step
    coordinates ``coords`` (None for an empty step).  A step's conditional
    block has mean p T_cond and its coefficient mean T_ratio with entry
    covariance X_given^-1 (x) T_cond / 2: the mean is the fill from the
    pairs ((p + |given| / 2) T_cond, T_ratio)."""
    return cones._fill(pattern, steps, [
        None if c is None else ((p + len(given) / 2.0) * c[0], c[1])
        for (_, given), p, c in zip(steps, exponents, coords)], lead)


def mean_type1(spec):
    """Closed-form mean of a type1 member: the expectation of the sampler
    walk, built along ``spec.walk`` from the scale's step coordinates."""
    if spec.family != "type1":
        raise OutOfDomain("mean_type1 needs a type1 spec",
                          family=spec.family)
    pattern = spec.graph.pattern
    store = _walk_mean(pattern, spec.walk.steps, spec.exponents,
                       spec.step_scales)
    return IncompleteMatrix(spec.graph, cones._scatter(store, pattern))


def mean_type2(spec):
    """Closed-form mean of a type2 member: padded inverse scale blocks
    weighted by the shape, cliques negative and separators positive."""
    if spec.family != "type2":
        raise OutOfDomain("mean_type2 needs a type2 spec",
                          family=spec.family)
    ordering = spec.ordering
    total = cones._inverse_sum(spec.scale.data, ordering,
                               _weights(-spec.shape, ordering))
    return SparsePrecision(spec.graph, 0.5 * (total + total.T))


def laplace(spec, t):
    """Log Laplace transform at a symmetric pattern matrix t.

    For type1 this is the log expectation of exp of the pattern pairing
    with t; type2 analogously.  The shifted parameter must stay inside
    the matching cone, else OutOfDomain.
    """
    ordering = spec.ordering
    tm = np.asarray(t, dtype=float) * spec.graph.edge_mask()
    if spec.family == "type1":
        shifted = spec.precision.data - tm
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise OutOfDomain(
                "shifted precision leaves the cone") from None
        x = phi(SparsePrecision(spec.graph, shifted))
        return log_h(spec.shape, x, ordering) - spec.log_h_scale
    if spec.family == "type2":
        shifted = IncompleteMatrix(spec.graph, spec.scale.data - tm)
        try:
            cones.require_qg(shifted)
        except NotInQG:
            raise OutOfDomain(
                "shifted scale leaves the cone") from None
        return log_h(spec.shape, shifted, ordering) - spec.log_h_scale
    raise OutOfDomain("laplace transform implemented for type1 and "
                      "type2 only", family=spec.family)
