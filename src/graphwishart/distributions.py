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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cones
from .cones import (
    IncompleteMatrix,
    SparsePrecision,
    phi,
    precision_of,
    trace_pair,
)
from .errors import (
    DimensionMismatch,
    GraphMismatch,
    NotInQG,
    NotPositiveDefinite,
    OutOfDomain,
    OutOfSupport,
    ShapeNotAdmissible,
)
from .graphs import _order_of, decompose
from .shapes import (
    ShapeParam,
    _admissible_walk,
    _log_h,
    _weights,
    check_alignment,
    log_gamma_I,
    log_gamma_II,
    log_multigamma,
    size_shift,
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

# The four laws form a 2 x 2 table: each has a side, the shape
# conditions and sampler walk of the first (Type I) or second (Type II)
# kind, and a cone its points live on.
FAMILIES = {
    "type1": ("first", IncompleteMatrix),
    "type2": ("second", SparsePrecision),
    "inv_type1": ("first", SparsePrecision),
    "inv_type2": ("second", IncompleteMatrix),
}


class RngStream:
    """Counter-based random stream, reproducible across platforms.

    A (seed, substream) pair keys a Philox generator; distinct
    substreams of one seed are statistically independent.  Both must be
    integers in [0, 2**63), else OutOfDomain naming the field.
    """

    def __init__(self, seed, substream=0):
        self.seed = _philox_word(seed, "seed")
        self.substream = _philox_word(substream, "substream")
        self.gen = np.random.Generator(
            np.random.Philox(key=[self.seed, self.substream]))

    def spawn(self, substream):
        """Independent stream under the same seed."""
        return RngStream(self.seed, substream)


def _philox_word(value, name):
    """``value`` as an int in [0, 2**63), one word of a Philox key, so
    that distinct values give distinct keys; OutOfDomain naming ``name``
    otherwise."""
    try:
        k = operator.index(value)
    except TypeError:
        k = -1
    if not 0 <= k < 2 ** 63:
        raise OutOfDomain(name + " must be an integer in [0, 2**63)",
                          **{name: repr(value)})
    return k


def _as_stream(rng):
    if isinstance(rng, RngStream):
        return rng
    return RngStream(rng)


def _draw_count(size, least=0):
    """``size`` as an int; OutOfDomain unless it is an integer of at
    least ``least`` (by default 0, which gives no draws)."""
    try:
        n = int(size)
        valid = n == size and n >= least
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise OutOfDomain("draw count must be a non-negative integer",
                          size=repr(size))
    return n


def _last(a):
    """A matrix as it is; a draw-major stack (n, ., .) as the draws-last
    view (., ., n) that the kernels of :mod:`cones` take."""
    return a if a.ndim < 3 else a.transpose(1, 2, 0)


def _factor(kernel, a, message, **context):
    """``kernel``, a factorization or inverse of :mod:`cones`
    (:func:`cones._chol`, :func:`cones._potrf`, :func:`cones._inv`), of
    a matrix or a draws-last stack (k, k, n); NotPositiveDefinite with
    ``message`` and ``context`` when it gives None."""
    out = kernel(a)
    if out is None:
        raise NotPositiveDefinite(message, **context)
    return out


def _bartlett(left, p, rng, n, tally=None, weight=0.0):
    """n Wishart draws, a draws-last stack (r, r, n), of shape p whose
    scale has the lower Cholesky factor ``left``: left T T^T left^T
    with T the Bartlett factor, sqrt Gamma(p - i/2) on the diagonal and
    N(0, 1/2) below, the below-diagonal normals drawn (n, r(r-1)/2) and
    moved once.  Returns the draws and their lower triangular factor
    ``left T``; the products are :func:`cones._mul`'s.  A nonzero
    ``weight`` times log det T T^T, the sum of the log gamma variates,
    is added to ``tally`` (n,) in place."""
    r = left.shape[0]
    t = np.zeros((r, r, n))
    for i in range(r):
        g = rng.gen.gamma(p - i / 2.0, 1.0, size=n)
        t[i, i] = np.sqrt(g)
        if weight:
            tally += weight * np.log(g)
    if r > 1:
        rows, cols = np.tril_indices(r, -1)
        t[rows, cols] = rng.gen.normal(
            0.0, math.sqrt(0.5), size=(n, len(rows))).T
    lt = cones._mul(left, t)
    return cones._mul(lt, lt.swapaxes(0, 1)), lt


def _gram_inverse(lt, gram):
    """(lt lt^T)^-1 for a draws-last stack ``lt`` (k, k, n) of lower
    triangular factors of ``gram`` = lt lt^T: U^T U with U = lt^-1 by
    forward substitution, unrolled over the entries of 2x2 to 4x4
    blocks as :func:`cones._chol` is; 1 / gram for 1x1 blocks (LAPACK's
    bits) and LAPACK's inverse of ``gram`` above 4x4.
    NotPositiveDefinite when a block is singular: a zero pivot, or an
    inverse that is not finite."""
    k = lt.shape[0]
    if k == 1 or k > 4:
        return _factor(cones._inv, gram, "drawn block is singular")
    u = [[None] * k for _ in range(k)]
    for i in range(k):
        u[i][i] = 1.0 / lt[i, i]
        for j in range(i):
            s = lt[i, j] * u[j][j]
            for m in range(j + 1, i):
                s = s + lt[i, m] * u[m][j]
            u[i][j] = -s * u[i][i]
    out = np.empty(lt.shape)
    for i in range(k):
        for j in range(i + 1):
            s = u[i][i] * u[i][j]
            for m in range(i + 1, k):
                s = s + u[m][i] * u[m][j]
            out[i, j] = out[j, i] = s
    if not np.isfinite(out).all():
        raise NotPositiveDefinite("drawn block is singular")
    return out


def _matrix_normal(mean, lu, lv, rng, n):
    """n matrix normal draws, a draws-last stack (a, b, n), around
    ``mean`` (a, b) from the lower Cholesky factors ``lu`` of the row
    matrix and ``lv`` of the column matrix; either may be a draws-last
    stack with one factor per draw.  The draw is mean + lu z lv^-1 for
    z with N(0, 1/2) entries, drawn (n, a, b) and moved once; the solve
    is :func:`cones._solve_right` and the product :func:`cones._mul`."""
    z = rng.gen.normal(0.0, math.sqrt(0.5), size=(n,) + mean.shape)
    y = cones._solve_right(z.transpose(1, 2, 0), lv)
    return mean[:, :, None] + cones._mul(lu, y)


def _square(m, k, what, n=None):
    """``m`` as a float array: one (k, k) matrix, or with ``n`` also a
    stack (n, k, k); DimensionMismatch naming ``what`` otherwise."""
    m = np.asarray(m, dtype=float)
    if m.shape not in ((k, k), (n, k, k)):
        raise DimensionMismatch(what + " has wrong shape",
                                expected=[k, k], got=list(m.shape))
    return m


def sample_base_wishart(r, p, scale, rng, size=None):
    """Wishart draws with density proportional to
    det(x)^(p - (r+1)/2) exp(-tr(scale^{-1} x)); the mean is p * scale.

    Returns an (n, r, r) array when size is given, one (r, r) matrix
    otherwise.  ``size`` must be a non-negative integer (0 gives an
    empty stack), else OutOfDomain.
    """
    rng = _as_stream(rng)
    scale = _square(scale, r, "scale")
    if not math.isfinite(p):
        raise OutOfDomain("shape parameter is not finite", p=p)
    if p <= (r - 1) / 2.0:
        raise OutOfDomain("shape parameter too small for dimension",
                          p=p, r=r)
    n = 1 if size is None else _draw_count(size)
    if r == 0:
        out = np.zeros((n, 0, 0))
    else:
        left = _factor(cones._chol, scale, "scale is not positive definite")
        out = _bartlett(left, p, rng, n)[0]
        out = np.ascontiguousarray(out.transpose(2, 0, 1))
    return out if size is not None else out[0]


def sample_matrix_normal(mean, row_cov, col_prec_mate, rng, size=None):
    """Matrix normal draws with density proportional to
    exp(-tr[row_cov^{-1} (d - mean) col_prec_mate (d - mean)^T]).

    The columns are coupled through ``col_prec_mate``: large values
    there mean small spread.  Entrywise the covariance of the deltas is
    0.5 * col_prec_mate^{-1} (x) row_cov.  Either matrix may also be a
    stack (n, ., .) with one matrix per draw.  ``size`` must be a
    non-negative integer (0 gives an empty stack), else OutOfDomain; a
    matrix that does not fit ``mean`` (a, b) raises DimensionMismatch.
    """
    rng = _as_stream(rng)
    mean = np.asarray(mean, dtype=float)
    a, b = mean.shape
    n = 1 if size is None else _draw_count(size)
    row_cov = _square(row_cov, a, "row matrix", n)
    col_prec_mate = _square(col_prec_mate, b, "column matrix", n)
    if a == 0 or b == 0:
        out = np.broadcast_to(mean, (n, a, b)).copy()
    else:
        with np.errstate(all="ignore"):  # a stack may meet the kernels
            lu, lv = (_factor(cones._chol, _last(m),
                              what + " is not positive definite")
                      for m, what in ((row_cov, "row matrix"),
                                      (col_prec_mate, "column matrix")))
            out = _matrix_normal(mean, lu, lv, rng, n)
        out = np.ascontiguousarray(out.transpose(2, 0, 1))
    return out if size is not None else out[0]


def log_wishart_pdf(x, p, scale):
    """Log density matching :func:`sample_base_wishart`; DimensionMismatch
    unless x and scale are square of one order."""
    x = np.asarray(x, dtype=float)
    r = x.shape[0] if x.ndim else 0
    x, scale = _square(x, r, "matrix"), _square(scale, r, "scale")
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
    matrix: u = x^{-1} where x has scale rate^{-1}.  DimensionMismatch
    unless u and rate are square of one order."""
    u = np.asarray(u, dtype=float)
    r = u.shape[0] if u.ndim else 0
    u, rate = _square(u, r, "matrix"), _square(rate, r, "rate")
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
    """Log density matching :func:`sample_matrix_normal`;
    DimensionMismatch unless d and mean are (a, b) matrices, row_cov is
    (a, a) and col_prec_mate (b, b)."""
    d = np.asarray(d, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if d.ndim != 2 or mean.shape != d.shape:
        raise DimensionMismatch("matrix and mean need one 2-d shape",
                                matrix=list(d.shape), mean=list(mean.shape))
    a, b = d.shape
    u = _square(row_cov, a, "row matrix")
    v = _square(col_prec_mate, b, "column matrix")
    if a == 0 or b == 0:
        return 0.0
    dev = d - mean
    _, ldu = np.linalg.slogdet(u)
    _, ldv = np.linalg.slogdet(v)
    quad = np.trace(np.linalg.solve(u, dev) @ v @ dev.T)
    return float(-quad - a * b / 2.0 * math.log(math.pi)
                 - b / 2.0 * ldu + a / 2.0 * ldv)


@dataclass(eq=False)
class WishartSpec:
    """A fully validated member of one of the four families, with the
    family's row of :data:`FAMILIES` as ``side`` and ``cone``.

    ``scale`` is kept as an IncompleteMatrix; a SparsePrecision is read
    as the same pattern entries and shares its step plans with the
    wrapper.  Construction checks cone membership of the scale and
    admissibility of the shape; derived quantities (the step list
    ``walk`` the shape is admissible on with one exponent per step:
    ``ordering``, else the graph's class tree; the log normalizing
    constant) are cached on the instance, and so, on first use, are what
    ``logpdf`` and the sampler walk need of the scale and shape alone
    (the walk's step plan is kept on the scale, for every spec on it
    with the same walk and side).  ``ordering`` is the clique order the
    shape is aligned with; it defaults to the graph's own, and one of
    another graph raises GraphMismatch.
    """

    graph: object
    shape: ShapeParam
    scale: object
    family: str
    ordering: object = field(default=None)

    def __post_init__(self):
        try:
            self.side, self.cone = FAMILIES[self.family]
        except (KeyError, TypeError):
            raise OutOfDomain("unknown family", family=self.family) from None
        self.ordering = _order_of(self.graph, self.ordering)
        check_alignment(self.shape, self.ordering)
        if isinstance(self.scale, SparsePrecision):
            plans = self.scale.__dict__.setdefault("_plans", {})
            self.scale = IncompleteMatrix._of(self.scale.graph,
                                              self.scale.values)
            self.scale.__dict__["_plans"] = plans
        if not isinstance(self.scale, IncompleteMatrix):
            raise OutOfDomain("scale must be an incomplete matrix",
                              family=self.family)
        if self.scale.graph != self.graph:
            raise GraphMismatch("scale lives on a different graph")
        cones.require_qg(self.scale)
        try:
            self.walk, self.exponents = _admissible_walk(
                self.shape, self.ordering, self.side)
        except ShapeNotAdmissible:
            raise ShapeNotAdmissible(
                "shape is not admissible for this family",
                family=self.family) from None
        self.log_gamma = steps_log_gamma(self.walk.steps, self.exponents)
        self.log_h_scale = float(
            _log_h(self.shape, self.scale.values, self.ordering))

    @property
    def r(self):
        return self.graph.vertex_count

    @cached_property
    def precision(self):
        """``precision_of(scale)``, the inverse of the completed scale."""
        return precision_of(self.scale)

    @cached_property
    def logpdf_shape(self):
        """Exponent shape of ``log_h`` at the point in :func:`logpdf`."""
        shift = -0.5 if self.cone is IncompleteMatrix else 0.5
        return self.shape + size_shift(self.ordering, shift, 1)

    @cached_property
    def logpdf_weights(self):
        """Read-only weights of ``logpdf_shape`` per block of
        ``ordering.blocks`` (:func:`shapes._weights`), the log h weights
        of :func:`logpdf`."""
        return _read_only(_weights(self.logpdf_shape, self.ordering))

    @cached_property
    def mean_weights(self):
        """Read-only weights of the negated shape per block of
        ``ordering.blocks``, those of :func:`mean_type2`."""
        return _read_only(_weights(-self.shape, self.ordering))

    @cached_property
    def plan(self):
        """The sampler walk's step plan: per step of ``walk.steps``, None
        for an empty new block, else ``(t_cond, t_ratio, wishart,
        side)``.  ``(t_cond, t_ratio)`` is the scale's regression on the
        step's blocks; ``wishart`` is the lower Cholesky factor of the
        scale of the step's Wishart draw (t_cond on the first side, its
        inverse on the second) and ``side`` that of the matrix-normal
        matrix the scale fixes (the row matrix t_cond on the first side,
        the column matrix T[given] on the second).  The arrays are
        read-only.  The plan reads only the scale, the steps and the
        side, so it is built on first use by :func:`_step_plan` and kept
        on the scale: every spec on one scale, walk and side shares it."""
        plans = self.scale.__dict__.setdefault("_plans", {})
        key = (self.walk.steps, self.side)
        if key not in plans:
            plans[key] = _step_plan(self.scale, self.walk,
                                    self.side == "first")
        return plans[key]


def _read_only(values):
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _step_plan(scale, walk, first):
    """The step plan of :attr:`WishartSpec.plan`: the arrays
    ``(t_cond, t_ratio, wishart, side)`` built as stacks (m, ., .) for
    the m steps of each shape by ``walk.by_shape``, and None for a step
    with an empty new block.  A block that does not factor raises
    NotPositiveDefinite naming ``new``, a singular block on ``given``
    NotInQG naming ``given``, of the first step of the walk that fails."""
    values, pos = scale.values, scale.graph.pattern.pos

    def build(new, given):
        t_cond, t_ratio = cones._regress(values, pos, new, given)
        what, context = "conditional scale block is ", {"new": new.tolist()}
        if first:
            wishart = side = _factor(cones._potrf, _last(t_cond),
                                     what + "not positive definite",
                                     **context)
        else:
            inv = _factor(cones._inv, _last(t_cond), what + "singular",
                          **context)
            wishart = _factor(cones._potrf, inv,
                              what + "not positive definite", **context)
            gi = given[..., :, None] - 1
            side = _factor(cones._potrf,
                           _last(values[pos[gi, gi.swapaxes(-1, -2)]]),
                           "scale block on given is not positive definite",
                           **context)
        return (t_cond, t_ratio) + tuple(
            a if a.ndim < 3 else a.transpose(2, 0, 1)
            for a in (wishart, side))

    return tuple(step if new else None
                 for step, (new, _) in zip(walk.by_shape(build), walk.steps))


def _require_family(spec, family, message):
    """OutOfDomain with ``message`` unless ``spec`` is of ``family``."""
    if spec.family != family:
        raise OutOfDomain(message, family=spec.family)


def logpdf(spec, point):
    """Log density of a spec at a point of ``spec.cone``.

    Points of another type or outside the cone raise OutOfSupport, and
    so does a point whose clique check passes but whose log density is not
    finite: a clique block that is singular in floating point.  The
    point is checked once; the kernels after the check take it as valid.
    """
    if not isinstance(point, spec.cone):
        raise OutOfSupport("point must be " + spec.cone._noun,
                           family=spec.family)
    if point.graph != spec.graph:
        raise GraphMismatch("point lives on a different graph")
    x = cones._to_qg(point, OutOfSupport)
    try:  # NotInQG: a block singular in floating point
        if spec.side == "first":
            pair = trace_pair(x, spec.precision)
        else:
            # On the incomplete cone the packed inverse sum is
            # precision_of(x).
            k = point if spec.cone is SparsePrecision else \
                SparsePrecision._of(spec.graph, cones._inverse_sum(
                    x.values, spec.ordering, spec.ordering.signs))
            pair = trace_pair(spec.scale, k)
        log_h_x = cones._logdet_sum(x.values, spec.ordering,
                                    spec.logpdf_weights)
    except NotInQG as exc:
        raise OutOfSupport(exc.message, **exc.context) from None
    value = float(log_h_x) - spec.log_gamma - spec.log_h_scale - pair
    if not math.isfinite(value):
        raise OutOfSupport("point is singular in floating point",
                           family=spec.family)
    return value


def logpdf_f(graph, shape_a, shape_b, scale, point, kind="first"):
    """Log density of the beta-prime type families.

    ``kind='first'`` lives on the incomplete cone with an incomplete
    scale; it needs shape_a admissible on the first side, shape_b and
    shape_b - shape_a on the second.  ``kind='second'`` lives on the
    sparse cone with a sparse scale; it needs shape_a and
    shape_a - shape_b on the first side and shape_b on the second.

    The log h terms are taken at the scale, the sum and the point, mapped
    by phi on the sparse cone.  A scale of the wrong type or graph raises
    OutOfDomain, a point of the wrong type or outside the cone
    OutOfSupport.
    """
    ordering = decompose(graph)
    if kind not in ("first", "second"):
        raise OutOfDomain("unknown kind", kind=kind)
    first = kind == "first"
    cone = IncompleteMatrix if first else SparsePrecision
    if not isinstance(scale, cone) or scale.graph != graph:
        raise OutOfDomain("scale must be %s on the same graph" % cone._noun)
    if first:
        cones.require_qg(scale)
    if not isinstance(point, cone) or point.graph != graph:
        raise OutOfSupport("point must be " + cone._noun)
    x = cones._to_qg(point, OutOfSupport)
    total = cone._of(graph, scale.values + point.values)
    if first:
        lg = log_gamma_II(shape_b - shape_a, ordering) \
            - log_gamma_I(shape_a, ordering) - log_gamma_II(shape_b, ordering)
        # The sum of two checked points has positive definite cliques.
        terms = ((shape_b, scale), (shape_b - shape_a, total),
                 (shape_a + size_shift(ordering, -0.5, 1), x))
    else:
        lg = log_gamma_I(shape_a - shape_b, ordering) \
            - log_gamma_I(shape_a, ordering) - log_gamma_II(shape_b, ordering)
        terms = ((shape_a, phi(scale)), (shape_a - shape_b, phi(total)),
                 (shape_b + size_shift(ordering, 0.5, 1), x))
    h_s, h_u, h_x = (float(_log_h(sh, m.values, ordering))
                     for sh, m in terms)
    return lg - h_s + h_u + h_x


def _logdet(chol):
    """log det of L L^T from a lower Cholesky factor L, one matrix or a
    draws-last stack."""
    return 2.0 * np.log(chol.diagonal()).sum(-1)


def _walk(spec, rng, n, precision=False, weights=None):
    """Draws on the incomplete cone, one ``(new, given)`` step at a time,
    in a packed store (r + |E|, n) laid out by ``spec.graph.pattern``:
    draws last, so that each entry is one contiguous vector of n draws,
    and so is each entry of the stacks (k, k, n) a step draws and
    factors with the kernels of :mod:`cones`.  Random numbers are drawn
    in the same calls, shapes and order as in a draw-major walk, so
    every variate lands on the same draw and entry.

    Each step draws the conditional block and then the regression
    coefficient of the draw on its blocks, and places both.  First
    side: the conditional block is Wishart(p, T_cond) and the
    coefficient is matrix normal around T_ratio with row matrix T_cond
    and column matrix the block X[given] drawn so far.  Second side: the
    conditional block is the inverse of Wishart(p, T_cond^-1), taken
    from the draw's Bartlett factor by :func:`_gram_inverse`, and the
    coefficient has the drawn block as row matrix and T[given] as column
    matrix.

    The scale's side of every step, factors included, comes from
    ``spec.plan`` and the packed slots from ``spec.walk.step_slots``, so
    a step factors only what it drew: X[given] on the first side, the
    conditional block on the second.  Returns the packed draws, or with
    ``precision`` the packed inverses of their completions, summed from
    the drawn pairs without more random numbers (the inverse of a drawn
    block comes from its Bartlett factor on both sides), as the draw-major view
    (n, r + |E|) of the store; a caller that hands them out makes the
    copy C-contiguous.  Either side walks ``spec.walk``, the clique
    order or the class tree.  The walk sets one floating point error
    state: IEEE results pass through to the checks that read them.

    With ``weights``, a pair (a, b) per step from
    :func:`shapes._step_weights` (``spec.walk`` must be a clique order,
    as every proposal of :func:`verify.mc_normalizer` is), returns
    ``(store, tally)``: the same store and each draw's log h, the sum of
    a log det cond + b log det X[given] from the step's gamma variates
    and Wishart factor (negated on the second side) and the Cholesky
    factor of X[given], which the second side takes where b != 0.
    """
    first = spec.side == "first"
    x = np.zeros((spec.graph.pattern.size, n))
    k = np.zeros_like(x) if precision else None
    tally = None if weights is None else np.zeros(n)
    sign = 1.0 if first else -1.0
    not_pd = "drawn block is not positive definite"
    with np.errstate(all="ignore"):
        for slots, p, step, (a, b) in zip(
                spec.walk.step_slots, spec.exponents, spec.plan,
                weights or ((0.0, 0.0),) * len(spec.plan)):
            if step is None:
                continue
            _, t_ratio, w_left, side = step
            x_given = x[slots.given]
            wishart, lt = _bartlett(w_left, p, rng, n, tally, sign * a)
            if a:
                tally += sign * a * _logdet(w_left)
            inv = _gram_inverse(lt, wishart) if precision or not first \
                else None
            cond, cond_inv = (wishart, inv) if first else (inv, wishart)
            ratio = t_ratio
            if t_ratio.size:
                drawn = _factor(cones._chol, x_given if first else cond,
                                not_pd)
                lu, lv = (side, drawn) if first else (drawn, side)
                ratio = _matrix_normal(t_ratio, lu, lv, rng, n)
                if b:
                    if not first:
                        drawn = _factor(cones._chol, x_given, not_pd)
                    tally += b * _logdet(drawn)
            cones._place(x, slots, cond, ratio, x_given)
            if precision:
                cones._add_step_precision(k, slots, cond_inv, ratio)
    out = (k if precision else x).T
    return out if tally is None else (out, tally)


def _mc_draws(n, field="n"):
    """``n`` as an int; OutOfDomain naming ``field`` unless it is an
    integer of at least 2, since a standard error needs two draws."""
    try:
        return _draw_count(n, 2)
    except OutOfDomain:
        raise OutOfDomain("a Monte Carlo estimate needs an integer count "
                          "of at least 2 draws", **{field: n}) from None


def sample_batch(spec, rng, size):
    """Dense (n, r, r) array of draws, written once from the packed store
    of :func:`_walk`: exactly symmetric and exactly zero off the
    pattern.  For type2 and inv_type1 the entries are the sparse matrix
    itself, the inverse of the completion.  ``size`` must be a
    non-negative integer (0 gives an empty array), else OutOfDomain.

    A step exponent near 0 draws a conditional block far below the
    rounding of the regression term it is added to, so a draw can be
    singular in floating point.  :func:`logpdf` of any draw returns a
    finite value or raises OutOfSupport.
    """
    store = _walk(spec, _as_stream(rng), _draw_count(size),
                  spec.cone is SparsePrecision)
    return cones._scatter(store, spec.graph.pattern)


def sample(spec, rng, n):
    """List of n draws wrapped in ``spec.cone``, each holding its row of
    the walk's packed store; n must be a non-negative integer, else
    OutOfDomain.  As for :func:`sample_batch`, :func:`logpdf` of a draw
    returns a finite value or raises OutOfSupport."""
    store = _walk(spec, _as_stream(rng), _draw_count(n),
                  spec.cone is SparsePrecision)
    return [spec.cone._of(spec.graph, row)
            for row in np.ascontiguousarray(store)]


def _walk_mean(walk, exponents, coords, lead=()):
    """Packed mean (*lead, r + |E|) of a first-side walk along
    ``walk.steps`` at the scale's step coordinates ``coords`` (None for
    an empty step, else a tuple that starts with T_cond, T_ratio,
    matrices or draw-major stacks (*lead, ., .)).  A step's conditional
    block has mean p T_cond and its coefficient mean T_ratio with entry
    covariance X_given^-1 (x) T_cond / 2: the mean is the fill from the
    pairs ((p + |given| / 2) T_cond, T_ratio), taken with draws last
    and returned as a draw-major view."""
    return cones._fill(walk, [
        None if c is None else
        ((p + len(given) / 2.0) * _last(c[0]), _last(c[1]))
        for (_, given), p, c in zip(walk.steps, exponents, coords)],
        lead).T


def mean_type1(spec):
    """Closed-form mean of a type1 member: the expectation of the sampler
    walk, built along ``spec.walk`` from the scale's step coordinates."""
    _require_family(spec, "type1", "mean_type1 needs a type1 spec")
    return IncompleteMatrix._of(
        spec.graph, _walk_mean(spec.walk, spec.exponents, spec.plan))


def _precision_mean(spec):
    """Packed type2 mean at a spec's shape and scale: padded inverse scale
    blocks weighted by the shape, cliques negative, separators positive."""
    return cones._inverse_sum(spec.scale.values, spec.ordering,
                              spec.mean_weights)


def mean_type2(spec):
    """Closed-form mean of a type2 member, :func:`_precision_mean`."""
    _require_family(spec, "type2", "mean_type2 needs a type2 spec")
    return SparsePrecision._of(spec.graph, _precision_mean(spec))


def laplace(spec, t):
    """Log Laplace transform at a symmetric pattern matrix t.

    For type1 this is the log expectation of exp of the pattern pairing
    with t; type2 analogously.  The shifted parameter must stay inside
    the matching cone, else OutOfDomain.  A t of the wrong shape raises
    DimensionMismatch, an asymmetric one MalformedInput.
    """
    tv = cones.project(t, spec.graph).values
    if spec.family == "type1":
        shifted = SparsePrecision._of(spec.graph, spec.precision.values - tv)
    elif spec.family == "type2":
        shifted = IncompleteMatrix._of(spec.graph, spec.scale.values - tv)
    else:
        raise OutOfDomain("laplace transform implemented for type1 and "
                          "type2 only", family=spec.family)
    x = cones._to_qg(shifted, OutOfDomain)
    return float(_log_h(spec.shape, x.values, spec.ordering)) \
        - spec.log_h_scale
