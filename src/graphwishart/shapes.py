"""Shape parameters and the power functions built from them.

A shape is a pair of real vectors: one exponent per clique and one per
distinct separator of a fixed perfect order.  The central scalar object
is the product of clique determinant powers divided by separator
determinant powers; all densities, normalizing constants and
admissibility conditions are phrased through it.
"""

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .cones import _logdet_sum, _require_pd_cliques
from .errors import (
    NonNumeric,
    OutOfDomain,
    ShapeMismatch,
    ShapeNotAdmissible,
)
from .graphs import HasseTree, decompose, hasse_exponents

__all__ = [
    "ShapeParam",
    "ShapeClass",
    "log_multigamma",
    "log_h",
    "canonical_shape",
    "realign_shape",
    "shape_class",
    "log_gamma_I",
    "log_gamma_II",
]

_TOL = 1e-12


def _exponent(value, name, index):
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise NonNumeric("shape exponent is not a finite real number",
                         field=name, index=index)
    return out


@dataclass(frozen=True)
class ShapeParam:
    """Clique exponents ``alpha`` and distinct-separator exponents
    ``beta``, aligned with one perfect clique order."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, tuple(
                _exponent(v, name, i)
                for i, v in enumerate(getattr(self, name))))

    def __add__(self, other):
        if len(self.alpha) != len(other.alpha) or \
                len(self.beta) != len(other.beta):
            raise ShapeMismatch("shape lengths differ")
        return ShapeParam(
            tuple(a + b for a, b in zip(self.alpha, other.alpha)),
            tuple(a + b for a, b in zip(self.beta, other.beta)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ShapeParam(tuple(-a for a in self.alpha),
                          tuple(-b for b in self.beta))


def check_alignment(shape, ordering):
    if len(shape.alpha) != ordering.k or \
            len(shape.beta) != ordering.k_prime:
        raise ShapeMismatch(
            "shape does not match the clique order",
            alpha=len(shape.alpha), beta=len(shape.beta),
            k=ordering.k, k_prime=ordering.k_prime)


def realign_shape(shape, ord_from, ord_to):
    """Re-index a shape from one perfect order to another.

    Clique exponents follow the clique vertex sets, separator exponents
    follow the separator vertex sets; both collections are invariants of
    the graph, only their order changes.
    """
    check_alignment(shape, ord_from)
    amap = dict(zip(ord_from.cliques, shape.alpha))
    bmap = dict(zip(ord_from.distinct_separators, shape.beta))
    try:
        return ShapeParam(
            tuple(amap[c] for c in ord_to.cliques),
            tuple(bmap[s] for s in ord_to.distinct_separators))
    except KeyError as exc:
        raise ShapeMismatch("orders describe different graphs") from exc


def size_shift(ordering, factor=0.5, offset=1):
    """Shape with entries factor * (block size + offset) per block."""
    return ShapeParam(
        tuple(factor * (c + offset) for c in ordering.clique_sizes),
        tuple(factor * (len(s) + offset)
              for s in ordering.distinct_separators))


def log_multigamma(dim, p):
    """Logarithm of the multivariate gamma function of dimension dim.

    Requires p > (dim - 1) / 2; dim = 0 gives 0.
    """
    if dim == 0:
        return 0.0
    if p <= (dim - 1) / 2.0:
        raise OutOfDomain("multivariate gamma argument out of range",
                          dim=dim, p=p)
    return dim * (dim - 1) / 4.0 * math.log(math.pi) + float(
        sum(gammaln(p - j / 2.0) for j in range(dim)))


def _weights(shape, ordering):
    """Weight of each of ``ordering.blocks`` under a shape: alpha_j per
    clique, -multiplicity_i * beta_i per distinct separator."""
    return tuple(s * e for s, e in
                 zip(ordering.signs, shape.alpha + shape.beta))


def _step_weights(shape, ordering):
    """Weights ``(a, b)`` per step of ``ordering.steps``: log h is the sum
    of a log det cond + b log det x_given, as det x_C = det cond det x_S.
    Each distinct separator is taken once with the weights of the
    cliques given it: S2 at step 0 (which draws it, so with the first
    clique's too), any other at its first occurrence."""
    w = _weights(shape, ordering)
    sep = list(w[ordering.k:])
    for j, i in enumerate(ordering.sep_index, 1):
        sep[i] += w[j]
    head = sep[ordering.sep_index[0]] if ordering.separators else 0.0
    return ((head + w[0], 0.0), (w[0], 0.0)) + tuple(
        (w[j], sep[i] if ordering.occurrences[i][0] == j > 1 else 0.0)
        for j, i in enumerate(ordering.sep_index, 1))


def _log_h(shape, values, ordering):
    """Batch-first log h over packed (..., r + |E|) arrays laid out by
    the graph's pattern."""
    return _logdet_sum(values, ordering, _weights(shape, ordering))


def log_h(shape, x, ordering=None):
    """Log of the clique/separator determinant power product at x.

    Separator factors are weighted by their multiplicity in the order.
    Raises NotInQG, naming the clique, when a clique block of x is not
    positive definite.
    """
    ordering = ordering or decompose(x.graph)
    check_alignment(shape, ordering)
    _require_pd_cliques(x.values, ordering)
    return float(_log_h(shape, x.values, ordering))


def canonical_shape(kind, ordering, value):
    """Classical one-parameter shape families.

    ``hyper``: every clique and separator exponent equals ``value``,
    which must exceed (max clique size - 1) / 2.  ``gwishart``: exponent
    -(value + size - 1) / 2 per block, ``value`` > 0.
    """
    if kind == "hyper":
        p = float(value)
        cmax = max(ordering.clique_sizes)
        if p <= (cmax - 1) / 2.0:
            raise OutOfDomain("hyper parameter too small",
                              p=p, max_clique=cmax)
        return ShapeParam((p,) * ordering.k, (p,) * ordering.k_prime)
    if kind == "gwishart":
        d = float(value)
        if d <= 0:
            raise OutOfDomain("degrees of freedom must be positive",
                              delta=d)
        return ShapeParam(
            tuple(-(d + c - 1) / 2.0 for c in ordering.clique_sizes),
            tuple(-(d + len(s) - 1) / 2.0
                  for s in ordering.distinct_separators))
    raise OutOfDomain("unknown canonical shape kind", kind=kind)


@dataclass(frozen=True)
class ShapeClass:
    """Membership flags of a shape in the admissible parameter sets.

    ``in_a_hom`` / ``in_b_hom`` are None when no class tree was given.
    ``delta2`` and ``gamma2`` are the slack terms entering the first
    separator condition on each side (None when the graph is prime).
    """

    in_a1: bool
    in_b1: bool
    in_a_p: bool
    in_b_p: bool
    in_a_hom: object
    in_b_hom: object
    delta2: object
    gamma2: object


def _slacks(shape, ordering, side):
    """Slack of each distinct separator's equality on one side.

    First side: the clique exponents at the occurrences of S_i less
    ``multiplicity[i] * beta[i]``.  Second side: the sum over those
    occurrences of ``alpha_j - beta_i + (|C_j| - |S_i|) / 2``.  Every
    separator but the first, S2, must have zero slack; S2's slack enters
    the exponent of the first step instead.
    """
    alpha, csize = shape.alpha, ordering.clique_sizes
    if side == "first":
        return tuple(sum(alpha[j] for j in occ) - m * b for occ, m, b in
                     zip(ordering.occurrences, ordering.multiplicity,
                         shape.beta))
    return tuple(sum(alpha[j] - b + (csize[j] - len(s)) / 2.0 for j in occ)
                 for occ, b, s in zip(ordering.occurrences, shape.beta,
                                      ordering.distinct_separators))


def _exponents(shape, walk, side):
    """Step exponents of ``walk`` on one side, and whether every separator
    equality but S2's holds within tolerance (a class tree has none)."""
    if isinstance(walk, HasseTree):
        rho, _ = hasse_exponents(walk, shape)
        nodes = walk.nodes_below(walk.root)
        if side == "first":
            return tuple(rho[u] - walk.depth_weights[u] / 2.0
                         for u in nodes), True
        return tuple(-rho[u] - walk.subtree_weights[u] / 2.0
                     for u in nodes), True
    check_alignment(shape, walk)
    slack = list(_slacks(shape, walk, side))
    head = slack.pop(walk.sep_index[0]) if walk.separators else 0
    holds = all(abs(d) <= _TOL for d in slack)
    alpha = shape.alpha
    if side == "first":
        return (alpha[0] + head,) + tuple(
            a - len(given) / 2.0
            for a, (_, given) in zip(alpha, walk.steps[1:])), holds
    s2 = len(walk.steps[0][0])
    return (-alpha[0] - (walk.clique_sizes[0] - s2) / 2.0 - head,) + \
        tuple(-a for a in alpha), holds


def step_exponents(shape, walk, side):
    """Exponent p of each ``(new, given)`` step of ``walk.steps``.

    ``walk`` is a CliqueOrdering or a HasseTree.  On the ``"first"``
    side a step's conditional block is Wishart with shape p; on the
    ``"second"`` side it is the inverse of a Wishart with shape p.
    """
    return _exponents(shape, walk, side)[0]


def _admitted(shape, walk, side):
    """Step exponents of ``walk`` on one side, or None when the walk does
    not admit the shape: a separator equality fails, or a non-empty step
    has p <= (|new| - 1) / 2 up to the tolerance."""
    exps, holds = _exponents(shape, walk, side)
    if holds and all(p > (len(new) - 1) / 2.0 + _TOL
                     for (new, _), p in zip(walk.steps, exps) if new):
        return exps
    return None


def _admissible_walk(shape, ordering, hasse, side):
    """The walk a shape is admissible on for one side, with its step
    exponents: the clique order, else the class tree when one is given.
    Raises ShapeNotAdmissible when neither walk admits the shape."""
    check_alignment(shape, ordering)
    for walk in (ordering, hasse):
        exps = None if walk is None else _admitted(shape, walk, side)
        if exps is not None:
            return walk, exps
    raise ShapeNotAdmissible(
        "shape outside the admissible set for this cone")


def shape_class(shape, ordering, hasse=None):
    """Classify a shape against every admissibility system.

    All inequalities are tested strictly up to a tolerance of 1e-12;
    equality constraints must hold within it.
    """
    check_alignment(shape, ordering)
    alpha, beta = shape.alpha, shape.beta
    csize = ordering.clique_sizes

    in_a1 = len(set(alpha)) == 1 and set(beta) <= set(alpha) and \
        (not beta or len(set(beta)) == 1) and \
        alpha[0] > (max(csize) - 1) / 2.0 + _TOL
    if in_a1 and beta:
        in_a1 = abs(beta[0] - alpha[0]) <= _TOL

    in_b1 = False
    deltas = [-2.0 * a - c + 1.0 for a, c in zip(alpha, csize)]
    if max(deltas) - min(deltas) <= _TOL and deltas[0] > _TOL:
        in_b1 = all(
            abs(-2.0 * beta[i] - len(s) + 1.0 - deltas[0]) <= _TOL
            for i, s in enumerate(ordering.distinct_separators))

    d2 = g2 = None
    if ordering.separators:
        first = ordering.sep_index[0]
        d2 = _slacks(shape, ordering, "first")[first]
        g2 = _slacks(shape, ordering, "second")[first]

    flags = [None if walk is None else
             _admitted(shape, walk, side) is not None
             for walk in (ordering, hasse) for side in ("first", "second")]
    return ShapeClass(in_a1, in_b1, *flags, d2, g2)


def steps_log_gamma(steps, exponents):
    """Sum over the steps of (|new| |given| / 2) log(pi) plus the log
    multivariate gamma of dimension |new| at the step's exponent."""
    total = 0.0
    for (new, given), p in zip(steps, exponents):
        total += len(new) * len(given) / 2.0 * math.log(math.pi) + \
            log_multigamma(len(new), p)
    return total


def _log_gamma(shape, ordering, hasse, side):
    walk, exps = _admissible_walk(shape, ordering, hasse, side)
    return steps_log_gamma(walk.steps, exps)


def log_gamma_I(shape, ordering, hasse=None):
    """Log normalizing constant of the first-cone family.

    Uses the per-order formula when the shape is admissible for the
    given order, falling back to the class-tree formula for homogeneous
    graphs; raises ShapeNotAdmissible otherwise.
    """
    return _log_gamma(shape, ordering, hasse, "first")


def log_gamma_II(shape, ordering, hasse=None):
    """Log normalizing constant of the second-cone family."""
    return _log_gamma(shape, ordering, hasse, "second")
