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


def _log_h(shape, data, ordering):
    """Batch-first log h over (..., r, r) arrays.

    Returns the value and whether every block determinant is positive.
    """
    return _logdet_sum(data, ordering, _weights(shape, ordering))


def log_h(shape, x, ordering=None):
    """Log of the clique/separator determinant power product at x.

    Separator factors are weighted by their multiplicity in the order.
    Raises NotInQG, naming the clique, when a clique block of x is not
    positive definite.
    """
    ordering = ordering or decompose(x.graph)
    check_alignment(shape, ordering)
    _require_pd_cliques(x.data, ordering)
    return float(_log_h(shape, x.data, ordering)[0])


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


def _delta2(shape, ordering):
    # sep_index[:1] is S2's index, or nothing for a single clique.
    return sum(sum(shape.alpha[j] for j in ordering.occurrences[i]) -
               ordering.multiplicity[i] * shape.beta[i]
               for i in ordering.sep_index[:1])


def _gamma2(shape, ordering):
    s2 = len(ordering.steps[0][0])
    return sum(sum(shape.alpha[j] - shape.beta[i] +
                   (ordering.clique_sizes[j] - s2) / 2.0
                   for j in ordering.occurrences[i])
               for i in ordering.sep_index[:1])


def step_exponents(shape, walk, side):
    """Exponent p of each ``(new, given)`` step of ``walk.steps``.

    ``walk`` is a CliqueOrdering or a HasseTree.  On the ``"first"``
    side a step's conditional block is Wishart with shape p; on the
    ``"second"`` side it is the inverse of a Wishart with shape p.
    """
    if isinstance(walk, HasseTree):
        rho, _ = hasse_exponents(walk, shape)
        if side == "first":
            return tuple(rho[u] - walk.depth_weights[u] / 2.0
                         for u in walk.nodes_below(walk.root))
        return tuple(-rho[u] - walk.subtree_weights[u] / 2.0
                     for u in walk.nodes_below(walk.root))
    check_alignment(shape, walk)
    alpha = shape.alpha
    if side == "first":
        head = alpha[0] + _delta2(shape, walk)
        return (head,) + tuple(a - len(given) / 2.0 for a, (_, given)
                               in zip(alpha, walk.steps[1:]))
    s2 = len(walk.steps[0][0])
    head = -alpha[0] - (walk.clique_sizes[0] - s2) / 2.0 - \
        _gamma2(shape, walk)
    return (head,) + tuple(-a for a in alpha)


def _steps_admissible(walk, exponents, tol):
    """Every non-empty step needs p > (|new| - 1) / 2."""
    return all(p > (len(new) - 1) / 2.0 + tol
               for (new, _), p in zip(walk.steps, exponents) if new)


def shape_class(shape, ordering, hasse=None, tol=_TOL):
    """Classify a shape against every admissibility system.

    All inequalities are tested strictly up to ``tol``; equality
    constraints must hold within ``tol``.
    """
    check_alignment(shape, ordering)
    alpha, beta = shape.alpha, shape.beta
    csize = ordering.clique_sizes

    in_a1 = len(set(alpha)) == 1 and set(beta) <= set(alpha) and \
        (not beta or len(set(beta)) == 1) and \
        alpha[0] > (max(csize) - 1) / 2.0 + tol
    if in_a1 and beta:
        in_a1 = abs(beta[0] - alpha[0]) <= tol

    in_b1 = False
    deltas = [-2.0 * a - c + 1.0 for a, c in zip(alpha, csize)]
    if max(deltas) - min(deltas) <= tol and deltas[0] > tol:
        in_b1 = all(
            abs(-2.0 * beta[i] - len(s) + 1.0 - deltas[0]) <= tol
            for i, s in enumerate(ordering.distinct_separators))

    ssize = (0,) + ordering.separator_sizes
    others = [i for i in range(ordering.k_prime)
              if i not in ordering.sep_index[:1]]
    in_a_p = all(
        abs(sum(alpha[j] for j in ordering.occurrences[i]) -
            ordering.multiplicity[i] * beta[i]) <= tol
        for i in others) and _steps_admissible(
            ordering, step_exponents(shape, ordering, "first"), tol)
    in_b_p = all(
        abs(sum(alpha[j] + (csize[j] - ssize[j]) / 2.0
                for j in ordering.occurrences[i]) -
            ordering.multiplicity[i] * beta[i]) <= tol
        for i in others) and _steps_admissible(
            ordering, step_exponents(shape, ordering, "second"), tol)
    d2 = g2 = None
    if ordering.separators:
        d2, g2 = _delta2(shape, ordering), _gamma2(shape, ordering)

    in_a_hom = in_b_hom = None
    if hasse is not None:
        in_a_hom = _steps_admissible(
            hasse, step_exponents(shape, hasse, "first"), tol)
        in_b_hom = _steps_admissible(
            hasse, step_exponents(shape, hasse, "second"), tol)

    return ShapeClass(in_a1, in_b1, in_a_p, in_b_p,
                      in_a_hom, in_b_hom, d2, g2)


def admissible_walk(cls, ordering, hasse, side):
    """The step list a classified shape is admissible on for one side:
    the clique order, else the class tree, else None."""
    if cls.in_a_p if side == "first" else cls.in_b_p:
        return ordering
    if cls.in_a_hom if side == "first" else cls.in_b_hom:
        return hasse
    return None


def steps_log_gamma(steps, exponents):
    """Sum over the steps of (|new| |given| / 2) log(pi) plus the log
    multivariate gamma of dimension |new| at the step's exponent."""
    total = 0.0
    for (new, given), p in zip(steps, exponents):
        total += len(new) * len(given) / 2.0 * math.log(math.pi) + \
            log_multigamma(len(new), p)
    return total


def _log_gamma(shape, ordering, hasse, side):
    check_alignment(shape, ordering)
    walk = admissible_walk(shape_class(shape, ordering, hasse),
                           ordering, hasse, side)
    if walk is None:
        raise ShapeNotAdmissible(
            "shape outside the admissible set for this cone")
    return steps_log_gamma(walk.steps, step_exponents(shape, walk, side))


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
