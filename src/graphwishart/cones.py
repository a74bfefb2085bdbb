"""Matrix cones attached to a decomposable graph.

Two cones appear throughout: incomplete symmetric matrices whose clique
submatrices are positive definite (only entries on the diagonal and on
edges are meaningful), and sparse positive definite matrices that vanish
off the diagonal and edge set.  The two are in bijection: an incomplete
matrix has a unique positive definite completion whose inverse lands in
the sparse cone, and inversion maps one cone onto the other.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GraphMismatch,
    MalformedInput,
    NonNumeric,
    NotInPG,
    NotInQG,
    ShapeMismatch,
)
from .graphs import decompose

__all__ = [
    "IncompleteMatrix",
    "SparsePrecision",
    "Blocks",
    "project",
    "trace_pair",
    "complete",
    "precision_of",
    "phi",
    "logdet_hat",
    "split_blocks",
    "assemble_blocks",
    "schur_pad",
]


def _idx(vertices):
    """1-based vertex tuple to 0-based numpy index array."""
    return np.asarray(vertices, dtype=int) - 1


def _block(arr, vertices):
    """Submatrix of ``arr`` (..., r, r) on a 1-based vertex tuple."""
    ix = _idx(vertices)
    return arr[..., ix[:, None], ix[None, :]]


def _tr(a):
    return np.swapaxes(a, -1, -2)


def _as_matrix(data, r):
    arr = np.asarray(data, dtype=float)
    if arr.shape != (r, r):
        raise DimensionMismatch("matrix has wrong shape",
                                expected=[r, r], got=list(arr.shape))
    if not np.all(np.isfinite(arr)):
        raise NonNumeric("matrix has non-finite entries")
    return arr


@dataclass(frozen=True)
class IncompleteMatrix:
    """Symmetric matrix known only on the diagonal and edge entries.

    ``data`` is stored dense with exact zeros at the unknown positions,
    which keeps all the linear algebra plain numpy.
    """

    graph: object
    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data, self.graph.vertex_count)
        object.__setattr__(self, "data", arr * self.graph.edge_mask())

    def submatrix(self, vertices):
        return _block(self.data, vertices)


@dataclass(frozen=True)
class SparsePrecision:
    """Positive definite matrix vanishing off the diagonal and edges."""

    graph: object
    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data, self.graph.vertex_count)
        object.__setattr__(self, "data", arr * self.graph.edge_mask())

    def submatrix(self, vertices):
        return _block(self.data, vertices)


def _check_symmetric(arr, tol=1e-12):
    """Reject an asymmetry above ``tol`` times the largest entry."""
    gap = float(np.max(np.abs(arr - arr.T), initial=0.0))
    if gap > tol * float(np.max(np.abs(arr), initial=0.0)):
        raise MalformedInput("matrix is not symmetric", asymmetry=gap)


def _is_pd(block):
    try:
        np.linalg.cholesky(block)
        return True
    except np.linalg.LinAlgError:
        return False


def project(full, graph):
    """Restrict a dense symmetric matrix to the pattern of the graph."""
    arr = _as_matrix(full, graph.vertex_count)
    _check_symmetric(arr)
    sym = 0.5 * (arr + arr.T)
    return IncompleteMatrix(graph, sym)


def require_qg(x):
    """Check positive definiteness of every clique submatrix; returns the
    graph's clique order."""
    ordering = decompose(x.graph)
    for c in ordering.cliques:
        if not _is_pd(x.submatrix(c)):
            raise NotInQG("clique submatrix is not positive definite",
                          clique=list(c))
    return ordering


def trace_pair(x, y):
    """Inner product summing x_ij * y_ij over all ordered pairs of the
    pattern (off-diagonal entries count twice).

    Equals the trace of (completion of x) times y whenever y is sparse
    with respect to the same graph.
    """
    if x.graph != y.graph:
        raise GraphMismatch("operands live on different graphs")
    mask = x.graph.edge_mask()
    return float(np.sum(x.data * y.data * mask))


def complete(x):
    """Unique positive definite completion as a dense array.

    Filled in along the graph's perfect clique order: each new residual
    block is regressed onto the current history through its separator.
    """
    ordering = require_qg(x)
    r = x.graph.vertex_count
    out = np.zeros((r, r))
    c1 = _idx(ordering.cliques[0])
    out[np.ix_(c1, c1)] = x.submatrix(ordering.cliques[0])
    for j in range(1, ordering.k):
        sep = ordering.separators[j - 1]
        res = ordering.residuals[j]
        hist = _idx(ordering.histories[j - 1])
        si = _idx(sep)
        ri = _idx(res)
        xs = x.submatrix(sep)
        xrs = x.data[np.ix_(ri, si)]
        ratio = np.linalg.solve(xs, xrs.T).T if len(sep) else \
            np.zeros((len(res), 0))
        cross = ratio @ out[np.ix_(si, hist)] if len(sep) else \
            np.zeros((len(res), len(hist)))
        out[np.ix_(ri, hist)] = cross
        out[np.ix_(hist, ri)] = cross.T
        out[np.ix_(ri, ri)] = x.submatrix(res)
    return 0.5 * (out + out.T)


def precision_of(x):
    """Inverse of the completion of x, computed blockwise.

    The result is exactly zero off the pattern: it accumulates padded
    clique inverses minus padded separator inverses.
    """
    ordering = require_qg(x)
    out = np.zeros(x.data.shape)
    for c in ordering.cliques:
        ix = _idx(c)
        out[ix[:, None], ix[None, :]] += np.linalg.inv(x.submatrix(c))
    for sep in ordering.separators:
        ix = _idx(sep)
        out[ix[:, None], ix[None, :]] -= np.linalg.inv(x.submatrix(sep))
    return SparsePrecision(x.graph, 0.5 * (out + out.T))


def phi(y):
    """Projection of the dense inverse of y onto the pattern of y.

    The inverse is symmetrized rather than checked: its rounding
    asymmetry grows with the size and conditioning of y.
    """
    try:
        np.linalg.cholesky(y.data)
    except np.linalg.LinAlgError:
        raise NotInPG("matrix is not positive definite") from None
    inv = np.linalg.inv(y.data)
    return IncompleteMatrix(y.graph, 0.5 * (inv + inv.T))


def _logdet(block):
    sign, val = np.linalg.slogdet(block) if block.size else (1.0, 0.0)
    if sign <= 0:
        raise NotInQG("block has non-positive determinant")
    return val


def logdet_hat(x):
    """Log determinant of the completion of x.

    Computed as the clique log determinants minus the separator ones,
    never forming the completion itself.
    """
    ordering = decompose(x.graph)
    total = 0.0
    for c in ordering.cliques:
        total += _logdet(x.submatrix(c))
    for sep in ordering.separators:
        if sep:
            total -= _logdet(x.submatrix(sep))
    return total


@dataclass(frozen=True)
class Blocks:
    """Regression coordinates of an incomplete matrix.

    One (conditional block, regression coefficient) pair per step of
    ``ordering.steps``: the first separator block ``c1_sep`` on its own,
    the rest of the first clique (``c1_cond``, ``c1_ratio``) given it,
    then each later residual (``conds``, ``ratios``) given its
    separator.
    """

    ordering: object
    c1_cond: np.ndarray
    c1_ratio: np.ndarray
    c1_sep: np.ndarray
    conds: tuple  # j = 1..k-1 (0-based list index j-1)
    ratios: tuple

    @property
    def k(self):
        return self.ordering.k

    def parts(self):
        """(conditional block, coefficient) per step of the order."""
        head = ((self.c1_sep, np.zeros((len(self.c1_sep), 0))),
                (self.c1_cond, self.c1_ratio))
        return head + tuple(zip(self.conds, self.ratios))


def _regress(data, rows, cols):
    """Return (conditional block, coefficient) of data[rows] onto
    data[cols]."""
    if len(cols) == 0:
        return _block(data, rows), np.zeros((len(rows), 0))
    ri, ci = _idx(rows), _idx(cols)
    xs = data[ci[:, None], ci]
    xrs = data[ri[:, None], ci]
    ratio = np.linalg.solve(xs, xrs.T).T
    cond = data[ri[:, None], ri] - ratio @ xrs.T
    return cond, ratio


def _slots(pos, rows, cols):
    """Packed slots of the block rows x cols (1-based vertex tuples);
    ``pos`` is the slot table of a graph's pattern index."""
    return pos[_idx(rows)[:, None], _idx(cols)]


def _tril(pos, vertices):
    """Packed slots of the lower triangle of the block on ``vertices``,
    and the boolean selector of that triangle inside the block."""
    sel = np.tri(len(vertices), dtype=bool)
    return _slots(pos, vertices, vertices)[sel], sel


def _gather(store, pos, vertices):
    """Block on ``vertices`` of a packed store (..., r + |E|); the block
    must lie on the pattern."""
    return store[..., _slots(pos, vertices, vertices)]


def _place(store, pos, new, given, cond, ratio, x_given):
    """Write one step into a packed store whose block on ``given`` is
    ``x_given``: the regression cross terms and the new block."""
    cross = ratio @ x_given
    store[..., _slots(pos, new, given)] = cross
    slots, sel = _tril(pos, new)
    store[..., slots] = (cond + cross @ _tr(ratio))[..., sel]


def _add_step_precision(store, pos, new, given, cond_inv, ratio):
    """Add one step's term E^T cond^-1 E, with E = [I_new, -ratio] on
    (new, given), to a packed store.  Summed over the steps of a walk
    these terms give the inverse of the completion (Vandenberghe and
    Andersen, Chordal Graphs and Semidefinite Optimization, 2015)."""
    lead = cond_inv @ ratio
    slots, sel = _tril(pos, new)
    store[..., slots] += cond_inv[..., sel]
    store[..., _slots(pos, new, given)] -= lead
    slots, sel = _tril(pos, given)
    store[..., slots] += (_tr(ratio) @ lead)[..., sel]


def _scatter(store, pattern):
    """Dense (..., r, r) array of a packed store: exactly symmetric and
    exactly zero off the pattern."""
    r = pattern.mask.shape[0]
    out = np.zeros(store.shape[:-1] + (r, r))
    out[..., pattern.rows, pattern.cols] = store
    out[..., pattern.cols, pattern.rows] = store
    return out


def split_blocks(x, ordering=None):
    """Decompose x into independent regression coordinates along
    ``ordering`` (default: the graph's clique order)."""
    require_qg(x)
    ordering = ordering or decompose(x.graph)
    parts = [_regress(x.data, new, given) for new, given in ordering.steps]
    (c1_sep, _), (c1_cond, c1_ratio) = parts[:2]
    return Blocks(ordering, c1_cond, c1_ratio, c1_sep,
                  tuple(c for c, _ in parts[2:]),
                  tuple(b for _, b in parts[2:]))


def assemble_blocks(blocks):
    """Inverse of :func:`split_blocks`."""
    ordering = blocks.ordering
    pattern = ordering.graph.pattern
    store = np.zeros(pattern.size)
    for (new, given), (cond, ratio) in zip(ordering.steps, blocks.parts()):
        _place(store, pattern.pos, new, given, cond, ratio,
               _gather(store, pattern.pos, given))
    return IncompleteMatrix(ordering.graph, _scatter(store, pattern))


def schur_pad(m, vertices):
    """Schur complement of the block on ``vertices``, zero padded.

    Given a dense symmetric matrix m (or a stack of them, (..., r, r))
    and a 1-based vertex list A, the result is zero on the rows and
    columns of A and carries m_B - m_BA m_A^{-1} m_AB on the
    complement B.
    """
    arr = np.asarray(m, dtype=float)
    r = arr.shape[-1] if arr.ndim else 0
    if arr.ndim < 2 or arr.shape[-2] != r:
        raise DimensionMismatch("matrix has wrong shape",
                                expected=[r, r], got=list(arr.shape))
    a = _idx(vertices)
    if len(a) and (a.min() < 0 or a.max() >= r):
        raise ShapeMismatch("vertex label out of range",
                            vertices=list(vertices), r=r)
    b = np.setdiff1d(np.arange(r), a)
    out = np.zeros(arr.shape)
    mba = arr[..., b[:, None], a[None, :]]
    out[..., b[:, None], b[None, :]] = arr[..., b[:, None], b[None, :]] - \
        mba @ np.linalg.solve(arr[..., a[:, None], a[None, :]], _tr(mba))
    return out
