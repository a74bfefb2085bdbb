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


def _require_pd_cliques(data, ordering):
    """Raise NotInQG unless every clique block of the (r, r) array is
    positive definite: one batched Cholesky per clique size.  The error
    names the first failing clique of the order."""
    failed = []
    for g in ordering.plan:
        for _, part in _chunks(1, g.cliques, 8 * g.size ** 2):
            try:
                np.linalg.cholesky(
                    _blocks_of(data, ..., g.index[:g.cliques][part]))
            except np.linalg.LinAlgError:
                failed.extend(g.members[:g.cliques][part])
    if failed:
        failed.sort()
        j = next((j for j in failed
                  if not _is_pd(_block(data, ordering.cliques[j]))),
                 failed[0])
        raise NotInQG("clique submatrix is not positive definite",
                      clique=list(ordering.cliques[j]))


def require_qg(x):
    """Check positive definiteness of every clique submatrix; returns the
    graph's clique order."""
    ordering = decompose(x.graph)
    _require_pd_cliques(x.data, ordering)
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

    Filled in along the graph's step list: each new block is regressed
    onto its given block, and through it onto the history so far.
    """
    ordering = require_qg(x)
    out = np.zeros(x.data.shape)
    hist = np.zeros(0, dtype=int)
    for new, given in ordering.steps:
        ni, gi = _idx(new), _idx(given)
        if len(gi):
            ratio = np.linalg.solve(_block(x.data, given),
                                    x.data[ni[:, None], gi].T).T
            cross = ratio @ out[gi[:, None], hist]
            out[ni[:, None], hist] = cross
            out[hist[:, None], ni] = cross.T
        out[ni[:, None], ni] = _block(x.data, new)
        hist = np.concatenate([hist, ni])
    return 0.5 * (out + out.T)


# Bytes that one gather of blocks may take.  The kernels walk each block
# size group of a stack of matrices in chunks of draws (of blocks, when
# one draw is larger) so that their temporaries stay near this size.
_CHUNK_BYTES = 4 << 20


def _chunks(n, m, item):
    """(draw slice, block slice) pairs that cover n draws times m blocks,
    each chunk gathering about ``_CHUNK_BYTES`` at ``item`` bytes per
    block of one draw."""
    per = max(1, _CHUNK_BYTES // item)
    if m <= per:
        step = max(1, per // max(m, 1))
        return [(slice(a, a + step), slice(None)) for a in range(0, n, step)]
    return [(slice(a, a + 1), slice(b, b + per))
            for a in range(n) for b in range(0, m, per)]


def _stack(data):
    """(n, r, r) view of a (..., r, r) array."""
    return data.reshape((-1,) + data.shape[-2:])


def _blocks_of(flat, rows, ix):
    """Blocks (..., m, k, k) of the ``rows`` of a stack on the 0-based
    index rows of ``ix`` (m, k)."""
    return flat[rows, ix[:, :, None], ix[:, None, :]]


def _logdet_sum(data, ordering, weights):
    """Sum of w * log det data_A over ``ordering.blocks`` A of (..., r, r)
    arrays, one batched ``slogdet`` per block size (and chunk).

    Returns the value and whether every block determinant is positive.
    """
    flat = _stack(data)
    w = np.asarray(weights, dtype=float)
    total = np.zeros(len(flat))
    ok = np.ones(len(flat), dtype=bool)
    for g in ordering.plan:
        for rows, part in _chunks(len(flat), len(g.members), 8 * g.size ** 2):
            sign, ld = np.linalg.slogdet(_blocks_of(flat, rows, g.index[part]))
            total[rows] += ld @ w[g.members[part]]
            ok[rows] &= np.all(sign > 0, axis=-1)
    lead = data.shape[:-2]
    return total.reshape(lead)[()], ok.reshape(lead)[()]


def _inverse_sum(data, ordering, weights):
    """Sum of w * (data_A)^-1 over ``ordering.blocks`` A, each zero padded
    to the full size: one batched ``inv`` per block size (and chunk)."""
    flat = _stack(data)
    n, r = flat.shape[:2]
    w = np.asarray(weights, dtype=float)
    out = np.zeros((n, r * r))
    for g in ordering.plan:
        for rows, part in _chunks(n, len(g.members), 8 * g.size ** 2):
            ix = g.index[part]
            inv = np.linalg.inv(_blocks_of(flat, rows, ix)) * \
                w[g.members[part], None, None]
            slots = (ix[:, :, None] * r + ix[:, None, :]).ravel()
            np.add.at(out, (rows, slots), inv.reshape(len(inv), -1))
    return out.reshape(data.shape)


def precision_of(x):
    """Inverse of the completion of x, computed blockwise.

    The result is exactly zero off the pattern: it accumulates padded
    clique inverses minus padded separator inverses.
    """
    ordering = require_qg(x)
    out = _inverse_sum(x.data, ordering, ordering.signs)
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


def logdet_hat(x):
    """Log determinant of the completion of x.

    Computed as the clique log determinants minus the separator ones,
    never forming the completion itself.  Raises NotInQG, naming the
    clique, when a clique block is not positive definite.
    """
    ordering = require_qg(x)
    return float(_logdet_sum(x.data, ordering, ordering.signs)[0])


@dataclass(frozen=True)
class Blocks:
    """Regression coordinates of an incomplete matrix: ``parts`` holds
    one (conditional block, regression coefficient) pair per step of
    ``ordering.steps``."""

    ordering: object
    parts: tuple


def _regress(data, rows, cols):
    """Return (conditional block, coefficient) of data[rows] onto
    data[cols], for (..., r, r) arrays."""
    if len(cols) == 0:
        return _block(data, rows), np.zeros(data.shape[:-2] + (len(rows), 0))
    ri, ci = _idx(rows), _idx(cols)
    xrs = data[..., ri[:, None], ci]
    ratio = _tr(np.linalg.solve(_block(data, cols), _tr(xrs)))
    cond = _block(data, rows) - ratio @ _tr(xrs)
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


def _fill(pattern, steps, parts, lead=()):
    """Packed store (*lead, r + |E|) built along ``steps`` from one
    (conditional block, coefficient) pair per step; a step whose part is
    None is skipped."""
    store = np.zeros(lead + (pattern.size,))
    for (new, given), part in zip(steps, parts):
        if part is not None:
            _place(store, pattern.pos, new, given, *part,
                   _gather(store, pattern.pos, given))
    return store


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
    return Blocks(ordering, tuple(_regress(x.data, new, given)
                                  for new, given in ordering.steps))


def assemble_blocks(blocks):
    """Inverse of :func:`split_blocks`."""
    ordering = blocks.ordering
    pattern = ordering.graph.pattern
    store = _fill(pattern, ordering.steps, blocks.parts)
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
