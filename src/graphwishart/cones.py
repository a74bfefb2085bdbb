"""Matrix cones attached to a decomposable graph.

Two cones appear throughout: incomplete symmetric matrices whose clique
submatrices are positive definite (only entries on the diagonal and on
edges are meaningful), and sparse positive definite matrices that vanish
off the diagonal and edge set.  The two are in bijection: an incomplete
matrix has a unique positive definite completion whose inverse lands in
the sparse cone, and inversion maps one cone onto the other.
"""

from dataclasses import dataclass, field

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
from .graphs import _order_of, decompose

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
    return a.swapaxes(-1, -2)


def _as_matrix(data, r):
    arr = np.asarray(data, dtype=float)
    if arr.shape != (r, r):
        raise DimensionMismatch("matrix has wrong shape",
                                expected=[r, r], got=list(arr.shape))
    if not np.all(np.isfinite(arr)):
        raise NonNumeric("matrix has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False, init=False)
class _PatternMatrix:
    """The diagonal and edge entries of a graph, packed as the read-only
    ``values`` (r + |E|,) in the slot order of ``graph.pattern``; built
    from a dense (r, r) array symmetric on the pattern and ignored off
    it.  ``data`` is the dense view.  Two instances compare equal only
    when they are the same object.  A scale keeps the sampler step plans
    built on it (``WishartSpec.plan``), under ``_plans``."""

    graph: object
    values: np.ndarray
    _dense: object = field(default=None, repr=False)

    def __init__(self, graph, data):
        arr = _as_matrix(data, graph.vertex_count)
        p = graph.pattern
        values = arr[p.rows, p.cols]
        _check_symmetric(values, arr[p.cols, p.rows])
        _PatternMatrix._of(graph, values, self)

    @classmethod
    def _of(cls, graph, values, out=None):
        """Wrap a packed (r + |E|,) array laid out by ``graph.pattern``
        in ``out``, by default a new instance; the array is made
        read-only, not copied."""
        out = object.__new__(cls) if out is None else out
        values.setflags(write=False)
        out.__dict__.update(graph=graph, values=values)
        return out

    @property
    def data(self):
        """Dense read-only (r, r) view, built on first use: exactly
        symmetric and exactly zero off the pattern."""
        if self._dense is None:
            self.__dict__["_dense"] = _scatter(self.values, self.graph.pattern)
            self._dense.setflags(write=False)
        return self._dense

    def submatrix(self, vertices):
        return _block(self.data, vertices)


class IncompleteMatrix(_PatternMatrix):
    """Symmetric matrix known only on the diagonal and edge entries."""

    _noun = "an incomplete matrix"


class SparsePrecision(_PatternMatrix):
    """Positive definite matrix vanishing off the diagonal and edges."""

    _noun = "a sparse precision"


def _check_symmetric(a, b, tol=1e-12):
    """Reject a gap between ``a`` and its mirror ``b`` (the transpose, or
    the other triangle) above ``tol`` times the largest entry of a."""
    gap = float(np.max(np.abs(a - b), initial=0.0))
    if gap > tol * float(np.max(np.abs(a), initial=0.0)):
        raise MalformedInput("matrix is not symmetric", asymmetry=gap)


# Small-block kernels for stacks of draws.  A stack holds its draws
# last, (k, k, n), so each block entry is one contiguous vector of n
# draws; every kernel also takes one (k, k) matrix for all draws.  A
# LAPACK gufunc or a stacked matmul pays its call overhead once per
# matrix of a stack, so these kernels run numpy passes over the entries
# of small blocks instead.  They set no floating point error state: a
# caller that may meet a zero, an overflow or a NaN sets one around
# them (the sampler walk sets one per walk).  A stack of k x k blocks
# takes the Cholesky kernel from _CHOL_MIN[k] blocks on (measured:
# BENCH_19.json).
_CHOL_MIN = {1: 1, 2: 32, 3: 100, 4: 200}
# A single (b, b) factor for every draw is back-substituted from
# _SOLVE_MIN[b] rows of right-hand sides on (a per draw of z (a, b, n));
# below, one LAPACK call costs less (measured: BENCH_19.json).
_SOLVE_MIN = {1: 0, 2: 0, 3: 100, 4: 200}


def _lapack(f, a):
    """A ``numpy.linalg`` function ``f`` of a matrix or a draws-last
    stack, whose draws it moves to the front and back."""
    if a.ndim == 2:
        return f(a)
    return f(a.transpose(2, 0, 1)).transpose(1, 2, 0)


def _mul(a, b):
    """Product a b of draws-last stacks a (p, q, n) and b (q, s, n),
    either of which may be one matrix for every draw: one broadcast
    multiply and a sum over q taken in index order, with no fused
    multiply-add.  numpy's sum adds fewer than 8 terms one after the
    other; from 8 on its pairwise summation would reorder them, so they
    are added in a loop.  An inner size of 1 is the multiply alone.
    Two single matrices (a fill with no draws, as the type-I mean) take
    numpy's ``@``, one call in place of two."""
    if a.ndim == b.ndim == 2:
        return a @ b
    if a.ndim != b.ndim:
        a, b = (a[..., None], b) if a.ndim < b.ndim else (a, b[..., None])
    if a.shape[1] == 1:
        return a * b
    t = a[:, :, None] * b
    if t.shape[1] < 8:
        return t.sum(axis=1)
    out = t[:, 0]
    for m in range(1, t.shape[1]):
        out = out + t[:, m]
    return out


def _potrf(a):
    """LAPACK's lower Cholesky factor of a matrix or a draws-last stack,
    one matrix at a time; None when a pivot is not positive or is NaN."""
    try:
        low = _lapack(np.linalg.cholesky, a)
    except np.linalg.LinAlgError:
        return None
    # numpy returns a NaN factor for a NaN pivot instead of failing
    return low if (low.diagonal() > 0).all() else None


def _chol(a):
    """Lower Cholesky factor of a matrix or a draws-last stack
    (k, k, n): Crout's recursion unrolled over the entries of a small
    block, :func:`_potrf` below ``_CHOL_MIN``.  None when a pivot is not
    positive or is NaN (near 0 the two may read a block differently)."""
    k = a.shape[0]
    if a.ndim < 3 or a.size < _CHOL_MIN.get(k, np.inf) * k * k:
        return _potrf(a)
    low = np.zeros_like(a)
    col = [[None] * k for _ in range(k)]
    for j in range(k):
        d = a[j, j]
        for m in range(j):
            d = d - col[j][m] * col[j][m]
        if not (d > 0).all():
            return None
        col[j][j] = low[j, j] = np.sqrt(d)
        for i in range(j + 1, k):
            s = a[i, j]
            for m in range(j):
                s = s - col[i][m] * col[j][m]
            col[i][j] = low[i, j] = s / col[j][j]
    return low


def _solve_right(z, low):
    """z low^-1 for a draws-last stack z (a, b, n) and a lower
    triangular factor ``low``, one (b, b) matrix for every draw or a
    stack (b, b, n): back substitution over the factor's entries up to
    4x4 (its numpy calls grow as b^2), LAPACK above, and one LAPACK call
    for a single factor below ``_SOLVE_MIN`` rows of right-hand sides."""
    a, b, n = z.shape
    if low.ndim == 2 and (b > 4 or a * n < _SOLVE_MIN[b]):
        y = np.linalg.solve(low.T, z.transpose(1, 0, 2).reshape(b, -1))
        return y.reshape(b, a, n).transpose(1, 0, 2)
    if b > 4:
        return np.linalg.solve(low.transpose(2, 1, 0),
                               z.transpose(2, 1, 0)).transpose(2, 1, 0)
    if low.ndim == 3:
        low = low[:, :, None]  # entries (1, n): same ndim as z's rows, faster
    y = np.empty(z.shape)
    for j in reversed(range(b)):
        s = z[:, j]
        for m in range(j + 1, b):
            s = s - y[:, m] * low[m, j]
        y[:, j] = s / low[j, j]
    return y


def _inv(a):
    """Inverse of a matrix or a draws-last stack, ``1 / a`` for 1x1
    blocks (what LAPACK gives bit for bit); None when a block is
    singular in floating point: a zero pivot, or an inverse that is not
    finite."""
    try:
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / a if a.shape[0] == 1 else _lapack(np.linalg.inv, a)
    except np.linalg.LinAlgError:
        return None
    return inv if np.isfinite(inv).all() else None


def _is_pd(block):
    """Whether a matrix, or each of a draws-last stack, is positive
    definite by :func:`_potrf`: the same verdict alone and in any stack."""
    return _potrf(block) is not None


def project(full, graph):
    """Restrict a dense symmetric matrix to the pattern of the graph."""
    arr = _as_matrix(full, graph.vertex_count)
    _check_symmetric(arr, arr.T)
    return IncompleteMatrix(graph, 0.5 * (arr + arr.T))


def _require_pd_cliques(values, ordering):
    """Raise NotInQG unless every clique block of the packed (r + |E|,)
    array is positive definite by :func:`_is_pd`, one call per chunk of
    :func:`_groups`, naming the first failing clique of the order."""
    for _, _, blocks in _groups(values, ordering, cliques=True):
        if not _is_pd(blocks.transpose(1, 2, 0)):
            _refuse(values, ordering, lambda b: not _is_pd(b),
                    "not positive definite")


def _refuse(values, ordering, bad, what):
    """Raise NotInQG naming the first clique or separator of
    ``ordering.blocks`` whose block of ``values`` is ``bad``, as ``what``."""
    pos = ordering.graph.pattern.pos
    i = next(i for i, b in enumerate(ordering.blocks)
             if bad(values[_block(pos, b)]))
    kind = "clique" if i < ordering.k else "separator"
    raise NotInQG("%s submatrix is %s" % (kind, what),
                  **{kind: list(ordering.blocks[i])})


def require_qg(x):
    """Check positive definiteness of every clique submatrix; returns the
    graph's clique order."""
    ordering = decompose(x.graph)
    _require_pd_cliques(x.values, ordering)
    return ordering


def _to_qg(m, error):
    """The point of the incomplete cone that m stands for: m, checked, or
    ``phi(m)`` for a SparsePrecision.  Outside its cone m raises the
    exception class ``error``, naming the failing clique when it can."""
    try:
        if isinstance(m, SparsePrecision):
            return phi(m)
        require_qg(m)
        return m
    except (NotInQG, NotInPG) as exc:
        raise error(exc.message, **exc.context) from None


def trace_pair(x, y):
    """Inner product summing x_ij * y_ij over all ordered pairs of the
    pattern (off-diagonal entries count twice).

    Equals the trace of (completion of x) times y whenever y is sparse
    with respect to the same graph.
    """
    if x.graph != y.graph:
        raise GraphMismatch("operands live on different graphs")
    return float(np.sum(x.values * y.values * x.graph.pattern.weight))


def complete(x):
    """Unique positive definite completion as a dense array.

    Filled in along the graph's step list: each new block is regressed
    onto its given block, and through it onto the history so far.
    """
    ordering = require_qg(x)
    pos = x.graph.pattern.pos
    out = np.zeros(pos.shape)
    hist = np.zeros(0, dtype=int)
    for new, given in ordering.steps:
        ni, gi = _idx(new), _idx(given)
        cross = _regress(x.values, pos, new, given)[1] @ \
            out[gi[:, None], hist]
        out[ni[:, None], hist] = cross
        out[hist[:, None], ni] = cross.T
        out[ni[:, None], ni] = x.values[_block(pos, new)]
        hist = np.concatenate([hist, ni])
    return 0.5 * (out + out.T)


# Bytes that one gather of blocks may take: the clique/separator sums
# and the cone check walk one point's blocks in chunks of about this.
_CHUNK_BYTES = 4 << 20


def _groups(values, ordering, cliques=False):
    """(group, block slice, (m, k, k) blocks) per chunk of about
    ``_CHUNK_BYTES`` of the packed (r + |E|,) array ``values``, group by
    group of ``ordering.plan``; with ``cliques``, the cliques only."""
    for g in ordering.plan:
        per = max(1, _CHUNK_BYTES // (8 * g.size ** 2))
        m = g.cliques if cliques else len(g.members)
        for a in range(0, m, per):
            part = slice(a, min(a + per, m))
            yield g, part, values[g.slots[part]]


def _logdet_sum(values, ordering, weights):
    """Sum of w * log det x_A over ``ordering.blocks`` A of one packed
    point, one ``slogdet`` per chunk of :func:`_groups`.  A block with a
    negative determinant adds its log |det|; NotInQG names the first
    block whose log |det| is not finite (singular in floating point)."""
    w = np.asarray(weights, dtype=float)
    total = 0.0
    for g, part, blocks in _groups(values, ordering):
        logdets = np.linalg.slogdet(blocks)[1]
        if not np.isfinite(logdets).all():
            _refuse(values, ordering,
                    lambda b: not np.isfinite(np.linalg.slogdet(b)[1]),
                    "singular in floating point")
        total += logdets @ w[g.members[part]]
    return total


def _inverse_sum(values, ordering, weights):
    """Packed sum of w * (x_A)^-1 over ``ordering.blocks`` A of one
    packed point, each inverse zero padded to the pattern: one ``inv``
    per chunk of :func:`_groups`.  Each adds its lower triangle only, so
    the sum is symmetric.  NotInQG names a block LAPACK finds singular."""
    w = np.asarray(weights, dtype=float)
    out = np.zeros(values.shape)
    for g, part, blocks in _groups(values, ordering):
        try:
            inv = np.linalg.inv(blocks) * w[g.members[part], None, None]
        except np.linalg.LinAlgError:
            _refuse(values, ordering, lambda b: _inv(b) is None,
                    "singular in floating point")
        tril = np.tri(g.size, dtype=bool)
        np.add.at(out, g.slots[part][:, tril].ravel(), inv[:, tril].ravel())
    return out


def precision_of(x):
    """Inverse of the completion of x, computed blockwise.

    The result is exactly zero off the pattern: it accumulates padded
    clique inverses minus padded separator inverses.
    """
    ordering = require_qg(x)
    return SparsePrecision._of(
        x.graph, _inverse_sum(x.values, ordering, ordering.signs))


# A lower triangular block up to this order is inverted by one LAPACK
# call, a larger one is split in two; 32 and 48 tie for r from 100 to
# 400, and 16, 24, 64 and 96 are 8% to 24% slower (BENCH_25.json).
_TRI_LEAF = 48


def _tril_inv(low):
    """Overwrite the lower triangular matrix ``low`` with its inverse Z,
    by blocks: Z11 = L11^-1, Z22 = L22^-1, Z21 = -Z22 L21 Z11."""
    k = low.shape[0]
    if k <= _TRI_LEAF:
        low[...] = np.tril(np.linalg.inv(low))
        return
    h = k // 2
    _tril_inv(low[:h, :h])
    _tril_inv(low[h:, h:])
    low[h:, :h] = -(low[h:, h:] @ (low[h:, :h] @ low[:h, :h]))


def phi(y):
    """Projection of the dense inverse of y onto the pattern of y.

    The Cholesky factor y = L L^T is the cone check and gives the
    inverse, Z^T Z with Z = L^-1 (:func:`_tril_inv`, in place).  Only
    the lower triangle of Z^T Z is read, so nothing is symmetrized: an
    LU inverse was asymmetric by rounding, growing with the size and
    conditioning of y.  y is factored from a dense copy made for the
    call, so it keeps no dense view.  NotInPG when y is not positive
    definite or its inverse is not finite.
    """
    p = y.graph.pattern
    z = _potrf(_scatter(y.values, p))
    if z is not None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                _tril_inv(z)
                values = (z.T @ z)[p.rows, p.cols]
        except np.linalg.LinAlgError:  # a leaf block singular to LU
            values = np.nan
        if np.isfinite(values).all():
            return IncompleteMatrix._of(y.graph, values)
    raise NotInPG("matrix is not positive definite")


def logdet_hat(x):
    """Log determinant of the completion of x.

    Computed as the clique log determinants minus the separator ones,
    never forming the completion itself.  Raises NotInQG, naming the
    clique, when a clique block is not positive definite.
    """
    ordering = require_qg(x)
    return float(_logdet_sum(x.values, ordering, ordering.signs))


@dataclass(frozen=True)
class Blocks:
    """Regression coordinates of an incomplete matrix: ``parts`` holds
    one (conditional block, regression coefficient) pair per step of
    ``ordering.steps``."""

    ordering: object
    parts: tuple


def _regress(values, pos, rows, cols):
    """Return (conditional block, coefficient) of x[rows] onto x[cols],
    for the packed (..., r + |E|) values of x; ``pos`` is the slot table
    of their pattern, on which the blocks must lie.  ``rows`` and
    ``cols`` are 1-based vertex blocks, or arrays (m, a) and (m, b) of m
    pairs of blocks, which give stacks (..., m, ., .) from one gather
    per block and one solve.  NotInQG names ``cols`` when LAPACK finds
    a block on them singular."""
    ri, ci = _idx(rows)[..., :, None], _idx(cols)[..., None, :]
    x_rows = values[..., pos[ri, _tr(ri)]]
    if ci.shape[-1] == 0:
        return x_rows, np.zeros(x_rows.shape[:-1] + (0,))
    xrs = values[..., pos[ri, ci]]
    try:
        ratio = _tr(np.linalg.solve(values[..., pos[_tr(ci), ci]],
                                    _tr(xrs)))
    except np.linalg.LinAlgError:
        raise NotInQG("given submatrix is singular in floating point",
                      given=np.asarray(cols).tolist()) from None
    cond = x_rows - ratio @ _tr(xrs)
    return cond, ratio


def _place(store, slots, cond, ratio, x_given):
    """Write one step into a packed store (r + |E|, ...) whose block on
    ``given`` is ``x_given``: the regression cross terms and the new
    block.  A store with draws last takes draws-last stacks (and one
    matrix for every draw); the products are :func:`_mul`'s.  ``slots``
    is the step's :class:`~graphwishart.graphs.StepSlots`."""
    cross = _mul(ratio, x_given)
    store[slots.cross] = cross
    store[slots.new] = (cond + _mul(cross, ratio.swapaxes(0, 1)))[
        slots.new_sel]


def _fill(walk, parts, lead=()):
    """Packed store (r + |E|, *lead) built along ``walk.steps`` from one
    (conditional block, coefficient) pair per step, each a matrix or a
    stack (k, ., *lead); a step whose part is None is skipped."""
    store = np.zeros((walk.graph.pattern.size,) + lead)
    for slots, part in zip(walk.step_slots, parts):
        if part is not None:
            _place(store, slots, *part, store[slots.given])
    return store


def _add_step_precision(store, slots, cond_inv, ratio):
    """Add one step's term E^T cond^-1 E, with E = [I_new, -ratio] on
    (new, given), to a packed store laid out as for :func:`_place`.
    Summed over the steps of a walk these terms give the inverse of the
    completion (Vandenberghe and Andersen, Chordal Graphs and
    Semidefinite Optimization, 2015)."""
    lead = _mul(cond_inv, ratio)
    store[slots.new] += cond_inv[slots.new_sel]
    store[slots.cross] -= lead
    given, sel = slots.given_tril
    store[given] += _mul(ratio.swapaxes(0, 1), lead)[sel]


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
    ordering = _order_of(x.graph, ordering)
    pos = x.graph.pattern.pos
    return Blocks(ordering, tuple(_regress(x.values, pos, new, given)
                                  for new, given in ordering.steps))


def assemble_blocks(blocks):
    """Inverse of :func:`split_blocks`."""
    ordering = blocks.ordering
    return IncompleteMatrix._of(ordering.graph,
                                _fill(ordering, blocks.parts))


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
