"""Dense numpy references and the per-call correctness checks.

The references are written from the formulas, not from graphwishart:
the completion is filled in along the generator's own clique sequence,
the precision is a dense ``np.linalg.inv`` of it, every determinant
power is a ``slogdet`` per block, and the normalizing constant is a sum
of scipy's ``multigammaln`` over cliques and separators.  Each check raises ``CheckFailed``
with a reason; the workloads count a raised check as a failed call.
"""

import json

import numpy as np
from scipy.special import multigammaln


class CheckFailed(Exception):
    pass


def require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _ix(vertices):
    return np.asarray(vertices, dtype=int) - 1


def separators(cliques):
    """Separator of each clique after the first, along the sequence."""
    hist = set(cliques[0])
    out = []
    for c in cliques[1:]:
        out.append(tuple(sorted(set(c) & hist)))
        hist |= set(c)
    return out


def completion(data, cliques):
    """Positive definite completion of the pattern entries ``data``."""
    r = data.shape[0]
    hat = np.zeros((r, r))
    c0 = _ix(cliques[0])
    hat[np.ix_(c0, c0)] = data[np.ix_(c0, c0)]
    hist = set(cliques[0])
    for c in cliques[1:]:
        sep = _ix(sorted(set(c) & hist))
        res = _ix(sorted(set(c) - hist))
        old = _ix(sorted(hist))
        cross = data[np.ix_(res, sep)] @ np.linalg.solve(
            data[np.ix_(sep, sep)], hat[np.ix_(sep, old)])
        hat[np.ix_(res, old)] = cross
        hat[np.ix_(old, res)] = cross.T
        hat[np.ix_(res, res)] = data[np.ix_(res, res)]
        hist |= set(c)
    return hat


def block_logdet(data, vertices):
    ix = _ix(vertices)
    sign, val = np.linalg.slogdet(data[np.ix_(ix, ix)])
    require(sign > 0, "block %s is not positive definite" % (vertices,))
    return float(val)


def log_h(data, cliques, clique_exp, sep_exp):
    """Clique log determinants weighted by ``clique_exp(block)`` minus
    separator ones weighted by ``sep_exp(block)``."""
    total = sum(clique_exp(c) * block_logdet(data, c) for c in cliques)
    total -= sum(sep_exp(s) * block_logdet(data, s)
                 for s in separators(cliques))
    return total


def log_gamma(cliques, arg):
    """Log normalizing constant of a decomposable family: clique
    multivariate gammas over separator ones, each at ``arg(block)``."""
    total = sum(multigammaln(arg(c), len(c)) for c in cliques)
    total -= sum(multigammaln(arg(s), len(s)) for s in separators(cliques))
    return float(total)


def logpdf(family, point, scale, mask, cliques, shape_exp):
    """Log density of the four families from dense linear algebra.

    ``shape_exp`` maps a block to its shape exponent.  The normalizing
    constant is ``log_gamma`` at the exponent on the first side (type1,
    inv_type1) and at its negative on the second.
    """
    def weight(factor):
        return lambda block: factor * (len(block) + 1)

    if family in ("type1", "inv_type2"):
        x = point
        shift = weight(-0.5)
    else:
        x = np.linalg.inv(point) * mask
        shift = weight(0.5)
    side = 1.0 if family in ("type1", "inv_type1") else -1.0
    norm = log_gamma(cliques, lambda block: side * shape_exp(block))
    base = log_h(x, cliques, shape_exp, shape_exp) - norm \
        - log_h(scale, cliques, shape_exp, shape_exp) \
        + log_h(x, cliques, shift, shift)
    if family in ("type1", "inv_type1"):
        pair = np.sum(x * np.linalg.inv(completion(scale, cliques)) * mask)
    elif family == "inv_type2":
        pair = np.sum(scale * np.linalg.inv(completion(x, cliques)) * mask)
    else:
        pair = np.sum(scale * point * mask)
    return float(base - pair)


def mean_type1(scale, mask, cliques, alpha, beta):
    """Closed-form type1 mean for a shape with one clique exponent
    ``alpha`` and one separator exponent ``beta``, on the pattern.

    Each block A contributes hat[:, A] hat[A, A]^-1 hat[A, :], which is
    the completion minus its zero-padded Schur complement on A.
    """
    hat = completion(scale, cliques)
    rows, cols = np.nonzero(mask)
    total = np.zeros(len(rows))
    blocks = [(alpha, c) for c in cliques] + \
        [(-beta, s) for s in separators(cliques)]
    for weight, block in blocks:
        ix = _ix(block)
        left = np.linalg.solve(hat[np.ix_(ix, ix)], hat[ix, :]).T
        total += weight * np.einsum("pk,kp->p", left[rows],
                                    hat[np.ix_(ix, cols)])
    out = np.zeros_like(hat)
    out[rows, cols] = total
    return out


def mean_type2(scale, cliques, clique_exp, sep_exp):
    """Closed-form type2 mean: padded inverse scale blocks, cliques with
    weight -alpha and separators with weight +beta."""
    r = scale.shape[0]
    total = np.zeros((r, r))
    for c in cliques:
        ix = _ix(c)
        total[np.ix_(ix, ix)] -= clique_exp(c) * \
            np.linalg.inv(scale[np.ix_(ix, ix)])
    for s in separators(cliques):
        ix = _ix(s)
        total[np.ix_(ix, ix)] += sep_exp(s) * \
            np.linalg.inv(scale[np.ix_(ix, ix)])
    return 0.5 * (total + total.T)


def check_close(value, ref, what, rtol=1e-9, atol=1e-9):
    require(np.isfinite(value), "%s is not finite" % what)
    require(abs(value - ref) <= atol + rtol * abs(ref),
            "%s %.17g differs from the reference %.17g" % (what, value, ref))


def check_matrix_close(value, ref, what, rtol=1e-8):
    value = np.asarray(value)
    require(np.all(np.isfinite(value)), "%s is not finite" % what)
    gap = float(np.max(np.abs(value - ref)))
    require(gap <= rtol * max(1.0, float(np.max(np.abs(ref)))),
            "%s differs from the reference by %.3g" % (what, gap))


def check_batch(batch, mask, cliques, size):
    """A batch of draws: finite, symmetric, zero off the pattern, and
    positive definite clique blocks in its first draw.  Returns the
    pattern entries, one row per draw."""
    require(batch.shape == (size,) + mask.shape,
            "batch has shape %s" % (batch.shape,))
    # One draw at a time, so the check adds no batch-sized temporary to
    # the peak memory of the run.
    off = ~mask
    for draw in batch:
        require(np.all(np.isfinite(draw)), "batch has non-finite entries")
        require(not np.any(draw[off]), "batch has entries off the pattern")
    rows, cols = np.nonzero(mask)
    vals = batch[:, rows, cols]
    check_symmetric_pairs(vals, batch[:, cols, rows], "batch")
    first = batch[0]
    for c in cliques:
        ix = _ix(c)
        try:
            np.linalg.cholesky(first[np.ix_(ix, ix)])
        except np.linalg.LinAlgError:
            raise CheckFailed("clique block %s of the first draw is not "
                              "positive definite" % (c,)) from None
    return vals


class MeanTracker:
    """Running sums of the pattern entries of draws, for a sample mean
    with standard errors."""

    def __init__(self, mask):
        self.n = 0
        self.mask = mask
        self.sum = 0.0
        self.sumsq = 0.0

    def add(self, vals):
        self.n += vals.shape[0]
        self.sum = self.sum + vals.sum(axis=0)
        self.sumsq = self.sumsq + (vals * vals).sum(axis=0)

    def max_z(self, ref):
        """Largest |sample mean - ref| in standard errors."""
        mean = self.sum / self.n
        var = np.maximum(self.sumsq / self.n - mean * mean, 0.0) * \
            self.n / (self.n - 1)
        se = np.sqrt(var / self.n)
        require(np.all(se > 0), "draws do not vary on the pattern")
        return float(np.max(np.abs(mean - ref[self.mask]) / se))


def check_cli_matrix(obj, mask, what):
    """A CLI matrix object: null exactly off the pattern, finite and
    symmetric on it.  Returns the dense array."""
    rows = obj["matrix"]
    r = mask.shape[0]
    require(len(rows) == r and all(len(row) == r for row in rows),
            "%s has the wrong dimensions" % what)
    nulls = np.array([[v is None for v in row] for row in rows])
    require(np.array_equal(nulls, ~mask),
            "%s is not null exactly off the pattern" % what)
    data = np.array([[0.0 if v is None else v for v in row]
                     for row in rows], dtype=float)
    require(np.all(np.isfinite(data)), "%s is not finite" % what)
    check_symmetric_pairs(data, data.T, what)
    return data


def check_symmetric_pairs(a, b, what, rtol=1e-12):
    """``a`` and its mirror ``b`` agree up to rounding."""
    gap = float(np.max(np.abs(a - b)))
    require(gap <= rtol * max(1.0, float(np.max(np.abs(a)))),
            "%s is not symmetric (gap %.3g)" % (what, gap))


def check_fit_output(code, text, mask, expected_scale):
    require(code == 0, "bayes fit exited with %s" % code)
    obj = json.loads(text)
    scale = check_cli_matrix(obj["posterior_scale"], mask,
                             "posterior_scale")
    for key in ("precision_mean", "sigma_mean", "sigma_se"):
        check_cli_matrix(obj[key], mask, key)
    check_matrix_close(scale, expected_scale, "posterior_scale", 1e-12)


def check_sample_output(code, text, mask, size):
    require(code == 0, "dist sample exited with %s" % code)
    lines = text.splitlines()
    require(len(lines) == size, "dist sample printed %d draws" % len(lines))
    for line in lines:
        check_cli_matrix(json.loads(line), mask, "draw")
