"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the real stdout so the
suite's verdicts are visible even under output capture.
"""

import math
import sys
import time

import numpy as np
import pytest

from graphwishart import (
    IncompleteMatrix,
    RngStream,
    ShapeParam,
    SparsePrecision,
    WishartSpec,
    a4_closed_form,
    canonical_shape,
    check_factorization,
    check_identity_327,
    complete,
    decompose,
    gauss_2f1,
    homogeneous_structure,
    ingest,
    log_gamma_I,
    log_gamma_II,
    log_h,
    log_likelihood,
    logdet_hat,
    logpdf,
    laplace,
    mc_normalizer,
    mean_type1,
    mean_type2,
    mellin_2x2,
    parse_graph,
    phi,
    posterior_update,
    precision_of,
    project,
    sample_batch,
    shape_class,
    split_blocks,
    trace_pair,
)
from graphwishart.distributions import log_wishart_pdf
from graphwishart.shapes import step_exponents, steps_log_gamma

from conftest import (
    random_first_admissible,
    random_pg,
    random_qg,
    random_second_admissible,
    schur_pad,
)


def report(num, ok, detail):
    line = "[criterion %2d] %s: %s\n" % (num, "PASS" if ok else
                                         "FAIL", detail)
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line


def _free_pairs(graph):
    pairs = [(i, i) for i in range(graph.vertex_count)]
    pairs += [(i - 1, j - 1) for (i, j) in sorted(graph.edges)]
    return pairs


def _to_vec(m, pairs):
    return np.array([m[i, j] for i, j in pairs])


def _from_vec(v, pairs, r):
    m = np.zeros((r, r))
    for val, (i, j) in zip(v, pairs):
        m[i, j] = m[j, i] = val
    return m


def test_criterion_01_cross_formula_normalizer(g0, g0_ord):
    start = time.perf_counter()
    tree = homogeneous_structure(g0)
    rng = np.random.default_rng(101)
    worst = 0.0
    hits_first = hits_second = 0
    while hits_first < 20 or hits_second < 20:
        if hits_first < 20:
            s = random_first_admissible(g0_ord, rng)
            info = shape_class(s, g0_ord)
            if info.in_a_p and info.in_a_hom:
                tree_sum = steps_log_gamma(
                    tree.steps, step_exponents(s, tree, "first"))
                gap = abs(log_gamma_I(s, g0_ord) - tree_sum)
                worst = max(worst, gap)
                hits_first += 1
        if hits_second < 20:
            s = random_second_admissible(g0_ord, rng)
            info = shape_class(s, g0_ord)
            if info.in_b_p and info.in_b_hom:
                tree_sum = steps_log_gamma(
                    tree.steps, step_exponents(s, tree, "second"))
                gap = abs(log_gamma_II(s, g0_ord) - tree_sum)
                worst = max(worst, gap)
                hits_second += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, ok, "max |per-order - tree| = %.3e over 20+20 shapes, "
           "%.2fs" % (worst, elapsed))


def test_criterion_02_path_analytic_chain(a4, a4_ord):
    start = time.perf_counter()
    shape = ShapeParam((1.0, 1.0, 1.0), (1.0, 1.0))
    target = 3 * math.log(math.pi)
    gap1 = abs(log_gamma_I(shape, a4_ord) - target)
    gap2 = abs(a4_closed_form("I", shape, project(np.eye(4), a4))
               - target)
    elapsed = time.perf_counter() - start
    ok = gap1 < 1e-12 and gap2 < 1e-12 and elapsed < 1.0
    report(2, ok, "normalizer gap %.2e, closed-form gap %.2e, %.2fs"
           % (gap1, gap2, elapsed))


def test_criterion_03_mc_constancy(a4, a4_ord, g0, g0_ord):
    start = time.perf_counter()
    n = 200000
    details = []
    ok = True

    for g, ordering, seed in ((a4, a4_ord, 31), (g0, g0_ord, 37)):
        shape = random_first_admissible(
            ordering, np.random.default_rng(seed), lo=1.5, hi=2.5)
        gamma = math.exp(log_gamma_I(shape, ordering))
        scales = []
        srng = np.random.default_rng(seed + 1)
        for jit in (0.0, 0.4, 0.9):
            scales.append(random_qg(g, srng, jitter=jit))
        ratios = []
        contribs = []
        for sc in scales:
            est = mc_normalizer("I", g, ordering, shape, sc,
                                RngStream(900 + seed), n,
                                keep_contributions=True)
            h = math.exp(log_h(shape, sc, ordering))
            ratios.append(est.value / h)
            contribs.append(est.contributions / h)
        # against the closed form, 3 SE
        for ratio, cb in zip(ratios, contribs):
            se = float(np.std(cb)) / math.sqrt(n)
            if abs(ratio - gamma) > 3 * se:
                ok = False
        # pairwise constancy with common random numbers, 3 SE
        for i in range(3):
            for j in range(i + 1, 3):
                d = contribs[i] - contribs[j]
                # common random numbers leave only rounding noise in
                # the paired difference; floor the band accordingly
                se = float(np.std(d)) / math.sqrt(n) \
                    + 1e-9 * gamma
                if abs(float(np.mean(d))) > 3 * se:
                    ok = False
        details.append("%s dev %.2f%%" % (
            "path" if g is a4 else "star",
            100 * max(abs(r / gamma - 1) for r in ratios)))

    # the excluded shape must show scale dependence
    shape = ShapeParam((1.0, 1.0, 1.0), (1.5, 1.5))
    contribs = []
    for s23 in (0.0, 0.6):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = s23
        sc = IncompleteMatrix(a4, m)
        est = mc_normalizer("I", a4, a4_ord, shape, sc,
                            RngStream(1234), n,
                            keep_contributions=True)
        h = math.exp(log_h(shape, sc, a4_ord))
        contribs.append(est.contributions / h)
    d = contribs[0] - contribs[1]
    se = float(np.std(d)) / math.sqrt(n)
    sep = abs(float(np.mean(d))) / se
    if sep <= 5.0:
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(3, ok, "%s; excluded-shape separation %.0f SE; %.1fs"
           % ("; ".join(details), sep, elapsed))


def test_criterion_04_sampler_moments(k2, a4, g0):
    n = 100000
    ok = True
    worst = 0.0
    for g, seed in ((k2, 41), (a4, 43), (g0, 47)):
        ordering = decompose(g)
        nrng = np.random.default_rng(seed)
        scale = random_qg(g, nrng)
        mask = g.edge_mask()
        s1 = random_first_admissible(ordering, nrng)
        spec1 = WishartSpec(g, s1, scale, "type1", ordering=ordering)
        b1 = sample_batch(spec1, RngStream(seed), n)
        se1 = b1.std(axis=0) / math.sqrt(n)
        dev1 = np.abs(b1.mean(axis=0) - mean_type1(spec1).data)
        ratio1 = float(np.max((dev1 / (se1 + 1e-300))[mask]))

        s2 = random_second_admissible(ordering, nrng)
        spec2 = WishartSpec(g, s2, scale, "type2", ordering=ordering)
        b2 = sample_batch(spec2, RngStream(seed + 1), n)
        se2 = b2.std(axis=0) / math.sqrt(n)
        dev2 = np.abs(b2.mean(axis=0) - mean_type2(spec2).data)
        ratio2 = float(np.max((dev2 / (se2 + 1e-300))[mask]))
        worst = max(worst, ratio1, ratio2)
        if ratio1 > 4.0 or ratio2 > 4.0:
            ok = False

    # scalar conditional blocks of the path-graph draws follow gamma
    # laws with the stated shape and scale
    ordering = decompose(a4)
    nrng = np.random.default_rng(53)
    scale = random_qg(a4, nrng)
    s1 = random_first_admissible(ordering, nrng)
    spec = WishartSpec(a4, s1, scale, "type1", ordering=ordering)
    batch = sample_batch(spec, RngStream(59), n)
    sb = split_blocks(scale, ordering)
    checks = [(batch[:, 0, 0] - batch[:, 0, 1] ** 2
               / batch[:, 1, 1],
               s1.alpha[0] - 0.5, float(sb.parts[1][0][0, 0]))]
    for j in (1, 2):
        sep = ordering.separators[j - 1][0] - 1
        res = [v - 1 for v in ordering.cliques[j] if v - 1 != sep][0]
        blk = batch[:, res, res] - batch[:, res, sep] ** 2 \
            / batch[:, sep, sep]
        checks.append((blk, s1.alpha[j] - 0.5,
                       float(sb.parts[j + 1][0][0, 0])))
    for draws, p, sc in checks:
        for moment, target in ((draws, p * sc),
                               (draws ** 2, p * (p + 1) * sc ** 2)):
            se = float(np.std(moment)) / math.sqrt(n)
            ratio = abs(float(np.mean(moment)) - target) / se
            worst = max(worst, ratio)
            if ratio > 4.0:
                ok = False
    report(4, ok, "worst moment deviation %.2f SE (limit 4)" % worst)


def test_criterion_05_factorization(a4, g0, k3):
    worst = 0.0
    for g, seed in ((a4, 61), (g0, 67), (k3, 71)):
        ordering = decompose(g)
        nrng = np.random.default_rng(seed)
        if ordering.k == 1:
            shape = ShapeParam((-(g.vertex_count + 1) / 2.0 - 1.0,),
                               ())
        else:
            shape = random_second_admissible(ordering, nrng)
        scale = random_qg(g, nrng)
        spec = WishartSpec(g, shape, scale, "inv_type2",
                           ordering=ordering)
        batch = sample_batch(spec, RngStream(seed), 50)
        for b in batch:
            worst = max(worst, check_factorization(
                spec, IncompleteMatrix(g, b)))
    report(5, worst < 1e-10,
           "max additive-separation residual %.2e (limit 1e-10)"
           % worst)


def test_criterion_06_special_case_collapse(a4, a4_ord):
    nrng = np.random.default_rng(73)
    p = 1.7
    shape = canonical_shape("hyper", a4_ord, p)
    scale = random_qg(a4, nrng)
    spec = WishartSpec(a4, shape, scale, "type1", ordering=a4_ord)
    hat = complete(scale)
    worst_first = 0.0
    batch = sample_batch(spec, RngStream(79), 20)
    for b in batch:
        lp = logpdf(spec, IncompleteMatrix(a4, b))
        combo = 0.0
        for c in a4_ord.cliques:
            ix = np.array(c) - 1
            combo += log_wishart_pdf(b[np.ix_(ix, ix)], p,
                                     hat[np.ix_(ix, ix)])
        for s in a4_ord.separators:
            ix = np.array(s) - 1
            combo -= log_wishart_pdf(b[np.ix_(ix, ix)], p,
                                     hat[np.ix_(ix, ix)])
        worst_first = max(worst_first, abs(lp - combo))

    delta = 2.4
    shape2 = canonical_shape("gwishart", a4_ord, delta)
    theta = random_qg(a4, nrng)
    spec2 = WishartSpec(a4, shape2, theta, "type2", ordering=a4_ord)
    gaps = []
    for _ in range(20):
        y = random_pg(a4, nrng)
        lp = logpdf(spec2, SparsePrecision(a4, y))
        kernel = ((delta - 2) / 2.0) * np.linalg.slogdet(y)[1] \
            - trace_pair(theta, SparsePrecision(a4, y))
        gaps.append(lp - kernel)
    worst_second = max(gaps) - min(gaps)
    ok = worst_first < 1e-10 and worst_second < 1e-10
    report(6, ok, "clique-product gap %.2e, kernel constancy %.2e"
           % (worst_first, worst_second))


def test_criterion_07_cone_algebra():
    graphs = [parse_graph(s) for s in (
        {"n": 3, "edges": [[1, 2], [2, 3]]},
        {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
        {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
        {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
    )]
    nrng = np.random.default_rng(83)
    worst_rt = worst_ld = 0.0
    positive_pairs = 0
    for g in graphs:
        ordering = decompose(g)
        for _ in range(20):
            x = random_qg(g, nrng)
            back = phi(precision_of(x))
            worst_rt = max(worst_rt,
                           float(np.max(np.abs(back.data - x.data))))
            y = SparsePrecision(g, random_pg(g, nrng))
            back2 = precision_of(phi(y))
            worst_rt = max(worst_rt,
                           float(np.max(np.abs(back2.data - y.data))))
            dense = np.linalg.slogdet(complete(x))[1]
            worst_ld = max(worst_ld,
                           abs(logdet_hat(x) - dense)
                           / max(abs(dense), 1.0))
        for _ in range(250):
            x = random_qg(g, nrng)
            y = SparsePrecision(g, random_pg(g, nrng))
            if trace_pair(x, y) > 0:
                positive_pairs += 1

    # finite-difference Jacobians of the two coordinate changes
    worst_jac = 0.0
    for g in graphs:
        ordering = decompose(g)
        r = g.vertex_count
        pairs = _free_pairs(g)
        x = random_qg(g, nrng)
        v0 = _to_vec(x.data, pairs)
        eps = 1e-6

        def map_inverse(v):
            xi = IncompleteMatrix(g, _from_vec(v, pairs, r))
            return _to_vec(precision_of(xi).data, pairs)

        jac = np.zeros((len(pairs), len(pairs)))
        for idx in range(len(pairs)):
            vp, vm = v0.copy(), v0.copy()
            vp[idx] += eps
            vm[idx] -= eps
            jac[:, idx] = (map_inverse(vp) - map_inverse(vm)) \
                / (2 * eps)
        fd = abs(np.linalg.det(jac))
        closed = 1.0
        for c in ordering.cliques:
            ix = np.array(c) - 1
            closed *= np.linalg.det(
                x.data[np.ix_(ix, ix)]) ** (-(len(c) + 1))
        for s, m in zip(ordering.distinct_separators,
                        ordering.multiplicity):
            ix = np.array(s) - 1
            closed *= np.linalg.det(
                x.data[np.ix_(ix, ix)]) ** ((len(s) + 1) * m)
        worst_jac = max(worst_jac, abs(fd / closed - 1.0))

        if ordering.k > 1:
            def map_blocks(v):
                full = _from_vec(v, pairs, r)
                xi = IncompleteMatrix(g, full)
                b = split_blocks(xi, ordering)
                out = []
                ix = np.array(ordering.cliques[0]) - 1
                c1 = full[np.ix_(ix, ix)]
                for a in range(len(ix)):
                    for bb in range(a, len(ix)):
                        out.append(c1[a, bb])
                for cond, ratio in b.parts[2:]:
                    out.extend(ratio.ravel())
                    for a in range(len(cond)):
                        for bb in range(a, len(cond)):
                            out.append(cond[a, bb])
                return np.array(out)

            jac2 = np.zeros((len(pairs), len(pairs)))
            for idx in range(len(pairs)):
                vp, vm = v0.copy(), v0.copy()
                vp[idx] += eps
                vm[idx] -= eps
                jac2[:, idx] = (map_blocks(vp) - map_blocks(vm)) \
                    / (2 * eps)
            fd2 = abs(np.linalg.det(jac2))
            prod = 1.0
            for j in range(1, ordering.k):
                sep = ordering.separators[j - 1]
                ix = np.array(sep) - 1
                prod *= np.linalg.det(
                    x.data[np.ix_(ix, ix)]) ** (
                        len(ordering.cliques[j]) - len(sep))
            # the displayed product is the reverse-direction factor
            worst_jac = max(worst_jac, abs(fd2 * prod - 1.0))

    ok = worst_rt < 1e-12 and worst_ld < 1e-10 \
        and positive_pairs == 1000 and worst_jac < 1e-6
    report(7, ok, "roundtrip %.2e, logdet rel %.2e, %d/1000 "
           "positive pairings, jacobian rel %.2e"
           % (worst_rt, worst_ld, positive_pairs, worst_jac))


def test_criterion_08_conjugacy(a4, a4_ord):
    shape = ShapeParam((-1.0, -1.0, -1.0), (1.0, -0.5))
    prior = WishartSpec(a4, shape, project(np.eye(4), a4),
                        "inv_type2", ordering=a4_ord)
    nrng = np.random.default_rng(89)
    worst_std = 0.0
    for n_obs in (1, 2, 5):
        data = nrng.multivariate_normal(np.zeros(4), np.eye(4),
                                        size=n_obs)
        sample = ingest(data.tolist(), a4)
        post = posterior_update(prior, sample)
        gaps = [logpdf(post, random_qg(a4, nrng))
                for _ in range(0)]
        gaps = []
        for _ in range(100):
            sigma2 = random_qg(a4, nrng)
            gaps.append(logpdf(post, sigma2)
                        - logpdf(prior, sigma2)
                        - log_likelihood(sigma2, sample))
        worst_std = max(worst_std, float(np.std(gaps)))

    d1 = nrng.standard_normal((2, 4)).tolist()
    d2 = nrng.standard_normal((3, 4)).tolist()
    joint = posterior_update(prior, ingest(d1 + d2, a4))
    seq = posterior_update(posterior_update(prior, ingest(d1, a4)),
                           ingest(d2, a4))
    batch_gap = max(
        float(np.max(np.abs(np.array(joint.shape.alpha)
                            - np.array(seq.shape.alpha)))),
        float(np.max(np.abs(np.array(joint.shape.beta)
                            - np.array(seq.shape.beta)))),
        float(np.max(np.abs(joint.scale.data - seq.scale.data))))
    ok = worst_std < 1e-10 and batch_gap < 1e-12
    report(8, ok, "identity std %.2e (limit 1e-10), batch gap %.2e"
           % (worst_std, batch_gap))


def test_criterion_09_oracles():
    closed, est = mellin_2x2(1.5, 0.5, 0.5,
                             np.array([[1.0, 0.4], [0.4, 1.0]]),
                             RngStream(97), 100000)
    mellin_dev = abs(closed - est.value) / est.std_error
    grid_worst = 0.0
    for a in (0.3, 1.7):
        for b in (0.3, 1.7):
            for c in (1.1, 2.5):
                for z in (0.1, 0.5, 0.8):
                    grid_worst = max(grid_worst,
                                     check_identity_327(a, b, c, z))
    log_gap = abs(gauss_2f1(1.0, 1.0, 2.0, 0.5) - 2 * math.log(2))
    ok = mellin_dev < 3.0 and grid_worst < 1e-11 and log_gap < 1e-12
    report(9, ok, "moment transform dev %.2f SE, transform-identity "
           "grid %.2e, series spot gap %.2e"
           % (mellin_dev, grid_worst, log_gap))


def test_criterion_10_cumulant_gradient(a4, a4_ord):
    shape = ShapeParam((2.5, 2.0, 1.5), (2.0, 1.5))
    nrng = np.random.default_rng(103)
    mask = a4.edge_mask()
    worst = 0.0
    alt_gap = 0.0
    for _ in range(10):
        scale = random_qg(a4, nrng)
        spec = WishartSpec(a4, shape, scale, "type1",
                           ordering=a4_ord)
        h = nrng.uniform(-1.0, 1.0, (4, 4))
        h = 0.5 * (h + h.T) * mask
        eps = 3e-4
        fd = (laplace(spec, eps * h)
              - laplace(spec, -eps * h)) / (2 * eps)
        mean = mean_type1(spec)
        pairing = float(np.sum(mean.data * h))
        worst = max(worst, abs(fd - pairing)
                    / max(abs(pairing), 1e-12))

        # the alternative sign arrangement of the padded terms must
        # disagree with the finite differences
        hat = complete(scale)
        c0 = sum(shape.alpha) - sum(
            shape.beta[a4_ord.sep_index[j - 1]]
            for j in range(1, a4_ord.k))
        alt = c0 * hat
        for j, c in enumerate(a4_ord.cliques):
            alt += shape.alpha[j] * schur_pad(hat, c)
        for j in range(1, a4_ord.k):
            alt -= shape.beta[a4_ord.sep_index[j - 1]] \
                * schur_pad(hat, a4_ord.separators[j - 1])
        alt_pairing = float(np.sum((alt * mask) * h))
        alt_gap = max(alt_gap, abs(fd - alt_pairing)
                      / max(abs(fd), 1e-12))
    ok = worst < 1e-5 and alt_gap > 1e-3
    report(10, ok, "gradient rel err %.2e (limit 1e-5); flipped-sign "
           "variant off by %.2e rel, as expected" % (worst, alt_gap))
