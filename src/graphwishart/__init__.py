"""Wishart distributions on the matrix cones of a decomposable graph."""

from . import errors
from .errors import *  # noqa: F401,F403
from .errors import GraphWishartError
from .graphs import (
    CliqueOrdering,
    DecomposableGraph,
    HasseTree,
    decompose,
    enumerate_perfect_orders,
    hasse_exponents,
    homogeneous_structure,
    order_signature,
    parse_graph,
)
from .cones import (
    IncompleteMatrix,
    SparsePrecision,
    assemble_blocks,
    complete,
    logdet_hat,
    phi,
    precision_of,
    project,
    split_blocks,
    trace_pair,
)
from .shapes import (
    ShapeParam,
    canonical_shape,
    log_gamma_I,
    log_gamma_II,
    log_h,
    log_multigamma,
    realign_shape,
    shape_class,
)
from .distributions import (
    RngStream,
    WishartSpec,
    laplace,
    logpdf,
    logpdf_f,
    mean_type1,
    mean_type2,
    sample,
    sample_base_wishart,
    sample_batch,
    sample_matrix_normal,
)
from .bayes import (
    GaussianSample,
    ingest,
    log_likelihood,
    mle,
    posterior_summaries,
    posterior_update,
)
from .verify import (
    McEstimate,
    a4_closed_form,
    check_factorization,
    check_identity_327,
    check_mean426,
    gauss_2f1,
    mc_normalizer,
    mellin_2x2,
)

__version__ = "0.1.0"

__all__ = [
    "GraphWishartError", "errors",
    "DecomposableGraph", "CliqueOrdering", "HasseTree",
    "parse_graph", "decompose", "enumerate_perfect_orders",
    "homogeneous_structure", "hasse_exponents", "order_signature",
    "GaussianSample", "ingest", "mle", "posterior_update",
    "posterior_summaries", "log_likelihood",
    "McEstimate", "gauss_2f1", "check_identity_327",
    "a4_closed_form", "mc_normalizer", "mellin_2x2",
    "check_factorization", "check_mean426", "sample_batch",
    "IncompleteMatrix", "SparsePrecision",
    "project", "trace_pair", "complete", "precision_of", "phi",
    "logdet_hat", "split_blocks", "assemble_blocks",
    "ShapeParam", "canonical_shape", "realign_shape", "shape_class",
    "log_multigamma", "log_h", "log_gamma_I", "log_gamma_II",
    "RngStream", "WishartSpec",
    "logpdf", "logpdf_f", "sample",
    "sample_base_wishart", "sample_matrix_normal",
    "mean_type1", "mean_type2", "laplace",
    "__version__",
]
