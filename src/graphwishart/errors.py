"""Exception hierarchy shared across the package.

Every error raised deliberately by graphwishart derives from
:class:`GraphWishartError`, so callers can catch one base class.  The CLI
maps these to exit code 1; anything else is a crash (exit code 2).
"""


class GraphWishartError(Exception):
    """Base class for all graphwishart errors."""

    code = "error"

    def __init__(self, message, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_dict(self):
        return {"code": self.code, "message": self.message,
                "context": self.context}


class MalformedInput(GraphWishartError):
    code = "malformed_input"


class NotConnected(GraphWishartError):
    code = "not_connected"


class NotChordal(GraphWishartError):
    code = "not_chordal"


class TooManyCliques(GraphWishartError):
    code = "too_many_cliques"


class NotHomogeneous(GraphWishartError):
    code = "not_homogeneous"


class InternalInconsistency(GraphWishartError):
    code = "internal_inconsistency"


class GraphMismatch(GraphWishartError):
    code = "graph_mismatch"


class DimensionMismatch(GraphWishartError):
    code = "dimension_mismatch"


class ShapeMismatch(GraphWishartError):
    code = "shape_mismatch"


class NotInQG(GraphWishartError):
    code = "not_in_qg"


class NotInPG(GraphWishartError):
    code = "not_in_pg"


class OutOfDomain(GraphWishartError):
    code = "out_of_domain"


class WrongGraph(GraphWishartError):
    code = "wrong_graph"


class ShapeOutsideA4B4(GraphWishartError):
    code = "shape_outside_a4_b4"


class DegenerateWeights(GraphWishartError):
    code = "degenerate_weights"


class ColumnMismatch(GraphWishartError):
    code = "column_mismatch"


class NonNumeric(GraphWishartError):
    code = "non_numeric"


class PosteriorShapeInadmissible(GraphWishartError):
    code = "posterior_shape_inadmissible"


class NotPositiveDefinite(GraphWishartError):
    code = "not_positive_definite"


class OutOfSupport(GraphWishartError):
    code = "out_of_support"


class ShapeNotAdmissible(GraphWishartError):
    code = "shape_not_admissible"


class NonConvergent(GraphWishartError):
    code = "non_convergent"


class PoleAtC(GraphWishartError):
    code = "pole_at_c"
