"""Platonic polytopes in any dimension, built from finite reflection groups.

The pipeline: pick a chain-shaped Coxeter-Dynkin diagram, seed a vertex at
one extreme fundamental weight, and read every face class off a recursive
node decoration of the diagram.  All arithmetic is exact over Q(sqrt 5),
so orbit enumeration, face realization and incidence checks are decided
without tolerances.
"""

from .qsqrt5 import GOLDEN, ONE, QSqrt5, SQRT5, ZERO
from .diagram import (
    ConsistencyError,
    Diagram,
    DiagramError,
    Family,
    build,
    cartan_matrix,
    classify_parabolic,
    gram_matrix_weights,
    group_order,
    is_platonic_chain,
    parabolic_order,
    parse_name,
    root_count,
)
from .decoration import (
    Decoration,
    DecorationError,
    End,
    Symbol,
    chain,
    dual_read,
    seed,
    step,
    validate,
)
from .orbit import (
    OrbitResult,
    Point,
    as_point,
    fundamental_weight,
    inner,
    norm_sq,
    orbit,
    point_sub,
    reflect,
    stabilizer_order_of_point,
)
from .facelattice import (
    enumerate_faces,
    euler_sum,
    face_count,
    face_table,
    incidence_count,
    meeting_note,
    polytope_name,
    report,
    stabilizer_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "GOLDEN", "ONE", "QSqrt5", "SQRT5", "ZERO",
    "ConsistencyError", "Diagram", "DiagramError", "Family", "build", "cartan_matrix",
    "classify_parabolic", "gram_matrix_weights", "group_order",
    "is_platonic_chain", "parabolic_order", "parse_name", "root_count",
    "Decoration", "DecorationError", "End", "Symbol", "chain", "dual_read",
    "seed", "step", "validate",
    "OrbitResult", "Point", "as_point", "fundamental_weight", "inner",
    "norm_sq", "orbit", "point_sub", "reflect", "stabilizer_order_of_point",
    "enumerate_faces", "euler_sum", "face_count", "face_table", "incidence_count",
    "meeting_note", "polytope_name", "report", "stabilizer_ratio",
    "__version__",
]
