"""Exact re-embedding toolkit for affine algebras.

Submodules:
  field         exact coefficient fields (QQ, F_p)
  ring, poly    sparse polynomials over named indeterminates
  ordering      weight-matrix term orderings
  parse         text grammar for rings and polynomials, with bounded
                expansion work
  linalg        exact linear algebra (sparse RREF, Bareiss rank)
  linear_gfan   Groebner fans of linear ideals by a walk of tableau pivots
  cotangent     cotangent equivalence classes and closed-form fans
  groebner      Buchberger engine, separating-tuple checks, elimination
  search        the two searches; certify_* cross-check their flags
  border_basis  border basis scheme construction and structural checks
  jobs, cli     job files, reports, and the command line (exit codes,
                one-line warnings)
"""

__version__ = "0.1.0"

from .border_basis import BorderBasisScheme, OrderIdeal, border, order_ideal
from .cotangent import (
    CotangentClasses,
    cotangent_classes,
    enumerate_ltgfan_binomial,
    sigma_leading_S,
)
from .field import QQ, PrimeField
from .groebner import (
    GBResult,
    SeparatingTuple,
    buchberger,
    check_Z_separating,
    check_regular_sequence,
    coherent_interreduce,
    eliminate_by_substitution,
    normal_form,
)
from .linear_gfan import (
    CoeffMatrix,
    MarkedReducedGB,
    gfan_linear,
    ltgfan_linear,
    matroid_bases,
    reduced_gb_for_basis,
)
from .ordering import TermOrdering, degrevlex, elimination, elimination_for, lex
from .parse import ParseError, parse_poly, parse_ring, parse_term
from .poly import Poly, linear_part_of_ideal
from .ring import Ring
from .search import (
    ReembeddingResult,
    certify_affine_cell,
    certify_optimal,
    find_reembedding_via_cotangent,
    find_reembedding_via_gfan,
)

__all__ = [
    "BorderBasisScheme",
    "CoeffMatrix",
    "CotangentClasses",
    "GBResult",
    "MarkedReducedGB",
    "OrderIdeal",
    "ParseError",
    "Poly",
    "PrimeField",
    "QQ",
    "ReembeddingResult",
    "Ring",
    "SeparatingTuple",
    "TermOrdering",
    "border",
    "buchberger",
    "check_Z_separating",
    "check_regular_sequence",
    "coherent_interreduce",
    "cotangent_classes",
    "certify_affine_cell",
    "certify_optimal",
    "degrevlex",
    "elimination",
    "elimination_for",
    "eliminate_by_substitution",
    "enumerate_ltgfan_binomial",
    "find_reembedding_via_cotangent",
    "find_reembedding_via_gfan",
    "gfan_linear",
    "lex",
    "linear_part_of_ideal",
    "ltgfan_linear",
    "matroid_bases",
    "normal_form",
    "order_ideal",
    "parse_poly",
    "parse_ring",
    "parse_term",
    "reduced_gb_for_basis",
    "sigma_leading_S",
    "__version__",
]
