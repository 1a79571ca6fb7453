"""divchain: measure-theoretic chain-rule calculus for divergence-measure
vector fields composed with BV functions, verified against a weak-form
quadrature oracle, with a conservation-law harness for entropy/kinetic
structure and L1-contraction experiments."""

from .bvfunc import BVFunction, LevelRegion, Piece
from .cantor import CantorPart, IFSSpec, MIDDLE_THIRDS, cantor_function
from .chainrule import (ChainRuleBreakdown, ScalarFunction, anzellotti_pairing,
                        chain_bv_scalar, chain_dm, chain_w11, green_check,
                        layer_cake_action, product_rule)
from .field import ParamField, PrimitiveField, mollified_normal_trace, singular_set_check
from .geometry import Domain, subboxes
from .measure import (RadonMeasure, TestFunction, check_dominated, oscillatory_bump,
                      plateau_bump)
from .oracle import TestSuite, build_suite, compare, mollification_study, weak_divergence
from .rectifiable import GraphCurve, JumpPoint, RectifiableSet, Segment, merge_sets

__version__ = "0.1.0"

__all__ = [
    "BVFunction", "LevelRegion", "Piece", "CantorPart", "IFSSpec", "MIDDLE_THIRDS",
    "cantor_function", "ChainRuleBreakdown", "ScalarFunction", "anzellotti_pairing",
    "chain_bv_scalar", "chain_dm", "chain_w11", "green_check", "layer_cake_action",
    "product_rule", "ParamField", "PrimitiveField", "mollified_normal_trace",
    "singular_set_check", "Domain", "subboxes", "RadonMeasure", "TestFunction",
    "check_dominated", "oscillatory_bump", "plateau_bump", "TestSuite",
    "build_suite", "compare", "mollification_study", "weak_divergence", "GraphCurve",
    "JumpPoint", "RectifiableSet", "Segment", "merge_sets", "__version__",
]
