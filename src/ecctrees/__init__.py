"""Eccentric sequences of trees: validation, the extremal caterpillar,
distance-based invariants, and exhaustive desk-scale verification."""

from .tree import (
    Backbone,
    Tree,
    TreeError,
    TreeParseError,
    backbone,
    canonical_code,
    distances_from,
    eccentricities,
    is_caterpillar,
    parse_tree,
    tree_from_pruefer,
    tree_to_text,
)
from .sequence import (
    EccSequence,
    InvalidSequenceError,
    SequenceError,
    ValidationResult,
    eccentric_sequence,
    parse_sequence,
    validate_tree_sequence,
)
from .extremal import (
    CaterpillarDecomposition,
    build_caterpillar,
    caterpillar_subtree_closed_form,
    extremal_decomposition,
    extremal_tree,
    max_subtrees_printed,
    max_subtrees_value,
    min_wiener_derivation,
    min_wiener_order_diameter,
    min_wiener_printed,
)
from .invariants import (
    InvariantReport,
    edge_wiener,
    edge_wiener_line,
    gutman,
    hyper_wiener,
    invariant_report,
    schultz,
    subtree_count,
    vertex_edge_wiener,
    wiener,
    wiener_lambda,
)
from .rewrite import RewriteMove, apply_move, caterpillarize, find_move
from .enumeration import (
    AuditReport,
    BudgetExceededError,
    ConjectureReport,
    ExtremalityReport,
    audit_formulas,
    caterpillars_with_sequence,
    count_caterpillars,
    explore_conjecture,
    free_trees,
    trees_with_sequence,
    valid_sequences,
    verify_all,
    verify_extremal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
