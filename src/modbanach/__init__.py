"""Numerics for modular Banach sequence spaces.

Norms of finite-dimensional factors, Luxemburg norms of convex modulars,
Nakano spaces with variable exponents, Jordan-von Neumann constants,
Clarkson-type inequality verifiers, and an iteration lab for isometric
embeddings into hilbertian extensions.
"""

__version__ = "0.1.0"

from .spaces import (
    INF,
    Lp,
    Euclid,
    Schatten,
    TwoSum,
    dual_exponent,
)
from .modular import (
    PowerModular,
    square,
    DirectSumModular,
    LuxemburgSpace,
    modular_eval,
    luxemburg_norm,
    luxemburg_norms,
    NumericalFailure,
    modular_sum_norm_with_scalar,
    scalar_sum_expansion_ratio,
)
from .nakano import (
    ConstantExponents,
    ExplicitExponents,
    FormulaExponents,
    NakanoSpec,
    BlockVector,
    NakanoModular,
    nakano_modular,
    nakano_norm,
    nakano_condition_terms,
    nakano_condition_verdict,
)
from .sampling import stream_normals
from .geomconst import (
    jvn_lower_bound,
    jvn_upper_bound_clarkson,
    duality_gap,
    alpha_beta,
    tail_parallelogram_defect,
)
from .verify import (
    ViolationReport,
    verify_lp_pair,
    verify_beckner,
    far_block_limit_gaps,
)
from .isolab import (
    LinearMap,
    is_isometric_embedding,
    find_one_dim_two_summand,
    build_counterexample_embedding,
    build_inclusion_embedding,
    pt_iterate,
    limit_isometry_check,
    range_intersection_dim,
)
