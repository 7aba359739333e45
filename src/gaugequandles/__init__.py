"""Quandles from gauge transformations of discrete principal bundles.

Construct finite groups from Cayley tables, build gauge quandles, fiber and
reduced quandles, and generalized Alexander quandles, verify the rack and
quandle axioms exhaustively, and check the parametrized (Lie/Noether)
operation numerically over matrix groups.
"""

from .bundles import (
    DiscreteBundle,
    EquivariantMap,
    GaugeTransformation,
    compose_maps,
    enumerate_maps,
    identity_map,
    invert_map,
    to_gauge,
)
from .errors import (
    AlgebraError,
    AutomorphismRequired,
    AxiomViolation,
    CapExceeded,
    CentralizerViolation,
    NonFinite,
    NormalizerViolation,
    NotARack,
    ShapeError,
)
from .gauge import (
    GaugeQuandle,
    ReducedQuandle,
    build,
    homogeneous_quandle,
    isomorphism_census,
    quotient,
    rack_from_map,
    reduce,
    transport_fiber,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    catalog,
    catalog_names,
    centralizes,
    cosets,
    generated_subgroup,
    group_from_table,
    is_normal,
    normalizer,
    subgroup,
)
from .lie import (
    AdjointSection,
    MatrixGroupModel,
    SweepConfig,
    check_self_action,
    check_self_distributivity,
    get_model,
    mat_exp,
    op_t,
    run_sweep,
)
from .racks import (
    MagmaTable,
    RackReport,
    associated_quandle,
    conjugation_quandle,
    find_isomorphism,
    generalized_alexander,
    is_morphism,
    trivial_quandle,
    verify_rack,
)

__version__ = "0.1.0"
