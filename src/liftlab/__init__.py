"""liftlab: lifts of covariant tensor fields and connections to the
(0,q)-tensor bundle along a cross-section, with sampled verification of
the structure they preserve."""

from .expr import (
    ParseError,
    ScalarExpr,
    SingularPointError,
    parse,
)
from .tensor import (
    ConnectionField,
    CovariantField,
    CurvatureField,
    EndomorphismField,
    OneTwoTensorField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    compose_endo,
    contract_slot_endo,
    covariant_derivative_cov,
    curvature,
    lie_derivative_cov,
    lie_derivative_endo,
    rank_multi_index,
)
from .bundle import (
    AdaptedFrame,
    BundlePoint,
    NotPureError,
    adapted_frame,
    complete_lift_endo_on_section,
    complete_lift_vector_on_section,
    contract_one_two_cov,
    cross_section_point,
    is_almost_analytic,
    nijenhuis,
    purity_residual,
    tachibana,
    verify_characterization,
    verify_theorem1,
    vertical_lift,
)
from .connection_lift import (
    LiftedConnectionCoeffs,
    TorsionError,
    complete_lift_connection,
    curvature_tangency,
    gauss_consistency,
    gauss_second_fundamental,
    induced_connection,
    is_totally_geodesic,
    require_symmetric,
)

__version__ = "0.1.0"
