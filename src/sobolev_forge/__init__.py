"""sobolev-forge: compile smooth targets into explicit convolutional residual
networks and verify their value-and-derivative approximation behavior."""

__version__ = "0.1.0"

from .netcore import (
    ConvResNetModel,
    FilterTensor,
    NetClassParams,
    ResidualBlockSpec,
    audit_class,
    resnet_forward,
)
from .algebra import CnnFunction, assemble_resnet, mlp_to_cnn, parallel_sum
from .scalarnets import (
    ScalarNet,
    build_monomial_bump,
    build_product2,
    build_square,
    build_trapezoid,
    bump_weight,
)
from .taylor import (
    ConstructedApproximator,
    SurrogateCoefficients,
    TargetFunction,
    build_euclidean,
    surrogate_eval,
    taylor_coeffs,
)

__all__ = [
    "ConvResNetModel",
    "FilterTensor",
    "NetClassParams",
    "ResidualBlockSpec",
    "audit_class",
    "resnet_forward",
    "CnnFunction",
    "assemble_resnet",
    "mlp_to_cnn",
    "parallel_sum",
    "ScalarNet",
    "build_monomial_bump",
    "build_product2",
    "build_square",
    "build_trapezoid",
    "bump_weight",
    "ConstructedApproximator",
    "SurrogateCoefficients",
    "TargetFunction",
    "build_euclidean",
    "surrogate_eval",
    "taylor_coeffs",
]
