"""Exact chain calculus on Cayley graphs of hyperbolic groups."""

from .analysis import (
    DecayFit,
    PSelection,
    estimate_upsilon,
    fit_f_decay,
    rho_fitter,
    select_p,
    tail_bound,
)
from .cayley import (
    CayleyBall,
    CertReport,
    ball_to_json,
    build_ball,
    certify_delta,
    distance,
    gromov_product,
    q_path,
    q_point,
)
from .chains import (
    add,
    coefficient_sum,
    norm_1,
    norm_p,
    sub,
    translate,
)
from .cocycle import Cocycle, CocycleResult, IdentityReport
from .flowers import ChainEngine
from .groups import (
    ExplicitBallSpec,
    FreeGroupSpec,
    FreeProductSpec,
    Generator,
    GroupSpec,
    Word,
    ball_from_json,
    load_ball_file,
    spec_from_descriptor,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyBall",
    "CertReport",
    "ChainEngine",
    "Cocycle",
    "CocycleResult",
    "DecayFit",
    "ExplicitBallSpec",
    "FreeGroupSpec",
    "FreeProductSpec",
    "Generator",
    "GroupSpec",
    "IdentityReport",
    "PSelection",
    "Word",
    "add",
    "ball_from_json",
    "ball_to_json",
    "build_ball",
    "certify_delta",
    "coefficient_sum",
    "distance",
    "estimate_upsilon",
    "fit_f_decay",
    "gromov_product",
    "load_ball_file",
    "norm_1",
    "norm_p",
    "q_path",
    "q_point",
    "rho_fitter",
    "select_p",
    "spec_from_descriptor",
    "sub",
    "tail_bound",
    "translate",
]
