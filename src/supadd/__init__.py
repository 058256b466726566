"""Superadditive classical capacity of pure-state channels: square-root
and minimum-error measurements, block-coding mutual information,
Walsh-Hadamard profiles of linear codes, and decoder synthesis."""

from .detection import (
    OptimalityReport,
    ThresholdCertificate,
    bayes_cost_reduction,
    check_optimality,
    square_root_measurement,
    threshold_certificate,
)
from .ensembles import (
    Code,
    build_nn12_code,
    build_simplex_code,
    code_from_text,
    code_to_text,
    codeword_states,
    embed_binary_letters,
    gram,
)
from .errors import (
    InvalidInput,
    LinearDependence,
    NoRoot,
    ResourceLimit,
    SupaddError,
    Unconverged,
)
from .fastcode import (
    SimplexProfile,
    block_gain,
    code_information,
    find_kappa_star,
    nn12_error_probability,
    nn12_mutual_information,
    simplex_profile,
)
from .information import (
    InfoResult,
    binary_flip_probability,
    c1_binary,
    holevo_binary,
    mutual_information,
    random_collective_max_info,
    separable_pair_info,
)
from .psdlinalg import sqrt_psd
from .synth import (
    RotationSchedule,
    SynthesizedUnitary,
    reck_decompose,
    reconstruct_unitary,
    schedule_from_csv,
    schedule_to_csv,
    synthesize_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "OptimalityReport",
    "ThresholdCertificate",
    "bayes_cost_reduction",
    "check_optimality",
    "square_root_measurement",
    "threshold_certificate",
    "Code",
    "build_nn12_code",
    "build_simplex_code",
    "code_from_text",
    "code_to_text",
    "codeword_states",
    "embed_binary_letters",
    "gram",
    "InvalidInput",
    "LinearDependence",
    "NoRoot",
    "ResourceLimit",
    "SupaddError",
    "Unconverged",
    "SimplexProfile",
    "block_gain",
    "find_kappa_star",
    "nn12_error_probability",
    "nn12_mutual_information",
    "simplex_profile",
    "InfoResult",
    "binary_flip_probability",
    "c1_binary",
    "code_information",
    "holevo_binary",
    "mutual_information",
    "random_collective_max_info",
    "separable_pair_info",
    "sqrt_psd",
    "RotationSchedule",
    "SynthesizedUnitary",
    "reck_decompose",
    "reconstruct_unitary",
    "schedule_from_csv",
    "schedule_to_csv",
    "synthesize_unitary",
    "__version__",
]
