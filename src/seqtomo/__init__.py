"""seqtomo: a simulation workbench for selective quantum state and process
tomography, with every sampled estimator paired to an exact-expectation
oracle computed by dense simulation."""

__version__ = "0.1.0"

from .core import (
    ATOL,
    DensityMatrix,
    haar_random_state,
    haar_random_unitary,
    maximally_entangled_state,
    random_density_matrix,
)
from .pauli import pauli_coefficients, pauli_combination, pauli_matrix
from .channels import (
    KrausChannel,
    ValidityReport,
    channel_from_json,
    channel_zoo,
    compose_channels,
    kraus_to_chi,
    tensor_channels,
    validate_channel,
    zoo_descriptions,
)
from .seqst import (
    Estimate,
    PreparationBasis,
    seqst_exact,
    seqst_sample,
    standard_pauli_qst,
)
from .qpt import (
    GateCounts,
    aapt_full_chi,
    dcqd_distribution,
    entangled_state_circuit,
    seqpt_estimate,
    seqpt_exact_average,
    seqst_qpt_exact,
    seqst_qpt_sample,
)
from .estimation import (
    RandomStream,
    ShotPlan,
    chernoff_plan,
    sample_categorical,
)
from . import errors

__all__ = [
    "ATOL",
    "DensityMatrix",
    "Estimate",
    "GateCounts",
    "KrausChannel",
    "PreparationBasis",
    "RandomStream",
    "ShotPlan",
    "ValidityReport",
    "aapt_full_chi",
    "channel_from_json",
    "channel_zoo",
    "chernoff_plan",
    "compose_channels",
    "dcqd_distribution",
    "entangled_state_circuit",
    "errors",
    "haar_random_state",
    "haar_random_unitary",
    "kraus_to_chi",
    "maximally_entangled_state",
    "pauli_coefficients",
    "pauli_combination",
    "pauli_matrix",
    "random_density_matrix",
    "sample_categorical",
    "seqpt_estimate",
    "seqpt_exact_average",
    "seqst_exact",
    "seqst_qpt_exact",
    "seqst_qpt_sample",
    "seqst_sample",
    "standard_pauli_qst",
    "tensor_channels",
    "validate_channel",
    "zoo_descriptions",
]
