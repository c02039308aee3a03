"""Truncated-Fock-space simulator for coherent-state-qubit teleportation.

Single- and multi-mode Fock-space states, cat states and their squeezed
approximations, the teleportation and entanglement-swapping protocols with
and without loss, and Wigner-function views. The ``cskit`` console script
exposes the sweeps as CSV-emitting subcommands.
"""

__version__ = "0.1.0"

from .catstates import (
    annihilate,
    approximation_fidelity_sweep,
    cat_state,
    r_opt,
    r_opt_v,
    squeezed_single_photon,
    squeezed_vacuum,
)
from .fock import (
    DensityMatrix,
    FockVector,
    MultiModeState,
    TruncationError,
    apply_beamsplitter,
    apply_phase_shift,
    coherent_state,
    density_matrix,
    fidelity,
    fock_basis_state,
    partial_trace,
    project_photon_number,
    tensor,
)
from .loss import (
    LossConfig,
    attenuate,
    loss_contour_sweep,
    loss_diagonal_sweep,
    run_lossy_entswap,
    run_lossy_teleportation,
)
from .protocols import (
    INPUT_FAMILIES,
    InputSpec,
    OutcomeRecord,
    ProtocolSummary,
    QubitSuperposition,
    ResourceSpec,
    classify_outcome,
    entanglement_swap_sweep,
    run_entanglement_swap,
    run_teleportation,
    success_probability_sweep,
    teleportation_sweep,
)
from .wigner import PhaseGrid, wigner_grid, wigner_point

__all__ = [
    "__version__",
    "TruncationError",
    "FockVector",
    "MultiModeState",
    "DensityMatrix",
    "coherent_state",
    "fock_basis_state",
    "tensor",
    "apply_beamsplitter",
    "apply_phase_shift",
    "project_photon_number",
    "partial_trace",
    "density_matrix",
    "fidelity",
    "cat_state",
    "squeezed_vacuum",
    "squeezed_single_photon",
    "r_opt",
    "r_opt_v",
    "annihilate",
    "approximation_fidelity_sweep",
    "QubitSuperposition",
    "ResourceSpec",
    "InputSpec",
    "INPUT_FAMILIES",
    "OutcomeRecord",
    "ProtocolSummary",
    "classify_outcome",
    "run_teleportation",
    "run_entanglement_swap",
    "teleportation_sweep",
    "entanglement_swap_sweep",
    "success_probability_sweep",
    "LossConfig",
    "attenuate",
    "run_lossy_teleportation",
    "run_lossy_entswap",
    "loss_contour_sweep",
    "loss_diagonal_sweep",
    "PhaseGrid",
    "wigner_point",
    "wigner_grid",
]
