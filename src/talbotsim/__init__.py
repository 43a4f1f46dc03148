"""Talbot-effect qudit toolkit.

Two independent layers model the same physics: an exact gate algebra built
on quadratic Gauss sums (circulant Talbot unitaries, phase-mask programs,
Fourier factorizations) and a wave-optics layer (mode expansions, angular
spectrum propagation, carpets) that serves as its brute-force check.  A
third layer composes two photons on slitwise beam splitters into a
post-selected controlled-Z.
"""

from .carpet import CarpetImage, Revival, detect_revivals, render_carpet, render_program_carpet
from .fidelity import FidelityRow, fidelity_sweep, revival_fidelity, synthesize_gaussian_comb
from .gates import (
    DecompositionReport,
    align_phase,
    circulant,
    clifford_phases,
    diagonal_gate,
    pauli_shift,
    phase_aligned_distance,
    qft_decomposition_even,
    qft_decomposition_odd,
    qft_matrix,
    talbot_cycle_length,
    talbot_step_coefficients,
    talbot_unitary,
)
from .gauss import (
    GaussCoefficients,
    closed_form_even,
    closed_form_odd,
    gauss_coefficients,
    jacobi_symbol,
)
from .grating import (
    GratingSpec,
    ModeField,
    basis_wavefunction,
    grating_coefficients,
    mean_orthogonality,
)
from .measure import measure_probabilities, sample_counts
from .photonpair import (
    PostSelectedOperator,
    SDBSSpec,
    TwoPhotonState,
    apply_mode_map,
    apply_sdbs,
    balanced_splitter,
    build_cz,
    control_splitter,
    filter_splitter,
    hadamard_input_pair,
    ideal_cz_matrix,
    interaction_phase_signature,
    post_select_coincidence,
    schmidt_coefficients,
    sdbs_mode_map,
)
from .programs import (
    OpticalProgram,
    PhaseMask,
    Propagate,
    compile_program,
    hadamard_program,
    hadamard_via_talbot,
    prepare_bloch_state,
)
from .propagation import (
    CrosscheckResult,
    PropagationReport,
    ReplicaDecomposition,
    SampledField,
    gate_crosscheck,
    propagate_angular_spectrum,
    propagate_paraxial,
    replica_decompose,
)
from .serialize import (
    dumps,
    format_csv,
    matrix_from_json,
    matrix_to_json,
    postselected_to_json,
    program_from_json,
    program_to_json,
    write_csv,
    write_pgm,
)
from .verify import run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gauss
    "GaussCoefficients", "gauss_coefficients", "closed_form_even",
    "closed_form_odd", "jacobi_symbol",
    # gates
    "pauli_shift", "talbot_cycle_length", "talbot_step_coefficients",
    "talbot_unitary", "circulant", "diagonal_gate", "clifford_phases",
    "qft_matrix", "qft_decomposition_even", "qft_decomposition_odd",
    "DecompositionReport", "align_phase", "phase_aligned_distance",
    # programs
    "Propagate", "PhaseMask", "OpticalProgram", "compile_program",
    "hadamard_program", "hadamard_via_talbot", "prepare_bloch_state",
    # measurement
    "measure_probabilities", "sample_counts",
    # grating
    "GratingSpec", "ModeField", "grating_coefficients", "basis_wavefunction",
    "mean_orthogonality",
    # propagation
    "propagate_paraxial", "ReplicaDecomposition", "replica_decompose",
    "CrosscheckResult", "gate_crosscheck", "SampledField",
    "PropagationReport", "propagate_angular_spectrum",
    # carpet
    "CarpetImage", "Revival", "render_carpet", "render_program_carpet",
    "detect_revivals",
    # fidelity
    "FidelityRow", "fidelity_sweep", "revival_fidelity",
    "synthesize_gaussian_comb",
    # photon pair
    "SDBSSpec", "balanced_splitter", "control_splitter", "filter_splitter",
    "sdbs_mode_map", "TwoPhotonState", "apply_mode_map", "apply_sdbs",
    "post_select_coincidence", "PostSelectedOperator", "build_cz",
    "ideal_cz_matrix", "interaction_phase_signature", "schmidt_coefficients",
    "hadamard_input_pair",
    # serialization
    "matrix_to_json", "matrix_from_json", "program_to_json",
    "program_from_json", "postselected_to_json", "dumps", "write_pgm",
    "format_csv", "write_csv",
    # verification
    "run_suite", "suite_names",
]
