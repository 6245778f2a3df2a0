"""Nonlocal skyrmionic biphoton states through isotropic noise.

Construct hybrid OAM-polarization entangled states, degrade them with an
isotropic noise channel, map out the position-conditioned Stokes textures
of the partner photon, and measure the topology (Skyrmion number) that the
noise cannot touch, both from exact density matrices and from simulated
coincidence tomography.
"""

from .biphoton import (
    DensityMatrix4,
    HybridStateSpec,
    apply_isotropic_noise,
    channel_purity,
    contrast_from_p,
    contrast_to_p,
    contrast_to_purity,
    pure_state,
    purity,
)
from .lgmodes import CoeffField, GridSpec, ModeSpec, coeff_field, lg_amplitude
from .stokesfield import (
    StokesField,
    UnitVectorField,
    bloch_texture,
    conditional_state,
    normalize_stokes,
    projection_pair,
    stokes_field,
)
from .tomography import (
    MeasurementSetting,
    MleResult,
    TomographyRecord,
    WitnessReport,
    average_quantum_contrast,
    concurrence,
    fidelity,
    linear_inversion,
    mle_reconstruct,
    noise_rate_for_contrast,
    record_from_csv,
    record_to_csv,
    settings_36,
    simulate_counts,
    witness_report,
)
from .topology import (
    ConvergenceRow,
    SkyrmionResult,
    channel_skyrmion_numbers,
    convergence_scan,
    pullback_skyrmion_number,
    skyrmion_density,
    skyrmion_number,
    skyrmion_number_analytic,
    suggested_grid,
    texture_for_state,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffField",
    "ConvergenceRow",
    "DensityMatrix4",
    "GridSpec",
    "HybridStateSpec",
    "MeasurementSetting",
    "MleResult",
    "ModeSpec",
    "SkyrmionResult",
    "StokesField",
    "TomographyRecord",
    "UnitVectorField",
    "WitnessReport",
    "apply_isotropic_noise",
    "average_quantum_contrast",
    "bloch_texture",
    "channel_purity",
    "channel_skyrmion_numbers",
    "coeff_field",
    "concurrence",
    "conditional_state",
    "contrast_from_p",
    "contrast_to_p",
    "contrast_to_purity",
    "convergence_scan",
    "fidelity",
    "lg_amplitude",
    "linear_inversion",
    "mle_reconstruct",
    "noise_rate_for_contrast",
    "normalize_stokes",
    "projection_pair",
    "pullback_skyrmion_number",
    "pure_state",
    "purity",
    "record_from_csv",
    "record_to_csv",
    "settings_36",
    "simulate_counts",
    "skyrmion_density",
    "skyrmion_number",
    "skyrmion_number_analytic",
    "stokes_field",
    "suggested_grid",
    "texture_for_state",
    "witness_report",
]
