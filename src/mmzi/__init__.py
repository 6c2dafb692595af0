"""Multiphase estimation in multiarm Mach-Zehnder interferometers.

Simulation and analysis toolkit: exact photon-counting statistics for
Fock, coherent and distinguishable probes, classical/quantum Fisher
information and separability bounds, phase-landscape scans, and seeded
Monte Carlo runs of a multi-step adaptive maximum-likelihood protocol.
"""

from .optics import (
    Interferometer,
    four_mode_mzi,
    multiport_unitary,
    three_mode_mzi,
    unitarity_defect,
)
from .fock import (
    enumerate_fock_basis,
    permanent,
    sector_unitary,
    transition_amplitude,
)
from .probes import (
    OutcomeDistribution,
    Probe,
    build_model,
)
from .fisher import (
    FisherInverse,
    FisherMatrix,
    SeparableBoundSpec,
    SingularSupportError,
    WitnessVerdict,
    entanglement_witness,
    fisher_matrix,
    invert_fisher,
    mmzi_separable_spec,
    qfim_for_probe,
    qfim_pure,
    separable_bounds,
)
from .landscape import (
    LandscapeGrid,
    StabilityReport,
    WorkingPoint,
    export_grid,
    find_working_points,
    load_grid,
    scan_grid,
    stability_region,
)
from .adaptive import (
    CountRecord,
    GaussianPrior,
    MonteCarloStats,
    ProtocolConfig,
    ProtocolTrace,
    RoughStepError,
    log_likelihood,
    monte_carlo,
    quotient_errors,
    run_protocol,
    sample_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "Interferometer",
    "four_mode_mzi",
    "multiport_unitary",
    "three_mode_mzi",
    "unitarity_defect",
    "enumerate_fock_basis",
    "permanent",
    "sector_unitary",
    "transition_amplitude",
    "OutcomeDistribution",
    "Probe",
    "build_model",
    "FisherInverse",
    "FisherMatrix",
    "SeparableBoundSpec",
    "SingularSupportError",
    "WitnessVerdict",
    "entanglement_witness",
    "fisher_matrix",
    "invert_fisher",
    "mmzi_separable_spec",
    "qfim_for_probe",
    "qfim_pure",
    "separable_bounds",
    "LandscapeGrid",
    "StabilityReport",
    "WorkingPoint",
    "export_grid",
    "find_working_points",
    "load_grid",
    "scan_grid",
    "stability_region",
    "CountRecord",
    "GaussianPrior",
    "MonteCarloStats",
    "ProtocolConfig",
    "ProtocolTrace",
    "RoughStepError",
    "log_likelihood",
    "monte_carlo",
    "quotient_errors",
    "run_protocol",
    "sample_outcomes",
]
