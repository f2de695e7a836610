"""Metrological measures of non-classical correlations for bipartite states.

The package computes the local quantum uncertainty, the interferometric power
and the discriminating strength of finite-dimensional bipartite states, and
verifies their operational meaning with phase-estimation and state
discrimination simulations.
"""

from .discrimination import (
    ChernoffResult,
    chernoff,
    ds_general,
    ds_pure,
    ds_pure_harmonic,
    ds_qubit_qudit,
    helstrom_error,
)
from .errors import MetrocorrError
from .fisher import (
    PhaseChannel,
    Povm,
    classical_fisher,
    cramer_rao,
    ip_general,
    ip_qubit_qudit,
    qfi,
    sld,
)
from .linalg import (
    DensityMatrix,
    EigDecomposition,
    Observable,
    eig_hermitian,
    embed,
    haar_unitary,
    linear_spectrum,
    partial_trace,
    random_density,
    tensor,
    trace_norm,
    validate_density,
)
from .manifold import MeasureResult, OptimizerConfig
from .sim import (
    EstimationConfig,
    ExperimentRecord,
    SweepTable,
    correlation,
    run_discrimination,
    run_phase_estimation,
    sweep_states,
)
from .states import (
    load_observable,
    load_state,
    make_bell,
    make_cq,
    make_fig1_state,
    make_schmidt_pure,
    make_werner,
    random_cq,
    save_observable,
    save_state,
)
from .uncertainty import (
    classical_uncertainty,
    hellinger_sq,
    lqu_general,
    lqu_qubit_qudit,
    skew_information,
    variance,
)

__version__ = "0.1.0"

__all__ = [
    "ChernoffResult",
    "DensityMatrix",
    "EigDecomposition",
    "EstimationConfig",
    "ExperimentRecord",
    "MeasureResult",
    "MetrocorrError",
    "Observable",
    "OptimizerConfig",
    "PhaseChannel",
    "Povm",
    "SweepTable",
    "chernoff",
    "classical_fisher",
    "classical_uncertainty",
    "correlation",
    "cramer_rao",
    "ds_general",
    "ds_pure",
    "ds_pure_harmonic",
    "ds_qubit_qudit",
    "eig_hermitian",
    "embed",
    "haar_unitary",
    "hellinger_sq",
    "helstrom_error",
    "ip_general",
    "ip_qubit_qudit",
    "linear_spectrum",
    "load_observable",
    "load_state",
    "lqu_general",
    "lqu_qubit_qudit",
    "make_bell",
    "make_cq",
    "make_fig1_state",
    "make_schmidt_pure",
    "make_werner",
    "partial_trace",
    "qfi",
    "random_cq",
    "random_density",
    "run_discrimination",
    "run_phase_estimation",
    "save_observable",
    "save_state",
    "skew_information",
    "sld",
    "sweep_states",
    "tensor",
    "trace_norm",
    "validate_density",
    "variance",
]
