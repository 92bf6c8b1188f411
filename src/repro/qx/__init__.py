"""QX-style quantum simulator.

Re-implementation of the role the QX simulator plays in the paper's stack
(Section 2.7): execute cQASM-level circuits on either *perfect* qubits (no
errors — application development mode) or *realistic* qubits (configurable
error models — architecture exploration mode), measure, and return results
to the micro-architecture.
"""

from repro.qx.statevector import StateVector
from repro.qx.compiled import KernelProgram, lower, program_for
from repro.qx.error_models import (
    ErrorModel,
    NoError,
    DepolarizingError,
    DecoherenceError,
    MeasurementError,
    AsymmetricPauliError,
    CrosstalkError,
    CompositeError,
    error_model_for,
)
from repro.qx.channels import (
    Channel,
    ChannelProgram,
    PauliBasis,
    compile_channels,
    compile_circuit,
    default_basis,
    ptm_of_unitary,
)
from repro.qx.simulator import QXSimulator, SimulationResult
from repro.qx.density import DENSITY_MAX_QUBITS, DensityMatrixSimulator, gpu_available
from repro.qx.stabilizer import StabilizerSimulator, StabilizerState
from repro.qx.mps import MPSState
from repro.qx.backends import (
    BACKENDS,
    BackendCapabilities,
    CircuitProfile,
    DispatchPolicy,
    UnsupportedBackendError,
    capability_matrix,
    profile_program,
)

__all__ = [
    "StateVector",
    "KernelProgram",
    "lower",
    "program_for",
    "ErrorModel",
    "NoError",
    "DepolarizingError",
    "DecoherenceError",
    "MeasurementError",
    "AsymmetricPauliError",
    "CrosstalkError",
    "CompositeError",
    "error_model_for",
    "Channel",
    "ChannelProgram",
    "PauliBasis",
    "compile_channels",
    "compile_circuit",
    "default_basis",
    "ptm_of_unitary",
    "QXSimulator",
    "SimulationResult",
    "DENSITY_MAX_QUBITS",
    "DensityMatrixSimulator",
    "gpu_available",
    "StabilizerSimulator",
    "StabilizerState",
    "MPSState",
    "BACKENDS",
    "BackendCapabilities",
    "CircuitProfile",
    "DispatchPolicy",
    "UnsupportedBackendError",
    "capability_matrix",
    "profile_program",
]
