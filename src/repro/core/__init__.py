"""Core quantum circuit model.

This subpackage implements the computational model on which the whole
accelerator stack is built: the quantum gate set (:mod:`repro.core.gates`),
the circuit intermediate representation (:mod:`repro.core.circuit` and
:mod:`repro.core.operations`), and the real / realistic / perfect qubit
quality models of Section 2.1 of the paper (:mod:`repro.core.qubits`).
Operation dependencies are read where they are used, by the scheduler's one
pass over a circuit (:mod:`repro.mapping.scheduling`).
"""

from repro.core.gates import Gate, GateSet, standard_gate_set
from repro.core.operations import (
    Operation,
    GateOperation,
    Measurement,
    Barrier,
    ClassicalOperation,
)
from repro.core.circuit import Circuit
from repro.core.qubits import QubitModel, PERFECT, REALISTIC, REAL_TRANSMON

__all__ = [
    "Gate",
    "GateSet",
    "standard_gate_set",
    "Operation",
    "GateOperation",
    "Measurement",
    "Barrier",
    "ClassicalOperation",
    "Circuit",
    "QubitModel",
    "PERFECT",
    "REALISTIC",
    "REAL_TRANSMON",
]
