"""Small quantum error-correcting codes as circuits.

These are the "small codes" Preskill's NISQ argument favours over full
surface codes (Section 2.1): the 3-qubit bit-flip repetition code, the
9-qubit Shor code and the 7-qubit Steane code.  Each code provides encoding
circuits, syndrome-measurement circuits, classical decoding of the measured
syndrome, and a Monte-Carlo estimate of the logical error rate under a
physical depolarising/bit-flip error rate — executed on the QX simulator so
the whole realistic-qubit stack is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector


@dataclass
class CodeParameters:
    """[[n, k, d]] parameters of a code."""

    physical_qubits: int
    logical_qubits: int
    distance: int


class RepetitionCode:
    """Distance-d bit-flip repetition code (phase-flip variant optional).

    The logical |0> is |00...0>, logical |1> is |11...1>.  Ancilla-free
    decoding is done by majority vote on the measured data qubits, which is
    sufficient for the bit-flip channel used in the benchmarks.
    """

    def __init__(self, distance: int = 3, basis: str = "bit"):
        if distance < 3 or distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")
        if basis not in ("bit", "phase"):
            raise ValueError("basis must be 'bit' or 'phase'")
        self.distance = distance
        self.basis = basis

    @property
    def parameters(self) -> CodeParameters:
        return CodeParameters(self.distance, 1, self.distance)

    # ------------------------------------------------------------------ #
    def encoding_circuit(self, logical_one: bool = False) -> Circuit:
        """Prepare the logical |0> or |1> across ``distance`` data qubits."""
        circuit = Circuit(self.distance, f"rep{self.distance}_encode")
        if logical_one:
            circuit.x(0)
        for qubit in range(1, self.distance):
            circuit.cnot(0, qubit)
        if self.basis == "phase":
            for qubit in range(self.distance):
                circuit.h(qubit)
        return circuit

    def decode_majority(self, bits: list[int]) -> int:
        """Majority-vote decoding of measured data qubits."""
        return int(sum(bits) > len(bits) // 2)

    def syndrome(self, bits: list[int]) -> list[int]:
        """Parity checks between neighbouring data qubits."""
        return [bits[i] ^ bits[i + 1] for i in range(len(bits) - 1)]

    # ------------------------------------------------------------------ #
    def logical_error_rate(
        self,
        physical_error_rate: float,
        trials: int = 2000,
        seed: int | np.random.SeedSequence | None = None,
    ) -> float:
        """Monte-Carlo logical error rate under independent bit-flips.

        For the repetition code under an independent bit-flip channel, the
        classical (Pauli-frame) simulation is exact and fast; the circuit
        version in :meth:`logical_error_rate_circuit` cross-checks it on the
        QX simulator for small numbers of trials.
        """
        rng = np.random.default_rng(seed)
        flips = rng.random((trials, self.distance)) < physical_error_rate
        wrong = np.sum(flips, axis=1) > self.distance // 2
        return float(np.mean(wrong))

    def logical_error_rate_circuit(
        self,
        physical_error_rate: float,
        trials: int = 200,
        seed: int | np.random.SeedSequence | None = None,
    ) -> float:
        """Logical error rate measured by running encode-error-measure circuits on QX."""
        rng = np.random.default_rng(seed)
        failures = 0
        for _ in range(trials):
            circuit = self.encoding_circuit(logical_one=False)
            for qubit in range(self.distance):
                if rng.random() < physical_error_rate:
                    circuit.x(qubit)
            circuit.measure_all()
            result = QXSimulator(seed=int(rng.integers(2**31))).run(circuit, shots=1)
            bits = [result.classical_bits[0][q] for q in range(self.distance)]
            if self.decode_majority(bits) != 0:
                failures += 1
        return failures / trials


class ShorCode:
    """The 9-qubit Shor code: protects against any single-qubit error."""

    parameters = CodeParameters(9, 1, 3)

    def encoding_circuit(self, logical_one: bool = False) -> Circuit:
        """Standard Shor encoding: phase-flip repetition of bit-flip triples."""
        circuit = Circuit(9, "shor9_encode")
        if logical_one:
            circuit.x(0)
        # Outer phase-flip code over blocks (0, 3, 6).
        circuit.cnot(0, 3)
        circuit.cnot(0, 6)
        circuit.h(0)
        circuit.h(3)
        circuit.h(6)
        # Inner bit-flip codes inside each block.
        for block in (0, 3, 6):
            circuit.cnot(block, block + 1)
            circuit.cnot(block, block + 2)
        return circuit

    def apply_error(self, circuit: Circuit, qubit: int, pauli: str) -> Circuit:
        """Append a single Pauli error to a copy of the circuit."""
        result = circuit.copy()
        if pauli == "x":
            result.x(qubit)
        elif pauli == "z":
            result.z(qubit)
        elif pauli == "y":
            result.y(qubit)
        elif pauli != "i":
            raise ValueError(f"unknown Pauli {pauli!r}")
        return result

    def decoding_circuit(self) -> Circuit:
        """Coherent decoder with majority-vote (Toffoli) corrections.

        Mirrors the encoder in reverse and uses the two other qubits of each
        block as a coherent majority vote, so any single-qubit Pauli error is
        corrected without intermediate measurement.
        """
        circuit = Circuit(9, "shor9_decode")
        # Undo the inner bit-flip codes with majority correction.
        for block in (0, 3, 6):
            circuit.cnot(block, block + 1)
            circuit.cnot(block, block + 2)
            circuit.toffoli(block + 1, block + 2, block)
        # Undo the outer phase-flip code with majority correction.
        circuit.h(0)
        circuit.h(3)
        circuit.h(6)
        circuit.cnot(0, 3)
        circuit.cnot(0, 6)
        circuit.toffoli(3, 6, 0)
        return circuit

    def recovery_fidelity(self, pauli: str, qubit: int) -> float:
        """Probability that the logical qubit is recovered after one Pauli error.

        Encodes |0>_L, applies the error, runs the coherent decoder and
        returns the probability that the logical (input) qubit reads 0.  For
        the Shor code every single-qubit Pauli error is correctable, so the
        returned value is 1.0 for all of them (a property test).
        """
        encode = self.encoding_circuit()
        noisy = self.apply_error(encode, qubit, pauli)
        full = noisy.compose(self.decoding_circuit())
        sim = QXSimulator(seed=0)
        state = StateVector(9)
        state.set_state(sim.statevector(full))
        # After a successful decode the logical qubit (q0) must be |0>
        # regardless of the junk left on the syndrome qubits.
        return 1.0 - state.probability_of_one(0)


class SteaneCode:
    """The [[7, 1, 3]] Steane (CSS) code."""

    parameters = CodeParameters(7, 1, 3)

    #: Parity-check matrix of the classical [7,4,3] Hamming code.
    PARITY_CHECKS = (
        (0, 2, 4, 6),
        (1, 2, 5, 6),
        (3, 4, 5, 6),
    )

    def encoding_circuit(self, logical_one: bool = False) -> Circuit:
        """Encode |0>_L (or |1>_L) into seven qubits.

        |0>_L is the uniform superposition of the eight codewords of the
        [7, 3] simplex code spanned by the X-stabiliser generators (the rows
        of :attr:`PARITY_CHECKS`).  The CSS encoder puts a Hadamard on one
        pivot qubit per generator (qubits 0, 1 and 3, which each appear in
        exactly one row) and copies it into the rest of the row with CNOTs.
        |1>_L is obtained by the transversal logical X (X on all qubits).
        """
        circuit = Circuit(7, "steane7_encode")
        pivots = (0, 1, 3)
        for pivot, row in zip(pivots, self.PARITY_CHECKS, strict=True):
            circuit.h(pivot)
            for target in row:
                if target != pivot:
                    circuit.cnot(pivot, target)
        if logical_one:
            for qubit in range(7):
                circuit.x(qubit)
        return circuit

    def syndrome_of_flips(self, flipped_qubits: set[int]) -> tuple[int, ...]:
        """Classical X-error syndrome from the Hamming parity checks."""
        return tuple(
            sum(1 for q in check if q in flipped_qubits) % 2 for check in self.PARITY_CHECKS
        )

    def decode_syndrome(self, syndrome: tuple[int, ...]) -> int | None:
        """Return the data qubit identified by the syndrome (or None)."""
        value = syndrome[0] * 1 + syndrome[1] * 2 + syndrome[2] * 4
        if value == 0:
            return None
        # The Hamming syndrome directly indexes the erroneous position
        # (columns of the parity-check matrix are the binary numbers 1..7).
        return value - 1

    def logical_error_rate(
        self,
        physical_error_rate: float,
        trials: int = 5000,
        seed: int | np.random.SeedSequence | None = None,
    ) -> float:
        """Monte-Carlo logical X error rate under independent bit-flips.

        An error pattern is a logical failure when, after syndrome-directed
        correction, the residual error anti-commutes with the logical Z —
        i.e. the corrected pattern has odd overlap with the logical X support
        (all seven qubits).
        """
        rng = np.random.default_rng(seed)
        failures = 0
        for _ in range(trials):
            flipped = {q for q in range(7) if rng.random() < physical_error_rate}
            syndrome = self.syndrome_of_flips(flipped)
            correction = self.decode_syndrome(syndrome)
            residual = set(flipped)
            if correction is not None:
                residual ^= {correction}
            if len(residual) % 2 == 1:
                failures += 1
        return failures / trials
