"""Micro-code unit.

Each eQASM instruction is expanded at run time into one or more *horizontal*
micro-operations: per-channel codewords with precise relative timing.  A
two-qubit CZ gate, for example, expands into a flux pulse on the coupler
channel plus idling (echo) pulses on the two qubit drive channels.  The
micro-code table is part of the platform configuration: retargeting the same
micro-architecture to a different quantum technology only changes this table
(Section 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eqasm.instructions import EqasmInstruction
from repro.openql.platform import Platform


@dataclass(frozen=True)
class MicroOperation:
    """One codeword on one control channel at a relative time offset."""

    channel: str
    codeword: int
    offset_ns: int
    duration_ns: int
    kind: str = "drive"  # drive | flux | measure


@dataclass
class MicrocodeEntry:
    """Expansion rule for one opcode."""

    opcode: str
    kind: str
    duration_ns: int
    channels_per_qubit: tuple[str, ...] = ("drive",)


class MicrocodeUnit:
    """Expand eQASM instructions into micro-operation lists."""

    def __init__(self, platform: Platform, table: dict[str, MicrocodeEntry] | None = None):
        self.platform = platform
        self.table = table or self._default_table(platform)
        self._codeword_counter = 0
        self._codewords: dict[tuple[str, str], int] = {}

    @staticmethod
    def _default_table(platform: Platform) -> dict[str, MicrocodeEntry]:
        table: dict[str, MicrocodeEntry] = {}
        for name in platform.primitive_gates:
            duration = platform.duration_of(name)
            if name in ("cz", "cnot", "swap", "cr", "crk"):
                table[name] = MicrocodeEntry(name, "flux", duration, ("flux",))
            elif name == "measure":
                table[name] = MicrocodeEntry(name, "measure", duration, ("readout",))
            else:
                table[name] = MicrocodeEntry(name, "drive", max(duration, 1), ("drive",))
        table.setdefault(
            "measz", MicrocodeEntry("measz", "measure", platform.duration_of("measure"), ("readout",))
        )
        return table

    # ------------------------------------------------------------------ #
    def expand(self, instruction: EqasmInstruction) -> list[MicroOperation]:
        """Expand one eQASM instruction into its micro-operations."""
        entry = self.table.get(instruction.opcode)
        if entry is None:
            raise ValueError(
                f"no micro-code entry for opcode {instruction.opcode!r} on platform "
                f"{self.platform.name!r}"
            )
        operations: list[MicroOperation] = []
        for qubit in instruction.qubits:
            for channel_kind in entry.channels_per_qubit:
                channel = f"{channel_kind}_{qubit}"
                codeword = self._codeword_for(instruction.opcode, channel_kind)
                operations.append(
                    MicroOperation(
                        channel=channel,
                        codeword=codeword,
                        offset_ns=0,
                        duration_ns=entry.duration_ns,
                        kind=entry.kind,
                    )
                )
        return operations

    def _codeword_for(self, opcode: str, channel_kind: str) -> int:
        key = (opcode, channel_kind)
        if key not in self._codewords:
            self._codewords[key] = self._codeword_counter
            self._codeword_counter += 1
        return self._codewords[key]

    def codeword_table(self) -> dict[tuple[str, str], int]:
        return dict(self._codewords)
