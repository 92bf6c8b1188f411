"""OpenQL-style programs: an ordered collection of kernels.

A :class:`Program` is what the application layer hands to the compiler.  It
supports the classical encapsulation constructs the paper mentions —
repetition of a kernel (for-loop) and simple if-style conditional kernels —
which the compiler flattens or preserves as sub-circuit iteration counts in
the emitted cQASM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.openql.kernel import Kernel
from repro.openql.platform import Platform


@dataclass
class KernelEntry:
    """A kernel plus its classical control wrapper."""

    kernel: Kernel
    iterations: int = 1
    condition: str | None = None


@dataclass
class Program:
    """A quantum program targeting one platform."""

    name: str
    platform: Platform
    num_qubits: int | None = None
    entries: list[KernelEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_qubits is None:
            self.num_qubits = self.platform.num_qubits
        if self.num_qubits > self.platform.num_qubits:
            raise ValueError("program requests more qubits than the platform offers")

    # ------------------------------------------------------------------ #
    def new_kernel(self, name: str) -> Kernel:
        """Create a kernel bound to this program's platform and register it."""
        kernel = Kernel(name, self.platform, num_qubits=self.num_qubits)
        self.add_kernel(kernel)
        return kernel

    def add_kernel(self, kernel: Kernel, iterations: int = 1, condition: str | None = None) -> None:
        if kernel.num_qubits > self.num_qubits:
            raise ValueError(
                f"kernel {kernel.name!r} uses {kernel.num_qubits} qubits, program has "
                f"{self.num_qubits}"
            )
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.entries.append(KernelEntry(kernel=kernel, iterations=iterations, condition=condition))

    def add_for(  # contract: ignore[REPRO010] OpenQL's classical for-loop
        self, kernel: Kernel, iterations: int
    ) -> None:
        """Classical for-loop around a kernel."""
        self.add_kernel(kernel, iterations=iterations)

    def add_if(  # contract: ignore[REPRO010] OpenQL's host-conditioned kernel
        self, kernel: Kernel, condition: str
    ) -> None:
        """Classically conditioned kernel (condition evaluated by the host)."""
        self.add_kernel(kernel, condition=condition)

    # ------------------------------------------------------------------ #
    @property
    def kernels(self) -> list[Kernel]:
        return [entry.kernel for entry in self.entries]

    def total_gate_count(self) -> int:
        return sum(e.kernel.gate_count() * e.iterations for e in self.entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Program({self.name!r}, platform={self.platform.name!r}, "
            f"kernels={len(self.entries)})"
        )
