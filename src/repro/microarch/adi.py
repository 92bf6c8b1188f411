"""Analogue-digital interface (ADI).

The last digital block before the qubits: codewords arriving from the timing
control unit are looked up in the pulse library and converted into sampled
analogue waveforms (here: numpy arrays of a parameterised envelope).  The
pulse library is technology specific — a superconducting platform uses
short DRAG-like microwave envelopes and fast flux pulses, a spin-qubit
platform uses longer pulses — which is what makes the micro-architecture
retargetable by swapping only this table and the micro-code unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.microarch.microcode import MicroOperation
from repro.microarch.timing_control import TimedEvent


@dataclass
class Pulse:
    """A sampled analogue waveform assigned to a channel at a start time."""

    channel: str
    start_ns: int
    duration_ns: int
    samples: np.ndarray
    kind: str = "drive"

    @property
    def energy(self) -> float:
        """Integrated squared amplitude (arbitrary units)."""
        return float(np.sum(np.abs(self.samples) ** 2))


class PulseLibrary:
    """Codeword -> waveform envelope generator."""

    def __init__(self, sample_rate_gsps: float = 1.0):
        # 1 GS/s default: one sample per nanosecond.
        self.sample_rate_gsps = sample_rate_gsps

    def waveform(self, operation: MicroOperation) -> np.ndarray:
        samples = max(1, int(round(operation.duration_ns * self.sample_rate_gsps)))
        t = np.linspace(0.0, 1.0, samples)
        if operation.kind == "drive":
            # Gaussian microwave envelope; amplitude keyed by codeword so
            # distinct gates produce distinct (reproducible) waveforms.
            amplitude = 0.5 + 0.05 * (operation.codeword % 8)
            return amplitude * np.exp(-((t - 0.5) ** 2) / 0.05)
        if operation.kind == "flux":
            # Square flux pulse with short ramps.
            wave = np.ones(samples)
            ramp = max(1, samples // 8)
            wave[:ramp] = np.linspace(0.0, 1.0, ramp)
            wave[-ramp:] = np.linspace(1.0, 0.0, ramp)
            return 0.8 * wave
        if operation.kind == "measure":
            # Long rectangular readout tone.
            return 0.3 * np.ones(samples)
        return np.zeros(samples)


class AnalogDigitalInterface:
    """Convert timed codeword events into analogue pulses."""

    def __init__(self, sample_rate_gsps: float = 1.0):
        self.library = PulseLibrary(sample_rate_gsps)
        self.pulses: list[Pulse] = []

    def convert(self, events: list[TimedEvent]) -> list[Pulse]:
        """Convert a full event trace into a pulse sequence."""
        self.pulses = [
            Pulse(
                channel=event.operation.channel,
                start_ns=event.time_ns,
                duration_ns=event.operation.duration_ns,
                samples=self.library.waveform(event.operation),
                kind=event.operation.kind,
            )
            for event in events
        ]
        return self.pulses
