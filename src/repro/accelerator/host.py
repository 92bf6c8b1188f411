"""Classical host CPU and the accelerator offload model.

"The formal definition of an accelerator is indeed a co-processor linked to
the central processor that is capable of accelerating the execution of
specific computational intensive kernels, as to speed up the overall
execution according to Amdahl's law." (Section 1)

:class:`HostCPU` keeps a registry of attached accelerators (GPU/FPGA-style
classical ones and the two quantum classes), profiles an application into
kernels, decides which kernel goes where, and reports the end-to-end
Amdahl speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KernelProfile:
    """One computational kernel of an end-user application."""

    name: str
    fraction_of_runtime: float
    kind: str = "classical"  # classical | search | optimisation | simulation
    accelerator_speedup: float = 1.0


@dataclass
class ApplicationProfile:
    """An application decomposed into kernels with runtime fractions."""

    name: str
    kernels: list[KernelProfile] = field(default_factory=list)

    def add_kernel(
        self,
        name: str,
        fraction_of_runtime: float,
        kind: str = "classical",
        accelerator_speedup: float = 1.0,
    ) -> None:
        self.kernels.append(
            KernelProfile(name, fraction_of_runtime, kind, accelerator_speedup)
        )

    def validate(self) -> None:
        total = sum(k.fraction_of_runtime for k in self.kernels)
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"kernel fractions sum to {total:.3f}, expected 1.0")


@dataclass
class OffloadDecision:
    kernel: KernelProfile
    accelerator: str
    speedup: float


@dataclass
class OffloadReport:
    """Where every kernel went and the resulting overall speed-up."""

    application: str
    decisions: list[OffloadDecision] = field(default_factory=list)

    @property
    def amdahl_speedup(self) -> float:  # contract: ignore[REPRO010] the paper's offload speed-up
        """Overall speed-up: 1 / sum(fraction_i / speedup_i)."""
        denominator = sum(
            d.kernel.fraction_of_runtime / max(d.speedup, 1e-12) for d in self.decisions
        )
        return 1.0 / denominator if denominator > 0 else 1.0


class HostCPU:
    """The controlling classical processor of the heterogeneous system."""

    #: Which kernel kinds each accelerator class is suited to.
    _AFFINITY = {
        "gpu": ("simulation", "linear_algebra"),
        "fpga": ("streaming", "search"),
        "quantum_gate": ("search", "simulation", "optimisation"),
        "quantum_annealer": ("optimisation",),
    }

    def __init__(self, name: str = "host", runtime_workers: int | None = None):
        self.name = name
        self.accelerators: dict[str, float] = {}
        #: Worker-pool size used when offloading experiments; ``None`` means
        #: "one worker per available core".
        self.runtime_workers = runtime_workers

    def attach_accelerator(  # contract: ignore[REPRO010] how the paper's host gains accelerators
        self, kind: str, typical_speedup: float
    ) -> None:
        """Register an accelerator of a given kind with its typical kernel speed-up."""
        if kind not in self._AFFINITY:
            raise ValueError(
                f"unknown accelerator kind {kind!r}; expected one of {sorted(self._AFFINITY)}"
            )
        if typical_speedup < 1.0:
            raise ValueError("an accelerator must not slow kernels down")
        self.accelerators[kind] = typical_speedup

    # ------------------------------------------------------------------ #
    def offload(self, application: ApplicationProfile) -> OffloadReport:
        """Assign each kernel to the best-suited attached accelerator."""
        application.validate()
        report = OffloadReport(application=application.name)
        for kernel in application.kernels:
            best_kind = "host"
            best_speedup = 1.0
            for kind, speedup in self.accelerators.items():
                if kernel.kind in self._AFFINITY[kind]:
                    effective = speedup * kernel.accelerator_speedup
                    if effective > best_speedup:
                        best_speedup = effective
                        best_kind = kind
            report.decisions.append(
                OffloadDecision(kernel=kernel, accelerator=best_kind, speedup=best_speedup)
            )
        return report

    # ------------------------------------------------------------------ #
    def run_experiment(
        self,
        spec,
        workers: int | None = None,
        cache_dir=None,
        backend: str | None = None,
    ):
        """Offload a declarative full-stack experiment to the quantum pipeline.

        This is the host's actual execution path (as opposed to the Amdahl
        bookkeeping above): the :class:`~repro.runtime.spec.ExperimentSpec`
        is handed to the parallel :class:`~repro.runtime.runner.ExperimentRunner`,
        which shards the sweep's shot batches across ``workers`` processes
        and returns the merged :class:`~repro.runtime.aggregate.ExperimentResult`.

        ``backend`` overrides the spec's simulation engine for this offload
        (e.g. ``"mps"`` to force the tensor-network engine on a large
        register) without mutating the caller's spec.
        """
        from dataclasses import replace

        from repro.runtime.runner import ExperimentRunner

        if workers is None:
            workers = self.runtime_workers
        if backend is not None:
            spec = replace(spec, simulation=replace(spec.simulation, backend=backend))
        return ExperimentRunner(spec, workers=workers, cache_dir=cache_dir).run()
