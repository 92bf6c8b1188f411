"""Declarative experiment specifications.

An :class:`ExperimentSpec` captures one full-stack run as plain data:

* **circuit** — either raw cQASM text or a reference to a circuit builder
  (a registry short name such as ``"ghz"``, or a ``"module:function"``
  dotted reference) plus its keyword arguments;
* **platform** — a platform factory name (``"perfect"``, ``"realistic"``,
  ``"superconducting"``, ``"spin_qubit"``, ``"surface17"`` or a dotted
  reference) plus keyword arguments;
* **compiler** — which OpenQL-style passes to run;
* **shots**, **seed** and a **sweep**: named parameter axes whose cartesian
  product defines the experiment's points.

Specs are JSON-serialisable (``to_dict``/``from_dict``) so they can be
stored next to results, shipped to worker processes, and hashed for the
artifact cache.  Sweep keys address spec fields by dotted path:
``"shots"``, ``"backend"``, ``"circuit.<kwarg>"``, ``"platform.<kwarg>"``,
``"compiler.<field>"`` or ``"simulation.<field>"``.
"""

from __future__ import annotations

import copy
import importlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import product

from repro.core.circuit import Circuit
from repro.openql.compiler import Compiler
from repro.openql.platform import Platform

#: Registry of circuit builders addressable by short name.
BUILDERS: dict[str, str] = {
    "bell": "repro.core.circuit:bell_pair_circuit",
    "ghz": "repro.core.circuit:ghz_circuit",
    "qft": "repro.core.circuit:qft_circuit",
    "random": "repro.core.circuit:random_circuit",
    "rotations": "repro.core.circuit:rotation_ladder_circuit",
}

#: Registry of platform factories addressable by short name.
PLATFORMS: dict[str, str] = {
    "perfect": "repro.openql.platform:perfect_platform",
    "realistic": "repro.openql.platform:realistic_platform",
    "superconducting": "repro.openql.platform:superconducting_platform",
    "spin_qubit": "repro.openql.platform:spin_qubit_platform",
    "surface17": "repro.openql.platform:surface17_platform",
}

#: Platform factories that take an explicit qubit count.
_SIZED_PLATFORMS = ("perfect", "realistic")

#: Topology factories addressable by short name in CompileSpec.
TOPOLOGIES: dict[str, str] = {
    "linear": "repro.mapping.topology:linear_topology",
    "grid": "repro.mapping.topology:grid_topology",
    "square_grid": "repro.mapping.topology:square_grid_topology",
    "full": "repro.mapping.topology:fully_connected_topology",
    "surface7": "repro.mapping.topology:surface7_topology",
    "surface17": "repro.mapping.topology:surface17_topology",
    "heavy_hex": "repro.mapping.topology:ibm_heavy_hex_like",
}


def resolve_reference(reference: str, registry: dict[str, str] | None = None):
    """Resolve a registry short name or ``"module:attribute"`` reference."""
    if registry and reference in registry:
        reference = registry[reference]
    module_name, _, attribute = reference.partition(":")
    if not attribute:
        raise ValueError(
            f"invalid reference {reference!r}: expected a registry name or 'module:attribute'"
        )
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


@dataclass
class CircuitSpec:
    """Where the quantum logic comes from.

    Exactly one of ``builder`` or ``cqasm`` must be set.  With
    ``measure="all"`` a terminal ``measure_all`` is appended when the built
    circuit contains no measurement of its own (builders in the registry
    produce bare state-preparation circuits).
    """

    builder: str | None = None
    kwargs: dict = field(default_factory=dict)
    cqasm: str | None = None
    measure: str = "all"  # "all" | "asis"

    def __post_init__(self) -> None:
        if (self.builder is None) == (self.cqasm is None):
            raise ValueError("CircuitSpec needs exactly one of builder= or cqasm=")
        if self.measure not in ("all", "asis"):
            raise ValueError(f"measure must be 'all' or 'asis', got {self.measure!r}")

    def build(self) -> Circuit:
        if self.cqasm is not None:
            from repro.cqasm.parser import cqasm_to_circuit

            circuit = cqasm_to_circuit(self.cqasm)
        else:
            builder = resolve_reference(self.builder, BUILDERS)
            circuit = builder(**self.kwargs)
        if not isinstance(circuit, Circuit):
            raise TypeError(f"circuit builder {self.builder!r} returned {type(circuit).__name__}")
        if self.measure == "all" and not circuit.measurements():
            circuit.measure_all()
        return circuit


@dataclass
class PlatformSpec:
    """Which compilation/simulation target the experiment runs against."""

    factory: str = "perfect"
    kwargs: dict = field(default_factory=dict)

    def build(self, default_num_qubits: int | None = None) -> Platform:
        factory = resolve_reference(self.factory, PLATFORMS)
        kwargs = dict(self.kwargs)
        if (
            self.factory in _SIZED_PLATFORMS
            and "num_qubits" not in kwargs
            and default_num_qubits is not None
        ):
            kwargs["num_qubits"] = default_num_qubits
        return factory(**kwargs)


@dataclass
class SimulationSpec:
    """Which simulation engine executes the shots, and its accuracy knobs.

    ``backend=None`` (the default) lets the :func:`~repro.qx.backends.choose`
    cost model choose per circuit; an explicit name pins the engine for
    every sweep point and fails fast
    (:class:`~repro.qx.backends.UnsupportedBackendError`) when the circuit
    is outside its capability matrix.  ``max_bond`` and
    ``truncation_threshold`` are the MPS Schmidt-truncation knobs (``None``
    = engine defaults: unbounded bond, i.e. exact); ``max_bond`` also feeds
    the cost model, in the planner and the worker alike.  All fields are
    sweepable as ``"simulation.<field>"``; the backend axis also has the
    short form ``"backend"`` (e.g. ``backend=statevector,mps``).
    """

    backend: str | None = None
    max_bond: int | None = None
    truncation_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            from repro.qx.backends import BACKENDS

            if self.backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {self.backend!r}: expected one of {sorted(BACKENDS)}"
                )
        if self.max_bond is not None and self.max_bond < 1:
            raise ValueError("max_bond must be >= 1 (or None for unbounded)")
        if self.truncation_threshold is not None and self.truncation_threshold < 0.0:
            raise ValueError("truncation_threshold must be >= 0")


@dataclass
class CompilerSpec:
    """Which OpenQL-style passes to run before simulation."""

    enabled: bool = True
    optimize: bool = True
    map_circuits: bool = True
    schedule_policy: str = "asap"

    def build(self) -> Compiler:
        return Compiler(
            optimize=self.optimize,
            map_circuits=self.map_circuits,
            schedule_policy=self.schedule_policy,
        )


@dataclass
class QecSpec:
    """One surface-code memory experiment (the stabilizer/QEC track).

    An experiment of ``kind="qec"`` runs
    :meth:`repro.qec.surface_code.PlanarSurfaceCode.run_memory_experiment`
    instead of a circuit: the spec's ``shots`` budget is the trial count,
    sharded and seeded exactly like circuit shots, and the merged histogram
    uses key ``"1"`` for logical failures and ``"0"`` for successes (so
    ``point.probability("1")`` is the logical error rate).
    """

    distance: int = 3
    rounds: int | None = None
    physical_error_rate: float = 1e-3
    measurement_error_rate: float | None = None
    #: ``"phenomenological"`` flips data/measurement bits i.i.d. per round;
    #: ``"circuit"`` runs the real syndrome-extraction circuit through the
    #: Pauli-frame sampler (depolarizing CNOTs, faulty measurements/resets).
    noise_model: str = "phenomenological"
    #: Decoder registry name; ``None`` keeps the per-noise-model default
    #: ("matching" phenomenological, "union_find" circuit).
    decoder: str | None = None

    def __post_init__(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")
        if not 0.0 <= self.physical_error_rate <= 1.0:
            raise ValueError("physical_error_rate outside [0, 1]")
        read_out = self.measurement_error_rate
        if read_out is not None and not 0.0 <= read_out <= 1.0:
            raise ValueError("measurement_error_rate outside [0, 1]")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.noise_model not in ("phenomenological", "circuit"):
            raise ValueError(
                f"noise_model must be 'phenomenological' or 'circuit', got {self.noise_model!r}"
            )
        if self.decoder is not None and self.decoder not in ("matching", "union_find"):
            raise ValueError(
                f"decoder must be 'matching' or 'union_find', got {self.decoder!r}"
            )

    @property
    def effective_decoder(self) -> str:
        """Decoder name after applying the per-noise-model default."""
        if self.decoder is not None:
            return self.decoder
        return "union_find" if self.noise_model == "circuit" else "matching"


@dataclass
class CompileSpec:
    """One compile-and-map pipeline configuration (``kind="compile"``).

    A compile experiment runs the full OpenQL-style pass pipeline —
    decomposition, optimisation, hybrid-aware placement + routing, timed
    scheduling — for the spec's circuit against a constrained topology, and
    records mapping metrics (SWAPs inserted, routing overhead, schedule
    makespan, :class:`~repro.mapping.traffic.TrafficAnalyzer` locality) per
    sweep point instead of a measurement histogram.  Sweep axes address the
    fields here as ``"compile.<field>"``, so placement strategy x router
    mode x topology x schedule policy sweeps run across worker shards under
    the same deterministic merge contract as ``qec``.
    """

    placement: str = "greedy"  # "greedy" | "trivial"
    router: str = "sabre"  # "sabre" | "path"
    topology: str = "grid"  # a TOPOLOGIES short name
    rows: int | None = None
    cols: int | None = None
    schedule_policy: str = "asap"  # "asap" | "alap"
    lookahead_window: int = 20
    decay: float = 0.7

    def __post_init__(self) -> None:
        if self.placement not in ("greedy", "trivial"):
            raise ValueError("placement must be 'greedy' or 'trivial'")
        if self.router not in ("path", "sabre"):
            raise ValueError("router must be 'path' or 'sabre'")
        if self.schedule_policy not in ("asap", "alap"):
            raise ValueError("schedule_policy must be 'asap' or 'alap'")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}: expected one of {sorted(TOPOLOGIES)}"
            )
        if self.rows is not None and self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.cols is not None and self.cols < 1:
            raise ValueError("cols must be >= 1")
        if self.topology != "grid" and self.rows is not None:
            raise ValueError(
                f"rows only applies to topology='grid'; use cols to size {self.topology!r}"
            )
        if self.topology in ("surface7", "surface17") and self.cols is not None:
            raise ValueError(f"topology {self.topology!r} has a fixed layout; cols does not apply")
        if self.lookahead_window < 0:
            raise ValueError("lookahead_window must be >= 0")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")

    def build_topology(self, min_sites: int):
        """Instantiate the target topology with at least ``min_sites`` sites."""
        from repro.mapping.topology import grid_topology, square_grid_topology

        if self.topology == "grid":
            if self.rows is None and self.cols is None:
                return square_grid_topology(min_sites)
            rows = self.rows if self.rows is not None else -(-min_sites // self.cols)
            cols = self.cols if self.cols is not None else -(-min_sites // self.rows)
            return grid_topology(rows, cols)
        factory = resolve_reference(self.topology, TOPOLOGIES)
        if self.topology in ("linear", "square_grid", "full"):
            return factory(max(min_sites, self.cols or 0))
        if self.topology == "heavy_hex":
            return factory(max(min_sites, self.cols or 20))
        return factory()  # fixed-size layouts: surface7, surface17


@dataclass
class ExperimentSpec:
    """One declarative full-stack experiment (possibly a parameter sweep).

    ``kind="circuit"`` (the default) compiles and simulates a circuit;
    ``kind="qec"`` runs a surface-code memory experiment described by the
    ``qec`` field on the stabilizer/Pauli-frame track; ``kind="compile"``
    runs the compile-and-map pipeline described by the ``compile`` field and
    reports mapping metrics.  All kinds share the sharding, seeding and
    merging contract.
    """

    name: str
    circuit: CircuitSpec | None = None
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    compiler: CompilerSpec = field(default_factory=CompilerSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    shots: int = 1024
    seed: int = 0
    sweep: dict[str, list] = field(default_factory=dict)
    #: Sharding knobs.  The shard layout depends only on these and on the
    #: effective shot count — never on the worker count — so merged results
    #: are bit-identical for any parallelism level (see docs/runtime.md).
    max_shard_shots: int = 4096
    min_shards: int = 8
    kind: str = "circuit"
    qec: QecSpec | None = None
    compile: CompileSpec | None = None

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.kind not in ("circuit", "qec", "compile"):
            raise ValueError(f"kind must be 'circuit', 'qec' or 'compile', got {self.kind!r}")
        if self.kind in ("circuit", "compile") and self.circuit is None:
            raise ValueError(f"{self.kind} experiments need circuit=")
        if self.kind == "qec" and self.qec is None:
            raise ValueError("qec experiments need qec=")
        if self.kind == "compile" and self.compile is None:
            self.compile = CompileSpec()
        for key in self.sweep:
            self._check_sweep_key(key)

    def _check_sweep_key(self, key: str) -> None:
        head, _, tail = key.partition(".")
        if self.kind == "qec":
            if key == "shots" or (head == "qec" and tail):
                return
            raise ValueError(
                f"invalid sweep key {key!r} for a qec experiment: expected "
                "'shots' or 'qec.<field>'"
            )
        if self.kind == "compile":
            if head in ("compile", "circuit") and tail:
                return
            raise ValueError(
                f"invalid sweep key {key!r} for a compile experiment: expected "
                "'compile.<field>' or 'circuit.<kwarg>'"
            )
        if key in ("shots", "backend"):
            return
        if head in ("circuit", "platform", "compiler", "simulation") and tail:
            return
        raise ValueError(
            f"invalid sweep key {key!r}: expected 'shots', 'backend', 'circuit.<kwarg>', "
            "'platform.<kwarg>', 'compiler.<field>' or 'simulation.<field>'"
        )

    # ------------------------------------------------------------------ #
    def points(self) -> list["SweepPoint"]:
        """Expand the sweep into resolved per-point specs.

        Points are ordered by the cartesian product of the sweep axes in
        declaration order, so point indices (and therefore shard seeds) are
        stable across runs of the same spec.
        """
        if not self.sweep:
            return [SweepPoint(index=0, params={}, spec=replace(self, sweep={}))]
        axes = list(self.sweep.items())
        points = []
        for index, values in enumerate(product(*(values for _, values in axes))):
            params = {key: value for (key, _), value in zip(axes, values, strict=True)}
            points.append(SweepPoint(index=index, params=params, spec=self._bind(params)))
        return points

    def _bind(self, params: dict) -> "ExperimentSpec":
        bound = replace(
            self,
            circuit=copy.deepcopy(self.circuit),
            platform=copy.deepcopy(self.platform),
            compiler=copy.deepcopy(self.compiler),
            simulation=copy.deepcopy(self.simulation),
            qec=copy.deepcopy(self.qec),
            compile=copy.deepcopy(self.compile),
            sweep={},
        )
        for key, value in params.items():
            head, _, tail = key.partition(".")
            if key == "shots":
                bound.shots = int(value)
            elif key == "backend":
                bound.simulation.backend = value
            elif head == "simulation":
                if not hasattr(bound.simulation, tail):
                    raise ValueError(f"unknown simulation field in sweep key {key!r}")
                setattr(bound.simulation, tail, value)
            elif head == "circuit":
                bound.circuit.kwargs[tail] = value
            elif head == "platform":
                bound.platform.kwargs[tail] = value
            elif head == "compiler":
                if not hasattr(bound.compiler, tail):
                    raise ValueError(f"unknown compiler field in sweep key {key!r}")
                setattr(bound.compiler, tail, value)
            elif head == "qec":
                if not hasattr(bound.qec, tail):
                    raise ValueError(f"unknown qec field in sweep key {key!r}")
                setattr(bound.qec, tail, value)
            elif head == "compile":
                if not hasattr(bound.compile, tail):
                    raise ValueError(f"unknown compile field in sweep key {key!r}")
                setattr(bound.compile, tail, value)
            else:  # pragma: no cover - rejected in __post_init__
                raise ValueError(f"invalid sweep key {key!r}")
        if bound.shots < 1:
            raise ValueError("swept shots must be >= 1")
        bound.simulation.__post_init__()  # re-validate swept simulation fields
        if bound.qec is not None:
            bound.qec.__post_init__()  # re-validate swept qec fields
        if bound.compile is not None:
            bound.compile.__post_init__()  # re-validate swept compile fields
        return bound

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        data = dict(data)
        if data.get("circuit") is not None:
            data["circuit"] = CircuitSpec(**data["circuit"])
        if "platform" in data:
            data["platform"] = PlatformSpec(**data["platform"])
        if "compiler" in data:
            data["compiler"] = CompilerSpec(**data["compiler"])
        if "simulation" in data:
            data["simulation"] = SimulationSpec(**data["simulation"])
        if data.get("qec") is not None:
            data["qec"] = QecSpec(**data["qec"])
        if data.get("compile") is not None:
            data["compile"] = CompileSpec(**data["compile"])
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class SweepPoint:
    """One resolved point of a sweep: its index, axis values and bound spec."""

    index: int
    params: dict
    spec: ExperimentSpec
