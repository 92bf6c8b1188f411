#!/usr/bin/env python
"""Run a declarative full-stack experiment from the command line.

Experiments can come from a JSON spec file (``--spec``) or be assembled
from flags: a circuit builder from the registry, a platform factory, a shot
budget and any number of ``--sweep key=v1,v2,...`` axes.  The runner shards
shot batches across a process pool with deterministic per-shard seeding, so
the merged histograms are bit-identical for any ``--workers`` value.

Examples::

    python scripts/run_experiment.py --circuit ghz --qubits 16 --shots 10000
    python scripts/run_experiment.py --circuit ghz --qubits 16 --platform realistic \
        --sweep platform.error_rate=1e-4,1e-3,1e-2 --shots 200 --workers 4
    python scripts/run_experiment.py --spec experiment.json --output results.json

The simulation engine (statevector / stabilizer / density / mps) is chosen
per circuit by the dispatch cost model; ``--backend`` pins it explicitly
and ``--max-bond`` caps the MPS bond dimension.  The backend is also a
sweep axis, so engines can be compared point-for-point::

    python scripts/run_experiment.py --circuit ghz --qubits 64 --backend mps \
        --shots 5000 --workers 4
    python scripts/run_experiment.py --circuit ghz --qubits 20 \
        --sweep backend=statevector,mps --shots 2000

Surface-code memory experiments run on the stabilizer/QEC track with
``--kind qec``; ``--shots`` is the trial budget and the histogram key "1"
counts logical failures::

    python scripts/run_experiment.py --kind qec --distance 5 --error-rate 0.01 \
        --sweep qec.distance=3,5,7 --shots 2000 --workers 4

Circuit-level noise (Pauli-frame sampling of the real syndrome-extraction
circuit, union-find decoding) is selected with ``--noise-model circuit``;
sweeping the physical error rate produces the threshold curve::

    python scripts/run_experiment.py --kind qec --noise-model circuit \
        --sweep qec.distance=3,5,7 --sweep qec.physical_error_rate=0.002,0.006,0.012 \
        --shots 4000 --workers 4

Compile-and-map sweeps run the full pass pipeline (placement, hybrid-aware
routing, scheduling) against a constrained topology and report mapping
metrics (SWAPs, overhead, makespan, locality) per point with ``--kind
compile``::

    python scripts/run_experiment.py --kind compile --circuit random --qubits 16 \
        --circuit-arg depth=20 --circuit-arg seed=7 --topology grid \
        --sweep compile.placement=trivial,greedy --sweep compile.router=path,sabre

Fleets of small circuits run through the batched execution path with
``--kind batch``: either a JSON :class:`BatchSpec` file, or one circuit per
combination of ``--batch-param`` axes (the cartesian product), sharing
shots/seed/platform defaults::

    python scripts/run_experiment.py --kind batch --circuit rotations --qubits 12 \
        --batch-param seed=0,1,2,3 --shots 2048
    python scripts/run_experiment.py --kind batch --batch-spec fleet.json --workers 4

Exits 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _bootstrap import ensure_importable  # noqa: E402


def _parse_value(text: str):
    """Best-effort literal: int, float, bool, null, else the raw string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _parse_sweep(entries: list[str]) -> dict[str, list]:
    sweep: dict[str, list] = {}
    for entry in entries:
        key, separator, values = entry.partition("=")
        if not separator or not values:
            raise SystemExit(f"error: bad --sweep entry {entry!r}, expected key=v1,v2,...")
        sweep[key] = [_parse_value(value) for value in values.split(",")]
    return sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Execute a full-stack experiment sweep on the parallel runtime."
    )
    parser.add_argument("--spec", help="JSON spec file (overrides the circuit/platform flags)")
    parser.add_argument("--name", default="cli", help="experiment name")
    parser.add_argument(
        "--kind",
        default="circuit",
        choices=("circuit", "qec", "compile", "batch"),
        help=(
            "experiment kind: compiled circuit, surface-code memory experiment, "
            "compile-and-map pipeline sweep, or many-circuit batched execution"
        ),
    )
    parser.add_argument(
        "--batch-spec",
        default=None,
        help="JSON BatchSpec file (--kind batch; overrides the builder flags)",
    )
    parser.add_argument(
        "--batch-param",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help=(
            "builder-parameter axis for --kind batch (repeatable); the batch runs "
            "one circuit per combination in the axes' cartesian product, e.g. "
            "--batch-param seed=0,1,2"
        ),
    )
    parser.add_argument(
        "--distance", type=int, default=3, help="surface-code distance (--kind qec)"
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="syndrome rounds per trial (--kind qec)"
    )
    parser.add_argument(
        "--measurement-error-rate",
        type=float,
        default=None,
        help="ancilla read-out error rate (--kind qec; defaults to the physical rate)",
    )
    parser.add_argument(
        "--noise-model",
        default=None,
        choices=("phenomenological", "circuit"),
        help=(
            "qec noise model: i.i.d. per-round flips, or circuit-level Pauli-frame "
            "sampling of the real extraction circuit (--kind qec)"
        ),
    )
    parser.add_argument(
        "--decoder",
        default=None,
        choices=("matching", "union_find"),
        help=(
            "syndrome decoder (--kind qec); defaults to matching for "
            "phenomenological noise and union_find for circuit-level noise"
        ),
    )
    parser.add_argument(
        "--placement",
        default=None,
        choices=("greedy", "trivial"),
        help="initial placement strategy (--kind compile)",
    )
    parser.add_argument(
        "--router",
        default=None,
        choices=("sabre", "path"),
        help="SWAP-selection mode (--kind compile)",
    )
    parser.add_argument(
        "--topology",
        default=None,
        help="target topology short name, e.g. grid, linear, heavy_hex (--kind compile)",
    )
    parser.add_argument(
        "--rows", type=int, default=None, help="grid topology rows (--kind compile)"
    )
    parser.add_argument(
        "--cols",
        type=int,
        default=None,
        help="grid columns, or site count for sized non-grid topologies (--kind compile)",
    )
    parser.add_argument(
        "--schedule-policy",
        default=None,
        choices=("asap", "alap"),
        help="list-scheduling policy (--kind compile)",
    )
    parser.add_argument(
        "--circuit", default="ghz", help="circuit builder (registry name or module:function)"
    )
    parser.add_argument("--qubits", type=int, default=4, help="circuit size (builder num_qubits)")
    parser.add_argument(
        "--circuit-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra circuit-builder kwarg (repeatable), e.g. --circuit-arg depth=8",
    )
    parser.add_argument(
        "--platform", default="perfect", help="platform factory (registry name or module:function)"
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("statevector", "stabilizer", "density", "mps"),
        help="pin the simulation engine (default: cost-model auto-dispatch)",
    )
    parser.add_argument(
        "--max-bond",
        type=int,
        default=None,
        help="MPS bond-dimension cap (default: unbounded, i.e. exact)",
    )
    parser.add_argument(
        "--truncation-threshold",
        type=float,
        default=None,
        help="MPS relative Schmidt-coefficient cutoff (default: 1e-12)",
    )
    parser.add_argument("--error-rate", type=float, help="error rate for the realistic platform")
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="sweep axis (repeatable)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool size (default: all cores)"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="artifact cache directory (a batch plans without it)"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk artifact cache (a batch never uses it)",
    )
    parser.add_argument("--no-compile", action="store_true", help="skip the OpenQL pass pipeline")
    parser.add_argument("--output", help="write the merged results as JSON to this path")
    parser.add_argument("--quiet", action="store_true", help="suppress the per-point table")
    return parser


def _circuit_kwargs(args: argparse.Namespace) -> dict:
    """Builder kwargs: ``num_qubits`` where accepted, plus --circuit-arg pairs."""
    from repro.runtime.spec import BUILDERS, resolve_reference

    kwargs: dict = {}
    builder = resolve_reference(args.circuit, BUILDERS)
    parameters = inspect.signature(builder).parameters
    takes_kwargs = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters.values()
    )
    if takes_kwargs or "num_qubits" in parameters:
        kwargs["num_qubits"] = args.qubits
    for entry in args.circuit_arg:
        key, separator, value = entry.partition("=")
        if not separator:
            raise SystemExit(f"error: bad --circuit-arg entry {entry!r}, expected key=value")
        kwargs[key] = _parse_value(value)
    return kwargs


_COMPILE_FLAGS = ("placement", "router", "topology", "rows", "cols", "schedule_policy")


def _reject_compile_flags(args: argparse.Namespace) -> None:
    conflicting = [
        f"--{name.replace('_', '-')}" for name in _COMPILE_FLAGS if getattr(args, name) is not None
    ]
    if conflicting:
        raise SystemExit(f"error: {', '.join(conflicting)} only apply to --kind compile")


def spec_from_args(args: argparse.Namespace):
    from repro.runtime import (
        CircuitSpec,
        CompilerSpec,
        CompileSpec,
        ExperimentSpec,
        PlatformSpec,
        QecSpec,
        SimulationSpec,
    )

    if args.spec:
        with open(args.spec) as handle:
            return ExperimentSpec.from_dict(json.load(handle))
    if args.kind != "batch":
        conflicting = []
        if args.batch_spec is not None:
            conflicting.append("--batch-spec")
        if args.batch_param:
            conflicting.append("--batch-param")
        if conflicting:
            raise SystemExit(f"error: {', '.join(conflicting)} only apply to --kind batch")
    if args.kind != "circuit":
        conflicting = [
            flag
            for flag, value in (
                ("--backend", args.backend),
                ("--max-bond", args.max_bond),
                ("--truncation-threshold", args.truncation_threshold),
            )
            if value is not None
        ]
        if conflicting:
            raise SystemExit(f"error: {', '.join(conflicting)} only apply to --kind circuit")
    if args.kind != "qec":
        conflicting = [
            flag
            for flag, value in (
                ("--noise-model", args.noise_model),
                ("--decoder", args.decoder),
            )
            if value is not None
        ]
        if conflicting:
            raise SystemExit(f"error: {', '.join(conflicting)} only apply to --kind qec")
    if args.kind == "batch":
        return _batch_spec_from_args(args)
    if args.kind == "compile":
        conflicting = []
        if args.platform != "perfect":
            conflicting.append("--platform")
        if args.error_rate is not None:
            conflicting.append("--error-rate")
        if args.no_compile:
            conflicting.append("--no-compile")
        if conflicting:
            raise SystemExit(f"error: {', '.join(conflicting)} do not apply to --kind compile")
        defaults = CompileSpec()
        return ExperimentSpec(
            name=args.name,
            kind="compile",
            circuit=CircuitSpec(builder=args.circuit, kwargs=_circuit_kwargs(args)),
            compile=CompileSpec(
                placement=args.placement or defaults.placement,
                router=args.router or defaults.router,
                topology=args.topology or defaults.topology,
                rows=args.rows,
                cols=args.cols,
                schedule_policy=args.schedule_policy or defaults.schedule_policy,
            ),
            shots=args.shots,
            seed=args.seed,
            sweep=_parse_sweep(args.sweep),
        )
    _reject_compile_flags(args)
    if args.kind == "qec":
        conflicting = []
        if args.circuit != "ghz":
            conflicting.append("--circuit")
        if args.circuit_arg:
            conflicting.append("--circuit-arg")
        if args.qubits != 4:
            conflicting.append("--qubits")
        if args.platform != "perfect":
            conflicting.append("--platform")
        if args.no_compile:
            conflicting.append("--no-compile")
        if conflicting:
            raise SystemExit(f"error: {', '.join(conflicting)} only apply to --kind circuit")
        return ExperimentSpec(
            name=args.name,
            kind="qec",
            qec=QecSpec(
                distance=args.distance,
                rounds=args.rounds,
                physical_error_rate=args.error_rate if args.error_rate is not None else 1e-3,
                measurement_error_rate=args.measurement_error_rate,
                noise_model=args.noise_model or "phenomenological",
                decoder=args.decoder,
            ),
            shots=args.shots,
            seed=args.seed,
            sweep=_parse_sweep(args.sweep),
        )
    platform_kwargs: dict = {}
    if args.error_rate is not None:
        platform_kwargs["error_rate"] = args.error_rate
    return ExperimentSpec(
        name=args.name,
        circuit=CircuitSpec(builder=args.circuit, kwargs=_circuit_kwargs(args)),
        platform=PlatformSpec(factory=args.platform, kwargs=platform_kwargs),
        compiler=CompilerSpec(enabled=not args.no_compile),
        simulation=SimulationSpec(
            backend=args.backend,
            max_bond=args.max_bond,
            truncation_threshold=args.truncation_threshold,
        ),
        shots=args.shots,
        seed=args.seed,
        sweep=_parse_sweep(args.sweep),
    )


def _batch_spec_from_args(args: argparse.Namespace):
    from repro.runtime import BatchSpec
    from repro.runtime.spec import CompilerSpec, PlatformSpec, SimulationSpec

    _reject_compile_flags(args)
    if args.sweep:
        raise SystemExit("error: --sweep does not apply to --kind batch; use --batch-param axes")
    if args.batch_spec:
        with open(args.batch_spec) as handle:
            return BatchSpec.from_dict(json.load(handle))
    axes = _parse_sweep(args.batch_param)
    if not axes:
        raise SystemExit(
            "error: --kind batch needs --batch-spec FILE or at least one "
            "--batch-param key=v1,v2,..."
        )
    platform_kwargs: dict = {}
    if args.error_rate is not None:
        platform_kwargs["error_rate"] = args.error_rate
    return BatchSpec.from_product(
        args.name,
        args.circuit,
        axes,
        base_kwargs=_circuit_kwargs(args),
        shots=args.shots,
        seed=args.seed,
        platform=PlatformSpec(factory=args.platform, kwargs=platform_kwargs),
        compiler=CompilerSpec(enabled=not args.no_compile),
        simulation=SimulationSpec(
            backend=args.backend,
            max_bond=args.max_bond,
            truncation_threshold=args.truncation_threshold,
        ),
    )


def print_report(result) -> None:
    print(
        f"experiment {result.name!r}: {len(result.points)} point(s), "
        f"{result.total_shots} shots, {result.workers} worker(s), "
        f"{result.total_time_s:.3f}s total"
    )
    if result.cache_stats:
        print(f"artifact cache: {result.cache_stats}")
    for point in result.points:
        label = ", ".join(f"{key}={value}" for key, value in point.params.items()) or "-"
        parts = []
        if point.counts:
            top = sorted(point.counts.items(), key=lambda item: -item[1])[:4]
            parts.append("  ".join(f"{bits}:{count}" for bits, count in top))
        if point.metrics:
            shown = (
                "backend",
                "truncation_error",
                "swaps",
                "routing_overhead",
                "makespan_ns",
                "locality",
            )
            parts.append(
                "  ".join(f"{key}={point.metrics[key]}" for key in shown if key in point.metrics)
            )
        tail = "  ".join(parts)
        print(
            f"  [{point.index}] {label:40s} shots={point.shots:<6d} "
            f"gates={point.gate_count:<4d} cached={str(point.compile_cached):5s} {tail}"
        )


def print_batch_report(result) -> None:
    plan = result.plan
    print(
        f"batch {result.name!r}: {plan.get('circuits', len(result.circuits))} circuit(s), "
        f"{result.workers} worker(s), {result.total_time_s:.3f}s total"
    )
    print(
        f"plan: {plan.get('stacked_circuits', 0)} stacked / "
        f"{plan.get('fallback_circuits', 0)} fallback circuit(s) in "
        f"{plan.get('stack_groups', 0)} group(s), {plan.get('chunks', 0)} chunk(s)"
    )
    for point in result.circuits:
        label = point.params.get("label") or "-"
        top = sorted(point.counts.items(), key=lambda item: -item[1])[:4]
        tail = "  ".join(f"{bits}:{count}" for bits, count in top)
        print(
            f"  [{point.index}] {label:40s} shots={point.shots:<6d} "
            f"gates={point.gate_count:<4d} {tail}"
        )


def main(argv: list[str] | None = None) -> int:
    ensure_importable()
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        from repro.runtime import BatchRunner, BatchSpec, ExperimentRunner

        runner_type = BatchRunner if isinstance(spec, BatchSpec) else ExperimentRunner
        runner = runner_type(
            spec,
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
        result = runner.run()
    except Exception as error:  # surface a clean failure, exit non-zero
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not args.quiet:
        if isinstance(spec, BatchSpec):
            print_batch_report(result)
        else:
            print_report(result)
    if args.output:
        result.save(args.output)
        print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
