"""Merging shard histograms into per-point and per-experiment results."""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


def merge_counts(histograms) -> dict[str, int]:
    """Sum measurement histograms; keys are sorted so merges are canonical.

    Keys are interned: every merged histogram shares one string per
    outcome, so a caller that keeps many results holds each bitstring once.
    """
    merged: Counter[str] = Counter()
    for histogram in histograms:
        merged.update(histogram)
    return {sys.intern(key): int(merged[key]) for key in sorted(merged)}


def merge_metrics(metric_dicts) -> dict:
    """Merge per-shard metric dicts into one per-point dict.

    Cache counters (``program_cache_*``, ``plan_cache_*``) are additive
    across shards; accuracy metrics (``truncation_error``) aggregate
    pessimistically (the worst shard bounds the point); everything else is
    a per-point constant where last-write-wins.
    """
    metrics: dict = {}
    for shard_metrics in metric_dicts:
        for key, value in shard_metrics.items():
            if key.startswith(("program_cache_", "plan_cache_")):
                metrics[key] = metrics.get(key, 0) + value
            elif key == "truncation_error" and key in metrics:
                metrics[key] = max(metrics[key], value)
            else:
                metrics[key] = value
    return metrics


@dataclass
class PointResult:
    """Merged outcome of one sweep point."""

    index: int
    params: dict
    shots: int
    num_qubits: int
    counts: dict[str, int] = field(default_factory=dict)
    errors_injected: int = 0
    gate_count: int = 0
    compile_cached: bool = False
    compile_time_s: float = 0.0
    wall_time_s: float = 0.0
    #: Mapping metrics of a ``kind="compile"`` point (swaps, overhead,
    #: makespan, locality); empty for circuit/qec points.
    metrics: dict = field(default_factory=dict)

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / max(self.shots, 1)

    def success_probability(self, *bitstrings: str) -> float:
        """Total probability mass on the given outcomes."""
        return sum(self.probability(bitstring) for bitstring in bitstrings)

    def most_frequent(self) -> str:
        if not self.counts:
            raise ValueError("no measurement results recorded")
        return max(self.counts.items(), key=lambda item: item[1])[0]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "params": dict(self.params),
            "shots": self.shots,
            "num_qubits": self.num_qubits,
            "counts": dict(self.counts),
            "errors_injected": self.errors_injected,
            "gate_count": self.gate_count,
            "compile_cached": self.compile_cached,
            "compile_time_s": round(self.compile_time_s, 6),
            "wall_time_s": round(self.wall_time_s, 6),
            "metrics": dict(self.metrics),
        }


@dataclass
class ExperimentResult:
    """Everything one :class:`~repro.runtime.runner.ExperimentRunner` run produced."""

    name: str
    workers: int
    points: list[PointResult] = field(default_factory=list)
    total_time_s: float = 0.0
    cache_stats: dict = field(default_factory=dict)

    def point(self, **params) -> PointResult:
        """Look up the point whose sweep params contain the given values."""
        for candidate in self.points:
            if all(candidate.params.get(key) == value for key, value in params.items()):
                return candidate
        raise KeyError(f"no sweep point matching {params!r}")

    @property
    def total_shots(self) -> int:
        return sum(point.shots for point in self.points)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workers": self.workers,
            "total_time_s": round(self.total_time_s, 6),
            "total_shots": self.total_shots,
            "cache_stats": dict(self.cache_stats),
            "points": [point.to_dict() for point in self.points],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> None:
        """Write the result JSON atomically (tmp + rename, never torn)."""
        from repro.runtime.cache import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")
