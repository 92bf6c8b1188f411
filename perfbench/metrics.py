"""End-to-end and per-layer metrics from request records and spans.

Per-layer times and counts are per request: totals over the traced run
divided by the requests it completed, so runs of different length compare.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span
from workloads import WORKERS, Request

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "first_point_p50_s": "s",
    "bulk.latency_p50_s": "s",
    "shots_per_s": "shots/s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
COUNTED_LAYERS = (
    "spec.build",
    "openql.compile",
    "cqasm.write",
    "cqasm.parse",
    "analysis.verify",
    "qx.lower",
    "worker.shard",
    "qx.evolve",
    "qx.run_program",
    "batch.chunk",
    "cache.get",
    "cache.put",
    "cache.size_scan",
    "service.journal.append",
)
#: Spans reported as ``<name>.self_s`` only.
SELF_ONLY = ("runner.plan", "qx.sample", "batch.plan", "aggregate.merge")

PER_LAYER_UNITS: dict[str, str] = {}
for _name in COUNTED_LAYERS:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
for _name in SELF_ONLY:
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update(
    {
        "qx.plan_cache.hit_ratio": "ratio",
        "runner.dispatch_wait_s": "s",
        "qx.evolve.per_point": "count",
        "batch.stack_build_s": "s",
        "batch.stacked_ratio": "ratio",
        "cache.hit_ratio": "ratio",
        "cache.entries_end": "count",
        "service.accept_s": "s",
        "service.plan_wait_s": "s",
        "service.queue_wait_s": "s",
        "service.units_per_point": "count",
        "service.pool_busy_ratio": "ratio",
        "service.dedup_ratio": "ratio",
        "service.points_executed": "count",
        "trace.overhead_ratio": "ratio",
    }
)


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with at
    least ten samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 21:
        return statistics.median(ordered), 50.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def latency_groups(workload: str, requests: list[Request]) -> dict[str, list[Request]]:
    """Which requests each latency metric reads.

    On ``service_mixed`` the latency metrics read the interactive jobs and
    ``bulk.latency_p50_s`` the bulk fleet jobs; on the single-client
    workloads every metric reads every request.
    """
    done = [request for request in requests if request.error is None]
    if workload != "service_mixed":
        return {"latency": done, "bulk": done}
    return {
        "latency": [request for request in done if request.client == "interactive"],
        "bulk": [request for request in done if request.client == "bulk"],
    }


def delivery_window(requests: list[Request], start: float) -> tuple[float, int, int]:
    """``(seconds, histograms, shots)`` delivered while every client was busy.

    The window closes when the first client finishes its last request, and
    histograms count at their own arrival, so a bulk job straddling the
    window's end counts the points it delivered inside it.
    """
    done = [request for request in requests if request.error is None]
    last: dict[str, float] = {}
    for request in done:
        last[request.client] = max(last.get(request.client, start), request.done)
    end = min(last.values())
    arrivals = [shots for request in done for time, shots in request.point_times if time <= end]
    return end - start, len(arrivals), sum(arrivals)


def end_to_end(
    workload: str,
    requests: list[Request],
    start: float,
    peak_rss_mb: float,
    setup_samples: list[float],
) -> tuple[dict[str, float], dict]:
    """End-to-end metric values plus notes (tail percentile, sample counts)."""
    groups = latency_groups(workload, requests)
    latencies = [request.latency for request in groups["latency"]]
    tail_value, percentile, samples = tail(latencies)
    window, points, shots = delivery_window(requests, start)
    values = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "first_point_p50_s": statistics.median(
            request.first_point - request.submitted for request in groups["latency"]
        ),
        "bulk.latency_p50_s": statistics.median(request.latency for request in groups["bulk"]),
        "shots_per_s": shots / window,
        "points_per_s": points / window,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "latency_tail_percentile": round(percentile, 1),
        "latency_samples": samples,
        "bulk_samples": len(groups["bulk"]),
        "setup_samples": [round(sample, 4) for sample in setup_samples],
        "window_s": round(window, 4),
    }
    return values, notes


# ---------------------------------------------------------------------- #
# Per-layer metrics from spans.
# ---------------------------------------------------------------------- #
def _self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda entry: entry.start):
            child_start, child_end = max(child.start, cursor), min(child.end, span.end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def _duration(span: Span) -> float:
    return span.end - span.start


def _attr_count(spans: list[Span], key: str, value=True) -> int:
    return sum(1 for span in spans if span.attrs and span.attrs.get(key) == value)


def per_layer(
    spans: list[Span],
    requests: list[Request],
    wall: float,
    service_stats: dict,
    entries_end: int,
    plan_cache_delta: dict,
    overhead_ratio: float,
) -> dict[str, float]:
    done = [request for request in requests if request.error is None]
    per_request = max(len(done), 1)
    points = sum(len(request.histograms) for request in done)
    names = {span.span_id: span.name for span in spans}
    self_time = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        self_total[span.name] += self_time[span.span_id]
        # A call nested in a span of the same layer is part of that call.
        if names.get(span.parent_id) != span.name:
            calls[span.name] += 1

    values: dict[str, float] = {}
    for name in COUNTED_LAYERS:
        values[f"{name}.calls"] = calls[name] / per_request
        values[f"{name}.self_s"] = self_total[name] / per_request
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = self_total[name] / per_request

    hits = plan_cache_delta.get("hits", 0)
    lookups = hits + plan_cache_delta.get("misses", 0)
    values["qx.plan_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    values["qx.evolve.per_point"] = calls["qx.evolve"] / points if points else 0.0

    # Driver wall not covered by planning or by the shards/chunks it ran:
    # pool start-up, task dispatch, result transfer and merging.
    values["runner.dispatch_wait_s"] = _mean(
        _unaccounted(run, by_name["runner.plan"], by_name["worker.shard"])
        for run in by_name["runner.run"]
    )
    values["batch.stack_build_s"] = _mean(
        _unaccounted(run, by_name["batch.plan"], by_name["batch.chunk"])
        for run in by_name["batch.run"]
    )
    batch_runs = [span.attrs for span in by_name["batch.run"]]
    circuits = sum(attrs.get("circuits", 0) for attrs in batch_runs)
    stacked = sum(attrs.get("stacked", 0) for attrs in batch_runs)
    values["batch.stacked_ratio"] = stacked / circuits if circuits else 0.0

    gets = by_name["cache.get"]
    values["cache.hit_ratio"] = _attr_count(gets, "hit") / len(gets) if gets else 0.0
    values["cache.entries_end"] = float(entries_end)

    service = [request for request in done if request.accepted is not None]
    values["service.accept_s"] = _mean(r.accepted - r.submitted for r in service)
    values["service.plan_wait_s"] = _mean(r.planned - r.accepted for r in service if r.planned)
    queue = by_name["service.queue"]
    values["service.queue_wait_s"] = _mean(map(_duration, queue))
    bulk_points = sum(len(r.histograms) for r in service if r.client == "bulk")
    bulk_units = _attr_count(queue, "client", "bulk")
    values["service.units_per_point"] = bulk_units / bulk_points if bulk_points else 0.0
    shard_busy = sum(map(_duration, by_name["worker.shard"]))
    values["service.pool_busy_ratio"] = shard_busy / (WORKERS * wall) if service else 0.0
    counters = service_stats.get("counters", {})
    executed = counters.get("points_executed", 0)
    reused = counters.get("points_from_cache", 0) + counters.get("points_deduped_inflight", 0)
    values["service.dedup_ratio"] = reused / (executed + reused) if executed + reused else 0.0
    values["service.points_executed"] = executed / per_request if service else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def _unaccounted(run: Span, plans: list[Span], units: list[Span]) -> float:
    """``run`` duration minus its planning spans minus the wall of its units.

    Units ran either in this process under ``run`` or, as root spans, in
    pool workers forked while ``run``'s request was open.
    """
    planned = sum(_duration(span) for span in plans if span.parent_id == run.span_id)
    mine = [
        span
        for span in units
        if span.parent_id == run.span_id
        or (span.parent_id is None and span.request_id == run.request_id)
    ]
    unit_wall = max(s.end for s in mine) - min(s.start for s in mine) if mine else 0.0
    return _duration(run) - planned - unit_wall
