"""Tests for the experiment service layer.

Three levels:

* unit — the weighted-fair scheduler's stride math, the journal's
  torn-line tolerance, and the content-addressed point key;
* engine — an in-process :class:`~repro.service.engine.JobService`
  (thread pool, ``asyncio.run``): streaming order, bit-identity against
  the serial runner, cross-tenant dedup (exactly one execution, every
  subscriber gets the full stream), weighted fairness end-to-end, and
  failure events;
* daemon — a real ``scripts/serve.py`` subprocess over a unix socket:
  the SIGKILL/resume contract (a killed daemon restarted on the same
  data/cache directories re-executes only uncached points and still
  produces histograms bit-identical to an uninterrupted serial run).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import (
    ArtifactCache,
    BatchSpec,
    CircuitSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    run_batch,
)
from repro.service import FairScheduler, JobJournal, JobService, ServiceClient, point_key

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ghz_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="svc-test",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 3}),
        shots=64,
        seed=9,
        sweep={"shots": [32, 64]},
        max_shard_shots=16,
        min_shards=2,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def _service(tmp_path, **overrides) -> JobService:
    settings = dict(
        cache_dir=tmp_path / "cache",
        data_dir=tmp_path / "data",
        workers=2,
        use_processes=False,
    )
    settings.update(overrides)
    return JobService(**settings)


async def _run_job(service: JobService, spec, kind="experiment", client="alice", priority=1):
    accepted = await service.submit(client=client, kind=kind, payload=spec.to_dict(), priority=priority)
    events = []
    async for event in service.stream(accepted["job_id"]):
        events.append(event)
    return accepted, events


def _fleet_spec(circuits: int = 32) -> BatchSpec:
    """A batch of distinct small GHZ circuits, one sweep point each."""
    return BatchSpec.from_dict(
        {
            "name": "fleet",
            "shots": 32,
            "seed": 5,
            "circuits": [
                {
                    "circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2 + index % 4}},
                    "shots": 32 + index,
                }
                for index in range(circuits)
            ],
        }
    )


def _terminal(events):
    return events[-1]


def _point_events(events):
    return [event for event in events if event["event"] == "point"]


# ---------------------------------------------------------------------- #
# Unit: weighted-fair scheduler
# ---------------------------------------------------------------------- #
class TestFairScheduler:
    def test_weighted_interleaving_is_proportional(self):
        scheduler = FairScheduler()
        for index in range(8):
            scheduler.push("a", weight=1, item=("a", index), cost=10)
            scheduler.push("b", weight=2, item=("b", index), cost=10)
        order = [scheduler.pop().client for _ in range(6)]
        # Stride scheduling: over any window, b receives twice a's service.
        assert order.count("b") == 4
        assert order.count("a") == 2

    def test_tie_break_is_deterministic_by_name(self):
        first = FairScheduler()
        second = FairScheduler()
        for scheduler in (first, second):
            scheduler.push("zeta", weight=1, item="z")
            scheduler.push("alpha", weight=1, item="a")
        assert first.pop().client == "alpha"
        assert second.pop().client == "alpha"

    def test_idle_client_rejoins_at_virtual_clock(self):
        scheduler = FairScheduler()
        for index in range(4):
            scheduler.push("busy", weight=1, item=index, cost=1)
        while len(scheduler):
            scheduler.pop()
        # A newcomer (or a client returning from idle) must not spend its
        # banked idle time as a starvation burst.
        scheduler.push("late", weight=1, item="x", cost=1)
        scheduler.push("busy", weight=1, item="y", cost=1)
        assert scheduler._clients["late"].vtime == scheduler._clients["busy"].vtime

    def test_rejects_non_positive_weight(self):
        scheduler = FairScheduler()
        with pytest.raises(ValueError):
            scheduler.push("a", weight=0, item="x")

    def test_backlog_reports_pending_units(self):
        scheduler = FairScheduler()
        scheduler.push("a", weight=1, item=1)
        scheduler.push("a", weight=1, item=2)
        scheduler.push("b", weight=1, item=3)
        assert scheduler.backlog() == {"a": 2, "b": 1}
        assert len(scheduler) == 3

    def test_one_unit_point_charges_what_its_shards_did(self, tmp_path):
        """A noise-free point is one unit now; it must cost its tenant the
        same virtual time its eight shard units did."""
        spec = _ghz_spec(shots=64, sweep={}, max_shard_shots=4096, min_shards=8)
        (planned,) = ExperimentRunner(spec, workers=1, cache_dir=tmp_path).plan()
        (unit,) = planned.tasks
        assert len(unit.shards) == 8
        as_unit, as_shards = FairScheduler(), FairScheduler()
        as_unit.push("a", weight=2, item=unit, cost=unit.cost)
        for shard in unit.shards:
            as_shards.push("a", weight=2, item=shard, cost=shard[1])
        for scheduler in (as_unit, as_shards):
            while len(scheduler):
                scheduler.pop()
        assert as_unit._clients["a"].vtime == as_shards._clients["a"].vtime == 64 / 2

    def test_every_task_type_declares_its_cost(self):
        from repro.core.circuit import Circuit
        from repro.runtime import CompileSpec, QecSpec
        from repro.runtime.worker import CompileShardTask, QecShardTask

        qec = QecShardTask(qec=QecSpec(), trials=40, root_seed=0, point_index=0, shard_index=0)
        compile_task = CompileShardTask(circuit=Circuit(1), config=CompileSpec(), point_index=0)
        assert qec.cost == 40
        assert compile_task.cost == 1


# ---------------------------------------------------------------------- #
# Unit: journal durability
# ---------------------------------------------------------------------- #
class TestJobJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        records = [{"type": "job", "job_id": "job-000000"}, {"type": "point", "key": "k1"}]
        for record in records:
            journal.append(record)
        journal.close()
        assert JobJournal(tmp_path / "journal.ndjson").replay() == records

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = JobJournal(path)
        journal.append({"type": "job", "job_id": "job-000000"})
        journal.append({"type": "point", "key": "k1"})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "point", "key": "k2"')  # SIGKILL mid-append
        records = JobJournal(path).replay()
        assert [record["type"] for record in records] == ["job", "point"]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert JobJournal(tmp_path / "absent.ndjson").replay() == []


# ---------------------------------------------------------------------- #
# Unit: content-addressed point identity
# ---------------------------------------------------------------------- #
class TestPointKey:
    def test_name_does_not_affect_identity(self):
        left = _ghz_spec(name="alice-run").points()
        right = _ghz_spec(name="bob-run").points()
        assert [point_key(p) for p in left] == [point_key(p) for p in right]

    def test_seed_and_shard_layout_affect_identity(self):
        base = _ghz_spec().points()[0]
        reseeded = _ghz_spec(seed=10).points()[0]
        resharded = _ghz_spec(min_shards=4).points()[0]
        assert point_key(base) != point_key(reseeded)
        assert point_key(base) != point_key(resharded)

    def test_points_of_one_sweep_are_distinct(self):
        keys = [point_key(point) for point in _ghz_spec().points()]
        assert len(set(keys)) == len(keys)

    def test_batch_points_follow_batch_seeding_contract(self):
        spec = BatchSpec.from_dict(
            {
                "name": "fleet",
                "shots": 32,
                "seed": 5,
                "circuits": [
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2}}},
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 3}}, "seed": 11},
                ],
            }
        )
        points = spec.points()
        assert [point.index for point in points] == [0, 1]
        assert points[0].spec.seed == 5
        assert points[1].spec.seed == 11
        assert points[1].params["label"] == "circuit[1]"


# ---------------------------------------------------------------------- #
# Engine: streaming, bit-identity, dedup, fairness, failure
# ---------------------------------------------------------------------- #
class TestJobServiceEngine:
    def test_stream_order_and_bit_identity_vs_serial_runner(self, tmp_path):
        spec = _ghz_spec(
            platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 3}),
            sweep={"platform.error_rate": [1e-3, 2e-2]},
        )
        serial = ExperimentRunner(spec, workers=1, use_cache=False).run()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                return await _run_job(service, spec)
            finally:
                await service.close()

        _, events = asyncio.run(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert "planned" in kinds
        assert kinds[-1] == "done"
        points = _point_events(events)
        assert len(points) == 2
        done = _terminal(events)["result"]
        assert [p["index"] for p in done["points"]] == [0, 1]
        for serial_point, svc_point in zip(serial.points, done["points"]):
            assert svc_point["counts"] == serial_point.counts
            assert svc_point["shots"] == serial_point.shots
        # Satellite: artifact-cache counters ride along in point metrics.
        metrics = done["points"][0]["metrics"]
        for key in (
            "artifact_cache_hits",
            "artifact_cache_misses",
            "artifact_cache_writes",
            "artifact_cache_evictions",
            "artifact_cache_size_bytes",
        ):
            assert key in metrics

    def test_batch_job_matches_batch_runner(self, tmp_path):
        toffoli = "version 1.0\nqubits 3\nh q[0]\nh q[1]\ntoffoli q[0], q[1], q[2]\n"
        spec = BatchSpec.from_dict(
            {
                "name": "fleet",
                "shots": 48,
                "seed": 3,
                "circuits": [
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2}}},
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 3}}, "shots": 96},
                    # Deterministic, but the stacked pass cannot take them.
                    {"circuit": {"cqasm": toffoli}, "shots": 1024},
                    {
                        "circuit": {"builder": "ghz", "kwargs": {"num_qubits": 4}},
                        "shots": 1024,
                        "backend": "mps",
                    },
                ],
            }
        )
        reference = run_batch(spec, workers=1, use_cache=False)
        planned = ExperimentRunner(spec, workers=1, use_cache=False).plan()
        assert [len(point.tasks) for point in planned[2:]] == [1, 1]

        async def scenario(workers):
            service = _service(tmp_path / f"workers-{workers}", workers=workers)
            await service.start()
            try:
                return await _run_job(service, spec, kind="batch")
            finally:
                await service.close()

        for workers in (1, 3):
            _, events = asyncio.run(scenario(workers))
            done = _terminal(events)
            assert done["event"] == "done"
            svc_points = done["result"]["points"]
            assert len(svc_points) == len(reference.circuits)
            for reference_point, svc_point in zip(reference.circuits, svc_points):
                assert svc_point["counts"] == reference_point.counts

    def test_identical_submissions_execute_once_with_two_subscribers(self, tmp_path):
        spec = _ghz_spec(sweep={}, shots=20_000, max_shard_shots=4096, min_shards=8)

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            try:
                first, second = await asyncio.gather(
                    _run_job(service, spec, client="alice"),
                    _run_job(service, spec, client="bob"),
                )
                return first, second, service.stats()
            finally:
                await service.close()

        (_, alice_events), (_, bob_events), stats = asyncio.run(scenario())
        assert _terminal(alice_events)["event"] == "done"
        assert _terminal(bob_events)["event"] == "done"
        alice_points = _point_events(alice_events)
        bob_points = _point_events(bob_events)
        assert len(alice_points) == len(bob_points) == 1
        assert alice_points[0]["result"]["counts"] == bob_points[0]["result"]["counts"]
        counters = stats["counters"]
        # The acceptance criterion: one execution, both streams served.
        assert counters["points_executed"] == 1
        assert counters["points_from_cache"] + counters["points_deduped_inflight"] == 1

    def test_completed_points_serve_from_cache(self, tmp_path):
        spec = _ghz_spec()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                _, first = await _run_job(service, spec, client="alice")
                _, second = await _run_job(service, spec, client="bob")
                return first, second, service.stats()
            finally:
                await service.close()

        first, second, stats = asyncio.run(scenario())
        assert [e["source"] for e in _point_events(first)] == ["executed", "executed"]
        assert [e["source"] for e in _point_events(second)] == ["cache", "cache"]
        for left, right in zip(_point_events(first), _point_events(second)):
            assert left["result"]["counts"] == right["result"]["counts"]
        assert stats["counters"]["points_from_cache"] == 2

    def test_late_subscriber_replays_full_stream(self, tmp_path):
        spec = _ghz_spec()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted, live = await _run_job(service, spec)
                replayed = []
                async for event in service.stream(accepted["job_id"]):
                    replayed.append(event)
                return live, replayed
            finally:
                await service.close()

        live, replayed = asyncio.run(scenario())
        assert replayed == live

    def test_weighted_fairness_end_to_end(self, tmp_path):
        """With one slot, a priority-2 tenant finishes ahead of a priority-1
        tenant that submitted first and has the same amount of work.

        A noise-free point is one unit however many shards it has, so each
        job is a 16-point sweep: 16 queued units apiece."""
        heavy = _ghz_spec(seed=1, shots=16, sweep={"shots": [16] * 16})
        light = _ghz_spec(seed=2, shots=16, sweep={"shots": [16] * 16})

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            finish_order = []

            async def run(label, spec, priority):
                _, events = await _run_job(service, spec, client=label, priority=priority)
                assert _terminal(events)["event"] == "done"
                finish_order.append(label)

            try:
                first = asyncio.ensure_future(run("first-low", heavy, 1))
                await asyncio.sleep(0)  # let the low-priority job submit first
                second = asyncio.ensure_future(run("second-high", light, 2))
                await asyncio.gather(first, second)
                return finish_order
            finally:
                await service.close()

        assert asyncio.run(scenario())[0] == "second-high"

    def test_process_pool_is_started_before_any_job(self, tmp_path):
        """start() forks every pool worker up front, so no worker is forked
        later while the planning thread runs."""

        async def scenario():
            service = _service(tmp_path, workers=2, use_processes=True)
            await service.start()
            try:
                live = [process.is_alive() for process in service._pool._processes.values()]
                _, events = await _run_job(service, _ghz_spec())
                return live, events
            finally:
                await service.close()

        live, events = asyncio.run(scenario())
        assert live == [True, True]
        assert _terminal(events)["event"] == "done"

    def test_cache_directory_is_scanned_at_most_once(self, tmp_path, monkeypatch):
        """Delivery reads the cache's running byte total: a 32-point batch
        job scans the store once, when start() seeds the total."""
        scans = []
        original = ArtifactCache._entries

        def counting(cache):
            scans.append(1)
            return original(cache)

        monkeypatch.setattr(ArtifactCache, "_entries", counting)

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                _, events = await _run_job(service, _fleet_spec(), kind="batch")
                return events, service.stats()
            finally:
                await service.close()

        events, stats = asyncio.run(scenario())
        assert _terminal(events)["event"] == "done"
        assert len(_point_events(events)) == 32
        assert len(scans) <= 1
        assert stats["cache"]["size_bytes"] == ArtifactCache(tmp_path / "cache").size_bytes()

    def test_bounded_cache_reports_exact_size(self, tmp_path):
        """With --max-cache-mb the per-commit prune rescans the store, so
        the delivered size equals a fresh scan taken after the job."""

        async def scenario():
            service = _service(tmp_path, max_cache_bytes=16 * 1024)
            await service.start()
            try:
                _, events = await _run_job(service, _fleet_spec(), kind="batch")
                return events, service.stats()
            finally:
                await service.close()

        events, stats = asyncio.run(scenario())
        assert _terminal(events)["event"] == "done"
        delivered = _point_events(events)[-1]["result"]["metrics"]["artifact_cache_size_bytes"]
        fresh = ArtifactCache(tmp_path / "cache").size_bytes()
        assert delivered == fresh == stats["cache"]["size_bytes"]
        assert fresh <= 16 * 1024

    @pytest.mark.parametrize("failing", ["cache", "journal"])
    def test_failed_point_commit_fails_its_jobs(self, tmp_path, monkeypatch, failing):
        """A commit that raises ENOSPC — on the point's cache write, or on
        every journal append after admission — ends every subscriber's
        stream with an error naming the point, instead of leaving the jobs
        running forever."""
        from repro.runtime.aggregate import PointResult

        original_put = ArtifactCache.put
        original_append = JobJournal.append

        def failing_put(cache, key, value):
            if isinstance(value, PointResult):
                raise OSError(28, "No space left on device")
            return original_put(cache, key, value)

        def failing_append(journal, record):
            if record["type"] != "job":
                raise OSError(28, "No space left on device")
            return original_append(journal, record)

        if failing == "cache":
            monkeypatch.setattr(ArtifactCache, "put", failing_put)
        else:
            monkeypatch.setattr(JobJournal, "append", failing_append)
        spec = _ghz_spec(sweep={})

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            try:
                first, second = await asyncio.wait_for(
                    asyncio.gather(
                        _run_job(service, spec, client="alice"),
                        _run_job(service, spec, client="bob"),
                    ),
                    timeout=30,
                )
                return first, second, service.stats()
            finally:
                await service.close()

        (_, alice), (_, bob), stats = asyncio.run(scenario())
        (point,) = spec.points()
        for events in (alice, bob):
            terminal = _terminal(events)
            assert terminal["event"] == "error"
            assert point_key(point) in terminal["message"]
            assert "No space left on device" in terminal["message"]
        assert stats["counters"]["jobs_failed"] == 2

    def test_invalid_spec_fails_with_error_event(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted = await service.submit(
                    client="alice", kind="experiment", payload={"no": "such-spec"}
                )
                events = []
                async for event in service.stream(accepted["job_id"]):
                    events.append(event)
                return events, service.stats()
            finally:
                await service.close()

        events, stats = asyncio.run(scenario())
        terminal = _terminal(events)
        assert terminal["event"] == "error"
        assert stats["counters"]["jobs_failed"] == 1

    @pytest.mark.parametrize("where", ["circuit", "batch-circuit", "platform"])
    def test_dotted_reference_is_refused_before_it_runs(self, tmp_path, where):
        """A spec naming ``os:makedirs`` ends in one error event naming the
        reference, and the directory it asks for is never created."""
        target = tmp_path / "pwned"
        dotted = {"builder": "os:makedirs", "kwargs": {"name": str(target)}}
        ghz = {"builder": "ghz", "kwargs": {"num_qubits": 2}}
        if where == "batch-circuit":
            kind = "batch"
            payload = {"name": "refuse", "circuits": [{"circuit": ghz}, {"circuit": dotted}]}
        else:
            kind = "experiment"
            payload = {"name": "refuse", "shots": 8, "circuit": dotted}
            if where == "platform":
                payload["circuit"] = ghz
                payload["platform"] = {"factory": "os:makedirs", "kwargs": {"name": str(target)}}

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted = await service.submit(client="alice", kind=kind, payload=payload)
                return [event async for event in service.stream(accepted["job_id"])]
            finally:
                await service.close()

        events = asyncio.run(scenario())
        errors = [event for event in events if event["event"] == "error"]
        assert len(errors) == 1
        assert _terminal(events) == errors[0]
        assert "'os:makedirs'" in errors[0]["message"]
        assert not target.exists()

    def test_resume_fails_a_stale_spec_and_finishes_the_rest(self, tmp_path):
        """A journalled job whose spec carries a field the spec no longer has
        (``simulation.channel_fusion``) fails on resume with one error event;
        the other journalled job still resumes and finishes, and a second
        restart resubmits neither."""
        stale = _ghz_spec().to_dict()
        stale["simulation"]["channel_fusion"] = False
        good_spec = _ghz_spec(seed=11)
        journal = JobJournal(tmp_path / "data" / "journal.ndjson")
        for job_id, payload in (("job-000000", stale), ("job-000001", good_spec.to_dict())):
            journal.append(
                {
                    "type": "job",
                    "job_id": job_id,
                    "client": "alice",
                    "priority": 1,
                    "kind": "experiment",
                    "name": "",
                    "payload": payload,
                }
            )
        journal.close()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                streams = {}
                for job_id in ("job-000000", "job-000001"):
                    streams[job_id] = [event async for event in service.stream(job_id)]
                return streams, service.stats()["counters"]
            finally:
                await service.close()

        streams, counters = asyncio.run(scenario())
        assert counters["jobs_resumed"] == 2
        errors = [event for event in streams["job-000000"] if event["event"] == "error"]
        assert len(errors) == 1
        assert _terminal(streams["job-000000"]) == errors[0]
        assert errors[0]["message"].startswith("TypeError")
        assert "channel_fusion" in errors[0]["message"]
        terminal = _terminal(streams["job-000001"])
        assert terminal["event"] == "done", terminal
        serial = ExperimentRunner(good_spec, workers=1, use_cache=False).run()
        assert [point["counts"] for point in terminal["result"]["points"]] == [
            point.counts for point in serial.points
        ]

        async def restart():
            service = _service(tmp_path)
            await service.start()
            try:
                return service.stats()["counters"], set(service.jobs)
            finally:
                await service.close()

        counters, jobs = asyncio.run(restart())
        assert counters["jobs_resumed"] == 0
        assert jobs == set()

    def test_unknown_kind_is_rejected(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted = await service.submit(
                    client="alice", kind="mystery", payload=_ghz_spec().to_dict()
                )
                events = []
                async for event in service.stream(accepted["job_id"]):
                    events.append(event)
                return events
            finally:
                await service.close()

        assert _terminal(asyncio.run(scenario()))["event"] == "error"

    def test_priority_must_be_positive_int(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                with pytest.raises(ValueError):
                    await service.submit(
                        client="alice",
                        kind="experiment",
                        payload=_ghz_spec().to_dict(),
                        priority=0,
                    )
            finally:
                await service.close()

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# Daemon: kill -9, restart, resume — the crash-consistency contract
# ---------------------------------------------------------------------- #
def _spawn_daemon(tmp_path: Path, socket_path: Path) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "serve.py"),
            "--socket",
            str(socket_path),
            "--data-dir",
            str(tmp_path / "data"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            "2",
            "--threads",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline()
    assert ready, process.stderr.read()
    assert json.loads(ready)["ready"] is True
    deadline = time.monotonic() + 30
    while not socket_path.exists():
        assert time.monotonic() < deadline, "daemon socket never appeared"
        time.sleep(0.05)
    return process


@pytest.mark.slow
def test_sigkill_resume_is_bit_identical_and_serves_cached_points(tmp_path):
    """Kill -9 a daemon mid-job; a restart on the same directories resumes
    the job, serves every journalled point from the cache, and produces
    histograms bit-identical to an uninterrupted serial run."""
    spec = _ghz_spec(
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 3}),
        sweep={"shots": [400, 3000, 6000, 9000]},
        max_shard_shots=512,
        min_shards=4,
    )
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    socket_path = tmp_path / "svc.sock"

    first = _spawn_daemon(tmp_path, socket_path)
    try:
        client = ServiceClient(socket_path=str(socket_path))
        accepted = client.submit(spec.to_dict(), client="alice")
        job_id = accepted["job_id"]
        seen_before_kill = 0
        for event in client.events():
            if event["event"] == "point":
                seen_before_kill += 1
                break  # at least one point committed; kill mid-job
    finally:
        first.kill()
        first.wait(timeout=30)
    try:
        client.close()
    except OSError:
        pass
    assert seen_before_kill >= 1

    second = _spawn_daemon(tmp_path, socket_path)
    try:
        with ServiceClient(socket_path=str(socket_path)) as resumed:
            events = list(resumed.stream(job_id))
            terminal = events[-1]
            assert terminal["event"] == "done", terminal
            points = terminal["result"]["points"]
            assert [p["index"] for p in points] == [0, 1, 2, 3]
            for serial_point, svc_point in zip(serial.points, points):
                assert svc_point["counts"] == serial_point.counts
            stats = resumed.stats()
            counters = stats["counters"]
            assert counters["jobs_resumed"] == 1
            # Only uncached points re-executed: everything committed before
            # the kill came back as a cache hit.
            assert counters["points_from_cache"] >= seen_before_kill
            assert counters["points_executed"] + counters["points_from_cache"] == 4
            resumed.shutdown()
    finally:
        if second.poll() is None:
            second.terminate()
        second.wait(timeout=30)


@pytest.mark.slow
def test_daemon_tcp_listener_and_graceful_shutdown(tmp_path):
    process = subprocess.Popen(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "serve.py"),
            "--tcp-port",
            "0",
            "--data-dir",
            str(tmp_path / "data"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            "1",
            "--threads",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = json.loads(process.stdout.readline())
        assert ready["ready"] is True
        port = ready["tcp_port"]
        with ServiceClient(host="127.0.0.1", port=port) as client:
            assert client.ping()["event"] == "pong"
            client.submit(_ghz_spec().to_dict(), client="alice")
            terminal, _ = client.wait()
            assert terminal["event"] == "done"
            assert client.shutdown()["event"] == "bye"
        process.wait(timeout=30)
        assert process.returncode == 0
        stderr = process.stderr.read()
        assert "Traceback" not in stderr, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def test_client_requires_an_address():
    with pytest.raises(ValueError):
        ServiceClient()


def test_client_connection_error_on_dead_socket(tmp_path):
    path = tmp_path / "nobody-home.sock"
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(str(path))
    server.listen(1)
    server.close()  # accepted nothing; connections now fail
    with pytest.raises((ConnectionError, OSError)):
        client = ServiceClient(socket_path=str(path))
        client.ping()


def test_daemon_sigterm_resume_counter(tmp_path):
    """SIGTERM (graceful) also leaves a journal a fresh start can resume."""
    socket_path = tmp_path / "svc.sock"
    process = _spawn_daemon(tmp_path, socket_path)
    try:
        with ServiceClient(socket_path=str(socket_path)) as client:
            client.submit(_ghz_spec().to_dict(), client="alice")
            terminal, _ = client.wait()
            assert terminal["event"] == "done"
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    assert process.returncode == 0
    journal = JobJournal(tmp_path / "data" / "journal.ndjson")
    types = [record["type"] for record in journal.replay()]
    assert "job" in types
    assert "job_done" in types
    assert types.count("point") == 2
