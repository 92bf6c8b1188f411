"""The asyncio job engine: fair scheduling, dedup, streaming, resume.

:class:`JobService` is the daemon's core, independent of any transport.
Submissions become :class:`~repro.service.jobs.Job` objects; each job's
sweep points are classified exactly once:

- **cache hit** — the point's content-addressed key is already in the
  artifact cache, so its merged result is served immediately without
  planning or execution;
- **in flight** — another tenant is already executing an identical point,
  so this job subscribes to that execution and receives the result when it
  lands (exactly one execution, many subscribers);
- **fresh** — an experiment job's point is planned (compile + shard, in
  the I/O executor) and its work units enter the weighted-fair scheduler,
  each charged its declared ``cost``: a deterministic circuit point is one
  unit (it evolves once and samples every shard), any other point one
  unit per shard.  A batch job's fresh points are cut, in point order,
  into windows by :func:`~repro.runtime.batch.window_size`, the rule
  :class:`~repro.runtime.batch.BatchRunner` cuts by: one unit each,
  charged its points' shots, that a pool worker runs with
  :func:`~repro.runtime.batch.run_window` without the compile cache.  A
  window that fails runs again point by point, so a bad circuit fails
  only the jobs subscribed to its own point.

A pump coroutine moves units from the scheduler into a process pool as
slots free up.  The slot rule: in a pool of more than one worker a window
starts only while two slots are free, so another client's short unit can
take the last one (the scheduler bounds a window's wait).  Every blocking
runtime entry point — planning, unit execution, cache and journal I/O —
runs in an executor, never on the event loop (contract rule REPRO008).
Points are planned by :meth:`~repro.runtime.runner.ExperimentRunner.plan_point`
and merged by :meth:`~repro.runtime.runner.PlannedPoint.merge` over the
deterministic shard list, so a job's histograms are bit-identical to a
serial :class:`~repro.runtime.runner.ExperimentRunner` run of the same
spec (:func:`~repro.runtime.batch.run_batch` for a batch job).

Durability: accepted jobs and committed point keys are journalled
(flush + fsync) before the daemon acts on them.  On restart with the same
data/cache directories the service resubmits every non-terminal job; the
points whose results already landed in the cache are served from it, so a
killed daemon re-executes only uncached points and still reproduces the
uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.runtime.aggregate import PointResult
from repro.runtime.batch import BatchWindow, run_window, window_size
from repro.runtime.cache import ArtifactCache
from repro.runtime.runner import ExperimentRunner, PlannedPoint, available_workers
from repro.runtime.spec import SweepPoint
from repro.runtime.worker import init_pool_worker, run_shard
from repro.service.jobs import Job, parse_job_spec, point_key
from repro.service.journal import JobJournal
from repro.service.scheduler import FairScheduler


@dataclass
class _PointExecution:
    """One in-flight point: shard bookkeeping plus its subscriber jobs.

    Created as a *claim* (``planned is None``) before the owning job's
    first await, so concurrent admissions of an identical point always see
    it in the in-flight table and subscribe instead of planning a second
    execution.  ``planned``/``pending`` are filled in once planning lands;
    a point that runs in a batch window keeps ``planned is None``.
    """

    planned: PlannedPoint | None = None
    pending: set[int] = field(default_factory=set)
    results: dict[int, object] = field(default_factory=dict)
    #: ``(job, point)`` pairs to deliver to; the first entry claimed the
    #: execution, later ones joined via in-flight dedup.
    subscribers: list[tuple[Job, SweepPoint]] = field(default_factory=list)


class JobService:
    """Transport-agnostic async experiment service over the runtime."""

    def __init__(
        self,
        cache_dir: str | Path,
        data_dir: str | Path,
        workers: int | None = None,
        use_processes: bool = True,
        max_cache_bytes: int | None = None,
        resume: bool = True,
        strict_verify: bool = False,
    ) -> None:
        self.cache = ArtifactCache(cache_dir)
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.data_dir / "journal.ndjson")
        self.workers = max(1, workers if workers is not None else available_workers())
        self.use_processes = use_processes
        self.max_cache_bytes = max_cache_bytes
        self.resume = resume
        self.strict_verify = strict_verify

        self.jobs: dict[str, Job] = {}
        self.counters = {
            "jobs_submitted": 0,
            "jobs_resumed": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "points_executed": 0,
            "points_from_cache": 0,
            "points_deduped_inflight": 0,
        }
        self._inflight: dict[str, _PointExecution] = {}
        self._scheduler = FairScheduler(may_start=self._may_start)
        self._job_counter = 0
        self._closing = False
        self._started = False
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind loop state, start the pump, and resume journalled jobs."""
        self._loop = asyncio.get_running_loop()
        if self.use_processes:
            self._pool = ProcessPoolExecutor(max_workers=self.workers, initializer=init_pool_worker)
            # Start every worker now, while no other thread of ours exists:
            # a pool that forks on demand would otherwise fork mid-job while
            # the I/O thread holds locks, and the child can hang on them.
            await asyncio.gather(
                *(self._loop.run_in_executor(self._pool, os.getpid) for _ in range(self.workers))
            )
        else:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        # Single thread: planning, cache I/O and journal appends stay
        # strictly ordered without blocking the event loop.
        self._io = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svc-io")
        self._slots = self.workers
        self._wake = asyncio.Condition()
        # Seed the cache's running byte total with one directory scan, so
        # every delivery reads the cache size in O(1).
        await self._run_io(self.cache.size_bytes)
        self._pump_task = asyncio.create_task(self._pump())
        self._started = True
        if self.resume:
            await self._resume_from_journal()

    async def close(self) -> None:
        """Stop scheduling, cancel in-flight units, release executors."""
        if not self._started:
            return
        self._closing = True
        async with self._wake:
            self._wake.notify_all()
        await self._pump_task
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # End every live stream with a terminal event; the jobs stay
        # non-terminal in the journal, so the next start resumes them.
        for job in self.jobs.values():
            if not job.finished:
                job.state = "failed"
                job.deliver(
                    {
                        "event": "error",
                        "job_id": job.job_id,
                        "message": "service shutting down; job will resume on restart",
                    }
                )
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._io.shutdown(wait=True)
        self.journal.close()
        self._started = False

    async def _resume_from_journal(self) -> None:
        """Resubmit every journalled job that never reached a terminal state."""
        job_records: dict[str, dict] = {}
        terminal: set[str] = set()
        for record in self.journal.replay():
            kind = record.get("type")
            if kind == "job":
                job_records[record["job_id"]] = record
            elif kind in ("job_done", "job_failed"):
                terminal.add(record["job_id"])
        for job_id in job_records:
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._job_counter = max(self._job_counter, int(suffix) + 1)
        for job_id, record in job_records.items():
            if job_id in terminal:
                continue
            self.counters["jobs_resumed"] += 1
            await self.submit(
                client=record["client"],
                kind=record["kind"],
                payload=record["payload"],
                priority=record.get("priority", 1),
                name=record.get("name", ""),
                job_id=job_id,
                journal=False,
            )

    # ------------------------------------------------------------------ #
    # Submission and admission.
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        client: str,
        kind: str,
        payload: dict,
        priority: int = 1,
        name: str = "",
        job_id: str | None = None,
        journal: bool = True,
    ) -> dict:
        """Accept a job; returns the ``accepted`` event once it is durable."""
        if self._closing:
            raise RuntimeError("service is shutting down")
        if not isinstance(priority, int) or priority < 1:
            raise ValueError(f"priority must be an int >= 1, got {priority!r}")
        if job_id is None:
            job_id = f"job-{self._job_counter:06d}"
            self._job_counter += 1
        job = Job(
            job_id=job_id,
            client=client,
            priority=priority,
            kind=kind,
            payload=payload,
            name=name,
        )
        if journal:
            await self._run_io(
                self.journal.append,
                {
                    "type": "job",
                    "job_id": job_id,
                    "client": client,
                    "priority": priority,
                    "kind": kind,
                    "name": name,
                    "payload": payload,
                },
            )
        self.jobs[job_id] = job
        self.counters["jobs_submitted"] += 1
        accepted = {"event": "accepted", "job_id": job_id, "client": client}
        job.deliver(accepted)
        self._spawn(self._admit(job))
        return accepted

    async def _admit(self, job: Job) -> None:
        """Classify a job's points into cached / in-flight / fresh work."""
        claimed: list[tuple[str, SweepPoint]] = []  # keys of this job not yet scheduled
        try:
            spec = parse_job_spec(job.payload, job.kind)
            points = spec.points()
            job.name = job.name or spec.name
            job.points_total = len(points)
            job.state = "running"
            # An experiment job's points are planned one by one, so cached
            # and joined points skip compilation; the daemon's own cache
            # instance is shared so artifacts and their counters are common
            # to every tenant; only the daemon writes it, so compile points
            # plan without it.  A batch job's windows start as they fill.
            planner = ExperimentRunner(
                spec, workers=1, use_cache=False, strict_verify=self.strict_verify
            )
            batch = job.kind == "batch"
            if not batch and spec.kind != "compile":
                planner.cache = self.cache
            size = window_size(len(points), spec.max_chunk_circuits, self.workers) if batch else 1
            from_cache = joined = 0
            for point in points:
                if job.finished:  # e.g. a point it joined failed: admit nothing more
                    break
                key = point_key(point)
                execution = self._inflight.get(key)
                if execution is not None:
                    execution.subscribers.append((job, point))
                    self.counters["points_deduped_inflight"] += 1
                    joined += 1
                    continue
                # Claim the key synchronously — no await between the
                # in-flight miss and the insert — so a concurrent identical
                # admission subscribes here instead of executing twice.
                execution = _PointExecution(subscribers=[(job, point)])
                self._inflight[key] = execution
                claimed.append((key, point))
                cached = await self._run_io(self.cache.get, key)
                if isinstance(cached, PointResult):
                    self._inflight.pop(key, None)
                    claimed.pop()
                    self.counters["points_from_cache"] += 1
                    from_cache += 1
                    for sub_job, sub_point in execution.subscribers:
                        await self._deliver_point(sub_job, sub_point, cached, source="cache")
                    continue
                if len(claimed) == size:
                    await self._schedule_claimed(job, planner, claimed)
            await self._schedule_claimed(job, planner, claimed)
            if job.finished:
                return
            job.deliver(
                {
                    "event": "planned",
                    "job_id": job.job_id,
                    "points_total": job.points_total,
                    "points_cached": from_cache,
                    "points_inflight": joined,
                    "points_fresh": len(points) - from_cache - joined,
                }
            )
            if job.points_done == job.points_total:
                await self._finish_job(job)
        except Exception as exc:  # noqa: BLE001 - job errors become events
            # A claimed, unscheduled key would hang every job that joined it.
            for key, _ in claimed:
                await self._fail_point(key, f"admission failed for point {key}", skip=job)
            await self._fail_job(job, f"{type(exc).__name__}: {exc}")

    async def _schedule_claimed(
        self, job: Job, planner: ExperimentRunner, claimed: list[tuple[str, SweepPoint]]
    ) -> None:
        """Queue (and clear) ``claimed``: a batch job's points as one window
        charged its shots; an experiment job's one point as its planned
        shards.  Once the job's stream has ended, points no other job joined
        are released instead of run."""
        self._release_unjoined(job, claimed)
        if not claimed:
            return
        if job.kind == "batch":
            keys, points = zip(*claimed, strict=True)
            claimed.clear()
            self.counters["points_executed"] += len(keys)
            unit = BatchWindow(list(points), self.strict_verify)
            await self._schedule(job, (keys, unit), sum(point.spec.shots for point in points))
            return
        [(key, point)] = claimed
        planned = await self._run_io(planner.plan_point, point)
        self._release_unjoined(job, claimed)
        if not claimed:
            return
        claimed.clear()
        self.counters["points_executed"] += 1
        execution = self._inflight[key]
        execution.planned = planned
        execution.pending = {task.shard_index for task in planned.tasks}
        for task in planned.tasks:
            await self._schedule(job, ((key,), task), task.cost)

    def _release_unjoined(self, job: Job, claimed: list[tuple[str, SweepPoint]]) -> None:
        """If ``job`` has finished, drop its claims that only it subscribes to."""
        if not job.finished:
            return
        kept = []
        for key, point in claimed:
            if any(other is not job for other, _ in self._inflight[key].subscribers):
                kept.append((key, point))
            else:
                del self._inflight[key]
        claimed[:] = kept

    async def _schedule(self, job: Job, item: tuple, cost: float) -> None:
        """Queue one work unit ``(point keys, task or window)`` and wake the pump."""
        self._scheduler.push(job.client, weight=job.priority, item=item, cost=cost)
        async with self._wake:
            self._wake.notify_all()

    # ------------------------------------------------------------------ #
    # Execution pump.
    # ------------------------------------------------------------------ #
    def _may_start(self, unit) -> bool:
        """The slot rule: a window never takes the last free slot of a wider pool."""
        return self.workers == 1 or self._slots > 1 or not isinstance(unit.item[1], BatchWindow)

    async def _pump(self) -> None:
        """Move work units from the fair scheduler into free pool slots."""
        while True:
            async with self._wake:
                await self._wake.wait_for(
                    lambda: self._closing or (self._slots > 0 and self._scheduler.ready())
                )
                if self._closing:
                    return
                unit = self._scheduler.pop()
                self._slots -= 1
            self._spawn(self._run_unit(unit))

    async def _run_unit(self, unit) -> None:
        """Execute one work unit in the pool and commit the points it completes."""
        keys, work = unit.item
        try:
            if isinstance(work, BatchWindow):
                await self._run_window(keys, work)
                return
            try:
                results = await self._loop.run_in_executor(self._pool, run_shard, work)
            except Exception as exc:  # noqa: BLE001 - worker crashes fail the point
                await self._fail_point(keys[0], f"shard failed: {type(exc).__name__}: {exc}")
                return
            if (execution := self._inflight.get(keys[0])) is not None:
                for result in results:
                    if result.shard_index in execution.pending:
                        execution.results[result.shard_index] = result
                        execution.pending.discard(result.shard_index)
                if execution.results and not execution.pending:
                    shards = [execution.results[index] for index in sorted(execution.results)]
                    await self._commit(keys[0], shards)
        finally:
            async with self._wake:
                self._slots += 1
                self._wake.notify_all()

    async def _run_window(self, keys: tuple[str, ...], window: BatchWindow) -> None:
        """Run one window in the pool and commit its points; a window that
        raises runs again point by point, so only the bad point's jobs fail."""
        try:
            output = await self._loop.run_in_executor(self._pool, run_window, window)
        except Exception as exc:  # noqa: BLE001 - worker errors fail the point
            if len(keys) == 1:
                await self._fail_point(keys[0], f"window failed: {type(exc).__name__}: {exc}")
                return
            for key, point in zip(keys, window.points, strict=True):
                await self._run_window((key,), replace(window, points=[point]))
            return
        for category, message in output.warnings:
            warnings.warn(message, category)
        for key, merged in zip(keys, output.circuits, strict=True):
            await self._commit(key, merged)

    async def _fail_point(self, key: str, message: str, skip: Job | None = None) -> None:
        if (execution := self._inflight.pop(key, None)) is not None:
            await self._fail_subscribers(execution, message, skip)

    async def _commit(self, key: str, result) -> None:
        """Commit one point (a window's merged result, or a planned point's
        shard results in shard order) and fan it out to its subscribers."""
        if (execution := self._inflight.pop(key, None)) is None:
            return
        try:
            merged = result if execution.planned is None else execution.planned.merge(result)
            await self._run_io(self.cache.put, key, merged)
            await self._run_io(self.journal.append, {"type": "point", "key": key})
            if self.max_cache_bytes is not None:
                await self._run_io(self.cache.prune, self.max_cache_bytes)
            for position, (job, point) in enumerate(execution.subscribers):
                source = "executed" if position == 0 else "inflight"
                await self._deliver_point(job, point, merged, source=source)
        except Exception as exc:  # noqa: BLE001 - e.g. ENOSPC on commit
            await self._fail_subscribers(
                execution, f"commit failed for point {key}: {type(exc).__name__}: {exc}"
            )

    async def _deliver_point(
        self, job: Job, point: SweepPoint, merged: PointResult, source: str
    ) -> None:
        """Emit one point result into a job's stream and check completion.

        ``merged`` may come from another tenant's identical point or from
        the cache, so the subscriber's own index and params are bound here.
        Histogram keys are interned: pickles and cache reads copy them.
        """
        if job.finished:
            return
        counts = {sys.intern(outcome): count for outcome, count in merged.counts.items()}
        metrics = dict(merged.metrics)
        cache_stats = self.cache.stats()
        metrics["artifact_cache_hits"] = cache_stats["hits"]
        metrics["artifact_cache_misses"] = cache_stats["misses"]
        metrics["artifact_cache_writes"] = cache_stats["writes"]
        metrics["artifact_cache_evictions"] = cache_stats["evictions"]
        # O(1): the running total seeded in start(), not a directory scan.
        # Only the I/O thread changes the total; the loop just reads it.
        metrics["artifact_cache_size_bytes"] = self.cache.size_bytes()
        metrics["point_source"] = source
        result = replace(
            merged, index=point.index, params=dict(point.params), counts=counts, metrics=metrics
        ).to_dict()
        job.point_results.append(result)
        job.points_done += 1
        job.deliver(
            {
                "event": "point",
                "job_id": job.job_id,
                "index": point.index,
                "params": dict(point.params),
                "source": source,
                "result": result,
            }
        )
        if job.points_done == job.points_total and job.state == "running":
            await self._finish_job(job)

    async def _finish_job(self, job: Job) -> None:
        if job.finished:
            return
        job.state = "done"
        points = sorted(job.point_results, key=lambda entry: entry["index"])
        result = {
            "name": job.name,
            "workers": self.workers,
            "total_time_s": round(time.monotonic() - job.submitted_s, 6),
            "total_shots": sum(entry["shots"] for entry in points),
            "cache_stats": self.cache.stats(),
            "points": points,
        }
        await self._run_io(self.journal.append, {"type": "job_done", "job_id": job.job_id})
        self.counters["jobs_completed"] += 1
        job.deliver({"event": "done", "job_id": job.job_id, "result": result})

    async def _fail_job(self, job: Job, message: str) -> None:
        if job.finished:
            return
        try:
            await self._run_io(self.journal.append, {"type": "job_failed", "job_id": job.job_id})
        except OSError:
            # The stream still ends; the job stays non-terminal in the
            # journal, so a restart resumes it.
            pass
        self.counters["jobs_failed"] += 1
        job.fail(message)

    async def _fail_subscribers(
        self, execution: _PointExecution, message: str, skip: Job | None = None
    ) -> None:
        """Fail every job subscribed to ``execution`` (except ``skip``)."""
        for job, _ in execution.subscribers:
            if job is not skip:
                await self._fail_job(job, message)

    # ------------------------------------------------------------------ #
    # Introspection and streaming.
    # ------------------------------------------------------------------ #
    async def stream(self, job_id: str):
        """Async-iterate a job's events: full replay, then live to terminal."""
        job = self.jobs[job_id]
        queue: asyncio.Queue = asyncio.Queue()
        job.queues.append(queue)
        try:
            # Snapshot after attaching: events recorded before the snapshot
            # replay from the buffer, later ones arrive via the queue — no
            # gap, no duplicate.
            snapshot = len(job.events)
            for event in job.events[:snapshot]:
                yield event
                if event.get("event") in ("done", "error"):
                    return
            while True:
                event = await queue.get()
                yield event
                if event.get("event") in ("done", "error"):
                    return
        finally:
            job.queues.remove(queue)

    def status(self, job_id: str) -> dict:
        return self.jobs[job_id].status()

    def stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "cache": {**self.cache.stats(), "size_bytes": self.cache.size_bytes()},
            "backlog": self._scheduler.backlog(),
            "inflight_points": len(self._inflight),
            "jobs": len(self.jobs),
            "workers": self.workers,
            "slots_free": self._slots if self._started else self.workers,
        }

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    async def _run_io(self, fn, *args):
        """Run blocking planning/disk work on the ordered I/O thread."""
        return await self._loop.run_in_executor(self._io, lambda: fn(*args))

    def _spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
