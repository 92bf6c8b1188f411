"""The four closed-loop workloads and the request streams they send.

Every request is generated from the workload seed, so the same seed gives
the same inputs.  Each workload is a closed loop: a client sends its next
request only after the previous one has returned every histogram, until
the run's deadline has passed.  Every workload runs with two workers,
which equals the benchmark host's core count.
"""

from __future__ import annotations

import itertools
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

WORKLOADS = ("perfect_sweep", "realistic_sweep", "fleet_batch", "service_mixed")
WORKERS = 2
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Sizes:
    """Request shapes; :data:`TOY` shrinks them for the harness self-test."""

    perfect_circuits: tuple = (("ghz", 20), ("qft", 18))
    perfect_shots: int = 1024
    realistic_qubits: int = 9
    realistic_depth: int = 10
    realistic_shots: int = 256
    fleet_circuits: int = 32
    fleet_qubits: int = 10
    fleet_shots: int = 1024
    #: Two stacked chunks, so both pool workers take one.
    fleet_chunk: int = 16
    interactive_qubits: int = 4
    interactive_shots: tuple = (1024, 2048)
    #: Every n-th interactive submission repeats an earlier one.
    repeat_every: int = 4


FULL = Sizes()
TOY = Sizes(
    perfect_circuits=(("ghz", 6), ("qft", 5)),
    perfect_shots=64,
    realistic_qubits=4,
    realistic_depth=3,
    realistic_shots=32,
    fleet_circuits=4,
    fleet_qubits=4,
    fleet_shots=64,
    fleet_chunk=2,
    interactive_qubits=3,
    interactive_shots=(64, 128),
)


@dataclass
class Request:
    """One closed-loop request and everything the check and metrics need."""

    request_id: str
    client: str
    kind: str  # "experiment" | "batch"
    spec: dict
    #: Shots each returned histogram must hold, in point/circuit order.
    expected_shots: list[int]
    submitted: float = 0.0
    done: float = 0.0
    #: ``(arrival time, shots)`` of each histogram as it was delivered.
    point_times: list[tuple[float, int]] = field(default_factory=list)
    accepted: float | None = None
    planned: float | None = None
    histograms: list[dict] = field(default_factory=list)
    shots: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.submitted

    @property
    def first_point(self) -> float:
        return min(time for time, _ in self.point_times)


# ---------------------------------------------------------------------- #
# Request generators (pure functions of the seed).
# ---------------------------------------------------------------------- #
def _fresh_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def perfect_spec(rng: random.Random, sizes: Sizes) -> tuple[str, dict, list[int]]:
    builder, qubits = rng.choice(sizes.perfect_circuits)
    spec = {
        "name": f"perfect-{builder}{qubits}",
        "circuit": {"builder": builder, "kwargs": {"num_qubits": qubits}},
        "platform": {"factory": "perfect", "kwargs": {}},
        "shots": sizes.perfect_shots,
        "seed": _fresh_seed(rng),
    }
    return "experiment", spec, [sizes.perfect_shots]


def realistic_spec(rng: random.Random, sizes: Sizes) -> tuple[str, dict, list[int]]:
    spec = {
        "name": "realistic-random",
        "circuit": {
            "builder": "random",
            "kwargs": {
                "num_qubits": sizes.realistic_qubits,
                "depth": sizes.realistic_depth,
                "seed": _fresh_seed(rng),
            },
        },
        "platform": {"factory": "realistic", "kwargs": {}},
        "shots": sizes.realistic_shots,
        "seed": _fresh_seed(rng),
    }
    return "experiment", spec, [sizes.realistic_shots]


def fleet_spec(rng: random.Random, sizes: Sizes) -> tuple[str, dict, list[int]]:
    from repro.runtime.batch import BatchSpec

    spec = BatchSpec.from_product(
        "fleet",
        "rotations",
        {"seed": [_fresh_seed(rng) for _ in range(sizes.fleet_circuits)]},
        base_kwargs={"num_qubits": sizes.fleet_qubits},
        shots=sizes.fleet_shots,
        seed=_fresh_seed(rng),
        max_chunk_circuits=sizes.fleet_chunk,
    )
    return "batch", spec.to_dict(), [sizes.fleet_shots] * sizes.fleet_circuits


def interactive_spec(rng: random.Random, sizes: Sizes) -> tuple[str, dict, list[int]]:
    qubits = sizes.interactive_qubits
    spec = {
        "name": "interactive-ghz",
        "circuit": {"builder": "ghz", "kwargs": {"num_qubits": qubits}},
        "platform": {"factory": "realistic", "kwargs": {"num_qubits": qubits}},
        "shots": sizes.interactive_shots[0],
        "seed": _fresh_seed(rng),
        "sweep": {"shots": list(sizes.interactive_shots)},
    }
    return "experiment", spec, list(sizes.interactive_shots)


def interactive_stream(rng: random.Random, sizes: Sizes):
    """Interactive submissions; every fourth repeats a seed-drawn earlier one.

    Repeats sit at fixed positions so the share of cache-served jobs, which
    are far faster than fresh ones, does not vary from seed to seed.
    """
    earlier: list[tuple] = []
    for position in itertools.count(1):
        if position % sizes.repeat_every == 0:
            yield rng.choice(earlier)
        else:
            request = interactive_spec(rng, sizes)
            earlier.append(request)
            yield request


# ---------------------------------------------------------------------- #
# In-process workloads: ExperimentRunner and BatchRunner.
# ---------------------------------------------------------------------- #
def _execute_local(kind: str, spec: dict, cache_dir: Path, workers: int):
    from repro.runtime import ExperimentRunner, ExperimentSpec
    from repro.runtime.batch import BatchRunner, BatchSpec

    if kind == "batch":
        result = BatchRunner(BatchSpec.from_dict(spec), workers=workers, cache_dir=cache_dir).run()
        return result.circuits
    result = ExperimentRunner(
        ExperimentSpec.from_dict(spec), workers=workers, cache_dir=cache_dir
    ).run()
    return result.points


class LocalWorkload:
    """One client calling a runner's public entry point in-process."""

    generators = {
        "perfect_sweep": perfect_spec,
        "realistic_sweep": realistic_spec,
        "fleet_batch": fleet_spec,
    }

    def __init__(self, workload: str, seed: int, sizes: Sizes, work: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.cache = work / "cache"
        self.tracer = tracer

    def setup(self) -> None:
        """Prepare the cache directory and let lazy set-up finish.

        ``perfect_sweep`` warms the compile cache with both of its circuits;
        the other workloads start from an empty cache and warm up on a
        small request outside it.
        """
        self.cache.mkdir(parents=True, exist_ok=True)
        from repro.runtime import ExperimentRunner, ExperimentSpec

        if self.workload == "perfect_sweep":
            for builder, qubits in self.sizes.perfect_circuits:
                spec = {
                    "name": "warm",
                    "circuit": {"builder": builder, "kwargs": {"num_qubits": qubits}},
                    "platform": {"factory": "perfect", "kwargs": {}},
                    "shots": self.sizes.perfect_shots,
                }
                _execute_local("experiment", spec, self.cache, WORKERS)
            return
        rng = random.Random(-1)
        _, spec, _ = self.generators[self.workload](rng, replace(self.sizes, fleet_circuits=4))
        if self.workload == "fleet_batch":
            from repro.runtime.batch import BatchRunner, BatchSpec

            BatchRunner(BatchSpec.from_dict(spec), workers=WORKERS, use_cache=False).run()
        else:
            ExperimentRunner(ExperimentSpec.from_dict(spec), workers=WORKERS, use_cache=False).run()

    def run(self, seconds: float) -> list[Request]:
        rng = random.Random(self.seed)
        generate = self.generators[self.workload]
        requests = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            kind, spec, expected = generate(rng, self.sizes)
            request = Request(
                request_id=f"{self.workload}-{len(requests)}",
                client="local",
                kind=kind,
                spec=spec,
                expected_shots=expected,
            )
            request.submitted = time.perf_counter()
            try:
                if self.tracer is not None:
                    with self.tracer.request(request.request_id):
                        points = _execute_local(kind, spec, self.cache, WORKERS)
                else:
                    points = _execute_local(kind, spec, self.cache, WORKERS)
                request.done = time.perf_counter()
                request.histograms = [point.counts for point in points]
                request.shots = [point.shots for point in points]
                request.point_times = [(request.done, shots) for shots in request.shots]
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                request.done = time.perf_counter()
                request.error = f"{type(exc).__name__}: {exc}"
            requests.append(request)
        return requests

    def teardown(self) -> dict:
        return {}


# ---------------------------------------------------------------------- #
# The service workload: a daemon plus two closed-loop clients.
# ---------------------------------------------------------------------- #
#: The same tiny job warms every daemon, so every run starts from the same
#: journal and cache contents.
WARMUP_SPEC = {
    "name": "warmup",
    "circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2}},
    "platform": {"factory": "perfect", "kwargs": {}},
    "shots": 16,
    "seed": 0,
}


class ServiceWorkload:
    """``bulk`` and ``interactive`` clients against a ``scripts/serve.py`` daemon."""

    def __init__(self, seed: int, sizes: Sizes, work: Path, trace_dir: Path | None = None):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.trace_dir = trace_dir
        self.process: subprocess.Popen | None = None
        self.stats: dict = {}
        # Relative: unix socket paths are limited to ~100 bytes.
        self.socket = os.path.relpath(work / "svc.sock")

    def setup(self, timeout: float = 60.0) -> None:
        """Boot the daemon on an empty journal and cache, then run the warm-up job."""
        import repro.service.client  # noqa: F401 - client imports are set-up too

        cache = self.work / "cache"
        cache.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "--socket", self.socket,
            "--workers", str(WORKERS),
            "--data-dir", str(self.work / "data"),
            "--cache-dir", str(cache),
            "--no-resume",
        ]  # fmt: skip
        if self.trace_dir is None:
            command = [sys.executable, "scripts/serve.py", *serve_args]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(self.trace_dir), *serve_args]
        self.log = open(self.work / "daemon.log", "wb")
        # Own session, so stop() can kill pool workers a hung daemon leaves.
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else b""
        if not line.startswith(b"{"):
            self.stop()
            raise RuntimeError(f"daemon did not become ready: {line[:200]!r}")
        # The daemon's fork-based pool starts its workers at the first unit.
        # Start them here, while nothing else runs in the daemon: forking
        # while its I/O thread plans other jobs has hung a worker.
        with self._client() as client:
            client.submit(WARMUP_SPEC, client="warmup")
            terminal, _ = client.wait()
        if terminal.get("event") != "done":
            self.stop()
            raise RuntimeError(f"daemon warm-up job failed: {terminal}")

    def _client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(socket_path=self.socket, timeout=60.0)

    def _submit(self, client, request: Request) -> None:
        request.submitted = time.perf_counter()
        try:
            client.submit(request.spec, kind=request.kind, client=request.client)
            request.accepted = time.perf_counter()
            points = []
            for event in client.events():
                name = event.get("event")
                now = time.perf_counter()
                if name == "planned":
                    request.planned = now
                elif name == "point":
                    request.point_times.append((now, event["result"]["shots"]))
                elif name == "done":
                    request.done = now
                    points = sorted(event["result"]["points"], key=lambda p: p["index"])
                elif name in ("error", "protocol_error"):
                    raise RuntimeError(event.get("message", name))
            request.histograms = [point["counts"] for point in points]
            request.shots = [point["shots"] for point in points]
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            request.done = time.perf_counter()
            request.error = f"{type(exc).__name__}: {exc}"

    def _loop(self, client_name, stream, deadline, requests, client) -> None:
        while time.perf_counter() < deadline:
            kind, spec, expected = next(stream)
            request = Request(
                request_id=f"{client_name}-{len(requests)}",
                client=client_name,
                kind=kind,
                spec=spec,
                expected_shots=expected,
            )
            self._submit(client, request)
            requests.append(request)
            if request.error is not None:
                return  # the connection's state is unknown after a failure

    def run(self, seconds: float) -> list[Request]:
        bulk_rng = random.Random(self.seed)
        interactive_rng = random.Random(self.seed + 1)

        def bulk_stream():
            while True:
                yield fleet_spec(bulk_rng, self.sizes)

        bulk: list[Request] = []
        interactive: list[Request] = []
        with self._client() as bulk_client, self._client() as interactive_client:
            deadline = time.perf_counter() + seconds
            thread = threading.Thread(
                target=self._loop,
                args=("bulk", bulk_stream(), deadline, bulk, bulk_client),
            )
            thread.start()
            try:
                self._loop(
                    "interactive",
                    interactive_stream(interactive_rng, self.sizes),
                    deadline,
                    interactive,
                    interactive_client,
                )
            finally:
                thread.join()
        with self._client() as client:
            self.stats = client.stats()
        return bulk + interactive

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the daemon down (protocol op, then signals) and reap it."""
        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                with self._client() as client:
                    client.shutdown()
            except OSError:
                self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the daemon and its pool workers have all exited
        self.process.stdout.close()
        self.log.close()
        self.process = None

    def teardown(self) -> dict:
        self.stop()
        return self.stats


def make_workload(workload: str, seed: int, sizes: Sizes, work: Path, tracer=None, trace_dir=None):
    if workload == "service_mixed":
        return ServiceWorkload(seed, sizes, work, trace_dir=trace_dir)
    return LocalWorkload(workload, seed, sizes, work, tracer=tracer)
