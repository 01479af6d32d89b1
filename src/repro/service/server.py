"""The asyncio sweep job server: submissions in, JSON-line events out.

:class:`SweepService` listens on a local TCP socket and speaks a one-line
JSON request / JSON-lines response protocol::

    {"op": "submit", "scenarios": ["table1"], "overrides": {...},
     "launcher": "serial", "fail_fast": false, "watch": true}
    {"op": "watch",  "job_id": "job-1-ab12cd"}
    {"op": "status", "job_id": "job-1-ab12cd"}
    {"op": "jobs"}
    {"op": "cancel", "job_id": "job-1-ab12cd"}

A submission becomes a :class:`~repro.service.jobs.JobRecord` driven by one
:class:`~repro.experiments.runner.ExperimentRunner` job consumed through
:meth:`~repro.experiments.runner.ExperimentRunner.stream`, so the event loop
stays free between chunk completions and many jobs interleave.  Watchers
receive one ``{"type": "chunk", ...}`` line per settled chunk and a final
``{"type": "job", ...}`` line carrying the job's terminal state, its
serialized rows, and the rendered tables.

Chunk dispatch rides the launcher registry: each submission picks its own
backend (``serial``/``threads``/``process-pool``/``subprocess``), defaulting
to the service-wide choice.  Cancellation cancels the job's asyncio task,
which tears down the runner's stream — the same cancel-outstanding-futures
path a ``fail_fast`` :class:`~repro.experiments.streaming.SweepAborted`
abort takes — and marks the job ``cancelled``.  Every state transition and
chunk event is appended to the :class:`~repro.service.jobs.JobJournal`.

``repro-serve`` is the console entry point (see :func:`main`).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import sys
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.exceptions import ProtocolError
from repro.experiments.launchers import available_launchers, resolve_launcher_name
from repro.experiments.runner import (
    ExperimentRunner,
    ScenarioFailure,
    failed_scenarios,
    get_scenario,
)
from repro.experiments.streaming import ChunkEvent, SweepAborted
from repro.experiments.sweep import check_pool_sizes
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PARTIAL,
    QUEUED,
    RUNNING,
    JobJournal,
    JobRecord,
    results_payload,
)

#: Loopback only: the service is a local job server, not a public endpoint.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``repro-serve`` (pass ``--port 0`` for an ephemeral one).
DEFAULT_PORT = 8642


def _chunk_payload(job: JobRecord, event: ChunkEvent) -> Dict[str, Any]:
    """One settled chunk as a wire/journal line."""
    return {
        "type": "chunk",
        "job_id": job.job_id,
        "scenario": event.scenario,
        "chunk_index": event.chunk_index,
        "num_chunks": event.num_chunks,
        "rows": event.num_rows,
        "ok": event.ok,
        "completed": event.completed,
        "total": event.total,
        "seconds": event.seconds,
        "worker": event.worker_id,
        "error": None if event.failure is None else event.failure.error,
    }


class SweepService:
    """An asyncio job server running submitted sweeps as streamed runner jobs.

    ``launcher`` is the service-wide default backend (``None``: the
    registry's own resolution — ``REPRO_LAUNCHER``, then the process
    pool); each submission may override it.  ``journal_path`` enables the
    JSON-lines job journal; ``max_workers`` (at least 1) caps every job's
    launcher width.  Lifecycle: :meth:`start` binds the socket (``port=0``
    picks an ephemeral port), :meth:`serve_forever` accepts clients until
    :meth:`stop` (or task cancellation) tears the service down.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        journal_path: Optional[str] = None,
        launcher: Optional[str] = None,
        max_workers: Optional[int] = None,
        adaptive: bool = True,
    ):
        if launcher is not None:
            resolve_launcher_name(launcher)  # fail fast on unknown backends
        check_pool_sizes(max_workers=max_workers)
        self.host = host
        self.port = port
        self.default_launcher = launcher
        self.max_workers = max_workers
        self.adaptive = bool(adaptive)
        self.journal = JobJournal(journal_path)
        self._jobs: "Dict[str, JobRecord]" = {}
        self._tasks: "Dict[str, asyncio.Task]" = {}
        self._watchers: "Dict[str, Set[asyncio.Queue]]" = {}
        self._final: "Dict[str, Dict[str, Any]]" = {}
        self._serial = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.journal.record(
            {"type": "service", "event": "started", "host": self.host, "port": self.port}
        )
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Accept clients until cancelled (:meth:`start` must have run)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Cancel running jobs, close the socket, journal the shutdown."""
        for task in list(self._tasks.values()):
            if not task.done():
                task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.journal.record({"type": "service", "event": "stopped"})

    # -- job management ------------------------------------------------------

    def submit_job(
        self,
        scenarios: List[str],
        overrides: Optional[Mapping[str, Mapping]] = None,
        launcher: Optional[str] = None,
        fail_fast: bool = False,
    ) -> JobRecord:
        """Validate and enqueue one sweep batch; returns its (queued) record.

        Scenario names, override targets and keywords, and the launcher
        choice are validated *before* the job exists, so a bad submission
        fails the request instead of producing a failed job.  Must be called
        on the event loop (the job task is created here).
        """
        if not scenarios:
            raise ProtocolError("a submission needs at least one scenario name")
        for name in scenarios:
            get_scenario(name)
        chosen = launcher if launcher is not None else self.default_launcher
        if chosen is not None:
            chosen = resolve_launcher_name(chosen)
        keywords = {name: dict(kw) for name, kw in dict(overrides or {}).items()}
        for name, kw in keywords.items():
            get_scenario(name).check_overrides(kw)
        job = JobRecord(
            job_id=f"job-{next(self._serial)}-{uuid.uuid4().hex[:6]}",
            scenarios=list(scenarios),
            overrides=keywords,
            launcher=chosen,
            fail_fast=bool(fail_fast),
            state=QUEUED,
        )
        self._jobs[job.job_id] = job
        self.journal.record({"type": "state", "state": QUEUED, **job.summary()})
        self._tasks[job.job_id] = asyncio.get_running_loop().create_task(
            self._run_job(job)
        )
        return job

    def get_job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ProtocolError(f"unknown job {job_id!r}") from None

    def list_jobs(self) -> List[JobRecord]:
        """Every known job, in submission order."""
        return list(self._jobs.values())

    def cancel_job(self, job_id: str) -> bool:
        """Cancel a job's task; ``False`` when it already reached a terminal state."""
        job = self.get_job(job_id)
        task = self._tasks.get(job_id)
        if job.terminal or task is None or task.done():
            return False
        task.cancel()
        return True

    async def _run_job(self, job: JobRecord) -> None:
        """Drive one job's runner stream, broadcasting every chunk event."""
        job.state = RUNNING
        job.started_at = time.time()
        self.journal.record(
            {"type": "state", "job_id": job.job_id, "state": RUNNING}
        )
        runner = ExperimentRunner(
            job.scenarios,
            parallel=True,
            max_workers=self.max_workers,
            launcher=job.launcher,
            overrides=job.overrides,
            fail_fast=job.fail_fast,
            adaptive=self.adaptive,
        )
        final: Dict[str, Any] = {"type": "job"}
        try:
            async for event in runner.stream():
                job.chunks_completed = event.completed
                job.chunks_total = event.total
                payload = _chunk_payload(job, event)
                self.journal.record(payload)
                self._broadcast(job.job_id, payload)
            results = runner.last_results or {}
            job.failed_scenarios = failed_scenarios(results)
            if not job.failed_scenarios:
                job.state = DONE
            elif all(
                isinstance(value, ScenarioFailure) for value in results.values()
            ):
                job.state = FAILED
            else:
                job.state = PARTIAL
            final["results"] = results_payload(results)
            final["render"] = runner.render(results)
        except SweepAborted as abort:
            job.state = FAILED
            job.error = str(abort)
        except asyncio.CancelledError:
            # Tearing down the stream generator cancels the outstanding
            # chunk futures — the same path a SweepAborted abort takes.
            job.state = CANCELLED
            job.error = "cancelled"
            self._finish(job, final)
            raise
        except Exception as exc:  # broad by design: the job carries the error
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        self._finish(job, final)

    def _finish(self, job: JobRecord, final: Dict[str, Any]) -> None:
        """Stamp, journal, and broadcast a job's terminal payload."""
        job.finished_at = time.time()
        self.journal.record(
            {
                "type": "state",
                "job_id": job.job_id,
                "state": job.state,
                "error": job.error,
                "failed_scenarios": job.failed_scenarios,
                "chunks_completed": job.chunks_completed,
                "chunks_total": job.chunks_total,
            }
        )
        final["job"] = job.summary()
        self._final[job.job_id] = final
        self._broadcast(job.job_id, final)

    def _broadcast(self, job_id: str, payload: Dict[str, Any]) -> None:
        for queue in self._watchers.get(job_id, ()):  # snapshot-free: loop-local
            queue.put_nowait(payload)

    # -- the wire ------------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, payload: Mapping[str, Any]) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _stream_job(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        """Send a job's events until its terminal line (instantly if done)."""
        queue: asyncio.Queue = asyncio.Queue()
        watchers = self._watchers.setdefault(job_id, set())
        watchers.add(queue)
        try:
            final = self._final.get(job_id)
            if final is not None:
                await self._send(writer, final)
                return
            while True:
                payload = await queue.get()
                await self._send(writer, payload)
                if payload.get("type") == "job":
                    return
        finally:
            watchers.discard(queue)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request per connection: parse a JSON line, dispatch, stream."""
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                await self._send(writer, {"type": "error", "error": f"bad request: {error}"})
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: Mapping[str, Any], writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        try:
            if op == "submit":
                job = self.submit_job(
                    scenarios=list(request.get("scenarios") or []),
                    overrides=request.get("overrides"),
                    launcher=request.get("launcher"),
                    fail_fast=bool(request.get("fail_fast", False)),
                )
                await self._send(writer, {"type": "submitted", "job": job.summary()})
                if request.get("watch", True):
                    await self._stream_job(job.job_id, writer)
            elif op == "watch":
                job = self.get_job(str(request.get("job_id")))
                await self._stream_job(job.job_id, writer)
            elif op == "status":
                job = self.get_job(str(request.get("job_id")))
                await self._send(writer, {"type": "status", "job": job.summary()})
            elif op == "jobs":
                await self._send(
                    writer,
                    {"type": "jobs", "jobs": [job.summary() for job in self.list_jobs()]},
                )
            elif op == "cancel":
                job_id = str(request.get("job_id"))
                cancelled = self.cancel_job(job_id)
                await self._send(
                    writer, {"type": "cancel", "job_id": job_id, "cancelled": cancelled}
                )
            elif op == "ping":
                await self._send(
                    writer, {"type": "pong", "launchers": available_launchers()}
                )
            else:
                await self._send(writer, {"type": "error", "error": f"unknown op {op!r}"})
        except ProtocolError as error:
            await self._send(writer, {"type": "error", "error": str(error)})


async def _serve(args: argparse.Namespace) -> None:
    service = SweepService(
        host=args.host,
        port=args.port,
        journal_path=args.journal,
        launcher=args.launcher,
        max_workers=args.max_workers,
        adaptive=not args.no_adaptive,
    )
    host, port = await service.start()
    # Machine-parsable banner: the smoke tool reads the bound port off it.
    print(f"repro-serve: listening on {host}:{port}", flush=True)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve``: run the sweep job service until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-serve", description="Serve sweep jobs over a local socket."
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="0 = ephemeral")
    parser.add_argument("--journal", default=None, help="JSON-lines job journal path")
    parser.add_argument(
        "--launcher",
        default=None,
        help="default chunk-dispatch backend for submitted jobs "
        "(explicit submissions win; wins over REPRO_LAUNCHER)",
    )
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument("--no-adaptive", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.launcher is not None:
            resolve_launcher_name(args.launcher)
        check_pool_sizes(max_workers=args.max_workers)
    except ProtocolError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
