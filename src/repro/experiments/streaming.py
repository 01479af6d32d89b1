"""Streaming chunk consumption: progress events, failure isolation, early abort.

The sharding layer (:mod:`repro.experiments.sweep`) plans a sweep into chunks
and submits them to a process pool; this module is the *consumption* side.
Instead of blocking on every future in submission order (and losing a
scenario's completed chunks the moment one chunk raises), futures are drained
as they complete:

* every settled chunk becomes a :class:`ChunkEvent` — scenario, chunk index,
  row count, the evaluating worker's token and its operator-cache *delta*
  since that worker's previous chunk — delivered to a pluggable
  :class:`ProgressListener` (or bare callable) and yielded to the caller;
* a chunk that raises becomes a :class:`ChunkFailure` carried on its event,
  so sibling chunks keep their rows and the caller decides scenario-level
  semantics (partial result versus full failure);
* with ``fail_fast=True`` the first failure cancels every outstanding future
  and raises :class:`SweepAborted` carrying the failure.

Both a synchronous generator (:func:`iter_chunk_events`, driving
``concurrent.futures.as_completed``) and an asynchronous one
(:func:`aiter_chunk_events`, wrapping the pool futures into awaitables) are
provided; they share one event-building core so the two paths cannot drift.
Row *order* is not this module's concern: callers slot results by chunk index
and reassemble in grid order, so completion order never shows in the output.
"""

from __future__ import annotations

import os
import sys
import traceback as traceback_module
from concurrent.futures import Future, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, TextIO, Union

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class ChunkTask:
    """One submitted chunk: the pool future plus its place in the plan.

    ``predicted_seconds`` carries the cost model's wall-time prediction for
    the chunk (``None`` under static planning), surfaced on the chunk's
    event so listeners can report predicted-vs-actual cost.
    """

    future: Future
    scenario: str
    chunk_index: int
    num_chunks: int
    num_points: int = 0
    predicted_seconds: Optional[float] = None


@dataclass(frozen=True)
class ChunkFailure:
    """A captured per-chunk failure; sibling chunks keep their rows."""

    scenario: str
    chunk_index: int
    num_chunks: int
    num_points: int
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class ChunkEvent:
    """One settled chunk, as surfaced to progress listeners and streams.

    Exactly one of ``result`` (a completed
    :class:`~repro.experiments.sweep.ChunkResult`) and ``failure`` is set.
    ``cache_delta`` holds the evaluating worker's operator-cache counter
    growth since its previous chunk (first chunk: the full snapshot), and
    ``completed``/``total`` count settled chunks across the whole run.
    ``seconds`` is the chunk's measured in-worker wall time (builder call
    only, no pool overhead) and ``predicted_seconds`` the cost model's
    prediction from planning time (``None`` under static planning) — the
    pair feeds the cost book and the progress lines' predicted-vs-actual
    readout.
    """

    scenario: str
    chunk_index: int
    num_chunks: int
    num_rows: int
    worker_id: str
    cache_delta: Dict[str, int] = field(default_factory=dict)
    result: Optional[Any] = None
    failure: Optional[ChunkFailure] = None
    completed: int = 0
    total: int = 0
    seconds: float = 0.0
    predicted_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        """Whether the chunk completed (``failure`` unset)."""
        return self.failure is None


class SweepAborted(ProtocolError):
    """Raised under ``fail_fast`` after the first chunk failure.

    Outstanding futures have been cancelled (running chunks cannot be
    interrupted mid-flight but nothing new starts); :attr:`failure` carries
    the chunk that triggered the abort.
    """

    def __init__(self, failure: ChunkFailure):
        super().__init__(
            f"sweep aborted on first failure: {failure.scenario} chunk "
            f"{failure.chunk_index + 1}/{failure.num_chunks}: {failure.error}"
        )
        self.failure = failure


class ProgressListener:
    """Receives one :class:`ChunkEvent` per settled chunk; subclass to plug in."""

    def on_chunk(self, event: ChunkEvent) -> None:  # pragma: no cover - no-op base
        """Handle one settled chunk (completed or failed)."""


class _CallbackListener(ProgressListener):
    """Adapter turning a bare ``callable(event)`` into a listener."""

    def __init__(self, callback: Callable[[ChunkEvent], None]):
        self._callback = callback

    def on_chunk(self, event: ChunkEvent) -> None:
        self._callback(event)


class PrintProgressListener(ProgressListener):
    """Prints one line per settled chunk (``repro-report --progress``)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream if stream is not None else sys.stderr

    def on_chunk(self, event: ChunkEvent) -> None:
        prefix = f"[{event.completed}/{event.total}] {event.scenario} chunk {event.chunk_index + 1}/{event.num_chunks}"
        if event.failure is not None:
            line = f"{prefix}: FAILED {event.failure.error}"
        else:
            delta = event.cache_delta
            line = (
                f"{prefix}: {event.num_rows} rows (worker {event.worker_id}, "
                f"+{delta.get('hits', 0)} hits, +{delta.get('misses', 0)} misses) "
                f"{event.seconds:.3f}s"
            )
            if event.predicted_seconds is not None:
                line += f" (predicted {event.predicted_seconds:.3f}s)"
        self._stream.write(line + "\n")
        self._stream.flush()


Progress = Union[ProgressListener, Callable[[ChunkEvent], None], None]


def as_listener(progress: Progress) -> ProgressListener:
    """Normalize a listener, a bare callable, or ``None`` into a listener."""
    if progress is None:
        return ProgressListener()
    if isinstance(progress, ProgressListener):
        return progress
    return _CallbackListener(progress)


def effective_cpu_count() -> int:
    """CPUs actually *available to this process*, not merely installed.

    Prefers ``os.process_cpu_count()`` (3.13+), then the scheduler-affinity
    mask (which reflects cgroup/cpuset limits on Linux CI runners), and only
    then ``os.cpu_count()`` — the machine-wide count that over-reports
    inside containers.
    """
    counter = getattr(os, "process_cpu_count", None)  # 3.13+
    if counter is not None:
        count = counter()
        if count:
            return int(count)
    affinity = getattr(os, "sched_getaffinity", None)  # cgroup/cpuset-aware
    if affinity is not None:
        try:
            count = len(affinity(0))
        except OSError:  # pragma: no cover - platform-dependent
            count = 0
        if count:
            return count
    return os.cpu_count() or 1


def pool_worker_count(pool: Any) -> int:
    """The number of workers the executor was *actually* constructed with.

    Chunk planning must match the pool that runs the chunks —
    ``ProcessPoolExecutor``'s default worker count is not necessarily
    ``os.cpu_count()`` (e.g. ``os.process_cpu_count()`` on 3.13, or a
    cgroup-limited CI runner), so the count is read off the constructed pool
    (or, for a :class:`~repro.experiments.launchers.Launcher`, asked of the
    launcher) rather than re-derived.  Opaque executors without a
    ``_max_workers`` attribute fall back to :func:`effective_cpu_count` —
    the process-available count, not the machine-wide one.
    """
    counter = getattr(pool, "worker_count", None)
    if callable(counter):
        return int(counter())
    width = getattr(pool, "_max_workers", None)
    if width:
        return int(width)
    return effective_cpu_count()


class ChunkCollector:
    """Accumulates one scenario's chunk events: results by chunk index plus failures.

    Completed chunks are keyed by chunk index, so :meth:`rows` concatenates
    in grid order no matter when the chunks finished — or in how many
    submission waves they arrived (a probe wave, then the rest).  This is
    the per-scenario accumulator of :class:`~repro.experiments.sweep.PoolRun`.
    """

    def __init__(self) -> None:
        self.results: Dict[int, Any] = {}
        self.failures: list = []

    def record(self, event: "ChunkEvent") -> None:
        if event.failure is not None:
            self.failures.append(event.failure)
        else:
            self.results[event.chunk_index] = event.result

    @property
    def completed(self) -> list:
        """The completed :class:`ChunkResult`-likes, in chunk order."""
        return [self.results[index] for index in sorted(self.results)]

    def rows(self) -> list:
        """Surviving rows in grid order (failed chunks' spans missing)."""
        return [row for result in self.completed for row in result.rows]


class _ChunkEventStream:
    """Shared sync/async core: settles futures into emitted :class:`ChunkEvent`s."""

    def __init__(self, tasks: Sequence[ChunkTask], progress: Progress, fail_fast: bool):
        self.tasks = list(tasks)
        self.listener = as_listener(progress)
        self.fail_fast = bool(fail_fast)
        self.total = len(self.tasks)
        self.completed = 0
        self._snapshots: Dict[str, Dict[str, Any]] = {}

    def settle(
        self, task: ChunkTask, result: Optional[Any], exc: Optional[BaseException]
    ) -> tuple:
        """Build and emit the event for one settled future.

        Returns ``(event, abort)`` where ``abort`` is the
        :class:`SweepAborted` to raise (``fail_fast`` only) or ``None``.
        """
        self.completed += 1
        if exc is None:
            event = ChunkEvent(
                scenario=task.scenario,
                chunk_index=task.chunk_index,
                num_chunks=task.num_chunks,
                num_rows=len(result.rows),
                worker_id=str(result.worker_id),
                cache_delta=self._delta(str(result.worker_id), result.cache_stats),
                result=result,
                completed=self.completed,
                total=self.total,
                seconds=float(getattr(result, "seconds", 0.0)),
                predicted_seconds=task.predicted_seconds,
            )
            abort = None
        else:
            failure = ChunkFailure(
                scenario=task.scenario,
                chunk_index=task.chunk_index,
                num_chunks=task.num_chunks,
                num_points=task.num_points,
                error=f"{type(exc).__name__}: {exc}",
                traceback="".join(
                    traceback_module.format_exception(type(exc), exc, exc.__traceback__)
                ),
            )
            event = ChunkEvent(
                scenario=task.scenario,
                chunk_index=task.chunk_index,
                num_chunks=task.num_chunks,
                num_rows=0,
                worker_id="",
                failure=failure,
                completed=self.completed,
                total=self.total,
            )
            abort = SweepAborted(failure) if self.fail_fast else None
        self.listener.on_chunk(event)
        return event, abort

    def _delta(self, worker_id: str, stats: Dict[str, Any]) -> Dict[str, int]:
        """Counter growth of this worker's cache since its previous chunk."""
        previous = self._snapshots.get(worker_id, {})
        self._snapshots[worker_id] = dict(stats)
        return {
            key: int(stats.get(key, 0)) - int(previous.get(key, 0))
            for key in ("hits", "misses", "entries")
        }

    def cancel_pending(self) -> None:
        """Cancel every not-yet-running future (fail-fast early abort)."""
        for task in self.tasks:
            task.future.cancel()


def iter_chunk_events(
    tasks: Iterable[ChunkTask], progress: Progress = None, fail_fast: bool = False
) -> Iterator[ChunkEvent]:
    """Yield a :class:`ChunkEvent` per settled chunk, in completion order.

    Failures become events carrying a :class:`ChunkFailure`; with
    ``fail_fast=True`` the first failure cancels every outstanding future
    and raises :class:`SweepAborted` (after yielding the failure's event).
    """
    tasks = list(tasks)
    stream = _ChunkEventStream(tasks, progress, fail_fast)
    by_future = {task.future: task for task in tasks}
    for future in as_completed(by_future):
        task = by_future[future]
        try:
            result, exc = future.result(), None
        except Exception as caught:  # broad by design: isolation is the point
            result, exc = None, caught
        event, abort = stream.settle(task, result, exc)
        yield event
        if abort is not None:
            stream.cancel_pending()
            raise abort


async def aiter_chunk_events(
    tasks: Iterable[ChunkTask], progress: Progress = None, fail_fast: bool = False
):
    """Async variant of :func:`iter_chunk_events` (same events, same order rules).

    Pool futures are wrapped into awaitables, so a service can consume a
    sweep without blocking its event loop between chunk completions.
    """
    import asyncio  # only the async path needs it; keep it off the report's imports

    tasks = list(tasks)
    stream = _ChunkEventStream(tasks, progress, fail_fast)

    async def _settle(task: ChunkTask):
        try:
            return task, await asyncio.wrap_future(task.future), None
        except Exception as caught:  # broad by design: isolation is the point
            return task, None, caught

    pending = {asyncio.ensure_future(_settle(task)) for task in tasks}
    try:
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for settled in done:
                task, result, exc = settled.result()
                event, abort = stream.settle(task, result, exc)
                yield event
                if abort is not None:
                    stream.cancel_pending()
                    raise abort
    finally:
        for leftover in pending:
            leftover.cancel()
