"""Sweep sharding: scenario parameter grids compiled into worker-sized chunks.

The scenario registry (:mod:`repro.experiments.runner`) historically treated a
whole scenario as the unit of parallel work, so one 256-point sweep pinned a
single core while the rest of the pool idled.  This module makes the *sweep
point* the unit instead:

* a :class:`~repro.experiments.runner.SweepSpec` attached to a scenario
  declares which builder keyword carries the parameter grid (channel
  strengths, ``(n, r, t)`` tuples, path lengths, topology descriptors) and
  how the default grid is derived; it lives beside ``Scenario`` so that
  registering scenarios never imports this module, and is re-exported here;
* the planners compile the grid into contiguous chunks: the static
  equal-count fallback (:func:`resolve_chunk_size` + :func:`partition_points`)
  and the cost-model-driven :func:`plan_chunks`, which sizes *variable-width*
  chunks so every chunk carries roughly equal **predicted wall time** — the
  fix for heterogeneous grids, where one expensive equal-count chunk would
  serialize the tail of the sweep;
* :func:`run_sweep_chunk` — the process-pool entry point — rebuilds the rows
  of one chunk through the scenario's ordinary builder, on a worker-local
  :class:`~repro.engine.core.Engine` that is reused (cache and all) across
  every chunk the worker receives, timing the builder call so measured
  per-point costs flow back into the cost book
  (:mod:`repro.experiments.costmodel`);
* :class:`PoolRun` is the one pooled dispatch core behind both
  :class:`~repro.experiments.runner.ExperimentRunner` (``parallel=True`` and
  ``stream()``) and :func:`run_sweep_sharded`: it resolves and owns the
  launcher, delivers the operator pack, plans every grid in one precedence
  order (pinned size, then cost-book history, then the static plan), submits
  chunks and whole-scenario tasks, drains their events (sync or async) into
  per-scenario collectors, and feeds measured chunk times back into the cost
  book;
* :func:`run_sweep_sharded` runs one swept scenario on its own
  :class:`PoolRun`, probing a cold grid with one small chunk per worker
  before planning the rest, and merges the per-worker operator-cache
  counters into one auditable stats block.

Because chunks are evaluated by the same builder that serial runs call —
and chunks are always *contiguous grid slices* regardless of which planner
sized them — a sharded sweep returns exactly the rows of the serial sweep
under any chunking; that parity is what the regression tests and the
benchmark harness pin down.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.cache import OperatorPack
from repro.exceptions import ProtocolError
from repro.experiments.costmodel import CostModel
from repro.experiments.launchers import (
    ExecutorLauncher,
    Launcher,
    get_launcher,
    init_sweep_worker,
    next_pool_generation,
    worker_token,
)
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import SweepSpec, check_pool_sizes
from repro.lint.sanitize import maybe_probe
from repro.experiments.streaming import (
    ChunkCollector,
    ChunkEvent,
    ChunkFailure,
    ChunkTask,
    Progress,
    aiter_chunk_events,
    iter_chunk_events,
    pool_worker_count,
)

#: Back-compat alias: the initializer moved to
#: :mod:`repro.experiments.launchers` with the rest of the worker-token
#: machinery; caller-built pools keep importing it from here.
_init_sweep_worker = init_sweep_worker

__all__ = [  # noqa: F822 - re-exports keep the pre-launcher import surface
    "CHUNKS_PER_WORKER",
    "MIN_POINTS_PER_CHUNK",
    "PROBE_CHUNK_POINTS",
    "ChunkResult",
    "PoolRun",
    "ShardedSweepResult",
    "SweepSpec",
    "_init_sweep_worker",
    "check_pool_sizes",
    "merge_worker_stats",
    "next_pool_generation",
    "partition_points",
    "plan_chunks",
    "resolve_chunk_size",
    "run_scenario_task",
    "run_sweep_chunk",
    "run_sweep_sharded",
    "submit_sweep_chunks",
    "worker_token",
]

#: Chunks dispatched per worker when no explicit chunk size is given; a few
#: chunks per worker keeps the pool load-balanced without drowning it in
#: pickling overhead.
CHUNKS_PER_WORKER = 4

#: Minimum points per *planned* chunk (explicit ``chunk_size`` overrides are
#: honoured verbatim): tiny sweeps used to shatter into 1-point chunks whose
#: per-chunk pool overhead (pickling, dispatch, result transport) dominates
#: the work itself.
MIN_POINTS_PER_CHUNK = 2

#: Points per probe chunk when a cold grid is measured in-run.
PROBE_CHUNK_POINTS = 2


def partition_points(points: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Contiguous chunks of at most ``chunk_size`` points, in grid order."""
    if chunk_size < 1:
        raise ProtocolError("sweep chunk size must be at least 1")
    points = list(points)
    return [points[start : start + chunk_size] for start in range(0, len(points), chunk_size)]


def resolve_chunk_size(
    spec: SweepSpec, num_points: int, num_workers: int, override: Optional[int] = None
) -> int:
    """The chunk size for a sweep: explicit override, spec default, or planned.

    The planned size aims at :data:`CHUNKS_PER_WORKER` chunks per worker so a
    slow chunk cannot serialize the tail of the sweep, but never drops below
    :data:`MIN_POINTS_PER_CHUNK` points (clamped to the grid size): a tiny
    sweep split into 1-point chunks pays more in per-chunk pool overhead
    than the points cost to evaluate.  Explicit sizes (the ``override``
    argument or a pinned ``spec.chunk_size``) are honoured verbatim — a
    caller that pins 1-point chunks gets 1-point chunks.
    """
    if override is not None:
        return int(override)
    if spec.chunk_size is not None:
        return int(spec.chunk_size)
    target_chunks = max(int(num_workers), 1) * CHUNKS_PER_WORKER
    floor = min(MIN_POINTS_PER_CHUNK, max(int(num_points), 1))
    return max(floor, -(-num_points // target_chunks))


def plan_chunks(
    points: Sequence[Any],
    costs: Optional[Sequence[float]] = None,
    target_chunks: int = 1,
    min_points: int = 1,
) -> List[List[Any]]:
    """Contiguous variable-width chunks equalizing *predicted* wall time.

    ``costs`` carries one predicted cost per point (any non-negative unit);
    the planner walks the grid in order, cutting a chunk boundary whenever
    the running cost reaches an equal share of the remaining total — so an
    expensive stretch of the grid yields narrow chunks and a cheap stretch
    yields wide ones, and every chunk lands near ``total / target_chunks``
    predicted seconds.  Chunks are always contiguous slices in grid order,
    which is what keeps sharded reassembly byte-identical to serial runs.

    With ``costs=None`` (or all-equal costs) the plan degenerates to the
    static equal-count split.  Every chunk gets at least ``min_points``
    points (except the last, which takes whatever remains).
    """
    points = list(points)
    num_points = len(points)
    if num_points == 0:
        return []
    min_points = max(1, int(min_points))
    target = max(1, min(int(target_chunks), -(-num_points // min_points)))
    if costs is None:
        return partition_points(points, max(min_points, -(-num_points // target)))
    if len(costs) != num_points:
        raise ProtocolError(
            f"plan_chunks needs one cost per point: {len(costs)} costs for "
            f"{num_points} points"
        )
    # Zero/negative predictions would let a chunk swallow the whole tail;
    # clamp to a tiny positive cost so every point advances the budget.
    floor_cost = max(max(costs) * 1e-6, 1e-12)
    clamped = [max(float(cost), floor_cost) for cost in costs]
    chunks: List[List[Any]] = []
    start = 0
    remaining_cost = sum(clamped)
    for slots_left in range(target, 0, -1):
        if start >= num_points:
            break
        if slots_left == 1:
            chunks.append(points[start:])
            start = num_points
            break
        ideal = remaining_cost / slots_left
        # Leave at least min_points for each remaining slot (the final slot
        # takes the tail, so it is exempt from the floor).
        max_end = max(start + 1, num_points - (slots_left - 1) * min_points)
        end = start
        accumulated = 0.0
        while end < max_end:
            cost = clamped[end]
            if end - start >= min_points and accumulated + cost > ideal:
                # Cut wherever lands closer to the equal share.
                if (accumulated + cost - ideal) > (ideal - accumulated):
                    break
                accumulated += cost
                end += 1
                break
            accumulated += cost
            end += 1
        chunks.append(points[start:end])
        remaining_cost -= accumulated
        start = end
    return chunks


@dataclass(frozen=True)
class ChunkResult:
    """Rows of one evaluated chunk plus the evaluating worker's cache counters.

    ``cache_stats`` is a cumulative snapshot of the worker's default-engine
    :class:`~repro.engine.cache.OperatorCache` taken *after* the chunk ran;
    snapshots from the same ``worker_id`` supersede each other (the counters
    only grow), which is what :func:`merge_worker_stats` relies on.
    ``worker_id`` is the per-worker token minted by :func:`_init_sweep_worker`
    (pool generation + pid), so two pools — or a respawned worker reusing a
    pid — can never alias each other's snapshots.

    ``seconds`` is the in-worker wall time of the builder call (the cost
    model's raw measurement — pool dispatch overhead excluded by design) and
    ``num_points`` the number of grid points the chunk carried.
    """

    rows: List[ExperimentRow]
    worker_id: str
    cache_stats: Dict[str, Any]
    seconds: float = 0.0
    num_points: int = 0


@dataclass(frozen=True)
class ShardedSweepResult:
    """A reassembled sharded sweep: rows in grid order plus execution metadata.

    ``failures`` holds one :class:`~repro.experiments.streaming.ChunkFailure`
    per failed chunk; ``rows`` then carries the surviving chunks' rows (still
    in grid order, with the failed chunks' spans missing).
    """

    name: str
    rows: List[ExperimentRow]
    num_points: int
    num_chunks: int
    worker_stats: Dict[str, Any] = field(default_factory=dict)
    failures: Tuple[ChunkFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether every chunk completed."""
        return not self.failures


def _evaluate(
    build: Callable[[], Sequence[ExperimentRow]],
    pack: Optional[OperatorPack],
    num_points: int = 0,
) -> ChunkResult:
    """Run one pool task on the worker's engine: seed, time, snapshot."""
    from repro.engine.core import default_engine

    engine = default_engine()
    if pack is not None:
        engine.cache.preload(pack)
    start = time.perf_counter()
    rows = list(build())
    seconds = time.perf_counter() - start
    return ChunkResult(
        rows=rows,
        worker_id=worker_token(),
        cache_stats=engine.cache.stats().as_dict(),
        seconds=seconds,
        num_points=num_points,
    )


def run_sweep_chunk(
    name: str,
    points: Sequence[Any],
    overrides: Optional[Mapping[str, Any]] = None,
    pack: Optional[OperatorPack] = None,
) -> ChunkResult:
    """Evaluate one chunk of a swept scenario (the process-pool entry point).

    The chunk rides the scenario's ordinary builder with the grid keyword
    restricted to ``points``, evaluating on the worker's process-wide engine
    so repeated chunks in one worker share the operator cache.  The builder
    call is timed (in-worker wall time, the cost model's raw measurement).
    A ``pack`` argument seeds the worker's cache before the builder runs
    (keys the worker already owns are skipped) — how a caller-owned
    launcher, initialized before the pack existed, receives it.
    """
    from repro.experiments.runner import get_scenario

    scenario = get_scenario(name)
    if scenario.sweep is None:
        raise ProtocolError(f"scenario {name!r} declares no sweep grid")
    kwargs = {**dict(scenario.kwargs), **dict(overrides or {})}
    kwargs[scenario.sweep.grid_param] = list(points)
    return _evaluate(lambda: scenario.builder(**kwargs), pack, len(list(points)))


def run_scenario_task(
    name: str,
    overrides: Optional[Mapping[str, Any]] = None,
    pack: Optional[OperatorPack] = None,
) -> ChunkResult:
    """Evaluate a whole scenario as a single pool task (``pack`` as for chunks)."""
    from repro.experiments.runner import get_scenario

    return _evaluate(lambda: get_scenario(name).run(**dict(overrides or {})), pack)


def submit_sweep_chunks(
    pool: Union[Launcher, Executor],
    name: str,
    chunks: Sequence[Sequence[Any]],
    overrides: Optional[Mapping[str, Any]] = None,
    predicted: Optional[Sequence[Optional[float]]] = None,
    pack: Optional[OperatorPack] = None,
    index_offset: int = 0,
    total_chunks: Optional[int] = None,
) -> List[ChunkTask]:
    """Submit one scenario's chunks as streaming-tagged launcher tasks.

    ``pool`` is a :class:`~repro.experiments.launchers.Launcher` (a raw
    executor is adapted on the fly).  ``predicted`` attaches the planner's
    per-chunk wall-time predictions to the tasks (surfaced on their
    events); ``index_offset``/``total_chunks`` place a later submission
    wave (probe re-planning) after an earlier one in the scenario's global
    chunk numbering.
    """
    launcher = pool if isinstance(pool, Launcher) else ExecutorLauncher(pool)
    total = total_chunks if total_chunks is not None else index_offset + len(chunks)
    # Sanitizer pickle probe (no-op unless REPRO_SANITIZE armed it): fail at
    # submission, naming the scenario, instead of deep inside a pool worker.
    for index, chunk in enumerate(chunks):
        maybe_probe(
            (run_sweep_chunk, name, chunk, overrides, pack),
            context=f"scenario {name!r} chunk {index_offset + index}",
        )
    return [
        ChunkTask(
            future=launcher.submit_chunk(run_sweep_chunk, name, chunk, overrides, pack),
            scenario=name,
            chunk_index=index_offset + index,
            num_chunks=total,
            num_points=len(chunk),
            predicted_seconds=None if predicted is None else predicted[index],
        )
        for index, chunk in enumerate(chunks)
    ]


def _progress(stats: Mapping[str, Any]) -> int:
    return int(stats.get("hits", 0)) + int(stats.get("misses", 0))


#: Counter keys summed across workers by :func:`merge_worker_stats`.
_MERGED_COUNTERS = ("hits", "misses", "entries", "evictions", "preloaded", "pack_hits")


def merge_worker_stats(results: Sequence[ChunkResult]) -> Dict[str, Any]:
    """Merge per-chunk cache snapshots into one per-pool stats block.

    Snapshots are cumulative per worker (keyed by the generation+pid token,
    so pid reuse across pools cannot alias two workers), so only the most
    advanced snapshot of each worker counts; the merged block sums those
    finals across workers and therefore satisfies ``hits + misses >= entries``.
    ``preloaded``/``pack_hits`` ride along, so a pack-seeded pool's saved
    re-warming is visible in the merged block.
    """
    latest: Dict[str, Mapping[str, Any]] = {}
    for result in results:
        current = latest.get(result.worker_id)
        if current is None or _progress(result.cache_stats) >= _progress(current):
            latest[result.worker_id] = result.cache_stats
    merged: Dict[str, Any] = {key: 0 for key in _MERGED_COUNTERS}
    for stats in latest.values():
        for key in _MERGED_COUNTERS:
            merged[key] += int(stats.get(key, 0))
    total = merged["hits"] + merged["misses"]
    merged["hit_rate"] = merged["hits"] / total if total else 0.0
    merged["workers"] = len(latest)
    return merged


class PoolRun:
    """One pooled execution: the decisions every pooled entry point makes.

    * **Launcher** — a registry name (or ``None``: ``REPRO_LAUNCHER``, then
      the process pool) builds a launcher this run owns and shuts down in
      :meth:`close`; a :class:`~repro.experiments.launchers.Launcher`
      instance stays the caller's.
    * **Operator pack** — a launcher built here receives the pack at
      construction; a caller-owned one was initialized without it, so the
      pack rides every task, chunk or whole scenario (workers adopt it once;
      later preloads skip keys already present).
    * **Planning** — :meth:`plan`, the one precedence order.
    * **Draining** — :meth:`drain` / :meth:`aevents` settle the tasks
      submitted since the last drain into one
      :class:`~repro.experiments.streaming.ChunkCollector` per scenario.
    * **Cost feedback** — each completed sweep chunk's measured seconds feed
      the cost model as it settles (so a probe wave informs the next plan);
      :meth:`save_costs` persists the book once the caller's run succeeded,
      so a ``fail_fast`` abort saves nothing.
    """

    def __init__(
        self,
        launcher: Union[str, Launcher, None] = None,
        max_workers: Optional[int] = None,
        operator_pack: Optional[OperatorPack] = None,
        adaptive: bool = True,
        cost_book: Optional[str] = None,
        progress: Progress = None,
        fail_fast: bool = False,
    ):
        self.owned = not isinstance(launcher, Launcher)
        self.launcher = get_launcher(launcher, max_workers=max_workers, operator_pack=operator_pack)
        self.pack = None if self.owned else operator_pack
        #: Width of the launcher actually constructed: its default can differ
        #: from os.cpu_count() (cgroup limits, 3.13's process_cpu_count), and
        #: a supplied executor has its own.
        self.workers = pool_worker_count(self.launcher)
        self.model = CostModel.load(cost_book) if adaptive else None
        self.cost_book = cost_book
        self.progress = progress
        self.fail_fast = bool(fail_fast)
        self.collectors: Dict[str, ChunkCollector] = {}
        self._pending: List[ChunkTask] = []
        self._chunk_points: Dict[Tuple[str, int], List[Any]] = {}
        self._observed = 0

    def plan(
        self,
        name: str,
        spec: SweepSpec,
        points: Sequence[Any],
        workers: int,
        chunk_size: Optional[int] = None,
        probes: int = 0,
    ) -> Tuple[List[List[Any]], Optional[List[float]]]:
        """``(chunks, predicted seconds)`` of a grid: the one planning order.

        A pinned size (``chunk_size`` or ``spec.chunk_size``) gives the
        static equal-count plan; otherwise cost-book history cuts
        variable-width chunks of equal predicted wall time, aiming at
        ``max(workers, workers * CHUNKS_PER_WORKER - probes)`` chunks
        (``probes`` counts chunks already run by a probe wave); a grid with
        no history gets the static plan.  Predictions ride whenever the book
        has history for ``name``, pinned plans included.
        """
        costs = None if self.model is None else self.model.predict_points(name, points)
        if costs is None or _pinned(spec, chunk_size):
            chunks = partition_points(points, resolve_chunk_size(spec, len(points), workers, chunk_size))
        else:
            target = max(workers, workers * CHUNKS_PER_WORKER - probes)
            chunks = plan_chunks(points, costs, target, MIN_POINTS_PER_CHUNK)
        if costs is None:
            return chunks, None
        unplanned = iter(costs)
        return chunks, [sum(next(unplanned) for _ in chunk) for chunk in chunks]

    def submit_chunks(
        self,
        name: str,
        chunks: Sequence[Sequence[Any]],
        overrides: Optional[Mapping[str, Any]] = None,
        predicted: Optional[Sequence[Optional[float]]] = None,
        index_offset: int = 0,
        total_chunks: Optional[int] = None,
    ) -> None:
        """Submit a swept scenario's chunks (see :func:`submit_sweep_chunks`)."""
        self.collectors.setdefault(name, ChunkCollector())
        tasks = submit_sweep_chunks(
            self.launcher, name, chunks, overrides, predicted, self.pack, index_offset, total_chunks
        )
        for task, chunk in zip(tasks, chunks):
            self._chunk_points[name, task.chunk_index] = list(chunk)
        self._pending.extend(tasks)

    def submit_scenario(
        self, name: str, overrides: Optional[Mapping[str, Any]] = None, num_points: int = 0
    ) -> None:
        """Submit a whole scenario as one task (measured, but not cost-booked)."""
        self.collectors.setdefault(name, ChunkCollector())
        maybe_probe(
            (run_scenario_task, name, overrides, self.pack),
            context=f"scenario {name!r} task payload",
        )
        future = self.launcher.submit_chunk(run_scenario_task, name, overrides, self.pack)
        self._pending.append(ChunkTask(future, name, chunk_index=0, num_chunks=1, num_points=num_points))

    def drain(self) -> None:
        """Settle the tasks submitted since the last drain (``fail_fast`` aborts raise)."""
        tasks, self._pending = self._pending, []
        for event in iter_chunk_events(tasks, progress=self.progress, fail_fast=self.fail_fast):
            self._record(event)

    async def aevents(self):
        """Async :meth:`drain` yielding each event (the event loop stays free in between)."""
        tasks, self._pending = self._pending, []
        async for event in aiter_chunk_events(tasks, progress=self.progress, fail_fast=self.fail_fast):
            self._record(event)
            yield event

    def _record(self, event: ChunkEvent) -> None:
        self.collectors[event.scenario].record(event)
        points = self._chunk_points.get((event.scenario, event.chunk_index))
        if event.ok and self.model is not None and points is not None:
            self.model.observe(event.scenario, points, event.seconds)
            self._observed += 1

    def completed(self) -> List[ChunkResult]:
        """Every completed task's result: scenarios in submission order, chunks in order."""
        return [result for collector in self.collectors.values() for result in collector.completed]

    def save_costs(self) -> None:
        """Persist the cost book when this run measured anything."""
        if self.model is not None and self._observed:
            self.model.save(self.cost_book)

    def close(self) -> None:
        """Shut the launcher down if this run built it (outstanding tasks cancelled)."""
        if self.owned:
            self.launcher.shutdown(wait=True, cancel_futures=True)

    async def aclose(self) -> None:
        """:meth:`close` off the event loop.

        A chunk may still be running (early break, ``fail_fast`` abort), and
        a blocking shutdown would stall every other coroutine until it ends.
        """
        import asyncio

        await asyncio.to_thread(self.close)


def _pinned(spec: SweepSpec, chunk_size: Optional[int]) -> bool:
    """Whether an explicit chunk size (argument or spec) pins the static plan."""
    return chunk_size is not None or spec.chunk_size is not None


def run_sweep_sharded(
    name: str,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    executor: Optional[Executor] = None,
    launcher: Union[str, Launcher, None] = None,
    progress: Progress = None,
    fail_fast: bool = False,
    adaptive: bool = True,
    cost_book: Optional[str] = None,
    operator_pack: Optional[OperatorPack] = None,
    **overrides,
) -> ShardedSweepResult:
    """Run one swept scenario with its grid chunked across a launcher.

    ``overrides`` reach the builder exactly as in
    :func:`~repro.experiments.runner.run_scenario` (an explicit grid override
    is honoured and then chunked); a keyword the builder does not accept, or
    a ``chunk_size``/``max_workers`` below 1, raises
    :class:`~repro.exceptions.ProtocolError` before anything is dispatched.

    **Dispatch** goes through a :class:`PoolRun`: ``launcher`` names a
    registered backend (``serial`` / ``threads`` / ``process-pool`` /
    ``subprocess``; ``None`` falls back to ``REPRO_LAUNCHER`` then the
    process-pool default) or passes an already-constructed instance, whose
    lifecycle then stays with the caller.  The legacy ``executor`` argument
    still accepts a caller-owned pool — it must have been created with
    :func:`_init_sweep_worker` as initializer for per-worker stats to start
    from zero — and is mutually exclusive with ``launcher``.  An
    ``operator_pack`` seeds every worker's operator cache (at construction
    for a launcher built here, with every chunk for a caller-owned one).

    **Planning** follows :meth:`PoolRun.plan`: a pinned chunk size, then
    cost-book history (with ``adaptive=True``, the default), then the
    static plan.  A cold grid (no cost-book history, no pin) first
    dispatches a wave of small *probe* chunks — one per worker — and plans
    the remaining points from the measured rates; grids too small to be
    worth probing, and runs with ``adaptive=False``, use the static plan.
    Every completed chunk's measured wall time feeds back into the cost
    book (EWMA per scenario + point signature), so the *next* run plans
    from history immediately.

    Chunks are consumed as they complete: every settled chunk fires a
    :class:`~repro.experiments.streaming.ChunkEvent` at ``progress``
    (carrying measured and predicted seconds), rows are reassembled in grid
    order regardless of completion order — chunks are contiguous grid
    slices under every planner, so the rows are byte-identical to a serial
    run — and a failing chunk is recorded as a :class:`ChunkFailure` on the
    result (its siblings keep their rows) — unless ``fail_fast=True``,
    which cancels the outstanding chunks and raises
    :class:`~repro.experiments.streaming.SweepAborted` instead.
    """
    from repro.experiments.runner import get_scenario

    scenario = get_scenario(name)
    if scenario.sweep is None:
        raise ProtocolError(f"scenario {name!r} declares no sweep grid")
    if executor is not None and launcher is not None:
        raise ProtocolError("pass either executor= or launcher=, not both")
    check_pool_sizes(chunk_size, max_workers)
    scenario.check_overrides(overrides)
    points = scenario.grid_points(**overrides)
    pool = PoolRun(
        ExecutorLauncher(executor) if executor is not None else launcher,
        max_workers=max_workers,
        operator_pack=operator_pack,
        adaptive=adaptive,
        cost_book=cost_book,
        progress=progress,
        fail_fast=fail_fast,
    )
    probes: List[List[Any]] = []
    try:
        span = pool.workers * PROBE_CHUNK_POINTS
        if (
            pool.model is not None
            and not _pinned(scenario.sweep, chunk_size)
            and not pool.model.has_history(name)
            and len(points) > 2 * span  # tiny grids: probing buys nothing
        ):
            probes = partition_points(points[:span], PROBE_CHUNK_POINTS)
            pool.submit_chunks(name, probes, overrides)
            pool.drain()
        rest = points[span:] if probes else points
        chunks, predicted = pool.plan(
            name, scenario.sweep, rest, pool.workers, chunk_size, probes=len(probes)
        )
        num_chunks = len(probes) + len(chunks)
        pool.submit_chunks(name, chunks, overrides, predicted, len(probes), num_chunks)
        pool.drain()
    finally:
        pool.close()
    pool.save_costs()
    collector = pool.collectors[name]
    return ShardedSweepResult(
        name=name,
        rows=collector.rows(),
        num_points=len(points),
        num_chunks=num_chunks,
        worker_stats=merge_worker_stats(pool.completed()),
        failures=tuple(collector.failures),
    )
