"""Unified experiment runner: a scenario registry with sharded parallelism.

Every table and figure of the paper is registered here as a named *scenario*
(a module-level callable returning :class:`ExperimentRow` records plus a
display title).  Scenarios that are parameter sweeps additionally declare a
:class:`SweepSpec` naming their grid, which lets the
:class:`ExperimentRunner` parallelize at *sweep-point* granularity: grids are
compiled into chunks, chunks are dispatched across a process pool whose
workers each keep one engine (and operator cache) alive for their lifetime,
and rows are reassembled in deterministic grid order — so a single 256-point
sweep saturates the pool instead of pinning one core.  The pooled path runs
on :class:`~repro.experiments.sweep.PoolRun`, which owns the launcher, the
operator pack, chunk planning and the cost book; the runner only submits
each scenario, drains the events and assembles per-scenario results.  The
pooled stack (sweep, streaming, launchers, cost model) is imported by the
methods that use it, so a serial run never loads it.

Failures are isolated per *chunk* on the pooled path: a crashing chunk is
recorded as a :class:`~repro.experiments.streaming.ChunkFailure` while its
siblings keep their rows (a :class:`PartialScenarioResult`); a scenario with
no surviving chunks — or a serial crash — yields a :class:`ScenarioFailure`
entry (rendered as a failed section) instead of aborting the whole report.
Chunk futures are consumed as they complete, with per-chunk progress events
and optional fail-fast cancellation; ``stream()``/``run_async()`` expose the
same execution asynchronously for service embedding.

Usage::

    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(["table1", "table2", "crossover"])
    results = runner.run()                 # OrderedDict name -> rows
    print(runner.render(results))          # formatted text tables

    ExperimentRunner(parallel=True).run()  # every scenario, sharded pool
"""

from __future__ import annotations

import inspect
import traceback as traceback_module
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ProtocolError
from repro.experiments.crossover import (
    crossover_default_lengths,
    crossover_sweep,
    find_crossover,
    long_path_default_lengths,
    long_path_sweep,
)
from repro.experiments.noise_robustness import (
    channel_comparison,
    default_channel_names,
    default_noise_strengths,
    path_noise_sweep,
    relay_noise_sweep,
    tree_noise_sweep,
)
from repro.experiments.noisy_soundness import (
    channel_family_soundness_sweep,
    default_channel_strength_points,
    default_collapse_strengths,
    default_noisy_path_lengths,
    gap_collapse_sweep,
    path_length_soundness_sweep,
)
from repro.experiments.records import ExperimentRow, format_rows
from repro.experiments.soundness_scaling import (
    default_path_lengths,
    default_repetition_counts,
    repetition_curve,
    soundness_scaling_sweep,
)
from repro.experiments.topologies import (
    default_noise_topologies,
    default_soundness_topologies,
    topology_noise_sweep,
    topology_soundness_sweep,
)
from repro.experiments.tree_soundness import (
    network_zoo,
    one_way_tree_soundness_sweep,
    tree_soundness_sweep,
)
from repro.experiments.table1 import (
    measured_fgnp21_costs,
    table1_default_grid,
    table1_rows,
)
from repro.experiments.table2 import (
    table2_default_grid,
    table2_rows,
    table2_verification_rows,
)
from repro.experiments.table3 import (
    consistency_default_grid,
    table3_default_grid,
    table3_rows,
    upper_vs_lower_consistency,
)

if TYPE_CHECKING:
    from repro.experiments.launchers import Launcher
    from repro.experiments.streaming import ChunkFailure, Progress
    from repro.experiments.sweep import PoolRun


def check_pool_sizes(
    chunk_size: Optional[int] = None, max_workers: Optional[int] = None
) -> None:
    """Reject a chunk size or worker count below 1 (``None`` lets the pool choose)."""
    for label, value in (("chunk_size", chunk_size), ("max_workers", max_workers)):
        if value is not None and value < 1:
            raise ProtocolError(f"{label} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Declares a scenario's parameter grid for sharded execution.

    Attributes
    ----------
    grid_param:
        Name of the builder keyword that carries the grid (``"strengths"``,
        ``"parameter_grid"``, ``"networks"``, ...).  Dispatch works by calling
        the scenario's builder with this keyword bound to a chunk of points.
    grid:
        Module-level callable returning the default grid.  It receives the
        subset of the scenario's resolved keyword arguments its signature
        accepts, so defaults may depend on other parameters (e.g. the
        tree-soundness network zoo depends on ``num_terminals``).
    chunk_size:
        Optional fixed chunk size (at least 1); when ``None`` the planner
        sizes chunks to the worker count
        (:data:`~repro.experiments.sweep.CHUNKS_PER_WORKER` chunks per
        worker).
    """

    grid_param: str
    grid: Callable[..., Sequence[Any]]
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_pool_sizes(chunk_size=self.chunk_size)

    def points(self, kwargs: Mapping[str, Any]) -> List[Any]:
        """The grid points this scenario will sweep under ``kwargs``.

        An explicit (non-``None``) grid in ``kwargs`` wins; otherwise the
        declared default-grid callable produces it.
        """
        explicit = kwargs.get(self.grid_param)
        if explicit is not None:
            return list(explicit)
        return list(self.grid(**_accepted_kwargs(self.grid, kwargs)))


def _accepted_kwargs(function: Callable, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """The subset of ``kwargs`` that ``function``'s signature accepts."""
    parameters = inspect.signature(function).parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in parameters}


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: a callable producing rows, plus display metadata."""

    name: str
    builder: Callable[..., List[ExperimentRow]]
    title: str
    description: str = ""
    kwargs: Mapping = field(default_factory=dict)
    #: Optional sweep declaration enabling sharded (point-level) parallelism.
    sweep: Optional[SweepSpec] = None

    def run(self, **overrides) -> List[ExperimentRow]:
        """Regenerate this scenario's rows (keyword overrides reach the builder)."""
        kwargs = {**dict(self.kwargs), **overrides}
        return list(self.builder(**kwargs))

    def grid_points(self, **overrides) -> Optional[List]:
        """The sweep grid under the resolved kwargs (``None`` when unswept)."""
        if self.sweep is None:
            return None
        return self.sweep.points({**dict(self.kwargs), **overrides})

    def check_overrides(self, overrides: Mapping) -> None:
        """Raise :class:`ProtocolError` naming override keywords the builder rejects.

        Every entry point calls this before dispatching any work, so a bad
        keyword fails the call instead of every chunk; a builder taking
        ``**kwargs`` accepts any keyword.
        """
        unknown = sorted(set(overrides) - set(_accepted_kwargs(self.builder, overrides)))
        if unknown:
            raise ProtocolError(
                f"scenario {self.name!r} does not accept override keyword(s) {unknown}"
            )


@dataclass(frozen=True)
class ScenarioFailure:
    """A captured per-scenario failure; sibling scenarios keep their rows.

    On the pooled path ``chunk_failures`` carries the underlying per-chunk
    failures (every chunk of the scenario failed — a scenario with surviving
    chunks becomes a :class:`PartialScenarioResult` instead).
    """

    name: str
    error: str
    traceback: str = ""
    chunk_failures: Tuple[ChunkFailure, ...] = ()


@dataclass(frozen=True)
class PartialScenarioResult:
    """A scenario whose chunks partially failed: surviving rows + failures.

    ``rows`` holds the completed chunks' rows in grid order (the failed
    chunks' spans are missing); ``failures`` records one
    :class:`~repro.experiments.streaming.ChunkFailure` per failed chunk.
    """

    name: str
    rows: List[ExperimentRow]
    failures: Tuple[ChunkFailure, ...] = ()


_REGISTRY: "OrderedDict[str, Scenario]" = OrderedDict()


def register_scenario(
    name: str,
    builder: Callable[..., List[ExperimentRow]],
    title: Optional[str] = None,
    description: str = "",
    sweep: Optional[SweepSpec] = None,
    **kwargs,
) -> Scenario:
    """Register (or replace) a scenario under ``name``.

    ``builder`` must be a module-level callable so scenarios stay picklable
    for the process-pool path; a ``sweep`` declaration opts the scenario into
    sharded execution (its ``grid`` callable must be module-level too).
    """
    scenario = Scenario(
        name=name,
        builder=builder,
        title=title if title is not None else name,
        description=description,
        kwargs=kwargs,
        sweep=sweep,
    )
    _REGISTRY[name] = scenario
    return scenario


def available_scenarios() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown experiment scenario {name!r}; available: {available_scenarios()}"
        ) from None


def run_scenario(name: str, **overrides) -> List[ExperimentRow]:
    """Regenerate one scenario's rows by name (the process-pool entry point)."""
    return get_scenario(name).run(**overrides)


ScenarioResult = Union[List[ExperimentRow], PartialScenarioResult, ScenarioFailure]


def failed_scenarios(results: Mapping[str, ScenarioResult]) -> List[str]:
    """Names of scenarios that failed fully or partially, in result order."""
    failed = []
    for name, value in results.items():
        if isinstance(value, ScenarioFailure):
            failed.append(name)
        elif isinstance(value, PartialScenarioResult) and value.failures:
            failed.append(name)
    return failed


class ExperimentRunner:
    """Run a set of registered scenarios, serially or sharded across a pool.

    With ``parallel=True`` every swept scenario is split into grid chunks and
    every unswept scenario becomes one dispatch task; all tasks share one
    :class:`~repro.experiments.sweep.PoolRun` and its
    :class:`~repro.experiments.launchers.Launcher` (``launcher`` names a
    registered backend — ``serial`` / ``threads`` / ``process-pool`` /
    ``subprocess`` — or passes a caller-owned instance; ``None`` resolves
    ``REPRO_LAUNCHER``, defaulting to the process pool, whose workers keep a
    single engine + operator cache alive across the chunks they execute).
    After a parallel run, :attr:`cache_stats` holds the merged per-worker
    cache counters (per-scenario attribution is not possible on a shared
    launcher — workers carry their caches from one scenario's chunks into
    the next; for stats attributable to a single sweep, use
    :func:`~repro.experiments.sweep.run_sweep_sharded`, which runs on a
    dedicated launcher).

    ``overrides`` maps scenario names to builder keyword overrides (the
    sweep service's submission payload rides this): they reach serial runs,
    grid planning, and dispatched chunks alike, so an overridden grid is
    chunked exactly like a declared one.  Unknown scenario names, override
    keywords the builder does not accept, and a ``chunk_size`` or
    ``max_workers`` below 1 raise :class:`~repro.exceptions.ProtocolError`
    here, before any work is dispatched.

    The pooled path is *streaming*: chunk futures are consumed as they
    complete, every settled chunk fires a
    :class:`~repro.experiments.streaming.ChunkEvent` at ``progress``, and
    the chunk — not the scenario — is the unit of failure.  A scenario with
    some failed chunks keeps its surviving rows as a
    :class:`PartialScenarioResult`; only a scenario with *no* surviving
    chunks degrades to a :class:`ScenarioFailure`.  ``fail_fast=True``
    instead cancels all outstanding chunks on the first failure and raises
    :class:`~repro.experiments.streaming.SweepAborted`.  Rows are always
    reassembled in deterministic grid order, byte-identical to serial runs,
    regardless of chunk completion order.  For service embedding,
    :meth:`stream` exposes the same execution as an async generator of
    events and :meth:`run_async` as an awaitable returning the result map.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        progress: Progress = None,
        fail_fast: bool = False,
        adaptive: bool = True,
        cost_book: Optional[str] = None,
        operator_pack=None,
        launcher: Union[str, Launcher, None] = None,
        overrides: Optional[Mapping[str, Mapping]] = None,
    ):
        self.names = list(scenarios) if scenarios is not None else available_scenarios()
        for name in self.names:
            get_scenario(name)  # fail fast on unknown names
        check_pool_sizes(chunk_size, max_workers)
        self.parallel = bool(parallel)
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: Launcher backend name, caller-owned instance, or ``None``
        #: (``REPRO_LAUNCHER`` env var, then the process-pool default).
        self.launcher = launcher
        #: Per-scenario builder keyword overrides (scenario name -> kwargs).
        self.overrides: Dict[str, Dict] = {
            name: dict(value) for name, value in dict(overrides or {}).items()
        }
        for name, keywords in self.overrides.items():
            get_scenario(name).check_overrides(keywords)
        #: Chunk-event listener (or bare callable) for pooled runs.
        self.progress = progress
        #: Cancel outstanding chunks and raise on the first chunk failure.
        self.fail_fast = bool(fail_fast)
        #: Plan swept scenarios from cost-book history when available (an
        #: explicit ``chunk_size`` — here or on the SweepSpec — still pins
        #: the static plan; ``adaptive=False`` disables the cost model
        #: entirely, including measurement recording).
        self.adaptive = bool(adaptive)
        #: Cost-book location override (``None``: ``REPRO_COST_BOOK`` env
        #: var, then ``.repro_costbook.json`` in the working directory).
        self.cost_book = cost_book
        #: Optional :class:`~repro.engine.cache.OperatorPack` seeding every
        #: pool worker's operator cache.
        self.operator_pack = operator_pack
        #: Pool-wide merged per-worker operator-cache counters of the last
        #: parallel run (empty after serial runs).
        self.cache_stats: Dict = {}
        #: Results of the last :meth:`stream`/:meth:`run_async` execution.
        self.last_results: Optional["OrderedDict[str, ScenarioResult]"] = None
        #: The pooled run in flight; :meth:`_plan` plans through it.
        self._pool: Optional[PoolRun] = None

    def run(self) -> "OrderedDict[str, ScenarioResult]":
        """Regenerate every selected scenario; results keep the selection order.

        A scenario that raises contributes a :class:`ScenarioFailure` value
        instead of aborting its siblings.
        """
        self.cache_stats = {}
        if self.parallel and self.names:
            pool = self._open_pool()
            try:
                prefailed = self._submit(pool)
                pool.drain()
            finally:
                pool.close()
            return self._assemble(pool, prefailed)
        results: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        for name in self.names:
            try:
                results[name] = run_scenario(name, **self.overrides.get(name, {}))
            except Exception as exc:  # broad by design: isolation is the point
                results[name] = _failure(name, exc)
        return results

    async def stream(self):
        """Run the pooled path, yielding a ChunkEvent per settled chunk.

        An async generator for service embedding: the event loop stays free
        between chunk completions.  After exhaustion the assembled results
        (same mapping :meth:`run` returns) are in :attr:`last_results` and
        the merged cache counters in :attr:`cache_stats`.  The pooled
        machinery is used regardless of :attr:`parallel` — streaming is
        inherently pool-based.
        """
        self.cache_stats = {}
        self.last_results = None
        pool = self._open_pool()
        try:
            prefailed = self._submit(pool)
            async for event in pool.aevents():
                yield event
            self.last_results = self._assemble(pool, prefailed)
        finally:
            await pool.aclose()

    async def run_async(self) -> "OrderedDict[str, ScenarioResult]":
        """Awaitable pooled run: drains :meth:`stream`, returns the results."""
        async for _ in self.stream():
            pass
        assert self.last_results is not None  # stream() assembled on exhaustion
        return self.last_results

    def _open_pool(self) -> PoolRun:
        from repro.experiments.sweep import PoolRun

        self._pool = PoolRun(
            self.launcher,
            max_workers=self.max_workers,
            operator_pack=self.operator_pack,
            adaptive=self.adaptive,
            cost_book=self.cost_book,
            progress=self.progress,
            fail_fast=self.fail_fast,
        )
        return self._pool

    def _submit(self, pool: PoolRun) -> Dict[str, ScenarioFailure]:
        """Submit every scenario; returns the ones whose grid planning failed.

        A swept scenario planned into several chunks is submitted chunk by
        chunk; every other scenario rides as one whole-scenario task.  All
        scenarios are submitted up front on one shared launcher, so there
        is no probe wave: a cold scenario gets the static plan and its
        measured chunks warm the cost book for the next run.
        """
        prefailed: Dict[str, ScenarioFailure] = {}
        for name in self.names:
            overrides = self.overrides.get(name)
            try:
                chunks, predicted = self._plan(get_scenario(name), pool.workers)
            except Exception as exc:  # broad by design: grid planning failed
                prefailed[name] = _failure(name, exc)
                continue
            if chunks is not None and len(chunks) > 1:
                pool.submit_chunks(name, chunks, overrides, predicted)
            else:
                pool.submit_scenario(name, overrides, sum(map(len, chunks or [])))
        return prefailed

    def _plan(self, scenario: Scenario, workers: int):
        """(chunks, predicted seconds) of a swept scenario; ``(None, None)`` unswept."""
        if scenario.sweep is None:
            return None, None
        assert self._pool is not None  # set by _open_pool before any planning
        points = scenario.grid_points(**self.overrides.get(scenario.name, {}))
        return self._pool.plan(
            scenario.name, scenario.sweep, points, workers, self.chunk_size
        )

    def _assemble(
        self, pool: PoolRun, prefailed: Mapping[str, ScenarioFailure]
    ) -> "OrderedDict[str, ScenarioResult]":
        """Per-scenario results in selection order, from a drained pool run.

        Completion order is irrelevant: each collector keys results by chunk
        index, so rows come back in grid order.  Cache snapshots merge over
        *every* completed task, survivors of partially-failed scenarios
        included, so pool work is never undercounted.
        """
        from repro.experiments.sweep import merge_worker_stats

        pool.save_costs()
        results: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        for name in self.names:
            collector = pool.collectors.get(name)
            if collector is None:
                results[name] = prefailed[name]
                continue
            failures = tuple(collector.failures)
            if not failures:
                results[name] = collector.rows()
            elif collector.completed:
                results[name] = PartialScenarioResult(
                    name=name, rows=collector.rows(), failures=failures
                )
            else:
                results[name] = ScenarioFailure(
                    name=name,
                    error=failures[0].error,
                    traceback=failures[0].traceback,
                    chunk_failures=failures,
                )
        parts = pool.completed()
        self.cache_stats = merge_worker_stats(parts) if parts else {}
        return results

    def render(self, results: Optional[Mapping[str, ScenarioResult]] = None) -> str:
        """Format results (running them first when not supplied) as text tables.

        Failed scenarios render as a ``FAILED`` section carrying the error.
        """
        if results is None:
            results = self.run()
        sections = []
        for name, rows in results.items():
            title = get_scenario(name).title
            if isinstance(rows, ScenarioFailure):
                body = f"FAILED: {rows.error}"
            elif isinstance(rows, PartialScenarioResult):
                notes = "\n".join(
                    f"FAILED: chunk {failure.chunk_index + 1}/{failure.num_chunks}: "
                    f"{failure.error}"
                    for failure in rows.failures
                )
                body = f"{format_rows(rows.rows)}\n{notes}"
            else:
                body = format_rows(rows)
            sections.append(f"{title}\n{'=' * len(title)}\n{body}\n")
        return "\n".join(sections)


def _failure(name: str, exc: Exception) -> ScenarioFailure:
    return ScenarioFailure(
        name=name,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback_module.format_exc(),
    )


# -- built-in scenarios -------------------------------------------------------


def _measured_fgnp21_rows() -> List[ExperimentRow]:
    return [measured_fgnp21_costs()]


def _crossover_point_rows() -> List[ExperimentRow]:
    return [
        ExperimentRow(
            "crossover-points",
            "Algorithm 3 beats the classical Omega(rn) bound (r=6)",
            {"crossover_n": find_crossover(path_length=6, strategy="plain")},
        ),
        ExperimentRow(
            "crossover-points",
            "Relay protocol beats the classical bound (long-path regime)",
            {"crossover_n": find_crossover(strategy="relay")},
        ),
    ]


register_scenario(
    "table1",
    table1_rows,
    title="Table 1 — FGNP21 baselines",
    description="Formula rows of Table 1 over the default (n, r, t) grid.",
    sweep=SweepSpec("parameter_grid", table1_default_grid),
)
register_scenario(
    "table1-measured",
    _measured_fgnp21_rows,
    title="Table 1 — measured FGNP21 implementation",
    description="Measured register sizes of the implemented FGNP21 baseline.",
)
register_scenario(
    "table2",
    table2_rows,
    title="Table 2 — upper bounds (n=1024, r=4, t=4, d=2)",
    description="Every upper-bound formula of Table 2 at the default parameters.",
    sweep=SweepSpec("parameter_grid", table2_default_grid),
)
register_scenario(
    "table2-verify",
    table2_verification_rows,
    title="Table 2 — small-instance protocol verification",
    description="Exact completeness/soundness of every Table 2 protocol on a small instance.",
)
register_scenario(
    "table3",
    table3_rows,
    title="Table 3 — lower bounds (n=1024, r=4)",
    description="Every lower-bound formula of Table 3 at the default parameters.",
    sweep=SweepSpec("parameter_grid", table3_default_grid),
)
register_scenario(
    "table3-consistency",
    upper_vs_lower_consistency,
    title="Table 3 — upper vs lower consistency",
    description="Upper bounds dominate lower bounds; classical eventually loses.",
    sweep=SweepSpec("parameter_grid", consistency_default_grid),
)
register_scenario(
    "crossover",
    crossover_sweep,
    title="Theorem 2 — fixed-path crossover sweep (r=8)",
    description="Total proof sizes of the three strategies versus n at fixed r.",
    sweep=SweepSpec("input_lengths", crossover_default_lengths),
)
register_scenario(
    "crossover-long-path",
    long_path_sweep,
    title="Theorem 2 — long-path (relay) regime",
    description="The r ~ n^(1/3) regime where relay points restore the advantage.",
    sweep=SweepSpec("input_lengths", long_path_default_lengths),
)
register_scenario(
    "crossover-points",
    _crossover_point_rows,
    title="Theorem 2 — crossover points",
    description="Smallest n at which each quantum strategy beats the classical bound.",
)
register_scenario(
    "soundness-scaling",
    soundness_scaling_sweep,
    title="Lemma 17 — optimal cheating vs path length",
    description="Exact optimal entangled cheating probability against the Lemma 17 bound.",
    sweep=SweepSpec("path_lengths", default_path_lengths),
)
register_scenario(
    "soundness-repetition",
    repetition_curve,
    title="Algorithm 4 — repetition curve (r=3)",
    description="Repeated acceptance of the best single-shot cheat versus k.",
    sweep=SweepSpec("repetition_counts", default_repetition_counts),
)
register_scenario(
    "soundness-tree",
    tree_soundness_sweep,
    title="Algorithm 5 — tree-family soundness (batched strategy search)",
    description="Best structured cheat on EQ trees over star/binary/random networks.",
    sweep=SweepSpec("networks", network_zoo),
)
register_scenario(
    "soundness-one-way-tree",
    one_way_tree_soundness_sweep,
    title="Theorem 32 — one-way-tree soundness (batched strategy search)",
    description="Best structured cheat on the forall-pairs construction per network family.",
    sweep=SweepSpec("networks", network_zoo),
)
register_scenario(
    "topology-soundness",
    topology_soundness_sweep,
    title="Algorithm 5 — soundness across grid/ring/random-graph topologies",
    description="Best structured cheat per general-graph topology (verification-tree families).",
    sweep=SweepSpec("topologies", default_soundness_topologies),
)
register_scenario(
    "noisy-soundness-channels",
    channel_family_soundness_sweep,
    title="Noise — best structured cheat per channel family (batched search)",
    description="Batched strategy search under NoiseModel across Kraus channel families.",
    sweep=SweepSpec("points", default_channel_strength_points),
)
register_scenario(
    "noisy-soundness-path-length",
    path_length_soundness_sweep,
    title="Noise — best structured cheat vs path length (depolarizing 0.15)",
    description="Noisy strategy search across path lengths against each Lemma 17 bound.",
    sweep=SweepSpec("path_lengths", default_noisy_path_lengths),
)
register_scenario(
    "noisy-soundness-collapse",
    gap_collapse_sweep,
    title="Noise — honest-vs-cheat gap collapse against the Lemma 17 bound",
    description="Strength at which the best noisy cheat crosses the noiseless paper bound.",
    sweep=SweepSpec("strengths", default_collapse_strengths),
)
register_scenario(
    "noise-robustness-path",
    path_noise_sweep,
    title="Noise — Algorithm 3 equality path under depolarizing links",
    description="Completeness and decision gap of the path protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-robustness-tree",
    tree_noise_sweep,
    title="Noise — Algorithm 5 equality tree under depolarizing links",
    description="Completeness and decision gap of the tree protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-robustness-relay",
    relay_noise_sweep,
    title="Noise — Algorithm 6 relay protocol under depolarizing links",
    description="Completeness and decision gap of the relay protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-channels",
    channel_comparison,
    title="Noise — channel families compared at fixed strength",
    description="Path-protocol degradation under each Kraus channel family at one strength.",
    sweep=SweepSpec("channels", default_channel_names),
)
register_scenario(
    "topology-noise",
    topology_noise_sweep,
    title="Noise — Algorithm 5 across grid/ring/random-graph topologies",
    description="Completeness and decision gap per noisy general-graph topology at fixed strength.",
    sweep=SweepSpec("topologies", default_noise_topologies),
)
