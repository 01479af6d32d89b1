"""The :class:`Engine` facade protocols evaluate through.

An engine owns a :class:`~repro.engine.backends.SimulationBackend` and an
:class:`~repro.engine.cache.OperatorCache`.  Protocols hand it
:class:`~repro.engine.jobs.TreeProgram` objects — weighted sums of products
of :class:`~repro.engine.jobs.ChainJob` / :class:`~repro.engine.jobs.TreeJob`
instances — or plain scalar callables, for the protocol families whose
acceptance does not compile to programs.  The engine flattens every job of a
batch into one backend call per job type, so a batch of ``B`` protocol
invocations costs a handful of stacked contractions instead of ``B`` Python
loops.  Jobs carrying noise-channel annotations ride the same batches: the
backends route them onto their density-matrix paths transparently, so a
noise-strength sweep is just another program batch.

A process-wide default engine is available through :func:`default_engine`;
its backend is selected by the ``REPRO_BACKEND`` environment variable
(``"transfer-matrix"`` when unset), and the contraction dtype / device of
array-module backends by ``REPRO_DTYPE`` / ``REPRO_DEVICE`` (see
:mod:`repro.engine.array_ops`).  All three are re-checked on every
:func:`default_engine` call so pool workers pick up changes.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.engine.backends import SimulationBackend, get_backend
from repro.engine.cache import OperatorCache, OperatorPack
from repro.engine.jobs import ChainJob, Job, StrategyBatch, TreeJob, TreeProgram
from repro.utils.env import env_str

#: Environment variable selecting the default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class Engine:
    """A simulation backend plus an operator cache, behind one facade."""

    def __init__(
        self,
        backend: Union[str, SimulationBackend, None] = None,
        cache: Optional[OperatorCache] = None,
    ):
        self._backend = get_backend(backend)
        self.cache = cache if cache is not None else OperatorCache()

    @property
    def backend(self) -> SimulationBackend:
        """The active simulation backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend."""
        return self._backend.name

    def with_backend(self, backend: Union[str, SimulationBackend]) -> "Engine":
        """A sibling engine on a different backend, sharing this engine's cache."""
        return Engine(backend=backend, cache=self.cache)

    # -- operator caching ----------------------------------------------------

    def cached_operator(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Memoize an operator under a hashable key (see :class:`OperatorCache`)."""
        return self.cache.get_or_build(key, builder)

    def export_operator_pack(self, source: str = "parent") -> OperatorPack:
        """Snapshot this engine's warm operators as a shippable pack.

        The pack seeds other engines' caches (typically fresh pool workers)
        so they stop independently re-warming the same hot operators; see
        :meth:`OperatorCache.export_pack`.
        """
        return self.cache.export_pack(source=source)

    def preload_operator_pack(self, pack: OperatorPack) -> int:
        """Seed this engine's cache from a pack (digest-verified); see
        :meth:`OperatorCache.preload`."""
        return self.cache.preload(pack)

    # -- evaluation ----------------------------------------------------------

    def chain_probabilities(self, jobs: Sequence[ChainJob]) -> np.ndarray:
        """Acceptance probabilities of a batch of chain jobs."""
        if not jobs:
            return np.zeros(0, dtype=np.float64)
        return self._backend.chain_probabilities(jobs)

    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        """Acceptance probabilities of a batch of tree jobs."""
        if not jobs:
            return np.zeros(0, dtype=np.float64)
        return self._backend.tree_probabilities(jobs)

    def strategy_probabilities(self, batches: Sequence[StrategyBatch]) -> np.ndarray:
        """Acceptance of every strategy whose jobs the strategy batches hold.

        ``batches`` hold one job of each strategy apiece, in program job
        order: one batch for a chain or an Algorithm 5 tree, one per
        verification tree for a Theorem 32 protocol.  The values come out as
        :meth:`evaluate_programs` would give them for the strategies'
        programs (one unit term over all their jobs): a single batch's
        values as they are, several multiplied per strategy with
        :meth:`TreeProgram.combine`'s arithmetic — the product in batch
        order from 1.0, added to 0.0, clipped to [0, 1].
        """
        values = [self._backend.strategy_probabilities(batch) for batch in batches]
        if len(values) == 1:
            return values[0]
        product = np.ones(len(values[0]))
        for factor in values:
            product = product * factor
        return np.clip(0.0 + product, 0.0, 1.0)

    def job_probabilities(self, jobs: Sequence[Job]) -> np.ndarray:
        """Acceptance probabilities of a mixed batch of chain and tree jobs.

        Jobs are partitioned by type and handed to the backend in one call
        per type; the result keeps the input order.
        """
        if not jobs:
            return np.zeros(0, dtype=np.float64)
        chain_indices: List[int] = []
        tree_indices: List[int] = []
        for index, job in enumerate(jobs):
            (chain_indices if isinstance(job, ChainJob) else tree_indices).append(index)
        if not tree_indices:
            return self._backend.chain_probabilities(jobs)
        if not chain_indices:
            return self._backend.tree_probabilities(jobs)
        results = np.empty(len(jobs), dtype=np.float64)
        results[chain_indices] = self._backend.chain_probabilities(
            [jobs[i] for i in chain_indices]
        )
        results[tree_indices] = self._backend.tree_probabilities(
            [jobs[i] for i in tree_indices]
        )
        return results

    def evaluate_program(self, program: TreeProgram) -> float:
        """Value of a single program."""
        return program.combine(self.job_probabilities(program.jobs))

    def evaluate_programs(self, programs: Sequence[TreeProgram]) -> np.ndarray:
        """Values of many programs, with all their jobs in one backend batch."""
        if all(program.is_single_unit_job for program in programs):
            # Common fast path (e.g. equality chains/trees): one unit-weight
            # job per program, so the backend batch is already the answer.
            return self.job_probabilities([program.jobs[0] for program in programs])
        all_jobs: list = []
        offsets = []
        for program in programs:
            offsets.append(len(all_jobs))
            all_jobs.extend(program.jobs)
        probabilities = self.job_probabilities(all_jobs)
        values = np.empty(len(programs), dtype=np.float64)
        for index, (program, offset) in enumerate(zip(programs, offsets)):
            values[index] = program.combine(
                probabilities[offset : offset + len(program.jobs)]
            )
        return values

    def map_scalar(
        self, function: Callable[[Any], float], items: Iterable[Any]
    ) -> np.ndarray:
        """Scalar fallback: evaluate ``function`` per item into a float array.

        Used by the protocol families (ranking, classical baselines) and the
        oversized-fan-out instances whose acceptance computation does not
        compile to chain/tree programs.
        """
        return np.array([float(function(item)) for item in items], dtype=np.float64)


_default_engine: Optional[Engine] = None

#: Sentinel marking a default engine installed explicitly via
#: :func:`set_default_engine` (never re-resolved from the environment).
_EXPLICIT = object()

#: The ``(REPRO_BACKEND, REPRO_DTYPE, REPRO_DEVICE)`` triple the current
#: default engine was built from, or :data:`_EXPLICIT` when
#: :func:`set_default_engine` installed it.
_default_engine_env: Any = None


def _engine_env() -> tuple:
    return (
        env_str(BACKEND_ENV_VAR),
        env_str("REPRO_DTYPE"),
        env_str("REPRO_DEVICE"),
    )


def default_engine() -> Engine:
    """The process-wide engine, resolved from ``REPRO_BACKEND`` and friends.

    The ``REPRO_BACKEND`` / ``REPRO_DTYPE`` / ``REPRO_DEVICE`` variables are
    re-checked on every call: if any changed since the engine was built (pool
    workers commonly export them after the parent process already touched the
    engine), a fresh engine on the new configuration replaces the stale one.
    An engine installed through :func:`set_default_engine` is never displaced
    by the environment.
    """
    global _default_engine, _default_engine_env
    env = _engine_env()
    if _default_engine is None or (
        _default_engine_env is not _EXPLICIT and env != _default_engine_env
    ):
        _default_engine = Engine(backend=env[0])
        _default_engine_env = env
    return _default_engine


def set_default_engine(engine: Optional[Engine]) -> None:
    """Replace the process-wide engine (``None`` resets to the environment default)."""
    global _default_engine, _default_engine_env
    _default_engine = engine
    _default_engine_env = _EXPLICIT if engine is not None else None
