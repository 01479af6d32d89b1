"""Pluggable execution launchers: where sweep chunks actually run.

The sharding layer (:mod:`repro.experiments.sweep`) plans a sweep into
chunks and the streaming layer (:mod:`repro.experiments.streaming`) consumes
them as they settle; this module owns the step in between — *dispatch*.  A
:class:`Launcher` turns a picklable chunk entry point (``run_sweep_chunk``,
``run_scenario_task``) plus its arguments into a
:class:`concurrent.futures.Future`, and everything above it (the sharded
sweep, the :class:`~repro.experiments.runner.ExperimentRunner`, the sweep
service) is written against that one interface instead of a hard-wired
``ProcessPoolExecutor``.

Four backends ship in the registry, selected by name (explicit argument >
``REPRO_LAUNCHER`` environment variable > ``"process-pool"`` default):

``serial``
    Runs every chunk in the submitting process, synchronously, at submit
    time.  Zero dependencies, zero forks — the debugging backend: a
    breakpoint inside a scenario builder fires in the caller's own process.
``threads``
    A ``ThreadPoolExecutor``.  The transfer-matrix kernels spend their time
    in numpy contractions that release the GIL, so threads overlap real
    work without fork/pickle overhead.  All threads share the process-wide
    engine (and operator cache).
``process-pool``
    Today's behavior, verbatim: a ``ProcessPoolExecutor`` whose workers are
    initialized by :func:`init_sweep_worker` — fresh engine per worker,
    generation+pid token, operator pack via ``initargs``.
``subprocess``
    Spawns a *fresh interpreter per chunk* and ships the pickled call over
    stdin/stdout pipes.  Deliberately the most hostile backend: no fork, no
    shared memory, no inherited module state — if a chunk runs here, the
    chunk protocol is proven serializable end to end, which is the stepping
    stone to remote (container/cluster) executors.

Worker tokens — the keys under which
:func:`~repro.experiments.sweep.merge_worker_stats` merges per-worker cache
snapshots — are minted *launcher-side*.  A token names one cache-snapshot
domain (one engine + one operator cache): process-pool workers each own an
engine, so each mints ``g{generation}-p{pid}`` in its initializer;
``subprocess`` children likewise get a per-chunk token from the parent; the
in-process backends (``serial``, ``threads``) share the submitting process's
engine, so the *launcher instance* mints one generation-unique token for all
its workers — two in-process launchers in the same process can therefore
never alias each other's snapshots (the old ``g0-p{pid}`` fallback made
them collide on equal pids).
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import threading
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Union

from repro.exceptions import ProtocolError
from repro.experiments.streaming import effective_cpu_count, pool_worker_count
from repro.utils.env import env_str, environ_copy

#: Environment variable selecting the default launcher backend.
LAUNCHER_ENV_VAR = "REPRO_LAUNCHER"

#: Registry name of the backend used when nothing is selected.
DEFAULT_LAUNCHER = "process-pool"


# -- worker tokens ------------------------------------------------------------

#: Monotonic pool-generation counter (parent process); each constructed
#: launcher draws one generation so worker tokens stay unique across
#: launchers even when the OS reuses pids (or the launcher never forks).
_POOL_GENERATIONS = itertools.count(1)

#: This process's worker token, set by :func:`init_sweep_worker` in pool
#: workers and subprocess children.
_PROCESS_TOKEN: Optional[str] = None

#: Thread-local token override, bound by in-process launchers (``serial``
#: binds the submitting thread around each chunk; ``threads`` binds each
#: worker thread at pool initialization).
_LOCAL_TOKEN = threading.local()


def next_pool_generation() -> int:
    """Mint a fresh pool generation (pass via ``initargs`` to the pool)."""
    return next(_POOL_GENERATIONS)


def mint_worker_token(generation: Optional[int] = None) -> str:
    """A fresh launcher-side worker token: generation + pid.

    The generation component makes tokens unique across launcher instances
    in one process; the pid component separates real pool workers.
    """
    marker = next_pool_generation() if generation is None else generation
    return f"g{marker}-p{os.getpid()}"


def set_process_worker_token(token: Optional[str]) -> None:
    """Install this process's worker token (pool workers, subprocess children)."""
    global _PROCESS_TOKEN
    _PROCESS_TOKEN = token


def bind_local_worker_token(token: Optional[str]) -> Optional[str]:
    """Bind (or clear) the *calling thread's* token; returns the previous one.

    In-process launchers evaluate chunks on threads of the submitting
    process, where the process-level token belongs to the parent; a
    thread-local binding lets those chunks report the launcher's token
    without disturbing anything else running in the process.
    """
    previous = getattr(_LOCAL_TOKEN, "value", None)
    _LOCAL_TOKEN.value = token
    return previous


def worker_token() -> str:
    """The evaluating worker's token: thread binding > process token > fallback.

    Falls back to a generation-0 token when no launcher ever minted one
    (e.g. a chunk entry point called directly in a test), which still
    separates the caller from any real pool worker.
    """
    local = getattr(_LOCAL_TOKEN, "value", None)
    if local is not None:
        return local
    if _PROCESS_TOKEN is not None:
        return _PROCESS_TOKEN
    return f"g0-p{os.getpid()}"


def init_sweep_worker(generation: Optional[int] = None, pack: Optional[Any] = None) -> None:
    """Process-pool initializer: fresh default engine + a per-worker token.

    Forked workers inherit the parent's engine object (and its counters);
    resetting here guarantees "one engine + one cache per worker", counted
    from zero, so merged stats describe only work the pool actually did.
    The minted ``generation + pid`` token keys the worker's cache snapshots:
    keying by bare pid would let a second pool (or a respawned worker) that
    happens to reuse a pid collide with — and drop — another worker's
    counters under ``merge_worker_stats``'s most-advanced-snapshot rule.
    A caller-built pool that omits ``initargs=(next_pool_generation(),)``
    gets a random token component instead, so even that path cannot alias
    workers across pools.

    A ``pack`` shipped through ``initargs`` seeds the fresh worker's
    operator cache before any chunk runs (counted as ``preloaded``, never
    as misses), so every worker starts warm instead of independently
    re-building the same hot operators.
    """
    marker = f"g{generation}" if generation is not None else f"u{uuid.uuid4().hex[:8]}"
    set_process_worker_token(f"{marker}-p{os.getpid()}")
    from repro.engine.core import default_engine, set_default_engine

    set_default_engine(None)
    if pack is not None:
        default_engine().cache.preload(pack)


# -- the launcher interface ---------------------------------------------------


class Launcher:
    """One chunk-dispatch backend: futures out, workers and tokens inside.

    Implementations own worker lifecycle (:meth:`shutdown`), worker-token
    minting (so :func:`~repro.experiments.sweep.merge_worker_stats` never
    sees aliased snapshot keys), and delivery of the operator pack handed
    to the constructor (initializer / per-chunk payload).  A launcher the
    caller constructed without that pack gets it with every task instead
    (:class:`~repro.experiments.sweep.PoolRun`).
    """

    #: Registry name (``"?"`` for adapters constructed outside the registry).
    name: str = "?"

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Dispatch one chunk entry-point call; returns its future."""
        raise NotImplementedError

    def worker_count(self) -> int:
        """How many chunks can make progress at once (chunk planning input)."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Release the launcher's workers (no-op where there are none)."""

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)


class SerialLauncher(Launcher):
    """In-process, synchronous dispatch: the zero-dependency debugging backend.

    ``submit_chunk`` evaluates the chunk *immediately* in the submitting
    process and returns an already-settled future — no forks, no threads,
    no pickling, so a debugger stepping into a scenario builder works and
    the streaming machinery above still sees ordinary futures.  The
    launcher binds its generation-unique token around each evaluation; all
    chunks share the submitting process's engine, i.e. one snapshot domain.
    """

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None, operator_pack: Optional[Any] = None):
        self._token = mint_worker_token()
        if operator_pack is not None:
            from repro.engine.core import default_engine

            default_engine().cache.preload(operator_pack)

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        previous = bind_local_worker_token(self._token)
        try:
            result = fn(*args)
        except BaseException as exc:  # broad by design: the future carries it
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            bind_local_worker_token(previous)
        return future

    def worker_count(self) -> int:
        return 1


class ThreadLauncher(Launcher):
    """A thread pool: GIL-light kernels overlap without fork/pickle overhead.

    The contraction kernels sit in numpy/BLAS calls that release the GIL,
    so threads buy real concurrency for transfer-matrix sweeps while
    sharing the process-wide engine and operator cache — every chunk's
    snapshot therefore reports the launcher's single token (one cache, one
    snapshot domain; per-thread tokens would double-count the shared
    counters when merged).
    """

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None, operator_pack: Optional[Any] = None):
        self._token = mint_worker_token()
        width = int(max_workers) if max_workers else effective_cpu_count()
        self._pool = ThreadPoolExecutor(
            max_workers=width,
            thread_name_prefix="repro-chunk",
            initializer=bind_local_worker_token,
            initargs=(self._token,),
        )
        if operator_pack is not None:
            from repro.engine.core import default_engine

            default_engine().cache.preload(operator_pack)

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self._pool.submit(fn, *args)

    def worker_count(self) -> int:
        return pool_worker_count(self._pool)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


class ProcessPoolLauncher(Launcher):
    """The classic process pool, wrapped: one engine + cache per forked worker.

    Exactly the pre-launcher behavior: workers are initialized by
    :func:`init_sweep_worker` (fresh engine, generation+pid token, operator
    pack via ``initargs``), chunks are pickled to them, per-worker caches
    persist across every chunk a worker receives.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None, operator_pack: Optional[Any] = None):
        # Imported on first use, like ``subprocess`` below, so importing the
        # report never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=init_sweep_worker,
            initargs=(next_pool_generation(), operator_pack),
        )

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self._pool.submit(fn, *args)

    def worker_count(self) -> int:
        return pool_worker_count(self._pool)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


class ExecutorLauncher(Launcher):
    """Adapter for a caller-supplied executor (the launcher owns nothing).

    The caller controls the executor's lifecycle and worker initialization,
    so :meth:`shutdown` is a no-op and an operator pack must ride along with
    every chunk instead.
    """

    name = "executor"

    def __init__(self, executor: Any):
        self._pool = executor

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self._pool.submit(fn, *args)

    def worker_count(self) -> int:
        return pool_worker_count(self._pool)


class SubprocessLauncher(Launcher):
    """Fresh interpreter per chunk, pickled call over pipes: the remote stand-in.

    Every chunk spawns ``python -m repro.experiments.launchers``, writes the
    pickled payload (entry point, arguments, worker token, operator pack)
    to the child's stdin, and reads the pickled :class:`ChunkResult` — or
    the child's re-raised exception — from its stdout.  Nothing is
    inherited: no fork, no shared memory, no parent module state.  Chunks
    that survive this boundary are proven shippable to genuinely remote
    executors, which is the point of the backend.  An internal thread pool
    of ``max_workers`` gates how many children run at once; tokens are
    minted per chunk (each child is its own engine + cache).
    """

    name = "subprocess"

    def __init__(self, max_workers: Optional[int] = None, operator_pack: Optional[Any] = None):
        self._generation = next_pool_generation()
        self._serials = itertools.count(1)
        self._width = int(max_workers) if max_workers else effective_cpu_count()
        self._threads = ThreadPoolExecutor(
            max_workers=self._width, thread_name_prefix="repro-subproc"
        )
        self._pack = operator_pack

    def submit_chunk(self, fn: Callable[..., Any], *args: Any) -> Future:
        token = f"g{self._generation}-s{next(self._serials)}"
        # Allowlisted bound method: this in-process thread pool only relays
        # to Popen — nothing here crosses a pickle boundary (fn/args do, and
        # they are pickled explicitly inside _run_child).
        return self._threads.submit(self._run_child, fn, args, token)  # repro-lint: disable=picklable-entry-points

    def worker_count(self) -> int:
        return self._width

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._threads.shutdown(wait=wait, cancel_futures=cancel_futures)

    def _child_env(self) -> Dict[str, str]:
        """The child's environment: inherit everything, make ``repro`` importable.

        The parent may be running off ``PYTHONPATH=src`` (or pytest's
        ``pythonpath``) without an installed package; a fresh interpreter
        would not see that, so the package root is prepended explicitly.
        """
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = environ_copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    def _run_child(self, fn: Callable[..., Any], args: tuple, token: str) -> Any:
        import subprocess

        payload = pickle.dumps(
            {"fn": fn, "args": args, "token": token, "pack": self._pack},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro.experiments.launchers"],
            input=payload,
            capture_output=True,
            env=self._child_env(),
        )
        if process.returncode != 0 or not process.stdout:
            stderr = process.stderr.decode("utf-8", "replace").strip()
            raise ProtocolError(
                f"subprocess chunk worker exited with status {process.returncode}"
                + (f": {stderr[-2000:]}" if stderr else "")
            )
        reply = pickle.loads(process.stdout)
        if reply["ok"]:
            return reply["result"]
        raise reply["error"]


def _subprocess_worker_main() -> int:
    """``python -m repro.experiments.launchers``: evaluate one pickled chunk.

    Reads the payload from stdin, installs the parent-minted worker token
    and operator pack (fresh interpreter — the engine is cold by
    construction), evaluates, and writes the pickled reply to the *real*
    stdout; ``sys.stdout`` is pointed at stderr for the duration so a
    scenario that prints cannot corrupt the pickle stream.
    """
    payload = pickle.load(sys.stdin.buffer)
    init_sweep_worker(pack=payload.get("pack"))
    set_process_worker_token(payload["token"])
    # THE guarded redirect the stdout-purity rule protects: capture the real
    # stdout for the pickle reply, then point sys.stdout at stderr so any
    # print() inside scenario code cannot corrupt the stream.
    out = sys.stdout.buffer  # repro-lint: disable=stdout-purity
    sys.stdout = sys.stderr  # repro-lint: disable=stdout-purity
    try:
        reply: Dict[str, Any] = {"ok": True, "result": payload["fn"](*payload["args"])}
    except BaseException as exc:  # broad by design: the parent re-raises it
        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            import traceback

            exc = ProtocolError(
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
        reply = {"ok": False, "error": exc}
    out.write(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
    out.flush()
    return 0


# -- the registry -------------------------------------------------------------

_LAUNCHER_FACTORIES: "Dict[str, Callable[..., Launcher]]" = {}


def register_launcher(name: str, factory: Callable[..., Launcher]) -> None:
    """Register (or replace) a launcher factory under ``name``.

    ``factory(max_workers=..., operator_pack=...)`` must return a fresh
    :class:`Launcher`.
    """
    _LAUNCHER_FACTORIES[name] = factory


def available_launchers() -> List[str]:
    """Registered launcher names, in registration order."""
    return list(_LAUNCHER_FACTORIES)


def resolve_launcher_name(name: Optional[str] = None) -> str:
    """The launcher to use: explicit argument > ``REPRO_LAUNCHER`` > default."""
    resolved = name or env_str(LAUNCHER_ENV_VAR, DEFAULT_LAUNCHER)
    if resolved not in _LAUNCHER_FACTORIES:
        raise ProtocolError(
            f"unknown launcher {resolved!r}; available: {available_launchers()}"
        )
    return resolved


def get_launcher(
    launcher: Union[str, Launcher, None] = None,
    max_workers: Optional[int] = None,
    operator_pack: Optional[Any] = None,
) -> Launcher:
    """Resolve a launcher: an instance passes through, a name (or ``None``,
    falling back to ``REPRO_LAUNCHER`` then ``"process-pool"``) constructs a
    fresh backend from the registry."""
    if isinstance(launcher, Launcher):
        return launcher
    factory = _LAUNCHER_FACTORIES[resolve_launcher_name(launcher)]
    return factory(max_workers=max_workers, operator_pack=operator_pack)


register_launcher("serial", SerialLauncher)
register_launcher("threads", ThreadLauncher)
register_launcher("process-pool", ProcessPoolLauncher)
register_launcher("subprocess", SubprocessLauncher)


if __name__ == "__main__":  # pragma: no cover - exercised via SubprocessLauncher
    raise SystemExit(_subprocess_worker_main())
