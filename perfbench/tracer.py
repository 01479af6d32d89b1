"""Outside-in per-layer tracing of the ``repro`` library.

The tracer wraps public functions and methods of each layer from the
benchmark's own files; the library source is untouched.  Every wrapped call
is a span tagged with a layer name.  For each layer it keeps:

* ``calls`` - entries into the layer from outside it (a layer calling into
  itself is still one call);
* ``s`` - wall time of those outermost entries (inclusive);
* ``self_s`` - wall time spent in the layer's own code: each span's duration
  minus the spans it encloses, summed over every span of the layer.

Hooks missing from the library (renamed or deleted by a later change) are
skipped, so their metrics read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: The ``repro.engine.kernels`` entry points traced one by one.
KERNELS = (
    "transfer_recursion",
    "transfer_indices",
    "chain_gram_probabilities",
    "chain_terminal_probabilities",
    "chain_adjacent_probabilities",
    "apply_noise_grid",
    "noisy_chain_probabilities",
    "batched_overlap_grams",
    "batched_trace_gram",
    "batched_measure_dense",
)

#: The 22 report sections, in report order (``scenario.<name>_s`` metrics).
REPORT_SCENARIOS = (
    "table1",
    "table1-measured",
    "table2",
    "table2-verify",
    "table3",
    "table3-consistency",
    "crossover",
    "crossover-long-path",
    "crossover-points",
    "soundness-scaling",
    "soundness-repetition",
    "soundness-tree",
    "soundness-one-way-tree",
    "topology-soundness",
    "noise-robustness-path",
    "noise-robustness-tree",
    "noise-robustness-relay",
    "noise-channels",
    "topology-noise",
    "noisy-soundness-channels",
    "noisy-soundness-path-length",
    "noisy-soundness-collapse",
)

#: Upper edges of the engine batch histogram buckets (jobs per engine call).
BATCH_BUCKETS = (("1", 1), ("2-10", 10), ("11-100", 100), ("gt100", None))


class Tracer:
    """Span bookkeeping plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._patched: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(
        self,
        function: Callable,
        layer: str,
        on_exit: Optional[Callable[..., None]] = None,
        prepare: Optional[Callable[[tuple, dict], tuple]] = None,
    ) -> Callable:
        """``function`` as a span of ``layer``.

        ``prepare(args, kwargs)`` may rewrite the arguments before the call;
        ``on_exit(args, kwargs, result, elapsed, outer)`` runs after it.
        """
        stack = self._stack
        stat = self.layers[layer]

        @functools.wraps(function)
        def span(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat["self_s"] += elapsed - frame[1]
                if outer:
                    stat["calls"] += 1
                    stat["s"] += elapsed
            if on_exit is not None:
                on_exit(args, kwargs, result, elapsed, outer)
            return result

        return span

    def count(self, function: Callable, on_exit: Callable[..., None]) -> Callable:
        """``function`` with a counter hook but no span (its time stays with the caller)."""

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            on_exit(args, kwargs, result)
            return result

        return counted

    # -- patching ------------------------------------------------------------

    def patch_function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.name`` everywhere in ``repro`` it was imported by name."""
        original = getattr(module, name, None)
        if original is None or not callable(original):
            return
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patched.append((loaded, attr, original))
                    setattr(loaded, attr, replacement)

    def patch_methods(self, base: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``name`` on ``base`` and on every subclass that defines its own."""
        for cls in _class_tree(base):
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, property):
                if raw.fget is None:
                    continue
                replacement: Any = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(make(raw.__func__))
            elif inspect.isfunction(raw):
                replacement = make(raw)
            else:
                continue
            self._patched.append((cls, name, raw))
            setattr(cls, name, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def _class_tree(base: type) -> List[type]:
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def _array_rows(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape:
        return int(shape[0])
    if isinstance(value, (list, tuple)):
        return len(value)
    return 0


def _bytes_in(args: tuple, kwargs: dict) -> int:
    """Computed input bytes: ``nbytes`` of array arguments, one container level deep."""
    total = 0
    for value in list(args) + list(kwargs.values()):
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            total += int(getattr(item, "nbytes", 0) or 0)
    return total


def _first_array(args: tuple) -> Any:
    for value in args:
        if hasattr(value, "shape"):
            return value
    return None


def _count_jobs(method: str, args: tuple) -> int:
    if len(args) < 2:
        return 0
    payload = args[-1] if method == "map_scalar" else args[1]
    if method == "evaluate_program":
        return len(getattr(payload, "jobs", ()))
    if method == "evaluate_programs":
        return sum(len(getattr(program, "jobs", ())) for program in payload)
    return len(payload)


def _materialize_items(args: tuple, kwargs: dict) -> tuple:
    # map_scalar takes any iterable; a list keeps its single pass intact and
    # lets the job counter take its length.
    if len(args) >= 3 and not isinstance(args[2], (list, tuple)):
        args = args[:2] + (list(args[2]),) + args[3:]
    return args, kwargs


class ReproTracer(Tracer):
    """The hooks on ``repro``'s layers, and the per-layer metrics they yield."""

    def __init__(self) -> None:
        super().__init__()
        self.scenario_s: Dict[str, float] = defaultdict(float)
        self.batch: Dict[str, int] = defaultdict(int)
        self.caches: List[Any] = []
        self.cache_baseline: Dict[str, int] = defaultdict(int)
        self.max_dim = 0
        self._build_depth = 0

    def install(self) -> "ReproTracer":
        """Import the layers and patch their public entry points."""
        import importlib

        def module(name: str) -> Any:
            try:
                return importlib.import_module(name)
            except ImportError:
                return None

        protocols = module("repro.protocols.base")
        core = module("repro.engine.core")
        jobs = module("repro.engine.jobs")
        backends = module("repro.engine.backends")
        tree = module("repro.engine.tree_contraction")
        kernels = module("repro.engine.kernels")
        channels = module("repro.quantum.channels")
        cache = module("repro.engine.cache")
        chain = module("repro.protocols.chain")
        soundness = module("repro.analysis.soundness")
        runner = module("repro.experiments.runner")

        if protocols is not None and hasattr(protocols, "DQMAProtocol"):
            for name in ("acceptance_program", "acceptance_probability", "acceptance_probabilities"):
                self.patch_methods(protocols.DQMAProtocol, name, lambda f: self.wrap(f, "protocols"))

        if core is not None and hasattr(core, "Engine"):
            for name in (
                "evaluate_programs",
                "evaluate_program",
                "job_probabilities",
                "chain_probabilities",
                "tree_probabilities",
                "map_scalar",
            ):
                prepare = _materialize_items if name == "map_scalar" else None
                self.patch_methods(
                    core.Engine,
                    name,
                    lambda f, n=name, p=prepare: self.wrap(f, "engine", self._engine_exit(n), p),
                )

        if jobs is not None:
            for name in ("group_jobs_by_shape", "group_tree_jobs_by_signature"):
                self.patch_function(jobs, name, lambda f: self.count(f, self._groups_exit))

        if backends is not None and hasattr(backends, "SimulationBackend"):
            self.patch_methods(
                backends.SimulationBackend,
                "chain_probabilities",
                lambda f: self.wrap(f, "backend.chain"),
            )
            self.patch_methods(
                backends.SimulationBackend,
                "tree_probabilities",
                lambda f: self.wrap(f, "backend.tree"),
            )

        if tree is not None:
            for name in ("tree_probabilities_batched", "tree_acceptance_probability"):
                self.patch_function(tree, name, lambda f: self.wrap(f, "tree_contraction"))

        if kernels is not None:
            for name in KERNELS:
                self.patch_function(
                    kernels, name, lambda f, n=name: self.wrap(f, f"kernels.{n}", self._kernel_exit(n))
                )

        if channels is not None:
            self.patch_function(
                channels,
                "apply_channel_grid",
                lambda f: self.wrap(f, "channels.apply_channel_grid", self._grid_exit),
            )
            if hasattr(channels, "KrausChannel"):
                self.patch_methods(
                    channels.KrausChannel, "apply_batch", lambda f: self.wrap(f, "channels.apply_batch")
                )
                self.patch_methods(
                    channels.KrausChannel, "is_identity", lambda f: self.wrap(f, "channels.is_identity")
                )

        if cache is not None and hasattr(cache, "OperatorCache"):
            self._track_caches(cache.OperatorCache)

        if chain is not None:
            for name in ("chain_acceptance_operator", "noisy_chain_acceptance_operator"):
                self.patch_function(
                    chain, name, lambda f: self.wrap(f, "chain.operator", self._operator_exit)
                )
            self.patch_function(
                chain, "optimal_entangled_acceptance", lambda f: self.wrap(f, "chain.eig")
            )

        if soundness is not None:
            self.patch_function(
                soundness,
                "fingerprint_strategy_soundness",
                lambda f: self.wrap(f, "analysis.search", self._search_exit),
            )

        if runner is not None:
            if hasattr(runner, "Scenario"):
                self.patch_methods(
                    runner.Scenario, "run", lambda f: self.wrap(f, "scenario", self._scenario_exit)
                )
            if hasattr(runner, "ExperimentRunner"):
                self.patch_methods(
                    runner.ExperimentRunner, "render", lambda f: self.wrap(f, "runner.render")
                )
        return self

    # -- hooks ---------------------------------------------------------------

    def _engine_exit(self, method: str) -> Callable[..., None]:
        def on_exit(args, kwargs, result, elapsed, outer):
            if not outer:
                return
            jobs = _count_jobs(method, args)
            self.counters["engine.jobs"] += jobs
            for bucket, upper in BATCH_BUCKETS:
                if upper is None or jobs <= upper:
                    self.batch[bucket] += 1
                    break

        return on_exit

    def _groups_exit(self, args, kwargs, result) -> None:
        self.counters["engine.groups"] += len(result)

    def _kernel_exit(self, name: str) -> Callable[..., None]:
        def on_exit(args, kwargs, result, elapsed, outer):
            if outer:
                self.counters[f"kernels.{name}.rows"] += _array_rows(_first_array(args))
                self.counters[f"kernels.{name}.bytes_in"] += _bytes_in(args, kwargs)

        return on_exit

    def _grid_exit(self, args, kwargs, result, elapsed, outer) -> None:
        densities = args[1] if len(args) > 1 else kwargs.get("densities")
        shape = getattr(densities, "shape", ())
        if outer and len(shape) >= 2:
            self.counters["channels.apply_channel_grid.rows"] += int(shape[0]) * int(shape[1])

    def _operator_exit(self, args, kwargs, result, elapsed, outer) -> None:
        shape = getattr(result, "shape", ())
        if shape:
            self.max_dim = max(self.max_dim, int(shape[0]))

    def _search_exit(self, args, kwargs, result, elapsed, outer) -> None:
        if outer:
            self.counters["analysis.search.strategies"] += getattr(result, "num_assignments", 0) + 1

    def _scenario_exit(self, args, kwargs, result, elapsed, outer) -> None:
        name = getattr(args[0], "name", None) if args else None
        if name is not None:
            self.scenario_s[name] += elapsed

    def _track_caches(self, cache_class: type) -> None:
        """Count every operator cache's hits/misses and time its builders."""
        for existing in gc.get_objects():
            if isinstance(existing, cache_class):
                self.caches.append(existing)
                for field, value in _cache_counts(existing).items():
                    self.cache_baseline[field] += value
        caches = self.caches
        original_init = cache_class.__init__

        @functools.wraps(original_init)
        def init(instance, *args, **kwargs):
            original_init(instance, *args, **kwargs)
            caches.append(instance)

        self._patched.append((cache_class, "__init__", original_init))
        cache_class.__init__ = init

        def prepare(args, kwargs):
            if len(args) >= 3:
                args = args[:2] + (self._timed_builder(args[2]),) + args[3:]
            elif "builder" in kwargs:
                kwargs = dict(kwargs, builder=self._timed_builder(kwargs["builder"]))
            return args, kwargs

        def make(function):
            @functools.wraps(function)
            def get_or_build(*args, **kwargs):
                args, kwargs = prepare(args, kwargs)
                return function(*args, **kwargs)

            return get_or_build

        self.patch_methods(cache_class, "get_or_build", make)

    def _timed_builder(self, builder: Callable[[], Any]) -> Callable[[], Any]:
        def build():
            self._build_depth += 1
            start = time.perf_counter()
            try:
                return builder()
            finally:
                self._build_depth -= 1
                if self._build_depth == 0:
                    self.counters["cache.build_s"] += time.perf_counter() - start

        return build

    # -- results -------------------------------------------------------------

    def cache_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for instance in self.caches:
            for field, value in _cache_counts(instance).items():
                totals[field] += value
        fields = ("hits", "misses", "evictions")
        return {field: totals[field] - self.cache_baseline[field] for field in fields}

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric this tracer feeds (absent layers read 0)."""
        layers = self.layers

        def layer(name: str, field: str) -> float:
            return float(layers[name][field]) if name in layers else 0.0

        values: Dict[str, float] = {
            "protocols.compile.calls": layer("protocols", "calls"),
            "protocols.compile.self_s": layer("protocols", "self_s"),
            "engine.calls": layer("engine", "calls"),
            "engine.jobs": self.counters["engine.jobs"],
            "engine.groups_per_call": (
                self.counters["engine.groups"] / layer("engine", "calls") if layer("engine", "calls") else 0.0
            ),
            "engine.self_s": layer("engine", "self_s"),
            "backend.chain.calls": layer("backend.chain", "calls"),
            "backend.chain.s": layer("backend.chain", "s"),
            "backend.tree.calls": layer("backend.tree", "calls"),
            "backend.tree.s": layer("backend.tree", "s"),
            "tree_contraction.calls": layer("tree_contraction", "calls"),
            "tree_contraction.s": layer("tree_contraction", "s"),
            "channels.apply_channel_grid.calls": layer("channels.apply_channel_grid", "calls"),
            "channels.apply_channel_grid.s": layer("channels.apply_channel_grid", "s"),
            "channels.apply_channel_grid.rows": self.counters["channels.apply_channel_grid.rows"],
            "channels.apply_batch.calls": layer("channels.apply_batch", "calls"),
            "channels.apply_batch.s": layer("channels.apply_batch", "s"),
            "channels.is_identity.calls": layer("channels.is_identity", "calls"),
            "channels.is_identity.s": layer("channels.is_identity", "s"),
            "cache.build_s": self.counters["cache.build_s"],
            "chain.operator.calls": layer("chain.operator", "calls"),
            "chain.operator.s": layer("chain.operator", "s"),
            "chain.operator.max_dim": float(self.max_dim),
            "chain.eig.s": layer("chain.eig", "s"),
            "analysis.search.calls": layer("analysis.search", "calls"),
            "analysis.search.strategies": self.counters["analysis.search.strategies"],
            "analysis.search.self_s": layer("analysis.search", "self_s"),
            "runner.render_s": layer("runner.render", "s"),
        }
        for bucket, _ in BATCH_BUCKETS:
            values[f"engine.batch.{bucket}"] = float(self.batch[bucket])
        for name in KERNELS:
            values[f"kernels.{name}.calls"] = layer(f"kernels.{name}", "calls")
            values[f"kernels.{name}.s"] = layer(f"kernels.{name}", "s")
            values[f"kernels.{name}.rows"] = self.counters[f"kernels.{name}.rows"]
            values[f"kernels.{name}.bytes_in"] = self.counters[f"kernels.{name}.bytes_in"]
        counts = self.cache_counts()
        lookups = counts["hits"] + counts["misses"]
        values["cache.hits"] = float(counts["hits"])
        values["cache.misses"] = float(counts["misses"])
        values["cache.evictions"] = float(counts["evictions"])
        values["cache.hit_rate"] = counts["hits"] / lookups if lookups else 0.0
        for name in REPORT_SCENARIOS:
            values[f"scenario.{name}_s"] = float(self.scenario_s.get(name, 0.0))
        return values


def _cache_counts(instance: Any) -> Dict[str, int]:
    stats = instance.stats() if hasattr(instance, "stats") else None
    return {field: int(getattr(stats, field, 0) or 0) for field in ("hits", "misses", "evictions")}


class PoolListener:
    """Chunk-event listener behind the ``pool.*`` metrics of a pooled report."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.chunk_seconds: List[float] = []
        self.first_chunk_s = 0.0
        self.scenario_s: Dict[str, float] = defaultdict(float)

    def __call__(self, event: Any) -> None:
        if not self.chunk_seconds:
            self.first_chunk_s = time.perf_counter() - self.start
        seconds = float(getattr(event, "seconds", 0.0) or 0.0)
        self.chunk_seconds.append(seconds)
        self.scenario_s[getattr(event, "scenario", "")] += seconds

    def metrics(self, wall_s: float, workers: int) -> Dict[str, float]:
        busy = sum(self.chunk_seconds)
        return {
            "pool.chunks": float(len(self.chunk_seconds)),
            "pool.chunk_s.sum": busy,
            "pool.chunk_s.max": max(self.chunk_seconds, default=0.0),
            "pool.idle_s": max(workers * wall_s - busy, 0.0) if self.chunk_seconds else 0.0,
            "pool.first_chunk_s": self.first_chunk_s,
        }
