"""Benchmark child process: library passes and traced reports.

``perfbench/run.py`` starts this script in a fresh interpreter with one JSON
argument naming the mode:

* ``serve`` - warm up one library phase, print ``READY <operations>``, then
  run one timed operation per ``step`` line on stdin; when stdin closes,
  check a seeded subsample of each operation's rows against
  ``Engine("dense")`` and print a JSON result as the last line.
* ``report`` - one traced in-process ``repro-report`` run, written to a file.

A phase is a list of library calls (operations) built from the seed.  The
library receives only the generated grids.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from tracer import PoolListener, ReproTracer

#: Strengths per depolarizing grid and per generic-channel grid.
DEPOLARIZING_POINTS = 256
GENERIC_POINTS = 16
GENERIC_CHANNELS = ("dephasing", "amplitude-damping", "bit-flip", "phase-flip")

#: Strengths per channel family of the structured-cheat channel sweep.
FAMILY_POINTS = 16
FAMILIES = ("depolarizing", "dephasing", "amplitude-damping")

#: Grid points per operation in the warm-up pass and in the dense check.
WARM_POINTS = 3
CHECK_POINTS = 2

@dataclass
class Operation:
    """One library call of a pass; ``grid`` names its swept keyword argument."""

    name: str
    kind: str
    function: Callable[..., list]
    kwargs: Dict[str, Any]
    grid: str
    #: Cheap enough for the warm-up pass and the dense check (dense noisy
    #: paths past r=4 take minutes; the warm-up fills caches, not timings).
    small: bool = True

    @property
    def points(self) -> int:
        return len(self.kwargs[self.grid])

    def subset(self, indices) -> "Operation":
        values = self.kwargs[self.grid]
        kwargs = dict(self.kwargs, **{self.grid: [values[i] for i in indices]})
        return Operation(self.name, self.kind, self.function, kwargs, self.grid, self.small)

    def __call__(self) -> list:
        return list(self.function(**self.kwargs))


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def _grid(rng: np.random.Generator, size: int) -> List[float]:
    return sorted(float(value) for value in rng.uniform(0.0, 0.5, size))


def noise_operations(seed: int) -> List[Operation]:
    """Depolarizing 256-point grids on three protocol families, generic grids on the path."""
    from repro.experiments.noise_robustness import (
        path_noise_sweep,
        relay_noise_sweep,
        tree_noise_sweep,
    )

    rng = np.random.default_rng([seed, 1])
    operations = [
        Operation(
            f"depolarizing-{name}",
            "depolarizing",
            function,
            {"strengths": _grid(rng, DEPOLARIZING_POINTS)},
            "strengths",
        )
        for name, function in (
            ("path", path_noise_sweep),
            ("tree", tree_noise_sweep),
            ("relay", relay_noise_sweep),
        )
    ]
    operations += [
        Operation(
            f"{channel}-path",
            "generic",
            path_noise_sweep,
            {"channel": channel, "strengths": _grid(rng, GENERIC_POINTS)},
            "strengths",
        )
        for channel in GENERIC_CHANNELS
    ]
    return operations


def soundness_operations(seed: int) -> List[Operation]:
    """Lemma 17 exact optimum, then the structured-cheat searches."""
    from repro.experiments.noisy_soundness import (
        channel_family_soundness_sweep,
        path_length_soundness_sweep,
    )
    from repro.experiments.soundness_scaling import soundness_scaling_sweep
    from repro.experiments.topologies import (
        default_soundness_topologies,
        topology_soundness_sweep,
    )
    from repro.experiments.tree_soundness import (
        network_zoo,
        one_way_tree_soundness_sweep,
        tree_soundness_sweep,
    )

    rng = np.random.default_rng([seed, 2])
    strength = float(rng.uniform(0.05, 0.3))
    zoo = {"num_terminals": 4, "networks": network_zoo(4)}
    # One operation per path length and per channel family: many short
    # operations spread each pass over the run's interleaved steps.
    operations = [
        Operation(
            f"lemma17-r{r}",
            "entangled",
            soundness_scaling_sweep,
            {"path_lengths": [r]},
            "path_lengths",
            small=r < 5,
        )
        for r in (2, 3, 4, 5)
    ]
    operations += [
        Operation(
            f"channel-{family}",
            "search",
            channel_family_soundness_sweep,
            {"points": [(family, value) for value in _grid(rng, FAMILY_POINTS)]},
            "points",
        )
        for family in FAMILIES
    ]
    operations += [
        Operation(
            f"path-length-r{r}",
            "search",
            path_length_soundness_sweep,
            {"path_lengths": [r], "strength": strength},
            "path_lengths",
            small=r < 5,
        )
        for r in range(2, 8)
    ]
    return operations + [
        Operation("tree-zoo", "search", tree_soundness_sweep, dict(zoo), "networks"),
        Operation("one-way-tree-zoo", "search", one_way_tree_soundness_sweep, dict(zoo), "networks"),
        Operation(
            "topologies",
            "search",
            topology_soundness_sweep,
            {"topologies": default_soundness_topologies()},
            "topologies",
        ),
    ]


PHASES = {"noise": noise_operations, "soundness": soundness_operations}


def phase_metrics(phase: str, operations: List[Operation], seconds: List[List[float]]) -> Dict[str, float]:
    """The phase's end-to-end metrics from each operation's median run (uncalibrated)."""
    times = [statistics.median(samples) for samples in seconds]

    def total(kind: str, weights: List[float]) -> float:
        return sum(weight for op, weight in zip(operations, weights) if op.kind == kind)

    if phase == "noise":
        points = [float(op.points) for op in operations]
        return {
            f"{kind}_points_per_s": total(kind, points) / total(kind, times)
            for kind in ("depolarizing", "generic")
        }
    return {"entangled_optimum_s": total("entangled", times), "strategy_search_s": total("search", times)}


def run_pass(operations: List[Operation]) -> tuple:
    """One closed-loop pass on a fresh default ``Engine()``: (rows, seconds) per operation."""
    from repro.engine.core import Engine, set_default_engine

    set_default_engine(Engine())
    try:
        rows, seconds = [], []
        for operation in operations:
            start = time.perf_counter()
            rows.append(operation())
            seconds.append(time.perf_counter() - start)
        return rows, seconds
    finally:
        set_default_engine(None)


def compare_rows(observed: list, reference: list, tolerance: float) -> List[str]:
    """Differences between engine rows and dense-reference rows (numbers and flags)."""
    if len(observed) != len(reference):
        return [f"{len(observed)} rows, dense reference has {len(reference)}"]
    problems = []
    for row, expected in zip(observed, reference):
        if row.label != expected.label:
            problems.append(f"row {row.label!r} != dense row {expected.label!r}")
            continue
        for column, want in expected.values.items():
            got = row.values.get(column)
            if isinstance(want, bool) or not isinstance(want, (int, float)):
                if isinstance(want, bool) and got != want:
                    problems.append(f"{row.label} {column}: {got} != dense {want}")
                continue
            if not isinstance(got, (int, float)) or abs(float(got) - float(want)) > tolerance:
                problems.append(f"{row.label} {column}: {got!r} != dense {want!r}")
    return problems


def dense_check(operation: Operation, rows: list, rng: np.random.Generator) -> List[str]:
    """Re-run a seeded subsample of ``operation``'s grid on ``Engine("dense")``."""
    from repro.engine import parity_tolerance
    from repro.engine.core import Engine, set_default_engine

    if not operation.small:
        return []
    indices = sorted(rng.choice(operation.points, size=min(CHECK_POINTS, operation.points), replace=False))
    set_default_engine(Engine("dense"))
    try:
        reference = operation.subset(indices)()
    finally:
        set_default_engine(None)
    return compare_rows([rows[i] for i in indices], reference, parity_tolerance(np.complex128))


def warm(operations: List[Operation]) -> None:
    """Untimed set-up pass on short grids: fills module-level caches."""
    run_pass([op.subset(range(min(WARM_POINTS, op.points))) for op in operations if op.small])


def _record(result: PhaseResult, operation: Operation, problems: List[str]) -> None:
    if problems:
        result.failed += 1
        result.problems.extend(f"{operation.name}: {problem}" for problem in problems[:3])


def mode_serve(config: dict) -> dict:
    """Warm up one phase, then run one operation per ``step`` line read from stdin.

    Operations run in pass order, and each pass starts on a fresh default
    ``Engine()``, so a pass is spread over several steps that the parent
    interleaves with its other phases.  Each step answers with the
    operation's seconds.  Every run of an operation must reproduce its first
    run's rows; when stdin closes, those first rows are checked against the
    dense backend.
    """
    from repro.engine.core import Engine, set_default_engine

    phase, seed = config["phase"], int(config["seed"])
    operations = PHASES[phase](seed)
    warm(operations)
    print(f"READY {len(operations)}", flush=True)
    result = PhaseResult()
    first: List[Any] = [None] * len(operations)
    seconds: List[List[float]] = [[] for _ in operations]
    step = 0
    while sys.stdin.readline().strip() == "step":
        index = step % len(operations)
        operation = operations[index]
        if index == 0:
            set_default_engine(Engine())
        result.attempted += 1
        start = time.perf_counter()
        try:
            rows = operation()
        except Exception as error:  # a failed operation is counted, not fatal
            _record(result, operation, [f"{type(error).__name__}: {error}"])
            print(json.dumps({"seconds": None}), flush=True)
            step += 1
            continue
        elapsed = time.perf_counter() - start
        if first[index] is None:
            first[index] = rows
        problems = compare_rows(rows, first[index], 0.0)
        _record(result, operation, problems)
        if not problems:
            seconds[index].append(elapsed)
        step += 1
        print(json.dumps({"seconds": elapsed}), flush=True)
    set_default_engine(None)
    rng = np.random.default_rng([seed, 3])
    for operation, rows in zip(operations, first):
        if rows is not None:
            _record(result, operation, dense_check(operation, rows, rng))
    metrics = phase_metrics(phase, operations, seconds) if all(seconds) else {}
    return {**result.__dict__, "metrics": metrics, "seconds": seconds}


def mode_report(config: dict) -> dict:
    """One traced ``repro-report`` (serial or pooled), written to ``config["out"]``."""
    import inspect
    import os

    from repro.experiments import report

    tracer = ReproTracer().install()
    listener = PoolListener()
    kwargs: Dict[str, Any] = {"parallel": bool(config["parallel"])}
    if kwargs["parallel"] and "progress" in inspect.signature(report.generate_report_status).parameters:
        kwargs["progress"] = listener
    start = time.perf_counter()
    listener.start = start
    text, failed = report.generate_report_status(**kwargs)
    wall = time.perf_counter() - start
    with open(config["out"], "w", encoding="utf-8") as handle:
        handle.write(text)
    layers = tracer.metrics()
    if kwargs["parallel"]:
        # Pooled sections run in worker processes: their time is the summed
        # chunk wall time of each scenario, as reported by the chunk events.
        for scenario, seconds in listener.scenario_s.items():
            layers[f"scenario.{scenario}_s"] = seconds
    layers.update(listener.metrics(wall, os.cpu_count() or 1))
    tracer.restore()
    return {"layers": layers, "failed_sections": list(failed)}


MODES = {"serve": mode_serve, "report": mode_report}


if __name__ == "__main__":
    settings = json.loads(sys.argv[1])
    print(json.dumps(MODES[settings["mode"]](settings)), flush=True)
