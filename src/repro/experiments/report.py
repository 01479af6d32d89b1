"""One-shot report generator: every regenerated table in a single text document.

Usage (command line)::

    python -m repro.experiments.report              # print to stdout
    python -m repro.experiments.report out.txt      # write to a file
    python -m repro.experiments.report --parallel   # sharded process pool
    repro-report --parallel --scenarios table1,crossover   # explicit subset
    repro-report --progress                         # per-chunk progress on stderr
    repro-report --parallel --chunk-size 8          # pin the static chunk plan
    repro-report --parallel --no-adaptive           # disable the cost model
    repro-report --backend transfer-matrix-torch    # pick the simulation backend
    repro-report --dtype complex64                  # reduced-precision fast path
    repro-report --launcher threads                 # pick the chunk-dispatch backend
    repro-report                                    # console script (after install)

The exit code reflects the report's health: any scenario that failed (fully
or in part) makes ``main`` return 1 with a stderr summary, so CI can rely on
the exit status instead of grepping the rendered text for ``FAILED`` markers;
usage errors, unknown or empty ``--scenarios`` names and an output path
that cannot be written included, return 2.
``--progress`` (implies ``--parallel``) streams one line per completed sweep
chunk to stderr while the report is being regenerated.

Chunk-plan precedence on the parallel path, highest first: ``--chunk-size N``
pins every sweep to static N-point chunks; a scenario's own
``SweepSpec.chunk_size`` pins that scenario; otherwise the cost-model
adaptive planner sizes variable-width chunks from recorded history (see
:mod:`repro.experiments.costmodel`), falling back to the static equal-count
plan for scenarios with no history.  ``--no-adaptive`` removes the adaptive
tier entirely — no cost-book reads *or* writes — leaving only the static
planner.

``--backend`` and ``--dtype`` select the simulation backend and contraction
dtype; they win over the ``REPRO_BACKEND`` / ``REPRO_DTYPE`` environment
variables by exporting the chosen values, so pool workers on the parallel
path inherit the selection (see :mod:`repro.engine.array_ops`).  Nothing is
exported until every usage check has passed.
``--launcher`` picks the chunk-dispatch backend from the launcher registry
(``serial`` / ``threads`` / ``process-pool`` / ``subprocess``, see
:mod:`repro.experiments.launchers`), implies ``--parallel``, and wins over
``REPRO_LAUNCHER`` the same way.

The report routes every section through the unified
:class:`~repro.experiments.runner.ExperimentRunner`: Tables 1-3 of the paper,
the small-instance protocol verification, the quantum/classical crossover
sweeps, the soundness-scaling experiments and the noise-robustness sweeps —
the same content the benchmark harness prints, gathered in one place for lab
notebooks or CI artifacts.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.experiments.runner import (
    ExperimentRunner,
    available_scenarios,
    failed_scenarios,
)
from repro.utils.env import env_set

if TYPE_CHECKING:
    from repro.experiments.streaming import Progress

#: Report sections, in order; each is a registered runner scenario.
REPORT_SCENARIOS = [
    "table1",
    "table1-measured",
    "table2",
    "table2-verify",
    "table3",
    "table3-consistency",
    "crossover",
    "crossover-long-path",
    "crossover-points",
]

#: Heavy sections appended when soundness experiments are requested.
SOUNDNESS_SCENARIOS = [
    "soundness-scaling",
    "soundness-repetition",
    "soundness-tree",
    "soundness-one-way-tree",
    "topology-soundness",
]

#: Robustness sections: protocol degradation under the Kraus noise channels.
NOISE_SCENARIOS = [
    "noise-robustness-path",
    "noise-robustness-tree",
    "noise-robustness-relay",
    "noise-channels",
    "topology-noise",
    "noisy-soundness-channels",
    "noisy-soundness-path-length",
    "noisy-soundness-collapse",
]


def generate_report_status(
    include_soundness: bool = True,
    include_noise: bool = True,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    scenarios: Optional[List[str]] = None,
    progress: Progress = None,
    chunk_size: Optional[int] = None,
    adaptive: bool = True,
    launcher=None,
) -> Tuple[str, List[str]]:
    """Build the text report plus the names of scenarios that failed.

    An explicit ``scenarios`` list overrides the section selection entirely
    (used by the CI parallel smoke step to exercise the pool path cheaply);
    ``progress`` receives a chunk event per completed pool chunk on the
    parallel path.  ``chunk_size`` pins static equal-count chunks for every
    sweep (overriding per-scenario ``SweepSpec`` defaults and the adaptive
    planner); ``adaptive=False`` disables cost-model planning and recording
    entirely.  Failed names cover both full :class:`ScenarioFailure`
    sections and partially-failed sweeps that lost chunks.
    """
    if scenarios is None:
        scenarios = list(REPORT_SCENARIOS)
        if include_soundness:
            scenarios += SOUNDNESS_SCENARIOS
        if include_noise:
            scenarios += NOISE_SCENARIOS
    runner = ExperimentRunner(
        scenarios,
        parallel=parallel,
        max_workers=max_workers,
        progress=progress,
        chunk_size=chunk_size,
        adaptive=adaptive,
        launcher=launcher,
    )
    results = runner.run()
    return runner.render(results), failed_scenarios(results)


def generate_report(
    include_soundness: bool = True,
    include_noise: bool = True,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    scenarios: Optional[List[str]] = None,
    progress: Progress = None,
    chunk_size: Optional[int] = None,
    adaptive: bool = True,
    launcher=None,
) -> str:
    """Build the full text report; heavy sections can be skipped.

    See :func:`generate_report_status` for the variant that also reports
    which scenarios failed (the CLI uses it to derive its exit code).
    """
    report, _ = generate_report_status(
        include_soundness=include_soundness,
        include_noise=include_noise,
        parallel=parallel,
        max_workers=max_workers,
        scenarios=scenarios,
        progress=progress,
        chunk_size=chunk_size,
        adaptive=adaptive,
        launcher=launcher,
    )
    return report


def _unwritable_output(path: str) -> Optional[str]:
    """Why the report cannot be written to ``path``, or ``None`` when it can."""
    if os.path.isdir(path):
        return "is a directory"
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return "is in a directory that does not exist"
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        return "is not writable"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point.

    Returns 0 on a clean report, 1 when any scenario failed (with a stderr
    summary naming the failed sections), 2 on usage errors.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parallel = False
    if "--parallel" in argv:
        parallel = True
        argv.remove("--parallel")
    progress: Progress = None
    if "--progress" in argv:
        from repro.experiments.streaming import PrintProgressListener

        argv.remove("--progress")
        parallel = True  # chunk events only exist on the pooled path
        progress = PrintProgressListener(sys.stderr)
    adaptive = True
    if "--no-adaptive" in argv:
        adaptive = False
        argv.remove("--no-adaptive")
    chunk_size: Optional[int] = None
    if "--chunk-size" in argv:
        index = argv.index("--chunk-size")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--chunk-size needs a positive integer\n")
            return 2
        raw = argv.pop(index)
        try:
            chunk_size = int(raw)
        except ValueError:
            chunk_size = 0
        if chunk_size < 1:
            sys.stderr.write(f"--chunk-size needs a positive integer, got {raw!r}\n")
            return 2
    scenarios: Optional[List[str]] = None
    if "--scenarios" in argv:
        index = argv.index("--scenarios")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--scenarios needs a comma-separated scenario list\n")
            return 2
        scenarios = [name for name in argv.pop(index).split(",") if name]
        known = available_scenarios()
        unknown_names = [name for name in scenarios if name not in known]
        if unknown_names or not scenarios:
            problem = f"unknown scenarios {unknown_names}" if unknown_names else "no scenario named"
            sys.stderr.write(f"--scenarios: {problem}; available: {known}\n")
            return 2
    # --backend / --dtype / --launcher win over REPRO_BACKEND / REPRO_DTYPE /
    # REPRO_LAUNCHER (the same precedence --chunk-size has over the cost
    # model): once every usage check has passed, they are exported to the
    # environment so pool workers inherit the selection.
    backend: Optional[str] = None
    if "--backend" in argv:
        index = argv.index("--backend")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--backend needs a backend name\n")
            return 2
        backend = argv.pop(index)
        from repro.engine.backends import available_backends

        if backend not in available_backends():
            sys.stderr.write(
                f"unknown backend {backend!r}; available: {available_backends()}\n"
            )
            return 2
    dtype: Optional[str] = None
    if "--dtype" in argv:
        index = argv.index("--dtype")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--dtype needs complex64 or complex128\n")
            return 2
        raw = argv.pop(index)
        from repro.engine.array_ops import resolve_dtype
        from repro.exceptions import ProtocolError

        try:
            resolved = resolve_dtype(raw)
        except ProtocolError as error:
            sys.stderr.write(f"{error}\n")
            return 2
        dtype = resolved.name
    # --launcher implies --parallel: chunk dispatch only exists on the pooled
    # path.
    launcher: Optional[str] = None
    if "--launcher" in argv:
        index = argv.index("--launcher")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--launcher needs a launcher name\n")
            return 2
        raw = argv.pop(index)
        from repro.exceptions import ProtocolError
        from repro.experiments.launchers import resolve_launcher_name

        try:
            launcher = resolve_launcher_name(raw)
        except ProtocolError as error:
            sys.stderr.write(f"{error}\n")
            return 2
        parallel = True
    unknown = [arg for arg in argv if arg.startswith("-")]
    if unknown or len(argv) > 1:
        sys.stderr.write(
            f"usage: repro-report [--parallel] [--progress] [--scenarios a,b,...] "
            f"[--chunk-size N] [--no-adaptive] [--backend NAME] [--dtype DTYPE] "
            f"[--launcher NAME] [output-file]; "
            f"unrecognized arguments: {unknown or argv[1:]}\n"
        )
        return 2
    # Check the output path before computing anything: a report that cannot
    # be written is a usage error, not a failed section.
    problem = _unwritable_output(argv[0]) if argv else None
    if problem:
        sys.stderr.write(f"repro-report: output path {argv[0]!r} {problem}\n")
        return 2
    for name, value in (
        ("REPRO_BACKEND", backend),
        ("REPRO_DTYPE", dtype),
        ("REPRO_LAUNCHER", launcher),
    ):
        if value is not None:
            env_set(name, value)
    report, failed = generate_report_status(
        parallel=parallel,
        scenarios=scenarios,
        progress=progress,
        chunk_size=chunk_size,
        adaptive=adaptive,
        launcher=launcher,
    )
    if argv:
        with open(argv[0], "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    if failed:
        sys.stderr.write(
            f"repro-report: {len(failed)} scenario(s) FAILED: {', '.join(failed)}\n"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
