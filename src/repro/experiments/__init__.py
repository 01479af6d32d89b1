"""Experiment harness: regenerate every table of the paper and the scaling figures.

Each module produces structured row records (see :mod:`repro.experiments.records`)
that the report generator (:mod:`repro.experiments.report`) renders and the
``benchmarks/`` harness prints.

* :mod:`repro.experiments.table1` — the prior-work baselines of Table 1.
* :mod:`repro.experiments.table2` — the paper's upper bounds (Table 2), each
  row paired with an exact small-instance verification of completeness and
  soundness performed by the corresponding protocol implementation.
* :mod:`repro.experiments.table3` — the lower bounds of Table 3 and the
  consistency check ``upper >= lower`` on shared parameters.
* :mod:`repro.experiments.crossover` — the Section 4 quantum-vs-classical
  total-proof-size comparison and its crossover points.
* :mod:`repro.experiments.soundness_scaling` — the exact optimal cheating
  probability of the Algorithm 3 chain as a function of the path length,
  compared against the ``1 - 4/(81 r^2)`` bound of Lemma 17.
* :mod:`repro.experiments.noise_robustness` — batched sweeps of acceptance
  probability and decision gap versus Kraus-channel noise strength for the
  path, tree and relay protocol families.
* :mod:`repro.experiments.topologies` — soundness and noise sweeps across
  grid, ring and random-graph networks (verification-tree families).
* :mod:`repro.experiments.runner` — the unified scenario registry, the
  :class:`SweepSpec` grid declarations of swept scenarios, and
  :class:`ExperimentRunner` (optional sharded process-pool parallelism) that
  the report generator and the benchmark harness route through.
* :mod:`repro.experiments.sweep` — the sweep-sharding layer: chunk
  planning, per-worker engine reuse, merged cache statistics, and
  ``PoolRun``, the one pooled dispatch core (launcher, operator pack,
  planning, draining, cost book) behind the runner's pooled/async paths and
  ``run_sweep_sharded``.
* :mod:`repro.experiments.streaming` — streaming chunk consumption:
  per-chunk progress events, chunk-level failure isolation and fail-fast
  cancellation.
* :mod:`repro.experiments.launchers` — where chunks run (``serial``,
  ``threads``, ``process-pool``, ``subprocess``);
  :mod:`repro.experiments.costmodel` — the measured per-point cost book.
* :mod:`repro.experiments.catalog` — the registry rendered as the README's
  scenario table (``python -m repro.experiments.catalog``).

This package does not import the pooled stack (sweep, streaming, launchers,
cost model), so a serial run never loads it.  Import ``run_sweep_sharded``
from :mod:`repro.experiments.sweep`, and ``ChunkEvent``, ``ChunkFailure``,
``PrintProgressListener``, ``ProgressListener`` and ``SweepAborted`` from
:mod:`repro.experiments.streaming`.
"""

from repro.experiments.catalog import scenario_catalog_markdown
from repro.experiments.noise_robustness import (
    channel_comparison,
    path_noise_sweep,
    relay_noise_sweep,
    tree_noise_sweep,
)
from repro.experiments.records import ExperimentRow, format_rows
from repro.experiments.runner import (
    ExperimentRunner,
    PartialScenarioResult,
    ScenarioFailure,
    SweepSpec,
    available_scenarios,
    failed_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.experiments.topologies import topology_noise_sweep, topology_soundness_sweep
from repro.experiments.table1 import table1_rows
from repro.experiments.table2 import table2_rows, table2_verification_rows
from repro.experiments.table3 import table3_rows, upper_vs_lower_consistency
from repro.experiments.crossover import crossover_sweep, find_crossover, long_path_sweep
from repro.experiments.soundness_scaling import soundness_scaling_sweep

__all__ = [
    "ExperimentRow",
    "ExperimentRunner",
    "PartialScenarioResult",
    "ScenarioFailure",
    "SweepSpec",
    "failed_scenarios",
    "topology_noise_sweep",
    "topology_soundness_sweep",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "format_rows",
    "table1_rows",
    "table2_rows",
    "table2_verification_rows",
    "table3_rows",
    "upper_vs_lower_consistency",
    "crossover_sweep",
    "find_crossover",
    "long_path_sweep",
    "soundness_scaling_sweep",
    "channel_comparison",
    "path_noise_sweep",
    "relay_noise_sweep",
    "tree_noise_sweep",
    "scenario_catalog_markdown",
]
