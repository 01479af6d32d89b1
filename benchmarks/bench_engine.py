"""Benchmarks of the simulation-engine layer: batched versus scalar evaluation.

The headline numbers: evaluating 64 inputs through the batched
``acceptance_probabilities`` API (transfer-matrix backend, batched Gram-matrix
contractions) must be at least 5x faster than 64 scalar
``acceptance_probability`` calls on the reference dense backend for the chain
families, and at least 3x faster for the tree families (the ``TreeProgram``
path); a 256-point noise sweep through the density-matrix evaluation path,
with depolarizing or (generic) dephasing links, must be at least 3x faster
batched than scalar (and the depolarizing one no slower in the complex64
contraction dtype, within the 1e-5 dtype-parity tolerance of the complex128
rows); and the
batched fingerprint-strategy soundness search must match the scalar loop's
optimum to 1e-9 on a 1024-assignment sweep while running measurably faster
(and at least 3x faster than the dense batch-size-1 reference when the same
search runs under a NoiseModel on the density-matrix path);
and a sharded 256-point sweep (the strength grid chunked across 4 pool
workers) must finish within a second with 1e-12 row parity against the
serial sweep; a cost-model-planned run of a skewed sweep (warm cost book) must
beat the static equal-count plan by at least 1.3x with byte-identical rows;
and a pack-seeded pool must show nonzero ``pack_hits`` and strictly fewer
aggregate misses than an unseeded one.  The streaming and adaptive
checks time and record their rows on any machine, but assert their targets
only with at least 4 cores (counted by the cgroup-aware
``effective_cpu_count``).  The remaining benchmarks time the backends head
to head and the engine's operator-cache hit path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.soundness import fingerprint_strategy_soundness
from repro.engine import ChainJob, DenseBackend, Engine, TransferMatrixBackend
from repro.network.topology import star_network
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer
from repro.utils.bitstrings import int_to_bits

from conftest import best_of, emit_table, record_engine_metadata, timing_assertions_enabled
from repro.experiments.records import ExperimentRow

BATCH_SIZE = 64
FINGERPRINTS = ExactCodeFingerprint(4, rng=11)


def _input_batch(size: int = BATCH_SIZE):
    """A deterministic mix of yes- and no-instances for 4-bit equality."""
    batch = []
    for index in range(size):
        x = int_to_bits(index % 16, 4)
        y = x if index % 2 == 0 else int_to_bits((index * 7 + 1) % 16, 4)
        batch.append((x, y))
    return batch


def test_batched_vs_scalar_speedup(benchmark):
    """Acceptance criterion: >= 5x speedup for 64 batched inputs (Algorithm 3).

    The scalar side runs on the dense backend — the reference one-job-at-a-time
    evaluation, i.e. the pre-engine semantics every experiment used to loop
    over.  The batched side is ``acceptance_probabilities`` on the default
    transfer-matrix backend.
    """
    protocol = EqualityPathProtocol.on_path(4, 8, FINGERPRINTS)
    scalar_protocol = EqualityPathProtocol.on_path(4, 8, FINGERPRINTS).use_engine("dense")
    batch = _input_batch()

    scalar_probabilities = np.array(
        [scalar_protocol.acceptance_probability(inputs) for inputs in batch]
    )
    batched_probabilities = benchmark(protocol.acceptance_probabilities, batch)
    record_engine_metadata(benchmark, batch_size=BATCH_SIZE)
    np.testing.assert_allclose(batched_probabilities, scalar_probabilities, atol=1e-9)

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    scalar_time = best_of(
        lambda: [scalar_protocol.acceptance_probability(inputs) for inputs in batch]
    )
    scalar_transfer_time = best_of(
        lambda: [protocol.acceptance_probability(inputs) for inputs in batch]
    )
    batched_time = best_of(lambda: protocol.acceptance_probabilities(batch))
    speedup = scalar_time / batched_time
    emit_table(
        "Engine — batched vs scalar acceptance evaluation (64 inputs, r=8)",
        [
            ExperimentRow("engine", "64 scalar calls (dense backend)", {"seconds": scalar_time}),
            ExperimentRow("engine", "64 scalar calls (transfer-matrix)", {"seconds": scalar_transfer_time}),
            ExperimentRow("engine", "acceptance_probabilities (transfer-matrix)", {"seconds": batched_time}),
            ExperimentRow("engine", "speedup vs dense scalar", {"ratio": speedup, "target": ">= 5x"}),
        ],
        artifact="engine",
    )
    assert speedup >= 5.0, f"batched evaluation only {speedup:.1f}x faster"


def _tree_input_batch(size: int = BATCH_SIZE):
    """A deterministic mix of yes- and no-instances for 4-bit 3-party equality."""
    batch = []
    for index in range(size):
        x = int_to_bits(index % 16, 4)
        y = x if index % 2 == 0 else int_to_bits((index * 5 + 3) % 16, 4)
        batch.append((x, x, y))
    return batch


def test_tree_batched_vs_scalar_speedup(benchmark):
    """Acceptance criterion: >= 3x speedup for 64 batched tree instances.

    The protocol is Algorithm 5 equality on a 3-terminal star, compiled to
    ``TreeProgram`` jobs.  The scalar side evaluates one tree job at a time
    on the dense backend (the leaf-to-root reference recursion); the batched
    side stacks all 64 jobs into grouped Gram contractions.
    """
    protocol = EqualityTreeProtocol(star_network(3), FINGERPRINTS)
    scalar_protocol = EqualityTreeProtocol(star_network(3), FINGERPRINTS).use_engine("dense")
    batch = _tree_input_batch()

    scalar_probabilities = np.array(
        [scalar_protocol.acceptance_probability(inputs) for inputs in batch]
    )
    batched_probabilities = benchmark(protocol.acceptance_probabilities, batch)
    record_engine_metadata(benchmark, batch_size=BATCH_SIZE)
    np.testing.assert_allclose(batched_probabilities, scalar_probabilities, atol=1e-9)

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    scalar_time = best_of(
        lambda: [scalar_protocol.acceptance_probability(inputs) for inputs in batch]
    )
    batched_time = best_of(lambda: protocol.acceptance_probabilities(batch))
    speedup = scalar_time / batched_time
    emit_table(
        "Engine — batched vs scalar tree-program evaluation (64 instances, star-3)",
        [
            ExperimentRow("engine-tree", "64 scalar calls (dense backend)", {"seconds": scalar_time}),
            ExperimentRow("engine-tree", "acceptance_probabilities (transfer-matrix)", {"seconds": batched_time}),
            ExperimentRow("engine-tree", "speedup vs dense scalar", {"ratio": speedup, "target": ">= 3x"}),
        ],
        artifact="engine",
    )
    assert speedup >= 3.0, f"batched tree evaluation only {speedup:.1f}x faster"


def test_batched_soundness_search_speedup(benchmark):
    """Batched strategy search == scalar loop to 1e-9, and measurably faster.

    1025 strategies (honest + 4 candidate strings over 5 path nodes =
    1024 assignments) on the r=6 equality path.  The scalar side replicates
    the pre-refactor loop: one ``acceptance_probability`` call per strategy.
    """
    protocol = EqualityPathProtocol.on_path(4, 6, FINGERPRINTS)
    inputs = ("1011", "1010")
    candidates = ["1011", "1010", "0101", "0000"]

    result = benchmark(
        fingerprint_strategy_soundness, protocol, inputs, candidate_strings=candidates
    )
    record_engine_metadata(benchmark, batch_size=result.num_assignments + 1)
    assert result.num_assignments == 4**5

    fingerprints = protocol.fingerprints
    registers = protocol.proof_registers()
    nodes = sorted({register.node for register in registers}, key=str)
    honest = protocol.honest_proof(inputs)

    def scalar_search():
        from itertools import product as iter_product

        best = protocol.acceptance_probability(inputs, honest)
        for combo in iter_product(candidates, repeat=len(nodes)):
            node_string = dict(zip(nodes, combo))
            proof = honest
            for register in registers:
                proof = proof.replaced(register.name, fingerprints.state(node_string[register.node]))
            best = max(best, protocol.acceptance_probability(inputs, proof))
        return best

    scalar_best = scalar_search()
    assert abs(result.best_acceptance - scalar_best) <= 1e-9

    if not timing_assertions_enabled(benchmark):
        return

    scalar_time = best_of(scalar_search, repeats=3)
    batched_time = best_of(
        lambda: fingerprint_strategy_soundness(protocol, inputs, candidate_strings=candidates),
        repeats=3,
    )
    speedup = scalar_time / batched_time
    emit_table(
        "Soundness — batched vs scalar strategy search (1025 strategies, r=6)",
        [
            ExperimentRow("soundness-search", "scalar loop", {"seconds": scalar_time}),
            ExperimentRow("soundness-search", "batched search", {"seconds": batched_time}),
            ExperimentRow("soundness-search", "speedup", {"ratio": speedup, "target": "> 1x (measurably faster)"}),
        ],
        artifact="engine",
    )
    assert speedup >= 1.5, f"batched soundness search only {speedup:.2f}x faster"


NOISE_POINTS = 256

#: Smaller registers for the noise sweep: depolarizing channels carry
#: ``d^2`` Kraus operators, so the 256-channel sweep uses the 16-dimensional
#: 2-bit fingerprints rather than the 32-dimensional 4-bit ones.
NOISE_FINGERPRINTS = ExactCodeFingerprint(2, rng=11)


def _noisy_sweep_programs(protocol_factory, strengths):
    """One compiled noisy program per strength (honest yes-instance)."""
    return [
        protocol_factory(strength).acceptance_program(("11", "11"))
        for strength in strengths
    ]


@pytest.mark.parametrize("channel", ["depolarizing", "dephasing"])
def test_noisy_sweep_batched_vs_scalar_speedup(benchmark, channel):
    """Acceptance criterion: >= 3x batched speedup on a 256-point noise sweep.

    Every sweep point instantiates the Algorithm 3 path protocol with a
    different link strength of one channel family, so every job carries
    different channel annotations — but the noisy jobs share one shape
    group, and the batched backend contracts all 256 density-row stacks in
    one transfer product, applying the family's closed form to them in one
    broadcast.  The scalar side evaluates each program one at a time on the
    dense backend (the Kraus-sum density recursion).
    """
    from repro.engine import default_engine
    from repro.quantum.channels import NoiseModel, channel_family

    strengths = np.linspace(0.0, 0.5, NOISE_POINTS)
    build = channel_family(channel)

    def factory(strength):
        return EqualityPathProtocol.on_path(
            2,
            6,
            NOISE_FINGERPRINTS,
            noise=NoiseModel.uniform_link(build(strength, NOISE_FINGERPRINTS.dim)),
        )

    programs = _noisy_sweep_programs(factory, strengths)
    engine = default_engine()
    scalar_engine = Engine(backend="dense")

    batched_values = benchmark(engine.evaluate_programs, programs)
    record_engine_metadata(benchmark, batch_size=NOISE_POINTS)
    # Parity versus the scalar Kraus-sum reference on a spread of sweep
    # points (the full 256-point scalar pass runs only in timing mode —
    # its slowness is the point of the benchmark).
    check = list(range(0, NOISE_POINTS, 16))
    scalar_values = np.array(
        [scalar_engine.evaluate_program(programs[i]) for i in check]
    )
    np.testing.assert_allclose(batched_values[check], scalar_values, atol=1e-9)
    assert batched_values[0] > 0.999  # zero-noise completeness
    assert np.all(np.diff(batched_values) < 1e-12)  # monotone degradation

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    scalar_time = best_of(
        lambda: [scalar_engine.evaluate_program(program) for program in programs],
        repeats=1,
    )
    batched_time = best_of(lambda: engine.evaluate_programs(programs), repeats=3)
    speedup = scalar_time / batched_time
    scenario = f"engine-noise-{channel}"
    emit_table(
        f"Engine — batched vs scalar {channel} sweep (256 noise points, r=6)",
        [
            ExperimentRow(scenario, "256 scalar programs (dense backend)", {"seconds": scalar_time}),
            ExperimentRow(scenario, "evaluate_programs (transfer-matrix)", {"seconds": batched_time}),
            ExperimentRow(scenario, "speedup vs dense scalar", {"ratio": speedup, "target": ">= 3x"}),
        ],
        artifact="engine",
    )
    assert speedup >= 3.0, f"batched {channel} sweep only {speedup:.1f}x faster"


def test_noisy_soundness_search_batched_vs_scalar_speedup(benchmark):
    """Acceptance criterion: >= 3x batched speedup on a noisy strategy sweep.

    257 strategies (honest + 4 candidate strings over 4 path nodes) searched
    *under* a depolarizing NoiseModel with readout error: every strategy
    batch evaluates on the engine's density-matrix path via the protocol's
    ``with_noise`` sibling.  The scalar side is the same search pinned to the
    dense backend at ``batch_size=1`` — one Kraus-sum density recursion per
    strategy, the pre-batching semantics.
    """
    from repro.quantum.channels import NoiseModel

    noise = NoiseModel.depolarizing(0.2, NOISE_FINGERPRINTS.dim, readout_error=0.02)
    inputs = ("11", "10")
    candidates = ["11", "10", "01", "00"]

    def batched_search():
        protocol = EqualityPathProtocol.on_path(2, 5, NOISE_FINGERPRINTS)
        return fingerprint_strategy_soundness(
            protocol.with_noise(noise), inputs, candidate_strings=candidates
        )

    def scalar_search():
        protocol = EqualityPathProtocol.on_path(2, 5, NOISE_FINGERPRINTS)
        protocol.use_engine(Engine(backend="dense"))
        return fingerprint_strategy_soundness(
            protocol.with_noise(noise), inputs, candidate_strings=candidates, batch_size=1
        )

    result = benchmark(batched_search)
    record_engine_metadata(benchmark, batch_size=result.num_assignments + 1)
    assert result.num_assignments == 4**4

    scalar_result = scalar_search()
    assert abs(result.best_acceptance - scalar_result.best_acceptance) <= 1e-9
    assert result.best_strategy == scalar_result.best_strategy

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    scalar_time = best_of(scalar_search, repeats=1)
    batched_time = best_of(batched_search, repeats=3)
    speedup = scalar_time / batched_time
    emit_table(
        "Soundness — batched vs scalar noisy strategy search (257 strategies, r=5)",
        [
            ExperimentRow("noisy-soundness-search", "scalar search (dense, batch=1)", {"seconds": scalar_time}),
            ExperimentRow("noisy-soundness-search", "batched search (transfer-matrix)", {"seconds": batched_time}),
            ExperimentRow("noisy-soundness-search", "speedup vs dense scalar", {"ratio": speedup, "target": ">= 3x"}),
        ],
        artifact="engine",
    )
    assert speedup >= 3.0, f"batched noisy soundness search only {speedup:.1f}x faster"


def test_dtype_fast_path_speedup(benchmark):
    """Acceptance criterion: complex64 no slower, and within parity, on the noise sweep.

    The reduced-precision contraction path (``TransferMatrixBackend(dtype=
    "complex64")``) halves the bandwidth of the density-row pipeline — the
    outer products, channel grids and Hilbert-Schmidt traces of the distinct
    densities — while the transfer recursion and probability accumulation
    stay host float64.  The rows must agree with the complex128 reference
    engine within the 1e-5 dtype-parity tolerance, and the fast path must not
    be slower.  (Since a sweep builds only its distinct densities, the
    per-register keying left in both dtypes puts the ratio near 1.4x, so a
    ratio gate would only flake.)
    """
    from repro.engine import parity_tolerance
    from repro.quantum.channels import NoiseModel

    strengths = np.linspace(0.0, 0.5, NOISE_POINTS)

    def factory(strength):
        return EqualityPathProtocol.on_path(
            2,
            6,
            NOISE_FINGERPRINTS,
            noise=NoiseModel.depolarizing(strength, NOISE_FINGERPRINTS.dim),
        )

    programs = _noisy_sweep_programs(factory, strengths)
    reference_engine = Engine(backend=TransferMatrixBackend(dtype="complex128"))
    fast_engine = Engine(backend=TransferMatrixBackend(dtype="complex64"))

    fast_values = benchmark(fast_engine.evaluate_programs, programs)
    record_engine_metadata(benchmark, batch_size=NOISE_POINTS, engine=fast_engine)
    reference_values = reference_engine.evaluate_programs(programs)
    np.testing.assert_allclose(
        fast_values, reference_values, atol=parity_tolerance("complex64")
    )

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    reference_time = best_of(lambda: reference_engine.evaluate_programs(programs))
    fast_time = best_of(lambda: fast_engine.evaluate_programs(programs))
    speedup = reference_time / fast_time
    emit_table(
        "Engine — complex64 fast path vs complex128 (256 noise points, r=6)",
        [
            ExperimentRow("engine-dtype", "evaluate_programs (complex128)", {"seconds": reference_time}),
            ExperimentRow("engine-dtype", "evaluate_programs (complex64)", {"seconds": fast_time}),
            ExperimentRow("engine-dtype", "speedup complex64 vs complex128", {"ratio": speedup, "target": ">= 1x"}),
        ],
        artifact="engine",
    )
    assert fast_time <= reference_time, (
        f"complex64 fast path slower than complex128 ({fast_time:.4f} s vs {reference_time:.4f} s)"
    )


SHARD_POINTS = 256
SHARD_WORKERS = 4
#: Wall-clock bound of the sharded sweep, pool start-up included.
SHARD_MAX_SECONDS = 1.0


def test_sharded_sweep_vs_scenario_parallelism(benchmark):
    """Acceptance criterion: a sharded 256-point sweep finishes within a second.

    The sharded path chunks the strength grid across 4 workers, each reusing
    one engine + operator cache for every chunk it receives; rows must come
    back in grid order with 1e-12 parity against the serial sweep, and the
    merged per-worker cache counters land in the benchmark metadata.  Both
    wall times are recorded: scenario-level parallelism cannot split a
    single scenario, so its baseline is the serial run.  The sweep itself
    now takes tens of milliseconds, less than a 4-worker pool costs to
    start, so sharding no longer beats it and a ratio gate would fail; the
    gate is the sharded run's absolute time, on any core count.
    """
    from repro.experiments.runner import run_scenario
    from repro.experiments.streaming import effective_cpu_count
    from repro.experiments.sweep import run_sweep_sharded

    strengths = tuple(np.linspace(0.0, 0.5, SHARD_POINTS))
    overrides = dict(strengths=strengths, input_length=3, path_length=8)

    result = benchmark(
        lambda: run_sweep_sharded(
            "noise-robustness-path", max_workers=SHARD_WORKERS, **overrides
        )
    )
    serial_rows = run_scenario("noise-robustness-path", **overrides)

    # Row parity: deterministic grid order, values to 1e-12.
    assert [row.label for row in result.rows] == [row.label for row in serial_rows]
    for column in ("noise", "completeness", "no_accept", "gap"):
        sharded_values = np.array([row.values[column] for row in result.rows])
        serial_values = np.array([row.values[column] for row in serial_rows])
        np.testing.assert_allclose(sharded_values, serial_values, atol=1e-12, rtol=0.0)

    # Merged per-worker cache stats ride the benchmark metadata.
    record_engine_metadata(benchmark, batch_size=SHARD_POINTS)
    extra = getattr(benchmark, "extra_info", None)
    if extra is not None:
        extra["sweep_chunks"] = result.num_chunks
        extra["sweep_worker_cache"] = dict(result.worker_stats)
    stats = result.worker_stats
    assert stats["workers"] >= 1
    assert stats["hits"] + stats["misses"] >= stats["entries"]

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    scenario_level_time = best_of(
        lambda: run_scenario("noise-robustness-path", **overrides), repeats=3
    )
    sharded_time = best_of(
        lambda: run_sweep_sharded(
            "noise-robustness-path", max_workers=SHARD_WORKERS, **overrides
        ),
        repeats=3,
    )
    speedup = scenario_level_time / sharded_time
    cores = effective_cpu_count()
    emit_table(
        "Engine — sharded vs scenario-level sweep execution (256 noise points)",
        [
            ExperimentRow(
                "engine-shard",
                "scenario-level (1 busy worker)",
                {"seconds": scenario_level_time},
            ),
            ExperimentRow(
                "engine-shard",
                f"sharded ({SHARD_WORKERS} workers, {result.num_chunks} chunks)",
                {"seconds": sharded_time, "target": f"<= {SHARD_MAX_SECONDS} s"},
            ),
            ExperimentRow("engine-shard", "speedup", {"ratio": speedup}),
            ExperimentRow("engine-shard", "cores available", {"count": cores}),
        ],
        artifact="engine",
    )
    assert sharded_time <= SHARD_MAX_SECONDS, (
        f"sharded sweep took {sharded_time:.3f} s (bound {SHARD_MAX_SECONDS} s)"
    )


def test_streaming_overhead_vs_blocking_dispatch(benchmark):
    """Acceptance criterion: streaming consumption costs <= 5% wall-clock.

    The streaming path (``as_completed`` + per-chunk progress events +
    grid-order reassembly, i.e. today's ``run_sweep_sharded``) is timed
    against a hand-rolled blocking dispatcher that submits the identical
    chunk plan and collects ``future.result()`` in submission order — the
    pre-streaming semantics.  Rows must stay byte-identical, and every chunk
    must fire exactly one progress event.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import get_scenario
    from repro.experiments.streaming import effective_cpu_count
    from repro.experiments.sweep import (
        _init_sweep_worker,
        next_pool_generation,
        partition_points,
        resolve_chunk_size,
        run_sweep_chunk,
        run_sweep_sharded,
    )

    name = "noise-robustness-path"
    strengths = tuple(np.linspace(0.0, 0.5, SHARD_POINTS))
    overrides = dict(strengths=strengths, input_length=3, path_length=8)
    spec = get_scenario(name).sweep
    chunks = partition_points(
        list(strengths), resolve_chunk_size(spec, SHARD_POINTS, SHARD_WORKERS)
    )

    def blocking_dispatch():
        with ProcessPoolExecutor(
            max_workers=SHARD_WORKERS,
            initializer=_init_sweep_worker,
            initargs=(next_pool_generation(),),
        ) as pool:
            futures = [
                pool.submit(run_sweep_chunk, name, chunk, overrides) for chunk in chunks
            ]
            return [row for future in futures for row in future.result().rows]

    events = []

    def streaming_dispatch():
        events.clear()
        return run_sweep_sharded(
            name, max_workers=SHARD_WORKERS, progress=events.append, **overrides
        )

    result = benchmark(streaming_dispatch)
    record_engine_metadata(benchmark, batch_size=SHARD_POINTS)
    assert result.ok
    assert len(events) == result.num_chunks == len(chunks)
    assert result.rows == blocking_dispatch()  # byte-identical reassembly

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    blocking_time = best_of(blocking_dispatch, repeats=3)
    streaming_time = best_of(streaming_dispatch, repeats=3)
    overhead = streaming_time / blocking_time - 1.0
    cores = effective_cpu_count()
    emit_table(
        "Engine — streaming vs blocking chunk dispatch (256 noise points)",
        [
            ExperimentRow(
                "engine-stream", "blocking dispatch", {"seconds": blocking_time}
            ),
            ExperimentRow(
                "engine-stream",
                f"streaming dispatch ({len(chunks)} chunk events)",
                {"seconds": streaming_time},
            ),
            ExperimentRow(
                "engine-stream",
                "overhead",
                {"ratio": overhead, "target": "<= 5%"},
            ),
            ExperimentRow("engine-stream", "cores available", {"count": cores}),
        ],
        artifact="engine",
    )
    if cores >= SHARD_WORKERS:  # an oversubscribed pool times scheduler noise
        assert overhead <= 0.05, f"streaming dispatch {overhead:.1%} slower than blocking"


ADAPTIVE_POINTS = 64
ADAPTIVE_HEAVY_POINTS = 8  # contiguous heavy tail of the grid
ADAPTIVE_HEAVY_UNITS = 25  # heavy point : light point work ratio
_ADAPTIVE_WORK_DIM = 96
_ADAPTIVE_UNIT_REPEATS = 40


def _adaptive_grid():
    """Distinct integer points so each has its own cost-book signature."""
    return list(range(1, ADAPTIVE_POINTS + 1))


def _adaptive_units(value: int) -> int:
    return (
        ADAPTIVE_HEAVY_UNITS
        if value > ADAPTIVE_POINTS - ADAPTIVE_HEAVY_POINTS
        else 1
    )


def _adaptive_work(value: int) -> float:
    """Deterministic per-point busy work: heavy tail, cheap head."""
    rng = np.random.default_rng(value)
    matrix = rng.standard_normal((_ADAPTIVE_WORK_DIM, _ADAPTIVE_WORK_DIM))
    total = 0.0
    for _ in range(_ADAPTIVE_UNIT_REPEATS * _adaptive_units(value)):
        total += float(np.trace(matrix @ matrix.T))
    return total / (_ADAPTIVE_UNIT_REPEATS * _adaptive_units(value))


def _adaptive_sweep(grid_values=None):
    # Rows are a pure per-point function, so any chunking reassembles to
    # exactly the serial rows.
    values = list(grid_values) if grid_values is not None else _adaptive_grid()
    return [
        ExperimentRow(
            "bench-adaptive", f"v={value}", {"value": value, "work": _adaptive_work(value)}
        )
        for value in values
    ]


def _register_adaptive_scenario():
    """Register the skewed sweep at import time so forked workers inherit it."""
    from repro.experiments.runner import register_scenario
    from repro.experiments.sweep import SweepSpec

    register_scenario(
        "bench-adaptive-skew",
        _adaptive_sweep,
        title="Benchmark — skewed-cost sweep",
        sweep=SweepSpec("grid_values", _adaptive_grid),
    )


_register_adaptive_scenario()


def test_adaptive_vs_static_chunk_scheduling(benchmark, tmp_path):
    """Acceptance criterion: >= 1.3x for cost-model planning on a skewed grid.

    The grid's last 8 points each cost ~25x a head point, so the static
    equal-count plan packs the whole heavy tail into its last few chunks —
    one worker drags the sweep while the others idle.  The adaptive planner
    reads the warm cost book (per-point signatures are distinct integers,
    so history is exact) and cuts narrow chunks through the heavy stretch,
    equalizing predicted wall time.  Rows must stay byte-identical to the
    serial sweep under either plan.
    """
    from repro.experiments.costmodel import CostModel
    from repro.experiments.runner import run_scenario
    from repro.experiments.streaming import effective_cpu_count
    from repro.experiments.sweep import run_sweep_sharded

    book = str(tmp_path / "costbook.json")
    serial_rows = run_scenario("bench-adaptive-skew")

    result = benchmark(
        lambda: run_sweep_sharded(
            "bench-adaptive-skew", max_workers=SHARD_WORKERS, cost_book=book
        )
    )
    assert result.ok
    assert result.rows == serial_rows  # byte-identical reassembly
    # The run measured every chunk: the cost book now carries history.
    assert CostModel.load(book).has_history("bench-adaptive-skew")

    record_engine_metadata(benchmark, batch_size=ADAPTIVE_POINTS)
    extra = getattr(benchmark, "extra_info", None)
    if extra is not None:
        extra["sweep_chunks"] = result.num_chunks
        extra["sweep_worker_cache"] = dict(result.worker_stats)

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    static_time = best_of(
        lambda: run_sweep_sharded(
            "bench-adaptive-skew",
            max_workers=SHARD_WORKERS,
            adaptive=False,
            cost_book=book,
        ),
        repeats=3,
    )
    adaptive_time = best_of(
        lambda: run_sweep_sharded(
            "bench-adaptive-skew", max_workers=SHARD_WORKERS, cost_book=book
        ),
        repeats=3,
    )
    speedup = static_time / adaptive_time
    cores = effective_cpu_count()
    emit_table(
        "Engine — adaptive vs static chunk scheduling (64-point skewed sweep)",
        [
            ExperimentRow(
                "engine-adaptive", "static equal-count plan", {"seconds": static_time}
            ),
            ExperimentRow(
                "engine-adaptive",
                "cost-model plan (warm book)",
                {"seconds": adaptive_time},
            ),
            ExperimentRow(
                "engine-adaptive", "speedup", {"ratio": speedup, "target": ">= 1.3x"}
            ),
            ExperimentRow("engine-adaptive", "cores available", {"count": cores}),
        ],
        artifact="engine",
    )
    if cores >= SHARD_WORKERS:  # an oversubscribed pool cannot show a balancing speedup
        assert speedup >= 1.3, f"adaptive scheduling only {speedup:.2f}x faster"


def test_warm_start_operator_pack(benchmark, tmp_path):
    """Acceptance criterion: pack-seeded pool hits preloaded operators.

    The parent runs the soundness-scaling sweep serially, exports its
    operator cache as a pack, and ships it to a fresh pool through the
    worker initializer.  Chain acceptance operators cache under value-stable
    tokens, so the pack's keys match the keys fresh workers derive: the
    seeded pool must report nonzero ``preloaded`` and ``pack_hits`` counters
    and strictly fewer aggregate misses than the unseeded pool, with rows
    byte-identical in all three runs.
    """
    from repro.engine.core import default_engine, set_default_engine
    from repro.experiments.runner import run_scenario
    from repro.experiments.sweep import run_sweep_sharded

    path_lengths = (2, 3, 4, 5)
    book = str(tmp_path / "costbook.json")

    unseeded = run_sweep_sharded(
        "soundness-scaling", max_workers=2, cost_book=book, path_lengths=path_lengths
    )
    assert unseeded.ok

    set_default_engine(None)  # a fresh parent cache holding only this sweep
    serial_rows = run_scenario("soundness-scaling", path_lengths=path_lengths)
    pack = default_engine().export_operator_pack(source="bench-parent")
    assert len(pack) > 0

    result = benchmark(
        lambda: run_sweep_sharded(
            "soundness-scaling",
            max_workers=2,
            cost_book=book,
            operator_pack=pack,
            path_lengths=path_lengths,
        )
    )
    assert result.ok
    assert result.rows == serial_rows == unseeded.rows
    assert result.worker_stats["preloaded"] > 0
    assert result.worker_stats["pack_hits"] > 0
    assert result.worker_stats["misses"] < unseeded.worker_stats["misses"]

    record_engine_metadata(benchmark, batch_size=len(path_lengths))
    extra = getattr(benchmark, "extra_info", None)
    if extra is not None:
        extra["pack_entries"] = len(pack)
        extra["pack_nbytes"] = pack.nbytes
        extra["unseeded_worker_cache"] = dict(unseeded.worker_stats)
        extra["seeded_worker_cache"] = dict(result.worker_stats)
    emit_table(
        "Engine — operator-pack warm start (soundness-scaling, 2 workers)",
        [
            ExperimentRow(
                "engine-pack",
                "unseeded pool",
                {"misses": unseeded.worker_stats["misses"], "pack_hits": 0},
            ),
            ExperimentRow(
                "engine-pack",
                f"pack-seeded pool ({len(pack)} operators)",
                {
                    "misses": result.worker_stats["misses"],
                    "pack_hits": result.worker_stats["pack_hits"],
                },
            ),
        ],
        artifact="engine",
    )


def _random_jobs(count: int, num_intermediate: int, dim: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(count):
        left = haar_random_state(dim, rng=rng)
        pairs = [
            (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
            for _ in range(num_intermediate)
        ]
        jobs.append(ChainJob.from_states(left, pairs, outer(haar_random_state(dim, rng=rng))))
    return jobs


def test_transfer_matrix_backend_throughput(benchmark):
    """Stacked contraction of 64 random chains (7 intermediate nodes, d=32)."""
    jobs = _random_jobs(BATCH_SIZE, 7, 32)
    backend = TransferMatrixBackend()
    values = benchmark(backend.chain_probabilities, jobs)
    record_engine_metadata(benchmark, backend=backend.name, batch_size=BATCH_SIZE)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_dense_backend_throughput(benchmark):
    """Scalar reference evaluation of the same 64 random chains."""
    jobs = _random_jobs(BATCH_SIZE, 7, 32)
    backend = DenseBackend()
    values = benchmark(backend.chain_probabilities, jobs)
    record_engine_metadata(benchmark, backend=backend.name, batch_size=BATCH_SIZE)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_repeated_protocol_honest_evaluation(benchmark):
    """Honest acceptance of the paper-repetition protocol (engine caching path)."""
    protocol = EqualityPathProtocol.on_path(4, 4, FINGERPRINTS)
    repeated = protocol.repeated()  # ceil(2 * 81 * 16 / 4) = 648 copies

    value = benchmark(repeated.acceptance_probability, ("1011", "1010"))
    record_engine_metadata(benchmark)
    assert 0.0 <= value < 1.0


def test_operator_cache_hit_path(benchmark):
    """Cache-hit retrieval of a chain acceptance operator (soundness sweeps)."""
    from repro.experiments.soundness_scaling import small_fingerprints

    engine = Engine()
    protocol = EqualityPathProtocol.on_path(1, 3, small_fingerprints(1))
    protocol.use_engine(engine)
    no_instance = ("0", "1")
    protocol.acceptance_operator(no_instance)  # populate

    operator = benchmark(protocol.acceptance_operator, no_instance)
    record_engine_metadata(benchmark, engine=engine)
    assert engine.cache.stats().hits > 0
    assert operator.shape[0] == operator.shape[1]
