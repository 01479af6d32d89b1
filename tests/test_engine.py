"""Tests for the pluggable simulation-engine layer.

The load-bearing guarantee: for every protocol family and both backends, the
batched ``acceptance_probabilities`` path agrees with the scalar
``acceptance_probability`` path to 1e-9 — on honest proofs and on adversarial
random product proofs alike.
"""

import numpy as np
import pytest

from repro.comm.lsd import random_lsd_instance
from repro.engine import (
    NODE_FIXED,
    NODE_SYM,
    RIGHT_DENSE,
    RIGHT_PROJECTOR,
    RIGHT_SWAP,
    TEST_PERM,
    ChainJob,
    ChainNoise,
    ChainProgram,
    DenseBackend,
    Engine,
    OperatorCache,
    StrategyBatch,
    TransferMatrixBackend,
    TreeJobBuilder,
    TreeProgram,
    available_backends,
    default_engine,
    get_backend,
)
from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.network.topology import star_network
from repro.protocols.base import ProductProof
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.from_one_way import hamming_distance_protocol
from repro.protocols.greater_than import GreaterThanPathProtocol
from repro.protocols.qma_to_dqma import LSDPathProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer

BACKENDS = ["dense", "transfer-matrix"]


def _random_product_proof(protocol, rng) -> ProductProof:
    states = {
        register.name: haar_random_state(register.dim, rng=rng)
        for register in protocol.proof_registers()
    }
    return ProductProof(states)


class TestBackendRegistry:
    def test_available_backends(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_get_backend_by_name_and_instance(self):
        dense = get_backend("dense")
        assert isinstance(dense, DenseBackend)
        assert get_backend(dense) is dense
        assert isinstance(get_backend(None), TransferMatrixBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ProtocolError, match="unknown simulation backend"):
            get_backend("tensor-network")


class TestChainJobsAndPrograms:
    def test_backends_agree_on_random_chains(self, rng):
        # num_intermediate = 0 forwards the left state straight to the right
        # end; 20 is a long chain whose 42-row Gram product is read in O(m).
        dense, transfer = DenseBackend(), TransferMatrixBackend()
        jobs = []
        for num_intermediate in (0, 1, 2, 4, 20):
            for dim in (2, 5):
                for kind in ("dense", RIGHT_PROJECTOR, RIGHT_SWAP):
                    left = haar_random_state(dim, rng=rng)
                    pairs = [
                        (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
                        for _ in range(num_intermediate)
                    ]
                    if kind == "dense":
                        operator = outer(haar_random_state(dim, rng=rng))
                    else:
                        operator = haar_random_state(dim, rng=rng)
                    jobs.append(ChainJob.from_states(left, pairs, operator, right_kind=kind))
        np.testing.assert_allclose(
            dense.chain_probabilities(jobs), transfer.chain_probabilities(jobs), atol=1e-9
        )

    def test_structured_right_end_matches_dense_operator(self, rng):
        transfer = TransferMatrixBackend()
        phi = haar_random_state(4, rng=rng)
        left = haar_random_state(4, rng=rng)
        pairs = [(haar_random_state(4, rng=rng), haar_random_state(4, rng=rng))]
        structured = ChainJob.from_states(left, pairs, phi, right_kind=RIGHT_SWAP)
        dense = ChainJob.from_states(left, pairs, structured.dense_right_operator())
        values = transfer.chain_probabilities([structured, dense])
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_job_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            ChainJob.from_states(np.ones(2), [(np.ones(3), np.ones(3))], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            ChainJob.from_states(np.ones(2), [], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            ChainJob.from_states(np.ones(2), [], np.ones(2), right_kind="mystery")

    @staticmethod
    def _chain_template(right_kind=RIGHT_PROJECTOR, noise=None):
        """A two-node chain on qubits whose registers hold |0>."""
        left = np.array([1.0, 0.0])
        right = np.eye(2) if right_kind == RIGHT_DENSE else left
        return ChainJob.from_arrays(left, np.tile(left, (2, 2, 1)), right, right_kind, noise=noise)

    def test_strategy_batch_validation(self):
        template, table = self._chain_template(), np.eye(2)
        choices, rows = np.zeros((3, 4), dtype=int), np.arange(1, 5)
        batch = StrategyBatch(template, table, choices, rows)
        assert len(batch) == 3 and batch.stack().shape == (3, 5, 2)
        assert not batch.template.is_noisy
        # Choices: integers naming table rows, one column per filled row.
        with pytest.raises(ProtocolError, match="rows of the 2-row table"):
            StrategyBatch(template, table, choices + 2, rows)
        with pytest.raises(ProtocolError, match="rows of the 2-row table"):
            StrategyBatch(template, table, choices - 1, rows)
        with pytest.raises(ProtocolError, match="integer array"):
            StrategyBatch(template, table, choices.astype(float), rows)
        with pytest.raises(ProtocolError, match="integer array"):
            StrategyBatch(template, table, np.zeros((3, 2, 2), dtype=int), rows)
        # The clean chain kernel reads a vector right end.
        with pytest.raises(ProtocolError, match="vector right end"):
            StrategyBatch(self._chain_template(RIGHT_DENSE), table, choices, rows)
        # The table: at least one row, of the template's dimension.
        with pytest.raises(DimensionMismatchError):
            StrategyBatch(template, np.eye(3), choices, rows)
        with pytest.raises(DimensionMismatchError):
            StrategyBatch(template, np.zeros((0, 2)), choices[:0], rows)
        # Rows: distinct register rows of the template (left, then 2m pair rows).
        with pytest.raises(ProtocolError, match="5-row template"):
            StrategyBatch(template, table, choices, np.arange(2, 6))
        with pytest.raises(ProtocolError, match="only once"):
            StrategyBatch(template, table, choices, np.array([1, 2, 3, 3]))
        # The template's annotation is checked when the template is built.
        with pytest.raises(ProtocolError, match="expected 3 edge channels"):
            self._chain_template(noise=ChainNoise(edge_channels=(), node_channels=()))

    def test_strategy_batch_jobs_place_the_chosen_rows(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        choices = np.array([[0, 2, 1, 1], [2, 0, 0, 1]])
        template = self._chain_template(RIGHT_SWAP)
        batch = StrategyBatch(template, table, choices, np.arange(1, 5))
        jobs = batch.jobs()
        for job, strategy in zip(jobs, choices):
            np.testing.assert_array_equal(job.left, template.left)
            np.testing.assert_array_equal(job.pairs, table[strategy].reshape(2, 2, 2))
            assert job.right_kind == RIGHT_SWAP and job.noise is None
        np.testing.assert_array_equal(
            Engine(backend="dense").strategy_probabilities((batch,)),
            DenseBackend().chain_probabilities(jobs),
        )
        # A chain's left register row may be filled too.
        left_filled = StrategyBatch(template, table, choices[:, :1], np.array([0]))
        for job, strategy in zip(left_filled.jobs(), choices):
            np.testing.assert_array_equal(job.left, table[strategy[0]])
            np.testing.assert_array_equal(job.pairs, template.pairs)

    @staticmethod
    def _tree_template():
        """A root SWAP-testing its fixed register against one symmetrized child."""
        builder = TreeJobBuilder()
        root = builder.add_node(
            -1, NODE_FIXED, registers=(np.array([1.0, 0.0]),), test=TEST_PERM
        )
        builder.add_node(
            root, NODE_SYM, registers=(np.array([0.0, 1.0]), np.array([0.6, 0.8]))
        )
        return builder.build()

    def test_tree_strategy_batch_validation(self):
        template, table = self._tree_template(), np.eye(2)
        choices, rows = np.zeros((3, 2), dtype=int), np.array([1, 2])
        batch = StrategyBatch(template, table, choices, rows)
        assert len(batch) == 3 and batch.stack().shape == (3, 3, 2)
        # The table: at least one row, of the template's dimension.
        with pytest.raises(DimensionMismatchError, match="dimension 2"):
            StrategyBatch(template, np.eye(3), choices, rows)
        with pytest.raises(DimensionMismatchError, match="dimension 2"):
            StrategyBatch(template, np.zeros((0, 2)), choices[:0], rows)
        with pytest.raises(DimensionMismatchError, match="dimension 2"):
            StrategyBatch(template, np.ones(2), choices, rows)
        # Choices: integers naming table rows, one column per filled row.
        with pytest.raises(ProtocolError, match="rows of the 2-row table"):
            StrategyBatch(template, table, choices + 2, rows)
        with pytest.raises(ProtocolError, match="rows of the 2-row table"):
            StrategyBatch(template, table, choices - 1, rows)
        with pytest.raises(ProtocolError, match="integer array"):
            StrategyBatch(template, table, choices.astype(float), rows)
        with pytest.raises(ProtocolError, match="integer array"):
            StrategyBatch(template, table, np.zeros((3, 3), dtype=int), rows)
        with pytest.raises(ProtocolError, match="integer array"):
            StrategyBatch(template, table, choices[:, :, None], rows)
        # Rows: distinct integers naming rows of the template.
        with pytest.raises(ProtocolError, match="3-row template"):
            StrategyBatch(template, table, choices, np.array([1, 3]))
        with pytest.raises(ProtocolError, match="3-row template"):
            StrategyBatch(template, table, choices, np.array([-1, 2]))
        with pytest.raises(ProtocolError, match="1-D integer"):
            StrategyBatch(template, table, choices, rows.astype(float))
        with pytest.raises(ProtocolError, match="1-D integer"):
            StrategyBatch(template, table, choices, rows[None])
        with pytest.raises(ProtocolError, match="only once"):
            StrategyBatch(template, table, choices, np.array([1, 1]))
        # Templates of many-factor registers have no (K, d) table.
        builder = TreeJobBuilder(num_factors=2)
        root = builder.add_node(-1, NODE_FIXED, registers=((np.ones(2), np.ones(2)),), test=TEST_PERM)
        builder.add_node(root, NODE_FIXED, registers=((np.ones(2), np.ones(2)),))
        with pytest.raises(ProtocolError, match="single-factor"):
            StrategyBatch(builder.build(), table, choices, rows[:1])

    def test_tree_strategy_batch_jobs_place_the_chosen_rows(self):
        template = self._tree_template()
        table = np.array([[0.0, 1.0], [0.6, 0.8], [0.8, -0.6]])
        choices = np.array([[0, 2], [2, 1], [1, 1]])
        batch = StrategyBatch(template, table, choices, np.array([2, 1]))
        jobs = batch.jobs()
        for job, strategy in zip(jobs, choices):
            np.testing.assert_array_equal(job.factors[0][0], template.factors[0][0])
            np.testing.assert_array_equal(job.factors[0][[2, 1]], table[strategy])
            assert job.signature == template.signature
        np.testing.assert_array_equal(
            Engine(backend="dense").strategy_probabilities((batch,)),
            DenseBackend().tree_probabilities(jobs),
        )

    def test_strategy_probabilities_multiply_like_programs(self):
        template = self._tree_template()
        table = np.array([[0.0, 1.0], [0.6, 0.8], [0.8, -0.6]])
        first = StrategyBatch(template, table, np.array([[0, 2], [2, 1]]), np.array([1, 2]))
        second = StrategyBatch(template, table, np.array([[1, 1], [0, 2]]), np.array([2, 1]))
        engine = Engine()
        values = engine.strategy_probabilities((first, second))
        programs = [
            TreeProgram(jobs=pair, terms=((1.0, (0, 1)),))
            for pair in zip(first.jobs(), second.jobs())
        ]
        np.testing.assert_array_equal(values, engine.evaluate_programs(programs))
        np.testing.assert_array_equal(
            engine.strategy_probabilities((first,)), engine.backend.strategy_probabilities(first)
        )

    def test_program_term_validation_and_rejecting(self):
        job = ChainJob.from_states(np.array([1.0, 0.0]), [], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            ChainProgram(jobs=(job,), terms=((1.0, (3,)),))
        engine = Engine()
        assert engine.evaluate_program(ChainProgram.rejecting()) == 0.0

    def test_jobs_and_programs_compare_by_identity(self):
        job = ChainJob.from_states(np.array([1.0, 0.0]), [], np.eye(2))
        other = ChainJob.from_states(np.array([1.0, 0.0]), [], np.eye(2))
        assert job == job and job != other  # ndarray fields: identity semantics
        program = ChainProgram.single(job)
        assert len({job, program.jobs[0]}) == 1  # hashable (by identity)

    def test_program_combine_weights_products(self):
        engine = Engine()
        job = ChainJob.from_states(np.array([1.0, 0.0]), [], np.eye(2))
        program = ChainProgram(jobs=(job, job), terms=((0.25, (0, 1)), (0.5, (0,))))
        # both jobs accept with probability 1 -> 0.25 + 0.5
        assert engine.evaluate_program(program) == pytest.approx(0.75)


@pytest.mark.parametrize("backend", BACKENDS)
class TestProtocolParity:
    """Batched == scalar to 1e-9, per protocol family and backend."""

    def _check(self, protocol, inputs_batch, proofs, backend, atol=1e-9):
        protocol.use_engine(backend)
        scalar = np.array(
            [
                protocol.acceptance_probability(inputs, proof)
                for inputs, proof in zip(inputs_batch, proofs)
            ]
        )
        batched = protocol.acceptance_probabilities(inputs_batch, proofs)
        np.testing.assert_allclose(batched, scalar, atol=atol)
        return batched

    def test_equality_path(self, fingerprints3, rng, backend):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        inputs_batch = [("101", "101"), ("101", "011"), ("000", "000"), ("110", "111")]
        proofs = [None, None, _random_product_proof(protocol, rng), _random_product_proof(protocol, rng)]
        values = self._check(protocol, inputs_batch, proofs, backend)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_equality_tree(self, fingerprints3, rng, backend):
        protocol = EqualityTreeProtocol(star_network(3), fingerprints3)
        inputs_batch = [("110", "110", "110"), ("110", "110", "010")]
        proofs = [None, _random_product_proof(protocol, rng)]
        values = self._check(protocol, inputs_batch, proofs, backend)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_greater_than(self, fingerprints3, rng, backend):
        protocol = GreaterThanPathProtocol.on_path(3, 3, ">", fingerprints3)
        inputs_batch = [("110", "011"), ("011", "110"), ("111", "000")]
        proofs = [None, _random_product_proof(protocol, rng), None]
        values = self._check(protocol, inputs_batch, proofs, backend)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_relay(self, fingerprints3, rng, backend):
        protocol = RelayEqualityProtocol.on_path(
            3, 4, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints3
        )
        inputs_batch = [("101", "101"), ("101", "100")]
        proofs = [None, _random_product_proof(protocol, rng)]
        values = self._check(protocol, inputs_batch, proofs, backend)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_from_one_way(self, backend, rng):
        protocol = hamming_distance_protocol(6, 1, 3)
        inputs_batch = [
            ("101010", "101011", "101010"),
            ("101010", "010101", "101010"),
        ]
        proofs = [None, None]
        values = self._check(protocol, inputs_batch, proofs, backend)
        assert values[0] > values[1]

    def test_qma_one_way(self, backend, rng):
        protocol = LSDPathProtocol(random_lsd_instance(16, 2, close=True, rng=5), path_length=3)
        inputs_batch = [("0", "0"), ("0", "0")]
        proofs = [None, _random_product_proof(protocol, rng)]
        self._check(protocol, inputs_batch, proofs, backend)

    def test_repeated_protocol(self, fingerprints3, rng, backend):
        base = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        protocol = base.repeated(4)
        inputs_batch = [("101", "101"), ("101", "100")]
        proofs = [None, protocol.honest_proof(("101", "100"))]
        values = self._check(protocol, inputs_batch, proofs, backend)
        single = base.acceptance_probability(("101", "100"))
        assert values[1] == pytest.approx(single**4, abs=1e-9)


class TestBatchApis:
    def test_run_many_draws_match_probabilities(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        inputs_batch = [("101", "101"), ("101", "011"), ("010", "010")]
        results = protocol.run_many(inputs_batch, rng=11)
        assert len(results) == 3
        probabilities = protocol.acceptance_probabilities(inputs_batch)
        for result, probability in zip(results, probabilities):
            assert result.acceptance_probability == pytest.approx(float(probability))
        # Certain yes-instances always accept.
        assert results[0].accepted and results[2].accepted

    def test_proof_count_mismatch_raises(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        with pytest.raises(ProtocolError, match="proofs"):
            protocol.acceptance_probabilities([("101", "101")], proofs=[None, None])

    def test_use_engine_accepts_names_engines_and_none(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        assert protocol.use_engine("dense").engine.backend_name == "dense"
        engine = Engine(backend="transfer-matrix")
        assert protocol.use_engine(engine).engine is engine
        protocol.use_engine(None)
        assert protocol.engine is default_engine()


class TestOperatorCache:
    def test_get_or_build_counts_hits_and_misses(self):
        cache = OperatorCache(max_entries=2)
        calls = []
        cache.get_or_build("a", lambda: calls.append("a") or 1)
        cache.get_or_build("a", lambda: calls.append("a") or 1)
        assert calls == ["a"]
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = OperatorCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_lru_eviction_order(self):
        # Entries must leave in least-recently-*used* order: both get() hits
        # and put() refreshes move an entry to the back of the queue.
        cache = OperatorCache(max_entries=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")      # order now: b, c, a
        cache.put("b", 20)  # refresh:   c, a, b
        cache.put("d", 4)   # evicts c
        assert "c" not in cache and all(key in cache for key in ("a", "b", "d"))
        cache.put("e", 5)   # evicts a
        assert "a" not in cache and "b" in cache
        cache.put("f", 6)   # evicts b
        assert "b" not in cache and "d" in cache and "e" in cache and "f" in cache
        stats = cache.stats()
        assert stats.evictions == 3 and stats.entries == 3
        assert stats.hits == 1

    def test_stats_as_dict_for_benchmark_metadata(self):
        cache = OperatorCache(max_entries=2)
        cache.get_or_build("op", lambda: 1)
        cache.get_or_build("op", lambda: 1)
        exported = cache.stats().as_dict()
        assert exported["hits"] == 1 and exported["misses"] == 1
        assert exported["hit_rate"] == pytest.approx(0.5)
        assert set(exported) == {
            "hits",
            "misses",
            "entries",
            "evictions",
            "hit_rate",
            "preloaded",
            "pack_hits",
        }
        assert exported["preloaded"] == 0 and exported["pack_hits"] == 0

    def test_cached_arrays_are_frozen(self):
        cache = OperatorCache()
        value = cache.get_or_build("op", lambda: np.eye(2))
        with pytest.raises(ValueError):
            value[0, 0] = 5.0

    def test_put_does_not_freeze_the_callers_array(self):
        # Regression: _freeze used to flip ``writeable`` on the argument in
        # place, silently freezing an array the caller still owns.
        cache = OperatorCache()
        mine = np.eye(3)
        stored = cache.put("op", mine)
        assert mine.flags.writeable
        mine[0, 0] = 7.0  # caller keeps full ownership of its array
        with pytest.raises(ValueError):
            stored[0, 0] = 5.0  # ...while the cached value stays read-only
        # ...and the caller's later mutation cannot poison the cached entry.
        assert cache.get("op")[0, 0] == 1.0

    def test_miss_and_hit_return_equally_frozen_values(self):
        cache = OperatorCache()
        first = cache.get_or_build("op", lambda: np.zeros((2, 2)))
        second = cache.get_or_build("op", lambda: np.zeros((2, 2)))
        assert not first.flags.writeable and not second.flags.writeable
        np.testing.assert_array_equal(first, second)

    def test_engine_reuses_chain_operator_across_calls(self):
        from repro.experiments.soundness_scaling import small_fingerprints

        engine = Engine()
        protocol = EqualityPathProtocol.on_path(1, 3, small_fingerprints(1))
        protocol.use_engine(engine)
        first = protocol.acceptance_operator(("0", "1"))
        misses = engine.cache.stats().misses
        second = protocol.acceptance_operator(("0", "1"))
        assert engine.cache.stats().misses == misses
        assert engine.cache.stats().hits > 0
        np.testing.assert_allclose(first, second)

    def test_repeated_honest_evaluation_hits_program_cache(self, fingerprints3):
        engine = Engine()
        base = EqualityPathProtocol.on_path(3, 3, fingerprints3).use_engine(engine)
        repeated = base.repeated(50)
        repeated.use_engine(engine)
        value = repeated.acceptance_probability(("101", "100"))
        single = base.acceptance_probability(("101", "100"))
        assert value == pytest.approx(single**50, abs=1e-12)
        # The honest program for ("101", "100") is built once, then re-hit.
        assert engine.cache.stats().hits > 0


class TestEngineFacade:
    def test_with_backend_shares_cache(self):
        engine = Engine(backend="transfer-matrix")
        sibling = engine.with_backend("dense")
        assert sibling.cache is engine.cache
        assert sibling.backend_name == "dense"


class TestDefaultEngineEnvironment:
    """``REPRO_BACKEND`` must be honoured even when set after first use."""

    def test_env_change_after_first_use_is_picked_up(self, monkeypatch):
        from repro.engine.core import set_default_engine

        set_default_engine(None)
        try:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
            first = default_engine()
            assert first.backend_name == "transfer-matrix"
            # Regression: the first call used to latch the env value forever,
            # so pool workers exporting REPRO_BACKEND after import were
            # silently ignored.
            monkeypatch.setenv("REPRO_BACKEND", "dense")
            assert default_engine().backend_name == "dense"
            monkeypatch.delenv("REPRO_BACKEND")
            assert default_engine().backend_name == "transfer-matrix"
        finally:
            set_default_engine(None)

    def test_unchanged_env_keeps_the_same_engine(self, monkeypatch):
        from repro.engine.core import set_default_engine

        set_default_engine(None)
        try:
            monkeypatch.setenv("REPRO_BACKEND", "dense")
            assert default_engine() is default_engine()
        finally:
            set_default_engine(None)

    def test_explicit_engine_is_never_displaced_by_env(self, monkeypatch):
        from repro.engine.core import set_default_engine

        explicit = Engine(backend="dense")
        set_default_engine(explicit)
        try:
            monkeypatch.setenv("REPRO_BACKEND", "transfer-matrix")
            assert default_engine() is explicit
        finally:
            set_default_engine(None)

    def test_evaluate_programs_empty(self):
        assert Engine().evaluate_programs([]).shape == (0,)

    def test_map_scalar(self):
        values = Engine().map_scalar(lambda x: x * 0.5, [1.0, 0.5])
        np.testing.assert_allclose(values, [0.5, 0.25])
