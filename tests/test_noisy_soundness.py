"""Noise-aware adversarial soundness: the protocol's own noise model end to end.

Covers the full path from :func:`fingerprint_strategy_soundness` on a
noisy protocol down to the engine's density-matrix contraction: a
``with_noise`` sibling against the protocol constructed noisy, the
``with_noise`` siblings of every protocol family, the Heisenberg-picture
acceptance operator of a noisy protocol against the engine's numbers, the
entangled report on noisy protocols, dtype-derived paper-bound slack,
pickle/byte stability of the result dataclasses through the sharded pool,
the path search's table route (bit for bit against its per-strategy jobs and
the per-proof search, and its device traffic), a search compiled once and
scored on ``with_noise`` siblings (against each sibling's own search, and
its layout guard), and the registered ``noisy-soundness-*`` sweep scenarios
(bit for bit against per-point searches, and their engine calls).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.soundness import (
    SoundnessReport,
    compile_strategy_search,
    entangled_soundness_report,
    fingerprint_strategy_soundness,
    paper_bound_slack,
    score_strategy_search,
)
from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem
from repro.engine import Engine, MockDeviceTransferMatrixBackend, TransferMatrixBackend
from repro.engine.core import set_default_engine
from repro.exceptions import ProtocolError
from repro.experiments.noisy_soundness import (
    channel_family_soundness_sweep,
    collapse_strength,
    gap_collapse_sweep,
    path_length_soundness_sweep,
)
from repro.experiments.soundness_scaling import small_fingerprints
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import run_sweep_sharded
from repro.experiments.tree_soundness import network_zoo, no_instance
from repro.network.topology import path_network, star_network
from repro.protocols.base import ProductProof, RepeatedProtocol
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.from_one_way import OneWayToTreeProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import CHANNEL_FAMILIES, NoiseModel, channel_family
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.random_states import haar_random_state

FINGERPRINTS = ExactCodeFingerprint(2, rng=11)
CHANNELS = ("depolarizing", "dephasing", "amplitude-damping")
NO_INSTANCE = ("11", "10")


def _model(channel, strength=0.2, readout_error=0.02):
    return NoiseModel.uniform_link(
        channel_family(channel)(strength, FINGERPRINTS.dim), readout_error
    )


def _path_protocol(noise=None):
    return EqualityPathProtocol.on_path(2, 4, FINGERPRINTS, noise=noise)


class TestNoiseThreading:
    """A ``with_noise`` sibling must be exactly equivalent to constructing the protocol noisy."""

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_search_matches_noisily_constructed_protocol(self, channel):
        noise = _model(channel)
        threaded = fingerprint_strategy_soundness(
            _path_protocol().with_noise(noise), NO_INSTANCE
        )
        direct = fingerprint_strategy_soundness(_path_protocol(noise), NO_INSTANCE)
        assert threaded.best_strategy == direct.best_strategy
        np.testing.assert_allclose(
            threaded.best_acceptance, direct.best_acceptance, atol=1e-12
        )

    def test_trivial_noise_keeps_the_pure_state_path(self):
        clean = fingerprint_strategy_soundness(_path_protocol(), NO_INSTANCE)
        trivial = fingerprint_strategy_soundness(
            _path_protocol().with_noise(NoiseModel()), NO_INSTANCE
        )
        assert trivial.best_strategy == clean.best_strategy
        assert trivial.best_acceptance == clean.best_acceptance

    def test_zero_strength_noise_reproduces_noiseless_numbers(self):
        # Zero-strength channels force the density path, which must agree
        # with the pure-state evaluation to reference precision.
        clean = fingerprint_strategy_soundness(_path_protocol(), NO_INSTANCE)
        zero = fingerprint_strategy_soundness(
            _path_protocol().with_noise(_model("depolarizing", 0.0, 0.0)), NO_INSTANCE
        )
        np.testing.assert_allclose(zero.best_acceptance, clean.best_acceptance, atol=1e-9)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_noise_threading_in_entangled_report(self, channel):
        noise = _model(channel)
        report = entangled_soundness_report(_path_protocol().with_noise(noise), NO_INSTANCE)
        direct = entangled_soundness_report(_path_protocol(noise), NO_INSTANCE)
        np.testing.assert_allclose(
            report.honest_acceptance, direct.honest_acceptance, atol=1e-12
        )
        np.testing.assert_allclose(
            report.best_found_acceptance, direct.best_found_acceptance, atol=1e-12
        )
        # The paper bound stays the noiseless protocol's Lemma 17 bound (r=4).
        assert report.paper_bound == pytest.approx(1.0 - 4.0 / (81.0 * 4.0**2))


class TestWithNoise:
    def test_path_sibling_evaluates_noisily_and_shares_the_engine(self):
        engine = Engine(backend=TransferMatrixBackend())
        protocol = _path_protocol().use_engine(engine)
        noise = _model("depolarizing")
        sibling = protocol.with_noise(noise)
        assert sibling is not protocol
        assert sibling.engine is engine
        direct = _path_protocol(noise).use_engine(engine)
        np.testing.assert_allclose(
            sibling.acceptance_probability(NO_INSTANCE),
            direct.acceptance_probability(NO_INSTANCE),
            atol=1e-12,
        )

    def test_tree_and_relay_siblings(self):
        noise = _model("dephasing")
        tree = EqualityTreeProtocol(star_network(3), FINGERPRINTS)
        tree_inputs = ("11", "11", "10")
        np.testing.assert_allclose(
            tree.with_noise(noise).acceptance_probability(tree_inputs),
            EqualityTreeProtocol(
                star_network(3), FINGERPRINTS, noise=noise
            ).acceptance_probability(tree_inputs),
            atol=1e-12,
        )
        relay = RelayEqualityProtocol.on_path(
            2, 4, relay_spacing=2, segment_repetitions=1, fingerprints=FINGERPRINTS
        )
        np.testing.assert_allclose(
            relay.with_noise(noise).acceptance_probability(NO_INSTANCE),
            RelayEqualityProtocol.on_path(
                2,
                4,
                relay_spacing=2,
                segment_repetitions=1,
                fingerprints=FINGERPRINTS,
                noise=noise,
            ).acceptance_probability(NO_INSTANCE),
            atol=1e-12,
        )

    def test_repeated_protocol_wraps_its_base(self):
        noise = _model("depolarizing")
        repeated = RepeatedProtocol(_path_protocol(), 2)
        sibling = repeated.with_noise(noise)
        assert isinstance(sibling, RepeatedProtocol)
        assert sibling.repetitions == 2
        np.testing.assert_allclose(
            sibling.acceptance_probability(NO_INSTANCE),
            _path_protocol(noise).acceptance_probability(NO_INSTANCE) ** 2,
            atol=1e-12,
        )

    def test_unsupported_protocol_raises_protocol_error(self):
        one_way = OneWayToTreeProtocol(
            EqualityProblem(2),
            path_network(2),
            FingerprintEqualityOneWay(FINGERPRINTS),
        )
        with pytest.raises(ProtocolError, match="does not support noise models"):
            one_way.with_noise(_model("depolarizing"))


class TestNoisyAcceptanceOperator:
    """The Heisenberg-picture operator against the engine's scalar numbers."""

    @staticmethod
    def _small_protocol(noise):
        # Single-bit repetition-code fingerprints (dim 2) keep the joint
        # operator at 2^4 = 16 dimensions for a length-3 path.
        return EqualityPathProtocol.on_path(1, 3, small_fingerprints(1), noise=noise)

    def test_operator_matches_engine_on_every_product_proof(self):
        noise = NoiseModel.depolarizing(0.15, 2, readout_error=0.03)
        protocol = self._small_protocol(noise)
        inputs = ("1", "0")
        operator = protocol.acceptance_operator(inputs)
        registers = protocol.proof_registers()
        total = 2 ** len(registers)
        assert operator.shape == (total, total)
        # Hermitian with spectrum inside [0, 1] (a valid POVM element).
        np.testing.assert_allclose(operator, operator.conj().T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(operator)
        assert eigenvalues[0] >= -1e-9 and eigenvalues[-1] <= 1.0 + 1e-9
        # tr(E |phi><phi|) equals the engine's density evaluation for every
        # computational-basis product proof.
        honest = protocol.honest_proof(inputs)
        for bits in range(total):
            states = {name: honest.state(name) for name in honest.register_names}
            for index, register in enumerate(registers):
                state = np.zeros(2, dtype=complex)
                state[(bits >> index) & 1] = 1.0
                states[register.name] = state
            proof = ProductProof(states)
            via_engine = protocol.acceptance_probability(inputs, proof)
            joint = np.array([1.0 + 0.0j])
            for register in registers:
                joint = np.kron(joint, proof.state(register.name))
            via_operator = float(np.real(joint.conj() @ operator @ joint))
            np.testing.assert_allclose(via_operator, via_engine, atol=1e-9)

    @given(
        path_length=st.integers(2, 4),
        link=st.sampled_from((None,) + tuple(CHANNEL_FAMILIES)),
        link_strength=st.floats(0.0, 1.0),
        node=st.sampled_from((None,) + tuple(CHANNEL_FAMILIES)),
        node_strength=st.floats(0.0, 1.0),
        readout_error=st.floats(0.0, 0.1),
        inputs=st.tuples(st.sampled_from("01"), st.sampled_from("01")),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_operator_matches_engine_on_haar_random_product_proofs(
        self, path_length, link, link_strength, node, node_strength, readout_error, inputs, seed
    ):
        noise = NoiseModel(
            link=None if link is None else channel_family(link)(link_strength, 2),
            node=None if node is None else channel_family(node)(node_strength, 2),
            readout_error=readout_error,
        )
        protocol = EqualityPathProtocol.on_path(
            1, path_length, small_fingerprints(1), noise=noise
        ).use_engine(Engine(backend=TransferMatrixBackend(dtype="complex128")))
        generator = np.random.default_rng(seed)
        registers = protocol.proof_registers()
        proof = ProductProof(
            {register.name: haar_random_state(2, generator) for register in registers}
        )
        joint = np.array([1.0 + 0.0j])
        for register in registers:
            joint = np.kron(joint, proof.state(register.name))
        via_operator = np.real(np.vdot(joint, protocol.acceptance_operator(inputs) @ joint))
        via_engine = protocol.acceptance_probability(inputs, proof)
        assert abs(via_operator - via_engine) <= 1e-12

    def test_report_reads_every_quantity_from_the_noisy_protocol(self):
        noise = NoiseModel.depolarizing(0.15, 2, readout_error=0.03)
        inputs = ("1", "0")
        built = self._small_protocol(noise)
        report = entangled_soundness_report(built, inputs, run_seesaw=True, rng=5)
        optimum = built.optimal_cheating_probability(inputs)
        # The noisy optimum, well below the clean protocol's 0.6545.
        assert optimum == pytest.approx(0.5466, abs=1e-4)
        assert abs(report.optimal_entangled_acceptance - optimum) <= 1e-12
        # No cheat the report claims beats what the noisy protocol allows.
        assert report.best_found_acceptance <= optimum + 1e-9
        sibling = self._small_protocol(None).with_noise(noise)
        assert entangled_soundness_report(sibling, inputs, run_seesaw=True, rng=5) == report

    @pytest.mark.parametrize("order", [("clean", "noisy"), ("noisy", "clean")], ids="-".join)
    def test_siblings_sharing_an_engine_keep_their_cache_entries_apart(self, order):
        # A clean protocol and its with_noise sibling share one engine and its
        # operator cache; only the noise key in the cache key tells them apart.
        noise = NoiseModel.depolarizing(0.15, 2, readout_error=0.03)
        inputs = ("1", "0")
        expected = {}
        for label, model in (("clean", None), ("noisy", noise)):
            alone = self._small_protocol(model).use_engine(Engine(backend=TransferMatrixBackend()))
            expected[label] = (
                alone.acceptance_operator(inputs),
                alone.optimal_cheating_probability(inputs),
            )
        assert expected["clean"][1] == pytest.approx(0.6545, abs=1e-4)
        assert expected["noisy"][1] == pytest.approx(0.5466, abs=1e-4)
        clean = self._small_protocol(None).use_engine(Engine(backend=TransferMatrixBackend()))
        siblings = {"clean": clean, "noisy": clean.with_noise(noise)}
        assert siblings["noisy"].engine is clean.engine
        for label in order:
            operator, optimum = expected[label]
            np.testing.assert_array_equal(siblings[label].acceptance_operator(inputs), operator)
            assert siblings[label].optimal_cheating_probability(inputs) == optimum

    def test_noiseless_annotation_falls_back_to_pure_operator(self):
        inputs = ("1", "0")
        np.testing.assert_allclose(
            self._small_protocol(NoiseModel()).acceptance_operator(inputs),
            self._small_protocol(None).acceptance_operator(inputs),
            atol=1e-12,
        )

    def test_entangled_report_is_self_consistent_under_noise(self):
        noise = NoiseModel.depolarizing(0.15, 2, readout_error=0.03)
        report = entangled_soundness_report(
            self._small_protocol(None).with_noise(noise), ("1", "0"), run_seesaw=True, rng=5
        )
        assert report.optimal_entangled_acceptance is not None
        # The entangled optimum dominates every product strategy found.
        assert (
            report.optimal_entangled_acceptance
            >= report.best_found_acceptance - 1e-9
        )
        assert report.bound_slack == paper_bound_slack("complex128")

    @pytest.mark.parametrize(
        "noise", [None, NoiseModel.depolarizing(0.1, 2, readout_error=0.02)], ids=["clean", "noisy"]
    )
    def test_report_optimum_past_the_dense_guard(self, noise):
        # r = 7 has a 4096-dimensional proof space: the dense builder refuses
        # it, the protocol's matrix-free optimum does not, and the seesaw
        # (which needs the dense operator) is skipped.
        protocol = EqualityPathProtocol.on_path(1, 7, small_fingerprints(1), noise=noise)
        report = entangled_soundness_report(protocol, ("1", "0"), run_seesaw=True, rng=0)
        assert report.optimal_entangled_acceptance is not None
        assert report.optimal_entangled_acceptance >= report.best_found_acceptance - 1e-9
        assert report.best_strategy != "seesaw"


class TestPaperBoundSlack:
    def test_dtype_derived_slack(self):
        assert paper_bound_slack("complex128") == pytest.approx(1e-9)
        assert paper_bound_slack("complex64") == pytest.approx(1e-5)

    def test_default_follows_environment_dtype(self, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert paper_bound_slack() == pytest.approx(1e-9)
        monkeypatch.setenv("REPRO_DTYPE", "complex64")
        assert paper_bound_slack() == pytest.approx(1e-5)

    def test_report_slack_is_dtype_aware(self, monkeypatch):
        # A violation of 1e-7 is rounding noise in complex64 but a genuine
        # violation in complex128.
        def report(slack):
            return SoundnessReport(
                inputs=NO_INSTANCE,
                honest_acceptance=0.1,
                best_found_acceptance=0.5 + 1e-7,
                optimal_entangled_acceptance=None,
                paper_bound=0.5,
                bound_slack=slack,
            )

        assert not report(paper_bound_slack("complex128")).respects_paper_bound
        assert report(paper_bound_slack("complex64")).respects_paper_bound
        # bound_slack=None defers to the environment's dtype at check time.
        monkeypatch.setenv("REPRO_DTYPE", "complex64")
        assert report(None).respects_paper_bound
        monkeypatch.setenv("REPRO_DTYPE", "complex128")
        assert not report(None).respects_paper_bound

    def test_report_builder_pins_the_evaluating_backend_dtype(self):
        engine = Engine(backend=TransferMatrixBackend(dtype="complex64"))
        protocol = _path_protocol().use_engine(engine)
        report = entangled_soundness_report(protocol, NO_INSTANCE)
        assert report.bound_slack == paper_bound_slack("complex64")


class TestPickleStability:
    """Result dataclasses must survive the process pool byte-identically."""

    def test_strategy_search_result_roundtrip(self):
        result = fingerprint_strategy_soundness(
            _path_protocol(_model("depolarizing")), NO_INSTANCE
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.best_strategy == result.best_strategy
        assert restored.best_acceptance == result.best_acceptance
        assert restored.num_assignments == result.num_assignments
        # Re-running the identical search pickles to the identical bytes.
        rerun = fingerprint_strategy_soundness(
            _path_protocol(_model("depolarizing")), NO_INSTANCE
        )
        assert pickle.dumps(rerun) == pickle.dumps(result)

    def test_soundness_report_roundtrip(self):
        report = entangled_soundness_report(
            _path_protocol(_model("dephasing")), NO_INSTANCE
        )
        restored = pickle.loads(pickle.dumps(report))
        assert restored == report
        assert restored.bound_slack == report.bound_slack
        assert restored.respects_paper_bound == report.respects_paper_bound


class _PerProofPathProtocol(EqualityPathProtocol):
    """The path protocol without a batch compiler: searches go proof by proof."""

    strategy_batch = None


class _RecordingEngine(Engine):
    """A transfer-matrix complex128 engine keeping every strategy batch it scores."""

    def __init__(self, backend=None):
        super().__init__(backend=backend or TransferMatrixBackend(dtype="complex128"))
        self.batches = []

    def strategy_probabilities(self, batches):
        self.batches.extend(batches)
        return super().strategy_probabilities(batches)


#: The benchmark's search lattice: fingerprints, no-instance and candidates of
#: the noisy-soundness sweeps; (path length, (family, strength) or clean) per
#: search: the path-length sweep at depolarizing 0.15, one r = 3 point per
#: named family, and the clean paths.
LATTICE_FINGERPRINTS = ExactCodeFingerprint(2, rng=7)
LATTICE_INPUTS = ("11", "01")
LATTICE_CANDIDATES = ("11", "01", "10")
LATTICE = (
    [(r, ("depolarizing", 0.15)) for r in range(2, 8)]
    + [(3, (family, 0.2)) for family in CHANNEL_FAMILIES]
    + [(r, None) for r in range(2, 8)]
)


def _lattice_noise(family, strength, readout_error=0.0):
    return NoiseModel.uniform_link(
        channel_family(family)(strength, LATTICE_FINGERPRINTS.dim), readout_error
    )


def _lattice_searches(protocol_type, engine):
    results = []
    for path_length, point in LATTICE:
        protocol = protocol_type.on_path(
            2,
            path_length,
            LATTICE_FINGERPRINTS,
            noise=None if point is None else _lattice_noise(*point),
        )
        results.append(
            fingerprint_strategy_soundness(
                protocol.use_engine(engine),
                LATTICE_INPUTS,
                candidate_strings=LATTICE_CANDIDATES,
            )
        )
    return results


class TestStrategyTableRoute:
    """The path search's table route, pinned to the per-strategy route's bits."""

    def test_every_strategy_value_equals_its_job_bit_for_bit(self):
        engine = _RecordingEngine()
        _lattice_searches(EqualityPathProtocol, engine)
        # r = 7 splits its 730 strategies into three chunks; every other
        # search is one chunk.
        assert len(engine.batches) == len(LATTICE) + 2 * 2
        assert sum(batch.template.is_noisy for batch in engine.batches) == 6 + 2 + len(
            CHANNEL_FAMILIES
        )
        for batch in engine.batches:
            table = engine.backend.strategy_probabilities(batch)
            jobs = engine.backend.chain_probabilities(batch.jobs())
            np.testing.assert_array_equal(table.view(np.uint64), jobs.view(np.uint64))

    def test_search_equals_the_per_proof_search(self):
        engine = Engine(backend=TransferMatrixBackend(dtype="complex128"))
        table = _lattice_searches(EqualityPathProtocol, engine)
        per_proof = _lattice_searches(_PerProofPathProtocol, engine)
        for fast, reference in zip(table, per_proof):
            assert fast.best_strategy == reference.best_strategy
            assert fast.best_acceptance.hex() == reference.best_acceptance.hex()
            assert fast.num_assignments == reference.num_assignments
            assert fast.best_proof.register_names == reference.best_proof.register_names
            for name in fast.best_proof.register_names:
                np.testing.assert_array_equal(
                    fast.best_proof.state(name), reference.best_proof.state(name)
                )

    @staticmethod
    def _mock_search(path_length, batch_size):
        backend = MockDeviceTransferMatrixBackend()
        protocol = EqualityPathProtocol.on_path(
            2, path_length, LATTICE_FINGERPRINTS, noise=_lattice_noise("depolarizing", 0.15)
        )
        result = fingerprint_strategy_soundness(
            protocol.use_engine(Engine(backend=backend)),
            LATTICE_INPUTS,
            candidate_strings=LATTICE_CANDIDATES,
            batch_size=batch_size,
        )
        chunks = -(-(result.num_assignments + 1) // batch_size)
        return backend.xp, chunks

    def test_device_transfers_are_per_chunk_and_move_tables(self):
        short, short_chunks = self._mock_search(3, batch_size=4)
        long, long_chunks = self._mock_search(6, batch_size=4)
        assert (short_chunks, long_chunks) == (3, 61)
        assert short.to_device_transfers > 0
        for xp, chunks in ((short, short_chunks), (long, long_chunks)):
            assert xp.to_device_transfers % chunks == 0
            assert xp.to_host_transfers % chunks == 0
        assert short.to_device_transfers // short_chunks == long.to_device_transfers // long_chunks
        assert short.to_host_transfers // short_chunks == long.to_host_transfers // long_chunks
        # Tables move, not strategies: a chunk of 244 strategies sends what a
        # chunk of 4 sends, far below its per-strategy density stack.
        whole, whole_chunks = self._mock_search(6, batch_size=256)
        assert whole_chunks == 1
        assert whole.bytes_to_device == long.bytes_to_device // long_chunks
        m, dim = 5, LATTICE_FINGERPRINTS.dim
        stack_bytes = 244 * (4 * m + 2) * dim * dim * np.dtype(np.complex128).itemsize
        assert whole.bytes_to_device < stack_bytes


def _assert_same_search(result, reference):
    """Two search results agree in label, value bits, size and winning proof."""
    assert result.best_strategy == reference.best_strategy
    assert result.best_acceptance.hex() == reference.best_acceptance.hex()
    assert result.num_assignments == reference.num_assignments
    assert result.best_proof.register_names == reference.best_proof.register_names
    for name in result.best_proof.register_names:
        np.testing.assert_array_equal(
            result.best_proof.state(name), reference.best_proof.state(name)
        )


#: Each protocol family's clean base and no-instance for the compile-once tests.
COMPILED_INSTANCES = {
    "path": lambda: (EqualityPathProtocol.on_path(2, 4, FINGERPRINTS), NO_INSTANCE),
    "tree": lambda: (
        EqualityTreeProtocol(dict(network_zoo(3))["binary-depth2"], FINGERPRINTS),
        no_instance(2, 3),
    ),
}


class TestCompiledSearch:
    """One compiled search, scored on every ``with_noise`` sibling of its layout."""

    @pytest.mark.parametrize("kind", sorted(COMPILED_INSTANCES))
    def test_one_compile_scores_each_sibling_like_its_own_search(self, kind):
        base, inputs = COMPILED_INSTANCES[kind]()
        base.use_engine(Engine(backend=TransferMatrixBackend(dtype="complex128")))
        candidates = ("11", "10", "01")
        search = compile_strategy_search(base, inputs, candidate_strings=candidates)
        for model in [None, NoiseModel()] + [_model(channel) for channel in CHANNELS]:
            sibling = base.with_noise(model)
            _assert_same_search(
                score_strategy_search(search, sibling),
                fingerprint_strategy_soundness(sibling, inputs, candidate_strings=candidates),
            )

    @pytest.mark.parametrize(
        "other",
        [
            EqualityPathProtocol.on_path(2, 4, LATTICE_FINGERPRINTS),
            EqualityPathProtocol.on_path(2, 3, FINGERPRINTS),
        ],
        ids=["path-length", "fingerprints"],
    )
    def test_scoring_another_layout_is_refused(self, other):
        assert FINGERPRINTS.cache_token != LATTICE_FINGERPRINTS.cache_token
        base = EqualityPathProtocol.on_path(2, 3, LATTICE_FINGERPRINTS)
        search = compile_strategy_search(
            base, LATTICE_INPUTS, candidate_strings=LATTICE_CANDIDATES
        )
        with pytest.raises(ProtocolError, match="another layout"):
            score_strategy_search(search, other.with_noise(_lattice_noise("depolarizing", 0.15)))


@pytest.fixture
def fresh_engine():
    engine = Engine()
    set_default_engine(engine)
    yield engine
    set_default_engine(None)


class _CountingBackend(TransferMatrixBackend):
    """The default transfer-matrix backend, counting its chain and strategy calls."""

    def __init__(self):
        super().__init__()
        self.chain_calls = []
        self.strategy_calls = 0

    def chain_probabilities(self, jobs):
        self.chain_calls.append(len(jobs))
        return super().chain_probabilities(jobs)

    def strategy_probabilities(self, batch):
        self.strategy_calls += 1
        return super().strategy_probabilities(batch)


def _reference_point(path_length, family, strength, readout_error):
    """One sweep point the per-point way: a sibling, its own search, two honest runs.

    Returns the sibling's Lemma 17 bound and the point's search values.
    """
    sibling = (
        EqualityPathProtocol.on_path(2, path_length, LATTICE_FINGERPRINTS)
        .use_engine(Engine())
        .with_noise(_lattice_noise(family, strength, readout_error))
    )
    search = fingerprint_strategy_soundness(
        sibling, LATTICE_INPUTS, candidate_strings=LATTICE_CANDIDATES
    )
    return 1.0 - sibling.single_shot_soundness_gap(), {
        "honest_acceptance": sibling.acceptance_probability(LATTICE_INPUTS),
        "completeness": sibling.acceptance_probability((LATTICE_INPUTS[0],) * 2),
        "best_found_acceptance": search.best_acceptance,
        "best_strategy": search.best_strategy,
        "strategies_searched": search.num_assignments + 1,
    }


#: A channel-sweep grid mixing the three families, strength 0 included.
MIXED_POINTS = [
    (CHANNELS[index % 3], float(strength))
    for index, strength in enumerate(np.linspace(0.0, 0.45, 7))
]


def _reference_channels(readout_error):
    rows = []
    for channel, strength in MIXED_POINTS:
        _, values = _reference_point(3, channel, strength, readout_error)
        rows.append(dict(values, channel=channel, noise=strength))
    return channel_family_soundness_sweep(points=MIXED_POINTS, readout_error=readout_error), rows


def _reference_path_lengths(readout_error):
    rows = []
    for path_length in (2, 3, 4):
        bound, values = _reference_point(path_length, "depolarizing", 0.15, readout_error)
        values.update(
            path_length=path_length,
            noise=0.15,
            paper_bound=bound,
            respects_bound=values["best_found_acceptance"] <= bound + paper_bound_slack(),
        )
        rows.append(values)
    sweep = path_length_soundness_sweep(path_lengths=[2, 3, 4], readout_error=readout_error)
    return sweep, rows


def _reference_collapse(readout_error):
    strengths = [float(strength) for strength in np.linspace(0.0, 0.5, 11)]
    rows = []
    for strength in strengths:
        bound, values = _reference_point(3, "depolarizing", strength, readout_error)
        best = values["best_found_acceptance"]
        values.update(
            noise=strength,
            paper_bound=bound,
            bound_margin=bound - best,
            gap=values["completeness"] - best,
            exceeds_paper_bound=best > bound + paper_bound_slack(),
        )
        rows.append(values)
    return gap_collapse_sweep(strengths=strengths, readout_error=readout_error), rows


#: Each noisy-soundness sweep on the grid route with its per-point reference.
GRID_SWEEPS = {
    "channels": _reference_channels,
    "path-length": _reference_path_lengths,
    "collapse": _reference_collapse,
}


def _bits(values):
    return {
        key: value.hex() if isinstance(value, float) else repr(value)
        for key, value in values.items()
    }


class TestNoisySoundnessScenarios:
    @pytest.mark.parametrize("readout_error", [0.0, 0.03])
    @pytest.mark.parametrize("sweep", sorted(GRID_SWEEPS))
    def test_grid_rows_equal_per_point_searches_bitwise(self, sweep, readout_error, fresh_engine):
        rows, references = GRID_SWEEPS[sweep](readout_error)
        assert len(rows) == len(references)
        for row, reference in zip(rows, references):
            assert _bits(row.values) == _bits(reference)

    def test_a_channel_sweep_evaluates_its_honest_grid_in_one_call(self):
        # 16 points: one strategy batch each, and all 32 honest programs (the
        # no-instance and the completeness of every point) in one chain call.
        points = [
            (CHANNELS[index % 3], float(strength))
            for index, strength in enumerate(np.linspace(0.0, 0.45, 16))
        ]
        backend = _CountingBackend()
        set_default_engine(Engine(backend=backend))
        try:
            rows = channel_family_soundness_sweep(points=points)
        finally:
            set_default_engine(None)
        assert len(rows) == 16
        assert backend.chain_calls == [32]
        assert backend.strategy_calls == 16

    def test_channel_sweep_covers_every_family(self):
        rows = channel_family_soundness_sweep(
            points=[(name, 0.2) for name in CHANNELS]
        )
        assert [row.values["channel"] for row in rows] == list(CHANNELS)
        for row in rows:
            assert 0.0 <= row.values["best_found_acceptance"] <= 1.0
            assert row.values["best_found_acceptance"] >= row.values["honest_acceptance"] - 1e-9
            assert row.values["strategies_searched"] == 10

    def test_path_length_sweep_checks_each_lemma17_bound(self):
        rows = path_length_soundness_sweep(path_lengths=[2, 3])
        for row, r in zip(rows, (2, 3)):
            assert row.values["paper_bound"] == pytest.approx(1.0 - 4.0 / (81.0 * r**2))
            assert row.values["respects_bound"]

    def test_collapse_sweep_margins_are_monotone_against_the_bound(self):
        rows = gap_collapse_sweep(strengths=[0.0, 0.2, 0.4])
        margins = [row.values["bound_margin"] for row in rows]
        # Depolarizing noise only damps the cheat on this instance, so the
        # margin to the (fixed) noiseless bound grows with the strength.
        assert margins == sorted(margins)
        assert collapse_strength(rows) is None

    def test_sharded_noisy_sweep_is_byte_identical_to_serial(self):
        strengths = [0.0, 0.1, 0.2, 0.3]
        sharded = run_sweep_sharded(
            "noisy-soundness-collapse",
            max_workers=2,
            chunk_size=2,
            strengths=strengths,
        )
        serial = run_scenario("noisy-soundness-collapse", strengths=strengths)
        assert sharded.num_chunks == 2
        assert sharded.rows == serial
        # Byte-identical per row (the list-level pickle differs only in memo
        # references to objects shared across rows within one process).
        for chunked_row, serial_row in zip(sharded.rows, serial):
            assert pickle.dumps(chunked_row) == pickle.dumps(serial_row)
        # The winner labels crossed the pool intact.
        assert all("v1=" in row.values["best_strategy"] for row in serial)
