"""Noisy-engine tests: zero-noise parity, scalar/batched parity, physics checks.

The zero-noise limit is the load-bearing guarantee: every noisy evaluation
path, driven with an empty-strength (identity-acting) noise model, must
reproduce the pure-state engine to 1e-9 on every protocol family and both
backends — the density-matrix machinery may only *generalize* the pure
semantics, never perturb them.
"""

import numpy as np
import pytest

from repro.engine import (
    ChainJob,
    ChainNoise,
    DenseBackend,
    MeasurementSpec,
    TransferMatrixBackend,
    TreeJobBuilder,
    NODE_FIXED,
    NODE_SYM,
    TEST_MEASURE,
    TEST_PERM,
)
from repro.exceptions import ProtocolError
from repro.network.topology import binary_tree_network, path_network, star_network
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import (
    CHANNEL_FAMILIES,
    NoiseModel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
)
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer

BACKENDS = ["dense", "transfer-matrix"]
FINGERPRINTS = ExactCodeFingerprint(3, rng=5)
DIM = FINGERPRINTS.dim

PATH_BATCH = [("101", "101"), ("101", "110"), ("011", "011"), ("000", "111")]
TREE_BATCH = [("101", "101", "101"), ("101", "101", "110"), ("010", "010", "010")]
RELAY_BATCH = [("10", "10"), ("10", "01"), ("11", "11")]


def _zero_noise_model(dim):
    """A structurally non-empty model whose channels act as the identity."""
    return NoiseModel.depolarizing(0.0, dim)


class TestZeroNoiseParity:
    """Empty/identity noise models match the pure engine to 1e-9, all families."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("path_length", [1, 2, 4])
    def test_equality_path(self, backend, path_length):
        clean = EqualityPathProtocol.on_path(3, path_length, FINGERPRINTS)
        noisy = EqualityPathProtocol.on_path(
            3, path_length, FINGERPRINTS, noise=_zero_noise_model(DIM)
        )
        for protocol in (clean, noisy):
            protocol.use_engine(backend)
        assert noisy.acceptance_program(PATH_BATCH[0]).jobs[0].is_noisy
        np.testing.assert_allclose(
            noisy.acceptance_probabilities(PATH_BATCH),
            clean.acceptance_probabilities(PATH_BATCH),
            atol=1e-9,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "network_builder", [lambda: star_network(3), lambda: binary_tree_network(2, num_terminals=3)]
    )
    def test_equality_tree(self, backend, network_builder):
        network = network_builder()
        clean = EqualityTreeProtocol(network, FINGERPRINTS).use_engine(backend)
        noisy = EqualityTreeProtocol(
            network, FINGERPRINTS, noise=_zero_noise_model(DIM)
        ).use_engine(backend)
        assert noisy.acceptance_program(TREE_BATCH[0]).jobs[0].is_noisy
        np.testing.assert_allclose(
            noisy.acceptance_probabilities(TREE_BATCH),
            clean.acceptance_probabilities(TREE_BATCH),
            atol=1e-9,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_relay(self, backend):
        kwargs = dict(relay_spacing=2, segment_repetitions=2)
        clean = RelayEqualityProtocol.on_path(2, 4, **kwargs).use_engine(backend)
        fingerprints = clean.fingerprints
        noisy = RelayEqualityProtocol.on_path(
            2,
            4,
            fingerprints=fingerprints,
            noise=_zero_noise_model(fingerprints.dim),
            **kwargs,
        ).use_engine(backend)
        assert noisy.acceptance_program(RELAY_BATCH[0]).jobs[0].is_noisy
        np.testing.assert_allclose(
            noisy.acceptance_probabilities(RELAY_BATCH),
            clean.acceptance_probabilities(RELAY_BATCH),
            atol=1e-9,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_protocol(self, backend):
        clean = EqualityPathProtocol.on_path(3, 3, FINGERPRINTS).repeated(4)
        noisy = EqualityPathProtocol.on_path(
            3, 3, FINGERPRINTS, noise=_zero_noise_model(DIM)
        ).repeated(4)
        for protocol in (clean.base, noisy.base):
            protocol.use_engine(backend)
        np.testing.assert_allclose(
            noisy.acceptance_probabilities(PATH_BATCH),
            clean.acceptance_probabilities(PATH_BATCH),
            atol=1e-9,
        )

    @pytest.mark.parametrize("right_kind", ["dense", "projector", "swap"])
    @pytest.mark.parametrize("num_intermediate", [0, 1, 3])
    def test_chain_jobs_with_identity_channels(self, right_kind, num_intermediate):
        """Job-level identity-noise parity, including the dense right end."""
        rng = np.random.default_rng(11)
        dim = 5
        left = haar_random_state(dim, rng=rng)
        pairs = [
            (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
            for _ in range(num_intermediate)
        ]
        if right_kind == "dense":
            right = 0.6 * outer(haar_random_state(dim, rng=rng)) + 0.4 * np.eye(dim) / dim
        else:
            right = haar_random_state(dim, rng=rng)
        noise = ChainNoise(
            edge_channels=(identity_channel(dim),) * (num_intermediate + 1),
            node_channels=(identity_channel(dim),) * num_intermediate,
            left_channel=identity_channel(dim),
        )
        clean_job = ChainJob.from_states(left, pairs, right, right_kind=right_kind)
        noisy_job = ChainJob.from_states(
            left, pairs, right, right_kind=right_kind, noise=noise
        )
        assert noisy_job.is_noisy
        for backend in (DenseBackend(), TransferMatrixBackend()):
            assert abs(
                backend.chain_probability(noisy_job) - backend.chain_probability(clean_job)
            ) < 1e-9


def _star_tree_job(states, link=None, node=None, readout=0.0):
    """Arity-3 permutation-test tree: a sym root with two fixed input leaves."""
    builder = TreeJobBuilder()
    root = builder.add_node(
        -1, NODE_SYM, registers=(states[0], states[1]), test=TEST_PERM, node_channel=node
    )
    for state in states[2:]:
        builder.add_node(
            root, NODE_FIXED, registers=(state,), up_channel=link, node_channel=node
        )
    return builder.build(readout_error=readout)


class TestNoisyEvaluationParity:
    """Scalar (Kraus-sum) and batched (closed-form) paths agree under real noise."""

    def test_chain_batch_mixed_channels(self):
        rng = np.random.default_rng(3)
        dim = 4
        families = list(CHANNEL_FAMILIES.values())
        jobs = []
        for index in range(18):
            strength = 0.5 * index / 18
            channel = families[index % len(families)](strength, dim)
            noise = ChainNoise(
                edge_channels=(channel,) * 3,
                node_channels=(dephasing_channel(0.05, dim),) * 2,
                left_channel=channel,
                readout_error=0.02 * index / 18,
            )
            kind = ["dense", "projector", "swap"][index % 3]
            right = (
                outer(haar_random_state(dim, rng=rng))
                if kind == "dense"
                else haar_random_state(dim, rng=rng)
            )
            jobs.append(
                ChainJob.from_states(
                    haar_random_state(dim, rng=rng),
                    [
                        (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
                        for _ in range(2)
                    ],
                    right,
                    right_kind=kind,
                    noise=noise,
                )
            )
        np.testing.assert_allclose(
            TransferMatrixBackend().chain_probabilities(jobs),
            DenseBackend().chain_probabilities(jobs),
            atol=1e-9,
        )

    def test_tree_batch_mixed_channels_one_signature_group(self):
        rng = np.random.default_rng(4)
        dim = 4
        jobs = []
        for index in range(12):
            strength = 0.4 * index / 12
            jobs.append(
                _star_tree_job(
                    [haar_random_state(dim, rng=rng) for _ in range(4)],
                    link=depolarizing_channel(strength, dim),
                    node=dephasing_channel(strength / 2, dim),
                    readout=0.03 * index / 12,
                )
            )
        # The sweep shares one signature: different strengths batch together.
        assert len({job.signature for job in jobs}) == 1
        np.testing.assert_allclose(
            TransferMatrixBackend().tree_probabilities(jobs),
            DenseBackend().tree_probabilities(jobs),
            atol=1e-9,
        )

    def test_chain_to_tree_noise_mapping(self):
        rng = np.random.default_rng(6)
        dim = 4
        noise = ChainNoise(
            edge_channels=(
                depolarizing_channel(0.2, dim),
                dephasing_channel(0.1, dim),
                amplitude_damping_channel(0.15, dim),
            ),
            node_channels=(dephasing_channel(0.05, dim), depolarizing_channel(0.07, dim)),
            left_channel=dephasing_channel(0.02, dim),
            right_channel=amplitude_damping_channel(0.04, dim),
            readout_error=0.01,
        )
        job = ChainJob.from_states(
            haar_random_state(dim, rng=rng),
            [
                (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
                for _ in range(2)
            ],
            haar_random_state(dim, rng=rng),
            right_kind="projector",
            noise=noise,
        )
        backend = TransferMatrixBackend()
        assert abs(
            backend.chain_probability(job) - backend.tree_probability(job.to_tree_job())
        ) < 1e-9

    def test_dense_and_diagonal_measurements_under_noise(self):
        rng = np.random.default_rng(9)
        dim = 3
        state = haar_random_state(dim, rng=rng)
        channel = amplitude_damping_channel(0.3, dim)
        for kind, operator in (
            ("dense", 0.5 * outer(haar_random_state(dim, rng=rng)) + 0.5 * np.eye(dim) / dim),
            ("diagonal", np.array([0.9, 0.4, 0.1])),
        ):
            builder = TreeJobBuilder()
            builder.add_node(
                -1,
                NODE_FIXED,
                test=TEST_MEASURE,
                measurement=MeasurementSpec(kind=kind, operator=operator),
            )
            builder.add_node(0, NODE_FIXED, registers=(state,), up_channel=channel)
            job = builder.build(readout_error=0.05)
            rho = channel.apply_to_state(state)
            raw = (
                np.trace(operator @ rho).real
                if kind == "dense"
                else np.sum(operator * np.diag(rho)).real
            )
            expected = 0.95 * raw + 0.05 * (1.0 - raw)
            for backend in (DenseBackend(), TransferMatrixBackend()):
                assert abs(backend.tree_probability(job) - expected) < 1e-9


class TestNoisePhysics:
    """Analytic values and qualitative behaviour of the noisy protocols."""

    def test_single_edge_depolarizing_closed_form(self):
        rng = np.random.default_rng(13)
        dim = 6
        psi = haar_random_state(dim, rng=rng)
        phi = haar_random_state(dim, rng=rng)
        strength = 0.35
        job = ChainJob.from_states(
            psi,
            [],
            phi,
            right_kind="projector",
            noise=ChainNoise(
                edge_channels=(depolarizing_channel(strength, dim),), node_channels=()
            ),
        )
        expected = (1 - strength) * abs(np.vdot(phi, psi)) ** 2 + strength / dim
        for backend in (DenseBackend(), TransferMatrixBackend()):
            assert abs(backend.chain_probability(job) - expected) < 1e-12

    def test_completeness_degrades_monotonically(self):
        strengths = np.linspace(0.0, 0.6, 7)
        protocols = [
            EqualityPathProtocol.on_path(
                3, 4, FINGERPRINTS, noise=NoiseModel.depolarizing(s, DIM)
            )
            for s in strengths
        ]
        values = [p.acceptance_probability(("101", "101")) for p in protocols]
        assert abs(values[0] - 1.0) < 1e-9
        assert np.all(np.diff(values) < 0)

    def test_readout_error_alone_lowers_completeness(self):
        noisy = EqualityPathProtocol.on_path(
            3, 3, FINGERPRINTS, noise=NoiseModel(readout_error=0.1)
        )
        clean = EqualityPathProtocol.on_path(3, 3, FINGERPRINTS)
        assert noisy.acceptance_probability(("101", "101")) < clean.acceptance_probability(
            ("101", "101")
        )

    def test_right_terminal_node_noise_affects_the_verifier(self):
        """Preparation noise on the measuring terminal is not silently dropped.

        A node channel on the right end degrades the verifier's reference
        state exactly like the tree family's root node channel; on the
        single-edge chain the left- and right-terminal overrides act
        symmetrically under depolarizing noise.
        """
        channel = depolarizing_channel(0.6, DIM)
        nodes = EqualityPathProtocol.on_path(3, 3, FINGERPRINTS).path_nodes
        clean = EqualityPathProtocol.on_path(3, 3, FINGERPRINTS)
        right_noisy = EqualityPathProtocol.on_path(
            3, 3, FINGERPRINTS, noise=NoiseModel(nodes={nodes[-1]: channel})
        )
        value = right_noisy.acceptance_probability(("101", "101"))
        assert value < clean.acceptance_probability(("101", "101")) - 0.05
        # Cross-backend parity for the new path.
        assert abs(
            value
            - EqualityPathProtocol.on_path(
                3, 3, FINGERPRINTS, noise=NoiseModel(nodes={nodes[-1]: channel})
            )
            .use_engine("dense")
            .acceptance_probability(("101", "101"))
        ) < 1e-9
        # Single-edge symmetry: depolarizing either terminal's preparation
        # gives (1 - p) |<h_y|h_x>|^2 + p/d either way.
        short_nodes = EqualityPathProtocol.on_path(3, 1, FINGERPRINTS).path_nodes
        left = EqualityPathProtocol.on_path(
            3, 1, FINGERPRINTS, noise=NoiseModel(nodes={short_nodes[0]: channel})
        )
        right = EqualityPathProtocol.on_path(
            3, 1, FINGERPRINTS, noise=NoiseModel(nodes={short_nodes[-1]: channel})
        )
        assert abs(
            left.acceptance_probability(("101", "110"))
            - right.acceptance_probability(("101", "110"))
        ) < 1e-9

    def test_right_preparation_noise_rejected_on_dense_ends(self):
        from repro.quantum.random_states import haar_random_state as hrs

        dim = 3
        with pytest.raises(ProtocolError):
            ChainJob.from_states(
                hrs(dim, rng=1),
                [],
                np.eye(dim) / dim,
                right_kind="dense",
                noise=ChainNoise(
                    edge_channels=(None,),
                    node_channels=(),
                    right_channel=depolarizing_channel(0.1, dim),
                ),
            )

    def test_noise_model_maps_overrides_onto_specific_links(self):
        """Only the overridden physical link degrades the evaluation."""
        network = path_network(2)
        nodes = EqualityPathProtocol(network, FINGERPRINTS).path_nodes
        broken = NoiseModel(
            links={(nodes[0], nodes[1]): depolarizing_channel(0.9, DIM)}
        )
        partial = EqualityPathProtocol(network, FINGERPRINTS, noise=broken)
        uniform = EqualityPathProtocol(
            network, FINGERPRINTS, noise=NoiseModel.depolarizing(0.9, DIM)
        )
        clean_value = EqualityPathProtocol(network, FINGERPRINTS).acceptance_probability(
            ("101", "101")
        )
        partial_value = partial.acceptance_probability(("101", "101"))
        uniform_value = uniform.acceptance_probability(("101", "101"))
        assert partial_value < clean_value
        assert uniform_value < partial_value

    def test_noisy_oversized_tree_fallback_raises(self):
        """The enumerated fallback is noiseless, so noisy instances must refuse it."""
        network = star_network(7)  # root arity 7 > MAX_PERM_TEST_ARITY
        protocol = EqualityTreeProtocol(
            network, FINGERPRINTS, noise=NoiseModel.depolarizing(0.1, DIM)
        )
        with pytest.raises(ProtocolError):
            protocol.acceptance_probability(("101",) * 7)

    def test_noisy_down_family_rejected(self):
        """Fan-out (router) trees do not support noise annotations yet."""
        from repro.engine import TEST_FANOUT, TreeNoise, TreeJob

        dim = 2
        states = np.stack([haar_random_state(dim, rng=1), haar_random_state(dim, rng=2)])
        with pytest.raises(ProtocolError):
            TreeJob(
                parents=(-1, 0),
                kinds=(NODE_FIXED, NODE_FIXED),
                tests=(TEST_FANOUT, "none"),
                slots=((0,), (1,)),
                factors=(states,),
                measurements=(None, None),
                noise=TreeNoise(
                    up_channels=(None, depolarizing_channel(0.1, dim)),
                    node_channels=(None, None),
                ),
            )

    def test_grouping_keeps_noisy_and_clean_jobs_apart(self):
        rng = np.random.default_rng(17)
        dim = 3
        left = haar_random_state(dim, rng=rng)
        pair = (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
        phi = haar_random_state(dim, rng=rng)
        clean = ChainJob.from_states(left, [pair], phi, right_kind="projector")
        noisy = ChainJob.from_states(
            left,
            [pair],
            phi,
            right_kind="projector",
            noise=ChainNoise(
                edge_channels=(depolarizing_channel(0.3, dim),) * 2,
                node_channels=(None,),
            ),
        )
        assert clean.shape_key != noisy.shape_key
        values = TransferMatrixBackend().chain_probabilities([clean, noisy, clean])
        assert abs(values[0] - values[2]) < 1e-15
        assert values[1] != pytest.approx(values[0])
