"""Tree-engine parity: batched ``TreeProgram`` acceptance == scalar fallback.

The load-bearing guarantee of the tree IR: for every tree-rooted protocol
family (equality trees, one-way-protocol trees, relay protocols on
spanning-tree paths), on star, binary-tree and random spanning-tree
networks, and on both backends, the compiled batched path agrees with the
protocol's independent scalar enumeration to 1e-9 — on honest proofs and on
adversarial random product proofs alike.
"""

import numpy as np
import pytest

from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem, ForAllPairsProblem
from repro.engine import (
    MEAS_PROJECTOR,
    NODE_FIXED,
    NODE_SYM,
    TEST_MEASURE,
    TEST_PERM,
    ChainJob,
    DenseBackend,
    MeasurementSpec,
    TransferMatrixBackend,
    TreeJobBuilder,
    TreeProgram,
)
from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.network.topology import (
    binary_tree_network,
    random_tree_network,
    star_network,
)
from repro.protocols.base import ProductProof
from repro.protocols.equality import EqualityTreeProtocol
from repro.protocols.from_one_way import OneWayToTreeProtocol, hamming_distance_protocol
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


def _tree_networks(num_terminals):
    return [
        star_network(num_terminals),
        binary_tree_network(2, num_terminals=num_terminals),
        random_tree_network(8, num_terminals, rng=4),
    ]


class TestChainIsDegenerateTree:
    def test_chain_jobs_match_their_tree_form(self, rng):
        dense, transfer = DenseBackend(), TransferMatrixBackend()
        jobs = []
        for num_intermediate in (0, 1, 3):
            for dim in (2, 4):
                left = haar_random_state(dim, rng=rng)
                pairs = [
                    (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
                    for _ in range(num_intermediate)
                ]
                jobs.append(
                    ChainJob.from_states(left, pairs, outer(haar_random_state(dim, rng=rng)))
                )
        chain_values = dense.chain_probabilities(jobs)
        tree_jobs = [job.to_tree_job() for job in jobs]
        np.testing.assert_allclose(
            dense.tree_probabilities(tree_jobs), chain_values, atol=1e-9
        )
        np.testing.assert_allclose(
            transfer.tree_probabilities(tree_jobs), chain_values, atol=1e-9
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestEqualityTreeParity:
    """Compiled tree programs == pattern enumeration, per network and backend."""

    def test_parity_across_networks(self, fingerprints3, rng, backend):
        for network in _tree_networks(3):
            protocol = EqualityTreeProtocol(network, fingerprints3).use_engine(backend)
            inputs_batch = [
                ("110", "110", "110"),
                ("110", "110", "011"),
                ("101", "011", "110"),
            ]
            proofs = [None, None, _random_product_proof(protocol, rng)]
            batched = protocol.acceptance_probabilities(inputs_batch, proofs)
            enumerated = np.array(
                [
                    protocol.enumerated_acceptance_probability(inputs, proof)
                    for inputs, proof in zip(inputs_batch, proofs)
                ]
            )
            np.testing.assert_allclose(batched, enumerated, atol=1e-9)
            assert batched[0] == pytest.approx(1.0, abs=1e-9)

    def test_internal_terminal_shadow_leaf(self, fingerprints3, rng, backend):
        from repro.network.topology import path_network

        network = path_network(4, terminals=("v0", "v2", "v4"))
        protocol = EqualityTreeProtocol(network, fingerprints3).use_engine(backend)
        proof = _random_product_proof(protocol, rng)
        inputs = ("111", "111", "101")
        assert protocol.acceptance_probability(inputs, proof) == pytest.approx(
            protocol.enumerated_acceptance_probability(inputs, proof), abs=1e-9
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneWayTreeParity:
    def test_forall_eq_across_networks(self, fingerprints3, rng, backend):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        for network in _tree_networks(3):
            problem = ForAllPairsProblem(EqualityProblem(3), 3)
            protocol = OneWayToTreeProtocol(problem, network, one_way).use_engine(backend)
            inputs_batch = [("110", "110", "110"), ("110", "011", "110")]
            proofs = [None, _random_product_proof(protocol, rng)]
            batched = protocol.acceptance_probabilities(inputs_batch, proofs)
            enumerated = np.array(
                [
                    protocol.enumerated_acceptance_probability(inputs, proof)
                    for inputs, proof in zip(inputs_batch, proofs)
                ]
            )
            np.testing.assert_allclose(batched, enumerated, atol=1e-9)
            assert batched[0] == pytest.approx(1.0, abs=1e-9)

    def test_hamming_protocols_compile(self, rng, backend):
        # Exact-mask ("at least one sketch matches") and sketch-threshold
        # measurements both ride the batched path.
        for exact in (True, False):
            protocol = hamming_distance_protocol(
                5, 1, 3, exact=exact, num_sketches=6
            ).use_engine(backend)
            inputs_batch = [
                ("10110", "10111", "10110"),
                ("10110", "01001", "10110"),
            ]
            program = protocol.acceptance_program(inputs_batch[0])
            assert program is not None and len(program.jobs) == 3
            batched = protocol.acceptance_probabilities(inputs_batch)
            enumerated = np.array(
                [
                    protocol.enumerated_acceptance_probability(inputs)
                    for inputs in inputs_batch
                ]
            )
            np.testing.assert_allclose(batched, enumerated, atol=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRelayTreeParity:
    def test_relay_on_tree_networks(self, fingerprints3, rng, backend):
        networks = [
            star_network(2),
            binary_tree_network(2, num_terminals=2),
            random_tree_network(8, 2, rng=11),
        ]
        for network in networks:
            protocol = RelayEqualityProtocol.on_tree(
                network, fingerprints3, relay_spacing=2, segment_repetitions=2
            ).use_engine(backend)
            inputs_batch = [("101", "101"), ("101", "100")]
            proofs = [None, _random_product_proof(protocol, rng)]
            scalar = np.array(
                [
                    protocol.acceptance_probability(inputs, proof)
                    for inputs, proof in zip(inputs_batch, proofs)
                ]
            )
            batched = protocol.acceptance_probabilities(inputs_batch, proofs)
            np.testing.assert_allclose(batched, scalar, atol=1e-9)
            assert batched[0] == pytest.approx(1.0, abs=1e-9)

    def test_relay_path_spans_tree_terminals(self, fingerprints3, backend):
        network = binary_tree_network(2, num_terminals=2)
        protocol = RelayEqualityProtocol.on_tree(network, fingerprints3, segment_repetitions=1)
        assert protocol.path_nodes[0] == network.terminals[0]
        assert protocol.path_nodes[-1] == network.terminals[1]


class TestLargeTreesBeyondEnumeration:
    def test_engine_handles_trees_the_enumeration_rejects(self, fingerprints3):
        # A 20-edge path tree has 19 non-input nodes — far beyond the
        # 16-proof-node enumeration cap; the compiled path has no such limit.
        from repro.network.topology import path_network

        network = path_network(20, terminals=("v0", "v20"))
        protocol = EqualityTreeProtocol(network, fingerprints3)
        assert len(protocol._proof_nodes) > protocol.MAX_ENUMERATED_NODES
        with pytest.raises(ProtocolError):
            protocol.enumerated_acceptance_probability(("101", "101"))
        value = protocol.acceptance_probability(("101", "101"))
        assert value == pytest.approx(1.0, abs=1e-9)
        value = protocol.acceptance_probability(("101", "011"))
        assert 0.0 <= value < 1.0


class TestTreeJobValidation:
    def test_topological_order_enforced(self):
        builder = TreeJobBuilder()
        with pytest.raises(ProtocolError):
            builder.add_node(3, NODE_FIXED, registers=(np.array([1.0, 0.0]),))

    def test_sym_node_needs_two_registers(self):
        builder = TreeJobBuilder()
        builder.add_node(-1, NODE_FIXED, registers=(np.array([1.0, 0.0]),), test=TEST_PERM)
        builder.add_node(0, NODE_SYM, registers=(np.array([1.0, 0.0]),))
        with pytest.raises(ProtocolError):
            builder.build()

    def test_router_outside_fanout_family_rejected(self):
        # A router node whose test is not TEST_FANOUT would silently degrade
        # to a fixed slot-0 forwarder in the evaluators; the validator must
        # reject it instead.
        from repro.engine import NODE_ROUTER, TEST_NONE

        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        builder = TreeJobBuilder()
        builder.add_node(
            -1,
            NODE_FIXED,
            test=TEST_MEASURE,
            measurement=MeasurementSpec(kind=MEAS_PROJECTOR, targets=(e0,)),
        )
        builder.add_node(0, NODE_ROUTER, registers=(e1, e0), test=TEST_NONE)
        builder.add_node(1, NODE_FIXED, registers=(e0,))
        with pytest.raises(ProtocolError, match="fan-out"):
            builder.build()

    def test_relay_path_must_follow_network_edges(self, fingerprints3):
        from repro.network.topology import path_network

        network = path_network(3)
        with pytest.raises(ProtocolError, match="not a network edge"):
            RelayEqualityProtocol(
                network, fingerprints3, segment_repetitions=1,
                path_nodes=["v0", "v2", "v3"],
            )

    def test_measuring_root_needs_measurement(self):
        builder = TreeJobBuilder()
        builder.add_node(-1, NODE_FIXED, test=TEST_MEASURE)
        builder.add_node(0, NODE_FIXED, registers=(np.array([1.0, 0.0]),))
        with pytest.raises(ProtocolError):
            builder.build()

    def test_negative_match_threshold_rejected(self):
        # P[#matches >= -1] is 1, but the Poisson-binomial tail would slice
        # its distribution from the end and return P[#matches >= 2] instead.
        from repro.engine import MEAS_THRESHOLD, TEST_FANOUT

        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])

        def build(threshold):
            builder = TreeJobBuilder(num_factors=2)
            builder.add_node(-1, NODE_FIXED, registers=((e0, e1),), test=TEST_FANOUT)
            builder.add_node(
                0,
                NODE_FIXED,
                measurement=MeasurementSpec(
                    kind=MEAS_THRESHOLD, targets=(e0, e0), threshold=threshold
                ),
            )
            return builder.build()

        with pytest.raises(ProtocolError, match="threshold"):
            build(-1)
        # A threshold above the factor count is a valid always-reject test.
        job = build(3)
        for backend in (DenseBackend(), TransferMatrixBackend()):
            assert backend.tree_probability(job) == 0.0

    def test_factor_count_mismatch(self):
        builder = TreeJobBuilder(num_factors=2)
        with pytest.raises(DimensionMismatchError):
            builder.add_node(-1, NODE_FIXED, registers=(np.array([1.0, 0.0]),))

    def test_program_mixes_chain_and_tree_jobs(self, fingerprints3):
        from repro.engine import Engine

        chain = ChainJob.from_states(
            np.array([1.0, 0.0]), [], outer(np.array([1.0, 0.0]))
        )
        builder = TreeJobBuilder()
        builder.add_node(
            -1,
            NODE_FIXED,
            test=TEST_MEASURE,
            measurement=MeasurementSpec(kind=MEAS_PROJECTOR, targets=(np.array([1.0, 0.0]),)),
        )
        builder.add_node(0, NODE_FIXED, registers=(np.array([1.0, 0.0]),))
        tree = builder.build()
        program = TreeProgram(jobs=(chain, tree), terms=((1.0, (0, 1)),))
        assert Engine().evaluate_program(program) == pytest.approx(1.0)
