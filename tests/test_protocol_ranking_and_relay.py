"""Tests for ranking verification (Algorithm 8) and the relay protocol (Algorithm 6)."""

import numpy as np
import pytest

from repro.exceptions import ProofError, ProtocolError
from repro.network.spanning_tree import build_verification_tree
from repro.network.topology import random_tree_network
from repro.protocols.base import ProductProof
from repro.protocols.ranking import RankingVerificationProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import NoiseModel, channel_family
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.states import basis_state
from repro.utils.bitstrings import bits_to_int
from repro.utils.rng import ensure_rng


class TestRankingCompleteness:
    @pytest.fixture(scope="class")
    def readings(self):
        return ("011", "110", "001")  # values 3, 6, 1

    def test_correct_rank_accepted(self, fingerprints3, readings):
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 2, fingerprints3)
        assert np.isclose(protocol.acceptance_probability(readings), 1.0, atol=1e-9)

    def test_largest_accepted(self, fingerprints3, readings):
        protocol = RankingVerificationProtocol.on_star(3, 3, 2, 1, fingerprints3)
        assert np.isclose(protocol.acceptance_probability(readings), 1.0, atol=1e-9)

    def test_smallest_accepted(self, fingerprints3, readings):
        protocol = RankingVerificationProtocol.on_star(3, 3, 3, 3, fingerprints3)
        assert np.isclose(protocol.acceptance_probability(readings), 1.0, atol=1e-9)

    def test_completeness_with_four_terminals(self, fingerprints3):
        readings = ("011", "110", "001", "100")  # 3, 6, 1, 4
        protocol = RankingVerificationProtocol.on_star(3, 4, 4, 2, fingerprints3)
        assert np.isclose(protocol.acceptance_probability(readings), 1.0, atol=1e-9)

    def test_completeness_with_ties(self, fingerprints3):
        readings = ("011", "011", "001")
        # With the GT_>= convention, terminal 1 counts terminal 2 as "not larger",
        # so terminal 1 ranks first.
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 1, fingerprints3)
        assert np.isclose(protocol.acceptance_probability(readings), 1.0, atol=1e-9)


class TestRankingSoundness:
    @pytest.fixture(scope="class")
    def readings(self):
        return ("011", "110", "001")

    @pytest.mark.parametrize("wrong_rank", [1, 3])
    def test_wrong_rank_rejected(self, fingerprints3, readings, wrong_rank):
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, wrong_rank, fingerprints3)
        assert protocol.acceptance_probability(readings) < 0.5

    def test_false_direction_claims_are_caught(self, fingerprints3, readings):
        # The prover claims terminal 1 (value 3) is the largest by flipping the
        # direction register towards terminal 2 (value 6); the GT_>= sub-protocol
        # along that path then has to certify 3 >= 6 and fails.
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 1, fingerprints3)
        honest = protocol.honest_proof(readings)
        cheat = honest
        other_index = 1  # terminal 2 is input index 1
        path = protocol._paths[other_index]
        for position in range(len(path)):
            cheat = cheat.replaced(f"D[{other_index},{position}]", basis_state(2, 0))
        acceptance = protocol.acceptance_probability(readings, cheat)
        assert acceptance < 0.9

    def test_inconsistent_directions_rejected(self, fingerprints3, readings):
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 2, fingerprints3)
        honest = protocol.honest_proof(readings)
        path = protocol._paths[1]
        # Make the two nodes on the path towards terminal 2 disagree.
        tampered = honest.replaced("D[1,0]", basis_state(2, 0)).replaced("D[1,1]", basis_state(2, 1))
        assert protocol.acceptance_probability(readings, tampered) < protocol.acceptance_probability(
            readings, honest
        )

    def test_repetition(self, fingerprints3, readings):
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 1, fingerprints3)
        single = protocol.acceptance_probability(readings)
        repeated = protocol.repeated(30).acceptance_probability(readings)
        assert np.isclose(repeated, single**30, atol=1e-9)


class TestRankingCosts:
    def test_local_proof_scales_with_terminal_count(self, fingerprints3):
        small = RankingVerificationProtocol.on_star(3, 2, 1, 1, fingerprints3)
        large = RankingVerificationProtocol.on_star(3, 4, 1, 1, fingerprints3)
        assert large.local_proof_qubits() > small.local_proof_qubits()

    def test_direction_registers_present(self, fingerprints3):
        protocol = RankingVerificationProtocol.on_star(3, 3, 1, 2, fingerprints3)
        directions = [r for r in protocol.proof_registers() if r.name.startswith("D[")]
        # Two paths of two edges each: 3 nodes per path hold a direction qubit.
        assert len(directions) == 6
        assert all(register.dim == 2 for register in directions)


class TestRelayProtocol:
    def test_relay_points_positions(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 7, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints4)
        assert protocol.relay_indices == [2, 4, 6]
        assert protocol.anchor_indices == [0, 2, 4, 6, 7]

    def test_perfect_completeness(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 5, relay_spacing=2, segment_repetitions=3, fingerprints=fingerprints4)
        assert np.isclose(protocol.acceptance_probability(("1011", "1011")), 1.0, atol=1e-9)

    def test_no_instance_detected(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 5, relay_spacing=2, segment_repetitions=3, fingerprints=fingerprints4)
        acceptance = protocol.acceptance_probability(("1011", "1010"))
        assert acceptance < 0.5

    def test_lying_relay_point_is_caught(self, fingerprints4):
        # The prover plants a wrong string at a relay point: the segment
        # adjacent to the true endpoint must then fail with noticeable
        # probability even though the fingerprints are consistent with the lie.
        protocol = RelayEqualityProtocol.on_path(4, 4, relay_spacing=2, segment_repetitions=3, fingerprints=fingerprints4)
        x = "1011"
        honest = protocol.honest_proof((x, x))
        lie = "0100"
        tampered = honest.replaced("Z[2]", basis_state(1 << 4, bits_to_int(lie)))
        for index in range(1, 4):
            if index == 2:
                continue
            for copy in range(protocol.segment_repetitions):
                tampered = tampered.replaced(f"R[{index},0,{copy}]", fingerprints4.state(lie))
                tampered = tampered.replaced(f"R[{index},1,{copy}]", fingerprints4.state(lie))
        acceptance = protocol.acceptance_probability((x, x), tampered)
        assert acceptance < 1.0

    def test_superposed_relay_register_mixes_outcomes(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 4, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints4)
        x = "1011"
        honest = protocol.honest_proof((x, x))
        other = "0100"
        superposed = (
            basis_state(16, bits_to_int(x)) + basis_state(16, bits_to_int(other))
        ) / np.sqrt(2)
        tampered = honest.replaced("Z[2]", superposed)
        acceptance = protocol.acceptance_probability((x, x), tampered)
        # With probability 1/2 the relay measures the wrong string and the
        # segments reject with constant probability, so acceptance drops below 1.
        assert 0.4 < acceptance < 1.0

    def test_sampling_estimate_agrees_with_exact(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 4, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints4)
        exact = protocol.acceptance_probability(("1011", "1010"))
        estimate = protocol.estimate_acceptance_sampling(("1011", "1010"), shots=40, rng=0)
        assert abs(exact - estimate) < 0.2

    def test_message_accounting_on_a_path(self):
        protocol = RelayEqualityProtocol.on_path(
            4, 6, relay_spacing=2, segment_repetitions=2, fingerprints=ExactCodeFingerprint(4, rng=7)
        )
        path = protocol.path_nodes
        # Every edge, relay or not, carries one forwarded fingerprint (5 qubits) per copy.
        assert protocol.message_qubits() == {edge: 10.0 for edge in zip(path, path[1:])}
        assert len(protocol.message_qubits()) == 6
        costs = protocol.cost_summary()
        assert costs.local_message == 10.0
        assert costs.total_message == 60.0

    def test_message_accounting_on_a_tree_charges_only_its_path(self):
        network = random_tree_network(10, 2, rng=4)
        protocol = RelayEqualityProtocol.on_tree(
            network, ExactCodeFingerprint(4, rng=7), relay_spacing=2, segment_repetitions=3
        )
        first, second = network.terminals
        path = build_verification_tree(network, root=first).terminal_path(second)
        messages = protocol.message_qubits()
        assert set(messages) == set(zip(path, path[1:]))
        assert len(messages) < len(network.edges)
        assert set(messages.values()) == {15.0}

    def test_total_proof_formula_matches_layout(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(4, 6, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints4)
        assert protocol.total_proof_qubits() == pytest.approx(protocol.total_proof_qubits_formula())

    def test_paper_segment_repetitions(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(8, 4, relay_spacing=2, segment_repetitions=2, fingerprints=ExactCodeFingerprintFixture(8))
        assert protocol.paper_segment_repetitions() == 42 * 2 * 2

    def test_invalid_spacing(self, fingerprints4):
        with pytest.raises(ProtocolError):
            RelayEqualityProtocol.on_path(4, 5, relay_spacing=0, fingerprints=fingerprints4)


class TestRelaySampling:
    """The sampled estimator rides the exact chain program, noise model included."""

    @staticmethod
    def _noisy_protocol():
        fingerprints = ExactCodeFingerprint(2, rng=7)
        noise = NoiseModel.uniform_link(channel_family("depolarizing")(0.3, fingerprints.dim))
        return RelayEqualityProtocol.on_path(
            2, 4, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints, noise=noise
        )

    @pytest.mark.parametrize("inputs", [("11", "11"), ("11", "01")], ids=["yes", "no"])
    def test_sampled_honest_proof_honours_noise(self, inputs):
        # The honest relay registers have one outcome each, so every shot
        # conditions on the same outcome and the estimate is exact.
        protocol = self._noisy_protocol()
        exact = protocol.acceptance_probability(inputs)
        assert exact < 0.5
        estimate = protocol.estimate_acceptance_sampling(inputs, shots=64, rng=0)
        assert estimate == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("strength", [None, 0.2], ids=["clean", "noisy"])
    def test_seeded_estimate_averages_the_drawn_outcomes(self, fingerprints4, strength):
        # Two relay registers in superposition over three strings each (nine
        # joint outcomes).  Draws run shots outer, relays inner, so a seeded
        # estimate is the mean exact acceptance of the proofs collapsed onto
        # the drawn outcomes, clean or noisy.
        noise = None
        if strength is not None:
            channel = channel_family("depolarizing")(strength, fingerprints4.dim)
            noise = NoiseModel.uniform_link(channel, readout_error=0.02)
        protocol = RelayEqualityProtocol.on_path(
            4, 6, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints4, noise=noise
        )
        inputs = ("1011", "1011")
        proof = protocol.honest_proof(inputs)
        supports = (("1011", "0100", "1111"), ("1011", "0001", "1010"))
        for index, strings in zip(protocol.relay_indices, supports):
            amplitudes = sum(
                weight * basis_state(16, bits_to_int(string))
                for weight, string in zip((0.8, 0.5, 0.33), strings)
            )
            proof = proof.replaced(f"Z[{index}]", amplitudes)
        estimate = protocol.estimate_acceptance_sampling(inputs, proof, shots=24, rng=3)

        generator = ensure_rng(3)
        distributions = [
            np.abs(proof.state(f"Z[{index}]")) ** 2 for index in protocol.relay_indices
        ]
        conditioned = []
        for _ in range(24):
            collapsed = proof
            for index, p in zip(protocol.relay_indices, distributions):
                value = int(generator.choice(len(p), p=p / p.sum()))
                collapsed = collapsed.replaced(f"Z[{index}]", basis_state(16, value))
            conditioned.append(protocol.acceptance_probability(inputs, collapsed))
        assert len({round(value, 9) for value in conditioned}) > 1
        assert estimate == pytest.approx(np.mean(conditioned), abs=1e-12)

    def test_sampling_validates_a_callers_proof(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(
            4, 4, relay_spacing=2, segment_repetitions=1, fingerprints=fingerprints4
        )
        inputs = ("1011", "1011")
        honest = protocol.honest_proof(inputs)
        states = {name: honest.state(name) for name in honest.register_names}
        states["stray"] = basis_state(2, 0)
        with pytest.raises(ProofError):
            protocol.estimate_acceptance_sampling(inputs, ProductProof(states), shots=4, rng=0)

    def test_outcome_support_guard_names_the_sampling_route(self, fingerprints4):
        protocol = RelayEqualityProtocol.on_path(
            4, 6, relay_spacing=1, segment_repetitions=1, fingerprints=fingerprints4
        )
        inputs = ("1011", "1011")
        proof = protocol.honest_proof(inputs)
        uniform = np.ones(16) / 4.0
        for index in protocol.relay_indices:
            proof = proof.replaced(f"Z[{index}]", uniform)
        with pytest.raises(ProtocolError, match="use estimate_acceptance_sampling"):
            protocol.acceptance_probability(inputs, proof)
        estimate = protocol.estimate_acceptance_sampling(inputs, proof, shots=8, rng=1)
        assert 0.0 <= estimate < 1.0


def ExactCodeFingerprintFixture(input_length):
    from repro.quantum.fingerprint import ExactCodeFingerprint

    return ExactCodeFingerprint(input_length, rng=0)
