"""Tests for the improved EQ protocol on paths (Algorithm 3 / Theorem 19)."""

import numpy as np
import pytest

from repro.analysis.soundness import entangled_soundness_report, fingerprint_strategy_soundness
from repro.exceptions import ProofError, ProtocolError, TopologyError
from repro.experiments.soundness_scaling import small_fingerprints
from repro.network.topology import star_network
from repro.protocols.base import ProductProof
from repro.protocols.chain import optimal_entangled_acceptance
from repro.protocols.equality import EqualityPathProtocol
from repro.quantum.channels import NoiseModel, amplitude_damping_channel, depolarizing_channel
from repro.utils.bitstrings import all_bitstrings


class TestLayout:
    def test_register_count(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 5, fingerprints3)
        # Two registers for each of the r - 1 = 4 intermediate nodes.
        assert len(protocol.proof_registers()) == 8

    def test_no_proof_at_terminals(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        nodes_with_proof = {register.node for register in protocol.proof_registers()}
        assert "v0" not in nodes_with_proof
        assert "v4" not in nodes_with_proof

    def test_local_proof_size_two_fingerprints(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        assert protocol.local_proof_qubits() == pytest.approx(2 * fingerprints3.num_qubits)

    def test_messages_cover_every_edge(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        assert len(protocol.message_qubits()) == 4

    def test_requires_a_path_network(self, fingerprints3):
        with pytest.raises(TopologyError):
            EqualityPathProtocol(star_network(3).with_terminals(("leaf0", "leaf1")), fingerprints3)


class TestCompleteness:
    def test_perfect_completeness_on_all_yes_instances(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        for x in all_bitstrings(3):
            assert np.isclose(protocol.acceptance_probability((x, x)), 1.0, atol=1e-9)

    def test_completeness_for_longer_paths(self, fingerprints3):
        for r in (1, 2, 6, 10):
            protocol = EqualityPathProtocol.on_path(3, r, fingerprints3)
            assert np.isclose(protocol.acceptance_probability(("110", "110")), 1.0, atol=1e-9)

    def test_repeated_protocol_keeps_completeness(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3).repeated(30)
        assert np.isclose(protocol.acceptance_probability(("011", "011")), 1.0, atol=1e-9)


class TestSoundness:
    def test_honest_proof_on_no_instance_is_bounded(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        assert protocol.acceptance_probability(("101", "011")) <= 1.0 - protocol.single_shot_soundness_gap()

    def test_fingerprint_strategies_respect_lemma_17(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        best, _ = fingerprint_strategy_soundness(protocol, ("101", "011"))
        assert best <= 1.0 - protocol.single_shot_soundness_gap() + 1e-9

    def test_optimal_entangled_cheating_respects_lemma_17(self, tiny_fingerprints):
        for r in (2, 3):
            protocol = EqualityPathProtocol.on_path(1, r, tiny_fingerprints)
            optimal = protocol.optimal_cheating_probability(("0", "1"))
            assert optimal <= 1.0 - protocol.single_shot_soundness_gap() + 1e-9

    def test_optimal_cheating_on_yes_instance_is_one(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        assert np.isclose(protocol.optimal_cheating_probability(("1", "1")), 1.0, atol=1e-8)

    def test_entangled_beats_or_matches_product_strategies(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        optimal = protocol.optimal_cheating_probability(("0", "1"))
        best_product, _ = fingerprint_strategy_soundness(protocol, ("0", "1"))
        assert optimal >= best_product - 1e-9

    def test_repetition_drives_soundness_below_one_third(self, fingerprints3):
        base = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        repeated = base.repeated(base.paper_repetitions())
        assert repeated.acceptance_probability(("101", "011")) < 1.0 / 3.0

    def test_soundness_report_structure(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 2, tiny_fingerprints)
        report = entangled_soundness_report(protocol, ("0", "1"))
        assert report.respects_paper_bound
        assert report.optimal_entangled_acceptance is not None
        assert report.best_found_acceptance <= report.optimal_entangled_acceptance + 1e-9


class TestMatrixFreeOptimum:
    """The optimum diagonalises the dense operator up to proof dimension 64 and
    runs Lanczos on the matrix-free sweep above it."""

    def test_dense_side_is_the_dense_eigenvalue(self):
        protocol = EqualityPathProtocol.on_path(1, 4, small_fingerprints())  # N = 64
        operator = protocol.acceptance_operator(("0", "1"))
        assert protocol.optimal_cheating_probability(("0", "1")) == optimal_entangled_acceptance(
            operator
        )

    @pytest.mark.parametrize("inputs", [("0", "1"), ("1", "1")])
    def test_matrix_free_side_matches_the_dense_eigenvalue(self, inputs):
        protocol = EqualityPathProtocol.on_path(1, 5, small_fingerprints())  # N = 256
        dense = optimal_entangled_acceptance(protocol.acceptance_operator(inputs))
        assert abs(protocol.optimal_cheating_probability(inputs) - dense) <= 1e-12

    @pytest.mark.parametrize("path_length", [3, 5], ids=["dense", "matrix-free"])
    def test_noisy_optimum_folds_the_right_preparation_channel(self, path_length):
        noise = NoiseModel(
            link=depolarizing_channel(0.1, 2),
            node=amplitude_damping_channel(0.2, 2),
            readout_error=0.03,
        )
        protocol = EqualityPathProtocol.on_path(1, path_length, small_fingerprints(), noise=noise)
        assert protocol._chain_noise.right_channel is not None
        dense = optimal_entangled_acceptance(protocol.acceptance_operator(("0", "1")))
        optimal = protocol.optimal_cheating_probability(("0", "1"))
        assert abs(optimal - dense) <= 1e-12
        assert optimal < protocol.with_noise(None).optimal_cheating_probability(("1", "1"))

    def test_optimum_past_the_dense_guard(self):
        protocol = EqualityPathProtocol.on_path(1, 7, small_fingerprints())  # N = 4096
        with pytest.raises(ProtocolError):
            protocol.acceptance_operator(("0", "1"))
        optimal = protocol.optimal_cheating_probability(("0", "1"))
        assert 0.5 < optimal <= 1.0 - protocol.single_shot_soundness_gap()


class TestPaperParameters:
    def test_single_shot_gap_formula(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 5, fingerprints3)
        assert protocol.single_shot_soundness_gap() == pytest.approx(4.0 / (81.0 * 25.0))

    def test_paper_repetitions_formula(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 5, fingerprints3)
        assert protocol.paper_repetitions() == int(np.ceil(2 * 81 * 25 / 4))

    def test_local_proof_scales_as_r_squared_log_n(self, fingerprints3):
        # After the paper's repetition count, the local proof size grows as r^2.
        small = EqualityPathProtocol.on_path(3, 2, fingerprints3)
        large = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        ratio = (
            large.repeated(large.paper_repetitions()).local_proof_qubits()
            / small.repeated(small.paper_repetitions()).local_proof_qubits()
        )
        assert 3.0 <= ratio <= 5.0  # ~ (4/2)^2 with rounding effects


class TestProofValidation:
    def test_wrong_register_name_rejected(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        bad = ProductProof({"bogus": fingerprints3.state("101")})
        with pytest.raises(ProofError):
            protocol.acceptance_probability(("101", "101"), bad)

    def test_custom_proof_accepted(self, fingerprints3):
        protocol = EqualityPathProtocol.on_path(3, 3, fingerprints3)
        honest = protocol.honest_proof(("101", "101"))
        assert np.isclose(protocol.acceptance_probability(("101", "101"), honest), 1.0, atol=1e-9)

    def test_adversarial_two_sided_proof(self, fingerprints3):
        # The classic cheating attempt: fingerprints of x near v0 and of y near
        # v_r.  The chain detects the switch-over point with constant probability.
        protocol = EqualityPathProtocol.on_path(3, 4, fingerprints3)
        x, y = "101", "011"
        states = {}
        for index in range(1, 4):
            value = x if index <= 2 else y
            states[f"R[{index},0]"] = fingerprints3.state(value)
            states[f"R[{index},1]"] = fingerprints3.state(value)
        cheat = ProductProof(states)
        acceptance = protocol.acceptance_probability((x, y), cheat)
        assert acceptance < 1.0 - protocol.single_shot_soundness_gap() + 1e-9
        assert acceptance > 0.25  # the cheat is still fairly strong in a single shot
