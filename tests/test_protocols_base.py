"""Tests for the protocol framework: registers, proofs, repetition, cost accounting."""

import numpy as np
import pytest

from repro.exceptions import ProofError, ProtocolError, ReproError
from repro.protocols.base import (
    CostSummary,
    ProductProof,
    ProofRegister,
    RepeatedProtocol,
    soundness_repetitions,
)
from repro.protocols.equality import EqualityPathProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.protocols.transcript import empirical_acceptance_from_transcripts, rejection_histogram
from repro.quantum.states import basis_state


class TestProofRegister:
    def test_qubits(self):
        register = ProofRegister("R", "v1", 8)
        assert register.qubits == 3.0

    def test_invalid_dimension(self):
        with pytest.raises(ProofError):
            ProofRegister("R", "v1", 0)

    def test_empty_name(self):
        with pytest.raises(ProofError):
            ProofRegister("", "v1", 2)


class TestProductProof:
    def test_states_are_normalized(self):
        proof = ProductProof({"a": [2.0, 0.0]})
        assert np.isclose(np.linalg.norm(proof.state("a")), 1.0)

    def test_zero_state_rejected(self):
        with pytest.raises(ProofError):
            ProductProof({"a": [0.0, 0.0]})

    def test_missing_register(self):
        proof = ProductProof({"a": basis_state(2, 0)})
        with pytest.raises(ProofError):
            proof.state("b")

    def test_validate_against_layout(self):
        proof = ProductProof({"a": basis_state(2, 0)})
        proof.validate_against([ProofRegister("a", "v1", 2)])
        with pytest.raises(ProofError):
            proof.validate_against([ProofRegister("a", "v1", 4)])
        with pytest.raises(ProofError):
            proof.validate_against([ProofRegister("a", "v1", 2), ProofRegister("b", "v1", 2)])

    def test_extra_register_rejected(self):
        proof = ProductProof({"a": basis_state(2, 0), "extra": basis_state(2, 1)})
        with pytest.raises(ProofError):
            proof.validate_against([ProofRegister("a", "v1", 2)])

    def test_replaced_returns_new_proof(self):
        proof = ProductProof({"a": basis_state(2, 0)})
        replaced = proof.replaced("a", basis_state(2, 1))
        assert np.isclose(abs(proof.state("a")[0]), 1.0)
        assert np.isclose(abs(replaced.state("a")[1]), 1.0)


class TestCostSummary:
    def test_proof_plus_communication(self):
        summary = CostSummary(local_proof=2, total_proof=10, local_message=1, total_message=4)
        assert summary.proof_plus_communication == 14


class TestSoundnessRepetitions:
    def test_matches_power_law(self):
        gap = 0.01
        k = soundness_repetitions(gap, 1.0 / 3.0)
        assert (1 - gap) ** k <= 1.0 / 3.0
        assert (1 - gap) ** (k - 1) > 1.0 / 3.0 - 1e-9

    def test_invalid_gap(self):
        with pytest.raises(ProtocolError):
            soundness_repetitions(0.0)

    def test_invalid_target(self):
        with pytest.raises(ProtocolError):
            soundness_repetitions(0.1, 1.5)


class TestRepeatedProtocol:
    @pytest.fixture(scope="class")
    def base(self, fingerprints3):
        return EqualityPathProtocol.on_path(3, 3, fingerprints3)

    def test_register_count_scales(self, base):
        repeated = RepeatedProtocol(base, 4)
        assert len(repeated.proof_registers()) == 4 * len(base.proof_registers())

    def test_completeness_preserved(self, base):
        repeated = RepeatedProtocol(base, 5)
        assert np.isclose(repeated.acceptance_probability(("101", "101")), 1.0, atol=1e-9)

    def test_acceptance_is_power_of_single_shot(self, base):
        single = base.acceptance_probability(("101", "100"))
        repeated = RepeatedProtocol(base, 6)
        assert np.isclose(repeated.acceptance_probability(("101", "100")), single**6, atol=1e-9)

    def test_custom_proof_split_across_copies(self, base, fingerprints3):
        repeated = RepeatedProtocol(base, 2)
        honest = repeated.honest_proof(("101", "101"))
        assert np.isclose(repeated.acceptance_probability(("101", "101"), honest), 1.0, atol=1e-9)

    def test_cost_scales_linearly(self, base):
        repeated = RepeatedProtocol(base, 3)
        assert repeated.total_proof_qubits() == pytest.approx(3 * base.total_proof_qubits())
        assert repeated.local_message_qubits() == pytest.approx(3 * base.local_message_qubits())

    def test_invalid_repetitions(self, base):
        with pytest.raises(ProtocolError):
            RepeatedProtocol(base, 0)

    def test_run_returns_consistent_result(self, base):
        result = base.run(("101", "101"), rng=0)
        assert result.accepted
        assert np.isclose(result.acceptance_probability, 1.0)

    def test_estimate_acceptance_matches_probability(self, base):
        estimate = base.estimate_acceptance(("101", "100"), shots=300, rng=1)
        exact = base.acceptance_probability(("101", "100"))
        assert abs(estimate - exact) < 0.15


MONTE_CARLO_ESTIMATORS = {
    "estimate_acceptance": lambda fingerprints, shots: EqualityPathProtocol.on_path(
        3, 3, fingerprints
    ).estimate_acceptance(("101", "100"), shots=shots, rng=0),
    "estimate_acceptance_sampling": lambda fingerprints, shots: RelayEqualityProtocol.on_path(
        3, 4, relay_spacing=2, segment_repetitions=1, fingerprints=fingerprints
    ).estimate_acceptance_sampling(("101", "100"), shots=shots, rng=0),
    "empirical_acceptance_from_transcripts": lambda fingerprints, shots: (
        empirical_acceptance_from_transcripts(
            EqualityPathProtocol.on_path(3, 3, fingerprints), ("101", "100"), shots=shots, rng=0
        )
    ),
    "rejection_histogram": lambda fingerprints, shots: rejection_histogram(
        EqualityPathProtocol.on_path(3, 3, fingerprints), ("101", "100"), shots=shots, rng=0
    ),
}


@pytest.mark.parametrize("shots", [0, -3, 2.5, True])
@pytest.mark.parametrize("estimator", sorted(MONTE_CARLO_ESTIMATORS))
def test_monte_carlo_estimators_reject_invalid_shots(fingerprints3, estimator, shots):
    with pytest.raises(ReproError, match="shots must be"):
        MONTE_CARLO_ESTIMATORS[estimator](fingerprints3, shots)

