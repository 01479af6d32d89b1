"""Tests for the adversary optimisation and soundness-report machinery."""

import numpy as np
import pytest

from repro.analysis.adversary import (
    conditional_operator,
    product_acceptance,
    random_product_search,
    seesaw_separable_acceptance,
)
from repro.analysis.soundness import (
    entangled_soundness_report,
    fingerprint_strategy_soundness,
    repetition_soundness,
)
from repro.exceptions import DimensionMismatchError, ProtocolError, ReproError
from repro.protocols.base import RepeatedProtocol
from repro.protocols.chain import chain_acceptance_operator, optimal_entangled_acceptance
from repro.protocols.equality import EqualityPathProtocol
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import basis_state, outer


@pytest.fixture(scope="module")
def small_operator():
    """The acceptance operator of the r = 2 chain on a no-instance of EQ (dim 4)."""
    return chain_acceptance_operator(
        basis_state(2, 0), 2, 1, outer(basis_state(2, 1))
    )


class TestProductAcceptance:
    def test_matches_direct_computation(self, small_operator):
        a = haar_random_state(2, rng=0)
        b = haar_random_state(2, rng=1)
        joint = np.kron(a, b)
        direct = float(np.real(np.vdot(joint, small_operator @ joint)))
        assert np.isclose(product_acceptance(small_operator, [a, b]), direct, atol=1e-10)

    def test_normalises_factors(self, small_operator):
        a = 3.0 * haar_random_state(2, rng=2)
        b = 0.5 * haar_random_state(2, rng=3)
        value = product_acceptance(small_operator, [a, b])
        assert 0.0 <= value <= 1.0

    def test_dimension_mismatch(self, small_operator):
        with pytest.raises(DimensionMismatchError):
            seesaw_separable_acceptance(small_operator, [2, 4], rng=0)


class TestConditionalOperator:
    def test_quadratic_form_consistency(self, small_operator):
        factors = [haar_random_state(2, rng=4), haar_random_state(2, rng=5)]
        for position in range(2):
            conditional = conditional_operator(small_operator, [2, 2], factors, position)
            via_conditional = float(
                np.real(np.vdot(factors[position], conditional @ factors[position]))
            )
            assert np.isclose(via_conditional, product_acceptance(small_operator, factors), atol=1e-9)

    def test_single_factor_case(self):
        operator = outer(haar_random_state(3, rng=6))
        psi = haar_random_state(3, rng=7)
        conditional = conditional_operator(operator, [3], [psi], 0)
        np.testing.assert_allclose(conditional, operator, atol=1e-10)


class TestSeesaw:
    def test_lower_bounds_entangled_optimum(self, small_operator):
        separable, _ = seesaw_separable_acceptance(small_operator, [2, 2], rng=0)
        entangled = optimal_entangled_acceptance(small_operator)
        assert separable <= entangled + 1e-8

    def test_beats_random_search(self, small_operator):
        separable, _ = seesaw_separable_acceptance(small_operator, [2, 2], rng=1)
        random_best = random_product_search(small_operator, [2, 2], samples=50, rng=2)
        assert separable >= random_best - 1e-8

    def test_achieving_factors_reproduce_value(self, small_operator):
        value, factors = seesaw_separable_acceptance(small_operator, [2, 2], rng=3)
        assert np.isclose(product_acceptance(small_operator, factors), value, atol=1e-8)

    def test_separable_optimum_on_rank_one_operator(self):
        # For E = |ab><ab| the separable optimum equals the entangled optimum (1).
        a, b = basis_state(2, 0), basis_state(2, 1)
        operator = outer(np.kron(a, b))
        value, _ = seesaw_separable_acceptance(operator, [2, 2], rng=4)
        assert np.isclose(value, 1.0, atol=1e-6)

    def test_separable_strictly_below_entangled_for_bell_projector(self):
        # E = |Phi+><Phi+|: entangled optimum 1, separable optimum 1/2.
        bell = (np.kron(basis_state(2, 0), basis_state(2, 0)) + np.kron(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
        operator = outer(bell)
        value, _ = seesaw_separable_acceptance(operator, [2, 2], rng=5)
        assert np.isclose(value, 0.5, atol=1e-6)
        assert np.isclose(optimal_entangled_acceptance(operator), 1.0, atol=1e-9)

    def test_restarts_seeded_deterministically(self, small_operator):
        # Regression: the same seed must reproduce the exact same optimum and
        # achieving factors (restart initial states are drawn up front in
        # restart-major order, independent of the optimisation interleaving).
        first_value, first_factors = seesaw_separable_acceptance(
            small_operator, [2, 2], restarts=5, rng=12
        )
        second_value, second_factors = seesaw_separable_acceptance(
            small_operator, [2, 2], restarts=5, rng=12
        )
        assert first_value == second_value
        for a, b in zip(first_factors, second_factors):
            np.testing.assert_array_equal(a, b)

    def test_batched_restarts_match_sequential_reference(self, small_operator):
        # The lockstep (vectorized) restarts must reproduce the per-restart
        # sequential seesaw trajectories.
        from repro.quantum.random_states import haar_random_state
        from repro.utils.rng import ensure_rng

        dims = [2, 2]
        restarts, iterations = 4, 30
        generator = ensure_rng(3)
        initial = [[haar_random_state(d, generator) for d in dims] for _ in range(restarts)]
        best_value = -1.0
        for restart in range(restarts):
            factors = [vector.copy() for vector in initial[restart]]
            value = product_acceptance(small_operator, factors)
            for _ in range(iterations):
                improved = False
                for position in range(len(dims)):
                    conditional = conditional_operator(small_operator, dims, factors, position)
                    hermitian = (conditional + conditional.conj().T) / 2
                    eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
                    factors[position] = eigenvectors[:, -1]
                    new_value = min(max(eigenvalues[-1].real, 0.0), 1.0)
                    if new_value > value + 1e-12:
                        improved = True
                    value = new_value
                if not improved:
                    break
            best_value = max(best_value, value)
        batched_value, _ = seesaw_separable_acceptance(
            small_operator, dims, iterations=iterations, restarts=restarts, rng=3
        )
        assert np.isclose(batched_value, best_value, atol=1e-9)


class TestSoundnessReports:
    def test_fingerprint_strategy_requires_fingerprint_protocol(self):
        class Dummy:
            pass

        with pytest.raises(ProtocolError):
            fingerprint_strategy_soundness(Dummy(), ("0", "1"))

    def test_fingerprint_strategy_on_path_protocol(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        best, proof = fingerprint_strategy_soundness(protocol, ("0", "1"))
        assert proof is not None
        assert 0.0 <= best <= 1.0 - protocol.single_shot_soundness_gap() + 1e-9

    def test_strategy_search_reports_the_achieving_label(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        result = fingerprint_strategy_soundness(protocol, ("0", "1"))
        assert result.num_assignments == 2 ** 2  # 2 candidates, 2 proof nodes
        assert result.best_strategy == "honest" or "=" in result.best_strategy
        # The label must reproduce the reported acceptance.
        assert protocol.acceptance_probability(
            ("0", "1"), result.best_proof
        ) == pytest.approx(result.best_acceptance, abs=1e-12)

    def test_batched_search_matches_scalar_loop(self, tiny_fingerprints):
        # The chunked batched evaluation must find exactly the scalar loop's
        # optimum (first-maximum tie-breaking included).
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        result = fingerprint_strategy_soundness(protocol, ("0", "1"), batch_size=2)
        scalar_best = protocol.acceptance_probability(("0", "1"))
        fingerprints = protocol.fingerprints
        registers = protocol.proof_registers()
        nodes = sorted({register.node for register in registers}, key=str)
        from itertools import product as iter_product

        honest = protocol.honest_proof(("0", "1"))
        for combo in iter_product(["0", "1"], repeat=len(nodes)):
            node_string = dict(zip(nodes, combo))
            proof = honest
            for register in registers:
                proof = proof.replaced(register.name, fingerprints.state(node_string[register.node]))
            scalar_best = max(scalar_best, protocol.acceptance_probability(("0", "1"), proof))
        assert result.best_acceptance == pytest.approx(scalar_best, abs=1e-9)

    @pytest.mark.parametrize("batch_size", [0, -5, 2.7, True, "4", None])
    def test_search_rejects_invalid_batch_size(self, tiny_fingerprints, batch_size):
        # These used to be clamped silently into a normal 4-assignment search.
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        with pytest.raises(ReproError, match="batch_size"):
            fingerprint_strategy_soundness(protocol, ("0", "1"), batch_size=batch_size)

    @pytest.mark.parametrize("limit", [0, -5, 4096.5, 8.0, True])
    def test_search_rejects_invalid_max_assignments(self, tiny_fingerprints, limit):
        protocol = EqualityPathProtocol.on_path(1, 3, tiny_fingerprints)
        with pytest.raises(ReproError, match="max_assignments"):
            fingerprint_strategy_soundness(protocol, ("0", "1"), max_assignments=limit)

    def test_search_sizes_are_checked_before_any_work(self):
        class Dummy:  # no fingerprints: would raise ProtocolError if reached
            pass

        with pytest.raises(ReproError, match="batch_size must be positive"):
            fingerprint_strategy_soundness(Dummy(), ("0", "1"), batch_size=0)

    def test_report_with_seesaw(self, tiny_fingerprints):
        protocol = EqualityPathProtocol.on_path(1, 2, tiny_fingerprints)
        report = entangled_soundness_report(protocol, ("0", "1"), run_seesaw=True, rng=0)
        assert report.respects_paper_bound
        assert report.best_found_acceptance <= report.optimal_entangled_acceptance + 1e-8
        assert report.best_strategy is not None

    def test_repetition_soundness(self):
        assert np.isclose(repetition_soundness(0.9, 10), 0.9**10)
        with pytest.raises(ProtocolError):
            repetition_soundness(0.9, 0)


_REPEATED_BASE = EqualityPathProtocol.on_path(1, 2)

#: Entry points taking a count: (call on the small operator, error class, name
#: in the message).  Repetition counts keep raising ProtocolError.
COUNT_ENTRY_POINTS = {
    "RepeatedProtocol": (
        lambda operator, count: RepeatedProtocol(_REPEATED_BASE, count),
        ProtocolError,
        "repetitions",
    ),
    "repetition_soundness": (
        lambda operator, count: repetition_soundness(0.5, count),
        ProtocolError,
        "repetition count",
    ),
    "seesaw-iterations": (
        lambda operator, count: seesaw_separable_acceptance(
            operator, [2, 2], iterations=count, rng=0
        ),
        ReproError,
        "iterations",
    ),
    "seesaw-restarts": (
        lambda operator, count: seesaw_separable_acceptance(
            operator, [2, 2], restarts=count, rng=0
        ),
        ReproError,
        "restarts",
    ),
    "random_product_search": (
        lambda operator, count: random_product_search(operator, [2, 2], samples=count, rng=0),
        ReproError,
        "samples",
    ),
}


@pytest.mark.parametrize(
    "count", [0, -3, 2.9, True, "3"], ids=["zero", "negative", "float", "bool", "string"]
)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_must_be_positive_integers(small_operator, entry, count):
    # These used to be truncated (2.9 ran 2 copies), clamped to one
    # iteration, restart or sample, taken as 1 (True), or raise TypeError.
    call, error, name = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(error, match=name):
        call(small_operator, count)
