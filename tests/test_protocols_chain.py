"""Tests for the symmetrized SWAP-test chain machinery (used by Algorithms 3, 7 and 10)."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.engine import ChainNoise
from repro.protocols.chain import (
    SWEEP_MAX_DIM,
    chain_acceptance_operator,
    chain_acceptance_probability,
    chain_acceptance_probability_factored,
    chain_acceptance_sweep,
    lanczos_top_eigenvalue,
    optimal_entangled_acceptance,
    optimal_sweep_acceptance,
    right_end_swap_operator,
)
from repro.quantum.channels import amplitude_damping_channel, dephasing_channel
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import basis_state, outer


def _povm_for(target):
    return outer(target)


class TestChainAcceptanceProbability:
    def test_no_intermediate_nodes(self):
        psi = haar_random_state(4, rng=0)
        phi = haar_random_state(4, rng=1)
        probability = chain_acceptance_probability(psi, [], _povm_for(phi))
        assert np.isclose(probability, abs(np.vdot(phi, psi)) ** 2, atol=1e-10)

    def test_all_identical_states_accept(self):
        psi = haar_random_state(4, rng=2)
        pairs = [(psi, psi)] * 3
        assert np.isclose(chain_acceptance_probability(psi, pairs, _povm_for(psi)), 1.0, atol=1e-10)

    def test_single_intermediate_node_manual_computation(self):
        # With orthogonal states |0>, |1>: proof (a, b) = (|0>, |1>), left |0>,
        # right end projects onto |1>.
        # No swap (prob 1/2): test(|0>,|0>)=1, right gets |1> -> accepts 1.  Contribution 0.5.
        # Swap (prob 1/2): test(|0>,|1>)=0.5, right gets |0> -> accepts 0.  Contribution 0.
        left = basis_state(2, 0)
        pairs = [(basis_state(2, 0), basis_state(2, 1))]
        probability = chain_acceptance_probability(left, pairs, _povm_for(basis_state(2, 1)))
        assert np.isclose(probability, 0.5, atol=1e-12)

    def test_monotone_under_orthogonal_right_end(self):
        psi = haar_random_state(3, rng=3)
        phi = haar_random_state(3, rng=4)
        pairs = [(psi, psi)] * 2
        accept_same = chain_acceptance_probability(psi, pairs, _povm_for(psi))
        accept_diff = chain_acceptance_probability(psi, pairs, _povm_for(phi))
        assert accept_same >= accept_diff - 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            chain_acceptance_probability(
                basis_state(2, 0), [(basis_state(3, 0), basis_state(3, 1))], np.eye(2)
            )

    def test_right_end_swap_operator_probability(self):
        phi = haar_random_state(4, rng=5)
        incoming = haar_random_state(4, rng=6)
        operator = right_end_swap_operator(phi)
        expected = 0.5 + 0.5 * abs(np.vdot(phi, incoming)) ** 2
        assert np.isclose(
            float(np.real(np.vdot(incoming, operator @ incoming))), expected, atol=1e-10
        )


class TestChainFactored:
    def test_matches_unfactored_for_single_factor(self):
        psi = haar_random_state(2, rng=7)
        phi = haar_random_state(2, rng=8)
        a = haar_random_state(2, rng=9)
        b = haar_random_state(2, rng=10)
        plain = chain_acceptance_probability(psi, [(a, b)], _povm_for(phi))
        factored = chain_acceptance_probability_factored(
            [psi],
            [([a], [b])],
            lambda factors: float(abs(np.vdot(phi, factors[0])) ** 2),
        )
        assert np.isclose(plain, factored, atol=1e-10)

    def test_multi_factor_product_structure(self):
        # Two-factor messages: the SWAP acceptance multiplies the per-factor overlaps.
        f1 = haar_random_state(2, rng=11)
        f2 = haar_random_state(2, rng=12)
        g1 = haar_random_state(2, rng=13)
        g2 = haar_random_state(2, rng=14)
        plain_overlap_sq = abs(np.vdot(f1, g1)) ** 2 * abs(np.vdot(f2, g2)) ** 2
        probability = chain_acceptance_probability_factored(
            [f1, f2],
            [([g1, g2], [g1, g2])],
            lambda factors: 1.0,
        )
        assert np.isclose(probability, 0.5 + 0.5 * plain_overlap_sq, atol=1e-10)


class TestChainAcceptanceOperator:
    def test_operator_matches_product_proof_probability(self):
        dim = 2
        left = basis_state(2, 0)
        right_op = _povm_for(basis_state(2, 1))
        operator = chain_acceptance_operator(left, dim, 2, right_op)
        # Evaluate the operator on a random product proof and compare with the
        # transfer-matrix computation.
        rng = np.random.default_rng(0)
        for _ in range(5):
            a1, b1 = haar_random_state(2, rng), haar_random_state(2, rng)
            a2, b2 = haar_random_state(2, rng), haar_random_state(2, rng)
            product = np.kron(np.kron(a1, b1), np.kron(a2, b2))
            via_operator = float(np.real(np.vdot(product, operator @ product)))
            via_chain = chain_acceptance_probability(left, [(a1, b1), (a2, b2)], right_op)
            assert np.isclose(via_operator, via_chain, atol=1e-9)

    def test_operator_is_hermitian_and_bounded(self):
        operator = chain_acceptance_operator(basis_state(2, 0), 2, 2, _povm_for(basis_state(2, 1)))
        np.testing.assert_allclose(operator, operator.conj().T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(operator)
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_optimal_entangled_at_least_best_product(self):
        operator = chain_acceptance_operator(basis_state(2, 0), 2, 2, _povm_for(basis_state(2, 1)))
        optimal = optimal_entangled_acceptance(operator)
        rng = np.random.default_rng(1)
        best_product = 0.0
        for _ in range(30):
            factors = [haar_random_state(2, rng) for _ in range(4)]
            product = factors[0]
            for factor in factors[1:]:
                product = np.kron(product, factor)
            best_product = max(best_product, float(np.real(np.vdot(product, operator @ product))))
        assert optimal >= best_product - 1e-9

    def test_yes_instance_operator_reaches_one(self):
        psi = basis_state(2, 0)
        operator = chain_acceptance_operator(psi, 2, 2, _povm_for(psi))
        assert np.isclose(optimal_entangled_acceptance(operator), 1.0, atol=1e-9)

    def test_zero_intermediate_nodes(self):
        psi = basis_state(2, 0)
        operator = chain_acceptance_operator(psi, 2, 0, _povm_for(basis_state(2, 1)))
        assert operator.shape == (1, 1)
        assert np.isclose(operator[0, 0].real, 0.0, atol=1e-12)

    @pytest.mark.parametrize("num_intermediate", [0, 1, 2])
    def test_noisy_operator_matches_dense_backend(self, num_intermediate):
        # With a ChainNoise annotation the operator is the Heisenberg picture
        # of the noisy chain: on every product proof it must reproduce the
        # dense backend's Kraus-sum evaluation of the same job.
        from repro.engine import ChainJob, ChainNoise, DenseBackend
        from repro.quantum.channels import dephasing_channel, depolarizing_channel

        rng = np.random.default_rng(num_intermediate)
        left = haar_random_state(2, rng)
        right_op = 0.8 * _povm_for(haar_random_state(2, rng)) + 0.1 * np.eye(2)
        noise = ChainNoise(
            edge_channels=(depolarizing_channel(0.2, 2),) * (num_intermediate + 1),
            node_channels=(dephasing_channel(0.3, 2),) * num_intermediate,
            left_channel=dephasing_channel(0.1, 2),
            readout_error=0.05,
        )
        operator = chain_acceptance_operator(left, 2, num_intermediate, right_op, noise=noise)
        for _ in range(3):
            pairs = [(haar_random_state(2, rng), haar_random_state(2, rng)) for _ in range(num_intermediate)]
            product = np.array([1.0 + 0.0j])
            for a, b in pairs:
                product = np.kron(product, np.kron(a, b))
            via_operator = float(np.real(np.vdot(product, operator @ product)))
            job = ChainJob.from_states(left, pairs, right_op, noise=noise)
            assert np.isclose(via_operator, DenseBackend().chain_probability(job), atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ProtocolError):
            chain_acceptance_operator(basis_state(4, 0), 4, 5, np.eye(4))


class TestChainAcceptanceSweep:
    """The matrix-free operator and its Lanczos optimum (Hypothesis differential
    tests against the dense operator live in ``tests/test_property_engine.py``)."""

    @staticmethod
    def _noisy_instance(m):
        rng = np.random.default_rng(m)
        left = haar_random_state(2, rng)
        right = 0.8 * _povm_for(haar_random_state(2, rng)) + 0.1 * np.eye(2)
        noise = ChainNoise(
            edge_channels=(dephasing_channel(0.2, 2),) * (m + 1),
            node_channels=(amplitude_damping_channel(0.3, 2),) * m,
            left_channel=dephasing_channel(0.1, 2),
            readout_error=0.05,
        )
        return left, right, noise

    @pytest.mark.parametrize("num_intermediate", [1, 3, 4])
    def test_yes_instance_optimum_is_one(self, num_intermediate):
        psi = haar_random_state(2, rng=num_intermediate)
        matvec = chain_acceptance_sweep(psi, 2, num_intermediate, _povm_for(psi))
        assert abs(lanczos_top_eigenvalue(matvec, 4**num_intermediate) - 1.0) <= 1e-12

    @pytest.mark.parametrize("num_intermediate", [2, 4])
    def test_degenerate_yes_instance_optimum_is_one(self, num_intermediate):
        # Node 1 resets both its registers to |0>, so every state of them is
        # accepted alike: the eigenvalue 1 is four-fold degenerate.
        zero = basis_state(2, 0)
        noise = ChainNoise(
            edge_channels=(None,) * (num_intermediate + 1),
            node_channels=(amplitude_damping_channel(1.0, 2),) + (None,) * (num_intermediate - 1),
        )
        dense = chain_acceptance_operator(zero, 2, num_intermediate, _povm_for(zero), noise=noise)
        np.testing.assert_allclose(np.linalg.eigvalsh(dense)[-4:], 1.0, atol=1e-12)
        matvec = chain_acceptance_sweep(zero, 2, num_intermediate, _povm_for(zero), noise=noise)
        assert abs(lanczos_top_eigenvalue(matvec, 4**num_intermediate) - 1.0) <= 1e-12

    def test_repeated_calls_return_identical_floats(self):
        left, right, noise = self._noisy_instance(4)
        matvec = chain_acceptance_sweep(left, 2, 4, right, noise=noise)
        vector = np.random.default_rng(0).standard_normal(256) + 0j
        assert np.array_equal(matvec(vector), matvec(vector))
        first = optimal_sweep_acceptance(left, 2, 4, right, noise=noise)
        assert optimal_sweep_acceptance(left, 2, 4, right, noise=noise) == first
        assert lanczos_top_eigenvalue(matvec, 256) == lanczos_top_eigenvalue(matvec, 256)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_zero_intermediate_nodes_is_a_scalar(self, noisy):
        left, right, noise = self._noisy_instance(0)
        noise = noise if noisy else None
        dense = chain_acceptance_operator(left, 2, 0, right, noise=noise)
        matvec = chain_acceptance_sweep(left, 2, 0, right, noise=noise)
        np.testing.assert_allclose(matvec(np.array([1.0 + 0.0j])), dense[0], atol=1e-15)
        assert optimal_sweep_acceptance(left, 2, 0, right, noise=noise) == pytest.approx(
            optimal_entangled_acceptance(dense), abs=1e-15
        )

    @pytest.mark.parametrize("build", [chain_acceptance_operator, chain_acceptance_sweep])
    def test_argument_checks_match_the_dense_builder(self, build):
        left, right, noise = self._noisy_instance(2)
        with pytest.raises(DimensionMismatchError):
            build(basis_state(3, 0), 2, 2, right)
        with pytest.raises(DimensionMismatchError):
            build(left, 2, 2, np.eye(3))
        with pytest.raises(ProtocolError):
            build(left, 2, -1, right)
        with pytest.raises(ProtocolError):
            build(left, 2, 3, right, noise=noise)  # annotation sized for m = 2
        with pytest.raises(DimensionMismatchError):
            build(
                left,
                2,
                2,
                right,
                noise=ChainNoise(
                    edge_channels=(dephasing_channel(0.1, 3),) * 3, node_channels=(None,) * 2
                ),
            )
        with pytest.raises(ProtocolError, match="fold the right end"):
            build(
                left,
                2,
                2,
                right,
                noise=ChainNoise(
                    edge_channels=(None,) * 3,
                    node_channels=(None,) * 2,
                    right_channel=dephasing_channel(0.1, 2),
                ),
            )

    def test_optimum_size_guard(self):
        num_intermediate = 10  # proof dimension 4^10 = 2^20
        assert 4**num_intermediate > SWEEP_MAX_DIM
        with pytest.raises(ProtocolError):
            optimal_sweep_acceptance(basis_state(2, 0), 2, num_intermediate, np.eye(2))

    def test_lanczos_rejects_an_empty_space(self):
        with pytest.raises(ProtocolError):
            lanczos_top_eigenvalue(lambda vector: vector, 0)
