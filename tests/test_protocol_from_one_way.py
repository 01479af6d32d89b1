"""Tests for the one-way-protocol-to-network construction (Algorithm 9, Theorems 30/32)."""

import gc
import weakref

import numpy as np
import pytest

from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem, ForAllPairsProblem
from repro.engine import Engine
from repro.exceptions import ProtocolError
from repro.network.topology import binary_tree_network, path_network, star_network
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.protocols.from_one_way import (
    OneWayToTreeProtocol,
    forall_pairs_protocol,
    hamming_distance_protocol,
)
from repro.protocols.base import DQMAProtocol, ProductProof


class TestHammingProtocol:
    @pytest.fixture(scope="class")
    def protocol(self):
        return hamming_distance_protocol(5, 1, 3)

    def test_completeness_all_equal(self, protocol):
        assert protocol.acceptance_probability(("10110", "10110", "10110")) > 0.99

    def test_completeness_within_distance(self, protocol):
        # Pairwise Hamming distances are (1, 0, 1) — a yes-instance of HAM<=1.
        assert protocol.acceptance_probability(("10110", "10111", "10110")) > 0.99

    def test_far_inputs_rejected(self, protocol):
        assert protocol.acceptance_probability(("10110", "01001", "10110")) < 1.0 / 3.0

    def test_single_outlier_rejected(self, protocol):
        assert protocol.acceptance_probability(("10110", "10110", "01001")) < 1.0 / 3.0

    def test_distance_two_rejected_for_bound_one(self, protocol):
        inputs = ("10110", "10101", "10110")  # distance 2 between the first two
        assert protocol.acceptance_probability(inputs) < 0.5

    def test_register_count(self, protocol):
        # Three trees; in each tree the centre node has 2 children -> 3 message
        # registers, each made of num_sketches factors.
        sketches = protocol.one_way.num_sketches
        assert len(protocol.proof_registers()) == 3 * 3 * sketches

    def test_cheating_with_wrong_root_message_detected(self, protocol):
        inputs = ("10110", "10110", "01001")
        honest = protocol.honest_proof(inputs)
        # Replace every proof register of tree 0 by the outlier's message: the
        # SWAP test against the root's genuine message now has to catch it.
        replacement = protocol.one_way.message_factors("01001")
        states = {name: honest.state(name) for name in honest.register_names}
        for register in protocol.proof_registers():
            if register.name.startswith("T[0]"):
                factor_index = int(register.name.rsplit(":", 1)[1])
                states[register.name] = replacement[factor_index]
        acceptance = protocol.acceptance_probability(inputs, ProductProof(states))
        assert acceptance < 0.9


class TestGenericForAllPairs:
    def test_equality_as_forall_pairs(self, fingerprints3):
        # ∀_t EQ is multi-party equality; built from the fingerprint one-way protocol.
        one_way = FingerprintEqualityOneWay(fingerprints3)
        protocol = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=3)
        assert np.isclose(protocol.acceptance_probability(("101", "101", "101")), 1.0, atol=1e-9)
        assert protocol.acceptance_probability(("101", "101", "011")) < 1.0

    def test_on_path_network_with_two_terminals(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        problem = ForAllPairsProblem(EqualityProblem(3), 2)
        protocol = OneWayToTreeProtocol(problem, path_network(3), one_way)
        assert np.isclose(protocol.acceptance_probability(("110", "110")), 1.0, atol=1e-9)
        assert protocol.acceptance_probability(("110", "011")) < 1.0

    def test_input_length_mismatch_rejected(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        problem = ForAllPairsProblem(EqualityProblem(4), 2)
        with pytest.raises(ProtocolError):
            OneWayToTreeProtocol(problem, path_network(3), one_way)

    def test_soundness_amplifies_with_repetition(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        protocol = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=3)
        single = protocol.acceptance_probability(("101", "101", "011"))
        repeated = protocol.repeated(25).acceptance_probability(("101", "101", "011"))
        assert np.isclose(repeated, single**25, atol=1e-9)


def _flatten(value):
    """Every leaf of a nested cache key."""
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


class TestHonestProgramKey:
    """Theorem 32's honest program is cached by value, never by protocol object."""

    INPUTS = ("01", "01", "11")

    @staticmethod
    def _protocol(network):
        one_way = FingerprintEqualityOneWay(ExactCodeFingerprint(2, rng=7))
        return forall_pairs_protocol(EqualityProblem(2), one_way, 3, network=network)

    @staticmethod
    def _program_keys(engine):
        return [key for key in engine.cache._entries if key[0] == "ow-tree-honest-program"]

    def test_equal_protocols_share_one_entry(self):
        engine = Engine()
        first = self._protocol(star_network(3)).use_engine(engine)
        value = first.acceptance_probability(self.INPUTS)
        misses = engine.cache.stats().misses
        second = self._protocol(star_network(3)).use_engine(engine)
        assert second.acceptance_probability(self.INPUTS) == value
        assert engine.cache.stats().misses == misses
        keys = self._program_keys(engine)
        assert len(keys) == 1
        assert not any(isinstance(leaf, DQMAProtocol) for leaf in _flatten(keys[0]))
        alive = weakref.ref(first)
        del first
        gc.collect()
        assert alive() is None, "the engine cache must not keep a protocol alive"

    def test_a_different_network_gets_its_own_entry(self):
        networks = (star_network(3), binary_tree_network(2, num_terminals=3))
        alone = [
            self._protocol(network).use_engine(Engine()).acceptance_probability(self.INPUTS)
            for network in networks
        ]
        shared = Engine()
        together = [
            self._protocol(network).use_engine(shared).acceptance_probability(self.INPUTS)
            for network in networks
        ]
        assert [value.hex() for value in together] == [value.hex() for value in alone]
        assert len(self._program_keys(shared)) == 2


class TestCosts:
    def test_local_proof_grows_with_fanout(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        small = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=2)
        large = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=4)
        assert large.local_proof_qubits() > small.local_proof_qubits()

    def test_messages_on_tree_edges(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        protocol = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=3)
        messages = protocol.message_qubits()
        assert all(qubits > 0 for qubits in messages.values())

    def test_paper_repetitions_positive(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        protocol = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=3)
        assert protocol.paper_repetitions() == 42 * protocol.network.radius**2


class TestPermutationEnumeration:
    def test_large_fanout_guarded(self, fingerprints3):
        one_way = FingerprintEqualityOneWay(fingerprints3)
        protocol = forall_pairs_protocol(EqualityProblem(3), one_way, num_terminals=8)
        with pytest.raises(ProtocolError):
            protocol.acceptance_probability(tuple(["101"] * 8))
