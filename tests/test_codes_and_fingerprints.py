"""Tests for the classical codes and the quantum fingerprint schemes."""

import pickle

import numpy as np
import pytest

from repro.codes.linear_code import hadamard_code, random_linear_code, repetition_code
from repro.exceptions import EncodingError
from repro.quantum.fingerprint import (
    ExactCodeFingerprint,
    HadamardCodeFingerprint,
    SimulatedFingerprint,
    fingerprint_register_qubits,
)
from repro.utils.bitstrings import all_bitstrings


class TestLinearCodes:
    def test_encode_linearity(self):
        code = random_linear_code(3, 12, rng=0)
        a, b = "101", "011"
        xor = "110"
        encoded_xor = code.encode(xor)
        manual = "".join(
            "1" if x != y else "0" for x, y in zip(code.encode(a), code.encode(b))
        )
        assert encoded_xor == manual

    def test_zero_encodes_to_zero(self):
        code = random_linear_code(3, 12, rng=1)
        assert set(code.encode("000")) == {"0"}

    def test_minimum_distance_repetition_code(self):
        code = repetition_code(2, 3)
        assert code.minimum_distance() == 3

    def test_minimum_distance_hadamard_code(self):
        code = hadamard_code(3)
        assert code.minimum_distance() == 4  # half of 2^3 codeword positions
        assert np.isclose(code.relative_distance(), 0.5)

    def test_random_code_meets_requested_distance(self):
        code = random_linear_code(4, 20, min_relative_distance=0.25, rng=2)
        assert code.relative_distance() >= 0.25

    def test_random_code_impossible_distance_rejected(self):
        with pytest.raises(EncodingError):
            random_linear_code(4, 5, min_relative_distance=0.9, rng=3, max_attempts=20)

    def test_rate(self):
        code = repetition_code(2, 4)
        assert np.isclose(code.rate, 0.25)

    def test_codeword_shorter_than_message_rejected(self):
        with pytest.raises(EncodingError):
            random_linear_code(4, 3, rng=0)

    def test_equal_codes_compare_and_hash_alike(self):
        first, second = hadamard_code(2), hadamard_code(2)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first == pickle.loads(pickle.dumps(first))
        assert ExactCodeFingerprint(2, rng=7).code == ExactCodeFingerprint(2, rng=7).code

    def test_codes_with_different_generators_differ(self):
        assert hadamard_code(2) != hadamard_code(3)
        assert repetition_code(2, 3) != repetition_code(3, 2)
        assert random_linear_code(3, 12, rng=0) != random_linear_code(3, 12, rng=1)
        assert hadamard_code(2) != "hadamard"
        assert len({hadamard_code(2), hadamard_code(3), repetition_code(2, 3)}) == 3

    def test_fingerprint_overlap_bound(self):
        code = hadamard_code(2)
        assert np.isclose(code.fingerprint_overlap_bound(), 0.5)


class TestExactCodeFingerprint:
    def test_states_are_normalized(self, fingerprints3):
        for x in all_bitstrings(3):
            assert np.isclose(np.linalg.norm(fingerprints3.state(x)), 1.0)

    def test_identical_inputs_have_overlap_one(self, fingerprints3):
        assert np.isclose(fingerprints3.overlap("101", "101"), 1.0)

    def test_distinct_inputs_respect_overlap_bound(self, fingerprints3):
        bound = fingerprints3.overlap_bound()
        strings = list(all_bitstrings(3))
        for i, x in enumerate(strings):
            for y in strings[i + 1 :]:
                assert fingerprints3.overlap(x, y) <= bound + 1e-9

    def test_overlap_formula_matches_code_distance(self, fingerprints3):
        # |<h_x|h_y>| = 1 - d(E(x), E(y)) / M for the BCWdW construction.
        code = fingerprints3.code
        x, y = "101", "010"
        distance = sum(1 for a, b in zip(code.encode(x), code.encode(y)) if a != b)
        expected = 1.0 - distance / code.codeword_length
        assert np.isclose(fingerprints3.overlap(x, y), expected, atol=1e-9)

    def test_states_are_cached_and_copied(self, fingerprints3):
        first = fingerprints3.state("110")
        first[0] = 99.0  # mutate the returned copy
        second = fingerprints3.state("110")
        assert not np.isclose(second[0], 99.0)

    def test_equality_povm_accepts_matching_input(self, fingerprints3):
        povm = fingerprints3.equality_test_povm("011")
        povm.validate()
        assert np.isclose(povm.accept_probability(fingerprints3.state("011")), 1.0)

    def test_accept_probability_soundness(self, fingerprints3):
        bound = fingerprints3.overlap_bound() ** 2
        assert fingerprints3.accept_probability("011", "100") <= bound + 1e-9

    def test_wrong_length_rejected(self, fingerprints3):
        with pytest.raises(EncodingError):
            fingerprints3.state("01")

    def test_generator_is_read_only(self, fingerprints3):
        for code in (fingerprints3.code, pickle.loads(pickle.dumps(fingerprints3.code))):
            generator = code.generator
            with pytest.raises(ValueError):
                generator[0, 0] = 1 - generator[0, 0]

    def test_cache_token_hashes_the_generator_once(self, monkeypatch):
        from repro.quantum import fingerprint as fingerprint_module

        calls = []
        sha256 = fingerprint_module.hashlib.sha256

        def counting_sha256(data):
            calls.append(len(data))
            return sha256(data)

        monkeypatch.setattr(fingerprint_module.hashlib, "sha256", counting_sha256)
        scheme = ExactCodeFingerprint(2, rng=7)
        tokens = {scheme.cache_token for _ in range(5)}
        assert len(calls) == 1
        # The token's value is the one earlier releases keyed operator packs on.
        assert tokens == {("fp", "ExactCodeFingerprint", 2, 8, "3613d8b3e538e629")}
        assert HadamardCodeFingerprint(3).cache_token == (
            "fp", "HadamardCodeFingerprint", 3, 8, "0fd1f33b88cd6389"
        )


class TestHadamardFingerprint:
    def test_overlap_exactly_half(self, hadamard_fingerprints2):
        strings = list(all_bitstrings(2))
        for i, x in enumerate(strings):
            for y in strings[i + 1 :]:
                assert np.isclose(hadamard_fingerprints2.overlap(x, y), 0.5, atol=1e-9)

    def test_dimension(self, hadamard_fingerprints2):
        # 2^2 codeword positions, one data qubit -> dimension 8.
        assert hadamard_fingerprints2.dim == 8


class TestSimulatedFingerprint:
    def test_deterministic_across_instances(self):
        a = SimulatedFingerprint(8, num_qubits=4, seed=3)
        b = SimulatedFingerprint(8, num_qubits=4, seed=3)
        np.testing.assert_allclose(a.state("10110001"), b.state("10110001"))

    def test_different_seeds_give_different_states(self):
        a = SimulatedFingerprint(8, num_qubits=4, seed=3)
        b = SimulatedFingerprint(8, num_qubits=4, seed=4)
        assert a.overlap("10110001", "10110001") > 0.99
        assert abs(np.vdot(a.state("10110001"), b.state("10110001"))) < 0.99

    def test_overlaps_are_small(self):
        scheme = SimulatedFingerprint(16, num_qubits=6, seed=1)
        rng = np.random.default_rng(0)
        strings = ["".join(rng.choice(["0", "1"], size=16)) for _ in range(12)]
        assert scheme.max_overlap(strings) < 0.75

    def test_dim(self):
        assert SimulatedFingerprint(8, num_qubits=5).dim == 32


class TestCostModel:
    def test_fingerprint_register_qubits_scales_logarithmically(self):
        assert fingerprint_register_qubits(2**10) < fingerprint_register_qubits(2**20)
        assert fingerprint_register_qubits(2**20) <= 2 * fingerprint_register_qubits(2**10)

    def test_fingerprint_register_qubits_positive(self):
        assert fingerprint_register_qubits(2) >= 1

    def test_invalid_input_length(self):
        with pytest.raises(EncodingError):
            fingerprint_register_qubits(0)
