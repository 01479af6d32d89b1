"""Tests for the Section 6.2 applications: ℓ1-graphs, vector distances, LTF-XOR, matrix rank."""

import networkx as nx
import numpy as np
import pytest

from repro.comm.l1_graphs import (
    GraphDistanceProblem,
    HypercubeEmbedding,
    hamming_graph_embedding,
    hypercube_embedding,
    path_graph_embedding,
)
from repro.exceptions import EncodingError, ProtocolError
from repro.protocols.applications import (
    l1_graph_distance_protocol,
    ltf_xor_protocol,
    matrix_rank_protocol,
    vector_l1_distance_protocol,
)


class TestEmbeddings:
    def test_hypercube_embedding_is_isometric(self):
        assert hypercube_embedding(3).verify()

    def test_hypercube_embedding_scale_one(self):
        embedding = hypercube_embedding(2)
        assert embedding.scale == 1
        assert embedding.code_length == 2

    def test_hamming_graph_embedding_is_two_scale(self):
        embedding = hamming_graph_embedding([3, 2])
        assert embedding.scale == 2
        assert embedding.verify()
        assert embedding.code_length == 5

    def test_path_graph_embedding_unary(self):
        embedding = path_graph_embedding(4)
        assert embedding.verify()
        assert embedding.encode(0) == "0000"
        assert embedding.encode(4) == "1111"

    def test_invalid_embedding_detected(self):
        graph = nx.path_graph(3)
        bad = HypercubeEmbedding(graph=graph, codes={0: "00", 1: "01", 2: "10"}, scale=1)
        # dist(0, 2) = 2 but Hamming("00", "10") = 1, so verification fails.
        assert not bad.verify()

    def test_disconnected_graph_fails_verification(self):
        # dist(0, 2) is infinite, so no scale embedding exists.
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        embedding = HypercubeEmbedding(graph=graph, codes={0: "00", 1: "01", 2: "11"}, scale=1)
        assert not embedding.verify()

    def test_hypercube_embedding_of_dimension_one(self):
        embedding = hypercube_embedding(1)
        assert embedding.encode((1,)) == "1"
        assert embedding.verify()

    def test_inconsistent_code_lengths_rejected(self):
        graph = nx.path_graph(2)
        with pytest.raises(EncodingError):
            HypercubeEmbedding(graph=graph, codes={0: "0", 1: "01"}, scale=1)

    def test_missing_node_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(EncodingError):
            HypercubeEmbedding(graph=graph, codes={0: "00", 1: "01"}, scale=1)

    def test_unknown_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            hamming_graph_embedding([1, 3])


class TestGraphDistanceProblem:
    def test_threshold_is_scaled(self):
        problem = GraphDistanceProblem(hamming_graph_embedding([2, 2]), 1, 2)
        assert problem.hamming_threshold == 2

    def test_evaluate_via_embedding(self):
        embedding = hypercube_embedding(3)
        problem = GraphDistanceProblem(embedding, 1, 3)
        close = problem.encode_vertices([(0, 0, 0), (0, 0, 1), (0, 0, 0)])
        far = problem.encode_vertices([(0, 0, 0), (1, 1, 1), (0, 0, 0)])
        assert problem.evaluate(close)
        assert not problem.evaluate(far)

    def test_encode_requires_correct_arity(self):
        problem = GraphDistanceProblem(hypercube_embedding(2), 1, 2)
        with pytest.raises(ProtocolError):
            problem.encode_vertices([(0, 0)])


class TestCorollary35Protocol:
    def test_completeness_and_soundness_on_hypercube(self):
        protocol, encode = l1_graph_distance_protocol(hypercube_embedding(3), 1, 3)
        close = encode([(0, 0, 0), (0, 0, 1), (0, 0, 0)])
        far = encode([(0, 0, 0), (1, 1, 1), (0, 0, 0)])
        assert protocol.acceptance_probability(close) > 0.99
        assert protocol.acceptance_probability(far) < 1.0 / 3.0

    def test_hamming_graph_instance(self):
        protocol, encode = l1_graph_distance_protocol(hamming_graph_embedding([2, 2]), 1, 2)
        adjacent = encode([(0, 0), (0, 1)])
        opposite = encode([(0, 0), (1, 1)])
        assert protocol.acceptance_probability(adjacent) > 0.99
        assert protocol.acceptance_probability(opposite) < 1.0 / 3.0


class TestCorollary37Protocol:
    def test_close_vectors_accepted(self):
        protocol, encode = vector_l1_distance_protocol(2, 4, 0.5, 3)
        inputs = encode([np.array([0.5, 0.5]), np.array([0.5, 0.75]), np.array([0.5, 0.5])])
        assert protocol.acceptance_probability(inputs) > 0.99

    def test_far_vectors_rejected(self):
        protocol, encode = vector_l1_distance_protocol(2, 4, 0.5, 3)
        inputs = encode([np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0])])
        assert protocol.acceptance_probability(inputs) < 1.0 / 3.0

    def test_encoder_validates_range(self):
        _, encode = vector_l1_distance_protocol(2, 4, 0.5, 2)
        with pytest.raises(EncodingError):
            encode([np.array([0.0, 1.5]), np.array([0.0, 0.0])])

    def test_encoder_validates_dimension(self):
        _, encode = vector_l1_distance_protocol(2, 4, 0.5, 2)
        with pytest.raises(EncodingError):
            encode([np.array([0.0]), np.array([0.0, 0.0])])


class TestCorollary39Protocol:
    def test_weighted_threshold_semantics(self):
        protocol, encode = ltf_xor_protocol([1, 2, 1], 2.5, 3)
        yes_inputs = encode(["101", "100", "101"])  # weighted XOR distance 1
        no_inputs = encode(["101", "010", "101"])  # weighted XOR distance 4
        assert protocol.acceptance_probability(yes_inputs) > 0.99
        assert protocol.acceptance_probability(no_inputs) < 1.0 / 3.0

    def test_expansion_length(self):
        protocol, encode = ltf_xor_protocol([1, 2, 1], 2.5, 2)
        assert len(encode(["101", "101"])[0]) == 4

    def test_non_integer_weights_rejected(self):
        with pytest.raises(ProtocolError):
            ltf_xor_protocol([1.5, 1.0], 1.0, 2)

    def test_encoder_length_checked(self):
        _, encode = ltf_xor_protocol([1, 1], 1.0, 2)
        with pytest.raises(EncodingError):
            encode(["1", "10"])


class TestCorollary41Protocol:
    def test_rank_condition_verified(self):
        protocol = matrix_rank_protocol(2, 2, 3)
        yes_inputs = ("1001", "1001", "1001")  # all sums are zero matrices (rank 0)
        no_inputs = ("1001", "0000", "1001")  # 1001 + 0000 = identity, rank 2
        assert protocol.acceptance_probability(yes_inputs) > 0.99
        assert protocol.acceptance_probability(no_inputs) < 1.0 / 3.0

    def test_rank_one_sums_accepted(self):
        protocol = matrix_rank_protocol(2, 2, 2)
        # X + Y = [[1,1],[1,1]] has rank 1 < 2.
        inputs = ("1001", "0110")
        assert protocol.acceptance_probability(inputs) > 0.99
