"""ℓ1-graphs and scale embeddings into hypercubes (Section 6.2, Corollary 35).

A graph ``H`` is an ℓ1-graph when its path metric embeds isometrically into
ℓ1; by Lemma 33 (Bandelt–Chepoi) this is equivalent to admitting a *k-scale
embedding* into a hypercube: a map ``f`` from nodes to bit strings with
``Hamming(f(a), f(b)) = k · dist_H(a, b)``.  The distributed verification
problem ``dist^{<=d}_{t,H}`` then reduces to a Hamming-distance problem on the
embedded strings with threshold ``k · d``, which is how Corollary 35 applies
Theorem 32.

This module provides explicit scale embeddings for the ℓ1-graph families the
paper names (hypercubes, Hamming graphs, paths/trees as degenerate cases), a
verifier for the scale-embedding property on small graphs, and the
``GraphDistanceProblem`` evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Sequence, Tuple

from repro.comm.problems import Problem
from repro.exceptions import EncodingError, ProtocolError
from repro.network.graph import Graph, hypercube_graph, path_graph
from repro.utils.bitstrings import hamming_distance, validate_bitstring


@dataclass(frozen=True)
class HypercubeEmbedding:
    """A scale embedding of a graph into a hypercube.

    ``codes[node]`` is the bit string assigned to each node; ``scale`` is the
    factor ``k`` such that Hamming distance equals ``k`` times graph distance.
    ``graph`` is a :class:`~repro.network.graph.Graph` or any graph read
    through ``nodes()`` and ``neighbors()``, such as a networkx graph.
    """

    graph: Any
    codes: Dict[Hashable, str]
    scale: int

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise EncodingError("embedding scale must be at least 1")
        lengths = {len(code) for code in self.codes.values()}
        if len(lengths) != 1:
            raise EncodingError("all embedded codes must have the same length")
        for code in self.codes.values():
            validate_bitstring(code)
        missing = set(self.graph.nodes()) - set(self.codes)
        if missing:
            raise EncodingError(f"embedding is missing nodes: {sorted(map(str, missing))}")

    @property
    def code_length(self) -> int:
        """Length of the embedded bit strings."""
        return len(next(iter(self.codes.values())))

    def encode(self, node: Hashable) -> str:
        """The bit string assigned to a node."""
        if node not in self.codes:
            raise EncodingError(f"node {node!r} is not part of the embedding")
        return self.codes[node]

    def verify(self) -> bool:
        """Exhaustively check the scale-embedding property (small graphs only).

        A disconnected graph has no scale embedding (some distance is
        infinite), so it fails the check.
        """
        nodes = list(self.graph.nodes())
        if len(nodes) > 64:
            raise EncodingError("exhaustive verification is limited to 64-node graphs")
        graph = Graph.from_graph(self.graph)
        distances = {node: graph.distances(node) for node in nodes}
        for a in nodes:
            for b in nodes:
                if b not in distances[a]:
                    return False
                expected = self.scale * distances[a][b]
                if hamming_distance(self.codes[a], self.codes[b]) != expected:
                    return False
        return True


def hypercube_embedding(dimension: int) -> HypercubeEmbedding:
    """The identity embedding of the ``dimension``-dimensional hypercube (scale 1)."""
    if dimension < 1:
        raise EncodingError("hypercube dimension must be at least 1")
    graph = hypercube_graph(dimension)
    codes = {
        node: "".join(str(bit) for bit in node)
        for node in graph.nodes()
    }
    return HypercubeEmbedding(graph=graph, codes=codes, scale=1)


def hamming_graph_embedding(alphabet_sizes: Sequence[int]) -> HypercubeEmbedding:
    """A 2-scale embedding of the Hamming graph ``H(q_1, ..., q_m)``.

    Vertices are tuples ``(a_1, ..., a_m)`` with ``a_i`` in ``[0, q_i)``; two
    vertices are adjacent iff they differ in exactly one coordinate.  Encoding
    each coordinate in one-hot (unary indicator of length ``q_i``) turns every
    coordinate difference into Hamming distance 2, so the embedding has scale 2
    — the standard construction behind Lemma 33 for Hamming graphs.
    """
    sizes = [int(q) for q in alphabet_sizes]
    if not sizes or any(q < 2 for q in sizes):
        raise EncodingError("each alphabet size must be at least 2")
    from itertools import product as iter_product

    vertices = list(iter_product(*[range(q) for q in sizes]))
    graph = Graph(vertices)
    for a in vertices:
        for b in vertices:
            if a < b and sum(1 for x, y in zip(a, b) if x != y) == 1:
                graph.add_edge(a, b)

    def one_hot(value: int, size: int) -> str:
        return "".join("1" if index == value else "0" for index in range(size))

    codes = {
        vertex: "".join(one_hot(value, size) for value, size in zip(vertex, sizes))
        for vertex in vertices
    }
    return HypercubeEmbedding(graph=graph, codes=codes, scale=2)


def path_graph_embedding(length: int) -> HypercubeEmbedding:
    """A 1-scale (unary) embedding of the path graph on ``length + 1`` nodes."""
    if length < 1:
        raise EncodingError("path length must be at least 1")
    graph = path_graph(length + 1)
    codes = {node: "1" * node + "0" * (length - node) for node in graph.nodes()}
    return HypercubeEmbedding(graph=graph, codes=codes, scale=1)


class GraphDistanceProblem(Problem):
    """``dist^{<=d}_{t,H}`` (Definition 12): all pairwise graph distances are at most ``d``.

    Inputs are the *embedded* bit strings of the chosen vertices, so the
    problem is exactly a Hamming-distance problem with threshold
    ``scale * d`` — which is how the dQMA protocol of Corollary 35 treats it.
    """

    def __init__(self, embedding: HypercubeEmbedding, distance_bound: int, num_inputs: int):
        if distance_bound < 0:
            raise ProtocolError("distance bound must be non-negative")
        super().__init__(embedding.code_length, num_inputs)
        self.embedding = embedding
        self.distance_bound = int(distance_bound)

    @property
    def name(self) -> str:
        return f"GraphDistance[d<={self.distance_bound}, scale={self.embedding.scale}]"

    @property
    def hamming_threshold(self) -> int:
        """The Hamming-distance threshold on embedded strings: ``scale * d``."""
        return self.embedding.scale * self.distance_bound

    def encode_vertices(self, vertices: Sequence[Hashable]) -> Tuple[str, ...]:
        """Encode a tuple of graph vertices into protocol inputs."""
        if len(vertices) != self.num_inputs:
            raise ProtocolError(
                f"expected {self.num_inputs} vertices, got {len(vertices)}"
            )
        return tuple(self.embedding.encode(vertex) for vertex in vertices)

    def evaluate(self, inputs: Sequence[str]) -> bool:
        inputs = self.validate_inputs(inputs)
        threshold = self.hamming_threshold
        for i in range(len(inputs)):
            for j in range(i + 1, len(inputs)):
                if hamming_distance(inputs[i], inputs[j]) > threshold:
                    return False
        return True
