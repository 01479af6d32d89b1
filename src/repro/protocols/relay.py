"""The relay-point protocol for ``EQ`` on long paths (Section 4.1, Algorithm 6).

When the path length ``r`` is comparable to (or larger than) the input length
``n``, the ``O(r^2 log n)`` protocol of Algorithm 3 is beaten by the trivial
classical protocol.  Theorem 22 restores the quantum advantage by inserting
*relay points* every ``ceil(n^(1/3))`` nodes: relay points receive the full
``n``-qubit claimed input, measure it, and the segments between consecutive
relay points (and the extremities) run the fingerprint SWAP-test chain with
enough parallel repetitions to make each segment sound.  The total proof size
becomes ``~O(r n^(2/3))`` qubits versus the classical ``Omega(r n)`` bits.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.problems import EqualityProblem
from repro.exceptions import ProtocolError
from repro.network.spanning_tree import build_verification_tree
from repro.network.topology import Network, NodeId, path_network
from repro.engine import RIGHT_SWAP, ChainJob, ChainNoise, ChainProgram
from repro.protocols.base import DQMAProtocol, ProductProof, ProofRegister
from repro.quantum.channels import NoiseModel
from repro.protocols.chain import chain_acceptance_probability, right_end_swap_operator
from repro.protocols.equality import _ordered_path_nodes
from repro.quantum.fingerprint import ExactCodeFingerprint, FingerprintScheme
from repro.quantum.states import basis_state
from repro.utils.bitstrings import bits_to_int, int_to_bits
from repro.utils.rng import RngLike, ensure_rng


class RelayEqualityProtocol(DQMAProtocol):
    """Algorithm 6: ``EQ`` on a path with relay points every ``ceil(n^(1/3))`` nodes."""

    MAX_EXACT_RELAY_OUTCOMES = 4096

    def __init__(
        self,
        network: Network,
        fingerprints: FingerprintScheme,
        relay_spacing: Optional[int] = None,
        segment_repetitions: Optional[int] = None,
        problem: Optional[EqualityProblem] = None,
        path_nodes: Optional[List[NodeId]] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if problem is None:
            problem = EqualityProblem(fingerprints.input_length, num_inputs=2)
        if problem.input_length != fingerprints.input_length:
            raise ProtocolError("fingerprint scheme and problem disagree on the input length")
        super().__init__(problem, network)
        self.fingerprints = fingerprints
        if path_nodes is None:
            path_nodes = _ordered_path_nodes(network)
        else:
            path_nodes = list(path_nodes)
            if len(path_nodes) < 2:
                raise ProtocolError("a relay path needs at least two nodes")
            if len(set(path_nodes)) != len(path_nodes):
                raise ProtocolError("the relay path must not revisit a node")
            terminals = set(network.terminals)
            if {path_nodes[0], path_nodes[-1]} != terminals:
                raise ProtocolError("the relay path must join the two terminals")
            for left, right in zip(path_nodes, path_nodes[1:]):
                if not network.topology.has_edge(left, right):
                    raise ProtocolError(
                        f"relay path step ({left!r}, {right!r}) is not a network edge"
                    )
        self.path_nodes = path_nodes
        self.path_length = len(self.path_nodes) - 1
        n = problem.input_length
        if relay_spacing is None:
            relay_spacing = max(int(ceil(n ** (1.0 / 3.0))), 1)
        if relay_spacing < 1:
            raise ProtocolError("relay spacing must be at least one edge")
        self.relay_spacing = int(relay_spacing)
        if segment_repetitions is None:
            segment_repetitions = self.paper_segment_repetitions()
        if segment_repetitions < 1:
            raise ProtocolError("segment repetition count must be positive")
        self.segment_repetitions = int(segment_repetitions)
        self.relay_indices = self._relay_indices()
        self.anchor_indices = [0] + self.relay_indices + [self.path_length]
        self.noise = noise
        self._segment_noise = self._build_segment_noise()

    @classmethod
    def on_path(
        cls,
        input_length: int,
        path_length: int,
        relay_spacing: Optional[int] = None,
        segment_repetitions: Optional[int] = None,
        fingerprints: Optional[FingerprintScheme] = None,
        noise: Optional[NoiseModel] = None,
    ) -> "RelayEqualityProtocol":
        """Convenience constructor on the standard path ``v0 .. v_r``."""
        if fingerprints is None:
            fingerprints = ExactCodeFingerprint(input_length)
        return cls(
            path_network(path_length),
            fingerprints,
            relay_spacing=relay_spacing,
            segment_repetitions=segment_repetitions,
            noise=noise,
        )

    def with_noise(self, noise: Optional[NoiseModel]) -> "RelayEqualityProtocol":
        """A sibling protocol with ``noise`` on this relay path (engine shared)."""
        sibling = type(self)(
            self.network,
            self.fingerprints,
            relay_spacing=self.relay_spacing,
            segment_repetitions=self.segment_repetitions,
            problem=self.problem,
            path_nodes=list(self.path_nodes),
            noise=noise,
        )
        sibling._engine = self._engine
        return sibling

    def _build_segment_noise(self) -> List[Optional[ChainNoise]]:
        """The noise model mapped onto each segment's chain (fingerprint legs only).

        The relay registers' computational-basis measurement stays noiseless
        (its outcome distribution is classical); the fingerprint chains
        between consecutive anchors pick up the model's link channels, the
        interior nodes' delivery channels, both anchors' preparation
        channels (the right anchor's applies to the SWAP test's reference
        state) and the readout error of each SWAP test.
        """
        num_segments = len(self.anchor_indices) - 1
        if self.noise is None or self.noise.is_trivial:
            return [None] * num_segments
        annotations: List[Optional[ChainNoise]] = []
        for segment in range(num_segments):
            left_anchor = self.anchor_indices[segment]
            right_anchor = self.anchor_indices[segment + 1]
            edges = tuple(
                self.noise.link_channel(self.path_nodes[i], self.path_nodes[i + 1])
                for i in range(left_anchor, right_anchor)
            )
            nodes = tuple(
                self.noise.node_channel(self.path_nodes[i])
                for i in range(left_anchor + 1, right_anchor)
            )
            annotation = ChainNoise(
                edge_channels=edges,
                node_channels=nodes,
                left_channel=self.noise.node_channel(self.path_nodes[left_anchor]),
                right_channel=self.noise.node_channel(self.path_nodes[right_anchor]),
                readout_error=self.noise.readout_error,
            )
            annotation.validate(
                right_anchor - left_anchor - 1, self.fingerprints.dim, RIGHT_SWAP
            )
            annotations.append(annotation)
        return annotations

    @classmethod
    def on_tree(
        cls,
        network: Network,
        fingerprints: FingerprintScheme,
        relay_spacing: Optional[int] = None,
        segment_repetitions: Optional[int] = None,
        root: Optional[NodeId] = None,
        noise: Optional[NoiseModel] = None,
    ) -> "RelayEqualityProtocol":
        """The relay protocol along a spanning-tree path of a general network.

        For a two-terminal network that is not itself a path (a star, a
        binary tree, a random spanning tree, ...), the protocol runs on the
        verification-tree path joining the terminals — the Section 3.3 tree
        construction with shadow leaves folded back onto physical nodes —
        and compiles to the same chain programs as the path variant.
        """
        if len(network.terminals) != 2:
            raise ProtocolError("the relay protocol joins exactly two terminals")
        first, second = network.terminals
        start = root if root is not None else first
        if start not in (first, second):
            raise ProtocolError("on_tree roots the relay path at a terminal")
        tree = build_verification_tree(network, root=start)
        other = second if start == first else first
        path_nodes = tree.terminal_path(other)
        return cls(
            network,
            fingerprints,
            relay_spacing=relay_spacing,
            segment_repetitions=segment_repetitions,
            path_nodes=path_nodes,
            noise=noise,
        )

    # -- layout --------------------------------------------------------------

    def _relay_indices(self) -> List[int]:
        indices = []
        position = self.relay_spacing
        while position < self.path_length:
            indices.append(position)
            position += self.relay_spacing
        return indices

    def paper_segment_repetitions(self) -> int:
        """The paper's per-node fingerprint count ``42 ceil(n^(1/3))^2``."""
        n = self.problem.input_length
        return int(42 * ceil(n ** (1.0 / 3.0)) ** 2)

    def _relay_register_name(self, index: int) -> str:
        return f"Z[{index}]"

    def _fingerprint_register_name(self, index: int, slot: int, copy: int) -> str:
        return f"R[{index},{slot},{copy}]"

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        relay_dim = 1 << self.problem.input_length
        relay_set = set(self.relay_indices)
        for index in self.relay_indices:
            registers.append(
                ProofRegister(self._relay_register_name(index), self.path_nodes[index], relay_dim)
            )
        for index in range(1, self.path_length):
            if index in relay_set:
                continue
            node = self.path_nodes[index]
            for copy in range(self.segment_repetitions):
                for slot in (0, 1):
                    registers.append(
                        ProofRegister(
                            self._fingerprint_register_name(index, slot, copy),
                            node,
                            self.fingerprints.dim,
                        )
                    )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages = {}
        per_edge = self.segment_repetitions * self.fingerprints.num_qubits
        for index in range(self.path_length):
            edge = (self.path_nodes[index], self.path_nodes[index + 1])
            messages[edge] = per_edge
        return messages

    # -- proofs ---------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        x = inputs[0]
        relay_dim = 1 << self.problem.input_length
        fingerprint = self.fingerprints.state(x)
        states: Dict[str, np.ndarray] = {}
        relay_set = set(self.relay_indices)
        for index in self.relay_indices:
            states[self._relay_register_name(index)] = basis_state(relay_dim, bits_to_int(x))
        for index in range(1, self.path_length):
            if index in relay_set:
                continue
            for copy in range(self.segment_repetitions):
                states[self._fingerprint_register_name(index, 0, copy)] = fingerprint
                states[self._fingerprint_register_name(index, 1, copy)] = fingerprint
        return ProductProof(states)

    # -- acceptance ------------------------------------------------------------

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> ChainProgram:
        """Chain program enumerating the relay measurement outcomes.

        The relay registers are measured in the computational basis; for
        product proofs the joint outcome distribution is a product.  The
        program enumerates the support of that distribution (the honest proof
        has a single outcome per relay) — one term per joint outcome, whose
        job tuple multiplies the chains of every segment and repetition copy.
        Jobs are deduplicated across outcomes sharing anchor strings, so the
        backend contracts each distinct chain once.  Raises when the support
        is too large — use :meth:`estimate_acceptance_sampling` there.
        """
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        else:
            self.validate_proof(proof)

        supports: List[List[Tuple[str, float]]] = []
        total_outcomes = 1
        for index in self.relay_indices:
            amplitudes = proof.state(self._relay_register_name(index))
            probabilities = np.abs(amplitudes) ** 2
            support = [
                (int_to_bits(value, self.problem.input_length), float(p))
                for value, p in enumerate(probabilities)
                if p > 1e-12
            ]
            supports.append(support)
            total_outcomes *= len(support)
        if total_outcomes > self.MAX_EXACT_RELAY_OUTCOMES:
            raise ProtocolError(
                f"relay outcome support of size {total_outcomes} is too large for exact "
                "enumeration; use estimate_acceptance_sampling"
            )

        num_segments = len(self.anchor_indices) - 1
        segment_pairs: Dict[Tuple[int, int], List[Tuple[np.ndarray, np.ndarray]]] = {}
        for segment in range(num_segments):
            left_anchor = self.anchor_indices[segment]
            right_anchor = self.anchor_indices[segment + 1]
            for copy in range(self.segment_repetitions):
                segment_pairs[(segment, copy)] = [
                    (
                        proof.state(self._fingerprint_register_name(index, 0, copy)),
                        proof.state(self._fingerprint_register_name(index, 1, copy)),
                    )
                    for index in range(left_anchor + 1, right_anchor)
                ]

        jobs: List[ChainJob] = []
        job_index: Dict[Tuple[int, int, str, str], int] = {}

        def job_for(segment: int, copy: int, left_string: str, right_string: str) -> int:
            key = (segment, copy, left_string, right_string)
            if key not in job_index:
                job_index[key] = len(jobs)
                jobs.append(
                    ChainJob.from_states(
                        self.fingerprints.state(left_string),
                        segment_pairs[(segment, copy)],
                        self.fingerprints.state(right_string),
                        right_kind=RIGHT_SWAP,
                        noise=self._segment_noise[segment],
                    )
                )
            return job_index[key]

        terms: List[Tuple[float, Tuple[int, ...]]] = []

        def recurse(position: int, joint: float, outcomes: List[str]) -> None:
            if position == len(supports):
                anchor_strings = [inputs[0]] + outcomes + [inputs[1]]
                indices = tuple(
                    job_for(segment, copy, anchor_strings[segment], anchor_strings[segment + 1])
                    for segment in range(num_segments)
                    for copy in range(self.segment_repetitions)
                )
                terms.append((joint, indices))
                return
            for value, probability in supports[position]:
                recurse(position + 1, joint * probability, outcomes + [value])

        recurse(0, 1.0, [])
        return ChainProgram(jobs=tuple(jobs), terms=tuple(terms))

    def estimate_acceptance_sampling(
        self,
        inputs: Sequence[str],
        proof: Optional[ProductProof] = None,
        shots: int = 64,
        rng: RngLike = None,
    ) -> float:
        """Monte-Carlo estimate of the acceptance probability (samples relay outcomes).

        The sampling path evaluates the *noiseless* segment chains: it is the
        large-support escape hatch for entangled relay registers, kept as the
        ideal-protocol reference (``acceptance_probability`` honours the
        noise model through the compiled program).
        """
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        generator = ensure_rng(rng)
        total = 0.0
        for _ in range(shots):
            outcomes = []
            for index in self.relay_indices:
                amplitudes = proof.state(self._relay_register_name(index))
                probabilities = np.abs(amplitudes) ** 2
                probabilities = probabilities / probabilities.sum()
                value = int(generator.choice(len(probabilities), p=probabilities))
                outcomes.append(int_to_bits(value, self.problem.input_length))
            total += self._segments_acceptance(inputs, proof, outcomes)
        return total / shots

    def _segments_acceptance(
        self, inputs: Sequence[str], proof: ProductProof, relay_outcomes: List[str]
    ) -> float:
        """Joint acceptance of all segments, conditioned on the relay measurement results."""
        anchor_strings = [inputs[0]] + list(relay_outcomes) + [inputs[1]]
        probability = 1.0
        for segment in range(len(self.anchor_indices) - 1):
            left_anchor = self.anchor_indices[segment]
            right_anchor = self.anchor_indices[segment + 1]
            left_string = anchor_strings[segment]
            right_string = anchor_strings[segment + 1]
            probability *= self._segment_acceptance(
                proof, left_anchor, right_anchor, left_string, right_string
            )
            if probability == 0.0:
                return 0.0
        return probability

    def _segment_acceptance(
        self,
        proof: ProductProof,
        left_anchor: int,
        right_anchor: int,
        left_string: str,
        right_string: str,
    ) -> float:
        left_state = self.fingerprints.state(left_string)
        right_operator = right_end_swap_operator(self.fingerprints.state(right_string))
        probability = 1.0
        for copy in range(self.segment_repetitions):
            pairs = []
            for index in range(left_anchor + 1, right_anchor):
                pairs.append(
                    (
                        proof.state(self._fingerprint_register_name(index, 0, copy)),
                        proof.state(self._fingerprint_register_name(index, 1, copy)),
                    )
                )
            probability *= chain_acceptance_probability(left_state, pairs, right_operator)
            if probability == 0.0:
                return 0.0
        return probability

    # -- cost accounting ----------------------------------------------------------

    def total_proof_qubits_formula(self) -> float:
        """The paper's count of the total proof size (the displayed sum in Theorem 22)."""
        n = self.problem.input_length
        spacing = self.relay_spacing
        num_relays = len(self.relay_indices)
        fingerprint_block = 2 * self.segment_repetitions * self.fingerprints.num_qubits
        num_plain_nodes = self.path_length - 1 - num_relays
        return num_plain_nodes * fingerprint_block + num_relays * n
