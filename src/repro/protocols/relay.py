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

from copy import copy as shallow_copy
from itertools import product as iter_product
from math import ceil, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.problems import EqualityProblem
from repro.exceptions import ProtocolError
from repro.network.spanning_tree import build_verification_tree
from repro.network.topology import Network, NodeId, path_network
from repro.engine import RIGHT_SWAP, ChainJob, ChainProgram
from repro.protocols.base import DQMAProtocol, ProductProof, ProofRegister, annotated_program
from repro.quantum.channels import NoiseModel
from repro.protocols.equality import _ordered_path_nodes, path_chain_noise
from repro.quantum.fingerprint import ExactCodeFingerprint, FingerprintScheme
from repro.quantum.states import basis_state
from repro.utils.bitstrings import bits_to_int, int_to_bits
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_integer


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
        self._map_noise(noise)

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
        """A sibling protocol with ``noise`` on this relay path.

        The sibling shares this protocol's network, problem, fingerprints,
        engine, path nodes and relay anchors; only the segment annotations
        are re-derived.  Its honest programs attach them to the clean
        template every protocol on this layout shares in the engine cache.
        ``with_noise(None)`` is the ideal protocol.
        """
        sibling = shallow_copy(self)
        sibling._map_noise(noise)
        return sibling

    def _map_noise(self, noise: Optional[NoiseModel]) -> None:
        # The relay registers' computational-basis measurement stays noiseless
        # (its outcome distribution is classical); each segment's fingerprint
        # chain picks up the model along its stretch of the path, the right
        # anchor's preparation channel acting on the SWAP test's reference.
        self.noise = noise
        self._segment_noise = [
            path_chain_noise(
                noise, self.path_nodes[left : right + 1], self.fingerprints.dim, RIGHT_SWAP
            )
            for left, right in zip(self.anchor_indices, self.anchor_indices[1:])
        ]

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

    def _inputs_and_proof(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> Tuple[Tuple[str, ...], ProductProof]:
        """Validated ``inputs`` with the caller's validated proof, or the honest one."""
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            return inputs, self.honest_proof(inputs)
        self.validate_proof(proof)
        return inputs, proof

    def _relay_probabilities(self, proof: ProductProof) -> List[np.ndarray]:
        """Computational-basis outcome probabilities of every relay register."""
        return [
            np.abs(proof.state(self._relay_register_name(index))) ** 2
            for index in self.relay_indices
        ]

    def _chain_program(
        self,
        inputs: Sequence[str],
        proof: ProductProof,
        terms: Iterable[Tuple[float, Sequence[str]]],
    ) -> Tuple[ChainProgram, Tuple[int, ...]]:
        """The clean chain program of ``(weight, relay outcome strings)`` terms.

        A term conditions on one joint relay outcome: its job tuple multiplies
        the chains of every segment and repetition copy, anchored at the
        terminals' inputs and the outcome strings.  Jobs are deduplicated
        across terms sharing anchor strings, so the backend contracts each
        distinct chain once.  Returns the program with each job's segment
        index; :meth:`_annotated` attaches the segments' noise.
        """
        segments = list(zip(self.anchor_indices, self.anchor_indices[1:]))
        copies = range(self.segment_repetitions)
        segment_pairs = {
            (segment, copy): [
                (
                    proof.state(self._fingerprint_register_name(index, 0, copy)),
                    proof.state(self._fingerprint_register_name(index, 1, copy)),
                )
                for index in range(left + 1, right)
            ]
            for segment, (left, right) in enumerate(segments)
            for copy in copies
        }
        jobs: List[ChainJob] = []
        job_segments: List[int] = []
        job_index: Dict[Tuple[int, int, str, str], int] = {}
        program_terms = []
        for weight, outcomes in terms:
            anchors = [inputs[0], *outcomes, inputs[1]]
            indices = []
            for segment in range(len(segments)):
                left_string, right_string = anchors[segment], anchors[segment + 1]
                for copy in copies:
                    key = (segment, copy, left_string, right_string)
                    if key not in job_index:
                        job_index[key] = len(jobs)
                        jobs.append(
                            ChainJob.from_states(
                                self.fingerprints.state(left_string),
                                segment_pairs[(segment, copy)],
                                self.fingerprints.state(right_string),
                                right_kind=RIGHT_SWAP,
                            )
                        )
                        job_segments.append(segment)
                    indices.append(job_index[key])
            program_terms.append((weight, tuple(indices)))
        program = ChainProgram(jobs=tuple(jobs), terms=tuple(program_terms))
        return program, tuple(job_segments)

    def _annotated(self, program: ChainProgram, segments: Sequence[int]) -> ChainProgram:
        """``program`` with every job carrying its segment's noise annotation."""
        return annotated_program(program, [self._segment_noise[segment] for segment in segments])

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> ChainProgram:
        """Chain program enumerating the relay measurement outcomes.

        The relay registers are measured in the computational basis; for
        product proofs the joint outcome distribution is a product.  The
        program has one term per joint outcome of its support (the honest
        proof has a single outcome per relay), weighted by the running
        product of the relays' outcome probabilities.  Raises when the
        support is too large — use :meth:`estimate_acceptance_sampling` there.
        The honest program's clean template is cached on the engine under
        the layout by value, so every sibling on this layout shares it.
        """
        if proof is None:
            # Key on the raw input tuple: a hit implies an identical tuple was
            # validated when the program was first built.
            cache = self.engine.cache
            key = (
                "relay-honest-program",
                self.fingerprints.cache_token,
                self.path_length,
                self.relay_spacing,
                self.segment_repetitions,
                tuple(inputs),
            )
            template = cache.get(key)
            if template is None:
                template = cache.put(key, self._enumerated_program(inputs, None))
            return self._annotated(*template)
        return self._annotated(*self._enumerated_program(inputs, proof))

    def _enumerated_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> Tuple[ChainProgram, Tuple[int, ...]]:
        """The clean program over the relay outcome support of ``proof`` (honest for ``None``)."""
        inputs, proof = self._inputs_and_proof(inputs, proof)
        supports = [
            [
                (int_to_bits(value, self.problem.input_length), float(p))
                for value, p in enumerate(probabilities)
                if p > 1e-12
            ]
            for probabilities in self._relay_probabilities(proof)
        ]
        total_outcomes = prod(len(support) for support in supports)
        if total_outcomes > self.MAX_EXACT_RELAY_OUTCOMES:
            raise ProtocolError(
                f"relay outcome support of size {total_outcomes} is too large for exact "
                "enumeration; use estimate_acceptance_sampling"
            )
        terms = (
            (prod((p for _, p in joint), start=1.0), [value for value, _ in joint])
            for joint in iter_product(*supports)
        )
        return self._chain_program(inputs, proof, terms)

    def estimate_acceptance_sampling(
        self,
        inputs: Sequence[str],
        proof: Optional[ProductProof] = None,
        shots: int = 64,
        rng: RngLike = None,
    ) -> float:
        """Monte-Carlo estimate of the acceptance probability (samples relay outcomes).

        The route for relay registers whose joint outcome support is too large
        to enumerate.  Each shot draws one outcome per relay register; the
        sampled outcome tuples, each weighted ``1 / shots``, ride the chain
        program of :meth:`acceptance_probability` (noise model included) and
        evaluate as one engine batch.
        """
        shots = require_positive_integer(shots, "shots")
        inputs, proof = self._inputs_and_proof(inputs, proof)
        generator = ensure_rng(rng)
        distributions = [p / p.sum() for p in self._relay_probabilities(proof)]
        samples = [
            (
                1.0 / shots,
                [
                    int_to_bits(
                        int(generator.choice(len(p), p=p)), self.problem.input_length
                    )
                    for p in distributions
                ],
            )
            for _ in range(shots)
        ]
        program, segments = self._chain_program(inputs, proof, samples)
        return self.engine.evaluate_program(self._annotated(program, segments))

    # -- cost accounting ----------------------------------------------------------

    def total_proof_qubits_formula(self) -> float:
        """The paper's count of the total proof size (the displayed sum in Theorem 22)."""
        n = self.problem.input_length
        num_relays = len(self.relay_indices)
        fingerprint_block = 2 * self.segment_repetitions * self.fingerprints.num_qubits
        num_plain_nodes = self.path_length - 1 - num_relays
        return num_plain_nodes * fingerprint_block + num_relays * n
