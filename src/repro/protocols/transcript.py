"""Per-node Monte-Carlo transcripts of the path protocols.

The acceptance-probability API answers "with what probability do all nodes
accept"; operators of a real deployment also want to see *which* node raised
the alarm.  This module simulates single runs of the symmetrized SWAP-test
chain (Algorithm 3 and its relatives) node by node: symmetrization coins are
flipped, every SWAP test is sampled with its exact conditional probability,
and the right end samples its measurement, producing a transcript of per-node
verdicts whose aggregate statistics match the exact acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import NodeId
from repro.protocols.base import ProductProof
from repro.protocols.equality import EqualityPathProtocol
from repro.quantum.swap_test import swap_test_accept_probability_pure
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_integer


@dataclass(frozen=True)
class NodeVerdict:
    """Outcome of one node's local test during a single run."""

    node: NodeId
    test: str
    accepted: bool
    acceptance_probability: float


@dataclass(frozen=True)
class RunTranscript:
    """Full transcript of one protocol run."""

    verdicts: Tuple[NodeVerdict, ...]
    symmetrization_bits: Dict[NodeId, int] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """True when every node accepted."""
        return all(verdict.accepted for verdict in self.verdicts)

    @property
    def rejecting_nodes(self) -> List[NodeId]:
        """The nodes that raised the alarm in this run."""
        return [verdict.node for verdict in self.verdicts if not verdict.accepted]


def simulate_equality_path_run(
    protocol: EqualityPathProtocol,
    inputs: Sequence[str],
    proof: Optional[ProductProof] = None,
    rng: RngLike = None,
) -> RunTranscript:
    """One per-node run of Algorithm 3 on a path.

    The simulation draws the symmetrization coin of every intermediate node,
    then evaluates each SWAP test in order with its exact acceptance
    probability conditioned on the sampled coins (exact for product proofs,
    because the tests act on disjoint register pairs given the coins), and
    finally samples the right end's fingerprint measurement.
    """
    generator = ensure_rng(rng)
    inputs = protocol.problem.validate_inputs(inputs)
    if proof is None:
        proof = protocol.honest_proof(inputs)
    else:
        protocol.validate_proof(proof)

    left_state = protocol.fingerprints.state(inputs[0])
    right_target = protocol.fingerprints.state(inputs[1])

    bits: Dict[NodeId, int] = {}
    kept: Dict[int, np.ndarray] = {}
    forwarded: Dict[int, np.ndarray] = {}
    for index in range(1, protocol.path_length):
        coin = int(generator.integers(0, 2))
        node = protocol.path_nodes[index]
        bits[node] = coin
        first = proof.state(protocol._register_name(index, 0))
        second = proof.state(protocol._register_name(index, 1))
        kept[index] = first if coin == 0 else second
        forwarded[index] = second if coin == 0 else first

    verdicts: List[NodeVerdict] = []
    incoming = left_state
    for index in range(1, protocol.path_length):
        node = protocol.path_nodes[index]
        probability = swap_test_accept_probability_pure(incoming, kept[index])
        accepted = bool(generator.random() < probability)
        verdicts.append(
            NodeVerdict(node=node, test="swap-test", accepted=accepted, acceptance_probability=probability)
        )
        incoming = forwarded[index]

    final_probability = float(abs(np.vdot(right_target, incoming)) ** 2)
    final_accept = bool(generator.random() < final_probability)
    verdicts.append(
        NodeVerdict(
            node=protocol.path_nodes[-1],
            test="fingerprint-measurement",
            accepted=final_accept,
            acceptance_probability=final_probability,
        )
    )
    return RunTranscript(verdicts=tuple(verdicts), symmetrization_bits=bits)


def empirical_acceptance_from_transcripts(
    protocol: EqualityPathProtocol,
    inputs: Sequence[str],
    proof: Optional[ProductProof] = None,
    shots: int = 200,
    rng: RngLike = None,
) -> float:
    """Empirical all-accept frequency over independent transcripts.

    The per-run sampling above ignores the (classically correlated) influence
    of a node's SWAP-test *outcome* on later nodes' states; for product proofs
    this is exact because the tests act on disjoint registers once the coins
    are fixed, so the empirical frequency converges to
    :meth:`EqualityPathProtocol.acceptance_probability`.
    """
    shots = require_positive_integer(shots, "shots")
    generator = ensure_rng(rng)
    hits = 0
    for _ in range(shots):
        transcript = simulate_equality_path_run(protocol, inputs, proof, generator)
        if transcript.accepted:
            hits += 1
    return hits / shots


def rejection_histogram(
    protocol: EqualityPathProtocol,
    inputs: Sequence[str],
    proof: Optional[ProductProof] = None,
    shots: int = 500,
    rng: RngLike = None,
) -> Dict[NodeId, int]:
    """How often each node raises the alarm over repeated runs.

    Useful for localising where along the chain a corrupted proof (or a
    divergent input) is detected.
    """
    shots = require_positive_integer(shots, "shots")
    generator = ensure_rng(rng)
    counts: Dict[NodeId, int] = {node: 0 for node in protocol.path_nodes}
    for _ in range(shots):
        transcript = simulate_equality_path_run(protocol, inputs, proof, generator)
        for node in transcript.rejecting_nodes:
            counts[node] += 1
    return counts
