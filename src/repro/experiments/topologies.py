"""Heterogeneous-topology sweeps: grid, ring and random-graph networks.

The tree-family experiments historically stayed on the star / binary-tree /
random-tree zoo.  These sweeps widen the registry to *general* graphs — 2D
lattices, rings and connected random graphs — each verified along the
spanning verification tree of Section 3.3
(:func:`~repro.network.spanning_tree.build_verification_tree`), so the same
Algorithm 5 machinery covers every topology.

Each sweep point is a picklable *descriptor* tuple rather than a prebuilt
network — ``("grid", rows, cols)``, ``("ring", num_nodes)`` or
``("random-graph", num_nodes, seed)`` — so the sharded runner ships tiny
chunks to its workers and every worker materialises only the networks it
evaluates.  Two scenarios ride the grids: a structured-cheat soundness sweep
(``topology-soundness``) and a fixed-strength noise sweep
(``topology-noise``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.soundness import fingerprint_strategy_soundness, paper_bound_slack
from repro.engine.core import default_engine
from repro.exceptions import ProtocolError, TopologyError
from repro.experiments.records import ExperimentRow
from repro.experiments.tree_soundness import no_instance
from repro.network.topology import (
    Network,
    cycle_network,
    grid_network,
    random_graph_network,
)
from repro.protocols.equality import EqualityTreeProtocol
from repro.quantum.channels import NoiseModel, channel_family
from repro.quantum.fingerprint import ExactCodeFingerprint

#: Descriptor tuples: ``(kind, *parameters)``; see :func:`build_topology`.
TopologyDescriptor = Tuple


def default_soundness_topologies() -> List[TopologyDescriptor]:
    """The default topology grid of the soundness sweep (CI-fast sizes)."""
    return [
        ("grid", 2, 3),
        ("grid", 3, 3),
        ("ring", 6),
        ("ring", 8),
        ("random-graph", 8, 1),
        ("random-graph", 9, 2),
    ]


def default_noise_topologies() -> List[TopologyDescriptor]:
    """The default topology grid of the fixed-strength noise sweep."""
    return [
        ("grid", 2, 2),
        ("grid", 2, 3),
        ("ring", 5),
        ("ring", 6),
        ("random-graph", 6, 3),
    ]


def topology_label(descriptor: TopologyDescriptor) -> str:
    """Human-readable row label of a topology descriptor."""
    kind, *parameters = descriptor
    if kind == "grid":
        rows, cols = parameters
        return f"grid-{rows}x{cols}"
    if kind == "ring":
        (num_nodes,) = parameters
        return f"ring-{num_nodes}"
    if kind == "random-graph":
        num_nodes, seed = parameters
        return f"random-graph-{num_nodes}-s{seed}"
    raise TopologyError(f"unknown topology kind {kind!r}")


def build_topology(descriptor: TopologyDescriptor, num_terminals: int) -> Network:
    """Materialise the network a descriptor names.

    ``("grid", rows, cols)`` builds a lattice with corner terminals,
    ``("ring", num_nodes)`` a cycle with evenly spread terminals, and
    ``("random-graph", num_nodes, seed)`` a connected random graph seeded
    deterministically (so every worker rebuilds the identical network).
    """
    kind, *parameters = descriptor
    if kind == "grid":
        rows, cols = parameters
        return grid_network(rows, cols, num_terminals=num_terminals)
    if kind == "ring":
        (num_nodes,) = parameters
        return cycle_network(num_nodes, num_terminals=num_terminals)
    if kind == "random-graph":
        num_nodes, seed = parameters
        return random_graph_network(num_nodes, num_terminals, rng=seed)
    raise TopologyError(f"unknown topology kind {kind!r}")


def topology_soundness_sweep(
    input_length: int = 2,
    num_terminals: int = 3,
    topologies: Optional[Sequence[TopologyDescriptor]] = None,
) -> List[ExperimentRow]:
    """Best structured cheat on Algorithm 5 over general-graph topologies.

    Every sweep point builds its network from the descriptor, derives the
    verification tree, and runs the batched fingerprint-strategy search of
    the tree-soundness experiments against the paper's single-shot bound.
    ``best_found_acceptance`` is a structured-search *lower* bound on the
    best cheat, so ``respects_bound = True`` is not a certificate; only
    ``False`` is conclusive.
    """
    inputs = no_instance(input_length, num_terminals)
    if topologies is None:
        topologies = default_soundness_topologies()
    fingerprints = ExactCodeFingerprint(input_length, rng=5)
    rows: List[ExperimentRow] = []
    for descriptor in topologies:
        network = build_topology(descriptor, num_terminals)
        protocol = EqualityTreeProtocol(network, fingerprints)
        honest = protocol.acceptance_probability(inputs)
        search = fingerprint_strategy_soundness(protocol, inputs)
        bound = 1.0 - protocol.single_shot_soundness_gap()
        rows.append(
            ExperimentRow(
                "topology-soundness",
                topology_label(descriptor),
                {
                    "nodes": network.num_nodes,
                    "tree_depth": protocol.tree.depth,
                    "honest_acceptance": honest,
                    "best_found_acceptance": search.best_acceptance,
                    "best_strategy": search.best_strategy,
                    "strategies_searched": search.num_assignments + 1,
                    "paper_bound": bound,
                    "respects_bound": search.best_acceptance <= bound + paper_bound_slack(),
                },
            )
        )
    return rows


def topology_noise_sweep(
    input_length: int = 2,
    num_terminals: int = 3,
    channel: str = "depolarizing",
    strength: float = 0.15,
    readout_error: float = 0.0,
    topologies: Optional[Sequence[TopologyDescriptor]] = None,
) -> List[ExperimentRow]:
    """Completeness and decision gap of Algorithm 5 across noisy topologies.

    Every topology is instantiated with the same uniform link channel and
    evaluated on a yes- and a no-instance; all programs of the sweep go
    through one batched engine call (heterogeneous tree shapes simply land
    in separate contraction groups).
    """
    no_inputs = no_instance(input_length, num_terminals)
    yes_inputs = ("1" * input_length,) * num_terminals
    if topologies is None:
        topologies = default_noise_topologies()
    fingerprints = ExactCodeFingerprint(input_length, rng=7)
    build = channel_family(channel)
    noise = NoiseModel.uniform_link(build(strength, fingerprints.dim), readout_error)

    engine = default_engine()
    programs = []
    networks = []
    for descriptor in topologies:
        network = build_topology(descriptor, num_terminals)
        networks.append(network)
        protocol = EqualityTreeProtocol(network, fingerprints, noise=noise)
        protocol.use_engine(engine)
        for inputs in (yes_inputs, no_inputs):
            program = protocol.acceptance_program(inputs)
            if program is None:
                raise ProtocolError(
                    f"topology {topology_label(descriptor)} does not compile to "
                    "an engine program; noisy sweeps need compilable instances"
                )
            programs.append(program)
    values = engine.evaluate_programs(programs)
    rows: List[ExperimentRow] = []
    for index, descriptor in enumerate(topologies):
        completeness = float(values[2 * index])
        no_accept = float(values[2 * index + 1])
        rows.append(
            ExperimentRow(
                "topology-noise",
                topology_label(descriptor),
                {
                    "nodes": networks[index].num_nodes,
                    "noise": float(strength),
                    "completeness": completeness,
                    "no_accept": no_accept,
                    "gap": completeness - no_accept,
                },
            )
        )
    return rows
