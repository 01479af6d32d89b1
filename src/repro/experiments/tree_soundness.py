"""Tree-family soundness sweeps (Algorithm 5 and Theorem 32 instances).

The path-protocol soundness experiments (:mod:`repro.experiments.
soundness_scaling`) diagonalise exact acceptance operators; the tree
protocols have no small operator form, so their sweeps run the structured
cheating-strategy search instead: every fingerprint register of a node is
filled with the fingerprint of a candidate string, each chunk of
assignments compiles to one table-indexed strategy batch per verification
tree and evaluates through the engine's batched API, and the best strategy
found is reported with its label against the paper's single-shot bound.

``best_found_acceptance`` is therefore a structured-search *lower* bound on
the best cheat over all proofs, and ``respects_bound = True`` is not a
certificate that the instance meets the paper's bound: a cheat outside the
searched family may exceed it.  Only ``respects_bound = False`` is
conclusive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.soundness import fingerprint_strategy_soundness, paper_bound_slack
from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem
from repro.experiments.records import ExperimentRow
from repro.network.topology import (
    Network,
    binary_tree_network,
    random_tree_network,
    star_network,
)
from repro.protocols.equality import EqualityTreeProtocol
from repro.protocols.from_one_way import forall_pairs_protocol
from repro.quantum.fingerprint import ExactCodeFingerprint


def network_zoo(num_terminals: int = 3) -> List[Tuple[str, Network]]:
    """The tree-family network zoo: star, complete binary tree, random tree.

    This is the default grid of the tree-soundness sweeps — each
    ``(name, network)`` pair is one sweep point, so the sharded runner can
    chunk the zoo across workers.
    """
    return [
        (f"star-{num_terminals}", star_network(num_terminals)),
        ("binary-depth2", binary_tree_network(2, num_terminals=num_terminals)),
        ("random-8", random_tree_network(8, num_terminals, rng=4)),
    ]


def _no_instance(input_length: int, num_terminals: int) -> Tuple[str, ...]:
    yes = "1" * input_length
    divergent = "0" + "1" * (input_length - 1)
    return tuple([yes] * (num_terminals - 1) + [divergent])


def _strategy_sweep(
    tag: str,
    protocol_factory,
    input_length: int,
    num_terminals: int,
    networks: Optional[Sequence[Tuple[str, Network]]],
) -> List[ExperimentRow]:
    """Shared sweep body: one batched strategy search per network family.

    ``best_found_acceptance`` is a lower bound on the best cheat, so
    ``respects_bound = True`` is not a certificate (see the module docstring).
    """
    inputs = _no_instance(input_length, num_terminals)
    rows: List[ExperimentRow] = []
    for name, network in networks if networks is not None else network_zoo(num_terminals):
        protocol = protocol_factory(network)
        honest = protocol.acceptance_probability(inputs)
        search = fingerprint_strategy_soundness(protocol, inputs)
        bound = 1.0 - protocol.single_shot_soundness_gap()
        rows.append(
            ExperimentRow(
                tag,
                name,
                {
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


def tree_soundness_sweep(
    input_length: int = 2,
    num_terminals: int = 3,
    networks: Optional[Sequence[Tuple[str, Network]]] = None,
) -> List[ExperimentRow]:
    """Algorithm 5 soundness: best structured cheat per network family.

    ``best_found_acceptance`` is a structured-search lower bound on the best
    cheat; ``respects_bound = True`` is not a certificate.
    """
    fingerprints = ExactCodeFingerprint(input_length, rng=5)
    return _strategy_sweep(
        "soundness-tree",
        lambda network: EqualityTreeProtocol(network, fingerprints),
        input_length,
        num_terminals,
        networks,
    )


def one_way_tree_soundness_sweep(
    input_length: int = 2,
    num_terminals: int = 3,
    networks: Optional[Sequence[Tuple[str, Network]]] = None,
) -> List[ExperimentRow]:
    """Theorem 32 soundness: the ``∀_t EQ`` construction under structured cheats.

    ``best_found_acceptance`` is a structured-search lower bound on the best
    cheat; ``respects_bound = True`` is not a certificate.
    """
    one_way = FingerprintEqualityOneWay(ExactCodeFingerprint(input_length, rng=6))
    return _strategy_sweep(
        "soundness-one-way-tree",
        lambda network: forall_pairs_protocol(
            EqualityProblem(input_length), one_way, num_terminals, network=network
        ),
        input_length,
        num_terminals,
        networks,
    )
