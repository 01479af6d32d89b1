"""dQMA protocols built from one-way communication protocols (Section 6, Algorithm 9).

Given any two-party predicate ``f`` with an efficient one-way quantum protocol
and a network with ``t`` terminals, Theorem 32 builds a dQMA protocol for
``∀_t f`` by running, for every terminal ``u_j``, a verification tree rooted at
``u_j``: the root prepares its one-way message ``|psi(x_j)>`` and sends a copy
towards every leaf through a chain of SWAP tests maintained by the
intermediate nodes (each of which receives one register per child plus one
from the prover and permutes them uniformly at random), and every leaf applies
Bob's measurement with its own input.  Theorem 30 (the Hamming distance
protocol) is the instantiation with the Hamming one-way protocol.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.one_way import ExactMaskHammingOneWay, HammingSketchOneWay, OneWayProtocol
from repro.comm.problems import ForAllPairsProblem, HammingDistanceProblem, Problem
from repro.engine import (
    NODE_FIXED,
    NODE_ROUTER,
    TEST_FANOUT,
    TEST_NONE,
    StrategyBatch,
    TreeJob,
    TreeJobBuilder,
    TreeProgram,
)
from repro.engine.jobs import MAX_ROUTER_REGISTERS
from repro.exceptions import ProtocolError
from repro.network.spanning_tree import VerificationTree, build_verification_tree
from repro.network.topology import Network, NodeId, star_network
from repro.protocols.base import (
    DQMAProtocol,
    ProductProof,
    ProofRegister,
    RepeatedProtocol,
    soundness_repetitions,
    template_strategy_batch,
)


class OneWayToTreeProtocol(DQMAProtocol):
    """Algorithm 9 generalised: a dQMA protocol for ``∀_t f`` from a one-way protocol.

    Proof registers are indexed by (tree, node, slot): for tree ``j`` each
    internal non-root node with ``delta`` children receives ``delta + 1``
    message-sized registers.  Message registers are manipulated as lists of
    tensor factors so that one-way protocols with many-factor messages (the
    Hamming sketches) never materialise their full product state.

    Each verification tree compiles to an engine
    :class:`~repro.engine.jobs.TreeJob` (router nodes, SWAP tests down the
    edges, the one-way measurement at the terminal leaves); the acceptance
    program multiplies the ``t`` tree jobs.  Instances whose fan-out exceeds
    the engine's per-node assignment limit — or whose one-way protocol cannot
    describe its measurement as a
    :class:`~repro.engine.jobs.MeasurementSpec` — fall back to the exact
    joint-pattern enumeration (:meth:`enumerated_acceptance_probability`).
    """

    MAX_ENUMERATED_PERMUTATION_PATTERNS = 5000

    def __init__(
        self,
        problem: Problem,
        network: Network,
        one_way: OneWayProtocol,
    ):
        super().__init__(problem, network)
        if one_way.input_length != problem.input_length:
            raise ProtocolError("one-way protocol input length does not match the problem")
        self.one_way = one_way
        #: Fingerprint scheme behind the one-way messages, when there is one
        #: (lets the generic fingerprint-strategy soundness search run).
        self.fingerprints = getattr(one_way, "fingerprints", None)
        self.trees: Dict[int, VerificationTree] = {}
        for index, terminal in enumerate(network.terminals):
            self.trees[index] = build_verification_tree(network, root=terminal)
        self._orders = {index: tree.topological_order() for index, tree in self.trees.items()}
        # The honest program is a function of this key, the one-way protocol
        # and the inputs: per tree, each node's parent in compile order (-1
        # for the root) and the input its leaf measures (``None`` for the
        # other nodes).  Tree ``j`` is rooted at terminal ``j``.
        terminal_index = {terminal: i for i, terminal in enumerate(network.terminals)}
        layouts = []
        for index, tree in self.trees.items():
            order = self._orders[index]
            position = {node: rank for rank, node in enumerate(order)}
            leaf_input = {leaf: terminal_index[term] for term, leaf in tree.terminal_leaves.items()}
            layouts.append(
                tuple((position.get(tree.parent(node), -1), leaf_input.get(node)) for node in order)
            )
        self._layout_key = tuple(layouts)
        self._max_router_bundle = max(
            (
                len(tree.children(node)) + 1
                for index, tree in self.trees.items()
                for node in self._internal_nodes(tree)
            ),
            default=0,
        )

    # -- layout ----------------------------------------------------------------

    def _register_name(self, tree_index: int, node: NodeId, slot: int, factor: int) -> str:
        return f"T[{tree_index}]:{node}:{slot}:{factor}"

    def _internal_nodes(self, tree: VerificationTree) -> List[NodeId]:
        internal = []
        for node in tree.nodes:
            if node == tree.root:
                continue
            if tree.is_leaf(node):
                continue
            internal.append(node)
        return internal

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        factor_dims = self.one_way.factor_dims
        for tree_index, tree in self.trees.items():
            for node in self._internal_nodes(tree):
                physical = tree.shadow_of.get(node, node)
                num_children = len(tree.children(node))
                for slot in range(num_children + 1):
                    for factor, dim in enumerate(factor_dims):
                        registers.append(
                            ProofRegister(
                                self._register_name(tree_index, node, slot, factor), physical, dim
                            )
                        )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages: Dict[Tuple[NodeId, NodeId], float] = {}
        per_message = self.one_way.message_qubits
        for tree in self.trees.values():
            for node in tree.nodes:
                parent = tree.parent(node)
                if parent is None:
                    continue
                child_physical = tree.shadow_of.get(node, node)
                parent_physical = tree.shadow_of.get(parent, parent)
                if child_physical == parent_physical:
                    continue
                edge = (parent_physical, child_physical)
                messages[edge] = messages.get(edge, 0.0) + per_message
        return messages

    # -- proofs -------------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        states: Dict[str, np.ndarray] = {}
        for tree_index, tree in self.trees.items():
            root_input = inputs[tree_index]
            factors = self.one_way.message_factors(root_input)
            for node in self._internal_nodes(tree):
                num_children = len(tree.children(node))
                for slot in range(num_children + 1):
                    for factor_index, factor in enumerate(factors):
                        states[self._register_name(tree_index, node, slot, factor_index)] = factor
        return ProductProof(states)

    # -- acceptance ------------------------------------------------------------------

    def _measurement_spec(self, y: str):
        """Bob's leaf measurement for input ``y`` (engine-cached per input)."""
        return self.engine.cached_operator(
            ("one-way-accept-spec", self.one_way.cache_token, y),
            lambda: self.one_way.accept_measurement_spec(y),
        )

    def _compile_tree_job(
        self, tree_index: int, inputs: Sequence[str], register_state
    ) -> Optional[Tuple[TreeJob, Dict[int, Tuple[str, ...]]]]:
        """One verification tree as an engine :class:`TreeJob` and its proof-row map.

        ``register_state(node, slot)`` supplies the per-factor states of an
        internal node's register.  The root is a fixed node holding Alice's
        message, internal nodes are routers over their ``delta + 1`` proof
        registers, terminal leaves carry Bob's measurement; SWAP tests follow
        the tree edges downwards (``TEST_FANOUT``).  Job node ``i`` is tree
        node ``self._orders[tree_index][i]``; the map names the proof
        registers, one per tensor factor, that fill each proof row of the
        job.  Returns ``None`` when a leaf measurement cannot be described —
        the caller then falls back to the enumerated path.
        """
        tree = self.trees[tree_index]
        terminal_of_leaf = {leaf: term for term, leaf in tree.terminal_leaves.items()}
        terminal_index = {term: i for i, term in enumerate(self.network.terminals)}
        num_factors = len(self.one_way.factor_dims)
        builder = TreeJobBuilder(num_factors=num_factors)
        index_of: Dict[NodeId, int] = {}
        router_nodes = []
        for node in self._orders[tree_index]:
            parent = tree.parent(node)
            parent_index = -1 if parent is None else index_of[parent]
            children = tree.children(node)
            if node == tree.root:
                root_register = tuple(self.one_way.message_factors(inputs[tree_index]))
                index_of[node] = builder.add_node(
                    -1,
                    NODE_FIXED,
                    registers=(root_register,),
                    test=TEST_FANOUT if children else TEST_NONE,
                )
            elif children:
                registers = tuple(
                    tuple(register_state(node, slot)) for slot in range(len(children) + 1)
                )
                index_of[node] = builder.add_node(
                    parent_index, NODE_ROUTER, registers=registers, test=TEST_FANOUT
                )
                router_nodes.append(node)
            else:
                terminal = terminal_of_leaf.get(node)
                spec = None
                if terminal is not None:
                    spec = self._measurement_spec(inputs[terminal_index[terminal]])
                    if spec is None:
                        return None
                index_of[node] = builder.add_node(
                    parent_index, NODE_FIXED, test=TEST_NONE, measurement=spec
                )
        job = builder.build()
        row_registers = {
            row: tuple(
                self._register_name(tree_index, node, slot, factor)
                for factor in range(num_factors)
            )
            for node in router_nodes
            for slot, row in enumerate(job.slots[index_of[node]])
        }
        return job, row_registers

    def _compile_program(
        self, inputs: Sequence[str], proof: ProductProof
    ) -> Optional[TreeProgram]:
        jobs = []
        for tree_index in self.trees:
            compiled = self._compile_tree_job(
                tree_index, inputs, partial(self._register_factors, proof, tree_index)
            )
            if compiled is None:
                return None
            jobs.append(compiled[0])
        return TreeProgram(
            jobs=tuple(jobs), terms=((1.0, tuple(range(len(jobs)))),)
        )

    def strategy_batch(
        self, inputs: Sequence[str], table: np.ndarray, register_rows: np.ndarray
    ) -> Optional[Tuple[StrategyBatch, ...]]:
        """Product-proof strategies on ``inputs`` as one tree batch per verification tree.

        ``table`` holds unit register states and ``register_rows[b, i]`` the
        row strategy ``b`` places in register ``i`` of :meth:`proof_registers`.
        Each tree's honest job compiles once as its batch's template; a
        strategy's acceptance is the product of its values in the ``t``
        batches, as the acceptance program multiplies the ``t`` tree jobs
        (:meth:`~repro.engine.core.Engine.strategy_probabilities`).  Returns
        ``None`` where the instance does not compile or its messages have
        several tensor factors, so the search keeps the per-proof route.
        """
        if (
            self._max_router_bundle > MAX_ROUTER_REGISTERS
            or len(self.one_way.factor_dims) != 1
        ):
            return None
        inputs = self.problem.validate_inputs(inputs)
        registers = self.proof_registers()
        batches = []
        for tree_index in self.trees:
            honest = tuple(self.one_way.message_factors(inputs[tree_index]))
            compiled = self._compile_tree_job(
                tree_index, inputs, lambda node, slot, register=honest: register
            )
            if compiled is None:
                return None
            batches.append(
                template_strategy_batch(*compiled, registers, table, register_rows)
            )
        return tuple(batches)

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> Optional[TreeProgram]:
        if self._max_router_bundle > MAX_ROUTER_REGISTERS:
            return None  # oversized fan-out: fall back to the enumerated path
        if proof is None:
            # Keyed by value, so equal protocols share the program; a hit
            # implies an identical input tuple was validated when it was built.
            cache = self.engine.cache
            key = (
                "ow-tree-honest-program",
                self.one_way.cache_token,
                self._layout_key,
                tuple(inputs),
            )
            program = cache.get(key)
            if program is None:
                inputs = self.problem.validate_inputs(inputs)
                program = self._compile_program(inputs, self.honest_proof(inputs))
                if program is not None:
                    cache.put(key, program)
            return program
        inputs = self.problem.validate_inputs(inputs)
        self.validate_proof(proof)
        return self._compile_program(inputs, proof)

    def _scalar_acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> float:
        return self.enumerated_acceptance_probability(inputs, proof)

    def enumerated_acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof] = None
    ) -> float:
        """Pre-engine reference semantics: enumerate the joint assignment space.

        Exponential in the number of internal nodes (guarded by
        :attr:`MAX_ENUMERATED_PERMUTATION_PATTERNS`); kept as the independent
        cross-check for the tree-engine parity tests and as the fallback for
        instances the compiler rejects.
        """
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        else:
            self.validate_proof(proof)
        probability = 1.0
        for tree_index in self.trees:
            probability *= self._tree_acceptance(tree_index, inputs, proof)
            if probability == 0.0:
                return 0.0
        return float(min(max(probability, 0.0), 1.0))

    def _register_factors(
        self, proof: ProductProof, tree_index: int, node: NodeId, slot: int
    ) -> List[np.ndarray]:
        return [
            proof.state(self._register_name(tree_index, node, slot, factor))
            for factor in range(len(self.one_way.factor_dims))
        ]

    @staticmethod
    def _swap_accept_factored(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> float:
        overlap_sq = 1.0
        for f, g in zip(first, second):
            overlap_sq *= float(abs(np.vdot(f, g)) ** 2)
        return 0.5 + 0.5 * overlap_sq

    def _tree_acceptance(
        self, tree_index: int, inputs: Sequence[str], proof: ProductProof
    ) -> float:
        tree = self.trees[tree_index]
        root_input = inputs[tree_index]
        root_factors = self.one_way.message_factors(root_input)
        internal_nodes = self._internal_nodes(tree)

        # Each internal node draws a uniformly random assignment of its
        # delta + 1 registers to the slots (child_1, ..., child_delta, keep);
        # enumerate the joint assignment space exactly.
        assignment_spaces: List[List[Tuple[int, ...]]] = []
        for node in internal_nodes:
            size = len(tree.children(node)) + 1
            assignment_spaces.append(list(iter_permutations(range(size))))
        total_patterns = 1
        for space in assignment_spaces:
            total_patterns *= len(space)
        if total_patterns > self.MAX_ENUMERATED_PERMUTATION_PATTERNS:
            raise ProtocolError(
                f"permutation pattern space of size {total_patterns} is too large for "
                "exact enumeration; reduce the tree fan-out"
            )

        terminal_of_leaf = {leaf: term for term, leaf in tree.terminal_leaves.items()}
        terminal_index = {term: i for i, term in enumerate(self.network.terminals)}

        def incoming_factors(
            node: NodeId, assignment: Dict[NodeId, Tuple[int, ...]]
        ) -> List[np.ndarray]:
            """The register sent to ``node`` by its parent under ``assignment``."""
            parent = tree.parent(node)
            if parent == tree.root or parent is None:
                return root_factors
            perm = assignment[parent]
            child_position = tree.children(parent).index(node)
            slot = perm[child_position]
            return self._register_factors(proof, tree_index, parent, slot)

        total = 0.0
        weight = 1.0 / total_patterns if total_patterns else 1.0
        for pattern in iter_product(*assignment_spaces) if assignment_spaces else [()]:
            assignment = dict(zip(internal_nodes, pattern))
            probability = 1.0

            for node in tree.nodes:
                if node == tree.root:
                    continue
                received = incoming_factors(node, assignment)
                if tree.is_leaf(node):
                    terminal = terminal_of_leaf.get(node)
                    if terminal is None:
                        # A non-terminal leaf performs no measurement.
                        continue
                    leaf_input = inputs[terminal_index[terminal]]
                    probability *= self.one_way.accept_probability_factors(received, leaf_input)
                else:
                    perm = assignment[node]
                    keep_slot = perm[len(tree.children(node))]
                    kept = self._register_factors(proof, tree_index, node, keep_slot)
                    probability *= self._swap_accept_factored(received, kept)
                if probability == 0.0:
                    break
            total += weight * probability
        return float(min(max(total, 0.0), 1.0))

    # -- paper parameters ----------------------------------------------------------------

    def single_shot_soundness_gap(self) -> float:
        """The ``Omega(1/r^2)`` gap along the worst root-to-leaf path."""
        depth = max(max(tree.depth for tree in self.trees.values()), 1)
        return 4.0 / (81.0 * (depth + 1) ** 2)

    def paper_repetitions(self) -> int:
        """The paper's ``k = 42 r^2`` repetition count (Theorem 30)."""
        radius = max(self.network.radius, 1)
        return int(42 * radius**2)

    def repeated(self, repetitions: Optional[int] = None) -> RepeatedProtocol:
        """Parallel repetition of the protocol (the Step-7 loop of Algorithm 9)."""
        if repetitions is None:
            repetitions = soundness_repetitions(self.single_shot_soundness_gap())
        return RepeatedProtocol(self, repetitions)


def hamming_distance_protocol(
    input_length: int,
    distance_bound: int,
    num_terminals: int,
    network: Optional[Network] = None,
    one_way: Optional[OneWayProtocol] = None,
    exact: bool = True,
    num_sketches: int = 40,
) -> OneWayToTreeProtocol:
    """Theorem 30: the dQMA protocol for ``HAM^{<=d}_{t,n}`` on a network.

    Defaults to a star network with the terminals at the leaves.  With
    ``exact=True`` (the default) the one-way subroutine is the erase-mask
    protocol with perfect completeness; with ``exact=False`` it is the
    lighter sketch-based protocol (bounded two-sided error).
    """
    if network is None:
        network = star_network(num_terminals)
    if one_way is None:
        if exact:
            one_way = ExactMaskHammingOneWay(input_length, distance_bound)
        else:
            one_way = HammingSketchOneWay(input_length, distance_bound, num_sketches=num_sketches)
    problem = HammingDistanceProblem(input_length, distance_bound, num_terminals)
    return OneWayToTreeProtocol(problem, network, one_way)


def forall_pairs_protocol(
    base_problem,
    one_way: OneWayProtocol,
    num_terminals: int,
    network: Optional[Network] = None,
) -> OneWayToTreeProtocol:
    """Theorem 32: the dQMA protocol for ``∀_t f`` from a one-way protocol for ``f``."""
    if network is None:
        network = star_network(num_terminals)
    problem = ForAllPairsProblem(base_problem, num_terminals)
    return OneWayToTreeProtocol(problem, network, one_way)
