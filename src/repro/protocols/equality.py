"""dQMA protocols for the equality function (Section 3 of the paper).

``EqualityPathProtocol`` implements Algorithm 3 (the single-shot protocol
``P_pi`` on a path with the symmetrization step), and ``EqualityTreeProtocol``
implements Algorithm 5 (the protocol on a general network over the
verification tree, using the permutation test).  Both have perfect
completeness; the single-shot soundness gap is ``4 / (81 r^2)`` (Lemma 17) and
parallel repetition (Algorithm 4, :class:`repro.protocols.base.RepeatedProtocol`)
brings the soundness error below 1/3.

Both protocols accept an optional :class:`~repro.quantum.channels.NoiseModel`
assigning Kraus channels to the network's links (registers in transit) and
nodes (proof delivery / input preparation) plus a measurement readout error;
a non-empty model switches the compiled jobs onto the engine's
density-matrix path.  :meth:`EqualityPathProtocol.acceptance_operator` and
the exact optimum :meth:`EqualityPathProtocol.optimal_cheating_probability`
fold in the same channels, so every soundness quantity describes the
protocol as built; ``with_noise(None)`` is its ideal protocol.  The optimum
diagonalises the operator on small proof spaces and runs Lanczos on the
matrix-free chain sweep on larger ones.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import replace as dataclass_replace
from itertools import product as iter_product
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.problems import EqualityProblem
from repro.exceptions import ProofError, ProtocolError, TopologyError
from repro.network.spanning_tree import VerificationTree, build_verification_tree
from repro.network.topology import Network, NodeId, path_network
from repro.protocols.base import (
    DQMAProtocol,
    ProductProof,
    ProofRegister,
    RepeatedProtocol,
    annotated_program,
    soundness_repetitions,
    template_strategy_batch,
)
from repro.engine import (
    NODE_FIXED,
    NODE_SYM,
    RIGHT_PROJECTOR,
    TEST_NONE,
    TEST_PERM,
    ChainJob,
    ChainNoise,
    ChainProgram,
    ChainStrategyBatch,
    TreeJob,
    TreeJobBuilder,
    TreeNoise,
    TreeProgram,
    TreeStrategyBatch,
)
from repro.quantum.channels import NoiseModel
from repro.engine.jobs import MAX_PERM_TEST_ARITY
from repro.protocols.chain import (
    DENSE_OPTIMUM_MAX_DIM,
    chain_acceptance_operator,
    optimal_entangled_acceptance,
    optimal_sweep_acceptance,
)
from repro.quantum.fingerprint import ExactCodeFingerprint, FingerprintScheme
from repro.quantum.permutation_test import permutation_test_accept_probability_product
from repro.quantum.states import outer


def _ordered_path_nodes(network: Network) -> List[NodeId]:
    """The nodes of a path network from one terminal to the other."""
    if len(network.terminals) != 2:
        raise TopologyError("a path protocol needs exactly two terminals")
    left, right = network.terminals
    path = network.shortest_path(left, right)
    if len(path) != network.num_nodes:
        raise TopologyError("the network is not a simple path between its terminals")
    return path


def path_chain_noise(
    noise: Optional[NoiseModel], nodes: Sequence[NodeId], dim: int, right_kind: str
) -> Optional[ChainNoise]:
    """``noise`` mapped onto the chain along ``nodes`` (``None`` for no noise).

    The chain's registers pick up the model's link channel on every step
    between consecutive nodes and the delivery channel of every interior
    node; the end nodes' preparation channels act on the left state and on
    the right end's reference, and every test carries the readout error.
    """
    if noise is None or noise.is_trivial:
        return None
    annotation = ChainNoise(
        edge_channels=tuple(noise.link_channel(a, b) for a, b in zip(nodes, nodes[1:])),
        node_channels=tuple(noise.node_channel(node) for node in nodes[1:-1]),
        left_channel=noise.node_channel(nodes[0]),
        right_channel=noise.node_channel(nodes[-1]),
        readout_error=noise.readout_error,
    )
    annotation.validate(len(nodes) - 2, dim, right_kind)
    return annotation


def verification_tree_noise(
    noise: Optional[NoiseModel], tree: VerificationTree, order: Sequence[NodeId]
) -> Optional[TreeNoise]:
    """``noise`` mapped onto the tree job compiled in ``order`` (``None`` for no noise).

    Job node ``i`` is tree node ``order[i]``.  It picks up its physical
    node's delivery/preparation channel and, when its parent sits on another
    physical node, the link channel toward that parent (shadow leaves stay
    inside their physical node); every test carries the readout error.  An
    annotation with no channel and perfect readout is ``None``, like a job
    built without one.
    """
    if noise is None or noise.is_trivial:
        return None
    up_channels = []
    node_channels = []
    for node in order:
        physical = tree.shadow_of.get(node, node)
        parent = tree.parent(node)
        up_channel = None
        if parent is not None:
            parent_physical = tree.shadow_of.get(parent, parent)
            if parent_physical != physical:
                up_channel = noise.link_channel(physical, parent_physical)
        up_channels.append(up_channel)
        node_channels.append(noise.node_channel(physical))
    annotation = TreeNoise(tuple(up_channels), tuple(node_channels), noise.readout_error)
    return None if annotation.is_trivial else annotation


class EqualityPathProtocol(DQMAProtocol):
    """Algorithm 3: the single-shot dQMA protocol ``P_pi`` for ``EQ`` on a path.

    The prover sends two fingerprint registers to every intermediate node; the
    nodes symmetrize, forward one register to the right, SWAP-test the other
    against the incoming register, and the right end applies the fingerprint
    measurement of the one-way protocol ``pi``.
    """

    def __init__(
        self,
        network: Network,
        fingerprints: FingerprintScheme,
        problem: Optional[EqualityProblem] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if problem is None:
            problem = EqualityProblem(fingerprints.input_length, num_inputs=2)
        if problem.input_length != fingerprints.input_length:
            raise ProtocolError("fingerprint scheme and problem disagree on the input length")
        super().__init__(problem, network)
        self.fingerprints = fingerprints
        self.path_nodes = _ordered_path_nodes(network)
        self.path_length = len(self.path_nodes) - 1
        self._map_noise(noise)

    # -- layout --------------------------------------------------------------

    @classmethod
    def on_path(
        cls,
        input_length: int,
        path_length: int,
        fingerprints: Optional[FingerprintScheme] = None,
        noise: Optional[NoiseModel] = None,
    ):
        """Convenience constructor on the standard path ``v0 .. v_r``."""
        if fingerprints is None:
            fingerprints = ExactCodeFingerprint(input_length)
        return cls(path_network(path_length), fingerprints, noise=noise)

    def with_noise(self, noise: Optional[NoiseModel]) -> "EqualityPathProtocol":
        """A sibling protocol with ``noise`` mapped onto this path.

        The sibling shares this protocol's network, problem, fingerprints,
        engine and path nodes; only the chain annotation is re-derived, so a
        noise sweep costs one mapping per strength, not a rebuild.  Its honest
        programs attach that annotation to the clean template every protocol
        on this layout shares in the engine cache.  ``with_noise(None)`` is
        the ideal protocol.  The operator cache entries of siblings stay apart
        because their keys carry :attr:`_noise_key`.
        """
        sibling = shallow_copy(self)
        sibling._map_noise(noise)
        return sibling

    def _map_noise(self, noise: Optional[NoiseModel]) -> None:
        self.noise = noise
        self._chain_noise = path_chain_noise(
            noise, self.path_nodes, self.fingerprints.dim, RIGHT_PROJECTOR
        )

    @property
    def _noise_key(self):
        # Keyed on the *derived* per-edge annotation, not the raw NoiseModel:
        # the same model lands differently on differently-labeled networks,
        # and protocols sharing an engine cache must not exchange programs.
        return None if self._chain_noise is None else self._chain_noise.key

    def _register_name(self, node_index: int, slot: int) -> str:
        return f"R[{node_index},{slot}]"

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        for index in range(1, self.path_length):
            node = self.path_nodes[index]
            for slot in (0, 1):
                registers.append(
                    ProofRegister(self._register_name(index, slot), node, self.fingerprints.dim)
                )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages = {}
        for index in range(self.path_length):
            edge = (self.path_nodes[index], self.path_nodes[index + 1])
            messages[edge] = self.fingerprints.num_qubits
        return messages

    # -- proofs ---------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        fingerprint = self.fingerprints.state(inputs[0])
        states = {}
        for index in range(1, self.path_length):
            states[self._register_name(index, 0)] = fingerprint
            states[self._register_name(index, 1)] = fingerprint
        return ProductProof(states)

    # -- acceptance ------------------------------------------------------------

    def _right_operator(self, y: str) -> np.ndarray:
        """The right end's fingerprint measurement ``|h_y><h_y|`` (engine-cached)."""
        return self.engine.cached_operator(
            ("eq-right", self.fingerprints.cache_token, y),
            lambda: outer(self.fingerprints.state(y)),
        )

    def _honest_job(self, x: str, y: str) -> ChainJob:
        # The honest proof places the (already normalized) fingerprint of x in
        # every register: a broadcast view stands in for the stacked pair
        # array, skipping the ProductProof round-trip entirely.  The right end
        # is the rank-one fingerprint measurement |h_y><h_y|, carried as its
        # defining vector so backends fold it into the chain contraction.
        # The job is clean: siblings attach their own annotation to it.
        fingerprint = self.fingerprints.state(x)
        pairs = np.broadcast_to(fingerprint, (self.path_length - 1, 2, fingerprint.size))
        return ChainJob.from_arrays(
            fingerprint, pairs, self.fingerprints.state(y), right_kind=RIGHT_PROJECTOR
        )

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> ChainProgram:
        if proof is None:
            # The clean template is keyed by value and without the noise, so
            # every sibling on this layout shares it.  Key on the raw input
            # tuple: a hit implies an identical tuple was validated when the
            # program was first built.
            cache = self.engine.cache
            key = (
                "eq-honest-program",
                self.fingerprints.cache_token,
                self.path_length,
                tuple(inputs),
            )
            program = cache.get(key)
            if program is None:
                inputs = self.problem.validate_inputs(inputs)
                program = cache.put(
                    key, ChainProgram.single(self._honest_job(inputs[0], inputs[1]))
                )
            return annotated_program(program, (self._chain_noise,))
        else:
            inputs = self.problem.validate_inputs(inputs)
            self.validate_proof(proof)
            node_pairs = [
                (
                    proof.state(self._register_name(index, 0)),
                    proof.state(self._register_name(index, 1)),
                )
                for index in range(1, self.path_length)
            ]
            job = ChainJob.from_states(
                self.fingerprints.state(inputs[0]),
                node_pairs,
                self.fingerprints.state(inputs[1]),
                right_kind=RIGHT_PROJECTOR,
                noise=self._chain_noise,
            )
        return ChainProgram.single(job)

    def strategy_batch(
        self, inputs: Sequence[str], table: np.ndarray, register_rows: np.ndarray
    ) -> Tuple[ChainStrategyBatch]:
        """Product-proof strategies on ``inputs`` as one table-indexed chain batch.

        ``table`` holds unit register states and ``register_rows[b, i]`` the
        row strategy ``b`` places in register ``i`` of :meth:`proof_registers`.
        Each strategy evaluates exactly like the :class:`ProductProof` of
        those rows through :meth:`acceptance_probabilities`, with the layout
        checks done once for the batch: the search of
        :func:`repro.analysis.soundness.fingerprint_strategy_soundness`
        compiles each chunk through here and scores the returned batches
        with :meth:`~repro.engine.core.Engine.strategy_probabilities`.
        """
        inputs = self.problem.validate_inputs(inputs)
        table = np.asarray(table)
        register_rows = np.asarray(register_rows)
        count = 2 * (self.path_length - 1)
        if register_rows.ndim != 2 or register_rows.shape[1] != count:
            raise ProofError(f"every strategy must assign the {count} proof registers")
        if table.ndim != 2 or table.shape[1] != self.fingerprints.dim:
            raise ProofError(
                f"register states must have the fingerprint dimension {self.fingerprints.dim}"
            )
        return (
            ChainStrategyBatch(
                left=self.fingerprints.state(inputs[0]),
                table=table,
                choices=register_rows.reshape(len(register_rows), self.path_length - 1, 2),
                right_operator=self.fingerprints.state(inputs[1]),
                right_kind=RIGHT_PROJECTOR,
                noise=self._chain_noise,
            ),
        )

    def acceptance_operator(self, inputs: Sequence[str]) -> np.ndarray:
        """Exact acceptance operator over (possibly entangled) proofs — small instances.

        A noisy protocol folds its chain's channels into the operator in the
        Heisenberg picture (see :func:`repro.protocols.chain.
        chain_acceptance_operator`), the right end's preparation channel
        acting on its reference projector; ``with_noise(None)`` gives the
        ideal protocol's operator.  Cached on the engine's operator cache:
        soundness sweeps evaluate the same layout/input combination many
        times.
        """
        inputs = self.problem.validate_inputs(inputs)

        def build() -> np.ndarray:
            *arguments, noise = self._chain_arguments(inputs)
            return chain_acceptance_operator(*arguments, noise=noise)

        return self.engine.cached_operator(
            (
                "eq-chain-operator",
                self.fingerprints.cache_token,
                self.path_length,
                self._noise_key,
                tuple(inputs),
            ),
            build,
        )

    def _chain_arguments(self, inputs: Sequence[str]) -> tuple:
        """``(left state, dim, m, right accept element, noise)`` of the chain.

        The right end's preparation channel acts on its reference projector,
        so it is folded into the accept element here, once for both the dense
        operator and the matrix-free sweep.
        """
        right = self._right_operator(inputs[1])
        noise = self._chain_noise
        if noise is not None and noise.right_channel is not None:
            right = noise.right_channel.apply(right)
            noise = dataclass_replace(noise, right_channel=None)
        return (
            self.fingerprints.state(inputs[0]),
            self.fingerprints.dim,
            self.path_length - 1,
            right,
            noise,
        )

    def optimal_cheating_probability(self, inputs: Sequence[str]) -> float:
        """Maximum acceptance over all (entangled) proofs — the soundness supremum.

        The largest eigenvalue of :meth:`acceptance_operator`, under the
        protocol's own noise.  Proof spaces up to
        :data:`~repro.protocols.chain.DENSE_OPTIMUM_MAX_DIM` diagonalise the
        cached dense operator; larger ones run Lanczos on the matrix-free
        sweep, which needs no operator and lifts the dense builder's size
        guard.
        """
        if self.fingerprints.dim ** (2 * (self.path_length - 1)) <= DENSE_OPTIMUM_MAX_DIM:
            return optimal_entangled_acceptance(self.acceptance_operator(inputs))
        inputs = self.problem.validate_inputs(inputs)
        *arguments, noise = self._chain_arguments(inputs)
        return optimal_sweep_acceptance(*arguments, noise=noise)

    # -- paper parameters -------------------------------------------------------

    def single_shot_soundness_gap(self) -> float:
        """The paper's single-shot rejection-probability bound ``4 / (81 r^2)`` (Lemma 17)."""
        return 4.0 / (81.0 * self.path_length**2)

    def paper_repetitions(self) -> int:
        """The repetition count ``k = ceil(2 * 81 r^2 / 4)`` used in Section 3.2."""
        return int(ceil(2.0 * 81.0 * self.path_length**2 / 4.0))

    def repeated(self, repetitions: Optional[int] = None) -> RepeatedProtocol:
        """Algorithm 4: the parallel repetition ``P_pi[k]`` of this protocol."""
        if repetitions is None:
            repetitions = self.paper_repetitions()
        return RepeatedProtocol(self, repetitions)


class EqualityTreeProtocol(DQMAProtocol):
    """Algorithm 5: ``EQ`` between ``t`` terminals on a general network.

    The protocol runs over the verification tree of Section 3.3: terminals
    prepare their own fingerprints, every non-input node receives two
    fingerprint registers from the prover and symmetrizes them, every non-root
    node forwards one register to its parent, and every non-input node (and
    the root) applies the permutation test to its kept register together with
    everything received from its children.
    """

    MAX_ENUMERATED_NODES = 16

    def __init__(
        self,
        network: Network,
        fingerprints: FingerprintScheme,
        problem: Optional[EqualityProblem] = None,
        root: Optional[NodeId] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if problem is None:
            problem = EqualityProblem(fingerprints.input_length, num_inputs=network.num_terminals)
        if problem.input_length != fingerprints.input_length:
            raise ProtocolError("fingerprint scheme and problem disagree on the input length")
        super().__init__(problem, network)
        self.fingerprints = fingerprints
        self.tree: VerificationTree = build_verification_tree(network, root=root)
        terminals = list(network.terminals)
        self._input_index = {
            leaf: terminals.index(terminal)
            for terminal, leaf in self.tree.terminal_leaves.items()
        }
        self._input_nodes = set(self._input_index)
        self._proof_nodes = [
            node for node in self.tree.nodes if node not in self._input_nodes
        ]
        self._compile_order = self.tree.topological_order()
        position = {node: index for index, node in enumerate(self._compile_order)}
        # The clean honest job is a function of this key, the fingerprints
        # and the inputs: each node's parent in compile order (-1 for the
        # root) and the input that feeds it (``None`` for proof nodes).
        self._layout_key = tuple(
            (position.get(self.tree.parent(node), -1), self._input_index.get(node))
            for node in self._compile_order
        )
        test_arities = [
            1 + len(self.tree.children(node))
            for node in self._compile_order
            if self.tree.children(node)
            and not (node in self._input_nodes and node != self.tree.root)
        ]
        self._max_test_arity = max(test_arities) if test_arities else 0
        self._map_noise(noise)

    # -- layout --------------------------------------------------------------

    def with_noise(self, noise: Optional[NoiseModel]) -> "EqualityTreeProtocol":
        """A sibling protocol with ``noise`` on this network's verification tree.

        The sibling shares this protocol's network, problem, fingerprints,
        engine, verification tree and compile order; only the tree annotation
        (:func:`verification_tree_noise`) is re-derived.  Its honest programs
        attach that annotation to the clean template every protocol on this
        layout shares in the engine cache.  ``with_noise(None)`` is the ideal
        protocol.
        """
        sibling = shallow_copy(self)
        sibling._map_noise(noise)
        return sibling

    def _map_noise(self, noise: Optional[NoiseModel]) -> None:
        self.noise = noise
        self._tree_noise = verification_tree_noise(noise, self.tree, self._compile_order)

    def _register_name(self, node: NodeId, slot: int) -> str:
        return f"R[{node},{slot}]"

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        for node in self._proof_nodes:
            original = self.tree.shadow_of.get(node, node)
            for slot in (0, 1):
                registers.append(
                    ProofRegister(self._register_name(node, slot), original, self.fingerprints.dim)
                )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages: Dict[Tuple[NodeId, NodeId], float] = {}
        for node in self.tree.nodes:
            parent = self.tree.parent(node)
            if parent is None:
                continue
            child_physical = self.tree.shadow_of.get(node, node)
            parent_physical = self.tree.shadow_of.get(parent, parent)
            if child_physical == parent_physical:
                continue  # shadow-leaf messages stay inside the physical node
            edge = (child_physical, parent_physical)
            messages[edge] = messages.get(edge, 0.0) + self.fingerprints.num_qubits
        return messages

    # -- proofs ---------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        fingerprint = self.fingerprints.state(inputs[0])
        states = {}
        for node in self._proof_nodes:
            states[self._register_name(node, 0)] = fingerprint
            states[self._register_name(node, 1)] = fingerprint
        return ProductProof(states)

    # -- acceptance ------------------------------------------------------------

    def _input_of_node(self, node: NodeId, inputs: Sequence[str]) -> str:
        return inputs[self._input_index[node]]

    def _compile_tree_job(
        self, inputs: Sequence[str], register_state, noise: Optional[TreeNoise] = None
    ) -> Tuple[TreeJob, Dict[int, Tuple[str, ...]]]:
        """Compile one instance to a :class:`TreeJob` and its proof-row map.

        ``register_state(node, slot)`` supplies the proof state of a
        non-input node's register; input nodes carry their own fingerprints.
        Every node with children permutation-tests its kept register against
        what its children forward up — Algorithm 5 verbatim, but expressed
        as an engine job instead of a pattern enumeration.  Job node ``i``
        is tree node ``self._compile_order[i]``; the map names the proof
        register that fills each proof row of the job (a one-tuple: the
        registers have one tensor factor).  ``noise`` is the job's channel
        annotation: the protocol's own is :attr:`_tree_noise`, and ``None``
        compiles the clean job.
        """
        builder = TreeJobBuilder()
        index_of = {}
        proof_nodes = []
        root = self.tree.root
        for node in self._compile_order:
            parent = self.tree.parent(node)
            parent_index = -1 if parent is None else index_of[parent]
            has_children = bool(self.tree.children(node))
            if node in self._input_nodes:
                tests = TEST_PERM if node == root and has_children else TEST_NONE
                index_of[node] = builder.add_node(
                    parent_index,
                    NODE_FIXED,
                    registers=(self.fingerprints.state(self._input_of_node(node, inputs)),),
                    test=tests,
                )
            else:
                index_of[node] = builder.add_node(
                    parent_index,
                    NODE_SYM,
                    registers=(register_state(node, 0), register_state(node, 1)),
                    test=TEST_PERM if has_children else TEST_NONE,
                )
                proof_nodes.append(node)
        job = builder.build(noise=noise)
        row_registers = {
            job.slots[index_of[node]][slot]: (self._register_name(node, slot),)
            for node in proof_nodes
            for slot in (0, 1)
        }
        return job, row_registers

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> Optional[TreeProgram]:
        if self._max_test_arity > MAX_PERM_TEST_ARITY:
            return None  # oversized fan-out: fall back to the enumerated path
        if proof is None:
            # The clean template is keyed by value and without the noise, so
            # every sibling on this layout shares it.  Key on the raw input
            # tuple: a hit implies an identical tuple was validated when the
            # program was first built.
            cache = self.engine.cache
            key = (
                "eq-tree-honest-program",
                self.fingerprints.cache_token,
                self._layout_key,
                tuple(inputs),
            )
            program = cache.get(key)
            if program is None:
                inputs = self.problem.validate_inputs(inputs)
                honest = self.fingerprints.state(inputs[0])
                job, _ = self._compile_tree_job(inputs, lambda node, slot: honest)
                program = cache.put(key, TreeProgram.single(job))
            return annotated_program(program, (self._tree_noise,))
        inputs = self.problem.validate_inputs(inputs)
        self.validate_proof(proof)
        job, _ = self._compile_tree_job(
            inputs,
            lambda node, slot: proof.state(self._register_name(node, slot)),
            self._tree_noise,
        )
        return TreeProgram.single(job)

    def strategy_batch(
        self, inputs: Sequence[str], table: np.ndarray, register_rows: np.ndarray
    ) -> Optional[Tuple[TreeStrategyBatch]]:
        """Product-proof strategies on ``inputs`` as one table-indexed tree batch.

        ``table`` holds unit register states and ``register_rows[b, i]`` the
        row strategy ``b`` places in register ``i`` of :meth:`proof_registers`.
        The honest job compiles once as the batch's template, and each
        strategy evaluates exactly like the :class:`ProductProof` of its rows
        through :meth:`acceptance_probabilities`.  Returns ``None`` where the
        instance does not compile (a fan-out past the permutation-test arity
        limit), so the search keeps the enumerated per-proof route.
        """
        if self._max_test_arity > MAX_PERM_TEST_ARITY:
            return None
        inputs = self.problem.validate_inputs(inputs)
        honest = self.fingerprints.state(inputs[0])
        job, row_registers = self._compile_tree_job(
            inputs, lambda node, slot: honest, self._tree_noise
        )
        return (
            template_strategy_batch(
                job, row_registers, self.proof_registers(), table, register_rows
            ),
        )

    def _scalar_acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> float:
        if self.noise is not None and not self.noise.is_trivial:
            raise ProtocolError(
                "noisy evaluation requires engine-compilable trees; this "
                f"instance exceeds the arity-{MAX_PERM_TEST_ARITY} "
                "permutation-test limit and the enumerated fallback is "
                "noiseless"
            )
        return self.enumerated_acceptance_probability(inputs, proof)

    def enumerated_acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof] = None
    ) -> float:
        """Pre-engine reference semantics: enumerate all symmetrization patterns.

        Exponential in the number of non-input nodes (guarded by
        :attr:`MAX_ENUMERATED_NODES`); kept as the independent cross-check the
        tree-engine parity tests compare against, and as the fallback for
        fan-outs beyond the engine's permutation-test arity limit.
        """
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        else:
            self.validate_proof(proof)

        symmetrized_nodes = [node for node in self._proof_nodes]
        if len(symmetrized_nodes) > self.MAX_ENUMERATED_NODES:
            raise ProtocolError(
                "exact product-proof acceptance enumerates symmetrization patterns; "
                f"the tree has {len(symmetrized_nodes)} non-input nodes which exceeds "
                f"the limit of {self.MAX_ENUMERATED_NODES}"
            )

        root = self.tree.root
        total = 0.0
        patterns = list(iter_product((0, 1), repeat=len(symmetrized_nodes)))
        weight = 1.0 / len(patterns) if patterns else 1.0
        for pattern in patterns:
            bits = dict(zip(symmetrized_nodes, pattern))
            probability = 1.0
            for node in self.tree.nodes:
                is_input = node in self._input_nodes
                if is_input and node != root:
                    continue  # leaves with inputs perform no test
                kept = self._kept_state(node, bits, proof, inputs)
                child_states = [
                    self._sent_state(child, bits, proof, inputs)
                    for child in self.tree.children(node)
                ]
                if not child_states:
                    continue
                states = [kept] + child_states
                probability *= permutation_test_accept_probability_product(states)
                if probability == 0.0:
                    break
            total += weight * probability
        return float(min(max(total, 0.0), 1.0))

    def _kept_state(self, node: NodeId, bits, proof: ProductProof, inputs: Sequence[str]) -> np.ndarray:
        if node in self._input_nodes:
            return self.fingerprints.state(self._input_of_node(node, inputs))
        slot = 0 if bits[node] == 0 else 1
        return proof.state(self._register_name(node, slot))

    def _sent_state(self, node: NodeId, bits, proof: ProductProof, inputs: Sequence[str]) -> np.ndarray:
        if node in self._input_nodes:
            return self.fingerprints.state(self._input_of_node(node, inputs))
        slot = 1 if bits[node] == 0 else 0
        return proof.state(self._register_name(node, slot))

    # -- paper parameters -------------------------------------------------------

    def single_shot_soundness_gap(self) -> float:
        """The ``Omega(1/r^2)`` single-shot gap along the path joining two terminals."""
        depth = max(self.tree.depth, 1)
        return 4.0 / (81.0 * (2 * depth) ** 2)

    def paper_repetitions(self) -> int:
        """Repetition count sufficient for soundness 1/3 (parallel Algorithm 4)."""
        return soundness_repetitions(self.single_shot_soundness_gap())

    def repeated(self, repetitions: Optional[int] = None) -> RepeatedProtocol:
        """The parallel repetition of this protocol."""
        if repetitions is None:
            repetitions = self.paper_repetitions()
        return RepeatedProtocol(self, repetitions)
