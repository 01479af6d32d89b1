"""Common framework shared by every distributed verification protocol.

The central abstractions are

``ProofRegister``
    A named proof register the prover sends to a specific node.
``ProductProof``
    An assignment of a pure state to every proof register (the proofs that
    honest provers send, and the separable proofs of the ``dQMA_sep,sep``
    model).
``DQMAProtocol``
    The protocol interface: register layout, honest proof, exact acceptance
    probability for product proofs, Monte-Carlo runs, and cost accounting.
``RepeatedProtocol``
    Generic parallel repetition (the paper's Algorithm 4 pattern): a node of
    the repeated protocol accepts iff it accepts in every copy.

Noise-capable protocols (equality on paths and trees, the relay protocol)
additionally accept a :class:`~repro.quantum.channels.NoiseModel`, map it
onto their layout as engine-level channel annotations, and attach those to
the jobs of their acceptance programs (:func:`annotated_program` for the
cached clean honest programs); the base class needs no noise hooks because
the annotations live on the compiled jobs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from math import ceil, log2
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.comm.problems import Problem
from repro.engine import (
    Engine,
    StrategyBatch,
    TreeProgram,
    default_engine,
    get_backend,
)
from repro.engine.jobs import Job
from repro.exceptions import ProofError, ProtocolError, ReproError
from repro.network.topology import Network, NodeId
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_integer


@dataclass(frozen=True)
class ProofRegister:
    """A proof register: its name, the node that receives it, and its dimension."""

    name: str
    node: NodeId
    dim: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ProofError("proof register name must be non-empty")
        if self.dim <= 0:
            raise ProofError(f"register {self.name!r} must have positive dimension")

    @property
    def qubits(self) -> float:
        """Number of qubits of the register."""
        return float(log2(self.dim))


def unit_proof_state(state: np.ndarray, what: str) -> np.ndarray:
    """``state`` as the unit complex vector a :class:`ProductProof` stores.

    Raises :class:`~repro.exceptions.ProofError` naming ``what`` for the zero
    vector.  Strategy searches normalise their candidate states through this
    same expression, so a table row holds exactly the bits a proof would.
    """
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ProofError(f"{what} is the zero vector")
    return vec / norm


def template_strategy_batch(
    template: Job,
    row_registers: Mapping[int, Tuple[str, ...]],
    registers: Sequence[ProofRegister],
    table: np.ndarray,
    register_rows: np.ndarray,
) -> StrategyBatch:
    """Strategies over ``registers`` as a :class:`~repro.engine.jobs.StrategyBatch` of ``template``.

    ``template`` is the protocol's honest chain or tree job, carrying its
    noise annotation.  ``row_registers`` maps each proof row of the template
    to the names of the registers filling it (one register per row: the
    batch has one tensor factor); ``register_rows[b, i]`` is the ``table``
    row strategy ``b`` places in ``registers[i]``.  Each proof row then
    takes its register's column of ``register_rows``; the batch checks the
    table's dimension and the rows it names.
    """
    register_rows = np.asarray(register_rows)
    if register_rows.ndim != 2 or register_rows.shape[1] != len(registers):
        raise ProofError(f"every strategy must assign the {len(registers)} proof registers")
    column = {register.name: index for index, register in enumerate(registers)}
    rows = sorted(row_registers)
    columns = np.array([column[row_registers[row][0]] for row in rows], dtype=np.intp)
    return StrategyBatch(
        template, table, register_rows[:, columns], np.array(rows, dtype=np.intp)
    )


Program = TypeVar("Program", bound=TreeProgram)


def annotated_program(program: Program, noises: Sequence[Any]) -> Program:
    """``program`` with job ``i`` carrying the channel annotation ``noises[i]``.

    Each entry is ``None`` or an annotation of its job's family (a
    :class:`~repro.engine.jobs.ChainNoise` or a
    :class:`~repro.engine.jobs.TreeNoise`).  ``with_noise`` siblings share
    one clean honest program per layout and inputs (cached on the engine)
    and attach their own annotations here, so the engine receives the jobs
    a noisy compile would build, with the same arrays.  Each job's
    ``with_noise`` checks only the annotation, never the unchanged
    structure again.  Returns ``program`` itself when every entry is
    ``None``.
    """
    if all(noise is None for noise in noises):
        return program
    return type(program)(
        jobs=tuple(
            job if noise is None else job.with_noise(noise)
            for job, noise in zip(program.jobs, noises)
        ),
        terms=program.terms,
    )


class ProductProof:
    """A proof that is a product state across proof registers."""

    def __init__(self, states: Mapping[str, np.ndarray]):
        self._states: Dict[str, np.ndarray] = {
            name: unit_proof_state(state, f"proof state for register {name!r}")
            for name, state in states.items()
        }

    def state(self, name: str) -> np.ndarray:
        """The proof state assigned to the named register."""
        if name not in self._states:
            raise ProofError(f"proof has no state for register {name!r}")
        return self._states[name].copy()

    def has(self, name: str) -> bool:
        """True when the proof assigns a state to the named register."""
        return name in self._states

    @property
    def register_names(self) -> Tuple[str, ...]:
        """Names of the registers this proof covers."""
        return tuple(self._states.keys())

    def validate_against(self, registers: Sequence[ProofRegister]) -> None:
        """Check that the proof covers exactly the protocol's registers with matching dims."""
        expected = {reg.name: reg.dim for reg in registers}
        for name, dim in expected.items():
            if name not in self._states:
                raise ProofError(f"proof is missing register {name!r}")
            if self._states[name].size != dim:
                raise ProofError(
                    f"proof state for register {name!r} has dimension "
                    f"{self._states[name].size}, expected {dim}"
                )
        extra = set(self._states) - set(expected)
        if extra:
            raise ProofError(f"proof contains unknown registers: {sorted(extra)}")

    def replaced(self, name: str, state: np.ndarray) -> "ProductProof":
        """A copy of the proof with one register's state replaced."""
        states = dict(self._states)
        states[name] = state
        return ProductProof(states)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one Monte-Carlo run of a protocol."""

    accepted: bool
    acceptance_probability: float
    node_outcomes: Dict[NodeId, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class CostSummary:
    """Cost of a protocol instance, in qubits (or bits for classical protocols)."""

    local_proof: float
    total_proof: float
    local_message: float
    total_message: float
    rounds: int = 1

    @property
    def proof_plus_communication(self) -> float:
        """The quantity bounded by the Section 8 lower bounds."""
        return self.total_proof + self.total_message


class DQMAProtocol(ABC):
    """Interface of every distributed Merlin-Arthur protocol in the library.

    Acceptance probabilities are computed through a pluggable simulation
    engine (:mod:`repro.engine`).  Protocols whose verification reduces to a
    symmetrized SWAP-test chain or a tree of SWAP/permutation tests implement
    :meth:`_acceptance_program`, compiling each instance to a
    :class:`~repro.engine.jobs.ChainProgram` / :class:`~repro.engine.jobs.
    TreeProgram`; the base class then provides both the scalar
    :meth:`acceptance_probability` and the batched
    :meth:`acceptance_probabilities` by delegating to the engine, which
    stacks every job of a batch into one backend contraction per job type.

    Instances that do not compile (a different verification structure, or a
    fan-out beyond the engine's enumeration limits) return ``None`` from
    :meth:`_acceptance_program` and evaluate through
    :meth:`_scalar_acceptance_probability` — either the protocol's dedicated
    scalar implementation or, for protocols that never compile, their direct
    :meth:`acceptance_probability` override.
    """

    def __init__(self, problem: Problem, network: Network):
        self.problem = problem
        self.network = network
        self._engine: Optional[Engine] = None
        if len(network.terminals) != problem.num_inputs:
            raise ProtocolError(
                f"problem {problem.name} has {problem.num_inputs} inputs but the "
                f"network has {len(network.terminals)} terminals"
            )

    # -- engine ------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The simulation engine (the process-wide default unless injected)."""
        return self._engine if self._engine is not None else default_engine()

    def use_engine(self, engine) -> "DQMAProtocol":
        """Inject an :class:`Engine` (or a backend name / instance); returns ``self``."""
        if engine is None or isinstance(engine, Engine):
            self._engine = engine
        else:
            self._engine = Engine(backend=get_backend(engine))
        return self

    def with_noise(self, noise) -> "DQMAProtocol":
        """A sibling protocol evaluating under the given noise model.

        Noise-capable protocols override this to return a sibling that
        shares their layout and injected engine and maps only the model onto
        the network; the noise sweeps and the noisy-soundness analyses rely
        on it to move honest programs and strategy batches onto the engine's
        density-matrix path.
        """
        raise ProtocolError(
            f"{type(self).__name__} does not support noise models; "
            "noisy evaluation needs a protocol with a with_noise override"
        )

    # -- abstract ----------------------------------------------------------

    @abstractmethod
    def proof_registers(self) -> List[ProofRegister]:
        """The proof registers the prover sends, with their receiving nodes."""

    @abstractmethod
    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        """The honest prover's proof for the given inputs.

        For yes-instances the returned proof must achieve the protocol's
        completeness; for no-instances it is the prover's best "truthful"
        attempt and carries no guarantee.
        """

    # -- acceptance ---------------------------------------------------------

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> Optional[TreeProgram]:
        """The program computing this protocol's acceptance, if it compiles.

        Chain-reducible protocols return a :class:`ChainProgram`, tree-rooted
        protocols a :class:`TreeProgram`; families with a different
        verification structure (and instances beyond the engine's enumeration
        limits) return ``None`` and evaluate through
        :meth:`_scalar_acceptance_probability`.
        """
        return None

    def acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof] = None
    ) -> Optional[TreeProgram]:
        """Public accessor for the compiled acceptance program (or ``None``)."""
        return self._acceptance_program(inputs, proof)

    def _scalar_acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> float:
        """Fallback for instances that do not compile to a program."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _acceptance_program, "
            "_scalar_acceptance_probability or acceptance_probability"
        )

    def acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof] = None
    ) -> float:
        """Exact probability that *all* nodes accept, for a product proof.

        ``proof = None`` uses the honest proof.
        """
        program = self._acceptance_program(inputs, proof)
        if program is None:
            return self._scalar_acceptance_probability(inputs, proof)
        return self.engine.evaluate_program(program)

    def _proofs_for_batch(
        self,
        inputs_batch: Sequence[Sequence[str]],
        proofs: Optional[Sequence[Optional[ProductProof]]],
    ) -> List[Optional[ProductProof]]:
        if proofs is None:
            return [None] * len(inputs_batch)
        proofs = list(proofs)
        if len(proofs) != len(inputs_batch):
            raise ProtocolError(
                f"got {len(proofs)} proofs for {len(inputs_batch)} input tuples"
            )
        return proofs

    def acceptance_probabilities(
        self,
        inputs_batch: Sequence[Sequence[str]],
        proofs: Optional[Sequence[Optional[ProductProof]]] = None,
    ) -> np.ndarray:
        """Acceptance probability of every input tuple, evaluated as one batch.

        ``proofs`` is an optional per-item sequence (``None`` entries use the
        honest proof).  Program-compiling protocols (chains *and* trees)
        stack every job of the batch into a single backend contraction per
        job type; other protocols fall back to a scalar loop through the
        engine.
        """
        proofs = self._proofs_for_batch(inputs_batch, proofs)
        programs = [
            self._acceptance_program(inputs, proof)
            for inputs, proof in zip(inputs_batch, proofs)
        ]
        if programs and all(program is not None for program in programs):
            return self.engine.evaluate_programs(programs)
        return self.engine.map_scalar(
            lambda item: self.acceptance_probability(item[0], item[1]),
            zip(inputs_batch, proofs),
        )

    def run_many(
        self,
        inputs_batch: Sequence[Sequence[str]],
        proofs: Optional[Sequence[Optional[ProductProof]]] = None,
        rng: RngLike = None,
    ) -> List[RunResult]:
        """One Monte-Carlo run per input tuple, on batched exact probabilities."""
        generator = ensure_rng(rng)
        probabilities = self.acceptance_probabilities(inputs_batch, proofs)
        draws = generator.random(len(probabilities))
        return [
            RunResult(accepted=bool(draw < probability), acceptance_probability=float(probability))
            for draw, probability in zip(draws, probabilities)
        ]

    # -- cost accounting -----------------------------------------------------

    @property
    def rounds(self) -> int:
        """Number of verification rounds (all protocols in the paper use one)."""
        return 1

    def local_proof_qubits(self) -> float:
        """Largest total proof size received by a single node."""
        per_node: Dict[NodeId, float] = {}
        for register in self.proof_registers():
            per_node[register.node] = per_node.get(register.node, 0.0) + register.qubits
        return max(per_node.values()) if per_node else 0.0

    def total_proof_qubits(self) -> float:
        """Total proof size over all nodes."""
        return sum(register.qubits for register in self.proof_registers())

    def message_qubits(self) -> Dict[Tuple[NodeId, NodeId], float]:
        """Qubits sent over each edge during verification.

        Subclasses override :meth:`_messages`; the default derives messages
        from the proof layout (each forwarded register traverses one edge),
        which matches the path and tree protocols of the paper.
        """
        return self._messages()

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        return {}

    def local_message_qubits(self) -> float:
        """Largest number of qubits exchanged over a single edge."""
        messages = self.message_qubits()
        return max(messages.values()) if messages else 0.0

    def total_message_qubits(self) -> float:
        """Total qubits exchanged over all edges."""
        return sum(self.message_qubits().values())

    def cost_summary(self) -> CostSummary:
        """All cost figures of this protocol instance."""
        return CostSummary(
            local_proof=self.local_proof_qubits(),
            total_proof=self.total_proof_qubits(),
            local_message=self.local_message_qubits(),
            total_message=self.total_message_qubits(),
            rounds=self.rounds,
        )

    # -- execution -----------------------------------------------------------

    def run(
        self,
        inputs: Sequence[str],
        proof: Optional[ProductProof] = None,
        rng: RngLike = None,
    ) -> RunResult:
        """One Monte-Carlo run: draws the global accept/reject outcome."""
        generator = ensure_rng(rng)
        probability = self.acceptance_probability(inputs, proof)
        accepted = bool(generator.random() < probability)
        return RunResult(accepted=accepted, acceptance_probability=probability)

    def estimate_acceptance(
        self,
        inputs: Sequence[str],
        proof: Optional[ProductProof] = None,
        shots: int = 200,
        rng: RngLike = None,
    ) -> float:
        """Empirical acceptance frequency over independent runs."""
        shots = require_positive_integer(shots, "shots")
        generator = ensure_rng(rng)
        hits = sum(1 for _ in range(shots) if self.run(inputs, proof, generator).accepted)
        return hits / shots

    # -- convenience ----------------------------------------------------------

    def completeness_on(self, inputs: Sequence[str]) -> float:
        """Acceptance probability of the honest proof (should be high on yes-instances)."""
        return self.acceptance_probability(inputs, None)

    def validate_proof(self, proof: ProductProof) -> None:
        """Check a proof against this protocol's register layout."""
        proof.validate_against(self.proof_registers())


class RepeatedProtocol(DQMAProtocol):
    """Parallel repetition of a base protocol (the Algorithm 4 pattern).

    The prover supplies ``repetitions`` independent copies of the base proof;
    every node accepts iff it accepts in every copy.  For product proofs the
    acceptance probability is the product of the per-copy probabilities, which
    is exact because distinct copies share no registers.
    """

    def __init__(self, base: DQMAProtocol, repetitions: int):
        try:
            require_positive_integer(repetitions, "number of repetitions")
        except ReproError as error:
            raise ProtocolError(str(error)) from None
        super().__init__(base.problem, base.network)
        self.base = base
        self.repetitions = repetitions

    @staticmethod
    def _copy_name(name: str, copy: int) -> str:
        return f"{name}#rep{copy}"

    def with_noise(self, noise) -> "RepeatedProtocol":
        """Parallel repetition of the noisy sibling (copies stay independent)."""
        repeated = RepeatedProtocol(self.base.with_noise(noise), self.repetitions)
        repeated._engine = self._engine
        return repeated

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        for copy in range(self.repetitions):
            for register in self.base.proof_registers():
                registers.append(
                    ProofRegister(self._copy_name(register.name, copy), register.node, register.dim)
                )
        return registers

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        base_proof = self.base.honest_proof(inputs)
        states = {}
        for copy in range(self.repetitions):
            for name in base_proof.register_names:
                states[self._copy_name(name, copy)] = base_proof.state(name)
        return ProductProof(states)

    def _split_proof(self, proof: ProductProof) -> List[ProductProof]:
        copies = []
        base_names = [register.name for register in self.base.proof_registers()]
        for copy in range(self.repetitions):
            states = {name: proof.state(self._copy_name(name, copy)) for name in base_names}
            copies.append(ProductProof(states))
        return copies

    def acceptance_probability(
        self, inputs: Sequence[str], proof: Optional[ProductProof] = None
    ) -> float:
        if proof is None:
            # Honest copies are identical, so one base evaluation suffices;
            # this (with the engine's operator caching underneath) is what
            # keeps the paper's O(r^2)-repetition protocols cheap to run.
            return float(self.base.acceptance_probability(inputs, None) ** self.repetitions)
        copies = self._split_proof(proof)
        probabilities = self.base.acceptance_probabilities(
            [inputs] * self.repetitions, proofs=copies
        )
        return float(np.prod(probabilities))

    def acceptance_probabilities(
        self,
        inputs_batch: Sequence[Sequence[str]],
        proofs: Optional[Sequence[Optional[ProductProof]]] = None,
    ) -> np.ndarray:
        proofs = self._proofs_for_batch(inputs_batch, proofs)
        if all(proof is None for proof in proofs):
            base_probabilities = self.base.acceptance_probabilities(inputs_batch)
            return base_probabilities**self.repetitions
        # Flatten (item, copy) into one base-protocol batch.
        flat_inputs: List[Sequence[str]] = []
        flat_proofs: List[Optional[ProductProof]] = []
        for inputs, proof in zip(inputs_batch, proofs):
            copies = [None] * self.repetitions if proof is None else self._split_proof(proof)
            flat_inputs.extend([inputs] * self.repetitions)
            flat_proofs.extend(copies)
        flat = self.base.acceptance_probabilities(flat_inputs, proofs=flat_proofs)
        return flat.reshape(len(inputs_batch), self.repetitions).prod(axis=1)

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        base_messages = self.base.message_qubits()
        return {edge: qubits * self.repetitions for edge, qubits in base_messages.items()}

    @property
    def rounds(self) -> int:
        return self.base.rounds


def soundness_repetitions(single_shot_gap: float, target_error: float = 1.0 / 3.0) -> int:
    """Number of parallel repetitions needed to push soundness below ``target_error``.

    If one copy accepts a no-instance with probability at most ``1 - gap``,
    ``k`` copies accept with probability at most ``(1 - gap)^k``; the paper
    uses ``k = ceil(2 / gap)`` to reach ``e^{-2} < 1/3`` (Section 3.2).
    """
    if not (0.0 < single_shot_gap <= 1.0):
        raise ProtocolError("single-shot gap must lie in (0, 1]")
    if not (0.0 < target_error < 1.0):
        raise ProtocolError("target error must lie in (0, 1)")
    repetitions = ceil(np.log(target_error) / np.log(max(1.0 - single_shot_gap, 1e-12)))
    return max(int(repetitions), 1)
