"""Soundness evaluation of dQMA protocols on concrete instances.

The paper's soundness statements bound the acceptance probability of a
no-instance over *all* proofs.  For the path protocols the library can compute
that supremum exactly on small instances (via the acceptance operator); for
the remaining protocols it searches over the natural structured cheating
strategies (fingerprint-valued product proofs) and reports the best found.

The strategy search evaluates its whole enumeration — up to
``max_assignments`` product proofs — ``batch_size`` strategies per engine
call.  On the Algorithm 3 path, the Algorithm 5 tree and the Theorem 32
trees it never builds those proofs: the registers' distinct states go into
one table, each strategy becomes the table row of every register, and the
protocol's ``strategy_batch`` compiles each chunk to
:class:`~repro.engine.jobs.StrategyBatch` objects whose values multiply to
each strategy's acceptance: one per chunk on a path, one per verification
tree on a tree, each with the protocol's honest job as its template.
Because every SWAP test of a chain couples only adjacent registers, the
transfer-matrix backend scores a path batch from per-register tables (one
Gram of the batch's states for a clean chunk, the densities of its registers
and the traces of the pairs its strategies read for a noisy one), and it
gathers a tree batch's row stacks from the table into its ordinary tree
group evaluator.  Both routes give the per-proof route's values to the bit;
only the winner's label and :class:`~repro.protocols.base.ProductProof` are
built.  Protocols without a batch compiler, without proof registers, and
instances that do not compile (``strategy_batch`` returns ``None``: an
oversized fan-out, an undescribable leaf measurement, or many-factor
one-way messages) compile one proof per strategy into batched
``acceptance_probabilities`` calls.

The search is two steps.  :func:`compile_strategy_search` runs once per
instance: the candidates, node order and combos, the state table with its
strategy rows, and the honest proof.  :func:`score_strategy_search` runs
once per protocol sharing that layout — the same proof registers and
fingerprint scheme, as every ``with_noise`` sibling has — and refuses any
other protocol with :class:`~repro.exceptions.ProtocolError`.
:func:`fingerprint_strategy_soundness` is the two steps on the protocol it
is given; the noisy soundness sweeps compile once per instance and score
every noise point's sibling (:mod:`repro.experiments.noisy_soundness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.adversary import seesaw_separable_acceptance
from repro.engine.array_ops import parity_tolerance
from repro.exceptions import ProtocolError, ReproError
from repro.protocols.base import DQMAProtocol, ProductProof, ProofRegister, unit_proof_state
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_integer

#: Number of cheating strategies evaluated per batched engine call.
STRATEGY_BATCH_SIZE = 256


def paper_bound_slack(dtype=None) -> float:
    """Numerical slack granted when checking acceptances against paper bounds.

    Derived from the contraction dtype's parity tolerance (``REPRO_DTYPE``
    when ``dtype`` is ``None``): a complex64 evaluation is only accurate to
    1e-5, so holding it to the old hard-coded ``1e-9`` slack flagged
    spurious bound violations.
    """
    return parity_tolerance(dtype)


def _protocol_dtype(protocol: DQMAProtocol):
    """The contraction dtype of the protocol's engine backend (or ``None``).

    ``None`` means the backend declares no dtype (the dense reference
    backend, which contracts in complex128) — callers fall back to the
    environment's active dtype via :func:`paper_bound_slack`.
    """
    engine = getattr(protocol, "engine", None)
    return getattr(getattr(engine, "backend", None), "dtype", None)


@dataclass(frozen=True)
class StrategySearchResult:
    """Outcome of a cheating-strategy search.

    Iterable as ``(best_acceptance, best_proof)`` for backwards
    compatibility with the original two-tuple return.
    """

    best_acceptance: float
    best_proof: Optional[ProductProof]
    best_strategy: str
    num_assignments: int

    def __iter__(self) -> Iterator:
        return iter((self.best_acceptance, self.best_proof))


@dataclass(frozen=True)
class SoundnessReport:
    """Summary of a soundness experiment on one no-instance."""

    inputs: Tuple[str, ...]
    honest_acceptance: float
    best_found_acceptance: float
    optimal_entangled_acceptance: Optional[float]
    paper_bound: Optional[float]
    #: Label of the strategy achieving ``best_found_acceptance`` (``"honest"``,
    #: a per-node string assignment, or ``"seesaw"``) — makes table output
    #: auditable.
    best_strategy: Optional[str] = None
    #: Numerical slack of :attr:`respects_paper_bound`.  ``None`` derives it
    #: from the active contraction dtype at check time (see
    #: :func:`paper_bound_slack`); report builders pin the evaluating
    #: backend's dtype tolerance here instead.
    bound_slack: Optional[float] = None

    @property
    def respects_paper_bound(self) -> bool:
        """True when every measured acceptance stays below the paper's bound.

        The comparison grants the contraction dtype's parity tolerance as
        slack (1e-9 in complex128, 1e-5 in complex64) — a reduced-precision
        evaluation must not flag a bound violation its own rounding caused.
        """
        if self.paper_bound is None:
            return True
        observed = self.best_found_acceptance
        if self.optimal_entangled_acceptance is not None:
            observed = max(observed, self.optimal_entangled_acceptance)
        slack = self.bound_slack if self.bound_slack is not None else paper_bound_slack()
        return observed <= self.paper_bound + slack


def _strategy_label(nodes: Sequence, combo: Sequence[str]) -> str:
    return ",".join(f"{node}={string}" for node, string in zip(nodes, combo))


@dataclass(frozen=True, eq=False)
class CompiledStrategySearch:
    """A fingerprint strategy search compiled for one instance layout.

    :func:`compile_strategy_search` builds it once per instance: the
    candidates' node order and combos, the honest proof, and — for a
    protocol with a batch compiler — the state table with one row of table
    indices per strategy.  :func:`score_strategy_search` scores it on any
    protocol sharing that layout (the same proof registers and fingerprint
    scheme), such as every ``with_noise`` sibling of a noise sweep.
    """

    inputs: Tuple[str, ...]
    registers: Tuple[ProofRegister, ...]
    fingerprint_token: Tuple
    #: The registers a strategy fills with its node's candidate fingerprint.
    fingerprint_registers: Tuple[ProofRegister, ...]
    nodes: Tuple
    combos: Tuple[Tuple[str, ...], ...]
    honest: ProductProof
    honest_states: Dict[str, np.ndarray]
    #: Raw candidate fingerprints; a proof normalises them as it stores them.
    candidate_states: Dict[str, np.ndarray]
    #: ``(table, strategies)`` of :func:`_strategy_table`, or ``None`` for a
    #: protocol without a batch compiler or without proof registers.
    table: Optional[Tuple[np.ndarray, np.ndarray]]
    batch_size: int

    def proof(self, index: int) -> ProductProof:
        """Strategy ``index`` as a proof: the honest proof, then each combo."""
        if index == 0:
            return self.honest
        node_string = dict(zip(self.nodes, self.combos[index - 1]))
        # One ProductProof construction per strategy (not a replaced() chain,
        # which would re-normalize every register once per replacement).
        states = dict(self.honest_states)
        for register in self.fingerprint_registers:
            states[register.name] = self.candidate_states[node_string[register.node]]
        return ProductProof(states)

    def label(self, index: int) -> str:
        """Strategy ``index``'s label: ``"honest"`` or its per-node assignment."""
        if index == 0:
            return "honest"
        return _strategy_label(self.nodes, self.combos[index - 1])


def compile_strategy_search(
    protocol: DQMAProtocol,
    inputs: Sequence[str],
    candidate_strings: Optional[Iterable[str]] = None,
    max_assignments: int = 4096,
    batch_size: int = STRATEGY_BATCH_SIZE,
) -> CompiledStrategySearch:
    """The strategy search of :func:`fingerprint_strategy_soundness`, compiled.

    Validates the search sizes before touching ``protocol``, enumerates the
    per-node candidate assignments and tabulates their register states once;
    :func:`score_strategy_search` then evaluates them on ``protocol`` or on
    any protocol sharing its layout.
    """
    require_positive_integer(max_assignments, "max_assignments")
    batch = require_positive_integer(batch_size, "batch_size")
    fingerprints = getattr(protocol, "fingerprints", None)
    if fingerprints is None:
        raise ProtocolError("fingerprint strategy search needs a fingerprint-based protocol")
    inputs = tuple(inputs)
    if candidate_strings is None:
        candidate_strings = list(dict.fromkeys(inputs))
    candidates = list(dict.fromkeys(candidate_strings))

    honest = protocol.honest_proof(inputs)
    registers = tuple(protocol.proof_registers())
    fingerprint_registers = tuple(reg for reg in registers if reg.dim == fingerprints.dim)
    nodes = tuple(sorted({reg.node for reg in fingerprint_registers}, key=str))

    assignments = len(candidates) ** len(nodes)
    if assignments > max_assignments:
        raise ProtocolError(
            f"{assignments} candidate assignments exceed the search limit {max_assignments}"
        )

    # The candidate fingerprints are computed once up front.
    candidate_states = {string: fingerprints.state(string) for string in candidates}
    honest_states = {name: honest.state(name) for name in honest.register_names}
    combos = tuple(iter_product(candidates, repeat=len(nodes)))
    table = None
    if registers and getattr(protocol, "strategy_batch", None) is not None:
        table = _strategy_table(
            combos, candidate_states, honest_states, registers, nodes, fingerprints.dim
        )
    return CompiledStrategySearch(
        inputs=inputs,
        registers=registers,
        fingerprint_token=fingerprints.cache_token,
        fingerprint_registers=fingerprint_registers,
        nodes=nodes,
        combos=combos,
        honest=honest,
        honest_states=honest_states,
        candidate_states=candidate_states,
        table=table,
        batch_size=batch,
    )


def score_strategy_search(
    search: CompiledStrategySearch, protocol: DQMAProtocol
) -> StrategySearchResult:
    """Best strategy of a compiled search, evaluated on ``protocol`` as built.

    ``protocol`` must share the layout the search was compiled on — the same
    proof registers and fingerprint scheme, as every ``with_noise`` sibling
    does — or :class:`~repro.exceptions.ProtocolError` is raised.  Strategy 0
    is the honest proof, strategy ``1 + i`` the combo ``i``; the first maximum
    in that order wins.  With a table, each ``batch_size`` chunk compiles
    through ``protocol.strategy_batch`` into one strategy-batch engine call;
    where that returns ``None`` (or there is no table), one proof per
    strategy goes through batched ``acceptance_probabilities`` calls.
    """
    fingerprints = getattr(protocol, "fingerprints", None)
    if (
        fingerprints is None
        or fingerprints.cache_token != search.fingerprint_token
        or tuple(protocol.proof_registers()) != search.registers
    ):
        raise ProtocolError(
            "the strategy search was compiled for another layout: score it on a protocol "
            "with the same proof registers and fingerprints (a with_noise sibling)"
        )
    inputs, batch = search.inputs, search.batch_size
    table_chunks = None
    if search.table is not None:
        table, strategies = search.table
        table_chunks = [
            protocol.strategy_batch(inputs, table, strategies[start : start + batch])
            for start in range(0, len(strategies), batch)
        ]
    if table_chunks and table_chunks[0] is not None:
        best_index, best_value = _best_strategy(
            protocol.engine.strategy_probabilities(batches) for batches in table_chunks
        )
        best_proof = search.proof(best_index)
    else:
        proofs: List[ProductProof] = [
            search.proof(index) for index in range(1 + len(search.combos))
        ]
        proof_chunks = [proofs[start : start + batch] for start in range(0, len(proofs), batch)]
        best_index, best_value = _best_strategy(
            protocol.acceptance_probabilities([inputs] * len(chunk), proofs=chunk)
            for chunk in proof_chunks
        )
        best_proof = proofs[best_index]
    return StrategySearchResult(
        best_acceptance=float(best_value),
        best_proof=best_proof,
        best_strategy=search.label(best_index),
        num_assignments=len(search.combos),
    )


def fingerprint_strategy_soundness(
    protocol: DQMAProtocol,
    inputs: Sequence[str],
    candidate_strings: Optional[Iterable[str]] = None,
    max_assignments: int = 4096,
    batch_size: int = STRATEGY_BATCH_SIZE,
) -> StrategySearchResult:
    """Best acceptance over proofs built from fingerprints of candidate strings.

    This is the natural cheating family for the fingerprint-based protocols:
    the prover fills every fingerprint-sized register with the fingerprint of
    some string (defaulting to the instance's own inputs), and any classical
    index / direction / relay registers with their honest contents.  The
    search enumerates assignments where all registers of a node share one
    string (the strategies the paper's soundness analyses reason about) and
    evaluates them through the engine's batched API, ``batch_size``
    strategies per engine call: as table-indexed strategy batches for a
    protocol whose ``strategy_batch`` compiles the instance (the Algorithm 3
    path and the Algorithm 5 and Theorem 32 trees), as one
    :class:`ProductProof` each otherwise.  The first maximum in enumeration
    order wins; ``batch_size`` and ``max_assignments`` must be positive
    integers.  The result is a structured-search value: a *lower* bound on
    the best cheating acceptance over all proofs, never a certificate that
    no better cheat exists.

    The search is :func:`compile_strategy_search` followed by
    :func:`score_strategy_search` on ``protocol``; a sweep over noise models
    compiles once and scores each ``with_noise`` sibling instead.  The
    search evaluates the protocol as built: one constructed with a noise
    model, or a :meth:`~repro.protocols.base.DQMAProtocol.with_noise`
    sibling, runs every strategy on the engine's density-matrix path
    (``ChainNoise``/``TreeNoise``-annotated jobs), so the search reports the
    best structured cheat *under* that model.
    """
    search = compile_strategy_search(
        protocol, inputs, candidate_strings, max_assignments, batch_size
    )
    return score_strategy_search(search, protocol)


def _best_strategy(chunks: Iterable[np.ndarray]) -> Tuple[int, float]:
    """``(index, value)`` of the first maximum over consecutive chunks of values."""
    best_value = -1.0
    best_index = 0
    start = 0
    for values in chunks:
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_index = start + local
        start += len(values)
    return best_index, best_value


def _strategy_table(
    combos: Sequence[Sequence[str]],
    candidate_states: Dict[str, np.ndarray],
    honest_states: Dict[str, np.ndarray],
    registers: Sequence[ProofRegister],
    nodes: Sequence,
    dim: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The search's register states as ``(table, strategies)``.

    ``table`` holds each distinct unit register state once: the honest
    registers as the honest proof holds them, and every candidate normalised
    as a :class:`ProductProof` would.  ``strategies[s, i]`` is the table row
    strategy ``s`` places in register ``i``: the honest proof, then each
    per-node string assignment of ``combos``.
    """
    rows: Dict[bytes, int] = {}
    states: List[np.ndarray] = []

    def row(state: np.ndarray) -> int:
        key = state.tobytes()
        if key not in rows:
            rows[key] = len(states)
            states.append(state)
        return rows[key]

    honest_rows = np.array([row(honest_states[reg.name]) for reg in registers], dtype=np.intp)
    candidate_rows = {
        string: row(unit_proof_state(state, f"fingerprint of {string!r}"))
        for string, state in candidate_states.items()
    }
    node_rows = np.array(
        [[candidate_rows[string] for string in combo] for combo in combos], dtype=np.intp
    ).reshape(len(combos), len(nodes))
    fingerprint_columns = [i for i, reg in enumerate(registers) if reg.dim == dim]
    node_of = [nodes.index(registers[i].node) for i in fingerprint_columns]
    strategies = np.tile(honest_rows, (1 + len(combos), 1))
    strategies[1:, fingerprint_columns] = node_rows[:, node_of]
    return np.array(states), strategies


def entangled_soundness_report(
    protocol: DQMAProtocol,
    inputs: Sequence[str],
    paper_bound: Optional[float] = None,
    run_seesaw: bool = False,
    rng: RngLike = None,
) -> SoundnessReport:
    """Full soundness report for a (small) path-protocol instance.

    Includes the honest-proof acceptance, the best structured product proof
    found (with the strategy label that achieved it), and — when the protocol
    exposes ``optimal_cheating_probability`` — the exact optimum over
    entangled proofs, optionally cross-checked against the seesaw separable
    optimum.  The seesaw needs the dense acceptance operator, so it is
    skipped on instances past the dense builder's size guard.

    Every quantity is read from ``protocol`` as built.  Under a noise model
    (given at construction or through ``with_noise``) the honest and
    strategy-search acceptances ride the engine's density-matrix path, the
    entangled optimum is the top eigenvalue of the channel-conjugated
    operator, and the seesaw bounds the noisy *separable* adversary from
    below.  The paper bound stays the noiseless protocol's bound: the report
    asks whether realistic hardware still respects the ideal soundness
    statement.
    """
    inputs = tuple(inputs)
    honest_acceptance = protocol.acceptance_probability(inputs, None)
    try:
        search = fingerprint_strategy_soundness(protocol, inputs)
        best_found = search.best_acceptance
        best_strategy: Optional[str] = search.best_strategy
    except ProtocolError:
        best_found = honest_acceptance
        best_strategy = "honest"

    optimal = None
    optimum = getattr(protocol, "optimal_cheating_probability", None)
    if optimum is not None:
        # Past the optimum's dimension guard the report degrades to the
        # structured search alone (optimal_entangled stays None).
        try:
            optimal = optimum(inputs)
        except ProtocolError:
            pass
    if optimal is not None and run_seesaw:
        try:
            operator = protocol.acceptance_operator(inputs)
        except ProtocolError:
            operator = None  # past the dense builder's guard: no seesaw
        if operator is not None:
            dims = [register.dim for register in protocol.proof_registers()]
            seesaw_value, _ = seesaw_separable_acceptance(operator, dims, rng=ensure_rng(rng))
            if seesaw_value > best_found:
                best_found = seesaw_value
                best_strategy = "seesaw"

    if paper_bound is None and hasattr(protocol, "single_shot_soundness_gap"):
        paper_bound = 1.0 - protocol.single_shot_soundness_gap()

    return SoundnessReport(
        inputs=inputs,
        honest_acceptance=honest_acceptance,
        best_found_acceptance=best_found,
        optimal_entangled_acceptance=optimal,
        paper_bound=paper_bound,
        best_strategy=best_strategy,
        bound_slack=paper_bound_slack(_protocol_dtype(protocol)),
    )


def repetition_soundness(single_shot_acceptance: float, repetitions: int) -> float:
    """Acceptance of a no-instance after parallel repetition: ``p^k``.

    For product proofs the copies are independent, so the best cheating
    probability of the repeated protocol is the single-shot optimum raised to
    the number of repetitions — the quantity driving the Algorithm 4 analysis.
    ``repetitions`` must be a positive integer.
    """
    try:
        require_positive_integer(repetitions, "repetition count")
    except ReproError as error:
        raise ProtocolError(str(error)) from None
    p = min(max(single_shot_acceptance, 0.0), 1.0)
    return float(p**repetitions)
