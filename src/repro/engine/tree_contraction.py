"""Leaf-to-root contraction of :class:`~repro.engine.jobs.TreeJob` instances.

Acceptance of a tree job is the expectation, over the independent per-node
randomness (symmetrization bits, router assignments), of the product of all
local test factors.  Because every factor couples a node only with its
children, the expectation factorizes leaf-to-root: each node passes its
parent a small vector ``W[choice]`` — the probability-weighted acceptance of
its whole subtree, marginalized to the one piece of local randomness the
parent can still see (which register is forwarded up, or which register is
kept).  This replaces the exponential joint-pattern enumeration of the
pre-engine protocol code with ``O(sum_v choices_v * prod_children choices)``
work.

Every register row has a *kept* form (its owner's node channel applied) and
a *sent* form (the owner's up-link channel on top), and every test reads
Hilbert-Schmidt traces ``Tr(rho sigma)`` of those forms, factorized over
the tensor factors of the registers: a SWAP test accepts with
``1/2 + 1/2 Tr(rho sigma)``, a permutation test of arity ``k`` with the
cycle expansion ``Tr(P_sym rho_1 x ... x rho_k) = (1/k!) sum_pi
prod_cycles Tr(prod rho)``, and every local factor passes the readout-error
flip.  A clean job (no :class:`~repro.engine.jobs.TreeNoise`, or a
structurally empty one) is the noisy job with no channels and perfect
readout: each row is its pure projector, sent as kept, so the traces are
squared overlaps.

Two independent evaluators implement these semantics:

:func:`tree_acceptance_probability`
    The scalar reference: one job, per-factor density matrices built with
    plain Kraus sums, and plain Python loops — the semantics the batched
    path is tested against.

:func:`tree_probabilities_batched`
    Groups jobs by structure signature and evaluates each group in one
    :class:`_GroupContext`.  A clean group stacks its registers into one
    array per tensor factor and reads every pair trace out of one batched
    Gram product per factor, like a clean chain group; a noisy group builds
    one density per distinct kept or sent register form of the batch and
    one trace per distinct pair of them, the tables noisy chain groups use
    (:func:`repro.engine.kernels.density_table`, :func:`~repro.engine.
    kernels.pair_traces`).  The same leaf-to-root recursion then runs
    vectorized over the batch axis.  The Gram products and pair traces
    route through :mod:`repro.engine.kernels`, so they run on any
    :class:`~repro.engine.array_ops.ArrayModule` (numpy / torch / the
    transfer-counting mock) in the configured contraction dtype; the
    recursion itself accumulates in host float64.
    :func:`tree_strategy_probabilities_batched` runs the same group
    evaluator on the row stack a tree :class:`~repro.engine.jobs.
    StrategyBatch` gathers from its state table, in place of the stack of
    its jobs.

The two share only the tree bookkeeping (choices, row owners, cycle
decompositions, the threshold tail); each computes its own accept factors,
so a slip in one of them shows up in the parity tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.array_ops import ArrayModule, get_array_module, resolve_dtype
from repro.engine.jobs import (
    MEAS_DENSE,
    MEAS_DIAGONAL,
    MEAS_MATCH_ANY,
    MEAS_PROJECTOR,
    MEAS_SWAP,
    NODE_FIXED,
    NODE_SYM,
    TEST_FANOUT,
    TEST_MEASURE,
    TEST_NONE,
    LeafMeasurement,
    StrategyBatch,
    TreeJob,
    TreeNoise,
    assignment_count,
    group_tree_jobs_by_signature,
    router_assignments,
)
from repro.engine import kernels
from repro.exceptions import ProtocolError
from repro.quantum.channels import KrausChannel, flip_probability


# --------------------------------------------------------------------------
# Shared tree bookkeeping
# --------------------------------------------------------------------------


def _threshold_tail(match_probabilities: np.ndarray, threshold: int) -> np.ndarray:
    """``P[#successes >= threshold]`` of independent checks, vectorized.

    ``match_probabilities`` has shape ``(F,) + tail``; the Poisson-binomial
    recursion runs over the first axis and broadcasts over the rest.
    """
    probs = np.asarray(match_probabilities, dtype=np.float64)
    distribution = np.zeros((probs.shape[0] + 1,) + probs.shape[1:])
    distribution[0] = 1.0
    for p in probs:
        shifted = np.zeros_like(distribution)
        shifted[1:] += distribution[:-1] * p
        shifted[:-1] += distribution[:-1] * (1.0 - p)
        distribution = shifted
    return np.clip(distribution[threshold:].sum(axis=0), 0.0, 1.0)


def _up_choices(job: TreeJob, node: int) -> List[Tuple[float, Optional[int], Optional[int]]]:
    """Per-choice ``(probability, kept_row, forwarded_row)`` of an up-family node."""
    slots = job.slots[node]
    if job.kinds[node] == NODE_SYM:
        return [(0.5, slots[0], slots[1]), (0.5, slots[1], slots[0])]
    row = slots[0] if slots else None
    return [(1.0, row, row)]


def _require_row(row: Optional[int], node: int) -> int:
    if row is None:
        raise ProtocolError(f"tree node {node} holds no register to forward")
    return row


def _is_down_family(job: TreeJob) -> bool:
    return any(test == TEST_FANOUT for test in job.tests)


def _row_owners(job: TreeJob) -> List[Optional[int]]:
    """The node owning each state row, for channel assignment.

    Register rows belong to the node whose slots hold them; a vector
    measurement's target row belongs to the measuring node, so that node's
    *node channel* models preparation noise of the verifier's reference
    state (target rows are only ever read in kept space — their sent form
    is never used, and measuring nodes forward nothing).
    """
    owners: List[Optional[int]] = [None] * job.factors[0].shape[0]
    for node, slots in enumerate(job.slots):
        for row in slots:
            owners[row] = node
    for node, measurement in enumerate(job.measurements):
        if measurement is not None and measurement.target_row is not None:
            owners[measurement.target_row] = node
    return owners


@lru_cache(maxsize=32)
def _permutation_cycle_sets(arity: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Cycle decomposition of every permutation of ``S_arity`` (cached)."""
    decompositions = []
    for permutation in iter_permutations(range(arity)):
        seen = [False] * arity
        cycles = []
        for start in range(arity):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            follow = permutation[start]
            while follow != start:
                cycle.append(follow)
                seen[follow] = True
                follow = permutation[follow]
            cycles.append(tuple(cycle))
        decompositions.append(tuple(cycles))
    return tuple(decompositions)


# --------------------------------------------------------------------------
# Scalar reference
# --------------------------------------------------------------------------

#: A register as per-tensor-factor density matrices.
_Register = List[np.ndarray]


def _scalar_densities(job: TreeJob) -> Tuple[List[_Register], List[_Register]]:
    """Per-row *(kept, sent)* registers, via plain Kraus sums.

    ``kept[r]`` is register ``r`` after its owner's node channel;
    ``sent[r]`` additionally passes the owner's up-link channel.  Without
    channels a row is its pure projector, sent as kept.  A measurement
    target row is owned by its measuring node (see :func:`_row_owners`).
    """
    noise = job.noise
    kept: List[_Register] = []
    sent: List[_Register] = []
    for row, owner in enumerate(_row_owners(job)):
        node_channel = up_channel = None
        if noise is not None and owner is not None:
            node_channel = noise.node_channels[owner]
            up_channel = noise.up_channels[owner]
        kept.append([])
        sent.append([])
        for stack in job.factors:
            # Host-side allowlist: the scalar reference builds host densities
            # (Kraus channels act on host complex128 by design).
            rho = np.outer(stack[row], stack[row].conj())  # repro-lint: disable=device-purity
            if node_channel is not None:
                rho = node_channel.apply(rho)
            kept[-1].append(rho)
            sent[-1].append(rho if up_channel is None else up_channel.apply(rho))
    return kept, sent


def _trace_along(matrices: Sequence[np.ndarray]) -> complex:
    """``Tr(m_1 m_2 ... m_k)`` of host matrices, for ``k >= 2``."""
    product = matrices[0]
    for matrix in matrices[1:-1]:
        product = product @ matrix
    return complex(np.sum(product * matrices[-1].T))


def _permutation_accept(registers: Sequence[_Register]) -> float:
    """``Tr(P_sym rho_1 x ... x rho_k)`` via the permutation-cycle expansion.

    A permutation acts on every tensor factor at once, so each of its cycles
    contributes the product, over factors, of the trace of the densities
    multiplied along the cycle; length-1 cycles contribute ``Tr(rho) = 1``
    (channels are trace preserving).  For ``k = 2`` this is the SWAP-test
    value ``1/2 + 1/2 Tr(rho sigma)``.
    """
    arity = len(registers)
    total = 0.0 + 0.0j
    for cycles in _permutation_cycle_sets(arity):
        term = 1.0 + 0.0j
        for cycle in cycles:
            if len(cycle) == 1:
                continue
            for factor in range(len(registers[0])):
                term *= _trace_along([registers[index][factor] for index in cycle])
        total += term
    return float(np.clip(total.real / factorial(arity), 0.0, 1.0))


def _measure_accept(
    measurement: LeafMeasurement, rho: _Register, kept: Sequence[_Register]
) -> float:
    """One measurement's accept factor on register ``rho`` (before readout flip)."""
    if measurement.kind == MEAS_DENSE:
        return _trace_along([measurement.operator, rho[0]]).real
    if measurement.kind == MEAS_DIAGONAL:
        return float(np.sum(measurement.operator * np.diag(rho[0])).real)
    target = kept[measurement.target_row]
    matches = [_trace_along([t, r]).real for t, r in zip(target, rho)]
    if measurement.kind == MEAS_PROJECTOR:
        return float(np.prod(matches))
    if measurement.kind == MEAS_SWAP:
        return 0.5 + 0.5 * float(np.prod(matches))
    if measurement.kind == MEAS_MATCH_ANY:
        return 1.0 - float(np.prod([1.0 - m for m in matches]))
    return float(_threshold_tail(np.array(matches), measurement.threshold))


def _up_scalar(
    job: TreeJob, kept: List[_Register], sent: List[_Register], error: float
) -> float:
    """Leaf-to-root recursion of an up-family job.

    A measuring node measures the *sent* form of the register its child
    forwards; a permutation test runs on the node's *kept* register and
    the children's sent ones.  Every factor passes the readout flip.
    """
    children = job.children
    choices = [_up_choices(job, node) for node in range(job.num_nodes)]
    weights: List[Optional[List[float]]] = [None] * job.num_nodes
    for node in range(job.num_nodes - 1, -1, -1):
        ch = children[node]
        test = job.tests[node]
        node_weights: List[float] = []
        for probability, kept_row, _ in choices[node]:
            if not ch or test == TEST_NONE:
                value = probability
                for c in ch:
                    value *= sum(weights[c])
            elif test == TEST_MEASURE:
                c = ch[0]
                total = 0.0
                for j, (_, _, forwarded) in enumerate(choices[c]):
                    accept = _measure_accept(
                        job.measurements[node], sent[_require_row(forwarded, c)], kept
                    )
                    total += flip_probability(accept, error) * weights[c][j]
                value = probability * total
            else:  # TEST_PERM
                total = 0.0
                for combo in iter_product(*[range(len(choices[c])) for c in ch]):
                    registers = [kept[_require_row(kept_row, node)]]
                    term = 1.0
                    for c, j in zip(ch, combo):
                        registers.append(sent[_require_row(choices[c][j][2], c)])
                        term *= weights[c][j]
                    if term != 0.0:
                        term *= flip_probability(_permutation_accept(registers), error)
                    total += term
                value = probability * total
            node_weights.append(value)
        weights[node] = node_weights
    return float(min(max(sum(weights[0]), 0.0), 1.0))


def _down_scalar(job: TreeJob, kept: List[_Register]) -> float:
    """Leaf-to-root recursion of a fan-out job (validation keeps it clean)."""
    children = job.children
    weights: List[Optional[np.ndarray]] = [None] * job.num_nodes
    for node in range(job.num_nodes - 1, -1, -1):
        ch = children[node]
        if not ch:
            continue  # leaves are consumed by their fan-out parent
        slots = job.slots[node]
        # messages[i][s]: acceptance of child ch[i]'s subtree when this node
        # sends it register slot s.
        messages = []
        for c in ch:
            per_slot = np.empty(len(slots))
            for s, row in enumerate(slots):
                if not children[c]:
                    measurement = job.measurements[c]
                    per_slot[s] = (
                        _measure_accept(measurement, kept[row], kept) if measurement else 1.0
                    )
                else:
                    kept_rows = job.slots[c]
                    per_slot[s] = sum(
                        _permutation_accept([kept[row], kept[kept_rows[j]]]) * weights[c][j]
                        for j in range(len(kept_rows))
                    )
            messages.append(per_slot)
        if job.kinds[node] == NODE_FIXED:
            value = 1.0
            for per_slot in messages:
                value *= per_slot[0]
            weights[node] = np.array([value])
        else:  # router: marginalize the uniform assignment to the kept slot
            bundle = len(slots)
            marginal = np.zeros(bundle)
            for assignment in router_assignments(bundle):
                term = 1.0
                for i in range(len(ch)):
                    term *= messages[i][assignment[i]]
                marginal[assignment[-1]] += term
            weights[node] = marginal / assignment_count(bundle)
    return float(min(max(float(weights[0].sum()), 0.0), 1.0))


def tree_acceptance_probability(job: TreeJob) -> float:
    """Exact acceptance probability of one tree job (scalar reference)."""
    kept, sent = _scalar_densities(job)
    if _is_down_family(job):
        return _down_scalar(job, kept)
    error = job.noise.readout_error if job.noise is not None else 0.0
    return _up_scalar(job, kept, sent, error)


# --------------------------------------------------------------------------
# Batched evaluation
# --------------------------------------------------------------------------


class _GroupContext:
    """Stacked rows and cached pair traces of one signature group.

    Row ``r < R`` is the kept form of register ``r``; its sent form is row
    ``r + offset``.  A clean group's rows are its pure states (offset 0, a
    register is sent as kept): :attr:`rows`, factor 0 of the ``(B, R, d)``
    per-factor stacks.  A noisy group holds one density per distinct
    register form in :attr:`table` (:func:`repro.engine.kernels.
    density_table`: the kept forms through each job's own node channels,
    the sent forms with its up-link channels on top) and each job's ``(B,
    2R)`` rows of it in :attr:`ids` (offset ``R``).  ``matches[f][b, r,
    s]`` is the pair trace ``Tr(rho_r rho_s)`` in tensor factor ``f``: one
    squared-overlap Gram per factor for a clean group; for a noisy one,
    :func:`repro.engine.kernels.pair_traces` of its table rows, one trace
    per distinct pair.  These products and the dense measurement of pure
    rows run through :mod:`repro.engine.kernels` on the supplied array
    module in the supplied contraction dtype; everything the recursion
    reads afterwards is host float64.  Accept factors pass the per-job
    readout flip when the group has readout errors.

    The constructor takes the group's ``(B, R, d_f)`` host stacks, one per
    tensor factor, with each job's noise annotation and measurements:
    :func:`tree_probabilities_batched` stacks them from its jobs,
    :func:`tree_strategy_probabilities_batched` gathers them from a state
    table.
    """

    def __init__(
        self,
        template: TreeJob,
        stacks: Sequence[np.ndarray],
        noises: Sequence[Optional[TreeNoise]],
        measurements: Sequence[Tuple[Optional[LeafMeasurement], ...]],
        xp: Optional[ArrayModule] = None,
        dtype: Optional[np.dtype] = None,
    ):
        self.template = template
        self.measurements = measurements
        self.batch = len(noises)
        self.xp = get_array_module(xp)
        self.dtype = resolve_dtype(dtype)
        self._dense_operators: Dict[int, np.ndarray] = {}
        self._cycle_traces: Dict[Tuple[int, ...], np.ndarray] = {}
        self._row_densities: Dict[int, np.ndarray] = {}
        errors = np.array(
            [noise.readout_error if noise is not None else 0.0 for noise in noises]
        )
        self.eps = errors if errors.any() else None
        self.cgram: Optional[np.ndarray] = None
        self.noisy = template.is_noisy
        if self.noisy:
            num_rows, dim = template.factors[0].shape
            owners = _row_owners(template)
            kept: List[Optional[KrausChannel]] = []
            sent: List[Optional[KrausChannel]] = []
            for noise in noises:
                kept += [None if owner is None else noise.node_channels[owner] for owner in owners]
                sent += [None if owner is None else noise.up_channels[owner] for owner in owners]
            self.table, ids = kernels.density_table(
                self.dtype, stacks[0].reshape(-1, dim), kept, sent
            )
            # Kept forms in columns 0 .. R - 1, sent forms in R .. 2R - 1.
            self.ids = ids.reshape(self.batch, num_rows, 2).transpose(0, 2, 1).reshape(
                self.batch, 2 * num_rows
            )
            self.offset = num_rows
            self.matches = [
                kernels.pair_traces(
                    self.xp,
                    self.xp.asarray(self.table, dtype=self.dtype),
                    self.ids[:, :, None],
                    self.ids[:, None, :],
                )
            ]
        else:
            self.rows = stacks[0]
            self.offset = 0
            self.matches, self.cgram = kernels.batched_overlap_grams(
                self.xp, self.dtype, stacks
            )
        product = self.matches[0]
        for extra in self.matches[1:]:
            product = product * extra
        self.match_product = product

    def densities(self, row: int) -> np.ndarray:
        """The ``(B, d, d)`` densities of row ``row`` (noisy groups), from the table."""
        cached = self._row_densities.get(row)
        if cached is None:
            cached = self._row_densities[row] = self.table[self.ids[:, row]]
        return cached

    def sent_row(self, row: int) -> int:
        """The row index of a register's *sent* (up-link-transformed) form."""
        return row + self.offset

    def _flip(self, accepts: np.ndarray) -> np.ndarray:
        return accepts if self.eps is None else flip_probability(accepts, self.eps)

    def swap_accept(self, row_a: int, row_b: int) -> np.ndarray:
        return self._flip(0.5 + 0.5 * self.match_product[:, row_a, row_b])

    def _cycle_trace(self, cycle_rows: Tuple[int, ...]) -> np.ndarray:
        """``Tr(prod rho)`` along one cycle, cached under its canonical rotation.

        Pure rows multiply complex Gram entries ``<r|s>`` around the cycle.
        Density rows read a two-cycle from the pair traces; a longer cycle
        multiplies the table's matrices and traces the last product.
        """
        pivot = cycle_rows.index(min(cycle_rows))
        key = cycle_rows[pivot:] + cycle_rows[:pivot]
        cached = self._cycle_traces.get(key)
        if cached is None:
            if self.cgram is not None:
                cached = self.cgram[:, key[-1], key[0]]
                for row_a, row_b in zip(key, key[1:]):
                    cached = cached * self.cgram[:, row_a, row_b]
            elif len(key) == 2:
                cached = self.matches[0][:, key[0], key[1]]
            else:
                # Host-side allowlist (both below): the density table stays
                # on the host (Kraus channels are host complex128 by design).
                product = self.densities(key[0])
                for row in key[1:-1]:
                    product = np.matmul(product, self.densities(row))  # repro-lint: disable=device-purity
                cached = np.einsum("bij,bji->b", product, self.densities(key[-1]))  # repro-lint: disable=device-purity
            self._cycle_traces[key] = cached
        return cached

    def perm_accept(self, rows: Sequence[int]) -> np.ndarray:
        if len(rows) == 2:
            return self.swap_accept(rows[0], rows[1])
        # Dtype-policy allowlist (both below): the cycle expansion accumulates
        # in host complex128 whatever the contraction dtype.
        total = np.zeros(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
        for cycles in _permutation_cycle_sets(len(rows)):
            term = np.ones(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
            for cycle in cycles:
                if len(cycle) > 1:  # trace-one densities on fixed points
                    term = term * self._cycle_trace(tuple(rows[i] for i in cycle))
            total += term
        return self._flip(np.clip(total.real / factorial(len(rows)), 0.0, 1.0))

    def _node_operators(self, node: int) -> np.ndarray:
        if node not in self._dense_operators:
            self._dense_operators[node] = np.stack(
                [measurements[node].operator for measurements in self.measurements]
            )
        return self._dense_operators[node]

    def measure(self, node: int, row: int) -> np.ndarray:
        """Accept factors of ``node``'s measurement on row ``row``."""
        measurement = self.template.measurements[node]
        if measurement.kind in (MEAS_DENSE, MEAS_DIAGONAL):
            operators = self._node_operators(node)
            if self.noisy:
                equation = "bij,bji->b" if measurement.kind == MEAS_DENSE else "bi,bii->b"
                # Host-side allowlist: the density table stays on the host,
                # so its traces are host contractions by design.
                values = np.einsum(equation, operators, self.densities(row)).real  # repro-lint: disable=device-purity
                return self._flip(values)
            states = self.rows[:, row]
            if measurement.kind == MEAS_DENSE:
                values = kernels.batched_measure_dense(
                    self.xp, self.dtype, states, operators
                )
            else:
                values = np.sum(operators.real * np.abs(states) ** 2, axis=1)
            return self._flip(values)
        target = measurement.target_row
        if measurement.kind == MEAS_PROJECTOR:
            values = self.match_product[:, row, target]
        elif measurement.kind == MEAS_SWAP:
            values = 0.5 + 0.5 * self.match_product[:, row, target]
        else:
            matches = np.stack([match[:, row, target] for match in self.matches])  # (F, B)
            if measurement.kind == MEAS_MATCH_ANY:
                values = 1.0 - np.prod(1.0 - matches, axis=0)
            else:
                values = _threshold_tail(matches, measurement.threshold)
        return self._flip(values)


def _up_batched(context: _GroupContext) -> np.ndarray:
    job = context.template
    batch = context.batch
    children = job.children
    choices = [_up_choices(job, node) for node in range(job.num_nodes)]
    weights: List[Optional[np.ndarray]] = [None] * job.num_nodes
    for node in range(job.num_nodes - 1, -1, -1):
        ch = children[node]
        test = job.tests[node]
        node_weights = np.empty((batch, len(choices[node])))
        if not ch or test == TEST_NONE:
            base = np.ones(batch)
            for c in ch:
                base = base * weights[c].sum(axis=1)
            for i, (probability, _, _) in enumerate(choices[node]):
                node_weights[:, i] = probability * base
        elif test == TEST_MEASURE:
            c = ch[0]
            total = np.zeros(batch)
            for j, (_, _, forwarded) in enumerate(choices[c]):
                total += (
                    context.measure(node, context.sent_row(_require_row(forwarded, c)))
                    * weights[c][:, j]
                )
            for i, (probability, _, _) in enumerate(choices[node]):
                node_weights[:, i] = probability * total
        else:  # TEST_PERM
            for i, (probability, kept, _) in enumerate(choices[node]):
                total = np.zeros(batch)
                for combo in iter_product(*[range(len(choices[c])) for c in ch]):
                    rows = [_require_row(kept, node)]
                    term = np.ones(batch)
                    for c, j in zip(ch, combo):
                        rows.append(context.sent_row(_require_row(choices[c][j][2], c)))
                        term = term * weights[c][:, j]
                    total += context.perm_accept(rows) * term
                node_weights[:, i] = probability * total
        weights[node] = node_weights
    return weights[0].sum(axis=1)


def _down_batched(context: _GroupContext) -> np.ndarray:
    job = context.template
    batch = context.batch
    children = job.children
    weights: List[Optional[np.ndarray]] = [None] * job.num_nodes
    for node in range(job.num_nodes - 1, -1, -1):
        ch = children[node]
        if not ch:
            continue
        slots = job.slots[node]
        messages = []
        for c in ch:
            per_slot = np.empty((batch, len(slots)))
            for s, row in enumerate(slots):
                if not children[c]:
                    measurement = job.measurements[c]
                    per_slot[:, s] = (
                        context.measure(c, row) if measurement is not None else 1.0
                    )
                else:
                    kept_rows = job.slots[c]
                    accumulated = np.zeros(batch)
                    for j, kept_row in enumerate(kept_rows):
                        accumulated += context.swap_accept(row, kept_row) * weights[c][:, j]
                    per_slot[:, s] = accumulated
            messages.append(per_slot)
        if job.kinds[node] == NODE_FIXED:
            value = np.ones(batch)
            for per_slot in messages:
                value = value * per_slot[:, 0]
            weights[node] = value[:, None]
        else:
            bundle = len(slots)
            marginal = np.zeros((batch, bundle))
            for assignment in router_assignments(bundle):
                term = np.ones(batch)
                for i in range(len(ch)):
                    term = term * messages[i][:, assignment[i]]
                marginal[:, assignment[-1]] += term
            weights[node] = marginal / assignment_count(bundle)
    return weights[0].sum(axis=1)


def tree_probabilities_batched(
    jobs: Sequence[TreeJob],
    xp: Optional[ArrayModule] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Acceptance probabilities of many tree jobs, stacked by signature group."""
    xp = get_array_module(xp)
    dtype = resolve_dtype(dtype)
    results = np.empty(len(jobs), dtype=np.float64)
    for indices in group_tree_jobs_by_signature(jobs).values():
        group = [jobs[i] for i in indices]
        stacks = [
            np.stack([job.factors[f] for job in group]) for f in range(group[0].num_factors)
        ]
        context = _GroupContext(
            group[0],
            stacks,
            [job.noise for job in group],
            [job.measurements for job in group],
            xp=xp,
            dtype=dtype,
        )
        results[indices] = _group_probabilities(context)
    return results


def tree_strategy_probabilities_batched(
    batch: StrategyBatch,
    xp: Optional[ArrayModule] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Acceptance probability of every strategy of a tree :class:`StrategyBatch`.

    The batch's strategies share the template's structure, noise and
    measurements, so they form one signature group: its row stack is one
    gather from ``[template rows; table]`` (:meth:`StrategyBatch.stack`)
    and the group runs through the same :class:`_GroupContext` and
    recursion as the group of the batch's own jobs.  That stack has the shape
    and bytes the jobs' stack would, so every value equals its job's value.
    """
    template = batch.template
    context = _GroupContext(
        template,
        [batch.stack()],
        [template.noise] * len(batch),
        [template.measurements] * len(batch),
        xp=xp,
        dtype=dtype,
    )
    return _group_probabilities(context)


def _group_probabilities(context: _GroupContext) -> np.ndarray:
    """The clipped acceptance probabilities of one signature group."""
    if _is_down_family(context.template):
        values = _down_batched(context)
    else:
        values = _up_batched(context)
    return np.clip(values, 0.0, 1.0)
