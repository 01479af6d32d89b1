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

Two evaluators share the node semantics:

:func:`tree_acceptance_probability`
    The scalar reference: one job, plain Python loops and ``np.vdot``
    overlaps — the semantics the batched path is tested against.

:func:`tree_probabilities_batched`
    Groups jobs by structure signature, stacks each group's registers into
    one array per tensor factor, computes every overlap of the group with a
    single batched Gram product per factor (the PR-1 chain trick), and runs
    the same leaf-to-root recursion vectorized over the batch axis.  The
    Gram products route through :mod:`repro.engine.kernels`, so they run on
    any :class:`~repro.engine.array_ops.ArrayModule` (numpy / torch /
    the transfer-counting mock) in the configured contraction dtype; the
    recursion itself accumulates in host float64.

Noisy jobs (a :class:`~repro.engine.jobs.TreeNoise` annotation) evaluate on
a density-matrix generalization of the same contraction: every register
row becomes two density matrices — its *kept* form (node channel applied)
and its *sent* form (up-link channel applied on top) — squared overlaps
become Hilbert-Schmidt traces ``Tr(rho sigma)`` (computed for a whole batch
by the same Gram matmul on vectorized densities), permutation tests use the
cycle expansion ``Tr(P_sym rho_1 x ... x rho_k) = (1/k!) sum_pi prod_cycles
Tr(prod rho)``, and every local test factor passes through the readout-error
flip.  The scalar reference applies channels through their Kraus sums while
the batched path routes through superoperators — an independent cross-check
exercised by the noise parity tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    TreeJob,
    assignment_count,
    group_tree_jobs_by_signature,
    router_assignments,
)
from repro.engine import kernels
from repro.exceptions import ProtocolError
from repro.quantum.channels import flip_probability


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


# --------------------------------------------------------------------------
# Scalar reference
# --------------------------------------------------------------------------


def _overlap_sq(job: TreeJob, row_a: int, row_b: int) -> float:
    value = 1.0
    for stack in job.factors:
        # Host-side allowlist: the scalar reference path checks the batched
        # kernels and never runs on a device backend.
        value *= float(abs(np.vdot(stack[row_a], stack[row_b])) ** 2)  # repro-lint: disable=device-purity
    return value


def _swap_accept(job: TreeJob, row_a: int, row_b: int) -> float:
    return 0.5 + 0.5 * _overlap_sq(job, row_a, row_b)


def _perm_accept(job: TreeJob, rows: Sequence[int]) -> float:
    if len(rows) == 2:
        return _swap_accept(job, rows[0], rows[1])
    from repro.quantum.permutation_test import (
        permutation_test_accept_probability_product,
    )

    kets = [job.factors[0][row] for row in rows]
    return permutation_test_accept_probability_product(kets)


def _measure_value(job: TreeJob, measurement: LeafMeasurement, row: int) -> float:
    if measurement.kind == MEAS_DENSE:
        state = job.factors[0][row]
        # Host-side allowlist (here and below): scalar reference path.
        return float(np.real(np.vdot(state, measurement.operator @ state)))  # repro-lint: disable=device-purity
    if measurement.kind == MEAS_DIAGONAL:
        state = job.factors[0][row]
        return float(np.real(np.sum(measurement.operator * np.abs(state) ** 2)))
    target = measurement.target_row
    matches = [
        float(abs(np.vdot(stack[target], stack[row])) ** 2) for stack in job.factors  # repro-lint: disable=device-purity
    ]
    if measurement.kind == MEAS_PROJECTOR:
        return float(np.prod(matches))
    if measurement.kind == MEAS_SWAP:
        return 0.5 + 0.5 * float(np.prod(matches))
    if measurement.kind == MEAS_MATCH_ANY:
        return 1.0 - float(np.prod([1.0 - m for m in matches]))
    return float(_threshold_tail(np.array(matches), measurement.threshold))


def _up_scalar(
    job: TreeJob,
    measure: Callable[[int, int], float],
    perm_accept: Callable[[Sequence[int]], float],
) -> float:
    """Leaf-to-root recursion of an up-family job.

    ``measure(node, row)`` is the accept factor of ``node``'s measurement on
    the register row its child forwards; ``perm_accept(rows)`` that of a
    permutation test of the kept row ``rows[0]`` against the forwarded rows
    ``rows[1:]``.  The clean and noisy references differ only in these two.
    """
    children = job.children
    choices = [_up_choices(job, node) for node in range(job.num_nodes)]
    weights: List[Optional[List[float]]] = [None] * job.num_nodes
    for node in range(job.num_nodes - 1, -1, -1):
        ch = children[node]
        test = job.tests[node]
        node_weights: List[float] = []
        for probability, kept, _ in choices[node]:
            if not ch or test == TEST_NONE:
                value = probability
                for c in ch:
                    value *= sum(weights[c])
            elif test == TEST_MEASURE:
                c = ch[0]
                total = 0.0
                for j, (_, _, forwarded) in enumerate(choices[c]):
                    total += measure(node, _require_row(forwarded, c)) * weights[c][j]
                value = probability * total
            else:  # TEST_PERM
                total = 0.0
                for combo in iter_product(*[range(len(choices[c])) for c in ch]):
                    rows = [_require_row(kept, node)]
                    term = 1.0
                    for c, j in zip(ch, combo):
                        rows.append(_require_row(choices[c][j][2], c))
                        term *= weights[c][j]
                    if term != 0.0:
                        term *= perm_accept(rows)
                    total += term
                value = probability * total
            node_weights.append(value)
        weights[node] = node_weights
    return float(min(max(sum(weights[0]), 0.0), 1.0))


def _down_scalar(job: TreeJob) -> float:
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
                        _measure_value(job, measurement, row) if measurement else 1.0
                    )
                else:
                    kept_rows = job.slots[c]
                    per_slot[s] = sum(
                        _swap_accept(job, row, kept_rows[j]) * weights[c][j]
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


# --------------------------------------------------------------------------
# Noisy (density-matrix) evaluation
# --------------------------------------------------------------------------


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


def _mixed_perm_accept(matrices: Sequence[np.ndarray]) -> float:
    """``Tr(P_sym rho_1 x ... x rho_k)`` via the permutation-cycle expansion.

    Each permutation contributes the product, over its cycles, of the trace
    of the densities multiplied along the cycle; length-1 cycles contribute
    ``Tr(rho) = 1`` (channels are trace preserving).  For pure states this
    reduces to the Gram-permanent formula of the noiseless path, and for
    ``k = 2`` to the SWAP-test value ``1/2 + 1/2 Tr(rho sigma)``.
    """
    arity = len(matrices)
    total = 0.0 + 0.0j
    for cycles in _permutation_cycle_sets(arity):
        term = 1.0 + 0.0j
        for cycle in cycles:
            if len(cycle) == 1:
                continue
            product = matrices[cycle[0]]
            for index in cycle[1:]:
                product = product @ matrices[index]
            # Host-side allowlist: scalar reference permanent.
            term *= np.trace(product)  # repro-lint: disable=device-purity
        total += term
    return float(np.clip(total.real / factorial(arity), 0.0, 1.0))


def _scalar_noisy_densities(job: TreeJob) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row *(kept, sent)* density matrices, via plain Kraus sums.

    ``kept[r]`` is the register after its owner's node channel; ``sent[r]``
    additionally passes the owner's up-link channel.  A measurement target
    row is owned by its measuring node (see :func:`_row_owners`), so that
    node's node channel models preparation noise of the verifier's
    reference state; only the target's *sent* form is never used.
    """
    states = job.factors[0]
    num_rows, dim = states.shape
    owners = _row_owners(job)
    # Host-side allowlist: Kraus channels act on host densities in exact
    # complex128 — the noisy path's accumulation half of the dtype policy.
    kept = np.empty((num_rows, dim, dim), dtype=np.complex128)  # repro-lint: disable=dtype-discipline
    sent = np.empty_like(kept)
    for row in range(num_rows):
        rho = np.outer(states[row], states[row].conj())  # repro-lint: disable=device-purity
        owner = owners[row]
        if owner is not None:
            node_channel = job.noise.node_channels[owner]
            if node_channel is not None:
                rho = node_channel.apply(rho)
        kept[row] = rho
        up_channel = job.noise.up_channels[owner] if owner is not None else None
        sent[row] = up_channel.apply(rho) if up_channel is not None else rho
    return kept, sent


def _noisy_measure_value(
    measurement: LeafMeasurement, rho: np.ndarray, kept: np.ndarray
) -> float:
    """One measurement accept factor on a density matrix (before readout flip)."""
    if measurement.kind == MEAS_DENSE:
        # Host-side allowlist (here and below): scalar noisy reference path.
        return float(np.trace(measurement.operator @ rho).real)  # repro-lint: disable=device-purity
    if measurement.kind == MEAS_DIAGONAL:
        return float(np.sum(measurement.operator * np.diag(rho)).real)
    match = float(np.trace(kept[measurement.target_row] @ rho).real)  # repro-lint: disable=device-purity
    if measurement.kind == MEAS_PROJECTOR:
        return match
    if measurement.kind == MEAS_SWAP:
        return 0.5 + 0.5 * match
    if measurement.kind == MEAS_MATCH_ANY:
        return match
    return float(_threshold_tail(np.array([match]), measurement.threshold))


def _up_scalar_noisy(job: TreeJob) -> float:
    """Scalar reference for noisy up-family jobs: densities plus readout flips."""
    kept, sent = _scalar_noisy_densities(job)
    error = job.noise.readout_error

    def measure(node: int, row: int) -> float:
        accept = _noisy_measure_value(job.measurements[node], sent[row], kept)
        return flip_probability(accept, error)

    def perm_accept(rows: Sequence[int]) -> float:
        matrices = [kept[rows[0]]] + [sent[row] for row in rows[1:]]
        return flip_probability(_mixed_perm_accept(matrices), error)

    return _up_scalar(job, measure, perm_accept)


def tree_acceptance_probability(job: TreeJob) -> float:
    """Exact acceptance probability of one tree job (scalar reference)."""
    if job.is_noisy:
        # Validation restricts noisy jobs to the up-forwarding family.
        return _up_scalar_noisy(job)
    if _is_down_family(job):
        return _down_scalar(job)
    return _up_scalar(
        job,
        lambda node, row: _measure_value(job, job.measurements[node], row),
        lambda rows: _perm_accept(job, rows),
    )


# --------------------------------------------------------------------------
# Batched evaluation
# --------------------------------------------------------------------------


class _GroupContext:
    """Stacked states and cached Gram products of one signature group.

    The heavy per-group products — the squared-overlap Grams per tensor
    factor, the Hilbert-Schmidt trace Gram of the noisy path, the dense
    measurement einsum — run through :mod:`repro.engine.kernels` on the
    supplied array module in the supplied contraction dtype; everything the
    recursion reads afterwards is host float64.

    In *noisy* mode (the group's jobs carry a :class:`~repro.engine.jobs.
    TreeNoise`) the context stacks, per job, the kept and sent density
    matrices of every register row — ``2 R`` rows of ``d x d`` densities,
    built through each job's own channel superoperators — and replaces the
    squared-overlap Gram with the Hilbert-Schmidt trace Gram
    ``Tr(rho_r rho_s)`` of the vectorized densities.  Rows ``R + r`` are the
    sent (up-link-transformed) forms; :meth:`sent_row` maps between the
    spaces.  All accept factors pass through the per-job readout flip.
    """

    def __init__(
        self,
        group: Sequence[TreeJob],
        xp: Optional[ArrayModule] = None,
        dtype: Optional[np.dtype] = None,
    ):
        self.group = group
        self.template = group[0]
        self.batch = len(group)
        self.xp = get_array_module(xp)
        self.dtype = resolve_dtype(dtype)
        self._dense_operators: Dict[int, np.ndarray] = {}
        self.noisy = self.template.is_noisy
        if self.noisy:
            self._init_noisy(group)
            return
        num_factors = self.template.num_factors
        self.stacks = [
            np.stack([job.factors[f] for job in group]) for f in range(num_factors)
        ]
        self.overlap_sq, self.cgram = kernels.batched_overlap_grams(
            self.xp, self.dtype, self.stacks
        )
        product = self.overlap_sq[0]
        for extra in self.overlap_sq[1:]:
            product = product * extra
        self.overlap_sq_product = product

    def _init_noisy(self, group: Sequence[TreeJob]) -> None:
        template = self.template
        num_rows, dim = template.factors[0].shape
        self.num_rows = num_rows
        owners = _row_owners(template)
        states = np.stack([job.factors[0] for job in group]).astype(
            self.dtype, copy=False
        )
        pure = states[:, :, :, None] * states.conj()[:, :, None, :]
        kept_grid = [
            [
                None if owner is None else job.noise.node_channels[owner]
                for owner in owners
            ]
            for job in group
        ]
        sent_grid = [
            [
                None if owner is None else job.noise.up_channels[owner]
                for owner in owners
            ]
            for job in group
        ]
        densities = np.empty(
            (self.batch, 2 * num_rows, dim, dim), dtype=self.dtype
        )
        kept = kernels.apply_noise_grid(kept_grid, pure, self.dtype)
        densities[:, :num_rows] = kept
        densities[:, num_rows:] = kernels.apply_noise_grid(sent_grid, kept, self.dtype)
        self.densities = densities
        # Tr(rho sigma) = vec(rho) . conj(vec(sigma)) for Hermitian matrices:
        # the same batched Gram matmul as the pure path, on density rows.
        self.trace_gram = kernels.batched_trace_gram(self.xp, self.dtype, densities)
        self.eps = np.array([job.noise.readout_error for job in group])
        self._cycle_traces: Dict[Tuple[int, ...], np.ndarray] = {}

    def sent_row(self, row: int) -> int:
        """The row index of a register's *sent* (up-link-transformed) form."""
        return row + self.num_rows if self.noisy else row

    def swap_accept(self, row_a: int, row_b: int) -> np.ndarray:
        if self.noisy:
            return flip_probability(
                0.5 + 0.5 * self.trace_gram[:, row_a, row_b], self.eps
            )
        return 0.5 + 0.5 * self.overlap_sq_product[:, row_a, row_b]

    def _cycle_trace(self, cycle_rows: Tuple[int, ...]) -> np.ndarray:
        """``Tr(prod rho)`` along one cycle, cached under its canonical rotation."""
        pivot = cycle_rows.index(min(cycle_rows))
        key = cycle_rows[pivot:] + cycle_rows[:pivot]
        cached = self._cycle_traces.get(key)
        if cached is None:
            product = self.densities[:, key[0]]
            for row in key[1:]:
                # Host-side allowlist: the noisy grid keeps densities on the
                # host (Kraus channels are host complex128 by design).
                product = np.matmul(product, self.densities[:, row])  # repro-lint: disable=device-purity
            cached = np.trace(product, axis1=1, axis2=2)  # repro-lint: disable=device-purity
            self._cycle_traces[key] = cached
        return cached

    def perm_accept(self, rows: Sequence[int]) -> np.ndarray:
        if self.noisy:
            # Dtype-policy allowlist (all four zeros/ones below): permanents
            # accumulate in host complex128 whatever the contraction dtype.
            total = np.zeros(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
            for cycles in _permutation_cycle_sets(len(rows)):
                term = np.ones(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
                for cycle in cycles:
                    if len(cycle) == 1:
                        continue  # trace-one densities (channels preserve trace)
                    term = term * self._cycle_trace(tuple(rows[i] for i in cycle))
                total += term
            accepts = np.clip(total.real / factorial(len(rows)), 0.0, 1.0)
            return flip_probability(accepts, self.eps)
        if len(rows) == 2:
            return self.swap_accept(rows[0], rows[1])
        total = np.zeros(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
        for permutation in iter_permutations(range(len(rows))):
            term = np.ones(self.batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline
            for i, j in enumerate(permutation):
                term = term * self.cgram[:, rows[i], rows[j]]
            total += term
        return np.clip(total.real / factorial(len(rows)), 0.0, 1.0)

    def _node_operators(self, node: int) -> np.ndarray:
        if node not in self._dense_operators:
            self._dense_operators[node] = np.stack(
                [job.measurements[node].operator for job in self.group]
            )
        return self._dense_operators[node]

    def measure(self, node: int, row: int) -> np.ndarray:
        if self.noisy:
            return self._measure_noisy(node, row)
        measurement = self.template.measurements[node]
        if measurement.kind == MEAS_DENSE:
            states = self.stacks[0][:, row]
            operators = self._node_operators(node)
            return kernels.batched_measure_dense(
                self.xp, self.dtype, states, operators
            )
        if measurement.kind == MEAS_DIAGONAL:
            states = self.stacks[0][:, row]
            diagonals = self._node_operators(node)
            return np.sum(diagonals.real * np.abs(states) ** 2, axis=1)
        target = measurement.target_row
        if measurement.kind == MEAS_PROJECTOR:
            return self.overlap_sq_product[:, row, target]
        if measurement.kind == MEAS_SWAP:
            return 0.5 + 0.5 * self.overlap_sq_product[:, row, target]
        matches = np.stack(
            [overlap[:, row, target] for overlap in self.overlap_sq]
        )  # (F, B)
        if measurement.kind == MEAS_MATCH_ANY:
            return 1.0 - np.prod(1.0 - matches, axis=0)
        return _threshold_tail(matches, measurement.threshold)

    def _measure_noisy(self, node: int, row: int) -> np.ndarray:
        """Measurement factors on density rows (``row`` is in extended space)."""
        measurement = self.template.measurements[node]
        if measurement.kind == MEAS_DENSE:
            operators = self._node_operators(node)
            # Host-side allowlist (both einsums): noisy densities stay host
            # complex128, so these traces are host contractions by design.
            values = np.einsum(  # repro-lint: disable=device-purity
                "bij,bji->b", operators, self.densities[:, row]
            ).real
        elif measurement.kind == MEAS_DIAGONAL:
            diagonals = self._node_operators(node)
            values = np.einsum(  # repro-lint: disable=device-purity
                "bi,bii->b", diagonals, self.densities[:, row]
            ).real
        else:
            match = self.trace_gram[:, row, measurement.target_row]
            if measurement.kind in (MEAS_PROJECTOR, MEAS_MATCH_ANY):
                values = match
            elif measurement.kind == MEAS_SWAP:
                values = 0.5 + 0.5 * match
            else:
                values = _threshold_tail(match[None, :], measurement.threshold)
        return flip_probability(values, self.eps)


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
        context = _GroupContext([jobs[i] for i in indices], xp=xp, dtype=dtype)
        if _is_down_family(context.template):
            values = _down_batched(context)
        else:
            values = _up_batched(context)
        results[indices] = np.clip(values, 0.0, 1.0)
    return results
