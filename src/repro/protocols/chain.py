"""The symmetrized SWAP-test chain shared by the path protocols.

Algorithm 3 (equality), Algorithm 7 (greater-than, for each index value) and
Algorithm 10 (QMA one-way conversion) all reduce to the same verification
pattern on a path ``v_0, ..., v_r``:

* the left end holds a fixed pure state ``|psi_L>`` (a fingerprint, or the
  state Alice forwards in the QMA protocol),
* every intermediate node ``v_j`` (``j = 1..r-1``) holds two proof registers
  ``(a_j, b_j)`` which it *symmetrizes* (swaps with probability 1/2), keeping
  the first for its own SWAP test and forwarding the second to the right,
* node ``v_j`` SWAP-tests the state forwarded by ``v_{j-1}`` against its kept
  register,
* the right end applies a two-outcome measurement with accept element ``M`` to
  the state forwarded by ``v_{r-1}``.

For product proofs the joint acceptance probability factorises over the
symmetrization pattern into a product of nearest-neighbour terms, so it can be
computed exactly with a transfer-matrix contraction in ``O(r)`` SWAP-test
evaluations — this is what :func:`chain_acceptance_probability_factored`
does, with :func:`chain_acceptance_probability` its one-factor case.

For entangled proofs, :func:`chain_acceptance_operator` constructs the exact
acceptance operator on the proof space (feasible for small register dimension
and path length); its largest eigenvalue is the optimal cheating probability,
realising the supremum in the soundness definition.  Given a
:class:`~repro.engine.jobs.ChainNoise` annotation it builds the operator of
the noisy chain instead; without one it is the clean chain.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.quantum.gates import swap_unitary
from repro.quantum.swap_test import swap_test_projector


def _as_ket(state: np.ndarray) -> np.ndarray:
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    return vec


def swap_accept_with_operator(state: np.ndarray, operator: np.ndarray) -> float:
    """``<state| M |state>`` for a (sub)normalized ket and an accept operator."""
    vec = _as_ket(state)
    value = float(np.real(np.vdot(vec, operator @ vec)))
    return min(max(value, 0.0), 1.0)


def right_end_swap_operator(own_state: np.ndarray) -> np.ndarray:
    """Accept operator of a right end that SWAP-tests against its own fixed state.

    The SWAP test between an incoming state ``rho`` and the fixed pure state
    ``|phi>`` accepts with probability ``tr(((I + |phi><phi|)/2) rho)``, so the
    right end's behaviour is captured by the operator ``(I + |phi><phi|) / 2``.
    """
    phi = _as_ket(own_state)
    dim = phi.size
    return (np.eye(dim, dtype=np.complex128) + np.outer(phi, np.conj(phi))) / 2.0


def chain_acceptance_probability(
    left_state: np.ndarray,
    node_pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    right_accept_operator: np.ndarray,
) -> float:
    """Exact acceptance probability of the symmetrized chain on a product proof.

    The one-factor case of :func:`chain_acceptance_probability_factored`.

    Parameters
    ----------
    left_state:
        The pure state prepared by the left end ``v_0``.
    node_pairs:
        For each intermediate node ``v_j`` the pair ``(a_j, b_j)`` of proof
        states in its two registers, in register order (``a_j`` is kept when
        the node does not swap).
    right_accept_operator:
        The right end's POVM accept element on the forwarded register.
    """
    left = _as_ket(left_state)
    pairs = [(_as_ket(a), _as_ket(b)) for a, b in node_pairs]
    operator = np.asarray(right_accept_operator, dtype=np.complex128)
    for a, b in pairs:
        if a.size != left.size or b.size != left.size:
            raise DimensionMismatchError("all chain registers must share one dimension")
    if operator.shape != (left.size, left.size):
        raise DimensionMismatchError("right accept operator has the wrong dimension")
    return chain_acceptance_probability_factored(
        [left],
        [([a], [b]) for a, b in pairs],
        lambda factors: swap_accept_with_operator(factors[0], operator),
    )


def chain_acceptance_probability_factored(
    left_factors: Sequence[np.ndarray],
    node_pairs: Sequence[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
    right_accept_from_factors,
) -> float:
    """Chain acceptance when every register is a tensor product of factors.

    Used by the protocols built on one-way protocols with many-factor messages
    (e.g. the Hamming sketch protocol), where materialising the full message
    state is infeasible.  SWAP tests between product states factorise:
    ``P = 1/2 + (1/2) prod_i |<a_i|b_i>|^2``.  The right end's acceptance is
    computed by the supplied callable ``right_accept_from_factors(factors)``.

    The probability is a transfer-matrix contraction over the symmetrization
    pattern: ``weights[s]`` is the joint weight of all patterns whose latest
    bit is ``s`` (``s = 0``: the node kept ``a``, forwards ``b``), times the
    product of SWAP-test acceptance probabilities so far.
    """
    left = [_as_ket(f) for f in left_factors]
    pairs = [([_as_ket(f) for f in a], [_as_ket(f) for f in b]) for a, b in node_pairs]

    def swap_product(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> float:
        if len(first) != len(second):
            raise DimensionMismatchError("factor counts differ between chain registers")
        overlap_sq = 1.0
        for f, g in zip(first, second):
            overlap_sq *= float(abs(np.vdot(f, g)) ** 2)
        return 0.5 + 0.5 * overlap_sq

    if not pairs:
        # Path of length 1: the left end's state goes straight to the right end.
        return float(min(max(right_accept_from_factors(left), 0.0), 1.0))

    first_a, first_b = pairs[0]
    weights = np.array([0.5 * swap_product(left, first_a), 0.5 * swap_product(left, first_b)])
    forwarded = [first_b, first_a]
    for a, b in pairs[1:]:
        new_weights = np.zeros(2)
        for previous in range(2):
            incoming = forwarded[previous]
            new_weights[0] += weights[previous] * 0.5 * swap_product(incoming, a)
            new_weights[1] += weights[previous] * 0.5 * swap_product(incoming, b)
        weights = new_weights
        forwarded = [b, a]
    probability = 0.0
    for previous in range(2):
        probability += weights[previous] * float(right_accept_from_factors(forwarded[previous]))
    return float(min(max(probability, 0.0), 1.0))


def _compose_channels(first, second):
    """``second`` after ``first`` where either may be ``None`` (identity)."""
    if first is None:
        return second
    if second is None:
        return first
    return first.then(second)


def chain_acceptance_operator(
    left_state: np.ndarray,
    register_dim: int,
    num_intermediate: int,
    right_accept_operator: np.ndarray,
    noise=None,
) -> np.ndarray:
    """The exact acceptance operator of the chain on the proof space.

    The proof space is the tensor product of the ``2 * num_intermediate``
    registers ``(a_1, b_1, ..., a_{r-1}, b_{r-1})`` in that order, each of
    dimension ``register_dim``.  The returned Hermitian operator ``E``
    satisfies ``P[all accept | proof rho] = tr(E rho)`` for *any* proof,
    entangled or not; its largest eigenvalue is the optimal cheating
    probability.

    The construction follows the protocol literally: the acceptance projector
    for the no-swap pattern is a tensor product of SWAP-test projectors on the
    interleaved pairs, and the symmetrization step is the uniform mixture over
    the ``2^{r-1}`` swap patterns.  Memory grows as
    ``register_dim^(2 * num_intermediate + 1)``, so this is intended for the
    small instances used in the soundness experiments.

    With a :class:`~repro.engine.jobs.ChainNoise` annotation ``noise`` the
    operator is that of the *noisy* chain: every register passes its
    channels before the tests and every test outcome is flipped with the
    annotation's readout error.  Per symmetrization pattern the pattern
    projector becomes a tensor product of *flipped* accept elements
    (``(1-2e) P + e I`` per SWAP test, likewise for the right measurement),
    conjugated by the adjoint of each register's channel chain — the
    Heisenberg picture of the engine's density-matrix evaluation, so
    ``tr(E rho)`` matches the scalar Kraus-sum reference on every product
    proof while remaining valid for entangled ones.  ``right_accept_operator``
    is then the right end's accept element *after* reference preparation:
    fold any ``right_channel`` into it before calling (the operator acts on
    the incoming register, so preparation noise of the reference state
    cannot be applied here).
    """
    from repro.quantum.channels import apply_channels_adjoint

    left = _as_ket(left_state)
    dim = int(register_dim)
    if left.size != dim:
        raise DimensionMismatchError("left state dimension must equal the register dimension")
    operator = np.asarray(right_accept_operator, dtype=np.complex128)
    if operator.shape != (dim, dim):
        raise DimensionMismatchError("right accept operator has the wrong dimension")
    if num_intermediate < 0:
        raise ProtocolError("number of intermediate nodes must be non-negative")
    left_chain = None
    if noise is not None:
        noise.validate(num_intermediate, dim)
        if noise.right_channel is not None:
            raise ProtocolError(
                "fold the right end's preparation channel into the accept element "
                "before building the noisy acceptance operator"
            )
        left_chain = _compose_channels(noise.left_channel, noise.edge_channels[0])
    if num_intermediate == 0 and noise is None:
        # No proof registers; acceptance is a scalar.
        return np.array([[swap_accept_with_operator(left, operator)]], dtype=np.complex128)

    total_registers = 2 * num_intermediate + 1  # left register + proof registers
    total_dim = dim**total_registers
    if total_dim > 4096:
        raise ProtocolError(
            f"chain acceptance operator would have dimension {total_dim}; "
            "restrict to smaller instances (the memory and time costs grow as "
            "the cube of this dimension)"
        )

    swap_projector = swap_test_projector(dim)
    swap = swap_unitary(dim)
    eye_pair = np.eye(dim * dim, dtype=np.complex128)
    eye_single = np.eye(dim, dtype=np.complex128)
    if noise is not None:
        error = noise.readout_error
        swap_projector = (1.0 - 2.0 * error) * swap_projector + error * eye_pair
        operator = (1.0 - 2.0 * error) * operator + error * eye_single

    # Accept projector for the identity (no-swap) pattern: SWAP-test projectors
    # on the interleaved pairs (L, a_1), (b_1, a_2), ..., (b_{r-2}, a_{r-1})
    # and the right end operator on b_{r-1}.  In the register order
    # (L, a_1, b_1, a_2, b_2, ..., a_{r-1}, b_{r-1}) these blocks are adjacent
    # and non-overlapping, so the projector is a plain Kronecker product.
    accept_base = np.array([[1.0 + 0.0j]])
    for _ in range(num_intermediate):
        accept_base = np.kron(accept_base, swap_projector)
    accept_base = np.kron(accept_base, operator)

    # Symmetrization pattern unitaries: a SWAP (or identity) on each pair
    # (a_j, b_j), which in the same register order are also adjacent blocks,
    # offset by the single left register.
    dims = [dim] * total_registers
    full = np.zeros((total_dim, total_dim), dtype=np.complex128)
    for pattern in iter_product((0, 1), repeat=num_intermediate):
        unitary = np.array([[1.0 + 0.0j]])
        unitary = np.kron(unitary, eye_single)
        for bit in pattern:
            unitary = np.kron(unitary, swap if bit else eye_pair)
        conjugated = unitary.conj().T @ accept_base @ unitary
        if noise is not None:
            # Physical register order (L, a_1, b_1, ..., a_m, b_m): node j's
            # delivery channel hits both of its registers, the forwarded one
            # (slot 1 when the pattern keeps slot 0, and vice versa)
            # additionally crosses the next edge; the left register always
            # crosses edge 0.
            channels = [left_chain]
            for index, bit in enumerate(pattern):
                kept = noise.node_channels[index]
                forwarded = _compose_channels(kept, noise.edge_channels[index + 1])
                channels += [forwarded, kept] if bit else [kept, forwarded]
            conjugated = apply_channels_adjoint(conjugated, dims, channels)
        full += conjugated
    full /= 2**num_intermediate

    # Contract the fixed left register with |psi_L>.
    proof_dim = dim ** (2 * num_intermediate)
    tensor = full.reshape(dim, proof_dim, dim, proof_dim)
    return np.einsum("i,ijbk,b->jk", np.conj(left), tensor, left)


def optimal_entangled_acceptance(acceptance_operator: np.ndarray) -> float:
    """Largest eigenvalue of an acceptance operator: the optimal cheating probability."""
    operator = np.asarray(acceptance_operator, dtype=np.complex128)
    hermitian = (operator + operator.conj().T) / 2
    eigenvalues = np.linalg.eigvalsh(hermitian)
    return float(min(max(eigenvalues[-1].real, 0.0), 1.0))
