"""Adversarial provers: optimising acceptance over restricted proof classes.

Given an acceptance operator ``E`` on a tensor-product proof space (so that a
proof ``rho`` is accepted with probability ``tr(E rho)``), the optimal
*entangled* proof is the top eigenvector of ``E``.  The optimal *separable*
proof — the adversary of the ``dQMA_sep,sep`` model of Section 8.1 — is
``max tr(E rho_1 (x) ... (x) rho_k)``, which this module approximates from
below by seesaw iteration (alternately optimising one factor with the others
fixed, each step being an exact eigenvector computation) with random restarts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.quantum.random_states import haar_random_state
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_integer


def _validate(operator: np.ndarray, dims: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    op = np.asarray(operator, dtype=np.complex128)
    if op.shape != (total, total):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match factor dimensions {dims}"
        )
    return op, dims


def _normalized(vector: np.ndarray) -> np.ndarray:
    vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm < 1e-15:
        raise DimensionMismatchError("cannot normalize a zero proof factor")
    return vec / norm


def product_acceptance(operator: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """``<phi_1 ... phi_k| E |phi_1 ... phi_k>`` for a product proof."""
    state = np.array([1.0 + 0.0j])
    for factor in factors:
        state = np.kron(state, _normalized(factor))
    value = float(np.real(np.vdot(state, np.asarray(operator, dtype=np.complex128) @ state)))
    return min(max(value, 0.0), 1.0)


def conditional_operator(
    operator: np.ndarray, dims: Sequence[int], factors: Sequence[np.ndarray], position: int
) -> np.ndarray:
    """The effective operator on factor ``position`` with the other factors fixed.

    With ``|phi_other>`` the tensor product of the remaining (normalized)
    factors, the returned matrix ``M`` satisfies
    ``<psi| M |psi> = <phi_1 ... psi ... phi_k| E |phi_1 ... psi ... phi_k>``.
    """
    op, dims = _validate(operator, dims)
    k = len(dims)
    if not (0 <= position < k):
        raise DimensionMismatchError(f"factor position {position} out of range")
    target_dim = dims[position]
    other_factors = [
        _normalized(factors[index]) for index in range(k) if index != position
    ]
    other_state = np.array([1.0 + 0.0j])
    for factor in other_factors:
        other_state = np.kron(other_state, factor)
    other_dim = int(np.prod([dims[i] for i in range(k) if i != position])) if k > 1 else 1

    # Reorder axes so the target factor comes first on both the row and the
    # column side, then contract the remaining axes with |phi_other>.
    tensor = op.reshape(dims + dims)
    order = [position] + [i for i in range(k) if i != position]
    permutation = order + [k + i for i in order]
    reordered = np.transpose(tensor, permutation)
    matrix = reordered.reshape(target_dim, other_dim, target_dim, other_dim)
    if other_dim == 1:
        return matrix.reshape(target_dim, target_dim)
    return np.einsum("r,arbs,s->ab", np.conj(other_state), matrix, other_state)


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXY"


def _conditional_operators_batched(
    op_tensor: np.ndarray,
    dims: Sequence[int],
    factors: Sequence[np.ndarray],
    position: int,
) -> np.ndarray:
    """Stacked conditional operators of one factor, over a batch of restarts.

    ``factors[p]`` has shape ``(batch, dims[p])``; the result has shape
    ``(batch, dims[position], dims[position])`` and equals
    :func:`conditional_operator` applied per restart.
    """
    k = len(dims)
    batch = factors[0].shape[0]
    if k == 1:
        return np.broadcast_to(op_tensor, (batch,) + op_tensor.shape)
    row_letters = _LETTERS[:k]
    col_letters = _LETTERS[k : 2 * k]
    batch_letter = "Z"
    operands: List[np.ndarray] = [op_tensor]
    subscripts = [row_letters + col_letters]
    for q in range(k):
        if q == position:
            continue
        operands.append(np.conj(factors[q]))
        subscripts.append(batch_letter + row_letters[q])
        operands.append(factors[q])
        subscripts.append(batch_letter + col_letters[q])
    output = batch_letter + row_letters[position] + col_letters[position]
    return np.einsum(
        ",".join(subscripts) + "->" + output, *operands, optimize=True
    )


def _batched_product_acceptance(
    op_tensor: np.ndarray, dims: Sequence[int], factors: Sequence[np.ndarray]
) -> np.ndarray:
    """``<phi_1 ... phi_k| E |phi_1 ... phi_k>`` per restart, clipped to [0, 1]."""
    conditional = _conditional_operators_batched(op_tensor, dims, factors, 0)
    states = factors[0]
    values = np.einsum("Za,Zab,Zb->Z", np.conj(states), conditional, states).real
    return np.clip(values, 0.0, 1.0)


def seesaw_separable_acceptance(
    operator: np.ndarray,
    dims: Sequence[int],
    iterations: int = 30,
    restarts: int = 8,
    rng: RngLike = None,
) -> Tuple[float, List[np.ndarray]]:
    """Lower bound on the best separable-proof acceptance, with the achieving proof.

    Seesaw iteration: starting from random product states, repeatedly replace
    one factor by the top eigenvector of its conditional operator.  Each sweep
    is monotone non-decreasing, so the final value is a certified *achievable*
    acceptance probability (a lower bound on the separable supremum).

    All restarts run in lockstep: every restart's initial product state is
    drawn up front from the passed generator in restart-major order (so the
    result is reproducible and independent of the optimisation interleaving),
    and each eigen step is one stacked ``np.linalg.eigh`` over the still-active
    restarts instead of a Python loop.  A restart leaves the active set after
    a full sweep without improvement, exactly as in the scalar recursion.

    ``iterations`` and ``restarts`` must be positive integers.  A noisy
    protocol's ``acceptance_operator`` already carries its channels; to put
    delivery noise on any other operator, pass it through
    :func:`repro.quantum.channels.apply_channels_adjoint` first.
    """
    require_positive_integer(iterations, "iterations")
    require_positive_integer(restarts, "restarts")
    op, dims = _validate(operator, dims)
    generator = ensure_rng(rng)
    k = len(dims)
    initial = [
        [haar_random_state(dim, generator) for dim in dims] for _ in range(restarts)
    ]
    factors = [
        np.stack([initial[restart][position] for restart in range(restarts)])
        for position in range(k)
    ]
    op_tensor = op.reshape(tuple(dims) * 2)
    values = _batched_product_acceptance(op_tensor, dims, factors)
    active = np.ones(restarts, dtype=bool)
    for _ in range(iterations):
        improved = np.zeros(restarts, dtype=bool)
        for position in range(k):
            conditional = _conditional_operators_batched(op_tensor, dims, factors, position)
            hermitian = (conditional + np.conj(np.transpose(conditional, (0, 2, 1)))) / 2
            eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
            # After the update the factor is the top eigenvector, so the new
            # product acceptance is the top eigenvalue itself.
            new_values = np.clip(eigenvalues[:, -1], 0.0, 1.0)
            factors[position][active] = eigenvectors[active, :, -1]
            improved |= active & (new_values > values + 1e-12)
            values = np.where(active, new_values, values)
        active &= improved
        if not active.any():
            break
    best = int(np.argmax(values))
    best_factors = [factors[position][best].copy() for position in range(k)]
    return float(min(max(float(values[best]), 0.0), 1.0)), best_factors


def random_product_search(
    operator: np.ndarray,
    dims: Sequence[int],
    samples: int = 200,
    rng: RngLike = None,
) -> float:
    """Best acceptance found by sampling Haar-random product proofs.

    ``samples`` (the number of proofs drawn) must be a positive integer.
    """
    require_positive_integer(samples, "samples")
    op, dims = _validate(operator, dims)
    generator = ensure_rng(rng)
    best = 0.0
    for _ in range(samples):
        factors = [haar_random_state(dim, generator) for dim in dims]
        best = max(best, product_acceptance(op, factors))
    return best
