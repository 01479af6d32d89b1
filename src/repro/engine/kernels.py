"""Device-agnostic contraction kernels behind the batched backends.

The hot paths of :class:`~repro.engine.backends.TransferMatrixBackend` and
:mod:`repro.engine.tree_contraction` — the stacked chain-Gram product, the
vectorized symmetrization recursion, the noisy superoperator grid
application and the signature-grouped tree Gram products — live here as pure
functions parameterized by ``(xp, dtype)``:

* ``xp`` is an :class:`~repro.engine.array_ops.ArrayModule` (numpy by
  default; torch or the transfer-counting mock as drop-ins).  Each
  kernel moves its host operands to the module exactly once (one ``asarray``
  per stacked operand per contraction group), runs the heavy products there,
  and pulls back a constant number of small result tables.
* ``dtype`` is the contraction dtype (``complex64`` fast path or the
  ``complex128`` reference).  Whatever the contraction dtype, the transfer
  recursion and all final probability accumulation run in host float64 —
  the dtype policy that keeps the complex64 path inside its 1e-5 parity
  tolerance (see :func:`repro.engine.array_ops.parity_tolerance`).

Einsum contractions route through :func:`cached_einsum`: the contraction
path of every ``(equation, shape-signature)`` pair is computed once with
``np.einsum_path`` and replayed on later calls (``optimize=path``), so
sweeps that evaluate thousands of identically-shaped groups never re-derive
a path.  Modules without numpy-style path support (torch) fall through to
their own einsum.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.array_ops import ArrayModule
from repro.engine.jobs import RIGHT_DENSE, RIGHT_PROJECTOR
from repro.quantum.channels import KrausChannel, apply_channel_grid, flip_probability

# --------------------------------------------------------------------------
# Einsum-path caching
# --------------------------------------------------------------------------

_EINSUM_PATH_CACHE: Dict[Tuple, list] = {}
_EINSUM_PATH_CACHE_MAX = 512
_einsum_path_hits = 0
_einsum_path_misses = 0


def cached_einsum(xp: ArrayModule, equation: str, *operands: Any) -> Any:
    """``xp.einsum`` with a per-(equation, shape-signature) precomputed path.

    Paths are derived once by ``np.einsum_path(..., optimize="optimal")`` on
    shape stand-ins and replayed as ``optimize=path`` on every later call
    with the same signature; modules that do not accept numpy-style path
    arguments (``supports_einsum_path = False``) use their native einsum.

    Two-operand contractions cache ``optimize=False``: with a single pairwise
    contraction there is no ordering to optimize, and numpy's "optimized"
    route (reshape + BLAS matmul) measurably loses to the direct einsum loop
    on the small-dimension trace gathers of the noisy path.  Path replay pays
    off exactly where ordering matters — three operands and up.
    """
    global _einsum_path_hits, _einsum_path_misses
    if not xp.supports_einsum_path:
        return xp.einsum(equation, *operands)
    key = (equation,) + tuple(tuple(operand.shape) for operand in operands)
    path = _EINSUM_PATH_CACHE.get(key)
    if path is None:
        _einsum_path_misses += 1
        if len(operands) < 3:
            path = False
        else:
            stand_ins = [
                np.zeros(operand.shape, dtype=np.float32) for operand in operands
            ]
            path = np.einsum_path(equation, *stand_ins, optimize="optimal")[0]
        if len(_EINSUM_PATH_CACHE) >= _EINSUM_PATH_CACHE_MAX:
            _EINSUM_PATH_CACHE.pop(next(iter(_EINSUM_PATH_CACHE)))
        _EINSUM_PATH_CACHE[key] = path
    else:
        _einsum_path_hits += 1
    return xp.einsum(equation, *operands, optimize=path)


def einsum_path_cache_info() -> Dict[str, int]:
    """Counters of the einsum-path cache (surfaced in benchmark metadata)."""
    return {
        "entries": len(_EINSUM_PATH_CACHE),
        "hits": _einsum_path_hits,
        "misses": _einsum_path_misses,
    }


def clear_einsum_path_cache() -> None:
    """Drop every cached path and reset the counters (test isolation)."""
    global _einsum_path_hits, _einsum_path_misses
    _EINSUM_PATH_CACHE.clear()
    _einsum_path_hits = 0
    _einsum_path_misses = 0


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def _accumulate(xp: ArrayModule, values: Any) -> np.ndarray:
    """Pull a module array back to the host as float64 (accumulation dtype)."""
    return np.asarray(xp.to_numpy(values), dtype=np.float64)


def transfer_recursion(weights: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """Fold per-step ``(B, 2, 2)`` transfer factors into the running weights.

    The vectorized symmetrization recursion of the chain contraction:
    ``weights[b, s]`` carries the joint weight of all symmetrization
    patterns whose latest bit is ``s``; each step multiplies it by that
    step's transfer matrix.  Runs in host float64 regardless of the
    contraction dtype — the accumulation half of the dtype policy.
    """
    for step in range(transfer.shape[1]):
        # Host-side allowlist: the accumulation half of the dtype policy runs
        # in host float64 on purpose (tiny (B,2,2) factors, precision first).
        weights = np.matmul(weights[:, None, :], transfer[:, step])[:, 0]  # repro-lint: disable=device-purity
    return weights


@lru_cache(maxsize=128)
def transfer_indices(num_intermediate: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gram-row indices of (incoming, target) states for every chain step.

    Row 0 of the stacked state matrix is the left state; rows ``1 + 2j``
    and ``2 + 2j`` are slots 0/1 of intermediate node ``j``.  Step ``j``
    (``j >= 1``) tests the register forwarded by node ``j - 1`` under
    symmetrization bit ``s`` (its slot ``1 - s``) against slot ``n`` of
    node ``j``.
    """
    steps = np.arange(1, num_intermediate)
    incoming = 1 + 2 * (steps - 1)[:, None] + (1 - np.arange(2))[None, :]
    targets = 1 + 2 * steps[:, None] + np.arange(2)[None, :]
    return incoming, targets


# --------------------------------------------------------------------------
# Clean chain kernels
# --------------------------------------------------------------------------


def chain_gram_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    stacked: np.ndarray,
    rights: Optional[np.ndarray],
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """One-shot Gram evaluation of one ``(m, d, kind)`` chain group.

    ``stacked`` is the host-side ``(B, R, d)`` state stack (left state,
    intermediate pairs, and — structured right ends — the measurement
    vector as the last row); ``rights`` is the ``(B, d, d)`` operator stack
    for dense ends, else ``None``.  All SWAP-test overlaps of the group
    come from one batched Gram product on the module; the transfer
    recursion then folds them in host float64.
    """
    dense_end = right_kind == RIGHT_DENSE
    states = xp.asarray(stacked, dtype=dtype)
    gram_c = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
    gram = _accumulate(xp, xp.abs(gram_c) ** 2)
    if dense_end:
        operators = xp.asarray(rights, dtype=dtype)
        final_states = states[:, [2 * num_intermediate, 2 * num_intermediate - 1]]
        accepts = _accumulate(
            xp,
            xp.real(
                (xp.matmul(xp.conj(final_states), operators) * final_states).sum(-1)
            ),
        )
    else:
        phi_row = 2 * num_intermediate + 1
        overlaps = gram[:, phi_row, [2 * num_intermediate, 2 * num_intermediate - 1]]
        accepts = overlaps if right_kind == RIGHT_PROJECTOR else 0.5 + 0.5 * overlaps
    # Step 1: SWAP test of the left state against both slots of node 1.
    weights = 0.5 * (0.5 + 0.5 * gram[:, 0, 1:3])  # (B, 2)
    if num_intermediate > 1:
        incoming, targets = transfer_indices(num_intermediate)
        step_overlaps = gram[:, incoming[:, :, None], targets[:, None, :]]
        weights = transfer_recursion(weights, 0.5 * (0.5 + 0.5 * step_overlaps))
    return np.sum(weights * accepts, axis=1)


def chain_terminal_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    lefts: np.ndarray,
    rights: np.ndarray,
    right_kind: str,
) -> np.ndarray:
    """Zero-intermediate chains: the left state straight into the right end."""
    states = xp.asarray(lefts, dtype=dtype)
    operators = xp.asarray(rights, dtype=dtype)
    if right_kind == RIGHT_DENSE:
        values = xp.real(
            (xp.conj(states) * xp.matmul(operators, states[..., None])[..., 0]).sum(-1)
        )
        return _accumulate(xp, values)
    overlaps = _accumulate(xp, xp.abs((xp.conj(operators) * states).sum(-1)) ** 2)
    return overlaps if right_kind == RIGHT_PROJECTOR else 0.5 + 0.5 * overlaps


def chain_adjacent_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    lefts: np.ndarray,
    pairs: np.ndarray,
    rights: np.ndarray,
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """Long-chain path: batched overlaps of adjacent nodes only, O(m d) per job."""
    lefts_dev = xp.asarray(lefts, dtype=dtype)
    pairs_dev = xp.asarray(pairs, dtype=dtype)  # (B, m, 2, d)
    rights_dev = xp.asarray(rights, dtype=dtype)
    first_overlaps = _accumulate(
        xp,
        xp.abs(xp.matmul(xp.conj(pairs_dev[:, 0]), lefts_dev[..., None])[..., 0]) ** 2,
    )
    weights = 0.5 * (0.5 + 0.5 * first_overlaps)  # (B, 2)
    if num_intermediate > 1:
        # incoming[b, j, s]: the state node j+1 receives when node j's
        # symmetrization bit is s (node j's reversed slot order).
        incoming = pairs_dev[:, : num_intermediate - 1][:, :, [1, 0]]
        targets = pairs_dev[:, 1:]
        step_overlaps = _accumulate(
            xp,
            xp.abs(xp.matmul(xp.conj(incoming), xp.transpose(targets, (0, 1, 3, 2))))
            ** 2,
        )
        weights = transfer_recursion(weights, 0.5 * (0.5 + 0.5 * step_overlaps))
    final_states = pairs_dev[:, -1][:, [1, 0]]  # (B, 2, d)
    if right_kind == RIGHT_DENSE:
        accepts = _accumulate(
            xp,
            xp.real(
                (xp.matmul(xp.conj(final_states), rights_dev) * final_states).sum(-1)
            ),
        )
    else:
        overlaps = _accumulate(
            xp,
            xp.abs(xp.matmul(xp.conj(final_states), rights_dev[..., None])[..., 0])
            ** 2,
        )
        accepts = overlaps if right_kind == RIGHT_PROJECTOR else 0.5 + 0.5 * overlaps
    return np.sum(weights * accepts, axis=1)


# --------------------------------------------------------------------------
# Noisy (density-matrix) chain kernel
# --------------------------------------------------------------------------


def apply_noise_grid(
    grid: Sequence[Sequence[Optional[KrausChannel]]], densities: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """Channel grid application in the contraction dtype (host side).

    Kraus operators and superoperators are host-resident numpy (they live in
    caches and noise models), so the grid is applied on the host and the
    transformed density stack crosses to the device once, afterwards.  A
    complex64 contraction dtype propagates through the closed-form channel
    expressions, halving the bandwidth of the density pipeline.
    """
    return apply_channel_grid(grid, np.asarray(densities, dtype=dtype))


def noisy_chain_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    states: np.ndarray,
    kept_grid: Sequence[Sequence[Optional[KrausChannel]]],
    sent_grid: Sequence[Sequence[Optional[KrausChannel]]],
    right_grid: Sequence[Optional[KrausChannel]],
    rights: np.ndarray,
    eps: np.ndarray,
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """Evaluate one noisy ``(m, d, kind)`` group on stacked density rows.

    ``states`` is the host ``(B, 1 + 2m, d)`` pure-state stack (left state
    plus intermediate pairs); ``kept_grid`` / ``sent_grid`` are the per-job
    channel grids for the kept/sent forms; ``right_grid`` the per-job
    right-end preparation channels (vector ends, else ``None``); ``rights``
    the right-end operator or vector stack; ``eps`` the per-job readout
    errors.  Density-row layout per job: row 0 is the left state as *sent*
    across edge 0; rows ``1 .. 2m`` the intermediate pairs in *kept* form
    (node channel applied); rows ``2m + 1 .. 4m`` the same pairs in *sent*
    form (outgoing edge channel on top); the last row (vector right ends)
    the measurement target.  The contraction is the clean transfer recursion
    with squared overlaps replaced by Hilbert-Schmidt traces of the
    densities — only the O(m) traces the recursion reads are gathered, in
    one einsum on the module — and every test factor passes the readout
    flip.
    """
    batch, _, dim = states.shape
    m = num_intermediate
    dense_end = right_kind == RIGHT_DENSE
    num_rows = 1 + 4 * m + (0 if dense_end else 1)
    working = np.asarray(states, dtype=dtype)
    pure = working[:, :, :, None] * working.conj()[:, :, None, :]
    kept = apply_noise_grid(kept_grid, pure, dtype)
    sent = apply_noise_grid(sent_grid, kept, dtype)
    stacked = np.empty((batch, num_rows, dim, dim), dtype=dtype)
    stacked[:, 1 : 1 + 2 * m] = kept[:, 1:]
    stacked[:, 0] = sent[:, 0]
    if m:
        stacked[:, 1 + 2 * m : 1 + 4 * m] = sent[:, 1:]
    if not dense_end:
        targets = np.asarray(rights, dtype=dtype)
        target_block = targets[:, :, None] * targets.conj()[:, None, :]
        # Right-end preparation noise acts on the verifier's reference
        # state, i.e. the measurement target density.
        stacked[:, -1:] = apply_noise_grid(right_grid, target_block[:, None], dtype)
    if m == 0:
        device_stack = xp.asarray(stacked, dtype=dtype)
        if dense_end:
            operators = xp.asarray(rights, dtype=dtype)
            accepts = _accumulate(
                xp,
                xp.real(cached_einsum(xp, "bij,bji->b", operators, device_stack[:, 0])),
            )
        else:
            overlaps = _accumulate(
                xp,
                xp.real(
                    cached_einsum(
                        xp, "bij,bji->b", device_stack[:, -1], device_stack[:, 0]
                    )
                ),
            )
            accepts = (
                overlaps if right_kind == RIGHT_PROJECTOR else 0.5 + 0.5 * overlaps
            )
        return flip_probability(accepts, eps)
    # Only O(m) Hilbert-Schmidt traces are read by the transfer recursion,
    # so gather exactly those pairs into one einsum instead of forming the
    # full row-by-row trace Gram.
    rows_a: List[int] = [0, 0]
    rows_b: List[int] = [1, 2]
    for step in range(m - 1):
        # Node j forwards its sent slot 1 - s; node j + 1 tests its kept slot s'.
        for s in (0, 1):
            for s_next in (0, 1):
                rows_a.append(2 * m + 1 + 2 * step + (1 - s))
                rows_b.append(1 + 2 * (step + 1) + s_next)
    # Right end: the last node's sent slots, reversed (bit s forwards 1 - s).
    final_rows = [4 * m, 4 * m - 1]
    if not dense_end:
        rows_a += [num_rows - 1, num_rows - 1]
        rows_b += final_rows
    device_stack = xp.asarray(stacked, dtype=dtype)
    traces = _accumulate(
        xp,
        xp.real(
            cached_einsum(
                xp, "bkij,bkji->bk", device_stack[:, rows_a], device_stack[:, rows_b]
            )
        ),
    )
    # Step 1: SWAP test of the transmitted left state against the kept
    # forms of node 1 (rows 1, 2), each flipped by the readout error.
    weights = 0.5 * flip_probability(0.5 + 0.5 * traces[:, 0:2], eps[:, None])
    if m > 1:
        step_overlaps = traces[:, 2 : 2 + 4 * (m - 1)].reshape(batch, m - 1, 2, 2)
        weights = transfer_recursion(
            weights, 0.5 * flip_probability(0.5 + 0.5 * step_overlaps, eps[:, None, None, None])
        )
    if dense_end:
        operators = xp.asarray(rights, dtype=dtype)
        accepts = _accumulate(
            xp,
            xp.real(
                cached_einsum(
                    xp, "bij,bsji->bs", operators, device_stack[:, final_rows]
                )
            ),
        )
    else:
        overlaps = traces[:, -2:]
        accepts = overlaps if right_kind == RIGHT_PROJECTOR else 0.5 + 0.5 * overlaps
    accepts = flip_probability(accepts, eps[:, None])
    return np.sum(weights * accepts, axis=1)


# --------------------------------------------------------------------------
# Tree-group Gram kernels
# --------------------------------------------------------------------------


def batched_overlap_grams(
    xp: ArrayModule, dtype: np.dtype, stacks: Sequence[np.ndarray]
) -> Tuple[List[np.ndarray], Optional[np.ndarray]]:
    """Per-factor squared-overlap Grams of one signature group.

    Returns ``(overlap_sq, cgram)``: ``overlap_sq[f][b, r, s]`` is the host
    float64 squared overlap of rows ``r, s`` in tensor factor ``f``;
    ``cgram`` is the complex Gram of single-factor groups (host complex128 —
    the permutation-test permanent accumulates there), ``None`` otherwise.
    """
    if len(stacks) == 1:
        states = xp.asarray(stacks[0], dtype=dtype)
        gram_c = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        overlap_sq = _accumulate(xp, xp.abs(gram_c) ** 2)
        # Host-side allowlist: the permutation-test permanent accumulates in
        # host complex128 whatever the contraction dtype (dtype policy).
        cgram = np.asarray(xp.to_numpy(gram_c), dtype=np.complex128)  # repro-lint: disable=dtype-discipline
        return [overlap_sq], cgram
    overlap_sq = []
    for stack in stacks:
        states = xp.asarray(stack, dtype=dtype)
        gram_c = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        overlap_sq.append(_accumulate(xp, xp.abs(gram_c) ** 2))
    return overlap_sq, None


def batched_trace_gram(
    xp: ArrayModule, dtype: np.dtype, densities: np.ndarray
) -> np.ndarray:
    """Hilbert-Schmidt trace Gram ``Tr(rho_r rho_s)`` of stacked densities.

    ``densities`` is the host ``(B, R, d, d)`` stack; the Gram is one
    batched matmul on the vectorized rows (``Tr(rho sigma) = vec(rho) .
    conj(vec(sigma))`` for Hermitian matrices), returned as host float64.
    """
    batch, rows, dim = densities.shape[0], densities.shape[1], densities.shape[2]
    vectors = xp.asarray(
        np.asarray(densities, dtype=dtype).reshape(batch, rows, dim * dim),
        dtype=dtype,
    )
    gram = xp.real(xp.matmul(vectors, xp.transpose(xp.conj(vectors), (0, 2, 1))))
    return _accumulate(xp, gram)


def batched_measure_dense(
    xp: ArrayModule, dtype: np.dtype, states: np.ndarray, operators: np.ndarray
) -> np.ndarray:
    """``<psi_b| O_b |psi_b>`` for one stacked measurement node (host float64)."""
    states_dev = xp.asarray(states, dtype=dtype)
    operators_dev = xp.asarray(operators, dtype=dtype)
    return _accumulate(
        xp,
        xp.real(
            cached_einsum(
                xp, "bi,bij,bj->b", xp.conj(states_dev), operators_dev, states_dev
            )
        ),
    )
