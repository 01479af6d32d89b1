"""Device-agnostic contraction kernels behind the batched backends.

The hot paths of :class:`~repro.engine.backends.TransferMatrixBackend` and
:mod:`repro.engine.tree_contraction` — the one chain kernel
:func:`chain_probabilities` (clean and noisy groups of any length), its
table-indexed twin :func:`chain_strategy_probabilities` for strategy
batches, the vectorized symmetrization recursion, the channel grid
application and the signature-grouped tree Gram products — live here as pure functions
parameterized by ``(xp, dtype)``:

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
from repro.engine.jobs import RIGHT_DENSE, RIGHT_PROJECTOR, ChainNoise
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


# --------------------------------------------------------------------------
# Chain kernel
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


def chain_density_rows(
    dtype: np.dtype,
    states: np.ndarray,
    noises: Sequence[ChainNoise],
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """The density rows of one noisy chain group, for :func:`chain_probabilities`.

    ``states`` is the host ``(B, R, d)`` pure-state stack of the group in the
    clean row layout (left state, intermediate pairs, and the measurement
    target last for vector right ends); ``noises`` the per-job
    :class:`~repro.engine.jobs.ChainNoise` annotations.  Returns the
    ``(B, 1 + 4m [+ 1], d, d)`` density stack: row 0 is the left state as
    *sent* across edge 0, rows ``1 .. 2m`` the pairs in *kept* form (node
    channel applied), rows ``2m + 1 .. 4m`` the same pairs in *sent* form
    (outgoing edge channel on top), and the target last with the right
    end's preparation noise.  Every job may carry its own channels, so a
    noise-strength sweep is one stack.
    """
    batch, _, dim = states.shape
    m = num_intermediate
    vector_end = right_kind != RIGHT_DENSE
    working = np.asarray(states, dtype=dtype)

    def pure(vectors: np.ndarray) -> np.ndarray:
        return vectors[:, :, :, None] * vectors.conj()[:, :, None, :]

    kept_grid = [
        [noise.left_channel] + [noise.node_channels[node] for node in range(m) for _ in range(2)]
        for noise in noises
    ]
    sent_grid = [
        [noise.edge_channels[0]]
        + [noise.edge_channels[node + 1] for node in range(m) for _ in range(2)]
        for noise in noises
    ]
    kept = apply_noise_grid(kept_grid, pure(working[:, : 1 + 2 * m]), dtype)
    sent = apply_noise_grid(sent_grid, kept, dtype)
    rows = np.empty((batch, 1 + 4 * m + int(vector_end), dim, dim), dtype=dtype)
    rows[:, 0] = sent[:, 0]
    rows[:, 1 : 1 + 2 * m] = kept[:, 1:]
    rows[:, 1 + 2 * m : 1 + 4 * m] = sent[:, 1:]
    if vector_end:
        # Right-end preparation noise acts on the verifier's reference
        # state, i.e. the measurement target density.
        right_grid = [[noise.right_channel] for noise in noises]
        rows[:, -1:] = apply_noise_grid(right_grid, pure(working[:, -1:]), dtype)
    return rows


@lru_cache(maxsize=128)
def _chain_row_pairs(
    num_intermediate: int, sent: int, target: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows_a, rows_b, final_rows)`` of the chain kernel's row layout.

    Pair ``k`` is the squared overlap of rows ``rows_a[k]`` and
    ``rows_b[k]``: step 1 tests the left row against both kept slots of
    node 1; then node ``j`` forwards its sent slot ``1 - s`` (``sent`` is
    the offset of a pair row's sent form) and node ``j + 1`` tests its kept
    slot ``s'``; a vector right end (``target >= 0``) matches its target row
    against ``final_rows``, what the last node forwards under bits 0 and 1.
    """
    m = num_intermediate
    final_rows = [sent + 2 * m, sent + 2 * m - 1] if m else [0, 0]
    rows_a, rows_b = ([0, 0], [1, 2]) if m else ([], [])
    for step in range(m - 1):
        for s in (0, 1):
            for s_next in (0, 1):
                rows_a.append(sent + 1 + 2 * step + (1 - s))
                rows_b.append(1 + 2 * (step + 1) + s_next)
    if target >= 0:
        rows_a += [target, target]
        rows_b += final_rows
    indices = (
        np.array(rows_a, dtype=np.intp),
        np.array(rows_b, dtype=np.intp),
        np.array(final_rows, dtype=np.intp),
    )
    for array in indices:
        array.flags.writeable = False  # shared by every caller of the cache
    return indices


def chain_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    rows: np.ndarray,
    rights: Optional[np.ndarray],
    eps: Optional[np.ndarray],
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """Evaluate one ``(m, d, kind, noisy)`` chain group.

    ``rows`` is the host row stack: ``(B, 1 + 2m [+ 1], d)`` pure states for
    a clean group (left state, intermediate pairs, and the measurement
    target last for vector right ends), or the ``(B, 1 + 4m [+ 1], d, d)``
    densities of :func:`chain_density_rows` for a noisy one, whose extra
    rows are the pairs' *sent* forms (a clean register is sent as kept).
    ``rights`` is the ``(B, d, d)`` operator stack of a dense right end, else
    ``None``; ``eps`` the per-job readout errors, or ``None`` for perfect
    readout.

    The transfer recursion reads O(m) squared overlaps, one per row pair of
    a single list that serves step 1, the transfer steps and a vector right
    end.  A clean group reads them out of one batched Gram product of its
    state rows; a noisy group gathers exactly those pairs of densities into
    one Hilbert-Schmidt trace einsum.  Every test factor passes the readout
    flip, and the recursion folds the factors in host float64.  A chain
    without intermediate nodes forwards row 0 under both bits, with weight
    1/2 each.
    """
    m = num_intermediate
    noisy = rows.ndim == 4
    dense_end = right_kind == RIGHT_DENSE
    rows_a, rows_b, final_rows = _chain_row_pairs(
        m, 2 * m if noisy else 0, -1 if dense_end else rows.shape[1] - 1
    )
    states = xp.asarray(rows, dtype=dtype)
    if noisy:
        overlaps = _accumulate(
            xp,
            xp.real(cached_einsum(xp, "bkij,bkji->bk", states[:, rows_a], states[:, rows_b])),
        )
    else:
        gram = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        overlaps = _accumulate(xp, xp.abs(gram) ** 2)[:, rows_a, rows_b]
    accepts = None
    if dense_end:
        operators = xp.asarray(rights, dtype=dtype)
        final_states = states[:, final_rows]
        if noisy:
            values = cached_einsum(xp, "bij,bsji->bs", operators, final_states)
        else:
            values = (xp.matmul(xp.conj(final_states), operators) * final_states).sum(-1)
        accepts = _accumulate(xp, xp.real(values))
    return _fold_chain_tests(overlaps, accepts, eps, m, right_kind)


def _fold_chain_tests(
    overlaps: np.ndarray,
    accepts: Optional[np.ndarray],
    eps: Optional[np.ndarray],
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """The host float64 recursion tail of both chain kernels.

    ``overlaps`` holds every job's squared overlaps in the pair order of
    :func:`_chain_row_pairs` (the ``4m - 2`` SWAP tests, then a vector right
    end's two final overlaps); ``accepts`` the two final accept values of a
    dense right end, else ``None``.
    """
    batch = overlaps.shape[0]
    m = num_intermediate
    num_tests = 4 * m - 2 if m else 0
    tests = 0.5 + 0.5 * overlaps[:, :num_tests]
    if eps is not None:
        tests = flip_probability(tests, eps[:, None])
    weights = 0.5 * tests[:, :2] if m else np.full((batch, 2), 0.5)
    if m > 1:
        weights = transfer_recursion(weights, 0.5 * tests[:, 2:].reshape(batch, m - 1, 2, 2))
    if accepts is None:
        accepts = overlaps[:, num_tests:]
        if right_kind != RIGHT_PROJECTOR:
            accepts = 0.5 + 0.5 * accepts
    if eps is not None:
        accepts = flip_probability(accepts, eps[:, None])
    return np.sum(weights * accepts, axis=1)


def chain_strategy_probabilities(
    xp: ArrayModule,
    dtype: np.dtype,
    rows: np.ndarray,
    choices: np.ndarray,
    eps: Optional[np.ndarray],
    num_intermediate: int,
    right_kind: str,
) -> np.ndarray:
    """Evaluate a :class:`~repro.engine.jobs.ChainStrategyBatch` from tables.

    ``rows`` is the host table stack: the ``(K + 2, d)`` states ``[left;
    table; target]`` of a clean batch, or for a noisy one the ``(K, 2 + 4m,
    d, d)`` densities :func:`chain_density_rows` builds for ``K`` virtual
    jobs, job ``k`` holding table row ``k`` in every pair slot.
    ``choices`` is the batch's ``(B, m, 2)`` array of table rows, ``eps``
    the per-strategy readout errors or ``None``; the right end is a vector.

    Every register slot gets a table of candidate rows: a clean register is
    its state, a noisy one its kept density at node ``j`` or its sent
    density past edge ``j + 1`` (a node's two slots see the same channels,
    so slot 0's rows stand for both).  A clean batch reads all pair
    overlaps from one Gram product of its state rows; a noisy one computes
    only the adjacent-pair tables (left with node 0, node ``j`` sent with
    node ``j + 1`` kept, the target with the last node sent) through
    :func:`chain_probabilities`' trace einsum, on one stack that crosses to
    the device once.  Each strategy gathers its O(m) overlaps by index on
    the host and folds them through the shared recursion tail, so it gets
    the bits its own chain job would (generic channels apart: their
    superoperator matmul may move a last bit with the row count).
    """
    m = num_intermediate
    batch = choices.shape[0]
    noisy = rows.ndim == 4
    node = np.repeat(np.arange(m), 2)
    # Job row r of a strategy is row base[r] + picks[:, column[r]] of the
    # table stack; column 0 of picks is zero for the fixed left and target.
    picks = np.concatenate(
        [np.zeros((batch, 1), dtype=np.intp), choices.reshape(batch, 2 * m)], axis=1
    )
    pair_columns = 1 + np.arange(2 * m)
    if noisy:
        size, dim = rows.shape[0], rows.shape[-1]
        table = np.concatenate(
            [
                rows[0, :1],
                rows[:, 1 : 1 + 2 * m : 2].swapaxes(0, 1).reshape(m * size, dim, dim),
                rows[:, 1 + 2 * m : 1 + 4 * m : 2].swapaxes(0, 1).reshape(m * size, dim, dim),
                rows[0, -1:],
            ]
        )
        base = np.concatenate([[0], 1 + size * node, 1 + size * (m + node), [1 + 2 * m * size]])
        column = np.concatenate([[0], pair_columns, pair_columns, [0]])
        rows_a, rows_b, _ = _chain_row_pairs(m, 2 * m, 4 * m + 1)
        # One (first row, first row, size, size) block per adjacent register
        # pair the tests read; its pairs run over the first register's rows.
        counts = np.where(column > 0, size, 1)
        blocks = dict.fromkeys(
            zip(*(array.tolist() for array in (base[rows_a], base[rows_b], counts[rows_a], counts[rows_b])))
        )
        index_a = np.concatenate([np.repeat(a + np.arange(na), nb) for a, _, na, nb in blocks])
        index_b = np.concatenate([np.tile(b + np.arange(nb), na) for _, b, na, nb in blocks])
        states = xp.asarray(table, dtype=dtype)
        lookup = np.zeros((len(table), len(table)))
        lookup[index_a, index_b] = _accumulate(
            xp,
            xp.real(
                cached_einsum(xp, "bkij,bkji->bk", states[index_a][None], states[index_b][None])
            ),
        )[0]
    else:
        size = rows.shape[0] - 2
        base = np.concatenate([[0], np.ones(2 * m, dtype=np.intp), [size + 1]])
        column = np.concatenate([[0], pair_columns, [0]])
        rows_a, rows_b, _ = _chain_row_pairs(m, 0, 2 * m + 1)
        states = xp.asarray(rows[None], dtype=dtype)
        gram = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        lookup = _accumulate(xp, xp.abs(gram) ** 2)[0]
    unified = base + picks[:, column]
    overlaps = lookup[unified[:, rows_a], unified[:, rows_b]]
    return _fold_chain_tests(overlaps, None, eps, m, right_kind)


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
    the permutation-test cycle expansion multiplies its entries there),
    ``None`` otherwise.
    """
    if len(stacks) == 1:
        states = xp.asarray(stacks[0], dtype=dtype)
        gram_c = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        overlap_sq = _accumulate(xp, xp.abs(gram_c) ** 2)
        # Host-side allowlist: the permutation-test cycle expansion
        # accumulates in host complex128 whatever the contraction dtype.
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
