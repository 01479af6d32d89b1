"""Device-agnostic contraction kernels behind the batched backends.

The hot paths of :class:`~repro.engine.backends.TransferMatrixBackend` and
:mod:`repro.engine.tree_contraction` — the one chain kernel
:func:`chain_probabilities` (clean and noisy groups of any length), its
table-indexed twin :func:`chain_strategy_probabilities` for chain strategy
batches, the vectorized symmetrization recursion, the channel grid
application, the density and pair-trace tables of noisy groups and the
signature-grouped tree Gram products — live here as pure functions
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

A noisy group contracts distinct densities, not per-job stacks.
:func:`density_table` builds one density per distinct (register state,
kept channel, sent channel) form of the batch, keyed by state content and
:attr:`~repro.quantum.channels.KrausChannel.key`, and gives every register
its rows of that table; :func:`pair_traces` computes one Hilbert-Schmidt
trace ``Tr(rho sigma)`` per distinct pair of table rows and scatters it to
every job that reads it.  Chain jobs, chain strategy batches and tree
groups all index those two tables, so a noise sweep of many strengths pays
for its few states once and each value keeps the bits it would get alone.

Einsum contractions route through :func:`cached_einsum`: the contraction
path of every ``(equation, shape-signature)`` pair is computed once with
``np.einsum_path`` and replayed on later calls (``optimize=path``), so
sweeps that evaluate thousands of identically-shaped groups never re-derive
a path.  Modules without numpy-style path support (torch) fall through to
their own einsum.  The pair-trace einsum, whose shape changes with every
batch, skips the cache.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.array_ops import ArrayModule
from repro.engine.jobs import RIGHT_DENSE, RIGHT_PROJECTOR, ChainNoise, StrategyBatch
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
    on small-dimension traces.  Path replay pays off exactly where ordering
    matters — three operands and up.
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


def density_table(
    dtype: np.dtype,
    states: np.ndarray,
    kept: Sequence[Optional[KrausChannel]],
    sent: Sequence[Optional[KrausChannel]],
) -> Tuple[np.ndarray, np.ndarray]:
    """One density per distinct register form of a batch.

    Register ``i`` is the pure state ``states[i]`` (a host ``(N, d)``
    stack); its *kept* form is ``kept[i]`` applied to its projector, its
    *sent* form ``sent[i]`` applied on top (``None`` skips a channel).
    States are keyed by content, channels by
    :attr:`~repro.quantum.channels.KrausChannel.key` (``None`` for an absent
    or identity channel), so a batch pays one projector per distinct (state,
    kept channel) pair, one :func:`apply_noise_grid` row for each of them
    when any kept channel applies, and one row per distinct (kept form, sent
    channel) pair.  The named families' closed forms act element-wise, so
    each density gets the bits a per-job stack would give it; generic
    channels' superoperator matmul may move a last bit with its row count.

    Returns ``(table, ids)``: the host ``(T, d, d)`` densities in the
    contraction dtype, kept forms first, and the ``(N, 2)`` table rows of
    every register's kept and sent forms.
    """
    # Each channel object's value key, read once per call in request order.
    keys: Dict[Optional[KrausChannel], Optional[Tuple]] = {None: None}
    for channel in dict.fromkeys((*kept, *sent)):
        if channel is not None:
            keys[channel] = None if channel.is_identity else channel.key
    states = np.ascontiguousarray(states)
    contents = states.view(np.dtype((np.void, states.shape[1] * states.itemsize)))
    holders: Dict[bytes, int] = {}
    kept_rows: Dict[Tuple, int] = {}
    sent_rows: Dict[Tuple, int] = {}
    kept_sources: List[int] = []
    kept_grid: List[Optional[KrausChannel]] = []
    sent_sources: List[int] = []
    sent_grid: List[Optional[KrausChannel]] = []
    ids: List[int] = []
    for index, (content, first, second) in enumerate(zip(contents.ravel().tolist(), kept, sent)):
        # The first register holding this state stands for all of them.
        holder = holders.setdefault(content, index)
        key = keys[first]
        row = kept_rows.setdefault((holder, key), len(kept_sources))
        if row == len(kept_sources):
            kept_sources.append(holder)
            kept_grid.append(None if key is None else first)
        key = keys[second]
        if key is None:
            ids += (row, row)
            continue
        sent_row = sent_rows.setdefault((row, key), len(sent_sources))
        if sent_row == len(sent_sources):
            sent_sources.append(row)
            sent_grid.append(second)
        ids += (row, ~sent_row)  # counted from the table's end, see below
    vectors = np.asarray(states[kept_sources], dtype=dtype)
    pure = vectors[:, None, :, None] * vectors.conj()[:, None, None, :]
    table = pure[:, 0]
    # One grid row per distinct form, so the grid's rows are the table's; an
    # absent or identity kept channel is None in kept_grid.
    if any(kept_grid):
        table = apply_noise_grid([[channel] for channel in kept_grid], pure, dtype)[:, 0]
    if sent_grid:
        sent_forms = apply_noise_grid(
            [[channel] for channel in sent_grid], table[sent_sources][:, None], dtype
        )[:, 0]
        # Sent form t sits t + 1 rows from the end, where ~t points.
        table = np.concatenate([table, sent_forms[::-1]])
    return table, np.array(ids, dtype=np.intp).reshape(-1, 2) % len(table)


def _distinct(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ascending distinct values of an integer array and the position of
    every value among them, in the array's shape.

    Sorts (memory linear in ``codes.size``, whatever the values' range)
    instead of calling ``np.unique``, which imports ``numpy.ma`` on first
    use.
    """
    ordered = np.sort(codes, axis=None)
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    distinct = ordered[starts]
    return distinct, distinct.searchsorted(codes)


def pair_traces(xp: ArrayModule, densities: Any, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``Tr(rho_a rho_b)`` for every requested pair of table rows, as host float64.

    ``densities`` is the ``(T, d, d)`` table on the module; ``first`` and
    ``second`` are host integer arrays of table rows that broadcast to one
    shape, the shape of the result.  Each distinct ordered pair is traced
    once, by the einsum ``"bkij,bkji->bk"`` on gathered ``(1, P, d, d)``
    operands, and scattered back to every request, so a pair's value does
    not depend on the batch it came in.
    """
    size = int(densities.shape[0])
    # C order: the result takes the layout of the codes, and the recursion's
    # small matmuls can round differently on a transposed stack.
    codes = np.ascontiguousarray(first * size + second)
    distinct, position = _distinct(codes)
    rows_a, rows_b = np.divmod(distinct[None], size)
    traces = _paired_traces(xp, densities[rows_a], densities[rows_b])
    return _accumulate(xp, xp.real(traces))[0][position]


def _paired_traces(xp: ArrayModule, first: Any, second: Any) -> Any:
    """``Tr(a_k b_k)`` of two stacked ``(B, K, d, d)`` operands, on the module.

    The einsum ``"bkij,bkji->bk"`` sums each trace in an order that does not
    depend on ``B`` or ``K``, so a trace keeps its bits whatever batch it is
    computed in.  Two operands leave no contraction order to choose (a
    cached path would be ``False``) and the shapes change from call to call,
    so the path cache is skipped.
    """
    options = {"optimize": False} if xp.supports_einsum_path else {}
    return xp.einsum("bkij,bkji->bk", first, second, **options)


def chain_register_channels(
    noise: ChainNoise, num_intermediate: int, vector_end: bool
) -> Tuple[List[Optional[KrausChannel]], List[Optional[KrausChannel]]]:
    """The kept and the sent channel of every register of an annotated chain.

    Registers come in the clean row layout of :func:`chain_probabilities`:
    the left state (its preparation channel kept, edge 0 sent), the ``2m``
    pair registers (node ``j``'s delivery channel kept, edge ``j + 1`` sent,
    the same for both slots), and for a vector right end the target.
    """
    kept = [noise.left_channel]
    sent = [noise.edge_channels[0]]
    for node in range(num_intermediate):
        kept += (noise.node_channels[node],) * 2
        sent += (noise.edge_channels[node + 1],) * 2
    if vector_end:
        # Right-end preparation noise acts on the verifier's reference
        # state, i.e. the measurement target density.
        kept.append(noise.right_channel)
        sent.append(None)
    return kept, sent


def chain_density_table(
    dtype: np.dtype,
    states: np.ndarray,
    noises: Sequence[ChainNoise],
    num_intermediate: int,
    right_kind: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """The density table of one noisy chain group, for :func:`chain_probabilities`.

    ``states`` is the host ``(B, R, d)`` pure-state stack of the group in the
    clean row layout (left state, intermediate pairs, and the measurement
    target last for vector right ends); ``noises`` the per-job
    :class:`~repro.engine.jobs.ChainNoise` annotations.  Returns the
    :func:`density_table` of the group's registers and the ``(B, 1 + 4m
    [+ 1])`` table rows of every job: entry 0 is the left state as *sent*
    across edge 0, entries ``1 .. 2m`` the pairs in *kept* form (node
    channel applied), ``2m + 1 .. 4m`` the same pairs in *sent* form
    (outgoing edge channel on top), and the target last with the right
    end's preparation noise.  Every job may carry its own channels, so a
    noise-strength sweep is one table.
    """
    batch, width, dim = states.shape
    m = num_intermediate
    vector_end = right_kind != RIGHT_DENSE
    kept: List[Optional[KrausChannel]] = []
    sent: List[Optional[KrausChannel]] = []
    for noise in noises:
        job_kept, job_sent = chain_register_channels(noise, m, vector_end)
        kept += job_kept
        sent += job_sent
    table, ids = density_table(dtype, states.reshape(-1, dim), kept, sent)
    # A job's register r has its kept form in column 2r, its sent form in 2r + 1.
    pairs = range(2, 2 + 4 * m, 2)
    layout = [1, *pairs, *(column + 1 for column in pairs)] + ([2 * width - 2] if vector_end else [])
    return table, np.take(ids.reshape(batch, 2 * width), layout, axis=1)


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
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate one ``(m, d, kind, noisy)`` chain group.

    ``rows`` is the host row stack of a clean group, ``(B, 1 + 2m [+ 1],
    d)`` pure states (left state, intermediate pairs, and the measurement
    target last for vector right ends).  A noisy group passes the host
    density ``table`` and, as ``rows``, its ``(B, 1 + 4m [+ 1])`` table
    rows from :func:`chain_density_table`, whose extra entries are the
    pairs' *sent* forms (a clean register is sent as kept).  ``rights`` is
    the ``(B, d, d)`` operator stack of a dense right end, else ``None``;
    ``eps`` the per-job readout errors, or ``None`` for perfect readout.

    The transfer recursion reads O(m) squared overlaps, one per row pair of
    a single list that serves step 1, the transfer steps and a vector right
    end.  A clean group reads them out of one batched Gram product of its
    state rows; a noisy group reads its pairs of table rows from
    :func:`pair_traces`, one trace per distinct pair.  Every test factor
    passes the readout flip, and the recursion folds the factors in host
    float64.  A chain without intermediate nodes forwards row 0 under both
    bits, with weight 1/2 each.
    """
    m = num_intermediate
    noisy = table is not None
    dense_end = right_kind == RIGHT_DENSE
    rows_a, rows_b, final_rows = _chain_row_pairs(
        m, 2 * m if noisy else 0, -1 if dense_end else rows.shape[1] - 1
    )
    if noisy:
        states = xp.asarray(table, dtype=dtype)
        overlaps = pair_traces(xp, states, rows[:, rows_a], rows[:, rows_b])
    else:
        states = xp.asarray(rows, dtype=dtype)
        gram = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
        overlaps = _accumulate(xp, xp.abs(gram) ** 2)[:, rows_a, rows_b]
    accepts = None
    if dense_end:
        operators = xp.asarray(rights, dtype=dtype)
        if noisy:
            # Each final density paired with its job's operator, both stacks
            # C-contiguous like the pair traces' operands, so a job's accepts
            # do not depend on its group (a gather through a transposed index
            # array would reorder the einsum's sums).
            finals = states[rows[:, final_rows].ravel()]
            values = _paired_traces(
                xp,
                xp.stack([operators, operators], axis=1),
                finals.reshape(len(rows), 2, *finals.shape[1:]),
            )
        else:
            final_states = states[:, final_rows]
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


@lru_cache(maxsize=128)
def _chain_strategy_layout(
    num_rows: int, filled: Tuple[int, ...], size: int, noisy: bool
) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
    """``(channels, states, base)``: the registers of a chain strategy batch.

    The registers of a batch filling template rows ``filled`` (of
    ``num_rows``) from a ``size``-row table are the rows no strategy fills,
    the table rows (a noisy batch's once per chain position a strategy
    fills: a node's two slots see the same channels) and the target.
    Register ``i`` holds row ``states[i]`` of ``[template rows; table;
    target]`` with the channels of template row ``channels[i]``; a
    strategy's job row ``r`` (``num_rows`` for the target) holds register
    ``base[r]`` plus the table row it chooses there.
    """
    registers: Dict[Tuple[int, int], int] = {}  # (channel row, source row) -> register
    base = []
    for row in range(num_rows):
        if row in filled:  # every table row, once per chain position: a node's slots share channels
            head, sources = max(row - 1 + row % 2, 0), range(num_rows, num_rows + size)
        else:
            head, sources = row, range(row, row + 1)
        if not noisy:
            head = -1  # channels play no part: each row once
        for source in sources:
            registers.setdefault((head, source), len(registers))
        base.append(registers[head, sources[0]])
    base.append(registers.setdefault((num_rows, num_rows + size), len(registers)))
    channels, states = zip(*registers)
    arrays = (np.array(states, dtype=np.intp), np.array(base, dtype=np.intp))
    for array in arrays:
        array.flags.writeable = False  # shared by every caller of the cache
    return (channels, *arrays)


def _chain_strategy_registers(
    batch: StrategyBatch, noisy: bool
) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
    """``(channels, states, registers)`` of ``batch`` (see :func:`_chain_strategy_layout`).

    ``registers[b, r]`` is the register in job row ``r`` of strategy ``b``,
    the target last.
    """
    template = batch.template
    channels, states, base = _chain_strategy_layout(
        len(batch.registers), tuple(batch.rows.tolist()), len(batch.table), noisy
    )
    sources = np.concatenate([batch.registers, batch.table, template.right_operator[None]])
    picks = np.zeros((len(batch), len(base)), dtype=np.intp)
    picks[:, batch.rows] = batch.choices
    return channels, sources[states], base + picks


def chain_strategy_density_table(
    dtype: np.dtype, batch: StrategyBatch
) -> Tuple[np.ndarray, np.ndarray]:
    """The density table of a noisy chain strategy batch, for :func:`chain_probabilities`.

    The batch's registers (:func:`_chain_strategy_registers`) take the
    channels :func:`chain_register_channels` gives their rows, and
    :func:`density_table` builds their densities like those of the batch's
    own jobs.  Returns the table and every strategy's ``(B, 2 + 4m)`` table
    rows in the layout of :func:`chain_density_table`.
    """
    template = batch.template
    channels, states, registers = _chain_strategy_registers(batch, noisy=True)
    kept, sent = chain_register_channels(template.noise, template.num_intermediate, True)
    table, ids = density_table(
        dtype, states, [kept[row] for row in channels], [sent[row] for row in channels]
    )
    # The left state sent, the pairs kept, the pairs sent, the target kept.
    pairs = registers[:, 1:-1]
    rows = np.concatenate(
        [ids[registers[:, :1], 1], ids[pairs, 0], ids[pairs, 1], ids[registers[:, -1:], 0]], axis=1
    )
    return table, rows


def chain_strategy_probabilities(
    xp: ArrayModule, dtype: np.dtype, batch: StrategyBatch
) -> np.ndarray:
    """Evaluate a chain :class:`~repro.engine.jobs.StrategyBatch` from its tables.

    Each SWAP test couples one node's forwarded register with the next
    node's kept one, so a strategy reads the table through O(m) pairs of
    rows.  A clean batch puts its registers (``[left; table; target]`` on a
    path) through one Gram product; each strategy gathers its overlaps on
    the host and folds them through :func:`chain_probabilities`' recursion
    tail.  A noisy batch builds the densities of its registers only
    (:func:`chain_strategy_density_table`) and gathers every strategy's
    rows of them into :func:`chain_probabilities`, its own jobs' kernel.
    """
    template = batch.template
    m = template.num_intermediate
    if template.is_noisy:
        table, rows = chain_strategy_density_table(dtype, batch)
        eps = np.full(len(batch), template.noise.readout_error)
        return chain_probabilities(xp, dtype, rows, None, eps, m, template.right_kind, table)
    _, states, registers = _chain_strategy_registers(batch, noisy=False)
    rows_a, rows_b, _ = _chain_row_pairs(m, 0, 2 * m + 1)
    states = xp.asarray(states[None], dtype=dtype)
    gram = xp.matmul(xp.conj(states), xp.transpose(states, (0, 2, 1)))
    lookup = _accumulate(xp, xp.abs(gram) ** 2)[0]
    overlaps = lookup[registers[:, rows_a], registers[:, rows_b]]
    return _fold_chain_tests(overlaps, None, None, m, template.right_kind)


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
