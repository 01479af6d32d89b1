"""Property-based differential tests (hypothesis) of the chain and tree IRs.

Every speedup of the transfer-matrix backend rewrites how a
:class:`~repro.engine.jobs.ChainJob` is contracted, while the dense backend
keeps the definitional semantics: the scalar transfer recursion for clean
chains, Kraus sums on the degenerate-path tree for noisy ones.  These tests
generate batches of chain jobs that mix several shapes in one call and hold
every batched evaluation to that reference:

* chains without intermediate nodes, short chains and long ones
  (``m`` in {0, 1, 2, 3, 17, 18});
* register dimensions 1 to 4, with dense, projector and swap right ends;
* clean jobs and noisy jobs, whose channels are drawn from the five named
  families and from generic Kraus channels cut from random isometries, with
  random readout errors and right-end preparation noise on vector ends.

The transfer-matrix and mock backends must agree with the dense reference
within 1e-9, the complex64 contraction within its parity tolerance, and each
job's :meth:`~repro.engine.jobs.ChainJob.to_tree_job` through both backends'
tree path within 1e-9.

A chain :class:`~repro.engine.jobs.StrategyBatch` (strategies as row indices
into a state table, 1 to 4 rows, filling a random set of the template's
register rows, ``m`` from 0 to 5, ``d`` from 1 to 4) must score every
strategy like its own :meth:`~repro.engine.jobs.StrategyBatch.jobs` within
1e-12 on the transfer-matrix and mock backends, and like the dense
reference within 1e-9 (complex64 within its parity tolerance), clean and
under named-family or random-isometry channels.  A chain batch and the
batch of its :meth:`~repro.engine.jobs.ChainJob.to_tree_job` with the same
register choices must agree within 1e-12 on the transfer-matrix and dense
backends, clean and noisy.

The matrix-free chain acceptance operator
(:func:`~repro.protocols.chain.chain_acceptance_sweep`) is held to the dense
:func:`~repro.protocols.chain.chain_acceptance_operator` within 1e-12 on random
vectors, and its Lanczos optimum to ``eigvalsh``, over clean and noisy chains
at ``d = 2`` (``m`` up to 4) and ``d = 3`` (``m`` up to 2).

The tree half does the same for :class:`~repro.engine.jobs.TreeJob` batches,
whose dense reference is the scalar leaf-to-root recursion:

* up-family jobs, clean and noisy, whose permutation tests have arity 2 to 6
  on fixed or symmetrized nodes, under a measuring root of any of the six
  measurement kinds (or none);
* fan-out jobs with fixed and router nodes and measuring leaves;
* clean registers of one to three tensor factors, and noisy jobs with
  named-family and random-isometry channels and readout errors.

Each structure is built one to three times with fresh states and channels,
so the batched backends stack real signature groups.

A tree :class:`~repro.engine.jobs.StrategyBatch` (a single-factor template
from the same strategies, 1 to 4 table rows filling a random set of its
slot rows) must score every strategy exactly like its own
:meth:`~repro.engine.jobs.StrategyBatch.jobs` on the transfer-matrix and
mock backends, bit for bit, and like the dense reference within 1e-9
(complex64 within its parity tolerance).

Noisy groups contract one density per distinct register form and one trace
per distinct pair of densities, so the last section builds batches that
repeat work: chains (``m`` in {0, 1, 3}) and up-family trees over one or
two shared state stacks, duplicated jobs, and channels that are absent,
identities, zero-strength, named families at shared and at distinct
strengths, generic and composed, with readout errors.  Each batch must
match the dense reference, and each job's value in the batch its value
alone, bit for bit for named-family channels.
"""

from dataclasses import replace as dataclass_replace
from math import factorial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    MEAS_DENSE,
    MEAS_DIAGONAL,
    MEAS_MATCH_ANY,
    MEAS_PROJECTOR,
    MEAS_SWAP,
    MEAS_THRESHOLD,
    NODE_FIXED,
    NODE_ROUTER,
    NODE_SYM,
    RIGHT_DENSE,
    RIGHT_PROJECTOR,
    RIGHT_SWAP,
    TEST_FANOUT,
    TEST_MEASURE,
    TEST_NONE,
    TEST_PERM,
    ChainJob,
    ChainNoise,
    DenseBackend,
    MeasurementSpec,
    MockDeviceTransferMatrixBackend,
    StrategyBatch,
    TransferMatrixBackend,
    TreeJobBuilder,
    TreeNoise,
    parity_tolerance,
)
from repro.engine import kernels
from repro.protocols.chain import (
    chain_acceptance_operator,
    chain_acceptance_sweep,
    lanczos_top_eigenvalue,
    right_end_swap_operator,
)
from repro.quantum.channels import CHANNEL_FAMILIES, KrausChannel, identity_channel
from repro.quantum.random_states import haar_random_state

MAX_EXAMPLES = 25

_FAMILIES = tuple(CHANNEL_FAMILIES.values())

job_specs = st.tuples(
    st.sampled_from([0, 1, 2, 3, 17, 18]),  # intermediate nodes m
    st.integers(1, 4),  # register dimension d
    st.sampled_from([RIGHT_DENSE, RIGHT_PROJECTOR, RIGHT_SWAP]),
    st.booleans(),  # noisy
    st.integers(0, 2**32 - 1),  # seed of the states and channels
)
job_batches = st.lists(job_specs, min_size=1, max_size=6)


def _isometry_channel(dim: int, rng: np.random.Generator) -> KrausChannel:
    """A generic CPTP map: the ``d x d`` blocks of a random isometry ``C^d -> C^(kd)``."""
    num_kraus = int(rng.integers(1, 4))
    gaussian = rng.standard_normal((num_kraus * dim, dim)) + 1j * rng.standard_normal(
        (num_kraus * dim, dim)
    )
    isometry, _ = np.linalg.qr(gaussian)
    return KrausChannel("generic", tuple(isometry.reshape(num_kraus, dim, dim)))


def _random_channel(dim: int, rng: np.random.Generator):
    """No channel, a named family at a random strength, or a generic channel."""
    choice = int(rng.integers(0, len(_FAMILIES) + 2))
    if choice == 0:
        return None
    if choice == 1:
        return _isometry_channel(dim, rng)
    return _FAMILIES[choice - 2](float(rng.uniform(0.0, 1.0)), dim)


def _chain_job(m: int, dim: int, kind: str, noisy: bool, seed: int) -> ChainJob:
    rng = np.random.default_rng(seed)
    left = haar_random_state(dim, rng=rng)
    pairs = [(haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng)) for _ in range(m)]
    if kind == RIGHT_DENSE:
        # A POVM element 0 <= a |v><v| + b I <= I.
        vector = haar_random_state(dim, rng=rng)
        weight, floor = rng.uniform(0.0, 1.0, 2) * [1.0, 0.5]
        right = (1.0 - floor) * weight * np.outer(vector, vector.conj()) + floor * np.eye(dim)
    else:
        right = haar_random_state(dim, rng=rng)
    noise = None
    if noisy:
        noise = ChainNoise(
            edge_channels=tuple(_random_channel(dim, rng) for _ in range(m + 1)),
            node_channels=tuple(_random_channel(dim, rng) for _ in range(m)),
            left_channel=_random_channel(dim, rng),
            right_channel=None if kind == RIGHT_DENSE else _random_channel(dim, rng),
            readout_error=float(rng.uniform(0.0, 0.2)),
        )
    return ChainJob.from_states(left, pairs, right, right_kind=kind, noise=noise)


def _jobs(specs):
    return [_chain_job(*spec) for spec in specs]


class TestChainDifferential:
    @given(specs=job_batches)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batched_backends_match_dense_reference(self, specs):
        jobs = _jobs(specs)
        reference = DenseBackend().chain_probabilities(jobs)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.chain_probabilities(jobs), reference, atol=1e-9, rtol=0.0
            )

    @given(specs=job_batches)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_complex64_within_parity_tolerance(self, specs):
        jobs = _jobs(specs)
        reference = DenseBackend().chain_probabilities(jobs)
        fast = TransferMatrixBackend(dtype="complex64").chain_probabilities(jobs)
        np.testing.assert_allclose(
            fast, reference, atol=parity_tolerance("complex64"), rtol=0.0
        )

    @given(specs=job_batches)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_tree_path_matches_chain_reference(self, specs):
        jobs = _jobs(specs)
        reference = DenseBackend().chain_probabilities(jobs)
        trees = [job.to_tree_job() for job in jobs]
        for backend in (DenseBackend(), TransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.tree_probabilities(trees), reference, atol=1e-9, rtol=0.0
            )


# --------------------------------------------------------------------------
# Chain strategy batches
# --------------------------------------------------------------------------

strategy_specs = st.tuples(
    st.integers(1, 4),  # table rows K
    st.integers(0, 5),  # intermediate nodes m
    st.integers(1, 4),  # register dimension d
    st.sampled_from([RIGHT_PROJECTOR, RIGHT_SWAP]),
    st.sampled_from(["clean", "named", "generic"]),  # channels
    st.integers(1, 6),  # strategies B
    st.integers(0, 2**32 - 1),  # seed of the states, choices and channels
)


def _strategy_batch(size, m, dim, kind, channels, count, seed) -> StrategyBatch:
    rng = np.random.default_rng(seed)
    table = np.stack([haar_random_state(dim, rng=rng) for _ in range(size)])
    left, right = haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng)
    pairs = np.array(
        [haar_random_state(dim, rng=rng) for _ in range(2 * m)], dtype=np.complex128
    ).reshape(m, 2, dim)
    # A random set of the 1 + 2m register rows (the left state among them),
    # with independent draws per row, so a node's two registers often differ.
    rows = rng.choice(2 * m + 1, size=int(rng.integers(1, 2 * m + 2)), replace=False)
    choices = rng.integers(0, size, size=(count, len(rows)))
    noise = None
    if channels != "clean":
        if channels == "named":

            def channel():
                family = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
                return family(float(rng.uniform(0.0, 1.0)), dim)

        else:

            def channel():
                return _isometry_channel(dim, rng)

        noise = ChainNoise(
            edge_channels=tuple(channel() for _ in range(m + 1)),
            node_channels=tuple(channel() for _ in range(m)),
            left_channel=channel(),
            right_channel=channel(),
            readout_error=float(rng.uniform(0.0, 0.1)),
        )
    template = ChainJob.from_arrays(left, pairs, right, kind, noise=noise)
    return StrategyBatch(template, table, choices, rows)


def _tree_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """The rows of :meth:`ChainJob.to_tree_job` holding chain register ``rows``.

    The path tree's rows are the right end's target, node ``m - 1``'s pair
    down to node 0's, then the left state.
    """
    tree_rows = [2 * m + 1] + [1 + 2 * (m - 1 - j) + s for j in range(m) for s in (0, 1)]
    return np.array(tree_rows, dtype=np.intp)[rows]


class TestChainStrategyBatchDifferential:
    """Table-indexed chain strategy batches against their own ordinary jobs.

    ``K`` from 1 to 4 table rows, ``m`` from 0 to 5 nodes and ``d`` from 1
    to 4, projector and swap right ends, a random set of filled register
    rows with random choices, and clean batches or noisy ones whose every
    edge, node and end carries a named-family or a random-isometry channel,
    with readout errors up to 0.1.  The table kernels must match
    :meth:`StrategyBatch.jobs` on the same backend within 1e-12 and the
    dense reference within 1e-9 (complex64 within its parity tolerance),
    and the batch of the template's path tree with the same choices within
    1e-12.
    """

    @given(spec=strategy_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_kernel_matches_its_jobs(self, spec):
        batch = _strategy_batch(*spec)
        assert len(batch.jobs()) == len(batch)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.strategy_probabilities(batch),
                backend.chain_probabilities(batch.jobs()),
                atol=1e-12,
                rtol=0.0,
            )

    @given(spec=strategy_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_kernel_matches_dense_reference(self, spec):
        batch = _strategy_batch(*spec)
        reference = DenseBackend().strategy_probabilities(batch)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.strategy_probabilities(batch), reference, atol=1e-9, rtol=0.0
            )
        np.testing.assert_allclose(
            TransferMatrixBackend(dtype="complex64").strategy_probabilities(batch),
            reference,
            atol=parity_tolerance("complex64"),
            rtol=0.0,
        )

    @given(spec=strategy_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_chain_and_its_path_tree_agree(self, spec):
        batch = _strategy_batch(*spec)
        template = batch.template
        tree = StrategyBatch(
            template.to_tree_job(),
            batch.table,
            batch.choices,
            _tree_rows(template.num_intermediate, batch.rows),
        )
        for backend in (TransferMatrixBackend(), DenseBackend()):
            np.testing.assert_allclose(
                backend.strategy_probabilities(batch),
                backend.strategy_probabilities(tree),
                atol=1e-12,
                rtol=0.0,
            )



# --------------------------------------------------------------------------
# Matrix-free chain acceptance operator
# --------------------------------------------------------------------------

sweep_specs = st.tuples(
    st.sampled_from([(2, m) for m in range(5)] + [(3, m) for m in range(3)]),  # (d, m)
    st.sampled_from(["projector", "swap", "dense"]),  # right end
    st.booleans(),  # noisy
    st.integers(0, 2**32 - 1),  # seed of the states and channels
)


def _sweep_instance(dim: int, m: int, kind: str, noisy: bool, seed: int):
    """``(left state, right accept element, ChainNoise or None)`` of one chain."""
    rng = np.random.default_rng(seed)
    left = haar_random_state(dim, rng=rng)
    target = haar_random_state(dim, rng=rng)
    if kind == "projector":
        right = np.outer(target, target.conj())
    elif kind == "swap":
        right = right_end_swap_operator(target)
    else:
        # A POVM element 0 <= a |v><v| + b I <= I.
        weight, floor = rng.uniform(0.0, 1.0, 2) * [1.0, 0.5]
        right = (1.0 - floor) * weight * np.outer(target, target.conj()) + floor * np.eye(dim)
    noise = None
    if noisy:
        noise = ChainNoise(
            edge_channels=tuple(_random_channel(dim, rng) for _ in range(m + 1)),
            node_channels=tuple(_random_channel(dim, rng) for _ in range(m)),
            left_channel=_random_channel(dim, rng),
            readout_error=float(rng.uniform(0.0, 0.2)),
        )
    return left, right, noise


class TestChainSweepDifferential:
    """:func:`chain_acceptance_sweep` and its Lanczos optimum against the dense operator.

    Register dimensions 2 (``m`` up to 4) and 3 (``m`` up to 2); projector,
    SWAP and dense right ends; clean chains and noisy ones whose edges,
    nodes and left end carry named-family or random-isometry channels, with
    random readout errors.
    """

    @given(spec=sweep_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_matvec_matches_dense_operator(self, spec):
        (dim, m), kind, noisy, seed = spec
        left, right, noise = _sweep_instance(dim, m, kind, noisy, seed)
        dense = chain_acceptance_operator(left, dim, m, right, noise=noise)
        matvec = chain_acceptance_sweep(left, dim, m, right, noise=noise)
        rng = np.random.default_rng([seed, 1])
        for _ in range(3):
            vector = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
            np.testing.assert_allclose(matvec(vector), dense @ vector, atol=1e-12, rtol=0.0)

    @given(spec=sweep_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_lanczos_matches_eigvalsh(self, spec):
        (dim, m), kind, noisy, seed = spec
        left, right, noise = _sweep_instance(dim, m, kind, noisy, seed)
        dense = chain_acceptance_operator(left, dim, m, right, noise=noise)
        top = np.linalg.eigvalsh((dense + dense.conj().T) / 2)[-1]
        matvec = chain_acceptance_sweep(left, dim, m, right, noise=noise)
        assert abs(lanczos_top_eigenvalue(matvec, dense.shape[0]) - top) <= 1e-12


# --------------------------------------------------------------------------
# Tree IR
# --------------------------------------------------------------------------

_MEAS_KINDS = (
    MEAS_DENSE,
    MEAS_DIAGONAL,
    MEAS_PROJECTOR,
    MEAS_SWAP,
    MEAS_MATCH_ANY,
    MEAS_THRESHOLD,
)

#: Cap on ``arity! * choice combinations`` of one permutation-test node, so
#: the scalar reference stays fast at arity 5 and 6.
_PERM_TERM_BUDGET = 4000

tree_specs = st.tuples(
    st.sampled_from(["up", "fanout"]),  # family
    st.booleans(),  # noisy (up family, single factor)
    st.integers(1, 3),  # tensor factors of a clean register
    st.integers(2, 6),  # arity of the top permutation test / fan-out width + 1
    st.sampled_from(_MEAS_KINDS + (None,)),  # measuring root / first leaf
    st.integers(0, 2**32 - 1),  # seed of the structure
    st.integers(1, 3),  # jobs sharing the structure (one signature group)
)
tree_batches = st.lists(tree_specs, min_size=1, max_size=4)


class _TreeSketch:
    """Draws one random tree job; ``shape`` fixes the structure, ``values``
    the states, operators and channels, so equal shapes share a signature."""

    def __init__(self, dims, noisy, shape, values):
        self.dims = dims
        self.noisy = noisy
        self.shape = shape
        self.values = values
        self.builder = TreeJobBuilder(num_factors=len(dims))

    def register(self):
        return tuple(haar_random_state(int(d), rng=self.values) for d in self.dims)

    def channels(self, dense_measurement=False):
        if not self.noisy:
            return {}
        dim = int(self.dims[0])
        node = None if dense_measurement else _random_channel(dim, self.values)
        return {"up_channel": _random_channel(dim, self.values), "node_channel": node}

    def measurement(self, kind):
        if kind == MEAS_DENSE:
            vector = haar_random_state(int(self.dims[0]), rng=self.values)
            weight, floor = self.values.uniform(0.0, 1.0, 2) * [1.0, 0.5]
            operator = (1.0 - floor) * weight * np.outer(vector, vector.conj())
            return MeasurementSpec(kind, operator=operator + floor * np.eye(len(vector)))
        if kind == MEAS_DIAGONAL:
            return MeasurementSpec(
                kind, operator=self.values.uniform(0.0, 1.0, int(self.dims[0]))
            )
        threshold = int(self.shape.integers(0, len(self.dims) + 2))
        return MeasurementSpec(kind, targets=self.register(), threshold=threshold)

    def kind(self, first=None):
        kinds = _MEAS_KINDS if len(self.dims) == 1 else _MEAS_KINDS[2:]
        if first in kinds:
            return first
        return kinds[int(self.shape.integers(0, len(kinds)))]

    def up_node(self, parent, arity, depth):
        """A permutation-test node of ``arity`` (kept register + children)."""
        sym = bool(self.shape.integers(0, 2))
        registers = (self.register(), self.register()) if sym else (self.register(),)
        node = self.builder.add_node(
            parent,
            NODE_SYM if sym else NODE_FIXED,
            registers=registers,
            test=TEST_PERM,
            **self.channels(),
        )
        combinations = 2 if sym else 1
        for _ in range(arity - 1):
            choices = 2 if self.shape.integers(0, 2) else 1
            if factorial(arity) * combinations * choices > _PERM_TERM_BUDGET:
                choices = 1
            combinations *= choices
            if depth < 2 and choices == 2 and self.shape.integers(0, 3) == 0:
                child_arity = 2 if len(self.dims) > 1 else int(self.shape.integers(2, 4))
                self.up_node(node, child_arity, depth + 1)
            elif choices == 2:
                self.builder.add_node(
                    node, NODE_SYM, registers=(self.register(), self.register()),
                    **self.channels(),
                )
            else:
                self.builder.add_node(
                    node, NODE_FIXED, registers=(self.register(),), **self.channels()
                )

    def fanout_node(self, parent, width, depth, first_kind=None):
        """A fixed or router fan-out node with ``width`` children."""
        router = bool(self.shape.integers(0, 2))
        count = width + 1 if router else 1
        node = self.builder.add_node(
            parent,
            NODE_ROUTER if router else NODE_FIXED,
            registers=tuple(self.register() for _ in range(count)),
            test=TEST_FANOUT,
        )
        for index in range(width):
            draw = int(self.shape.integers(0, 6))
            if depth < 2 and draw == 0:
                self.fanout_node(node, int(self.shape.integers(1, 4)), depth + 1)
            elif draw == 1:
                self.builder.add_node(node, NODE_FIXED, registers=(self.register(),))
            else:
                kind = self.kind(first_kind if index == 0 else None)
                self.builder.add_node(
                    node, NODE_FIXED, test=TEST_NONE, measurement=self.measurement(kind)
                )


def _tree_job(family, noisy, factors, arity, kind, seed, copy, max_error=0.2):
    noisy = noisy and family == "up"
    shape = np.random.default_rng(seed)
    dims = shape.integers(1, 4, 1 if noisy else factors)
    sketch = _TreeSketch(dims, noisy, shape, np.random.default_rng([seed, copy]))
    if family == "fanout":
        sketch.fanout_node(-1, min(arity - 1, 5), 0, first_kind=kind)
        return sketch.builder.build()
    if len(dims) > 1:
        arity = 2  # permutation tests of arity > 2 need single-factor registers
    if kind is None:
        sketch.up_node(-1, arity, 0)
    else:
        kind = sketch.kind(kind)
        root = sketch.builder.add_node(
            -1,
            NODE_FIXED,
            test=TEST_MEASURE,
            measurement=sketch.measurement(kind),
            **sketch.channels(dense_measurement=kind in (MEAS_DENSE, MEAS_DIAGONAL)),
        )
        sketch.up_node(root, arity, 0)
    error = float(sketch.values.uniform(0.0, max_error)) if sketch.values.integers(0, 3) else 0.0
    return sketch.builder.build(readout_error=error if noisy else 0.0)


def _tree_jobs(specs):
    return [
        _tree_job(*spec[:-1], copy) for spec in specs for copy in range(spec[-1])
    ]


class TestTreeDifferential:
    @given(specs=tree_batches)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batched_backends_match_dense_reference(self, specs):
        jobs = _tree_jobs(specs)
        reference = DenseBackend().tree_probabilities(jobs)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.tree_probabilities(jobs), reference, atol=1e-9, rtol=0.0
            )

    @given(specs=tree_batches)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_complex64_within_parity_tolerance(self, specs):
        jobs = _tree_jobs(specs)
        reference = DenseBackend().tree_probabilities(jobs)
        fast = TransferMatrixBackend(dtype="complex64").tree_probabilities(jobs)
        np.testing.assert_allclose(
            fast, reference, atol=parity_tolerance("complex64"), rtol=0.0
        )


# --------------------------------------------------------------------------
# Tree strategy batches
# --------------------------------------------------------------------------

tree_strategy_specs = st.tuples(
    st.sampled_from(["up", "fanout"]),  # family of the template
    st.booleans(),  # noisy (up family)
    st.integers(2, 6),  # arity of the top permutation test / fan-out width + 1
    st.sampled_from(_MEAS_KINDS + (None,)),  # measuring root / first leaf
    st.integers(1, 4),  # table rows K
    st.integers(1, 6),  # strategies B
    st.integers(0, 2**32 - 1),  # seed of the template, rows, table and choices
)


def _tree_strategy_batch(family, noisy, arity, kind, size, count, seed) -> StrategyBatch:
    """A single-factor template of the tree-IR strategies, with random proof slots."""
    template = _tree_job(family, noisy, 1, arity, kind, seed, 0, max_error=0.1)
    rng = np.random.default_rng([seed, 1])
    slot_rows = sorted({row for slots in template.slots for row in slots})
    rows = rng.choice(slot_rows, size=int(rng.integers(1, len(slot_rows) + 1)), replace=False)
    dim = int(template.factors[0].shape[1])
    table = np.stack([haar_random_state(dim, rng=rng) for _ in range(size)])
    choices = rng.integers(0, size, size=(count, len(rows)))
    return StrategyBatch(template, table, choices, rows)


class TestTreeStrategyBatchDifferential:
    """Table-indexed tree strategy batches against their own ordinary tree jobs.

    Templates are the tree-IR jobs above with one tensor factor: up-family
    permutation tests of arity 2 to 6 under any measuring root, and fan-out
    trees with routers and measuring leaves; clean, or noisy with
    named-family and random-isometry channels and readout errors up to 0.1.
    A random set of slot rows takes choices from 1 to 4 table rows.  The
    transfer-matrix and mock backends gather each strategy's stack from the
    table into the ordinary group evaluator, so they must equal their own
    :meth:`StrategyBatch.jobs` bit for bit (generic channels included);
    the dense reference within 1e-9 and complex64 within its tolerance.
    """

    @given(spec=tree_strategy_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_route_matches_its_jobs_bit_for_bit(self, spec):
        batch = _tree_strategy_batch(*spec)
        assert len(batch.jobs()) == len(batch)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            table = backend.strategy_probabilities(batch)
            jobs = backend.tree_probabilities(batch.jobs())
            np.testing.assert_array_equal(table.view(np.uint64), jobs.view(np.uint64))

    @given(spec=tree_strategy_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_route_matches_dense_reference(self, spec):
        batch = _tree_strategy_batch(*spec)
        reference = DenseBackend().strategy_probabilities(batch)
        for backend in (TransferMatrixBackend(), MockDeviceTransferMatrixBackend()):
            np.testing.assert_allclose(
                backend.strategy_probabilities(batch), reference, atol=1e-9, rtol=0.0
            )
        np.testing.assert_allclose(
            TransferMatrixBackend(dtype="complex64").strategy_probabilities(batch),
            reference,
            atol=parity_tolerance("complex64"),
            rtol=0.0,
        )


# --------------------------------------------------------------------------
# Density and pair-trace tables of noisy groups
# --------------------------------------------------------------------------

table_specs = st.tuples(
    st.sampled_from([0, 1, 3]),  # intermediate nodes m
    st.integers(1, 4),  # register dimension d
    st.sampled_from([RIGHT_DENSE, RIGHT_PROJECTOR, RIGHT_SWAP]),
    st.integers(1, 2),  # templates (state stacks) the jobs share
    st.integers(1, 8),  # jobs before duplication
    st.integers(0, 2**32 - 1),  # seed of the states, channels and choices
)


class _Palette:
    """The channels a batch draws from, built to repeat work.

    No channel, the identity map, zero-strength named families, named
    families at two strengths every job shares (the same objects and fresh
    equal ones), named families at a strength of their own, a generic Kraus
    channel and a composed one.  ``named_only`` restricts the draw to the
    channels the batched path applies in closed form (or skips).
    """

    def __init__(self, dim, rng):
        self.dim = dim
        self.rng = rng
        self.strengths = [float(s) for s in rng.uniform(0.0, 1.0, 2)]
        self.shared = [family(s, dim) for family in _FAMILIES for s in self.strengths]
        self.generic = _isometry_channel(dim, rng)
        self.composed = _FAMILIES[0](0.3, dim).then(_FAMILIES[2](0.4, dim))

    def draw(self, named_only):
        choice = int(self.rng.integers(0, 8 if named_only else 10))
        family = _FAMILIES[int(self.rng.integers(0, len(_FAMILIES)))]
        if choice == 0:
            return None
        if choice == 1:
            return identity_channel(self.dim)
        if choice == 2:
            return family(0.0, self.dim)
        if choice in (3, 4):
            return self.shared[int(self.rng.integers(0, len(self.shared)))]
        if choice == 5:
            return family(self.strengths[int(self.rng.integers(0, 2))], self.dim)
        if choice in (6, 7):
            return family(float(self.rng.uniform(0.0, 1.0)), self.dim)
        return self.generic if choice == 8 else self.composed


def _readout(rng):
    return (0.0, 0.05, float(rng.uniform(0.0, 0.2)))[int(rng.integers(0, 3))]


def _table_chain_jobs(m, dim, kind, templates, count, seed):
    """``(jobs, named)``: chains over shared state stacks, with the jobs whose
    channels are all named-family, identity or absent flagged in ``named``."""
    rng = np.random.default_rng(seed)
    stacks = [_chain_job(m, dim, kind, False, int(rng.integers(0, 2**32))) for _ in range(templates)]
    palette = _Palette(dim, rng)
    jobs, named = [], []
    for _ in range(count):
        template = stacks[int(rng.integers(0, templates))]
        only = bool(rng.integers(0, 2))
        noise = ChainNoise(
            edge_channels=tuple(palette.draw(only) for _ in range(m + 1)),
            node_channels=tuple(palette.draw(only) for _ in range(m)),
            left_channel=palette.draw(only),
            right_channel=None if kind == RIGHT_DENSE else palette.draw(only),
            readout_error=_readout(rng),
        )
        jobs.append(dataclass_replace(template, noise=noise))
        named.append(only)
        if rng.integers(0, 3) == 0:  # the same job twice, or an equal copy
            again = jobs[-1] if rng.integers(0, 2) else dataclass_replace(jobs[-1])
            jobs.append(again)
            named.append(only)
    return jobs, named


tree_table_specs = st.tuples(
    st.integers(2, 4),  # arity of the top permutation test
    st.sampled_from(_MEAS_KINDS + (None,)),  # measuring root
    st.integers(1, 2),  # templates: one structure, fresh states per template
    st.integers(1, 6),  # jobs before duplication
    st.integers(0, 2**32 - 1),  # seed of the structure, channels and choices
)


def _table_tree_jobs(arity, kind, templates, count, seed):
    """Up-family tree jobs over shared templates, like :func:`_table_chain_jobs`."""
    stacks = [_tree_job("up", True, 1, arity, kind, seed, copy) for copy in range(templates)]
    rng = np.random.default_rng([seed, 2])
    palette = _Palette(int(stacks[0].factors[0].shape[1]), rng)
    # A dense or diagonal measuring node carries no prepared reference state.
    unprepared = [
        measurement is not None and measurement.kind in (MEAS_DENSE, MEAS_DIAGONAL)
        for measurement in stacks[0].measurements
    ]
    jobs, named = [], []
    for _ in range(count):
        template = stacks[int(rng.integers(0, templates))]
        only = bool(rng.integers(0, 2))
        noise = TreeNoise(
            up_channels=tuple(palette.draw(only) for _ in unprepared),
            node_channels=tuple(None if skip else palette.draw(only) for skip in unprepared),
            readout_error=_readout(rng),
        )
        jobs.append(dataclass_replace(template, noise=noise))
        named.append(only)
        if rng.integers(0, 3) == 0:
            jobs.append(jobs[-1])
            named.append(only)
    return jobs, named


def _assert_tables_hold(jobs, named, evaluate):
    """Dense parity in both dtypes, and each closed-form job's bits alone."""
    reference = evaluate(DenseBackend(), jobs)
    batched = evaluate(TransferMatrixBackend(), jobs)
    np.testing.assert_allclose(batched, reference, atol=1e-9, rtol=0.0)
    np.testing.assert_allclose(
        evaluate(MockDeviceTransferMatrixBackend(), jobs), reference, atol=1e-9, rtol=0.0
    )
    np.testing.assert_allclose(
        evaluate(TransferMatrixBackend(dtype="complex64"), jobs),
        reference,
        atol=parity_tolerance("complex64"),
        rtol=0.0,
    )
    backend = TransferMatrixBackend()
    for job, value, only in zip(jobs, batched, named):
        alone = evaluate(backend, [job])[0]
        if only:
            assert alone.hex() == value.hex()
        else:
            assert abs(alone - value) <= 1e-12


class TestNoisyTableDifferential:
    """Noisy groups that repeat work, through the density and pair-trace tables.

    Chain batches share one or two state stacks (``m`` in {0, 1, 3}, ``d``
    1 to 4, vector and dense right ends) and tree batches one up-family
    structure with one or two sets of states; every slot draws from a
    palette of absent, identity, zero-strength, shared-strength,
    own-strength, generic and composed channels, with readout errors, and
    some jobs come twice.  Each batch matches the dense reference (1e-9,
    complex64 within its tolerance), and each job's value in the batch
    equals its value alone: bit for bit when its channels are named
    families, identities or absent, within 1e-12 otherwise (a generic
    channel's superoperator matmul may move a last bit with its row count).
    The pair-code deduplication behind the traces returns the sorted
    distinct codes and each code's position among them.
    """

    @given(spec=table_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_chain_tables_match_dense_and_jobs_alone(self, spec):
        jobs, named = _table_chain_jobs(*spec)
        _assert_tables_hold(jobs, named, lambda backend, batch: backend.chain_probabilities(batch))

    @given(spec=tree_table_specs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_tree_tables_match_dense_and_jobs_alone(self, spec):
        jobs, named = _table_tree_jobs(*spec)
        _assert_tables_hold(jobs, named, lambda backend, batch: backend.tree_probabilities(batch))

    @given(
        values=st.lists(st.integers(0, 2**40), min_size=1, max_size=60),
        columns=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_pair_code_deduplication(self, values, columns):
        codes = np.array(values * columns, dtype=np.intp).reshape(columns, -1)
        distinct, position = kernels._distinct(codes)
        assert distinct.tolist() == sorted(set(values))
        assert position.shape == codes.shape
        np.testing.assert_array_equal(distinct[position], codes)
