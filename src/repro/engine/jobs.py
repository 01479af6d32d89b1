"""Jobs and programs: the engine's intermediate representation.

The engine evaluates protocols through two job types, one batch type and one
program type:

:class:`ChainJob`
    One instance of the symmetrized SWAP-test chain shared by Algorithms 3, 6,
    7 and 10 of the paper: a fixed left state, ``m >= 0`` intermediate
    register pairs and a right-end accept operator.  Chains are kept as a
    dedicated flat-array job because they are by far the hottest shape; the
    batched backend evaluates every group of them, clean or noisy and of any
    length, with one kernel (:func:`repro.engine.kernels.
    chain_probabilities`).  Semantically a chain is the degenerate *path*
    tree (see :meth:`ChainJob.to_tree_job`).

:class:`TreeJob`
    One instance of a tree-structured verification: a rooted tree whose nodes
    carry registers (a fixed state, a symmetrized kept/sent pair, or a routed
    bundle), whose SWAP/permutation-test links follow the tree edges, and
    whose measuring leaves (or the measuring root of a path) carry accept
    operators.  This covers the Algorithm 5 equality protocol on general
    networks, the Algorithm 9 one-way-protocol trees of Theorem 32, and — as
    the degenerate path — every chain protocol.

:class:`StrategyBatch`
    Many proof strategies of one chain or tree job: a template job (a
    protocol's honest job), a table of register states and, per strategy,
    the table row of every register row the strategies fill.  A strategy
    search compiles each chunk to batches; the transfer-matrix backend
    scores a chain's from per-register tables and gathers a tree's into its
    ordinary group evaluator, every other backend evaluates the ordinary
    jobs of :meth:`StrategyBatch.jobs`.

:class:`TreeProgram`
    A weighted sum of products of jobs,

    ``P = sum_t  w_t * prod_{i in t} p(job_i)``,

    which is the shape every compiled protocol's acceptance probability
    takes.  Terms may mix chain and tree jobs; the engine flattens the jobs
    of many programs into one batch per job type so a backend evaluates all
    of them in a handful of stacked contractions.  :class:`ChainProgram` is a
    thin subclass retained for the chain families.

Tree-node vocabulary
--------------------

Every tree node has a *kind* (what registers it holds and how its local
randomness assigns them to ports) and a *test* (which accept factor it
contributes).  Acceptance of a job is the expectation, over the independent
per-node randomness, of the product of all test factors — which the backends
contract leaf-to-root instead of enumerating the joint pattern space.

Kinds:

``NODE_FIXED``
    At most one register and no randomness; the register (an input
    fingerprint, a chain's left state, the root message of a one-way tree) is
    presented unchanged on every port.  A fixed node with no register is a
    pure measuring leaf.
``NODE_SYM``
    Two registers *(kept-candidate, sent-candidate)*; with probability 1/2
    the node swaps them (the paper's symmetrization step).  Choice ``s``:
    slot ``s`` is kept for the node's own test, slot ``1 - s`` is forwarded
    to the parent.
``NODE_ROUTER``
    ``delta + 1`` registers for a node with ``delta`` children; the node
    draws a uniformly random assignment of registers to the ports
    *(child_1, ..., child_delta, keep)* — the Step-4 randomization of
    Algorithm 9.

Tests:

``TEST_NONE``
    No factor (input leaves, measuring leaves — their operator is consumed by
    the parent's ``TEST_FANOUT`` — and routers' non-terminal leaves).
``TEST_PERM``
    The permutation test of the node's kept register together with the
    register each child forwards *up* to it; for one child this is exactly
    the SWAP test, so chains are the arity-2 special case.
``TEST_MEASURE``
    The node applies its measurement operator to its single child's
    forwarded register — the right end of a chain written as a tree root.
``TEST_FANOUT``
    The node sends one register *down* to every child; an internal child
    SWAP-tests what it receives against its kept register, a measuring leaf
    child applies its measurement to what it receives (Algorithm 9).

Measurements (:class:`MeasurementSpec` / :class:`LeafMeasurement`):

``MEAS_DENSE``        ``<f| M |f>`` for an explicit operator (single factor).
``MEAS_DIAGONAL``     ``sum_i M_ii |f_i|^2`` for a diagonal operator.
``MEAS_PROJECTOR``    ``prod_f |<t_f|g_f>|^2`` — match every tensor factor.
``MEAS_SWAP``         ``1/2 + 1/2 prod_f |<t_f|g_f>|^2`` — a SWAP-test end.
``MEAS_MATCH_ANY``    ``1 - prod_f (1 - |<t_f|g_f>|^2)`` — at least one
                      factor matches (the erase-mask Hamming measurement).
``MEAS_THRESHOLD``    ``P[#matching factors >= threshold]`` under independent
                      per-factor checks (the sketch Hamming measurement).

Registers may be tensor products: a job carries one stacked state array per
tensor factor, and all overlaps factorize across the stacks — which is how
the many-factor Hamming messages ride the batched path without ever
materialising their product states.

Noise annotations
-----------------

Jobs may carry channel annotations (:class:`ChainNoise` for chains,
:class:`TreeNoise` for trees) mapping :class:`~repro.quantum.channels.
KrausChannel` instances onto the protocol's links (registers in transit),
nodes (proof delivery / input preparation) and tests (a classical readout
error flipping each accept flag).  Annotated jobs are evaluated on the
backends' density-matrix path: every register becomes the density matrix
obtained by pushing its pure state through the relevant channels, every
SWAP/permutation-test factor generalizes from squared overlaps to
Hilbert-Schmidt traces, and the same leaf-to-root / transfer contractions
run unchanged on vectorized densities.  Jobs without annotations (or with
structurally empty ones) stay on the pure-state fast path; the noisy flag is
part of :attr:`ChainJob.shape_key` and :attr:`TreeJob.signature`, so clean
and noisy jobs batch separately but noisy jobs with *different channel
strengths* still stack into one contraction — which is what makes
noise-strength sweeps fast.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.quantum.channels import KrausChannel

#: Right-end kinds of a :class:`ChainJob`.  ``dense`` carries a full
#: ``(d, d)`` accept operator; ``projector`` carries a vector ``phi`` with
#: accept ``|<phi|f>|^2`` (the fingerprint measurement of the one-way EQ
#: protocol); ``swap`` carries a vector ``phi`` with accept
#: ``1/2 + |<phi|f>|^2 / 2`` (a right end that SWAP-tests against its own
#: fixed state, i.e. ``(I + |phi><phi|)/2``).
RIGHT_DENSE = "dense"
RIGHT_PROJECTOR = "projector"
RIGHT_SWAP = "swap"

_VECTOR_RIGHT_KINDS = (RIGHT_PROJECTOR, RIGHT_SWAP)

#: Tree-node kinds (see the module docstring).
NODE_FIXED = "fixed"
NODE_SYM = "sym"
NODE_ROUTER = "router"

#: Tree-node tests (see the module docstring).
TEST_NONE = "none"
TEST_PERM = "perm"
TEST_MEASURE = "measure"
TEST_FANOUT = "fanout"

#: Measurement kinds (see the module docstring).  The first three reuse the
#: chain right-end names so :meth:`ChainJob.to_tree_job` is a rename-free map.
MEAS_DENSE = RIGHT_DENSE
MEAS_PROJECTOR = RIGHT_PROJECTOR
MEAS_SWAP = RIGHT_SWAP
MEAS_DIAGONAL = "diagonal"
MEAS_MATCH_ANY = "match-any"
MEAS_THRESHOLD = "match-threshold"

_VECTOR_MEAS_KINDS = (MEAS_PROJECTOR, MEAS_SWAP, MEAS_MATCH_ANY, MEAS_THRESHOLD)

#: Largest permutation-test arity (kept register + children) a tree node may
#: compile to: the cycle expansion enumerates all ``arity!`` permutations per
#: test.
MAX_PERM_TEST_ARITY = 6

#: Largest register bundle of a router node: the leaf-to-root marginalisation
#: enumerates ``(delta + 1)!`` assignments per node (never across nodes).
MAX_ROUTER_REGISTERS = 6


def _validate_channel_tuple(
    channels: Sequence[Optional[KrausChannel]], count: int, dim: int, what: str
) -> Tuple[Optional[KrausChannel], ...]:
    channels = tuple(channels)
    if len(channels) != count:
        raise ProtocolError(f"expected {count} {what} channels, got {len(channels)}")
    for channel in channels:
        if channel is not None and channel.dim != dim:
            raise DimensionMismatchError(
                f"{what} channel {channel.name!r} acts on dimension {channel.dim}, "
                f"registers have dimension {dim}"
            )
    return channels


@dataclass(frozen=True, eq=False)
class ChainNoise:
    """Channel annotations of a :class:`ChainJob` (see the module docstring).

    Attributes
    ----------
    edge_channels:
        One optional channel per path edge, ``m + 1`` entries for a chain
        with ``m`` intermediate nodes (edge ``j`` joins node ``j`` to node
        ``j + 1``; node 0 is the left end).  Applied to every register sent
        across the edge.
    node_channels:
        One optional channel per intermediate node, applied to both proof
        registers delivered to it.
    left_channel:
        Preparation noise of the left end's own register.
    right_channel:
        Preparation noise of the right end's reference state — the target
        vector of a ``projector``/``swap`` right end (matching the tree
        family, where the root verifier's own register picks up its node
        channel).  Dense right ends carry no prepared state; annotating one
        raises at validation.
    readout_error:
        Probability that each local test's accept flag is misread (the
        classical binary symmetric channel on the outcome).
    """

    edge_channels: Tuple[Optional[KrausChannel], ...]
    node_channels: Tuple[Optional[KrausChannel], ...]
    left_channel: Optional[KrausChannel] = None
    right_channel: Optional[KrausChannel] = None
    readout_error: float = 0.0

    def __post_init__(self) -> None:
        error = float(self.readout_error)
        if not 0.0 <= error <= 1.0:
            raise ProtocolError(f"readout error must lie in [0, 1], got {error}")
        object.__setattr__(self, "readout_error", error)

    def validate(
        self, num_intermediate: int, dim: int, right_kind: Optional[str] = None
    ) -> None:
        """Check the annotation against a chain of ``m`` nodes and dimension ``d``."""
        _validate_channel_tuple(self.edge_channels, num_intermediate + 1, dim, "edge")
        _validate_channel_tuple(self.node_channels, num_intermediate, dim, "node")
        if self.left_channel is not None and self.left_channel.dim != dim:
            raise DimensionMismatchError(
                "left preparation channel has the wrong dimension"
            )
        if self.right_channel is not None:
            if self.right_channel.dim != dim:
                raise DimensionMismatchError(
                    "right preparation channel has the wrong dimension"
                )
            if right_kind == RIGHT_DENSE:
                raise ProtocolError(
                    "preparation noise on a dense right end is not supported: "
                    "dense accept operators carry no prepared reference state"
                )

    @property
    def is_trivial(self) -> bool:
        """True when no channel is assigned and the readout is perfect."""
        return (
            all(channel is None for channel in self.edge_channels)
            and all(channel is None for channel in self.node_channels)
            and self.left_channel is None
            and self.right_channel is None
            and self.readout_error == 0.0
        )

    @property
    def key(self) -> Tuple:
        """Value-level cache key: the per-position channel keys plus readout.

        Unlike a :class:`~repro.quantum.channels.NoiseModel` (whose key does
        not say how it lands on a particular network's labels), this captures
        exactly the channels the annotated job evaluates with — the right key
        for caching compiled programs.
        """
        def channel_key(channel: Optional[KrausChannel]) -> Optional[tuple]:
            return None if channel is None else channel.key

        return (
            tuple(channel_key(c) for c in self.edge_channels),
            tuple(channel_key(c) for c in self.node_channels),
            channel_key(self.left_channel),
            channel_key(self.right_channel),
            self.readout_error,
        )


@dataclass(frozen=True, eq=False)
class TreeNoise:
    """Channel annotations of a :class:`TreeJob` (up-forwarding family only).

    Attributes
    ----------
    up_channels:
        One optional channel per node, applied to the register the node
        forwards to its parent (the physical link toward the root); the
        root's entry is unused.
    node_channels:
        One optional channel per node, applied to every register the node
        holds (proof delivery for symmetrized nodes, input preparation for
        fixed leaves).
    readout_error:
        Probability that each local test's accept flag is misread.
    """

    up_channels: Tuple[Optional[KrausChannel], ...]
    node_channels: Tuple[Optional[KrausChannel], ...]
    readout_error: float = 0.0

    def __post_init__(self) -> None:
        error = float(self.readout_error)
        if not 0.0 <= error <= 1.0:
            raise ProtocolError(f"readout error must lie in [0, 1], got {error}")
        object.__setattr__(self, "readout_error", error)
        object.__setattr__(self, "up_channels", tuple(self.up_channels))
        object.__setattr__(self, "node_channels", tuple(self.node_channels))

    @property
    def is_trivial(self) -> bool:
        """True when no channel is assigned and the readout is perfect."""
        return (
            all(channel is None for channel in self.up_channels)
            and all(channel is None for channel in self.node_channels)
            and self.readout_error == 0.0
        )


@dataclass(frozen=True, eq=False)
class ChainJob:
    """One symmetrized SWAP-test chain instance.

    Compared by identity (``eq=False``): the fields are numpy arrays, for
    which the auto-generated dataclass ``__eq__``/``__hash__`` would raise.

    Attributes
    ----------
    left:
        The pure state of the left end, shape ``(d,)``.
    pairs:
        Proof register pairs of the intermediate nodes, shape ``(m, 2, d)``
        with slot 0 the kept-when-not-swapped register; ``m = 0`` encodes the
        degenerate chain where the left state reaches the right end directly.
    right_operator:
        The right end's accept element: a ``(d, d)`` matrix for the
        ``dense`` kind, or the defining vector ``phi`` of shape ``(d,)``
        for the rank-one-structured ``projector`` / ``swap`` kinds (which
        backends can fold into the same Gram contraction as the chain).
    right_kind:
        One of ``"dense"``, ``"projector"``, ``"swap"``.
    noise:
        Optional :class:`ChainNoise` channel annotation; when present (and
        not structurally empty) the job is evaluated on the density-matrix
        path.
    """

    left: np.ndarray
    pairs: np.ndarray
    right_operator: np.ndarray
    right_kind: str = RIGHT_DENSE
    noise: Optional[ChainNoise] = None

    @classmethod
    def from_states(
        cls,
        left: np.ndarray,
        node_pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
        right_operator: np.ndarray,
        right_kind: str = RIGHT_DENSE,
        noise: Optional[ChainNoise] = None,
    ) -> "ChainJob":
        """Build a job from the per-node ``(a_j, b_j)`` state pairs."""
        left_vec = np.asarray(left, dtype=np.complex128).reshape(-1)
        dim = left_vec.size
        if node_pairs:
            pairs = np.empty((len(node_pairs), 2, dim), dtype=np.complex128)
            for index, (a, b) in enumerate(node_pairs):
                a_vec = np.asarray(a, dtype=np.complex128).reshape(-1)
                b_vec = np.asarray(b, dtype=np.complex128).reshape(-1)
                if a_vec.size != dim or b_vec.size != dim:
                    raise DimensionMismatchError(
                        "all chain registers must share one dimension"
                    )
                pairs[index, 0] = a_vec
                pairs[index, 1] = b_vec
        else:
            pairs = np.zeros((0, 2, dim), dtype=np.complex128)
        return cls.from_arrays(left_vec, pairs, right_operator, right_kind, noise=noise)

    @classmethod
    def from_arrays(
        cls,
        left: np.ndarray,
        pairs: np.ndarray,
        right_operator: np.ndarray,
        right_kind: str = RIGHT_DENSE,
        noise: Optional[ChainNoise] = None,
    ) -> "ChainJob":
        """Fast constructor for callers that already hold stacked arrays.

        ``pairs`` must have shape ``(m, 2, d)`` (a read-only broadcast view is
        fine: backends stack jobs into fresh arrays before contracting).
        """
        left = np.asarray(left, dtype=np.complex128)
        pairs = np.asarray(pairs, dtype=np.complex128)
        right_operator = np.asarray(right_operator, dtype=np.complex128)
        if pairs.shape[1:] != (2, left.size):
            raise DimensionMismatchError("all chain registers must share one dimension")
        if right_kind == RIGHT_DENSE:
            expected = (left.size, left.size)
        elif right_kind in _VECTOR_RIGHT_KINDS:
            expected = (left.size,)
        else:
            raise DimensionMismatchError(f"unknown right-end kind {right_kind!r}")
        if right_operator.shape != expected:
            raise DimensionMismatchError("right accept operator has the wrong dimension")
        if noise is not None:
            noise.validate(int(pairs.shape[0]), int(left.size), right_kind)
        return cls(
            left=left,
            pairs=pairs,
            right_operator=right_operator,
            right_kind=right_kind,
            noise=noise,
        )

    def dense_right_operator(self) -> np.ndarray:
        """The right end as an explicit ``(d, d)`` matrix (any kind)."""
        if self.right_kind == RIGHT_DENSE:
            return self.right_operator
        phi = self.right_operator
        projector = np.outer(phi, phi.conj())
        if self.right_kind == RIGHT_PROJECTOR:
            return projector
        return (np.eye(phi.size, dtype=np.complex128) + projector) / 2.0

    @property
    def num_intermediate(self) -> int:
        """Number of intermediate nodes ``m``."""
        return int(self.pairs.shape[0])

    @property
    def dim(self) -> int:
        """Register dimension ``d``."""
        return int(self.left.size)

    @property
    def is_noisy(self) -> bool:
        """True when the job carries a non-empty channel annotation."""
        return self.noise is not None and not self.noise.is_trivial

    @property
    def shape_key(self) -> Tuple[int, int, str, bool]:
        """Grouping key ``(m, d, right_kind, noisy)`` for stacked batch evaluation.

        Noisy jobs group apart from clean ones (they contract vectorized
        densities instead of state vectors), but jobs whose channels differ
        only in strength share a group — a noise sweep is one stack.
        """
        key = self.__dict__.get("_shape_key")
        if key is None:
            key = (self.num_intermediate, self.dim, self.right_kind, self.is_noisy)
            object.__setattr__(self, "_shape_key", key)
        return key

    def with_noise(self, noise: Optional[ChainNoise]) -> "ChainJob":
        """This job carrying ``noise``, an annotation validated for its layout.

        :meth:`ChainNoise.validate` checks an annotation once where a
        protocol maps it onto its chain (:func:`repro.protocols.equality.
        path_chain_noise`), so attaching it to a cached template checks
        nothing again.
        """
        return dataclass_replace(self, noise=noise)

    def to_tree_job(self) -> "TreeJob":
        """This chain as the degenerate path tree.

        The tree is rooted at the right end (a fixed node that measures its
        single child's forwarded register); the intermediate nodes become
        symmetrized nodes whose arity-2 permutation test *is* the SWAP test,
        and the left end becomes a fixed leaf.  A :class:`ChainNoise`
        annotation maps onto the equivalent :class:`TreeNoise` (edge ``j``
        becomes the up-link of the node forwarding across it).  Both
        representations evaluate to the same probability — exercised by the
        engine parity tests.
        """
        builder = TreeJobBuilder()
        measurement = MeasurementSpec(
            kind=self.right_kind,
            operator=self.right_operator if self.right_kind == RIGHT_DENSE else None,
            targets=None if self.right_kind == RIGHT_DENSE else (self.right_operator,),
        )
        parent = builder.add_node(
            -1, NODE_FIXED, test=TEST_MEASURE, measurement=measurement
        )
        for index in range(self.num_intermediate - 1, -1, -1):
            parent = builder.add_node(
                parent,
                NODE_SYM,
                registers=((self.pairs[index, 0],), (self.pairs[index, 1],)),
                test=TEST_PERM,
            )
        builder.add_node(parent, NODE_FIXED, registers=((self.left,),))
        return builder.build(noise=self._tree_noise())

    def _tree_noise(self) -> Optional["TreeNoise"]:
        """The chain's noise annotation in tree-node order (or ``None``)."""
        if self.noise is None:
            return None
        m = self.num_intermediate
        # Tree node order: root (right end), intermediates m-1 .. 0, left leaf.
        # The root's node channel is the right end's preparation noise: the
        # evaluators apply a measuring node's node channel to its target row.
        up_channels: List[Optional[KrausChannel]] = [None]
        node_channels: List[Optional[KrausChannel]] = [self.noise.right_channel]
        for index in range(m - 1, -1, -1):
            up_channels.append(self.noise.edge_channels[index + 1])
            node_channels.append(self.noise.node_channels[index])
        up_channels.append(self.noise.edge_channels[0])
        node_channels.append(self.noise.left_channel)
        return TreeNoise(
            up_channels=tuple(up_channels),
            node_channels=tuple(node_channels),
            readout_error=self.noise.readout_error,
        )


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """A measurement accept element, in compiler-facing form.

    ``targets`` holds one target vector per tensor factor for the
    vector-structured kinds; ``operator`` holds the explicit accept operator
    (a matrix for ``dense``, its diagonal for ``diagonal``) on single-factor
    registers.  Protocol layers hand specs to :class:`TreeJobBuilder`, which
    stacks the target vectors into the job's state stacks and records the
    row-indexed :class:`LeafMeasurement` the backends consume.
    """

    kind: str
    targets: Optional[Tuple[np.ndarray, ...]] = None
    operator: Optional[np.ndarray] = None
    threshold: int = 0


@dataclass(frozen=True, eq=False)
class LeafMeasurement:
    """A measurement bound to a :class:`TreeJob`: targets live in the stacks.

    ``target_row`` indexes the row of the job's per-factor state stacks that
    holds the target vectors (vector kinds); ``operator`` is the explicit
    accept element for the ``dense`` / ``diagonal`` kinds.
    """

    kind: str
    target_row: Optional[int] = None
    operator: Optional[np.ndarray] = None
    threshold: int = 0


@dataclass(frozen=True, eq=False)
class TreeJob:
    """One tree-structured verification instance (see the module docstring).

    Compared by identity (``eq=False``), like :class:`ChainJob`.

    Attributes
    ----------
    parents:
        Parent index per node, in topological order: ``parents[0] == -1``
        (the root) and ``parents[i] < i`` for every other node.
    kinds:
        Per-node kind: ``NODE_FIXED`` / ``NODE_SYM`` / ``NODE_ROUTER``.
    tests:
        Per-node test: ``TEST_NONE`` / ``TEST_PERM`` / ``TEST_MEASURE`` /
        ``TEST_FANOUT``.
    slots:
        Per-node register rows into the factor stacks.
    factors:
        One stacked state array per tensor factor, each of shape
        ``(num_rows, d_f)``; row ``r`` across all stacks is register ``r``.
    measurements:
        Per-node optional :class:`LeafMeasurement`.
    noise:
        Optional :class:`TreeNoise` channel annotation; when present (and
        not structurally empty) the job is evaluated on the density-matrix
        path.
    """

    parents: Tuple[int, ...]
    kinds: Tuple[str, ...]
    tests: Tuple[str, ...]
    slots: Tuple[Tuple[int, ...], ...]
    factors: Tuple[np.ndarray, ...]
    measurements: Tuple[Optional[LeafMeasurement], ...]
    noise: Optional[TreeNoise] = None

    def __post_init__(self) -> None:
        self._validate()

    @property
    def is_noisy(self) -> bool:
        """True when the job carries a non-empty channel annotation."""
        return self.noise is not None and not self.noise.is_trivial

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes."""
        return len(self.parents)

    @property
    def num_factors(self) -> int:
        """Number of tensor factors of every register."""
        return len(self.factors)

    @property
    def children(self) -> Tuple[Tuple[int, ...], ...]:
        """Child indices per node (derived from ``parents``, cached)."""
        cached = self.__dict__.get("_children")
        if cached is None:
            lists: List[List[int]] = [[] for _ in self.parents]
            for node, parent in enumerate(self.parents):
                if parent >= 0:
                    lists[parent].append(node)
            cached = tuple(tuple(item) for item in lists)
            object.__setattr__(self, "_children", cached)
        return cached

    @property
    def signature(self) -> Tuple:
        """Structure key: jobs with equal signatures batch into one stack."""
        cached = self.__dict__.get("_signature")
        if cached is None:
            measurement_key = tuple(
                None
                if m is None
                else (m.kind, m.target_row, m.threshold, m.operator is not None)
                for m in self.measurements
            )
            cached = (
                self.parents,
                self.kinds,
                self.tests,
                self.slots,
                tuple(stack.shape for stack in self.factors),
                measurement_key,
                self.is_noisy,
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def _validate(self) -> None:
        n = self.num_nodes
        if n == 0:
            raise ProtocolError("a tree job needs at least one node")
        if not (len(self.kinds) == len(self.tests) == len(self.slots) == len(self.measurements) == n):
            raise ProtocolError("tree job per-node fields disagree on the node count")
        if self.parents[0] != -1:
            raise ProtocolError("tree job node 0 must be the root (parent -1)")
        for node in range(1, n):
            if not 0 <= self.parents[node] < node:
                raise ProtocolError(
                    "tree job nodes must be topologically ordered (parent before child)"
                )
        if not self.factors:
            raise ProtocolError("a tree job needs at least one factor stack")
        num_rows = self.factors[0].shape[0]
        for stack in self.factors:
            if stack.ndim != 2 or stack.shape[0] != num_rows:
                raise DimensionMismatchError(
                    "all factor stacks must share one register count"
                )
        children = self.children
        down = any(test == TEST_FANOUT for test in self.tests)
        for node in range(n):
            kind, test = self.kinds[node], self.tests[node]
            node_slots = self.slots[node]
            degree = len(children[node])
            for row in node_slots:
                if not 0 <= row < num_rows:
                    raise ProtocolError(f"node {node} references state row {row} out of range")
            if kind == NODE_FIXED:
                if len(node_slots) > 1:
                    raise ProtocolError("a fixed node holds at most one register")
            elif kind == NODE_SYM:
                if len(node_slots) != 2:
                    raise ProtocolError("a symmetrized node holds exactly two registers")
            elif kind == NODE_ROUTER:
                if test != TEST_FANOUT:
                    # The evaluators implement router randomization only for
                    # the fan-out family; accepting a router elsewhere would
                    # silently degrade it to a fixed slot-0 forwarder.
                    raise ProtocolError("router nodes require the fan-out test")
                if len(node_slots) != degree + 1:
                    raise ProtocolError(
                        "a router node holds one register per child plus the kept one"
                    )
                if len(node_slots) > MAX_ROUTER_REGISTERS:
                    raise ProtocolError(
                        f"router bundle of {len(node_slots)} registers exceeds the "
                        f"{MAX_ROUTER_REGISTERS}-register assignment-enumeration limit"
                    )
            else:
                raise ProtocolError(f"unknown tree node kind {kind!r}")
            if test == TEST_PERM:
                if degree == 0:
                    raise ProtocolError("a permutation-test node needs at least one child")
                if kind == NODE_ROUTER or down:
                    raise ProtocolError("permutation tests belong to the up-forwarding family")
                if not node_slots:
                    raise ProtocolError("a permutation-test node needs a kept register")
                arity = degree + 1
                if arity > MAX_PERM_TEST_ARITY:
                    raise ProtocolError(
                        f"permutation test of arity {arity} exceeds the "
                        f"{MAX_PERM_TEST_ARITY}-register cycle-expansion limit"
                    )
                if arity > 2 and self.num_factors != 1:
                    raise ProtocolError(
                        "permutation tests of arity > 2 require single-factor registers"
                    )
            elif test == TEST_MEASURE:
                if degree != 1:
                    raise ProtocolError("a measuring root must have exactly one child")
                if self.measurements[node] is None:
                    raise ProtocolError("a measuring node needs a measurement")
                if down:
                    raise ProtocolError("TEST_MEASURE belongs to the up-forwarding family")
            elif test == TEST_FANOUT:
                if degree == 0:
                    raise ProtocolError("a fan-out node needs at least one child")
                if kind == NODE_SYM:
                    raise ProtocolError("fan-out nodes are fixed roots or routers")
                if kind == NODE_FIXED and len(node_slots) != 1:
                    raise ProtocolError("a fixed fan-out root needs its message register")
            elif test != TEST_NONE:
                raise ProtocolError(f"unknown tree node test {test!r}")
            measurement = self.measurements[node]
            if measurement is not None:
                self._validate_measurement(node, measurement, num_rows)
        if down:
            for node in range(n):
                if children[node] and self.tests[node] != TEST_FANOUT:
                    raise ProtocolError(
                        "in a fan-out (down-forwarding) job every internal node fans out"
                    )
        self._validate_noise()

    def _validate_noise(self) -> None:
        """Check the noise annotation against the (already valid) structure."""
        if self.noise is None or self.noise.is_trivial:
            return
        n = self.num_nodes
        if any(test == TEST_FANOUT for test in self.tests):
            raise ProtocolError(
                "noise annotations support the up-forwarding tree family only"
            )
        if self.num_factors != 1:
            raise ProtocolError(
                "noise annotations require single-factor registers"
            )
        dim = int(self.factors[0].shape[1])
        _validate_channel_tuple(self.noise.up_channels, n, dim, "up-link")
        _validate_channel_tuple(self.noise.node_channels, n, dim, "node")
        for node in range(n):
            measurement = self.measurements[node]
            if (
                measurement is not None
                and measurement.kind in (MEAS_DENSE, MEAS_DIAGONAL)
                and self.noise.node_channels[node] is not None
            ):
                raise ProtocolError(
                    "preparation noise on a dense/diagonal measuring node "
                    "is not supported: its accept operator carries no "
                    "prepared reference state"
                )

    def with_noise(self, noise: Optional[TreeNoise]) -> "TreeJob":
        """This job carrying ``noise``, with only the annotation validated.

        The structure, arrays and measurements are this job's own, already
        validated, so a noise sweep attaching one annotation per strength to
        a cached template checks each annotation, not the tree again.
        """
        job = shallow_copy(self)
        object.__setattr__(job, "noise", noise)
        job.__dict__.pop("_signature", None)  # it records whether the job is noisy
        job._validate_noise()
        return job

    def _validate_measurement(
        self, node: int, measurement: LeafMeasurement, num_rows: int
    ) -> None:
        if measurement.kind in (MEAS_DENSE, MEAS_DIAGONAL):
            if measurement.operator is None:
                raise ProtocolError(f"{measurement.kind} measurement needs an operator")
            if self.num_factors != 1:
                raise ProtocolError(
                    f"{measurement.kind} measurements require single-factor registers"
                )
            dim = self.factors[0].shape[1]
            expected = (dim, dim) if measurement.kind == MEAS_DENSE else (dim,)
            if measurement.operator.shape != expected:
                raise DimensionMismatchError(
                    f"node {node} measurement operator has the wrong dimension"
                )
        elif measurement.kind in _VECTOR_MEAS_KINDS:
            if measurement.target_row is None or not 0 <= measurement.target_row < num_rows:
                raise ProtocolError(
                    f"node {node} measurement needs an in-range target row"
                )
            if measurement.kind == MEAS_THRESHOLD and measurement.threshold < 0:
                raise ProtocolError(
                    f"node {node} match threshold must be non-negative, "
                    f"got {measurement.threshold}"
                )
        else:
            raise ProtocolError(f"unknown measurement kind {measurement.kind!r}")


class TreeJobBuilder:
    """Incremental construction of a :class:`TreeJob`.

    Usage: ``add_node`` in topological order (root first, each parent before
    its children), then ``build``.  A *register* is a sequence of per-factor
    vectors; for single-factor jobs a bare 1-D array is accepted.
    """

    def __init__(self, num_factors: int = 1):
        if num_factors <= 0:
            raise ProtocolError("a tree job needs at least one tensor factor")
        self.num_factors = int(num_factors)
        self._parents: List[int] = []
        self._kinds: List[str] = []
        self._tests: List[str] = []
        self._slots: List[Tuple[int, ...]] = []
        self._measurements: List[Optional[LeafMeasurement]] = []
        self._rows: List[Tuple[np.ndarray, ...]] = []
        self._up_channels: List[Optional[KrausChannel]] = []
        self._node_channels: List[Optional[KrausChannel]] = []

    def _add_row(self, register: Union[np.ndarray, Sequence[np.ndarray]]) -> int:
        if isinstance(register, np.ndarray) and register.ndim == 1:
            register = (register,)
        vectors = tuple(
            np.asarray(vector, dtype=np.complex128).reshape(-1) for vector in register
        )
        if len(vectors) != self.num_factors:
            raise DimensionMismatchError(
                f"register has {len(vectors)} factors, the job has {self.num_factors}"
            )
        if self._rows:
            for vector, reference in zip(vectors, self._rows[0]):
                if vector.size != reference.size:
                    raise DimensionMismatchError(
                        "all registers must share per-factor dimensions"
                    )
        self._rows.append(vectors)
        return len(self._rows) - 1

    def add_node(
        self,
        parent: int,
        kind: str,
        registers: Sequence[Union[np.ndarray, Sequence[np.ndarray]]] = (),
        test: str = TEST_NONE,
        measurement: Optional[MeasurementSpec] = None,
        up_channel: Optional[KrausChannel] = None,
        node_channel: Optional[KrausChannel] = None,
    ) -> int:
        """Append a node; returns its index (use as ``parent`` for children).

        ``up_channel`` is the noise of the link toward the parent (applied
        to the register this node forwards up); ``node_channel`` the noise
        of the node's own registers.  Any non-``None`` channel (or a
        non-zero ``readout_error`` passed to :meth:`build`) makes the built
        job a noisy one.
        """
        if parent >= len(self._parents):
            raise ProtocolError("tree nodes must be added parent-first (topological order)")
        bound = None
        if measurement is not None:
            target_row = None
            if measurement.targets is not None:
                target_row = self._add_row(tuple(measurement.targets))
            bound = LeafMeasurement(
                kind=measurement.kind,
                target_row=target_row,
                operator=(
                    None
                    if measurement.operator is None
                    else np.asarray(measurement.operator, dtype=np.complex128)
                ),
                threshold=int(measurement.threshold),
            )
        self._parents.append(int(parent))
        self._kinds.append(kind)
        self._tests.append(test)
        self._slots.append(tuple(self._add_row(register) for register in registers))
        self._measurements.append(bound)
        self._up_channels.append(up_channel)
        self._node_channels.append(node_channel)
        return len(self._parents) - 1

    def build(
        self, noise: Optional[TreeNoise] = None, readout_error: float = 0.0
    ) -> TreeJob:
        """Freeze the accumulated nodes into a validated :class:`TreeJob`.

        An explicit ``noise`` annotation overrides the per-node channels
        collected by :meth:`add_node`; otherwise those channels (plus
        ``readout_error``) are assembled into one, or omitted entirely when
        all are empty.
        """
        if not self._rows:
            raise ProtocolError("a tree job needs at least one register or target state")
        factors = tuple(
            np.stack([row[factor] for row in self._rows])
            for factor in range(self.num_factors)
        )
        if noise is None:
            assembled = TreeNoise(
                up_channels=tuple(self._up_channels),
                node_channels=tuple(self._node_channels),
                readout_error=readout_error,
            )
            noise = None if assembled.is_trivial else assembled
        return TreeJob(
            parents=tuple(self._parents),
            kinds=tuple(self._kinds),
            tests=tuple(self._tests),
            slots=tuple(self._slots),
            factors=factors,
            measurements=tuple(self._measurements),
            noise=noise,
        )


#: Any job the engine can evaluate.
Job = Union[ChainJob, TreeJob]


@dataclass(frozen=True, eq=False)
class StrategyBatch:
    """Many proof strategies of one job, as row indices into a state table.

    Compared by identity (``eq=False``), like the job classes.  Every
    strategy is the ``template`` job with its register rows ``rows[p]``
    holding table row ``choices[b, p]``; structure, the other rows,
    measurements and noise are the template's.  A chain's register rows are
    its left state, then its pairs in the layout of :attr:`ChainJob.pairs`
    (row ``1 + 2j + s`` is slot ``s`` of node ``j``); a tree's are the rows
    of its one factor stack.

    A strategy's registers are therefore a gather from ``[template rows;
    table]`` (:meth:`stack`), which lets a batching backend score the whole
    batch without building one job per strategy (see
    :meth:`repro.engine.backends.TransferMatrixBackend.strategy_probabilities`).

    Attributes
    ----------
    template:
        A :class:`ChainJob` with a vector right end or a single-factor
        :class:`TreeJob`, carrying its noise annotation (a protocol passes
        its honest job).
    table:
        The ``K`` register states strategies draw from, shape ``(K, d)``.
    choices:
        Integer table rows of shape ``(B, P)``: ``choices[b, p]`` is the row
        strategy ``b`` places in template register row ``rows[p]``.
    rows:
        The ``P`` distinct template register rows the strategies fill.
    registers:
        The template's ``(R, d)`` register rows (derived).
    """

    template: Job
    table: np.ndarray
    choices: np.ndarray
    rows: np.ndarray
    registers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        template = self.template
        if isinstance(template, ChainJob):
            if template.right_kind not in _VECTOR_RIGHT_KINDS:
                raise ProtocolError(
                    f"strategy batches need a vector right end, got {template.right_kind!r}"
                )
            registers = np.concatenate([template.left[None], template.pairs.reshape(-1, template.dim)])
        elif template.num_factors != 1:
            raise ProtocolError("tree strategy batches need single-factor registers")
        else:
            registers = template.factors[0]
        num_rows, dim = registers.shape
        table = np.asarray(self.table, dtype=np.complex128)
        choices = np.asarray(self.choices)
        rows = np.asarray(self.rows)
        if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] != dim:
            raise DimensionMismatchError(
                f"the state table must hold at least one row of dimension {dim}"
            )
        if rows.dtype.kind not in "iu" or rows.ndim != 1:
            raise ProtocolError("rows must be a 1-D integer array of template rows")
        filled = rows.tolist()  # a few rows: plain Python beats numpy reductions
        if filled and (min(filled) < 0 or max(filled) >= num_rows):
            raise ProtocolError(f"rows must name rows of the {num_rows}-row template")
        if len(set(filled)) != len(filled):
            raise ProtocolError("each template row may be filled only once")
        if choices.dtype.kind not in "iu" or choices.ndim != 2 or choices.shape[1] != rows.size:
            raise ProtocolError(
                f"choices must be an integer array of shape (strategies, {rows.size})"
            )
        if choices.size and (choices.min() < 0 or choices.max() >= table.shape[0]):
            raise ProtocolError(f"choices must name rows of the {table.shape[0]}-row table")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "choices", choices.astype(np.intp, copy=False))
        object.__setattr__(self, "rows", rows.astype(np.intp, copy=False))
        object.__setattr__(self, "registers", registers)

    def __len__(self) -> int:
        """Number of strategies ``B``."""
        return int(self.choices.shape[0])

    def stack(self) -> np.ndarray:
        """The ``(B, R, d)`` register rows of every strategy, one gather."""
        num_rows = len(self.registers)
        index = np.tile(np.arange(num_rows, dtype=np.intp), (len(self), 1))
        index[:, self.rows] = num_rows + self.choices
        return np.concatenate([self.registers, self.table])[index]

    def jobs(self) -> List[Job]:
        """One ordinary job per strategy, in strategy order.

        The route of every backend without a table evaluator, the dense
        reference included, so the dense backend stays the batch's oracle.
        """
        template = self.template
        if isinstance(template, TreeJob):
            return [dataclass_replace(template, factors=(rows,)) for rows in self.stack()]
        shape = template.pairs.shape
        return [
            dataclass_replace(template, left=rows[0], pairs=rows[1:].reshape(shape))
            for rows in self.stack()
        ]


@dataclass(frozen=True, eq=False)
class TreeProgram:
    """A weighted sum of products of jobs (chain and/or tree).

    Compared by identity (``eq=False``), like the job classes.

    ``terms`` holds ``(weight, job_indices)`` pairs; the program's value on
    job probabilities ``p`` is ``sum_t weight_t * prod_{i in t} p[i]``,
    clipped to ``[0, 1]``.  A program with no terms evaluates to 0 (used for
    instances that are rejected outright, e.g. a zero-support index
    distribution).
    """

    jobs: Tuple[Job, ...] = field(default_factory=tuple)
    terms: Tuple[Tuple[float, Tuple[int, ...]], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(
            self,
            "terms",
            tuple((float(w), tuple(int(i) for i in idx)) for w, idx in self.terms),
        )
        for _, indices in self.terms:
            for index in indices:
                if index < 0 or index >= len(self.jobs):
                    raise DimensionMismatchError(
                        f"term references job {index} outside the program's {len(self.jobs)} jobs"
                    )

    @classmethod
    def single(cls, job: Job, weight: float = 1.0) -> "TreeProgram":
        """A program with one unit-weight job (the plain chain/tree protocols)."""
        return cls(jobs=(job,), terms=((weight, (0,)),))

    @property
    def is_single_unit_job(self) -> bool:
        """True for the one-unit-weight-job shape (enables a batch fast path)."""
        return (
            len(self.jobs) == 1
            and len(self.terms) == 1
            and self.terms[0] == (1.0, (0,))
        )

    @classmethod
    def rejecting(cls) -> "TreeProgram":
        """A program that always evaluates to zero."""
        return cls(jobs=(), terms=())

    def combine(self, job_probabilities: np.ndarray) -> float:
        """Evaluate the weighted sum of products on the given job probabilities."""
        total = 0.0
        for weight, indices in self.terms:
            value = weight
            for index in indices:
                value *= float(job_probabilities[index])
                if value == 0.0:
                    break
            total += value
        return float(min(max(total, 0.0), 1.0))


class ChainProgram(TreeProgram):
    """Thin subclass of :class:`TreeProgram` kept for the chain families.

    A chain is the degenerate path tree, so the program layer needs nothing
    chain-specific; the subclass exists so chain-compiling protocols keep a
    descriptive type and old imports keep working.
    """


def group_jobs_by_shape(
    jobs: Sequence[ChainJob],
) -> Dict[Tuple[int, int, str, bool], List[int]]:
    """Indices of ``jobs`` grouped by ``(m, dim, right_kind, noisy)`` for stacking."""
    groups: Dict[Tuple[int, int, str, bool], List[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job.shape_key, []).append(index)
    return groups


def group_tree_jobs_by_signature(
    jobs: Sequence[TreeJob],
) -> Dict[Tuple, List[int]]:
    """Indices of ``jobs`` grouped by structure signature for stacking."""
    groups: Dict[Tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job.signature, []).append(index)
    return groups


def router_assignments(num_registers: int) -> List[Tuple[int, ...]]:
    """All register-to-port assignments of a router bundle (guarded size)."""
    from itertools import permutations as iter_permutations

    if num_registers > MAX_ROUTER_REGISTERS:
        raise ProtocolError(
            f"router bundle of {num_registers} registers exceeds the "
            f"{MAX_ROUTER_REGISTERS}-register assignment-enumeration limit"
        )
    return list(iter_permutations(range(num_registers)))


def assignment_count(num_registers: int) -> int:
    """Number of uniform assignments of a router bundle: ``num_registers!``."""
    return factorial(num_registers)
