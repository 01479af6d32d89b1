"""Pluggable simulation-engine layer.

This package is the single place where acceptance probabilities of the
paper's verification structures are computed.  It separates *what* a protocol
asks the simulator to evaluate from *how* the evaluation is carried out:

* :mod:`repro.engine.jobs` — the intermediate representation:
  :class:`ChainJob` (one symmetrized SWAP-test chain), :class:`TreeJob` (one
  tree-rooted verification: nodes carry fixed / symmetrized / routed
  registers, SWAP- and permutation-test links follow the tree edges, and
  measuring leaves carry accept operators — a chain is the degenerate path
  tree), :class:`StrategyBatch` (many proof strategies of one chain or tree
  job as row indices into a table of register states) and
  :class:`TreeProgram` (a weighted sum of products of jobs, the shape every
  compiled protocol's acceptance probability takes; :class:`ChainProgram`
  is a thin subclass kept for the chain families).
  Jobs may carry :class:`ChainNoise` / :class:`TreeNoise` channel
  annotations (see :mod:`repro.quantum.channels`); the backends evaluate
  them on the same paths as clean jobs, which are the noisy ones with no
  channels and perfect readout.
* :mod:`repro.engine.array_ops` — the :class:`ArrayModule` protocol (a
  minimal numpy-like namespace: ``asarray`` / ``einsum`` / ``matmul`` /
  ``stack`` / ``conj`` / ``to_numpy``) with a numpy default, a
  transfer-counting mock device, and a torch adapter registered only when
  torch is importable; plus the contraction dtype policy
  (``REPRO_DTYPE``, :func:`resolve_dtype`, :func:`parity_tolerance`) and
  device selection (``REPRO_DEVICE``).
* :mod:`repro.engine.kernels` — the device-agnostic contraction kernels:
  stacked chain-Gram products, the vectorized symmetrization transfer
  recursion, noisy superoperator grid application and the signature-grouped
  tree contraction primitives, all pure functions of ``(xp, dtype)`` with
  per-(equation, shape-signature) einsum paths precomputed and cached.
* :mod:`repro.engine.tree_contraction` — the leaf-to-root contraction of
  tree jobs, clean and noisy: one scalar reference recursion on Kraus-sum
  density matrices, and one signature-grouped batched evaluator whose pair
  traces come from Gram products, like the chain path's.
* :mod:`repro.engine.backends` — the :class:`SimulationBackend` interface,
  the :class:`DenseBackend` reference implementation (scalar, one job at a
  time) and the :class:`TransferMatrixBackend` which evaluates *batches* of
  chains and trees through the kernel layer (with
  :class:`MockDeviceTransferMatrixBackend` and — when torch is available —
  a ``transfer-matrix-torch`` variant), plus a string-keyed backend
  registry.
* :mod:`repro.engine.cache` — a bounded :class:`OperatorCache` for SWAP
  projectors, acceptance operators, measurement operators and compiled
  honest-proof programs, keyed by protocol layout and input; its
  :meth:`~OperatorCache.stats` counters are surfaced in benchmark metadata,
  and :class:`OperatorPack` snapshots (digest-verified, read-only) ship a
  warm cache to fresh pool workers so they stop re-warming hot operators.
* :mod:`repro.engine.core` — the :class:`Engine` facade protocols talk to:
  it owns a backend and an operator cache, evaluates single programs and
  batches of programs (flattening mixed chain/tree job batches into one
  backend call per job type), and provides the scalar-map fallback for
  protocols whose acceptance does not compile.

Protocols obtain an engine through :func:`default_engine` (configurable via
the ``REPRO_BACKEND`` environment variable) or have one injected with
:meth:`repro.protocols.base.DQMAProtocol.use_engine`.
"""

from repro.engine.array_ops import (
    ArrayModule,
    MockDeviceModule,
    available_array_modules,
    get_array_module,
    module_available,
    parity_tolerance,
    register_array_module,
    resolve_dtype,
    to_host,
)
from repro.engine.backends import (
    DenseBackend,
    MockDeviceTransferMatrixBackend,
    SimulationBackend,
    TorchTransferMatrixBackend,
    TransferMatrixBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.cache import CacheStats, OperatorCache, OperatorPack
from repro.engine.core import Engine, default_engine, set_default_engine
from repro.engine.jobs import (
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
    ChainProgram,
    LeafMeasurement,
    MeasurementSpec,
    StrategyBatch,
    TreeJob,
    TreeJobBuilder,
    TreeNoise,
    TreeProgram,
)
from repro.engine.tree_contraction import (
    tree_acceptance_probability,
    tree_probabilities_batched,
    tree_strategy_probabilities_batched,
)

__all__ = [
    "MEAS_DENSE",
    "MEAS_DIAGONAL",
    "MEAS_MATCH_ANY",
    "MEAS_PROJECTOR",
    "MEAS_SWAP",
    "MEAS_THRESHOLD",
    "NODE_FIXED",
    "NODE_ROUTER",
    "NODE_SYM",
    "RIGHT_DENSE",
    "RIGHT_PROJECTOR",
    "RIGHT_SWAP",
    "TEST_FANOUT",
    "TEST_MEASURE",
    "TEST_NONE",
    "TEST_PERM",
    "ArrayModule",
    "CacheStats",
    "ChainJob",
    "ChainNoise",
    "ChainProgram",
    "DenseBackend",
    "Engine",
    "LeafMeasurement",
    "MeasurementSpec",
    "MockDeviceModule",
    "MockDeviceTransferMatrixBackend",
    "OperatorCache",
    "OperatorPack",
    "SimulationBackend",
    "StrategyBatch",
    "TorchTransferMatrixBackend",
    "TransferMatrixBackend",
    "TreeJob",
    "TreeJobBuilder",
    "TreeNoise",
    "TreeProgram",
    "available_array_modules",
    "available_backends",
    "default_engine",
    "get_array_module",
    "get_backend",
    "module_available",
    "parity_tolerance",
    "register_array_module",
    "register_backend",
    "resolve_dtype",
    "set_default_engine",
    "to_host",
    "tree_acceptance_probability",
    "tree_probabilities_batched",
    "tree_strategy_probabilities_batched",
]
