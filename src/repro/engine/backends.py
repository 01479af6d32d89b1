"""Simulation backends: how batches of chain and tree jobs are evaluated.

Two evaluation strategies ship with the library:

:class:`DenseBackend`
    The reference semantics: every job is contracted one at a time — chains
    through the scalar transfer recursion of :func:`repro.protocols.chain.
    chain_acceptance_probability` (bit-for-bit the pre-engine behaviour),
    trees through the scalar leaf-to-root recursion of
    :func:`repro.engine.tree_contraction.tree_acceptance_probability`.

:class:`TransferMatrixBackend`
    Groups chain jobs by shape ``(m, d, kind, noisy)`` and tree jobs by
    structure signature, and evaluates each group through the
    device-agnostic contraction kernels of :mod:`repro.engine.kernels`: all
    SWAP-test overlaps of a group come from one batched Gram product (or,
    for noisy groups, one trace per distinct pair of densities), the
    symmetrization recursion runs vectorized over the batch, and
    measurement expectations are one more einsum.  Every chain group goes
    through the single kernel
    :func:`~repro.engine.kernels.chain_probabilities`, and every tree group
    through the single group evaluator of :func:`~repro.engine.
    tree_contraction.tree_probabilities_batched`.  This is the fast path
    behind ``DQMAProtocol.acceptance_probabilities``; strategy searches
    reach it, for both families, through its one override of
    :meth:`SimulationBackend.strategy_probabilities`.

The transfer-matrix evaluation is parameterized by an
:class:`~repro.engine.array_ops.ArrayModule` and a contraction dtype, so the
same grouping/recursion code runs on any registered array namespace:

* ``"transfer-matrix"`` — numpy, the default.
* ``"transfer-matrix-torch"`` — the torch adapter, registered only when
  torch is importable; the device is selected by ``REPRO_DEVICE`` (e.g.
  ``cuda``).
* ``"transfer-matrix-mock"`` — the transfer-counting mock device, always
  registered (it is numpy underneath) so adapter plumbing is testable
  without a GPU.

The contraction dtype comes from ``REPRO_DTYPE`` (or the ``dtype=``
constructor argument): ``complex128`` is the parity reference, ``complex64``
the fast path — final probabilities always accumulate in host float64, and
the parity tests enforce the per-dtype tolerance schedule of
:func:`~repro.engine.array_ops.parity_tolerance`.

Jobs carrying a :class:`~repro.engine.jobs.ChainNoise` / :class:`~repro.
engine.jobs.TreeNoise` channel annotation evaluate on the density-matrix
generalization of each path: registers become densities pushed through
their link/node channels, squared overlaps become Hilbert-Schmidt traces
and each test factor passes the readout-error flip.  A clean chain or tree
is the noisy one with no channels and perfect readout; its batched group
keeps the Gram product of its state rows.  The dense backend's tree
reference builds every register as Kraus-sum density matrices (a clean row
is its pure projector) and routes noisy chains through the degenerate-path
tree of :meth:`ChainJob.to_tree_job`; the transfer-matrix backend contracts
whole noisy groups — including sweeps where every job carries a different
noise strength — from one table of the group's distinct densities and one
trace per distinct pair of them (:func:`repro.engine.kernels.
density_table`, :func:`~repro.engine.kernels.pair_traces`).  An absent or
structurally empty annotation evaluates exactly like a clean job.

Backends are registered by name so experiment configuration can select them
with a string (``"dense"`` / ``"transfer-matrix"`` / ``"transfer-matrix-
torch"``), following the one-interface/many-backends pattern of the
related-work repositories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Type, Union

import numpy as np

from repro.engine.array_ops import (
    ArrayModule,
    get_array_module,
    module_available,
    resolve_dtype,
)
from repro.engine.jobs import (
    RIGHT_DENSE,
    ChainJob,
    StrategyBatch,
    TreeJob,
    group_jobs_by_shape,
)
from repro.engine import kernels
from repro.engine.tree_contraction import (
    tree_acceptance_probability,
    tree_probabilities_batched,
    tree_strategy_probabilities_batched,
)
from repro.exceptions import ProtocolError


class SimulationBackend(ABC):
    """Interface every simulation backend implements."""

    #: Registry name of the backend; subclasses must override.
    name: str = ""

    @abstractmethod
    def chain_probabilities(self, jobs: Sequence[ChainJob]) -> np.ndarray:
        """Acceptance probability of every chain job, as a float array."""

    def chain_probability(self, job: ChainJob) -> float:
        """Acceptance probability of a single chain job."""
        return float(self.chain_probabilities([job])[0])

    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        """Acceptance probability of every tree job, as a float array.

        The default walks the scalar leaf-to-root reference recursion per
        job, so every backend supports trees; batching backends override it.
        """
        return np.array(
            [tree_acceptance_probability(job) for job in jobs], dtype=np.float64
        )

    def tree_probability(self, job: TreeJob) -> float:
        """Acceptance probability of a single tree job."""
        return float(self.tree_probabilities([job])[0])

    def strategy_probabilities(self, batch: StrategyBatch) -> np.ndarray:
        """Acceptance probability of every strategy of a strategy batch.

        The default evaluates the batch's ordinary jobs
        (:meth:`StrategyBatch.jobs`), which keeps the dense backend the
        oracle; the transfer-matrix backend overrides it once, for both
        families.
        """
        if isinstance(batch.template, ChainJob):
            return self.chain_probabilities(batch.jobs())
        return self.tree_probabilities(batch.jobs())

    def describe(self) -> Dict[str, str]:
        """Dispatch metadata: backend, array module, device and dtype names.

        Recorded in benchmark metadata so saved perf trajectories state
        which namespace/device/dtype produced each number.
        """
        return {
            "backend": self.name,
            "array_module": "numpy",
            "device": "cpu",
            "dtype": "complex128",
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class DenseBackend(SimulationBackend):
    """Reference backend: scalar, one-job-at-a-time dense evaluation."""

    name = "dense"

    def chain_probabilities(self, jobs: Sequence[ChainJob]) -> np.ndarray:
        # Imported lazily: repro.protocols.base imports the engine package, so
        # a module-level import here would be circular.
        from repro.protocols.chain import chain_acceptance_probability

        results = np.empty(len(jobs), dtype=np.float64)
        for index, job in enumerate(jobs):
            if job.is_noisy:
                # Noisy chains evaluate as their degenerate-path tree through
                # the scalar density recursion (Kraus-sum channel application)
                # — deliberately independent of the batched superoperator path.
                results[index] = tree_acceptance_probability(job.to_tree_job())
                continue
            node_pairs = [(job.pairs[j, 0], job.pairs[j, 1]) for j in range(job.num_intermediate)]
            results[index] = chain_acceptance_probability(
                job.left, node_pairs, job.dense_right_operator()
            )
        return results


class TransferMatrixBackend(SimulationBackend):
    """Batched backend: stacked transfer-matrix contraction per job shape.

    The grouping and recursion logic is array-namespace-agnostic: the heavy
    per-group contractions run through :mod:`repro.engine.kernels` on this
    backend's :class:`~repro.engine.array_ops.ArrayModule` (``array_module``
    constructor argument, or the class default) in the configured
    contraction dtype (``dtype=`` argument > ``REPRO_DTYPE`` > complex128).
    """

    name = "transfer-matrix"

    #: Array-module registry name instantiated by default; device subclasses
    #: (torch / mock) override this single attribute.
    array_module = "numpy"

    def __init__(
        self,
        array_module: Union[str, ArrayModule, None] = None,
        dtype: Union[str, np.dtype, type, None] = None,
        device: Optional[str] = None,
    ):
        if array_module is None:
            array_module = type(self).array_module
        self.xp = get_array_module(array_module, device=device)
        self.dtype = resolve_dtype(dtype)

    def describe(self) -> Dict[str, str]:
        return {
            "backend": self.name,
            "array_module": self.xp.name,
            "device": self.xp.device,
            "dtype": np.dtype(self.dtype).name,
        }

    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        return tree_probabilities_batched(jobs, xp=self.xp, dtype=self.dtype)

    def chain_probabilities(self, jobs: Sequence[ChainJob]) -> np.ndarray:
        """Contract each ``(m, d, kind, noisy)`` group in one kernel call.

        Row 0 of a group's state stack is the left state, rows 1 .. 2m the
        intermediate pairs, and (structured ends) the measurement vector
        last — one host concatenation of every job's rows.  A noisy group
        turns its rows into one density per distinct register form
        (:func:`repro.engine.kernels.chain_density_table`) and indexes it;
        both run through :func:`repro.engine.kernels.chain_probabilities`
        on this backend's array module.
        """
        results = np.empty(len(jobs), dtype=np.float64)
        for (m, dim, right_kind, noisy), indices in group_jobs_by_shape(jobs).items():
            group = [jobs[i] for i in indices]
            dense_end = right_kind == RIGHT_DENSE
            pieces: List[np.ndarray] = []
            for job in group:
                pieces += (job.left[None], job.pairs.reshape(2 * m, dim))
                if not dense_end:
                    pieces.append(job.right_operator[None])
            rows = np.concatenate(pieces, dtype=np.complex128).reshape(len(group), -1, dim)
            rights = np.stack([job.right_operator for job in group]) if dense_end else None
            table = eps = None
            if noisy:
                noises = [job.noise for job in group]
                table, rows = kernels.chain_density_table(self.dtype, rows, noises, m, right_kind)
                eps = np.array([noise.readout_error for noise in noises])
            values = kernels.chain_probabilities(
                self.xp, self.dtype, rows, rights, eps, m, right_kind, table
            )
            results[indices] = np.clip(values, 0.0, 1.0)
        return results

    def strategy_probabilities(self, batch: StrategyBatch) -> np.ndarray:
        """Score every strategy of ``batch`` without building its jobs.

        A tree batch gathers its strategies' row stack into the tree group
        evaluator (:func:`repro.engine.tree_contraction.
        tree_strategy_probabilities_batched`), so each value equals its
        job's; a chain batch is scored from per-register tables
        (:func:`repro.engine.kernels.chain_strategy_probabilities`).  Both
        run on this backend's array module.
        """
        if isinstance(batch.template, TreeJob):
            return tree_strategy_probabilities_batched(batch, xp=self.xp, dtype=self.dtype)
        return np.clip(kernels.chain_strategy_probabilities(self.xp, self.dtype, batch), 0.0, 1.0)


class MockDeviceTransferMatrixBackend(TransferMatrixBackend):
    """Transfer-matrix contraction on the transfer-counting mock device.

    Numerically identical to the numpy backend (same kernels, numpy math
    underneath) while its ``xp`` counts every host<->device transfer — the
    test double proving adapter plumbing without a GPU.
    """

    name = "transfer-matrix-mock"
    array_module = "mock"


class TorchTransferMatrixBackend(TransferMatrixBackend):
    """Transfer-matrix contraction through torch (``REPRO_DEVICE`` selects)."""

    name = "transfer-matrix-torch"
    array_module = "torch"


BackendFactory = Callable[[], SimulationBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(
    backend: Union[Type[SimulationBackend], BackendFactory],
    name: Optional[str] = None,
) -> Union[Type[SimulationBackend], BackendFactory]:
    """Register a backend class or zero-argument factory (usable as decorator).

    Classes register under their ``name`` attribute; bare factories must
    pass ``name=`` explicitly.
    """
    name = name or getattr(backend, "name", "")
    if not name:
        raise ProtocolError("simulation backends must define a non-empty name")
    _BACKENDS[name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of every registered backend."""
    return sorted(_BACKENDS)


def get_backend(backend: Union[str, SimulationBackend, None]) -> SimulationBackend:
    """Resolve a backend instance from a name, an instance, or ``None`` (default)."""
    if backend is None:
        backend = TransferMatrixBackend.name
    if isinstance(backend, SimulationBackend):
        return backend
    try:
        factory = _BACKENDS[backend]
    except KeyError:
        raise ProtocolError(
            f"unknown simulation backend {backend!r}; available: {available_backends()}"
        ) from None
    return factory()


register_backend(DenseBackend)
register_backend(TransferMatrixBackend)
register_backend(MockDeviceTransferMatrixBackend)
# The torch adapter registers only when torch is importable, so the
# default environment stays dependency-free and ``available_backends()``
# reflects what can actually run here.
if module_available("torch"):
    register_backend(TorchTransferMatrixBackend)
