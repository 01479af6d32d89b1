"""Property-based differential tests (hypothesis) of the chain IR.

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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    RIGHT_DENSE,
    RIGHT_PROJECTOR,
    RIGHT_SWAP,
    ChainJob,
    ChainNoise,
    DenseBackend,
    MockDeviceTransferMatrixBackend,
    TransferMatrixBackend,
    parity_tolerance,
)
from repro.quantum.channels import CHANNEL_FAMILIES, KrausChannel
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
