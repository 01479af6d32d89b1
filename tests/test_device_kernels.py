"""Parity matrix and transfer accounting of the device-agnostic kernel layer.

Every protocol family that compiles to the engine — SWAP-test chains, tree
verifications, relay chains, one-way conversions and noisy sweeps — is
evaluated across the {dense, transfer-matrix, transfer-matrix-mock} backends
in both contraction dtypes, and each row is held to the dtype's parity
tolerance against the dense complex128 reference (1e-9 for complex128, 1e-5
for complex64 — see :func:`repro.engine.array_ops.parity_tolerance`).

The mock-device rows double as transfer accounting: the counters of
:class:`~repro.engine.array_ops.MockDeviceModule` prove that operands cross
to the device a constant number of times per contraction group — growing the
batch must not grow the transfer count.

When torch is importable the same matrix runs through the torch adapter
(``transfer-matrix-torch``); the CI torch-CPU job exercises exactly these
rows, and they skip cleanly everywhere torch is absent.
"""

import numpy as np
import pytest

from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem
from repro.engine import Engine, MockDeviceTransferMatrixBackend, TransferMatrixBackend
from repro.engine.array_ops import module_available, parity_tolerance
from repro.network.topology import path_network, star_network
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.from_one_way import OneWayToTreeProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import NoiseModel
from repro.quantum.fingerprint import ExactCodeFingerprint

FINGERPRINTS = ExactCodeFingerprint(3, rng=11)
NOISE_FINGERPRINTS = ExactCodeFingerprint(2, rng=11)

requires_torch = pytest.mark.skipif(
    not module_available("torch"), reason="torch not installed"
)

#: (family name, protocol factory, input batch) — one entry per protocol
#: family the engine evaluates.
def _chain_protocol():
    return EqualityPathProtocol.on_path(3, 5, FINGERPRINTS)


def _tree_protocol():
    return EqualityTreeProtocol(star_network(3), FINGERPRINTS)


def _relay_protocol():
    # One repetition per segment: repetitions multiply many per-shot
    # probabilities together, which would amplify the complex64 rounding of
    # each shot beyond the single-contraction parity tolerance this matrix
    # pins.
    return RelayEqualityProtocol.on_path(
        3, 7, segment_repetitions=1, fingerprints=FINGERPRINTS
    )


def _one_way_protocol():
    one_way = FingerprintEqualityOneWay(FINGERPRINTS)
    return OneWayToTreeProtocol(EqualityProblem(3), path_network(3), one_way)


def _noisy_protocol():
    return EqualityPathProtocol.on_path(
        2,
        4,
        NOISE_FINGERPRINTS,
        noise=NoiseModel.depolarizing(0.15, NOISE_FINGERPRINTS.dim),
    )


FAMILIES = {
    "chain": (_chain_protocol, [("101", "101"), ("101", "011"), ("111", "111")]),
    "tree": (
        _tree_protocol,
        [("101", "101", "101"), ("101", "011", "101"), ("010", "010", "010")],
    ),
    "relay": (_relay_protocol, [("101", "101"), ("101", "100")]),
    "one-way": (
        _one_way_protocol,
        [("101", "101"), ("101", "011")],
    ),
    "noisy": (_noisy_protocol, [("11", "11"), ("11", "10"), ("01", "01")]),
}

BACKENDS = {
    "dense": lambda dtype: "dense",
    "transfer-matrix": lambda dtype: TransferMatrixBackend(dtype=dtype),
    "transfer-matrix-mock": lambda dtype: MockDeviceTransferMatrixBackend(dtype=dtype),
}


def _reference_rows(family):
    factory, batch = FAMILIES[family]
    protocol = factory().use_engine(Engine(backend="dense"))
    return np.array([protocol.acceptance_probability(inputs) for inputs in batch])


@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestParityMatrix:
    def test_rows_match_dense_reference(self, family, backend, dtype):
        if backend == "dense" and dtype == "complex64":
            pytest.skip("the dense reference backend is complex128-only")
        factory, batch = FAMILIES[family]
        engine = Engine(backend=BACKENDS[backend](dtype))
        protocol = factory().use_engine(engine)
        rows = np.asarray(protocol.acceptance_probabilities(batch))
        np.testing.assert_allclose(
            rows, _reference_rows(family), atol=parity_tolerance(dtype)
        )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_matches_scalar_on_mock_device(family):
    factory, batch = FAMILIES[family]
    engine = Engine(backend=MockDeviceTransferMatrixBackend())
    protocol = factory().use_engine(engine)
    batched = np.asarray(protocol.acceptance_probabilities(batch))
    scalar = np.array([protocol.acceptance_probability(inputs) for inputs in batch])
    np.testing.assert_allclose(batched, scalar, atol=1e-9)


class TestTransferAccounting:
    """Operands cross to the device once per contraction group, not per job."""

    @staticmethod
    def _transfers_for_batch(factory, batch):
        backend = MockDeviceTransferMatrixBackend()
        protocol = factory().use_engine(Engine(backend=backend))
        backend.xp.reset_transfer_counts()
        protocol.acceptance_probabilities(batch)
        return backend.xp.to_device_transfers, backend.xp.to_host_transfers

    def test_chain_transfers_constant_in_batch_size(self):
        factory, _ = FAMILIES["chain"]
        small = [("101", "101"), ("101", "011")]
        large = [
            (format(i % 8, "03b"), format((i * 3 + 1) % 8, "03b")) for i in range(16)
        ] + small
        small_dev, small_host = self._transfers_for_batch(factory, small)
        large_dev, large_host = self._transfers_for_batch(factory, large)
        assert small_dev > 0  # the contraction really ran on the device
        # 9x the jobs, identical shape groups: identical transfer counts.
        assert large_dev == small_dev
        assert large_host == small_host

    def test_noisy_transfers_constant_in_batch_size(self):
        def sweep(points):
            def factory():
                return _noisy_protocol()

            batch = [("11", "11")] * points
            return self._transfers_for_batch(factory, batch)

        small_dev, small_host = sweep(2)
        large_dev, large_host = sweep(32)
        assert small_dev > 0
        assert large_dev == small_dev
        assert large_host == small_host

    def test_tree_transfers_constant_in_batch_size(self):
        factory, _ = FAMILIES["tree"]
        small = [("101", "101", "101"), ("101", "011", "101")]
        large = [
            (
                format(i % 8, "03b"),
                format((i * 5 + 2) % 8, "03b"),
                format(i % 8, "03b"),
            )
            for i in range(16)
        ] + small
        small_dev, small_host = self._transfers_for_batch(factory, small)
        large_dev, large_host = self._transfers_for_batch(factory, large)
        assert small_dev > 0
        assert large_dev == small_dev
        assert large_host == small_host

    def test_describe_reports_mock_device(self):
        backend = MockDeviceTransferMatrixBackend(dtype="complex64")
        description = backend.describe()
        assert description["backend"] == "transfer-matrix-mock"
        assert description["array_module"] == "mock"
        assert description["device"] == "mock-device"
        assert description["dtype"] == "complex64"


#: Channel families of the noisy-soundness parity rows.
NOISY_SEARCH_CHANNELS = ("depolarizing", "dephasing", "amplitude-damping")


def _noisy_search_model(channel):
    from repro.quantum.channels import channel_family

    return NoiseModel.uniform_link(
        channel_family(channel)(0.2, NOISE_FINGERPRINTS.dim), readout_error=0.02
    )


def _noisy_search(engine, channel, batch_size):
    """The batched noisy strategy search on the ``with_noise`` sibling of a clean protocol."""
    from repro.analysis.soundness import fingerprint_strategy_soundness

    protocol = EqualityPathProtocol.on_path(2, 4, NOISE_FINGERPRINTS)
    protocol.use_engine(engine)
    return fingerprint_strategy_soundness(
        protocol.with_noise(_noisy_search_model(channel)),
        ("11", "10"),
        candidate_strings=("11", "10", "01"),
        batch_size=batch_size,
    )


@pytest.mark.parametrize("channel", NOISY_SEARCH_CHANNELS)
@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
@pytest.mark.parametrize(
    "backend", ["transfer-matrix", "transfer-matrix-mock"]
)
class TestNoisySoundnessParity:
    """Batched noisy strategy search versus the scalar dense Kraus-sum reference.

    The dense side evaluates every strategy one job at a time (batch size 1)
    through definitional Kraus sums; the batched side runs the same search
    through stacked superoperator contractions.  Agreement at the dtype's
    parity tolerance pins the whole ``with_noise`` path per channel family.
    """

    def test_search_matches_scalar_dense_reference(self, channel, dtype, backend):
        batched = _noisy_search(
            Engine(backend=BACKENDS[backend](dtype)), channel, batch_size=256
        )
        scalar = _noisy_search(Engine(backend="dense"), channel, batch_size=1)
        assert batched.num_assignments == scalar.num_assignments == 27
        np.testing.assert_allclose(
            batched.best_acceptance,
            scalar.best_acceptance,
            atol=parity_tolerance(dtype),
        )


@pytest.mark.parametrize("channel", NOISY_SEARCH_CHANNELS)
def test_noisy_search_labels_match_across_batch_sizes(channel):
    """Same backend, different chunking: byte-identical winner labels."""
    engine = Engine(backend=TransferMatrixBackend(dtype="complex128"))
    chunked = _noisy_search(engine, channel, batch_size=4)
    whole = _noisy_search(engine, channel, batch_size=256)
    assert chunked.best_strategy == whole.best_strategy
    assert chunked.best_acceptance == whole.best_acceptance


@requires_torch
@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestTorchParity:
    """The same parity matrix through the torch adapter (CPU wheel in CI)."""

    def test_rows_match_dense_reference(self, family, dtype):
        from repro.engine import TorchTransferMatrixBackend

        factory, batch = FAMILIES[family]
        engine = Engine(backend=TorchTransferMatrixBackend(dtype=dtype))
        protocol = factory().use_engine(engine)
        rows = np.asarray(protocol.acceptance_probabilities(batch))
        np.testing.assert_allclose(
            rows, _reference_rows(family), atol=parity_tolerance(dtype)
        )
