"""Benchmark of the completeness claims of every protocol (the per-theorem checks).

The paper states perfect completeness for Algorithms 3, 5, 7 and 8 and
``1 - 1/poly`` completeness for the protocols derived from one-way / QMA
communication protocols (Theorems 30, 32, 42).  Each benchmark times the exact
acceptance computation of the honest proof on a yes-instance and asserts the
claimed completeness.
"""

from __future__ import annotations

import pytest

from repro.comm.lsd import random_lsd_instance
from repro.network.topology import random_tree_network, star_network
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.from_one_way import hamming_distance_protocol
from repro.protocols.greater_than import GreaterThanPathProtocol
from repro.protocols.qma_to_dqma import LSDPathProtocol
from repro.protocols.ranking import RankingVerificationProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import NoiseModel, channel_family
from repro.quantum.fingerprint import ExactCodeFingerprint

FINGERPRINTS = ExactCodeFingerprint(4, rng=7)


def test_completeness_equality_path(benchmark):
    """Algorithm 3 (Theorem 19): perfect completeness on a path of length 6."""
    protocol = EqualityPathProtocol.on_path(4, 6, FINGERPRINTS)
    value = benchmark(protocol.acceptance_probability, ("1011", "1011"))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_completeness_equality_tree(benchmark):
    """Algorithm 5 (Theorem 19): perfect completeness on a random tree with 4 terminals."""
    network = random_tree_network(9, 4, rng=3)
    protocol = EqualityTreeProtocol(network, FINGERPRINTS)
    value = benchmark(protocol.acceptance_probability, ("0110", "0110", "0110", "0110"))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_completeness_relay(benchmark):
    """Algorithm 6 (Theorem 22): perfect completeness with relay points."""
    protocol = RelayEqualityProtocol.on_path(4, 6, relay_spacing=2, segment_repetitions=4, fingerprints=FINGERPRINTS)
    value = benchmark(protocol.acceptance_probability, ("0110", "0110"))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_relay_sampling_under_noise(benchmark):
    """Algorithm 6 sampled route under depolarizing noise: equals the exact value.

    The honest relay registers have one outcome each, so the 64-shot estimate
    conditions every shot on the same outcome and must reproduce the noisy
    exact acceptance, not the noiseless one.
    """
    fingerprints = ExactCodeFingerprint(2, rng=7)
    noise = NoiseModel.uniform_link(channel_family("depolarizing")(0.3, fingerprints.dim))
    protocol = RelayEqualityProtocol.on_path(
        2, 4, relay_spacing=2, segment_repetitions=2, fingerprints=fingerprints, noise=noise
    )
    value = benchmark(protocol.estimate_acceptance_sampling, ("11", "11"), shots=64, rng=0)
    assert value == pytest.approx(protocol.acceptance_probability(("11", "11")), abs=1e-12)


def test_completeness_greater_than(benchmark):
    """Algorithm 7 (Theorem 26): perfect completeness for GT."""
    protocol = GreaterThanPathProtocol.on_path(4, 4, ">", FINGERPRINTS)
    value = benchmark(protocol.acceptance_probability, ("1100", "1010"))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_completeness_ranking(benchmark):
    """Algorithm 8 (Theorem 29): perfect completeness for ranking verification."""
    protocol = RankingVerificationProtocol.on_star(4, 4, target_terminal=2, target_rank=1, fingerprints=FINGERPRINTS)
    value = benchmark(protocol.acceptance_probability, ("0011", "1100", "0101", "0110"))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_completeness_hamming(benchmark):
    """Algorithm 9 (Theorem 30): high completeness for the Hamming-distance protocol."""
    protocol = hamming_distance_protocol(6, 1, 3, network=star_network(3))
    value = benchmark(protocol.acceptance_probability, ("110100", "110101", "110100"))
    assert value > 0.99


def test_completeness_lsd_path(benchmark):
    """Algorithm 10 (Theorem 42): high completeness for the LSD path protocol."""
    protocol = LSDPathProtocol(random_lsd_instance(24, 2, close=True, rng=5), path_length=5)
    value = benchmark(protocol.acceptance_on_promise)
    assert value > 0.95
