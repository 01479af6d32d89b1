"""Benchmark / regeneration of the soundness-scaling experiment (Lemma 17, "figure").

For the single-shot chain of Algorithm 3, the paper proves that no proof —
entangled or not — is accepted on a no-instance with probability above
``1 - 4/(81 r^2)``.  These benchmarks compute the *exact* optimal cheating
probability (largest eigenvalue of the acceptance operator) as a function of
the path length, compare it with the bound, and trace the repetition curve
that Algorithm 4 uses to reach soundness 1/3.  The tree protocols have no
operator form, so ``test_tree_strategy_search`` times their structured-cheat
search on the table route and on the per-proof route, which must agree.
"""

from __future__ import annotations

import pytest

from repro.analysis.adversary import seesaw_separable_acceptance
from repro.analysis.soundness import fingerprint_strategy_soundness
from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem, ForAllPairsProblem
from repro.experiments.soundness_scaling import (
    repetition_curve,
    small_fingerprints,
    soundness_scaling_sweep,
)
from repro.experiments.tree_soundness import network_zoo
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.from_one_way import OneWayToTreeProtocol
from repro.quantum.fingerprint import ExactCodeFingerprint

from conftest import emit_table


def test_soundness_scaling_sweep(benchmark):
    """Optimal entangled cheating probability versus path length (r = 2, 3, 4)."""
    rows = benchmark.pedantic(soundness_scaling_sweep, args=([2, 3, 4],), rounds=1, iterations=1)
    emit_table("Lemma 17 — optimal cheating probability versus path length", rows)
    for row in rows:
        assert row.value("respects_bound")


def test_soundness_repetition_curve(benchmark):
    """Acceptance of the optimal single-shot cheat after k parallel repetitions."""
    rows = benchmark(repetition_curve, 3, [1, 10, 50, 100, 200, 400])
    emit_table("Algorithm 4 — repetition curve at r = 3", rows)
    assert rows[-1].value("below_one_third")


@pytest.mark.parametrize("path_length", [4, 7], ids=["dense", "matrix-free"])
def test_entangled_adversary_diagonalisation(benchmark, path_length):
    """Cost of the exact optimum: dense diagonalisation at r = 4, Lanczos on the sweep at r = 7."""
    fingerprints = small_fingerprints()
    protocol = EqualityPathProtocol.on_path(1, path_length, fingerprints)

    optimal = benchmark(protocol.optimal_cheating_probability, ("0", "1"))
    assert optimal <= 1.0 - protocol.single_shot_soundness_gap() + 1e-9


def test_separable_seesaw_adversary(benchmark):
    """Cost of the seesaw optimisation over separable proofs (dQMA_sep,sep adversary)."""
    fingerprints = small_fingerprints()
    protocol = EqualityPathProtocol.on_path(1, 3, fingerprints)
    operator = protocol.acceptance_operator(("0", "1"))
    dims = [register.dim for register in protocol.proof_registers()]

    def run():
        value, _ = seesaw_separable_acceptance(operator, dims, iterations=15, restarts=3, rng=0)
        return value

    separable = benchmark(run)
    entangled = protocol.optimal_cheating_probability(("0", "1"))
    assert separable <= entangled + 1e-8


class _PerProofTreeProtocol(EqualityTreeProtocol):
    """Algorithm 5 searched proof by proof (no table route)."""

    strategy_batch = None


class _PerProofOneWayProtocol(OneWayToTreeProtocol):
    """Theorem 32 searched proof by proof (no table route)."""

    strategy_batch = None


def _random8_search_protocol(family: str, route: str):
    """The report's ``random-8`` search instance at t = 4 on the given route."""
    network = dict(network_zoo(4))["random-8"]
    if family == "tree":
        protocol_type = EqualityTreeProtocol if route == "table" else _PerProofTreeProtocol
        return protocol_type(network, ExactCodeFingerprint(2, rng=5))
    protocol_type = OneWayToTreeProtocol if route == "table" else _PerProofOneWayProtocol
    one_way = FingerprintEqualityOneWay(ExactCodeFingerprint(2, rng=6))
    return protocol_type(ForAllPairsProblem(EqualityProblem(2), 4), network, one_way)


@pytest.mark.parametrize("route", ["table", "per-proof"])
@pytest.mark.parametrize("family", ["tree", "ow"], ids=["tree-random-8", "ow-random-8"])
def test_tree_strategy_search(benchmark, family, route):
    """Structured-cheat search of an Algorithm 5 / Theorem 32 tree, on one route.

    The table route scores every chunk from a state table through one
    template job per verification tree; the per-proof route compiles one
    product proof per strategy.  Both must find the same strategy with the
    same acceptance to the bit, so the smoke pass runs both routes.
    """
    inputs = ("11", "11", "11", "01")
    protocol = _random8_search_protocol(family, route)
    result = benchmark(fingerprint_strategy_soundness, protocol, inputs)
    other = _random8_search_protocol(family, "per-proof" if route == "table" else "table")
    reference = fingerprint_strategy_soundness(other, inputs)
    assert result.best_strategy == reference.best_strategy
    assert result.best_acceptance.hex() == reference.best_acceptance.hex()
