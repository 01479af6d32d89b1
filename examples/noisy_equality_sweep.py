"""Walkthrough: sweeping a dQMA protocol through a noisy network, end to end.

This example shows the full noise pipeline on the Algorithm 3 equality
protocol:

1. build Kraus channels and wrap them in a :class:`NoiseModel`,
2. build one protocol and take its ``with_noise`` sibling per noise strength,
3. evaluate *every* sweep point in a single batched engine call
   (noisy jobs group by structure, not channel strength), and
4. read off how completeness and the yes/no decision gap degrade.

Run it with::

    PYTHONPATH=src python examples/noisy_equality_sweep.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import Engine
from repro.protocols.equality import EqualityPathProtocol
from repro.quantum.channels import NoiseModel, depolarizing_channel
from repro.quantum.fingerprint import ExactCodeFingerprint


def main() -> None:
    # -----------------------------------------------------------------------
    # 1. A fingerprint scheme and a noise model.
    #
    # Every register of the path protocol holds a fingerprint of dimension
    # `fingerprints.dim`, so the channels must act on exactly that dimension.
    # `NoiseModel.uniform_link` puts the same channel on every network link —
    # registers pick it up each time they are sent to a neighbour — while
    # nodes and measurements stay ideal.  Per-link overrides
    # (`links={(u, v): ...}`), per-node delivery noise (`node=...`) and a
    # readout-error probability are available for finer-grained models.
    # -----------------------------------------------------------------------
    fingerprints = ExactCodeFingerprint(input_length=3, rng=7)
    strengths = np.linspace(0.0, 0.5, 11)

    # One clean protocol, then one sibling per strength: `with_noise` shares
    # the layout and maps only the model, and every sibling's honest program
    # reuses the clean one the engine compiled once, with its own channels.
    engine = Engine()  # the default batched transfer-matrix backend
    base = EqualityPathProtocol.on_path(
        input_length=3, path_length=4, fingerprints=fingerprints
    ).use_engine(engine)
    protocols = [
        base.with_noise(NoiseModel.uniform_link(depolarizing_channel(p, fingerprints.dim)))
        for p in strengths
    ]

    # -----------------------------------------------------------------------
    # 2. Compile one acceptance program per sweep point and instance.
    #
    # `acceptance_program` returns the engine's intermediate representation
    # of the protocol run: a chain job whose edges carry this sweep point's
    # channel annotations.  Nothing has been evaluated yet.
    # -----------------------------------------------------------------------
    yes_instance = ("101", "101")  # equal inputs: ideal completeness is 1
    no_instance = ("101", "110")  # unequal inputs: the honest prover still tries

    programs = []
    for protocol in protocols:
        programs.append(protocol.acceptance_program(yes_instance))
        programs.append(protocol.acceptance_program(no_instance))

    # -----------------------------------------------------------------------
    # 3. One batched call evaluates all 22 programs.
    #
    # All noisy chain jobs share one shape group (they differ only in channel
    # strength), so the engine stacks their density rows into a single
    # transfer-matrix contraction — the same trick that makes the 256-point
    # sweep in benchmarks/bench_engine.py >= 3x faster than a scalar loop.
    # -----------------------------------------------------------------------
    values = engine.evaluate_programs(programs)
    completeness = values[0::2]
    no_accept = values[1::2]

    # -----------------------------------------------------------------------
    # 4. Report: the gap between the yes- and no-instance acceptance is the
    # margin the verifier retains for distinguishing the two cases.
    # -----------------------------------------------------------------------
    print("depolarizing link noise on the r=4 equality path (n=3 fingerprints)")
    print(f"{'strength':>9} {'completeness':>13} {'no-accept':>10} {'gap':>8}")
    for strength, complete, reject in zip(strengths, completeness, no_accept):
        print(
            f"{strength:9.3f} {complete:13.4f} {reject:10.4f} {complete - reject:8.4f}"
        )

    # Sanity: the zero-noise point reproduces the ideal protocol exactly.
    assert abs(completeness[0] - 1.0) < 1e-9
    # And noise only ever shrinks the verifier's margin.
    assert np.all(np.diff(completeness - no_accept) < 1e-12)


if __name__ == "__main__":
    main()
