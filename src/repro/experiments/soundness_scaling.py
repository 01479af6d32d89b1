"""Soundness scaling of the Algorithm 3 chain (Lemma 17).

For the single-shot protocol ``P_pi`` on a path of length ``r``, Lemma 17
guarantees that a no-instance is accepted with probability at most
``1 - 4/(81 r^2)`` by *any* proof.  This experiment computes, on small exact
instances, the true optimum over entangled proofs (the largest eigenvalue of
the acceptance operator) and over structured product proofs, as a function of
``r`` — reproducing the shape the repetition count of Algorithm 4 is tuned to.

With the two-dimensional fingerprints of :func:`small_fingerprints` the proof
space of a path of length ``r`` has dimension ``4^(r-1)``.  Up to ``r = 4``
the optimum diagonalises the dense acceptance operator; beyond it, up to
``r = 10``, Lanczos runs on the matrix-free chain sweep to a Ritz residual of
``1e-12`` (see :meth:`repro.protocols.equality.EqualityPathProtocol.
optimal_cheating_probability`).  The report's default grid stays ``r = 2..4``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.soundness import paper_bound_slack, repetition_soundness
from repro.codes.linear_code import repetition_code
from repro.experiments.records import ExperimentRow
from repro.protocols.equality import EqualityPathProtocol
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.utils.validation import require_positive_integer


def small_fingerprints(input_length: int = 1, repetitions: int = 1) -> ExactCodeFingerprint:
    """A deliberately tiny fingerprint scheme for exact entangled adversaries.

    With ``repetitions = 1`` the fingerprints of single-bit inputs live in a
    two-dimensional register (and are orthogonal), which keeps the chain's
    proof space small enough for an exact optimum up to path length 10.
    """
    return ExactCodeFingerprint(input_length, code=repetition_code(input_length, repetitions))


def default_path_lengths() -> List[int]:
    """The default path-length grid of the Lemma 17 scaling sweep."""
    return [2, 3, 4]


def default_repetition_counts() -> List[int]:
    """The default repetition-count grid of the Algorithm 4 curve."""
    return [1, 10, 50, 100, 200, 400]


def soundness_scaling_sweep(
    path_lengths: Optional[Sequence[int]] = None,
    input_length: int = 1,
) -> List[ExperimentRow]:
    """Optimal cheating probability versus path length, against the Lemma 17 bound."""
    if path_lengths is None:
        path_lengths = default_path_lengths()
    path_lengths = [require_positive_integer(r, "path length") for r in path_lengths]
    fingerprints = small_fingerprints(input_length)
    no_instance = ("0" * input_length, "0" * (input_length - 1) + "1")
    rows: List[ExperimentRow] = []
    for r in path_lengths:
        protocol = EqualityPathProtocol.on_path(input_length, r, fingerprints)
        optimal = protocol.optimal_cheating_probability(no_instance)
        honest = protocol.acceptance_probability(no_instance)
        bound = 1.0 - protocol.single_shot_soundness_gap()
        rows.append(
            ExperimentRow(
                "soundness-scaling",
                f"r={r}",
                {
                    "optimal_entangled_acceptance": optimal,
                    "honest_proof_acceptance": honest,
                    "paper_bound": bound,
                    "respects_bound": optimal <= bound + paper_bound_slack(),
                    "gap_achieved": 1.0 - optimal,
                    "gap_required": protocol.single_shot_soundness_gap(),
                },
            )
        )
    return rows


def repetition_curve(
    path_length: int = 3,
    repetition_counts: Optional[Sequence[int]] = None,
    input_length: int = 1,
) -> List[ExperimentRow]:
    """Acceptance of the best entangled single-shot cheat after ``k`` repetitions.

    For product proofs across copies the repeated acceptance is the single-shot
    optimum to the ``k``-th power, which is the bound the Algorithm 4 analysis
    uses; the curve shows how many repetitions are needed to cross 1/3.
    """
    if repetition_counts is None:
        repetition_counts = default_repetition_counts()
    repetition_counts = [
        require_positive_integer(k, "repetition count") for k in repetition_counts
    ]
    fingerprints = small_fingerprints(input_length)
    no_instance = ("0" * input_length, "0" * (input_length - 1) + "1")
    protocol = EqualityPathProtocol.on_path(input_length, path_length, fingerprints)
    optimal = protocol.optimal_cheating_probability(no_instance)
    rows: List[ExperimentRow] = []
    for k in repetition_counts:
        repeated = repetition_soundness(optimal, k)
        rows.append(
            ExperimentRow(
                "soundness-repetition",
                f"k={k}",
                {
                    "single_shot_optimal": optimal,
                    "repeated_acceptance": repeated,
                    "below_one_third": repeated <= 1.0 / 3.0,
                    "paper_repetitions": protocol.paper_repetitions(),
                },
            )
        )
    return rows
