"""repro — a reproduction of "On the Power of Quantum Distributed Proofs" (PODC 2024).

The library implements distributed quantum Merlin-Arthur (dQMA) protocols on
an exact quantum network simulator, together with the classical baselines,
communication-complexity substrates, adversarial soundness analysis and the
upper/lower-bound calculators needed to regenerate every table of the paper.

Quick start
-----------
>>> from repro import EqualityPathProtocol
>>> protocol = EqualityPathProtocol.on_path(input_length=3, path_length=4)
>>> protocol.acceptance_probability(("101", "101"))      # perfect completeness
1.0
>>> protocol.repeated(60).acceptance_probability(("101", "110")) < 1/3
True

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the table
regeneration harness.
"""

from repro.comm import (
    DisjointnessProblem,
    EqualityProblem,
    ForAllPairsProblem,
    GreaterThanProblem,
    HammingDistanceProblem,
    InnerProductProblem,
    LinearSubspaceDistanceInstance,
    LSDOneWayQMAProtocol,
    PatternMatrixANDProblem,
    RankingVerificationProblem,
    random_lsd_instance,
)
from repro.network import (
    Network,
    binary_tree_network,
    build_verification_tree,
    complete_network,
    path_network,
    random_tree_network,
    star_network,
)
from repro.protocols import (
    EqualityPathProtocol,
    EqualityTreeProtocol,
    Fgnp21EqualityProtocol,
    GreaterThanPathProtocol,
    LSDPathProtocol,
    OneWayToTreeProtocol,
    ProductProof,
    QMAOneWayToPathProtocol,
    RankingVerificationProtocol,
    RelayEqualityProtocol,
    RepeatedProtocol,
    TrivialEqualityDMA,
    TruncationEqualityDMA,
    hamming_distance_protocol,
)
from repro.quantum import (
    ExactCodeFingerprint,
    HadamardCodeFingerprint,
    KrausChannel,
    NoiseModel,
    SimulatedFingerprint,
    depolarizing_channel,
    fidelity,
    trace_distance,
)
from repro.engine import (
    DenseBackend,
    Engine,
    TransferMatrixBackend,
    available_backends,
    default_engine,
)
from repro.experiments import ExperimentRunner

__version__ = "1.1.0"

__all__ = [
    "DenseBackend",
    "Engine",
    "ExperimentRunner",
    "TransferMatrixBackend",
    "available_backends",
    "default_engine",
    "DisjointnessProblem",
    "EqualityProblem",
    "ForAllPairsProblem",
    "GreaterThanProblem",
    "HammingDistanceProblem",
    "InnerProductProblem",
    "LinearSubspaceDistanceInstance",
    "LSDOneWayQMAProtocol",
    "PatternMatrixANDProblem",
    "RankingVerificationProblem",
    "random_lsd_instance",
    "Network",
    "build_verification_tree",
    "binary_tree_network",
    "complete_network",
    "path_network",
    "random_tree_network",
    "star_network",
    "EqualityPathProtocol",
    "EqualityTreeProtocol",
    "Fgnp21EqualityProtocol",
    "GreaterThanPathProtocol",
    "LSDPathProtocol",
    "OneWayToTreeProtocol",
    "ProductProof",
    "QMAOneWayToPathProtocol",
    "RankingVerificationProtocol",
    "RelayEqualityProtocol",
    "RepeatedProtocol",
    "TrivialEqualityDMA",
    "TruncationEqualityDMA",
    "hamming_distance_protocol",
    "KrausChannel",
    "NoiseModel",
    "depolarizing_channel",
    "ExactCodeFingerprint",
    "HadamardCodeFingerprint",
    "SimulatedFingerprint",
    "fidelity",
    "trace_distance",
    "__version__",
]

# Arm the runtime sanitizer when REPRO_SANITIZE is truthy; a misspelt value
# raises.  Pool and subprocess workers inherit the variable through the
# environment, so every dispatch path sanitizes itself on import.  The linter
# package is imported only then, so a plain import never loads it.
from repro.utils.env import env_bool as _env_bool

if _env_bool("REPRO_SANITIZE"):
    from repro.lint.sanitize import install as _install_sanitizer

    _install_sanitizer()
