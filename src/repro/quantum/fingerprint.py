"""Quantum fingerprints of classical strings.

A fingerprint scheme maps every ``n``-bit string ``x`` to a pure state
``|h_x>`` on ``O(log n)`` qubits so that distinct strings have bounded overlap
``|<h_x|h_y>| <= delta < 1``.  The one-way protocol ``pi`` for the equality
function referenced throughout the paper (Section 2.2.1) sends ``|h_x>`` from
Alice to Bob and lets Bob perform the two-outcome measurement
``{|h_y><h_y|, I - |h_y><h_y|}``: it accepts with probability 1 when ``x = y``
and rejects with probability at least ``1 - delta^2`` otherwise.

Three interchangeable schemes are provided:

``ExactCodeFingerprint``
    The BCWdW construction ``|h_x> = (1/sqrt(M)) sum_i |i>|E(x)_i>`` for an
    explicit linear code ``E`` whose minimum distance has been verified; the
    overlap bound is exact.
``HadamardCodeFingerprint``
    The same construction with the Hadamard code (relative distance exactly
    1/2, overlap bound exactly 1/2).  Register size grows linearly in ``n`` so
    this is used for very small ``n`` only.
``SimulatedFingerprint``
    A deterministic pseudo-random unit vector per string on a register of a
    chosen number of qubits.  The exact pairwise overlaps of the instantiated
    strings are computed on demand; this scheme substitutes for asymptotically
    good codes when the input length is too large for exact code search (see
    DESIGN.md, substitution table).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from math import ceil, log2
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.codes.linear_code import LinearCode, hadamard_code, random_linear_code
from repro.exceptions import EncodingError
from repro.quantum.measurement import POVM
from repro.quantum.states import normalize, outer
from repro.utils.bitstrings import validate_bitstring
from repro.utils.rng import ensure_rng


def fingerprint_register_qubits(n: int, constant: float = 3.0) -> int:
    """The paper's cost model for a fingerprint register: ``c log n`` qubits.

    ``constant`` plays the role of the constant ``c`` in Section 2.2.1.  The
    value is used only by the cost calculators; the simulators use the actual
    register sizes of the instantiated schemes.
    """
    if n <= 0:
        raise EncodingError("input length must be positive")
    return max(1, int(ceil(constant * log2(max(n, 2)))))


class FingerprintScheme(ABC):
    """Common interface of all fingerprint schemes."""

    def __init__(self, input_length: int):
        if input_length <= 0:
            raise EncodingError("input length must be positive")
        self.input_length = int(input_length)
        self._cache: Dict[str, np.ndarray] = {}

    # -- abstract ----------------------------------------------------------

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimension of the fingerprint register."""

    @abstractmethod
    def _build_state(self, x: str) -> np.ndarray:
        """Construct the fingerprint ket of the validated string ``x``."""

    @abstractmethod
    def overlap_bound(self) -> float:
        """A guaranteed upper bound on ``|<h_x|h_y>|`` over distinct strings."""

    # -- concrete ----------------------------------------------------------

    @property
    def cache_token(self) -> Tuple:
        """A stable value identity for engine operator-cache keys.

        Two scheme instances that produce identical fingerprints share a
        token, even across processes — which is what lets operator packs
        exported by one process score cache hits in another (the default
        object identity would never match after pickling).  Subclasses must
        surface *every* parameter that affects the fingerprint states
        through :meth:`_token_fields`.
        """
        return ("fp", type(self).__qualname__, self.input_length, *self._token_fields())

    def _token_fields(self) -> Tuple:
        """Scheme-specific state determining the fingerprints (for the token)."""
        return ()

    @property
    def num_qubits(self) -> float:
        """Number of qubits of the fingerprint register."""
        return float(log2(self.dim))

    def state(self, x: str) -> np.ndarray:
        """The fingerprint ket ``|h_x>`` (cached per string)."""
        cached = self._cache.get(x)
        if cached is None:
            # A cache hit implies the string was validated when first built.
            validate_bitstring(x, length=self.input_length)
            cached = self._cache[x] = self._build_state(x)
        return cached.copy()

    def overlap(self, x: str, y: str) -> float:
        """``|<h_x|h_y>|`` for the two given strings."""
        return float(abs(np.vdot(self.state(x), self.state(y))))

    def equality_test_povm(self, y: str) -> POVM:
        """Bob's measurement in the one-way EQ protocol: ``{|h_y><h_y|, I - ...}``."""
        accept = outer(self.state(y))
        return POVM.two_outcome(accept)

    def accept_probability(self, x: str, y: str) -> float:
        """Acceptance probability of the one-way EQ protocol on input ``(x, y)``."""
        return self.overlap(x, y) ** 2

    def max_overlap(self, strings: Iterable[str]) -> float:
        """Largest pairwise overlap over the given collection of distinct strings."""
        strings = list(dict.fromkeys(strings))
        best = 0.0
        for i, x in enumerate(strings):
            for y in strings[i + 1 :]:
                best = max(best, self.overlap(x, y))
        return best


class ExactCodeFingerprint(FingerprintScheme):
    """BCWdW fingerprints built from an explicit binary linear code."""

    def __init__(self, input_length: int, code: Optional[LinearCode] = None, rng=None):
        super().__init__(input_length)
        if code is None:
            codeword_length = max(4 * input_length, 8)
            code = random_linear_code(
                input_length,
                codeword_length,
                min_relative_distance=0.25,
                rng=ensure_rng(rng if rng is not None else 20240321),
            )
        if code.message_length != input_length:
            raise EncodingError(
                f"code message length {code.message_length} does not match input length {input_length}"
            )
        self.code = code
        # The states are a pure function of the generator matrix, which the
        # code keeps read-only, so its digest is taken once per instance.
        generator = np.ascontiguousarray(code.generator, dtype=np.int64)
        self._generator_digest = hashlib.sha256(generator.tobytes()).hexdigest()[:16]

    def _token_fields(self) -> tuple:
        return (self.code.codeword_length, self._generator_digest)

    @property
    def dim(self) -> int:
        return 2 * self.code.codeword_length

    def overlap_bound(self) -> float:
        return self.code.fingerprint_overlap_bound()

    def _build_state(self, x: str) -> np.ndarray:
        codeword = self.code.encode(x)
        m = self.code.codeword_length
        vec = np.zeros(2 * m, dtype=np.complex128)
        for position, bit in enumerate(codeword):
            vec[2 * position + int(bit)] = 1.0
        return normalize(vec)


class HadamardCodeFingerprint(ExactCodeFingerprint):
    """Fingerprints from the Hadamard code: overlap exactly 1/2 for distinct inputs."""

    def __init__(self, input_length: int):
        super().__init__(input_length, code=hadamard_code(input_length))

    def overlap_bound(self) -> float:
        return 0.5


class SimulatedFingerprint(FingerprintScheme):
    """Deterministic pseudo-random fingerprints on a register of chosen size.

    Each string is mapped to a fixed Haar-like unit vector derived from a seed
    and the string itself, so repeated calls return identical states.  The
    scheme reports the *measured* worst-case overlap over the strings seen so
    far; tests verify it stays below the requested bound for the instances we
    simulate.
    """

    def __init__(self, input_length: int, num_qubits: Optional[int] = None, seed: int = 7):
        super().__init__(input_length)
        if num_qubits is None:
            num_qubits = fingerprint_register_qubits(input_length, constant=2.0)
        if num_qubits <= 0:
            raise EncodingError("fingerprint register must have at least one qubit")
        self._num_qubits = int(num_qubits)
        self._seed = int(seed)

    def _token_fields(self) -> tuple:
        # States are derived deterministically from (seed, n, register size).
        return (self._num_qubits, self._seed)

    @property
    def dim(self) -> int:
        return 2**self._num_qubits

    def overlap_bound(self) -> float:
        """The design target: overlaps concentrate around ``2^{-num_qubits/2}``.

        We report a conservative bound of ``4 / sqrt(dim)`` capped at 0.9;
        instantiated overlaps are checked in the test-suite.
        """
        return min(0.9, 4.0 / np.sqrt(self.dim))

    def _build_state(self, x: str) -> np.ndarray:
        payload = f"{self._seed}:{self.input_length}:{x}".encode()
        digest = int.from_bytes(hashlib.sha256(payload).digest()[:4], "big")
        generator = np.random.default_rng(digest)
        real = generator.normal(size=self.dim)
        imag = generator.normal(size=self.dim)
        return normalize(real + 1j * imag)
