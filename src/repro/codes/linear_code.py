"""Binary linear codes over GF(2).

A :class:`LinearCode` is described by a ``k x m`` generator matrix ``G`` over
GF(2); a message of ``k`` bits encodes to the codeword ``x G`` of ``m`` bits.
The minimum distance is computed exactly (by enumerating all ``2^k - 1``
non-zero codewords), which is feasible for the message lengths used in exact
protocol simulation (``k`` up to roughly 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import EncodingError
from repro.utils.bitstrings import bitstring_to_array, validate_bitstring
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A binary linear code given by its generator matrix (one row per message bit).

    Codes compare and hash by value, the shape and bytes of the reduced
    generator, so equal codes share set and dict entries.
    """

    generator: np.ndarray
    _min_distance_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        gen = np.asarray(self.generator, dtype=np.int64) % 2
        if gen.ndim != 2 or gen.size == 0:
            raise EncodingError("generator matrix must be a non-empty 2-D array")
        # Read-only like the dataclass itself: fingerprints key their cache
        # tokens on a digest of this matrix taken once.
        gen.flags.writeable = False
        object.__setattr__(self, "generator", gen)

    def __reduce__(self):
        # Unpickle through __post_init__: numpy drops the read-only flag.
        return (type(self), (self.generator,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def _value(self) -> tuple:
        return (self.generator.shape, self.generator.tobytes())

    @property
    def message_length(self) -> int:
        """Number of message bits ``k``."""
        return int(self.generator.shape[0])

    @property
    def codeword_length(self) -> int:
        """Number of codeword bits ``m``."""
        return int(self.generator.shape[1])

    @property
    def rate(self) -> float:
        """Code rate ``k / m``."""
        return self.message_length / self.codeword_length

    def encode(self, message: str) -> str:
        """Encode a ``k``-bit message string into an ``m``-bit codeword string."""
        validate_bitstring(message, length=self.message_length)
        vector = bitstring_to_array(message)
        codeword = (vector @ self.generator) % 2
        return "".join(str(int(b)) for b in codeword)

    def minimum_distance(self) -> int:
        """Exact minimum distance (weight of the lightest non-zero codeword)."""
        if "d" in self._min_distance_cache:
            return self._min_distance_cache["d"]
        k = self.message_length
        if k > 20:
            raise EncodingError(
                "exact minimum distance enumeration is limited to k <= 20 message bits"
            )
        best = self.codeword_length
        for value in range(1, 1 << k):
            message = np.array([(value >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.int64)
            codeword = (message @ self.generator) % 2
            weight = int(codeword.sum())
            if weight < best:
                best = weight
        self._min_distance_cache["d"] = best
        return best

    def relative_distance(self) -> float:
        """Minimum distance divided by the codeword length."""
        return self.minimum_distance() / self.codeword_length

    def fingerprint_overlap_bound(self) -> float:
        """Maximum fingerprint overlap ``1 - delta`` implied by the code distance."""
        return 1.0 - self.relative_distance()


def hadamard_code(message_length: int) -> LinearCode:
    """The Hadamard code: codeword positions are all ``2^k`` inner products.

    Relative distance is exactly 1/2, at the price of exponential codeword
    length; used for exact small-``n`` fingerprints where the overlap bound
    matters more than the code rate.
    """
    if message_length <= 0:
        raise EncodingError("message length must be positive")
    k = message_length
    columns = []
    for value in range(1 << k):
        columns.append([(value >> (k - 1 - i)) & 1 for i in range(k)])
    generator = np.array(columns, dtype=np.int64).T
    return LinearCode(generator)


def repetition_code(message_length: int, repetitions: int) -> LinearCode:
    """Each message bit is repeated ``repetitions`` times (distance = repetitions)."""
    if message_length <= 0 or repetitions <= 0:
        raise EncodingError("message length and repetitions must be positive")
    blocks = []
    for row in range(message_length):
        block = np.zeros(message_length * repetitions, dtype=np.int64)
        block[row * repetitions : (row + 1) * repetitions] = 1
        blocks.append(block)
    return LinearCode(np.array(blocks, dtype=np.int64))


def random_linear_code(
    message_length: int,
    codeword_length: int,
    min_relative_distance: float = 0.25,
    rng: RngLike = None,
    max_attempts: int = 200,
) -> LinearCode:
    """A random linear code whose exact relative distance meets the target.

    Random linear codes meet the Gilbert–Varshamov bound with high probability,
    so for moderate rates a few attempts suffice.  The returned code's distance
    has been verified exactly, so downstream overlap bounds are rigorous for
    the generated instance.
    """
    if codeword_length < message_length:
        raise EncodingError("codeword length must be at least the message length")
    generator_rng = ensure_rng(rng)
    best: Optional[LinearCode] = None
    best_distance = -1.0
    for _ in range(max_attempts):
        generator = generator_rng.integers(0, 2, size=(message_length, codeword_length))
        code = LinearCode(generator)
        if np.linalg.matrix_rank(code.generator) < message_length:
            continue
        distance = code.relative_distance()
        if distance >= min_relative_distance:
            return code
        if distance > best_distance:
            best_distance = distance
            best = code
    if best is None:
        raise EncodingError("failed to generate a full-rank random linear code")
    raise EncodingError(
        f"failed to reach relative distance {min_relative_distance} after "
        f"{max_attempts} attempts (best was {best_distance:.3f}); "
        "increase the codeword length"
    )
