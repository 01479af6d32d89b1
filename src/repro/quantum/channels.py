"""Composable Kraus noise channels and per-network noise models.

Everything the engine evaluates in the absence of noise assumes perfect
state preparation, transmission and measurement.  This module supplies the
noise vocabulary of the robustness experiments:

:class:`KrausChannel`
    A completely positive trace-preserving (CPTP) map given by its Kraus
    operators ``{K_k}`` with the completeness relation
    ``sum_k K_k^dagger K_k = I`` asserted at construction.  Channels act on
    density matrices through their definitional Kraus sum (``apply``), on
    stacks of densities (``apply_batch``), and compose with ``then``.

Channel constructors
    :func:`identity_channel`, :func:`depolarizing_channel`,
    :func:`dephasing_channel`, :func:`amplitude_damping_channel`,
    :func:`bit_flip_channel`, :func:`phase_flip_channel` — each generalized
    from the qubit textbook form to arbitrary register dimension ``d``
    (shift/clock operators replace the Pauli ``X``/``Z``).  Every named
    family applies to stacks in closed form, O(d^2) per density, with
    per-row strengths; only generic and composed channels go through the
    ``d^2 x d^2`` superoperator.

:class:`NoiseModel`
    Assigns channels per-link and per-node of a protocol's network, plus a
    classical measurement readout-error probability.  Protocols translate a
    noise model into the engine's per-job channel annotations
    (:class:`repro.engine.jobs.ChainNoise` / :class:`~repro.engine.jobs.
    TreeNoise`); an empty model keeps the fast pure-state evaluation path.

Measurement readout error is not a Kraus channel: it is the classical binary
symmetric channel on a test's accept/reject flag, applied with
:func:`flip_probability`.

Doctest examples (run by ``pytest --doctest-modules`` in CI):

>>> import numpy as np
>>> channel = depolarizing_channel(0.2, dim=2)
>>> rho = np.array([[1.0, 0.0], [0.0, 0.0]])       # |0><0|
>>> np.round(channel.apply(rho), 10)                # 0.8 rho + 0.2 I/2
array([[0.9+0.j, 0. +0.j],
       [0. +0.j, 0.1+0.j]])
>>> round(float(np.trace(channel.apply(rho)).real), 12)   # trace preserving
1.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ChannelError, DimensionMismatchError

#: Tolerance of the Kraus completeness assertion ``sum_k K_k^dagger K_k = I``.
COMPLETENESS_ATOL = 1e-10

#: Any node/edge label a :class:`NoiseModel` may key channels on.
Label = Union[int, str]


def _is_complete(operators: Sequence[np.ndarray]) -> bool:
    """Whether ``sum_k K_k^dagger K_k = I`` holds to :data:`COMPLETENESS_ATOL`.

    One stacked matmul of ``d x d`` products: an order of magnitude faster
    than the equivalent einsum, and each product stays below the size at
    which BLAS starts threads.
    """
    stacked = np.stack(operators)
    completeness = (stacked.conj().swapaxes(-1, -2) @ stacked).sum(axis=0)
    return bool(
        np.allclose(completeness, np.eye(stacked.shape[-1]), atol=COMPLETENESS_ATOL)
    )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map in Kraus form (compared by identity, like the engine jobs).

    ``params`` records the defining scalar parameters (noise strength,
    damping rate, ...) so that :attr:`key` is a readable value-level label
    for caches, experiment rows and benchmark metadata.

    >>> channel = dephasing_channel(0.5, dim=2)
    >>> channel.name, channel.params, channel.dim
    ('dephasing', (0.5,), 2)
    """

    name: str
    kraus: Tuple[np.ndarray, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ChannelError("a Kraus channel needs at least one operator")
        operators = tuple(
            np.asarray(operator, dtype=np.complex128) for operator in self.kraus
        )
        dim = operators[0].shape[0] if operators[0].ndim == 2 else 0
        for operator in operators:
            if operator.ndim != 2 or operator.shape != (dim, dim) or dim == 0:
                raise DimensionMismatchError(
                    f"channel {self.name!r}: Kraus operators must be square "
                    "matrices of one shared dimension"
                )
        object.__setattr__(self, "kraus", operators)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not _is_complete(operators):
            raise ChannelError(
                f"channel {self.name!r} is not trace preserving: "
                "sum_k K_k^dagger K_k != I"
            )

    @property
    def dim(self) -> int:
        """Dimension ``d`` of the registers the channel acts on."""
        return int(self.kraus[0].shape[0])

    @property
    def num_kraus(self) -> int:
        """Number of Kraus operators."""
        return len(self.kraus)

    @property
    def key(self) -> Tuple:
        """Value-level cache label: ``(name, params, dim)`` plus a Kraus digest.

        The digest of the actual operator content (cached) keeps two
        physically different channels that happen to share a name and
        parameters from ever colliding in a program cache.  The named
        families, whose parameters provably determine the map, override this
        with the analytic label alone.
        """
        digest = self.__dict__.get("_kraus_digest")
        if digest is None:
            import hashlib

            stacked = np.ascontiguousarray(np.stack(self.kraus))
            digest = hashlib.sha256(stacked.tobytes()).hexdigest()[:16]
            object.__setattr__(self, "_kraus_digest", digest)
        return (self.name, self.params, self.dim, digest)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The channel output ``sum_k K_k rho K_k^dagger`` on a density matrix.

        >>> channel = bit_flip_channel(1.0, dim=2)      # always flip
        >>> rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        >>> np.allclose(channel.apply(rho), [[0, 0], [0, 1]])
        True
        """
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"channel {self.name!r} acts on dimension {self.dim}, "
                f"got a state of shape {rho.shape}"
            )
        output = np.zeros_like(rho)
        for operator in self.kraus:
            output += operator @ rho @ operator.conj().T
        return output

    def apply_to_state(self, state: np.ndarray) -> np.ndarray:
        """The channel output on a pure state, as a density matrix."""
        vector = np.asarray(state, dtype=np.complex128).reshape(-1)
        return self.apply(np.outer(vector, vector.conj()))

    def apply_batch(self, densities: np.ndarray) -> np.ndarray:
        """The channel applied to a stack of densities, shape ``(..., d, d)``.

        Generic and composed channels route every density through the
        superoperator in one matmul, O(d^4) per density.  The named families
        override this with their O(d^2) closed form and never build the
        ``d^2 x d^2`` matrix.
        """
        densities = np.asarray(densities, dtype=np.complex128)
        dim = self.dim
        shape = densities.shape
        vectors = densities.reshape(-1, dim * dim) @ self.superoperator().T
        return vectors.reshape(shape)

    def superoperator(self) -> np.ndarray:
        """The ``d^2 x d^2`` matrix ``S`` with ``vec(C(rho)) = S vec(rho)``.

        Row-major ``vec``; cached on the channel, since batched evaluation
        of a generic channel applies it to many registers at once.

        >>> channel = identity_channel(3)
        >>> np.allclose(channel.superoperator(), np.eye(9))
        True
        """
        cached = self.__dict__.get("_superoperator")
        if cached is None:
            # sum_k K_k (x) conj(K_k), computed in one einsum over the
            # stacked Kraus operators (repeated np.kron is far slower).
            stack = np.stack(self.kraus)
            dim = self.dim
            cached = np.einsum(
                "kac,kbd->abcd", stack, stack.conj(), optimize=True
            ).reshape(dim * dim, dim * dim)
            object.__setattr__(self, "_superoperator", cached)
        return cached

    @property
    def is_identity(self) -> bool:
        """True when the channel acts as the identity map (cached check).

        A channel is the identity exactly when every Kraus operator is a
        scalar multiple of ``I``, so the check reads the operators
        themselves and never materializes the superoperator.
        """
        cached = self.__dict__.get("_is_identity")
        if cached is None:
            stack = np.stack(self.kraus)
            scalars = np.trace(stack, axis1=1, axis2=2) / self.dim
            # rtol must be zero: np.allclose's default 1e-5 relative slack
            # would classify any channel weaker than ~1e-5 as the identity
            # and silently drop its noise from every evaluation path.
            cached = bool(
                np.allclose(
                    stack,
                    scalars[:, None, None] * np.eye(self.dim),
                    rtol=0.0,
                    atol=1e-12,
                )
            )
            object.__setattr__(self, "_is_identity", cached)
        return cached

    def then(self, other: "KrausChannel") -> "KrausChannel":
        """The composition *this channel first, then* ``other``.

        >>> composed = dephasing_channel(0.3, 2).then(dephasing_channel(0.4, 2))
        >>> composed.num_kraus
        9
        """
        if other.dim != self.dim:
            raise DimensionMismatchError(
                "composed channels must act on the same dimension"
            )
        operators = tuple(
            second @ first for second in other.kraus for first in self.kraus
        )
        return KrausChannel(
            name=f"{other.name}*{self.name}",
            kraus=operators,
            params=self.params + other.params,
        )


def identity_channel(dim: int) -> KrausChannel:
    """The noiseless channel on a ``dim``-dimensional register."""
    return KrausChannel("identity", (np.eye(dim),))


def _shift_operator(dim: int) -> np.ndarray:
    """The generalized Pauli ``X``: the cyclic shift ``|j> -> |j+1 mod d>``."""
    return np.eye(dim)[:, list(range(1, dim)) + [0]].astype(np.complex128)


def _clock_phases(dim: int) -> np.ndarray:
    """The phases ``omega^j`` with ``omega = e^{2 pi i/d}``."""
    return np.exp(2j * np.pi * np.arange(dim) / dim)


def _clock_operator(dim: int) -> np.ndarray:
    """The generalized Pauli ``Z``: the diagonal of clock phases."""
    return np.diag(_clock_phases(dim))


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"{name} strength must lie in [0, 1], got {p}")
    return p


def _weyl_operators(dim: int) -> np.ndarray:
    """The ``d^2 - 1`` non-trivial Weyl unitaries ``X^a Z^b``, stacked.

    ``X^a`` is a row-rolled identity and ``Z^b`` a diagonal phase, so each
    operator is built elementwise — no matrix powers or products.  Cached
    per dimension: a noise sweep constructs hundreds of depolarizing
    channels over the same register size.
    """
    cached = _WEYL_CACHE.get(dim)
    if cached is None:
        identity = np.eye(dim, dtype=np.complex128)
        phases = _clock_phases(dim)
        stack = np.empty((dim * dim - 1, dim, dim), dtype=np.complex128)
        index = 0
        for a in range(dim):
            shifted = np.roll(identity, a, axis=0)
            for b in range(dim):
                if a == 0 and b == 0:
                    continue
                stack[index] = shifted * phases[None, :] ** b
                index += 1
        stack.setflags(write=False)
        _WEYL_CACHE[dim] = cached = stack
    return cached


_WEYL_CACHE: Dict[int, np.ndarray] = {}


@dataclass(frozen=True, eq=False)
class _ClosedFormChannel(KrausChannel):
    """A named channel family whose strength and dimension determine the map.

    The Kraus operators are built and completeness-checked as for any other
    channel, and :meth:`~KrausChannel.apply` stays their definitional sum,
    so the engine's dense backend cross-checks the closed forms.  Everything
    the batched path reads is analytic: :meth:`apply_batch` is the family's
    O(d^2) action from :data:`_CLOSED_FORMS` (no ``d^2 x d^2``
    superoperator), :attr:`is_identity` reads the parameters, and
    :attr:`key` is the analytic ``(name, params, dim)``.
    """

    @property
    def is_identity(self) -> bool:
        # Every CPTP map on a 1-dimensional register is the identity.
        return self.params[0] == 0.0 or self.dim == 1

    @property
    def key(self) -> Tuple:
        return (self.name, self.params, self.dim)

    def apply_batch(self, densities: np.ndarray) -> np.ndarray:
        densities = np.asarray(densities, dtype=np.complex128)
        return _CLOSED_FORMS[self.name](densities, self.params[0], self.dim)


@dataclass(frozen=True, eq=False)
class _ClosedFormDepolarizing(_ClosedFormChannel):
    """Depolarizing channel with lazy Kraus operators.

    Unlike the other families, its Kraus set (the Weyl basis) has ``d^2``
    members, so it is built (and its completeness asserted) only when read —
    by the scalar reference :meth:`~KrausChannel.apply`.  Completeness holds
    analytically regardless: the channel is a mixture of unitaries whose
    weights ``(1 - p (d^2-1)/d^2) + (d^2-1) p/d^2`` sum to 1.
    """

    dimension: int = 0

    def __post_init__(self) -> None:
        # ``kraus`` arrives as a placeholder; drop the attribute so the
        # first read falls through to ``__getattr__`` and builds lazily.
        object.__delattr__(self, "kraus")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def __getattr__(self, name: str):
        if name == "kraus":
            operators = _depolarizing_kraus(self.params[0], self.dimension)
            if not _is_complete(operators):  # pragma: no cover - analytic construction
                raise ChannelError("depolarizing Kraus set lost completeness")
            object.__setattr__(self, "kraus", operators)
            return operators
        raise AttributeError(name)

    @property
    def dim(self) -> int:
        return self.dimension

    def superoperator(self) -> np.ndarray:
        cached = self.__dict__.get("_superoperator")
        if cached is None:
            # (1 - p) I + (p/d) |vec I><vec I| in the row-major vec basis.
            p = self.params[0]
            vec_identity = np.eye(self.dimension).reshape(-1)
            cached = (1.0 - p) * np.eye(self.dimension**2) + (
                p / self.dimension
            ) * np.outer(vec_identity, vec_identity)
            object.__setattr__(self, "_superoperator", cached)
        return cached


def _strength_rows(densities: np.ndarray, strengths) -> np.ndarray:
    """Scalar or per-row strengths shaped ``(..., 1, 1)`` against a density stack.

    The strengths take the densities' real precision, so a complex64
    contraction stays complex64: float64 strengths would silently upcast
    the whole stack back to complex128 and defeat the reduced-precision path.
    """
    real = np.float32 if densities.dtype == np.complex64 else np.float64
    return np.asarray(strengths, dtype=real)[..., None, None]


def _depolarizing_action(densities: np.ndarray, strengths, dim: int) -> np.ndarray:
    """``(1 - p) rho + (p/d) Tr(rho) I``."""
    strengths = _strength_rows(densities, strengths)
    traces = np.trace(densities, axis1=-2, axis2=-1)[..., None, None]
    return (1.0 - strengths) * densities + (strengths / dim) * traces * np.eye(
        dim, dtype=strengths.dtype
    )


def _dephasing_action(densities: np.ndarray, strengths, dim: int) -> np.ndarray:
    """``(1 - p) rho + p diag(rho)``: coherences shrink, populations stay."""
    strengths = _strength_rows(densities, strengths)
    return densities * (1.0 - strengths * (1.0 - np.eye(dim, dtype=strengths.dtype)))


def _amplitude_damping_action(densities: np.ndarray, strengths, dim: int) -> np.ndarray:
    """``rho o kk^T + gamma (Tr rho - rho_00) |0><0|`` with ``k = (1, sqrt(1-gamma), ...)``."""
    strengths = _strength_rows(densities, strengths)
    keep = np.repeat(np.sqrt(1.0 - strengths), dim, axis=-1)
    keep[..., 0] = 1.0
    output = densities * (keep.swapaxes(-1, -2) * keep)
    excited = np.trace(densities, axis1=-2, axis2=-1) - densities[..., 0, 0]
    output[..., 0, 0] += strengths[..., 0, 0] * excited
    return output


def _bit_flip_action(densities: np.ndarray, strengths, dim: int) -> np.ndarray:
    """``(1 - p) rho + p X rho X^dagger``; the shift conjugation rolls both axes."""
    strengths = _strength_rows(densities, strengths)
    shifted = np.roll(densities, (1, 1), axis=(-2, -1))
    return (1.0 - strengths) * densities + strengths * shifted


def _phase_flip_action(densities: np.ndarray, strengths, dim: int) -> np.ndarray:
    """``(1 - p) rho + p rho o omega^{j-k}``: ``Z rho Z^dagger`` is an entrywise phase."""
    strengths = _strength_rows(densities, strengths)
    phases = _clock_phases(dim)
    relative = np.outer(phases, phases.conj()).astype(densities.dtype)
    return densities * (1.0 - strengths * (1.0 - relative))


#: The closed-form action of each named family, ``(densities, strengths,
#: dim) -> densities``: the one implementation behind both
#: :meth:`_ClosedFormChannel.apply_batch` and :func:`apply_channel_grid`.
_CLOSED_FORMS = {
    "depolarizing": _depolarizing_action,
    "dephasing": _dephasing_action,
    "amplitude-damping": _amplitude_damping_action,
    "bit-flip": _bit_flip_action,
    "phase-flip": _phase_flip_action,
}


def _depolarizing_kraus(p: float, dim: int) -> Tuple[np.ndarray, ...]:
    """The Weyl-basis Kraus operators of the depolarizing channel."""
    operators = [np.sqrt(1.0 - p * (dim**2 - 1) / dim**2) * np.eye(dim)]
    weight = np.sqrt(p) / dim
    operators.extend(weight * _weyl_operators(dim))
    return tuple(operators)


def depolarizing_channel(p: float, dim: int = 2) -> KrausChannel:
    """``rho -> (1 - p) rho + p I/d``: uniform contraction to the maximally mixed state.

    The Kraus set is the Weyl (shift/clock) basis: the identity with weight
    ``1 - p (d^2 - 1)/d^2`` and each of the ``d^2 - 1`` non-trivial Weyl
    unitaries with weight ``p/d^2``.  Because that set has ``d^2`` members,
    the returned channel materializes the Kraus operators only on demand
    (see :class:`_ClosedFormDepolarizing`).

    >>> channel = depolarizing_channel(1.0, dim=4)
    >>> rho = np.diag([1.0, 0, 0, 0])
    >>> np.allclose(channel.apply(rho), np.eye(4) / 4)
    True
    >>> len(channel.kraus)          # lazily materialized, completeness-checked
    16
    """
    p = _check_probability(p, "depolarizing")
    if dim <= 0:
        raise ChannelError(f"channel dimension must be positive, got {dim}")
    return _ClosedFormDepolarizing(
        name="depolarizing", kraus=(), params=(p,), dimension=int(dim)
    )


def dephasing_channel(p: float, dim: int = 2) -> KrausChannel:
    """``rho -> (1 - p) rho + p diag(rho)``: off-diagonal coherences decay.

    >>> channel = dephasing_channel(1.0, dim=2)
    >>> rho = np.full((2, 2), 0.5)                      # |+><+|
    >>> np.allclose(channel.apply(rho), np.eye(2) / 2)
    True
    """
    p = _check_probability(p, "dephasing")
    operators = [np.sqrt(1.0 - p) * np.eye(dim)]
    for level in range(dim):
        projector = np.zeros((dim, dim), dtype=np.complex128)
        projector[level, level] = 1.0
        operators.append(np.sqrt(p) * projector)
    return _ClosedFormChannel("dephasing", tuple(operators), params=(p,))


def amplitude_damping_channel(gamma: float, dim: int = 2) -> KrausChannel:
    """Energy relaxation toward ``|0>``: each excited level decays with rate ``gamma``.

    The qubit channel generalized to ``d`` levels: ``K_0`` keeps ``|0>`` and
    scales every excited level by ``sqrt(1 - gamma)``; ``K_j = sqrt(gamma)
    |0><j|`` relaxes level ``j`` directly to the ground state.

    >>> channel = amplitude_damping_channel(0.25, dim=2)
    >>> rho = np.array([[0.0, 0.0], [0.0, 1.0]])        # |1><1|
    >>> np.allclose(channel.apply(rho), [[0.25, 0], [0, 0.75]])
    True
    """
    gamma = _check_probability(gamma, "amplitude damping")
    keep = np.eye(dim, dtype=np.complex128) * np.sqrt(1.0 - gamma)
    keep[0, 0] = 1.0
    operators = [keep]
    for level in range(1, dim):
        decay = np.zeros((dim, dim), dtype=np.complex128)
        decay[0, level] = np.sqrt(gamma)
        operators.append(decay)
    return _ClosedFormChannel("amplitude-damping", tuple(operators), params=(gamma,))


def bit_flip_channel(p: float, dim: int = 2) -> KrausChannel:
    """With probability ``p`` apply the cyclic shift (the Pauli ``X`` for qubits)."""
    p = _check_probability(p, "bit flip")
    operators = (
        np.sqrt(1.0 - p) * np.eye(dim),
        np.sqrt(p) * _shift_operator(dim),
    )
    return _ClosedFormChannel("bit-flip", operators, params=(p,))


def phase_flip_channel(p: float, dim: int = 2) -> KrausChannel:
    """With probability ``p`` apply the clock phases (the Pauli ``Z`` for qubits)."""
    p = _check_probability(p, "phase flip")
    operators = (
        np.sqrt(1.0 - p) * np.eye(dim),
        np.sqrt(p) * _clock_operator(dim),
    )
    return _ClosedFormChannel("phase-flip", operators, params=(p,))


def flip_probability(accept_probability, readout_error: float):
    """Binary symmetric readout: the accept flag is misread with probability ``e``.

    Works elementwise on arrays, so the batched evaluators apply it to whole
    stacks of test factors at once.

    >>> flip_probability(1.0, 0.1)
    0.9
    >>> flip_probability(0.0, 0.1)
    0.1
    """
    if np.isscalar(readout_error) and readout_error == 0.0:
        return accept_probability
    return accept_probability * (1.0 - 2.0 * readout_error) + readout_error


def apply_channels(
    channels: Sequence[Optional[KrausChannel]], densities: np.ndarray
) -> np.ndarray:
    """Apply ``channels[i]`` to ``densities[i]`` (``None`` means noiseless).

    ``densities`` has shape ``(rows, d, d)``.  This is the single-job form of
    :func:`apply_channel_grid`, with the same grouping and closed forms, in
    complex128; the batched engine paths use the grid form, this one serves
    ad-hoc callers and tests.  When every channel is trivial the input's own
    data is returned (no copy); callers treat the result as read-only.
    """
    densities = np.asarray(densities, dtype=np.complex128)
    return apply_channel_grid([channels], densities[None])[0]


def apply_channel_grid(
    grid: Sequence[Sequence[Optional[KrausChannel]]], densities: np.ndarray
) -> np.ndarray:
    """Apply ``grid[b][r]`` to ``densities[b, r]`` across a whole job batch.

    ``densities`` has shape ``(batch, rows, d, d)``.  Every named family
    applies in closed form: its entries, whatever their strengths, join one
    strength-stacked O(d^2) broadcast, so a 256-point sweep applies all of
    its channels in a single vectorized expression.  Only generic and
    composed channels are grouped by value (:attr:`KrausChannel.key`) and go
    through the superoperator matmul.  The input array itself is returned
    (treat as read-only) when every entry is trivial.

    A ``complex64`` input stays ``complex64`` throughout (the engine's
    reduced-precision fast path); every other input is promoted to
    ``complex128`` as before.
    """
    densities = np.asarray(densities)
    if densities.dtype != np.complex64:
        densities = np.asarray(densities, dtype=np.complex128)
    batch, rows, dim = densities.shape[0], densities.shape[1], densities.shape[2]
    if len(grid) != batch:
        raise DimensionMismatchError(f"got {len(grid)} channel rows for batch {batch}")
    # Closed forms group by family name (strengths stacked per row); generic
    # channels by value-stable key, not id(), so equal channel objects from
    # different grid builders share one superoperator pass.
    families: Dict[str, Tuple[list, list]] = {}
    generic: Dict[Tuple, Tuple[KrausChannel, list]] = {}
    for b, row_channels in enumerate(grid):
        if len(row_channels) != rows:
            raise DimensionMismatchError(
                f"got {len(row_channels)} channels for {rows} density rows"
            )
        for r, channel in enumerate(row_channels):
            if channel is None or channel.is_identity:
                continue
            if channel.dim != dim:
                raise DimensionMismatchError(
                    f"channel {channel.name!r} acts on dimension {channel.dim}, "
                    f"registers have dimension {dim}"
                )
            if isinstance(channel, _ClosedFormChannel):
                row_list, strengths = families.setdefault(channel.name, ([], []))
                row_list.append(b * rows + r)
                strengths.append(channel.params[0])
            else:
                generic.setdefault(channel.key, (channel, []))[1].append(b * rows + r)
    if not families and not generic:
        return densities
    flat = densities.reshape(batch * rows, dim, dim)
    if not generic and len(families) == 1:
        ((name, (row_list, strengths)),) = families.items()
        if len(row_list) == flat.shape[0]:
            # One family covers every row (the uniform-sweep hot path): rows
            # were collected in order, so broadcast over the input directly.
            return _CLOSED_FORMS[name](flat, strengths, dim).reshape(densities.shape)
    output = flat.copy()
    for channel, row_list in generic.values():
        output[row_list] = channel.apply_batch(output[row_list])
    for name, (row_list, strengths) in families.items():
        output[row_list] = _CLOSED_FORMS[name](output[row_list], strengths, dim)
    return output.reshape(densities.shape)


def apply_channels_adjoint(
    operator: np.ndarray,
    dims: Sequence[int],
    channels: Sequence[Optional[KrausChannel]],
) -> np.ndarray:
    """Heisenberg-picture conjugation ``E -> (C_1^+ (x) ... (x) C_k^+)(E)``.

    For an accept element ``E`` on a tensor-product space and one optional
    channel per factor, the returned operator ``E'`` satisfies
    ``tr(E . (C_1 (x) ... (x) C_k)(rho)) = tr(E' rho)`` for *every* joint
    state ``rho`` (entangled or not): the adjoint of each channel,
    ``C^+(E) = sum_k K_k^+ E K_k``, is applied to ``E`` on that factor's
    axes.  The adversarial analyses use this to fold delivery/transmission
    noise into an acceptance operator before optimizing over noiseless
    proofs.
    """
    dims = [int(d) for d in dims]
    total = int(np.prod(dims)) if dims else 1
    op = np.asarray(operator, dtype=np.complex128)
    if op.shape != (total, total):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match factor dimensions {dims}"
        )
    if len(channels) != len(dims):
        raise DimensionMismatchError(
            f"got {len(channels)} channels for {len(dims)} tensor factors"
        )
    for position, channel in enumerate(channels):
        if channel is None or channel.is_identity:
            continue
        dim = dims[position]
        if channel.dim != dim:
            raise DimensionMismatchError(
                f"channel {channel.name!r} acts on dimension {channel.dim}, "
                f"factor {position} has dimension {dim}"
            )
        pre = int(np.prod(dims[:position])) if position else 1
        post = int(np.prod(dims[position + 1 :])) if position + 1 < len(dims) else 1
        stack = np.stack(channel.kraus)
        tensor = op.reshape(pre, dim, post, pre, dim, post)
        op = np.einsum(
            "kca,PcQReS,keb->PaQRbS", stack.conj(), tensor, stack, optimize=True
        ).reshape(total, total)
    return op


def _empty_mapping() -> Mapping:
    return {}


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-link and per-node channel assignment plus measurement readout error.

    ``link`` / ``node`` are the defaults applied to every network link
    (registers in transit) and every node (proof delivery / input
    preparation); ``links`` / ``nodes`` override them for specific edges and
    nodes.  Link lookup is symmetric in the edge orientation.  An *empty*
    model (:attr:`is_trivial`) leaves protocols on the pure-state engine
    path — including models whose channels have zero strength, which instead
    exercise the full density-matrix path and must reproduce the pure
    numbers (the zero-noise parity tests).

    >>> model = NoiseModel.depolarizing(0.05, dim=4, readout_error=0.01)
    >>> model.link_channel("u", "v").name
    'depolarizing'
    >>> model.is_trivial
    False
    >>> NoiseModel().is_trivial
    True
    """

    link: Optional[KrausChannel] = None
    node: Optional[KrausChannel] = None
    readout_error: float = 0.0
    links: Mapping[Tuple[Label, Label], KrausChannel] = field(
        default_factory=_empty_mapping
    )
    nodes: Mapping[Label, KrausChannel] = field(default_factory=_empty_mapping)

    def __post_init__(self) -> None:
        error = float(self.readout_error)
        if not 0.0 <= error <= 1.0:
            raise ChannelError(f"readout error must lie in [0, 1], got {error}")
        object.__setattr__(self, "readout_error", error)
        object.__setattr__(self, "links", dict(self.links))
        object.__setattr__(self, "nodes", dict(self.nodes))

    @property
    def is_trivial(self) -> bool:
        """True when the model assigns no channels and no readout error."""
        return (
            self.link is None
            and self.node is None
            and not self.links
            and not self.nodes
            and self.readout_error == 0.0
        )

    def link_channel(self, u: Label, v: Label) -> Optional[KrausChannel]:
        """The channel of the link ``{u, v}`` (override, else default, else ``None``)."""
        override = self.links.get((u, v))
        if override is None:
            override = self.links.get((v, u))
        return override if override is not None else self.link

    def node_channel(self, node: Label) -> Optional[KrausChannel]:
        """The channel of ``node`` (override, else default, else ``None``)."""
        override = self.nodes.get(node)
        return override if override is not None else self.node

    @property
    def key(self) -> Tuple:
        """Hashable value-level summary of the model, for metadata/labels.

        NOT suitable as a program-cache key: the same model lands
        differently on differently-labeled networks, so caches of compiled
        programs must key on the *derived* per-job annotation
        (:attr:`repro.engine.jobs.ChainNoise.key`) instead.
        """
        return (
            None if self.link is None else self.link.key,
            None if self.node is None else self.node.key,
            self.readout_error,
            tuple(sorted((str(e), c.key) for e, c in self.links.items())),
            tuple(sorted((str(n), c.key) for n, c in self.nodes.items())),
        )

    # -- common uniform models ------------------------------------------------

    @classmethod
    def uniform_link(
        cls, channel: KrausChannel, readout_error: float = 0.0
    ) -> "NoiseModel":
        """Every link carries ``channel``; nodes are noiseless."""
        return cls(link=channel, readout_error=readout_error)

    @classmethod
    def depolarizing(
        cls, p: float, dim: int, readout_error: float = 0.0
    ) -> "NoiseModel":
        """Uniform depolarizing links of strength ``p`` on ``dim``-dimensional registers."""
        return cls.uniform_link(depolarizing_channel(p, dim), readout_error)

    @classmethod
    def dephasing(cls, p: float, dim: int, readout_error: float = 0.0) -> "NoiseModel":
        """Uniform dephasing links of strength ``p``."""
        return cls.uniform_link(dephasing_channel(p, dim), readout_error)

    @classmethod
    def amplitude_damping(
        cls, gamma: float, dim: int, readout_error: float = 0.0
    ) -> "NoiseModel":
        """Uniform amplitude-damping links of rate ``gamma``."""
        return cls.uniform_link(amplitude_damping_channel(gamma, dim), readout_error)


#: Named channel families, for sweep configuration by string.
CHANNEL_FAMILIES = {
    "depolarizing": depolarizing_channel,
    "dephasing": dephasing_channel,
    "amplitude-damping": amplitude_damping_channel,
    "bit-flip": bit_flip_channel,
    "phase-flip": phase_flip_channel,
}


def channel_family(name: str):
    """Look up a channel constructor ``(strength, dim) -> KrausChannel`` by name.

    >>> channel_family("dephasing")(0.5, 2).name
    'dephasing'
    """
    try:
        return CHANNEL_FAMILIES[name]
    except KeyError:
        raise ChannelError(
            f"unknown channel family {name!r}; available: {sorted(CHANNEL_FAMILIES)}"
        ) from None
