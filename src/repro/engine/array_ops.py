"""Array-namespace abstraction: one kernel code path, many device backends.

The batched contractions of :mod:`repro.engine.kernels` are written against a
small :class:`ArrayModule` interface — ``asarray`` / ``einsum`` / ``matmul`` /
``stack`` / ``conj`` / ``to_numpy`` plus a handful of elementwise helpers —
instead of the ``numpy`` module object.  Any array namespace implementing the
interface can execute them:

:class:`NumpyModule`
    The default: every call delegates straight to numpy, ``asarray`` /
    ``to_numpy`` are free (no transfer), and einsum accepts precomputed
    contraction paths.

:class:`TorchModule`
    Adapter over ``torch``, registered only when the library is importable
    (checked without importing — the import itself is deferred to first
    use).  ``asarray`` moves host operands to the configured device
    (``REPRO_DEVICE``, e.g. ``cuda`` / ``cuda:1``), ``to_numpy`` brings
    results back.

:class:`MockDeviceModule`
    A numpy wrapper that *counts* host<->device transfers (and their bytes),
    so the adapter plumbing — operands moved to the device once per
    contraction group, results pulled back a constant number of times — is
    fully testable on machines without a GPU.  Device-resident values are
    tagged with the :class:`MockDeviceArray` view subclass.

The module registry mirrors the backend registry of
:mod:`repro.engine.backends`: modules are selected by name
(``get_array_module``), and the dtype policy lives next to it —
``resolve_dtype`` reads ``REPRO_DTYPE`` (``complex128`` by default, with a
``complex64`` fast path), and :func:`parity_tolerance` is the tolerance
schedule the parity tests enforce per dtype.

Host-side ownership: operator caches and operator packs always store plain
frozen numpy arrays.  :func:`to_host` is the single conversion point — it
accepts arrays from any registered namespace (torch tensors, mock device
arrays) and returns the host ``np.ndarray``.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import ProtocolError
from repro.utils.env import env_str

#: Environment variable selecting the device of device-capable modules
#: (e.g. ``cuda`` / ``cuda:1`` / ``cpu`` for the torch adapter).
DEVICE_ENV_VAR = "REPRO_DEVICE"

#: Environment variable selecting the contraction dtype (``complex128``
#: default; ``complex64`` enables the fast path).
DTYPE_ENV_VAR = "REPRO_DTYPE"

_DTYPE_ALIASES = {
    "complex64": np.complex64,
    "c64": np.complex64,
    "single": np.complex64,
    "complex128": np.complex128,
    "c128": np.complex128,
    "double": np.complex128,
}

#: Parity tolerance schedule versus the dense complex128 reference, enforced
#: by the device-kernel parity tests (``tests/test_device_kernels.py``).
DTYPE_TOLERANCES = {
    np.dtype(np.complex128): 1e-9,
    np.dtype(np.complex64): 1e-5,
}


def resolve_dtype(dtype: Union[str, np.dtype, type, None] = None) -> np.dtype:
    """The contraction dtype: explicit argument > ``REPRO_DTYPE`` > complex128."""
    if dtype is None:
        dtype = env_str(DTYPE_ENV_VAR, "complex128")
    if isinstance(dtype, str):
        try:
            dtype = _DTYPE_ALIASES[dtype.strip().lower()]
        except KeyError:
            raise ProtocolError(
                f"unknown contraction dtype {dtype!r}; "
                f"choose from {sorted(set(_DTYPE_ALIASES))}"
            ) from None
    resolved = np.dtype(dtype)
    if resolved not in DTYPE_TOLERANCES:
        raise ProtocolError(
            f"contraction dtype must be complex64 or complex128, got {resolved}"
        )
    return resolved


def parity_tolerance(dtype: Union[np.dtype, type, None] = None) -> float:
    """Absolute tolerance versus the dense complex128 reference for ``dtype``."""
    return DTYPE_TOLERANCES[resolve_dtype(dtype)]


def to_host(value: Any) -> Any:
    """Convert a device-resident array to the host ``np.ndarray`` it mirrors.

    Plain numpy arrays (and non-array values) pass through untouched; a
    :class:`MockDeviceArray` is re-viewed as a base ndarray; torch tensors
    are copied off their device.  This is the conversion the operator cache
    applies on insert, so cached operators and exported operator packs
    always hold host-side numpy arrays regardless of which backend built
    them.
    """
    if isinstance(value, np.ndarray):
        if type(value) is np.ndarray:
            return value
        return np.asarray(value).view(np.ndarray)
    # torch.Tensor: detach from autograd and leave the device.
    if hasattr(value, "detach") and hasattr(value, "cpu"):
        return value.detach().cpu().numpy()
    return value


class ArrayModule:
    """The namespace interface the device-agnostic kernels are written to.

    Implementations provide:

    ``name`` / ``device``
        Registry name and a human-readable device description (recorded in
        benchmark metadata).
    ``asarray(value, dtype=None)``
        Host value -> module array, moving it to the device if there is one.
        Passing an array already owned by the module must not re-transfer it.
    ``to_numpy(value)``
        Module array -> host ``np.ndarray`` (the reverse transfer).
    ``einsum`` / ``matmul`` / ``stack`` / ``conj`` / ``abs`` / ``real`` /
    ``transpose(a, axes)`` / ``astype(a, dtype)``
        The contraction vocabulary, numpy-call-compatible.
    ``supports_einsum_path``
        Whether ``einsum`` accepts numpy-style ``optimize=<path>`` arguments
        (used by the per-signature einsum-path cache in
        :mod:`repro.engine.kernels`).
    """

    name = ""
    device = "cpu"
    supports_einsum_path = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


class NumpyModule(ArrayModule):
    """The default array module: plain numpy, no transfers."""

    name = "numpy"
    device = "cpu"
    supports_einsum_path = True

    def asarray(self, value: Any, dtype: Any = None) -> Any:
        return np.asarray(value, dtype=dtype)

    def to_numpy(self, value: Any) -> np.ndarray:
        return np.asarray(value)

    def einsum(self, equation: str, *operands: Any, **kwargs: Any) -> Any:
        return np.einsum(equation, *operands, **kwargs)

    def matmul(self, a: Any, b: Any) -> Any:
        return np.matmul(a, b)

    def stack(self, arrays: Any, axis: int = 0) -> Any:
        return np.stack(arrays, axis=axis)

    def conj(self, a: Any) -> Any:
        return np.conj(a)

    def abs(self, a: Any) -> Any:
        return np.abs(a)

    def real(self, a: Any) -> Any:
        return np.real(a)

    def transpose(self, a: Any, axes: Any) -> Any:
        return np.transpose(a, axes)

    def astype(self, a: Any, dtype: Any) -> Any:
        return np.asarray(a).astype(dtype, copy=False)


class MockDeviceArray(np.ndarray):
    """View subclass tagging arrays as resident on the mock device."""


class MockDeviceModule(NumpyModule):
    """Numpy in device clothing: counts every host<->device transfer.

    ``asarray`` of a host array increments ``to_device_transfers`` (and adds
    its bytes to ``bytes_to_device``); ``to_numpy`` of a device-tagged array
    increments ``to_host_transfers``.  Re-wrapping an array that is already
    on the "device" is free, exactly like a real accelerator module.  The
    counters make "operands move to the device once per contraction group"
    an assertable property instead of a code-review hope.
    """

    name = "mock"
    device = "mock-device"

    def __init__(self):
        self.reset_transfer_counts()

    def reset_transfer_counts(self) -> None:
        self.to_device_transfers = 0
        self.to_host_transfers = 0
        self.bytes_to_device = 0
        self.bytes_to_host = 0

    def asarray(self, value: Any, dtype: Any = None) -> Any:
        if isinstance(value, MockDeviceArray):
            if dtype is not None and value.dtype != np.dtype(dtype):
                value = value.astype(dtype)
            return value
        array = np.asarray(value, dtype=dtype)
        self.to_device_transfers += 1
        self.bytes_to_device += array.nbytes
        return array.view(MockDeviceArray)

    def to_numpy(self, value: Any) -> np.ndarray:
        if isinstance(value, MockDeviceArray):
            self.to_host_transfers += 1
            self.bytes_to_host += value.nbytes
        return np.asarray(value).view(np.ndarray)


#: numpy dtype -> torch dtype names, resolved lazily against the torch module.
_TORCH_DTYPE_NAMES = {
    np.dtype(np.complex64): "complex64",
    np.dtype(np.complex128): "complex128",
    np.dtype(np.float32): "float32",
    np.dtype(np.float64): "float64",
    np.dtype(np.int64): "int64",
}


class TorchModule(ArrayModule):
    """Adapter over ``torch``; device selected by ``REPRO_DEVICE`` (cpu default)."""

    name = "torch"
    supports_einsum_path = False

    def __init__(self, device: Optional[str] = None):
        try:
            import torch
        except ImportError as error:  # pragma: no cover - registration is gated
            raise ProtocolError(
                "the 'torch' array module requires torch to be installed"
            ) from error
        self.torch = torch
        self.device = device or env_str(DEVICE_ENV_VAR, "cpu")

    def _dtype(self, dtype: Any) -> Any:
        if dtype is None:
            return None
        return getattr(self.torch, _TORCH_DTYPE_NAMES[np.dtype(dtype)])

    def asarray(self, value: Any, dtype: Any = None) -> Any:
        if isinstance(value, self.torch.Tensor):
            return value.to(device=self.device, dtype=self._dtype(dtype))
        if not isinstance(value, np.ndarray):
            value = np.asarray(value)
        tensor = self.torch.as_tensor(np.ascontiguousarray(value))
        return tensor.to(device=self.device, dtype=self._dtype(dtype))

    def to_numpy(self, value: Any) -> np.ndarray:
        if isinstance(value, self.torch.Tensor):
            return value.detach().cpu().numpy()
        return np.asarray(value)

    def einsum(self, equation: str, *operands: Any, **kwargs: Any) -> Any:
        # torch.einsum takes no optimize argument; paths are internal.
        return self.torch.einsum(equation, *operands)

    def matmul(self, a: Any, b: Any) -> Any:
        return self.torch.matmul(a, b)

    def stack(self, arrays: Any, axis: int = 0) -> Any:
        return self.torch.stack(list(arrays), dim=axis)

    def conj(self, a: Any) -> Any:
        # resolve_conj so downstream .numpy() never sees a lazy conj view
        return self.torch.conj(a).resolve_conj()

    def abs(self, a: Any) -> Any:
        return self.torch.abs(a)

    def real(self, a: Any) -> Any:
        return self.torch.real(a) if a.is_complex() else a

    def transpose(self, a: Any, axes: Any) -> Any:
        return a.permute(*axes)

    def astype(self, a: Any, dtype: Any) -> Any:
        return a.to(dtype=self._dtype(dtype))


_MODULES: Dict[str, Callable[[Optional[str]], ArrayModule]] = {}

_numpy_module = NumpyModule()


def register_array_module(
    name: str, factory: Callable[[Optional[str]], ArrayModule]
) -> None:
    """Register an array-module factory (``factory(device) -> ArrayModule``)."""
    if not name:
        raise ProtocolError("array modules must register under a non-empty name")
    _MODULES[name] = factory


def available_array_modules() -> List[str]:
    """Names of every registered array module."""
    return sorted(_MODULES)


def module_available(library: str) -> bool:
    """Whether ``library`` is importable (checked without importing it)."""
    try:
        return importlib.util.find_spec(library) is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


def get_array_module(
    module: Union[str, ArrayModule, None] = None, device: Optional[str] = None
) -> ArrayModule:
    """Resolve an array module from a name, an instance, or ``None`` (numpy).

    ``"numpy"`` returns a shared stateless instance; stateful modules (the
    transfer-counting mock, device-bound adapters) are built fresh per call
    so each backend owns its own counters/device binding.
    """
    if module is None:
        module = "numpy"
    if isinstance(module, ArrayModule):
        return module
    if module == "numpy" and device is None:
        return _numpy_module
    try:
        factory = _MODULES[module]
    except KeyError:
        raise ProtocolError(
            f"unknown array module {module!r}; available: {available_array_modules()}"
        ) from None
    return factory(device)


register_array_module("numpy", lambda device=None: NumpyModule())
register_array_module("mock", lambda device=None: MockDeviceModule())
if module_available("torch"):
    register_array_module("torch", lambda device=None: TorchModule(device))
