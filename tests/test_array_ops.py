"""Tests of the array-module layer: registry, dtype policy, transfer counting.

The :mod:`repro.engine.array_ops` module is the seam the device-agnostic
kernels are written against.  These tests pin its contracts without any
accelerator present: the registry resolves names (and rejects unknown ones),
the dtype policy resolves aliases and environment overrides, the mock device
counts host<->device transfers the way a real adapter moves bytes, and
``to_host`` plus the operator cache keep cached operators host-side numpy no
matter which module produced them.
"""

import numpy as np
import pytest

from repro.engine.array_ops import (
    DTYPE_TOLERANCES,
    MockDeviceArray,
    MockDeviceModule,
    NumpyModule,
    available_array_modules,
    get_array_module,
    module_available,
    parity_tolerance,
    register_array_module,
    resolve_dtype,
    to_host,
)
from repro.engine.cache import OperatorCache
from repro.engine.kernels import (
    cached_einsum,
    clear_einsum_path_cache,
    einsum_path_cache_info,
)
from repro.exceptions import ProtocolError


class TestRegistry:
    def test_default_is_numpy(self):
        module = get_array_module()
        assert module.name == "numpy"
        assert module.device == "cpu"

    def test_numpy_default_is_shared_instance(self):
        assert get_array_module() is get_array_module("numpy")

    def test_instances_pass_through(self):
        module = MockDeviceModule()
        assert get_array_module(module) is module

    def test_mock_instances_are_fresh_per_call(self):
        # Stateful modules own their counters; two backends must not share.
        assert get_array_module("mock") is not get_array_module("mock")

    def test_unknown_module_rejected(self):
        with pytest.raises(ProtocolError, match="unknown array module"):
            get_array_module("no-such-device")

    def test_builtin_modules_listed(self):
        names = available_array_modules()
        assert "numpy" in names
        assert "mock" in names

    def test_optional_modules_listed_only_when_importable(self):
        names = available_array_modules()
        assert ("torch" in names) == module_available("torch")

    def test_register_custom_module(self):
        class _Custom(NumpyModule):
            name = "custom-test-module"

        register_array_module("custom-test-module", lambda device=None: _Custom())
        try:
            assert get_array_module("custom-test-module").name == "custom-test-module"
        finally:
            from repro.engine import array_ops

            array_ops._MODULES.pop("custom-test-module", None)

    def test_module_available_false_for_nonsense(self):
        assert not module_available("definitely_not_a_real_library_xyz")


class TestDtypePolicy:
    def test_default_is_complex128(self):
        assert resolve_dtype() == np.dtype(np.complex128)

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("complex64", np.complex64),
            ("c64", np.complex64),
            ("single", np.complex64),
            ("complex128", np.complex128),
            ("c128", np.complex128),
            ("double", np.complex128),
        ],
    )
    def test_aliases(self, alias, expected):
        assert resolve_dtype(alias) == np.dtype(expected)

    def test_numpy_dtypes_pass_through(self):
        assert resolve_dtype(np.complex64) == np.dtype(np.complex64)

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "complex64")
        assert resolve_dtype() == np.dtype(np.complex64)

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "complex64")
        assert resolve_dtype("complex128") == np.dtype(np.complex128)

    def test_unknown_alias_rejected(self):
        with pytest.raises(ProtocolError, match="unknown contraction dtype"):
            resolve_dtype("float16")

    def test_non_complex_dtype_rejected(self):
        with pytest.raises(ProtocolError, match="complex64 or complex128"):
            resolve_dtype(np.float64)

    def test_tolerance_schedule(self):
        assert parity_tolerance("complex128") == DTYPE_TOLERANCES[np.dtype(np.complex128)]
        assert parity_tolerance("complex64") == DTYPE_TOLERANCES[np.dtype(np.complex64)]
        assert parity_tolerance("complex64") > parity_tolerance("complex128")
        assert parity_tolerance("complex128") <= 1e-9
        assert parity_tolerance("complex64") <= 1e-5


class TestMockDeviceModule:
    def test_asarray_counts_one_transfer(self):
        module = MockDeviceModule()
        host = np.ones((4, 4), dtype=np.complex128)
        device = module.asarray(host)
        assert isinstance(device, MockDeviceArray)
        assert module.to_device_transfers == 1
        assert module.bytes_to_device == host.nbytes

    def test_rewrapping_device_array_is_free(self):
        module = MockDeviceModule()
        device = module.asarray(np.ones(3))
        module.asarray(device)
        module.asarray(device)
        assert module.to_device_transfers == 1

    def test_to_numpy_counts_host_transfer(self):
        module = MockDeviceModule()
        device = module.asarray(np.ones(3))
        host = module.to_numpy(device)
        assert type(host) is np.ndarray
        assert module.to_host_transfers == 1
        assert module.bytes_to_host == device.nbytes

    def test_to_numpy_of_host_array_is_free(self):
        module = MockDeviceModule()
        module.to_numpy(np.ones(3))
        assert module.to_host_transfers == 0

    def test_reset(self):
        module = MockDeviceModule()
        module.asarray(np.ones(3))
        module.reset_transfer_counts()
        assert module.to_device_transfers == 0
        assert module.bytes_to_device == 0

    def test_device_results_match_numpy(self):
        module = MockDeviceModule()
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        device = module.asarray(a)
        product = module.matmul(module.conj(device), module.transpose(device, (0, 2, 1)))
        np.testing.assert_allclose(
            module.to_numpy(product),
            np.matmul(a.conj(), a.transpose(0, 2, 1)),
            atol=1e-12,
        )


class TestToHost:
    def test_plain_ndarray_passes_through(self):
        array = np.ones(3)
        assert to_host(array) is array

    def test_mock_device_array_reviewed_as_base(self):
        device = MockDeviceModule().asarray(np.ones(3))
        host = to_host(device)
        assert type(host) is np.ndarray
        np.testing.assert_array_equal(host, np.ones(3))

    def test_non_arrays_pass_through(self):
        assert to_host(42) == 42
        assert to_host("text") == "text"

    def test_cache_freezes_host_side_copies(self):
        # OperatorCache routes inserts through to_host: a device-built
        # operator is stored as a frozen, host-side, plain numpy array.
        module = MockDeviceModule()
        cache = OperatorCache()
        device = module.asarray(np.eye(2, dtype=np.complex128))
        cached = cache.get_or_build("device-op", lambda: device)
        assert type(cached) is np.ndarray
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, np.eye(2))


class TestEinsumPathCache:
    def test_paths_cached_per_signature(self):
        clear_einsum_path_cache()
        xp = get_array_module("numpy")
        a = np.ones((4, 2, 3, 3), dtype=np.complex128)
        b = np.ones((4, 2, 3, 3), dtype=np.complex128)
        cached_einsum(xp, "bkij,bkji->bk", a, b)
        first = einsum_path_cache_info()
        cached_einsum(xp, "bkij,bkji->bk", a, b)
        second = einsum_path_cache_info()
        assert first["misses"] == 1
        assert second["hits"] == first["hits"] + 1
        assert second["entries"] == first["entries"]

    def test_new_shape_is_new_entry(self):
        clear_einsum_path_cache()
        xp = get_array_module("numpy")
        a = np.ones((4, 2, 3, 3), dtype=np.complex128)
        cached_einsum(xp, "bkij,bkji->bk", a, a)
        wider = np.ones((9, 2, 3, 3), dtype=np.complex128)
        cached_einsum(xp, "bkij,bkji->bk", wider, wider)
        assert einsum_path_cache_info()["entries"] == 2

    def test_three_operand_path_matches_direct_einsum(self):
        clear_einsum_path_cache()
        xp = get_array_module("numpy")
        rng = np.random.default_rng(3)
        states = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        operators = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        result = cached_einsum(xp, "bi,bij,bj->b", states.conj(), operators, states)
        np.testing.assert_allclose(
            result,
            np.einsum("bi,bij,bj->b", states.conj(), operators, states),
            atol=1e-12,
        )

    def test_values_match_plain_einsum(self):
        clear_einsum_path_cache()
        xp = get_array_module("numpy")
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3, 4, 4)) + 1j * rng.standard_normal((7, 3, 4, 4))
        b = rng.standard_normal((7, 3, 4, 4)) + 1j * rng.standard_normal((7, 3, 4, 4))
        np.testing.assert_allclose(
            cached_einsum(xp, "bkij,bkji->bk", a, b),
            np.einsum("bkij,bkji->bk", a, b),
            atol=1e-12,
        )
