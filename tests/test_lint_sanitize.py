"""The runtime sanitizer: cache guard, pickle probe, transfer budget."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.engine.array_ops import MockDeviceModule, NumpyModule
from repro.engine.cache import OperatorCache
from repro.experiments.launchers import SerialLauncher
from repro.experiments.sweep import submit_sweep_chunks
from repro.lint.sanitize import (
    SanitizerError,
    install,
    install_from_env,
    is_enabled,
    maybe_probe,
    probe_payload,
    transfer_budget,
    uninstall,
)


@pytest.fixture
def sanitizer():
    """Arm the sanitizer for one test and always disarm afterwards."""
    install()
    try:
        yield
    finally:
        uninstall()


def module_level_entry(x):
    return x


# -- install / uninstall -----------------------------------------------------


def test_install_uninstall_roundtrip_and_idempotence():
    original_get = OperatorCache.get
    assert not is_enabled()
    install()
    install()  # idempotent
    assert is_enabled()
    assert OperatorCache.get is not original_get
    uninstall()
    uninstall()  # idempotent
    assert not is_enabled()
    assert OperatorCache.get is original_get


def test_install_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert install_from_env() is False
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    try:
        assert install_from_env() is True
        assert is_enabled()
    finally:
        uninstall()


def _import_repro(sanitize, tmp_path):
    """``import repro`` in a fresh interpreter under ``REPRO_SANITIZE=sanitize``.

    Prints whether the linter package is loaded, then whether the guards are
    armed (which imports the sanitizer when it is not loaded yet).
    """
    import repro

    source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    env.pop("REPRO_SANITIZE", None)
    if sanitize is not None:
        env["REPRO_SANITIZE"] = sanitize
    code = (
        "import sys, repro\n"
        "print('repro.lint' in sys.modules)\n"
        "from repro.lint import sanitize\n"
        "print(sanitize.is_enabled())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )


class TestImportHook:
    """``import repro`` arms the guards only under a truthy ``REPRO_SANITIZE``."""

    def test_truthy_value_arms_the_guards(self, tmp_path):
        result = _import_repro("1", tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True"]

    def test_unset_variable_leaves_the_linter_unloaded(self, tmp_path):
        result = _import_repro(None, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "False"]

    def test_misspelt_value_raises_at_import(self, tmp_path):
        result = _import_repro("maybe", tmp_path)
        assert result.returncode != 0
        assert "ProtocolError" in result.stderr
        assert "REPRO_SANITIZE" in result.stderr


# -- frozen-cache guard ------------------------------------------------------


def test_cache_roundtrip_stays_functional_under_guard(sanitizer):
    cache = OperatorCache(max_entries=4)
    stored = cache.put("op", np.eye(2))
    assert not stored.flags.writeable
    hit = cache.get("op")
    assert hit is stored
    built = cache.get_or_build("other", lambda: np.ones((2, 2)))
    assert not built.flags.writeable
    with pytest.raises(ValueError):
        hit[0, 0] = 5.0  # frozen arrays still raise numpy's own error


def test_guard_catches_writeable_entry_smuggled_past_freeze(sanitizer):
    cache = OperatorCache(max_entries=4)
    # Bypass put()/_freeze the way a buggy future preload path might.
    cache._entries["op"] = np.eye(2)
    with pytest.raises(SanitizerError, match="writeable"):
        cache.get("op")


def test_guard_absent_without_install():
    cache = OperatorCache(max_entries=4)
    cache._entries["op"] = np.eye(2)
    hit = cache.get("op")  # no sanitizer: the invariant is not re-checked
    assert hit.flags.writeable


# -- pickle probe ------------------------------------------------------------


def test_probe_payload_accepts_module_level_callables():
    probe_payload((module_level_entry, ("table1", [1, 2])))


def test_probe_payload_rejects_lambdas_with_context():
    with pytest.raises(SanitizerError, match="scenario 'x'"):
        probe_payload((lambda: 1,), context="scenario 'x' chunk 0")


def test_maybe_probe_noop_when_disarmed():
    maybe_probe((lambda: 1,))  # would raise if the sanitizer were armed


def test_maybe_probe_active_when_armed(sanitizer):
    with pytest.raises(SanitizerError):
        maybe_probe((lambda: 1,))


def test_submit_sweep_chunks_probes_payloads(sanitizer):
    pool = SerialLauncher()
    try:
        with pytest.raises(SanitizerError, match="scenario 'table1' chunk 0"):
            submit_sweep_chunks(
                pool, "table1", [[1]], overrides={"bad": lambda: 1}
            )
    finally:
        pool.shutdown()


# -- transfer budget ---------------------------------------------------------


def test_transfer_budget_within_budget():
    xp = MockDeviceModule()
    with transfer_budget(xp, max_to_device=2, max_to_host=1) as device:
        moved = device.asarray(np.ones(4))
        device.to_numpy(moved)


def test_transfer_budget_exceeded_raises():
    xp = MockDeviceModule()
    with pytest.raises(SanitizerError, match="host->device"):
        with transfer_budget(xp, max_to_device=1):
            xp.asarray(np.ones(4))
            xp.asarray(np.zeros(4))


def test_transfer_budget_to_host_direction():
    xp = MockDeviceModule()
    with pytest.raises(SanitizerError, match="device->host"):
        with transfer_budget(xp, max_to_host=0):
            moved = xp.asarray(np.ones(4))
            xp.to_numpy(moved)


def test_transfer_budget_requires_counting_module():
    with pytest.raises(SanitizerError, match="transfer counters"):
        with transfer_budget(NumpyModule(), max_to_device=1):
            pass
