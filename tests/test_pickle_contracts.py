"""Registry-driven pickling contracts: the picklable-entry-points rule's runtime twin.

Every dispatch path ships three kinds of objects across process boundaries:
the scenario's ``SweepSpec`` (inside the registered :class:`Scenario`), the
chunk payload handed to ``submit_chunk``, and the launcher's reply
(:class:`ChunkResult`).  Each must survive ``pickle`` *byte-identically* —
``dumps(loads(data)) == data`` — which is the property the subprocess
launcher's digest checks and the paper-parity CI smokes rely on: a payload
that mutates in transit cannot produce rows byte-identical to a serial run.
"""

import pickle

import pytest

from repro.experiments.launchers import SerialLauncher
from repro.experiments.runner import available_scenarios, get_scenario
from repro.experiments.sweep import (
    ChunkResult,
    run_scenario_task,
    run_sweep_chunk,
    submit_sweep_chunks,
)

#: Scenarios cheap enough to evaluate one real chunk for the reply check;
#: spec and payload contracts below still cover the whole registry.
REPLY_SCENARIOS = ("table1", "noise-robustness-path")


def assert_byte_identical_roundtrip(obj, what):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    clone = pickle.loads(data)
    redumped = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
    assert redumped == data, f"{what} does not pickle-round-trip byte-identically"
    return clone


def test_registry_is_populated():
    assert len(available_scenarios()) >= 20


@pytest.mark.parametrize("name", available_scenarios())
def test_sweep_spec_roundtrips_byte_identically(name):
    scenario = get_scenario(name)
    if scenario.sweep is None:
        pytest.skip(f"scenario {name!r} declares no sweep")
    clone = assert_byte_identical_roundtrip(scenario.sweep, f"{name} SweepSpec")
    assert clone.grid_param == scenario.sweep.grid_param
    assert clone.chunk_size == scenario.sweep.chunk_size


@pytest.mark.parametrize("name", available_scenarios())
def test_chunk_payload_roundtrips_byte_identically(name):
    scenario = get_scenario(name)
    if scenario.sweep is None:
        # Unswept scenarios dispatch as whole-scenario tasks.
        payload = (run_scenario_task, name, dict(scenario.kwargs) or None)
    else:
        points = scenario.grid_points()
        assert points, f"swept scenario {name!r} produced an empty grid"
        payload = (run_sweep_chunk, name, points[:2], None, None)
    assert_byte_identical_roundtrip(payload, f"{name} chunk payload")


@pytest.mark.parametrize("name", REPLY_SCENARIOS)
def test_launcher_reply_roundtrips_byte_identically(name):
    scenario = get_scenario(name)
    points = scenario.grid_points()
    pool = SerialLauncher()
    try:
        tasks = submit_sweep_chunks(pool, name, [points[:1]])
        reply = tasks[0].future.result()
    finally:
        pool.shutdown()
    assert isinstance(reply, ChunkResult)
    clone = assert_byte_identical_roundtrip(reply, f"{name} launcher reply")
    assert len(clone.rows) == len(reply.rows)
