"""Tests for the sweep job service: wire protocol, job states, journal, parity.

Each test spins a real :class:`SweepService` on an ephemeral loopback port
inside ``asyncio.run`` and drives it with the blocking :class:`SweepClient`
from a worker thread (``asyncio.to_thread``), so the client exercises the
actual TCP protocol rather than calling the server's methods directly.

Builders live at module level so forked pool workers could resolve them;
the service tests stick to in-process launchers (``serial``/``threads``) to
stay fast — cross-backend row parity is pinned by the launcher matrix in
``test_launchers.py`` and by ``tools/service_smoke.py`` in CI.
"""

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import register_scenario, run_scenario
from repro.experiments.sweep import SweepSpec
from repro.service import (
    JOB_STATES,
    TERMINAL_STATES,
    JobJournal,
    JobRecord,
    SweepClient,
    SweepService,
    row_from_dict,
    row_to_dict,
)
from repro.service.client import main as submit_main
from repro.service.client import rows_from_results
from repro.service.jobs import scenario_result_payload
from repro.service.server import main as serve_main


def _poison_grid():
    return ["a", "b", "poison", "c"]


def _poisoned_sweep(values=None):
    resolved = list(values) if values is not None else _poison_grid()
    rows = []
    for value in resolved:
        if value == "poison":
            raise RuntimeError(f"poisoned point {value!r}")
        rows.append(ExperimentRow("poisoned", value, {"value": value}))
    return rows


def _slow_grid():
    return list(range(8))


def _slow_sweep(points=None):
    resolved = list(points) if points is not None else _slow_grid()
    rows = []
    for value in resolved:
        time.sleep(0.2)
        rows.append(ExperimentRow("slow", f"point-{value}", {"value": value}))
    return rows


def _unregister(*names):
    from repro.experiments import runner as runner_module

    for name in names:
        runner_module._REGISTRY.pop(name, None)


@pytest.fixture()
def poisoned_scenario():
    register_scenario(
        "service-poisoned",
        _poisoned_sweep,
        title="Poisoned sweep",
        sweep=SweepSpec("values", _poison_grid, chunk_size=1),
    )
    try:
        yield "service-poisoned"
    finally:
        _unregister("service-poisoned")


@pytest.fixture()
def slow_scenario():
    register_scenario(
        "service-slow",
        _slow_sweep,
        title="Slow sweep",
        sweep=SweepSpec("points", _slow_grid, chunk_size=1),
    )
    try:
        yield "service-slow"
    finally:
        _unregister("service-slow")


def _with_service(client_work, **service_kwargs):
    """Start a service on an ephemeral port, run ``client_work(host, port)``
    in a thread against it, tear everything down; returns the work's result."""
    service_kwargs.setdefault("launcher", "serial")
    holder = {}

    async def amain():
        service = SweepService(port=0, **service_kwargs)
        host, port = await service.start()
        server_task = asyncio.get_running_loop().create_task(service.serve_forever())
        try:
            holder["result"] = await asyncio.to_thread(client_work, host, port)
        finally:
            server_task.cancel()
            try:
                await server_task
            except asyncio.CancelledError:
                pass
            await service.stop()
        holder["service"] = service

    asyncio.run(amain())
    return holder


class TestWireSerialization:
    def test_row_round_trip_is_exact(self):
        row = ExperimentRow(
            "exp", "label", {"f": 0.1 + 0.2, "i": 3, "s": "x", "b": True}
        )
        assert row_from_dict(json.loads(json.dumps(row_to_dict(row)))) == row

    def test_numpy_scalars_unwrap_to_equal_python_values(self):
        row = ExperimentRow(
            "exp",
            "label",
            {"f": np.float64(0.75), "i": np.int64(7), "b": np.bool_(True)},
        )
        payload = json.loads(json.dumps(row_to_dict(row)))
        assert payload["values"] == {"f": 0.75, "i": 7, "b": True}
        assert row_from_dict(payload) == row

    def test_scenario_result_payload_statuses(self, poisoned_scenario):
        rows = run_scenario("table1-measured")
        ok = scenario_result_payload("table1-measured", rows)
        assert ok["status"] == "ok" and len(ok["rows"]) == len(rows)
        from repro.experiments.runner import (
            PartialScenarioResult,
            ScenarioFailure,
        )

        partial = scenario_result_payload(
            "p", PartialScenarioResult("p", rows[:1], failures=())
        )
        assert partial["status"] == "partial" and len(partial["rows"]) == 1
        failed = scenario_result_payload("f", ScenarioFailure("f", "boom"))
        assert failed["status"] == "failed" and failed["error"] == "boom"


class TestJobPlumbing:
    def test_job_record_terminal_states(self):
        job = JobRecord(job_id="j", scenarios=["table1"])
        assert job.state == "queued" and not job.terminal
        for state in TERMINAL_STATES:
            job.state = state
            assert job.terminal
        assert set(TERMINAL_STATES) < set(JOB_STATES)

    def test_journal_round_trip_skips_junk(self, tmp_path):
        path = tmp_path / "nested" / "journal.jsonl"
        journal = JobJournal(str(path))
        journal.record({"type": "state", "state": "queued"})
        journal.record({"type": "chunk", "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n\n")
        entries = JobJournal.read(str(path))
        assert [entry["type"] for entry in entries] == ["state", "chunk"]
        assert all("ts" in entry for entry in entries)

    def test_journal_disabled_without_path(self):
        JobJournal(None).record({"type": "state"})  # must not raise


class TestServiceEndToEnd:
    @pytest.mark.parametrize("launcher", ["serial", "threads"])
    def test_submitted_rows_match_direct_run(self, launcher):
        def work(host, port):
            client = SweepClient(host, port)
            return client.run(["table1"], launcher=launcher)

        final = _with_service(work)["result"]
        job = final["job"]
        assert job["state"] == "done"
        assert job["chunks_completed"] == job["chunks_total"] > 0
        assert rows_from_results(final["results"]) == {
            "table1": run_scenario("table1")
        }
        assert "Table 1" in final["render"]

    def test_overrides_reach_the_builders(self):
        strengths = (0.0, 0.1)

        def work(host, port):
            client = SweepClient(host, port)
            return client.run(
                ["noise-robustness-path"],
                overrides={"noise-robustness-path": {"strengths": strengths}},
            )

        final = _with_service(work)["result"]
        assert final["job"]["state"] == "done"
        assert rows_from_results(final["results"]) == {
            "noise-robustness-path": run_scenario(
                "noise-robustness-path", strengths=strengths
            )
        }

    def test_chunk_events_stream_before_the_terminal_line(self):
        def work(host, port):
            client = SweepClient(host, port)
            return list(client.submit_and_watch(["table1"]))

        events = _with_service(work)["result"]
        kinds = [event["type"] for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "job"
        chunk_events = [event for event in events if event["type"] == "chunk"]
        assert chunk_events
        assert all(event["ok"] for event in chunk_events)
        assert [event["completed"] for event in chunk_events] == list(
            range(1, len(chunk_events) + 1)
        )

    def test_partial_job_keeps_surviving_rows(self, poisoned_scenario):
        def work(host, port):
            client = SweepClient(host, port)
            return client.run([poisoned_scenario])

        final = _with_service(work)["result"]
        job = final["job"]
        assert job["state"] == "partial"
        assert job["failed_scenarios"] == [poisoned_scenario]
        (entry,) = final["results"]
        assert entry["status"] == "partial"
        assert [row["label"] for row in entry["rows"]] == ["a", "b", "c"]
        assert len(entry["failures"]) == 1
        assert "RuntimeError: poisoned point" in entry["failures"][0]

    def test_fail_fast_job_fails(self, poisoned_scenario):
        def work(host, port):
            client = SweepClient(host, port)
            return client.run([poisoned_scenario], fail_fast=True)

        final = _with_service(work)["result"]
        assert final["job"]["state"] == "failed"
        assert "poisoned point" in final["job"]["error"]

    def test_cancel_mid_run(self, slow_scenario):
        def work(host, port):
            client = SweepClient(host, port)
            final = {}
            cancelled = None
            for event in client.submit_and_watch([slow_scenario], launcher="threads"):
                if event["type"] == "chunk" and cancelled is None:
                    cancelled = client.cancel(event["job_id"])
                elif event["type"] == "job":
                    final = event
            return cancelled, final

        cancelled, final = _with_service(work, max_workers=2)["result"]
        assert cancelled is True
        job = final["job"]
        assert job["state"] == "cancelled"
        assert job["chunks_completed"] < len(_slow_grid())

    def test_status_jobs_late_watch_and_cancel_after_terminal(self):
        def work(host, port):
            client = SweepClient(host, port)
            job_id = client.run(["table1-measured"])["job"]["job_id"]
            status = client.status(job_id)
            late = list(client.watch(job_id))
            return job_id, status, late, client.cancel(job_id), client.jobs()

        job_id, status, late, cancelled, jobs = _with_service(work)["result"]
        assert status["state"] == "done"
        # A terminal job replays only its final payload to late watchers.
        assert [event["type"] for event in late] == ["job"]
        assert late[0]["job"]["job_id"] == job_id
        assert cancelled is False
        assert [job["job_id"] for job in jobs] == [job_id]

    def test_bad_submissions_are_rejected_before_a_job_exists(self):
        def work(host, port):
            client = SweepClient(host, port)
            errors = {}
            for key, kwargs in {
                "scenario": {"scenarios": ["no-such-scenario"]},
                "launcher": {"scenarios": ["table1"], "launcher": "bogus"},
                "override": {
                    "scenarios": ["table1"],
                    "overrides": {"no-such-scenario": {}},
                },
                "keyword": {"scenarios": ["table1"], "overrides": {"table1": {"bogus": 1}}},
                "empty": {"scenarios": []},
            }.items():
                with pytest.raises(ProtocolError) as excinfo:
                    client.submit(**kwargs)
                errors[key] = str(excinfo.value)
            with pytest.raises(ProtocolError, match="unknown job"):
                client.status("job-404")
            assert client.jobs() == []
            return errors

        errors = _with_service(work)["result"]
        assert "unknown experiment scenario" in errors["scenario"]
        assert "unknown launcher" in errors["launcher"]
        assert "unknown experiment scenario" in errors["override"]
        assert "bogus" in errors["keyword"]
        assert "at least one scenario" in errors["empty"]

    def test_malformed_requests_get_error_replies(self):
        def work(host, port):
            replies = []
            for raw in (b"this is not json\n", b'{"op": "bogus"}\n'):
                with socket.create_connection((host, port), timeout=10) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(raw)
                    stream.flush()
                    replies.append(json.loads(stream.readline()))
            return replies

        bad_json, bad_op = _with_service(work)["result"]
        assert bad_json["type"] == "error" and "bad request" in bad_json["error"]
        assert bad_op["type"] == "error" and "unknown op" in bad_op["error"]

    def test_ping_reports_registered_launchers(self):
        def work(host, port):
            return SweepClient(host, port).ping()

        reply = _with_service(work)["result"]
        assert reply["type"] == "pong"
        assert set(reply["launchers"]) >= {"serial", "process-pool"}

    def test_journal_records_the_job_lifecycle(self, tmp_path):
        path = tmp_path / "journal.jsonl"

        def work(host, port):
            return SweepClient(host, port).run(["table1-measured"])

        _with_service(work, journal_path=str(path))
        entries = JobJournal.read(str(path))
        states = [
            entry["state"] for entry in entries if entry["type"] == "state"
        ]
        assert states == ["queued", "running", "done"]
        assert any(entry["type"] == "chunk" for entry in entries)
        service_events = [
            entry["event"] for entry in entries if entry["type"] == "service"
        ]
        assert service_events == ["started", "stopped"]


class TestServiceCli:
    def test_repro_submit_end_to_end(self, tmp_path, capsys):
        dump = tmp_path / "final.json"

        def work(host, port):
            return submit_main(
                [
                    "table1",
                    "--host",
                    host,
                    "--port",
                    str(port),
                    "--launcher",
                    "serial",
                    "--json",
                    str(dump),
                ]
            )

        exit_code = _with_service(work)["result"]
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "submitted job-" in captured.err
        assert "chunk" in captured.err  # progress lines stream to stderr
        final = json.loads(dump.read_text(encoding="utf-8"))
        assert rows_from_results(final["results"]) == {
            "table1": run_scenario("table1")
        }

    def test_repro_submit_exit_codes_follow_job_state(self, poisoned_scenario):
        def work(host, port):
            args = ["--host", host, "--port", str(port), "--quiet"]
            return (
                submit_main([poisoned_scenario] + args),
                submit_main(["table1-measured"] + args),
            )

        partial_code, done_code = _with_service(work)["result"]
        assert partial_code == 1
        assert done_code == 0

    def test_repro_submit_no_watch_prints_the_job_id(self, capsys):
        def work(host, port):
            return submit_main(
                ["table1-measured", "--host", host, "--port", str(port), "--no-watch"]
            )

        assert _with_service(work)["result"] == 0
        assert capsys.readouterr().out.strip().startswith("job-")

    def test_repro_submit_usage_errors(self, capsys):
        assert submit_main(["table1", "--overrides", "{not json"]) == 2
        assert submit_main(["table1", "--overrides", "[1]"]) == 2
        assert submit_main(["table1", "--launcher", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bad --overrides JSON" in err
        assert "unknown launcher" in err

    def test_repro_submit_unreachable_server(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        exit_code = submit_main(
            ["table1", "--port", str(free_port), "--quiet"]
        )
        assert exit_code == 2
        assert "cannot reach sweep service" in capsys.readouterr().err

    def test_repro_serve_rejects_unknown_launcher(self, capsys):
        assert serve_main(["--launcher", "bogus"]) == 2
        assert "unknown launcher" in capsys.readouterr().err
