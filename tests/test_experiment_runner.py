"""Tests for the unified experiment runner and its scenario registry."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.exceptions import ProtocolError
from repro.experiments.crossover import crossover_sweep, long_path_sweep
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import (
    ExperimentRunner,
    ScenarioFailure,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.experiments.sweep import (
    SweepSpec,
    partition_points,
    resolve_chunk_size,
    run_sweep_sharded,
)
from repro.experiments.table1 import table1_default_grid, table1_rows
from repro.experiments.table2 import table2_rows
from repro.experiments.table3 import table3_rows, upper_vs_lower_consistency
from repro.service import SweepService

#: The default (complex128 transfer-matrix) report, generated serially.
GOLDEN_REPORT = pathlib.Path(__file__).resolve().parent / "golden" / "report.txt"


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = available_scenarios()
        for expected in (
            "table1",
            "table1-measured",
            "table2",
            "table2-verify",
            "table3",
            "table3-consistency",
            "crossover",
            "crossover-long-path",
            "crossover-points",
            "soundness-scaling",
            "soundness-repetition",
        ):
            assert expected in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ProtocolError, match="unknown experiment scenario"):
            get_scenario("table42")
        with pytest.raises(ProtocolError):
            ExperimentRunner(["table42"])

    def test_register_custom_scenario(self):
        def build(count: int = 2):
            return [ExperimentRow("custom", f"row{i}", {"i": i}) for i in range(count)]

        register_scenario("custom-demo", build, title="Demo", count=3)
        try:
            rows = run_scenario("custom-demo")
            assert len(rows) == 3
            assert run_scenario("custom-demo", count=1)[0].value("i") == 0
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("custom-demo", None)


class TestRunnerIdenticalRows:
    """The runner must reproduce exactly the rows of the direct calls."""

    @pytest.mark.parametrize(
        "name, direct",
        [
            ("table1", table1_rows),
            ("table2", table2_rows),
            ("table3", table3_rows),
            ("table3-consistency", upper_vs_lower_consistency),
            ("crossover", crossover_sweep),
            ("crossover-long-path", long_path_sweep),
        ],
    )
    def test_scenario_matches_direct_call(self, name, direct):
        assert run_scenario(name) == direct()

    def test_runner_preserves_selection_order(self):
        runner = ExperimentRunner(["table3", "table1"])
        results = runner.run()
        assert list(results) == ["table3", "table1"]
        assert results["table1"] == table1_rows()

    def test_render_contains_titles_and_labels(self):
        runner = ExperimentRunner(["table1"])
        text = runner.render()
        assert "Table 1 — FGNP21 baselines" in text
        assert "FGNP21 quantum EQ" in text


class TestParallelRunner:
    def test_process_pool_matches_serial(self):
        names = ["table1", "table3", "crossover"]
        serial = ExperimentRunner(names).run()
        parallel = ExperimentRunner(names, parallel=True, max_workers=2).run()
        assert serial == parallel


def _failing_builder():
    raise RuntimeError("intentional scenario crash")


class TestErrorIsolation:
    """One crashing scenario must not abort the report around it."""

    @pytest.fixture()
    def with_failing_scenario(self):
        register_scenario("failing-demo", _failing_builder, title="Failing demo")
        try:
            yield
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("failing-demo", None)

    def test_serial_failure_is_captured(self, with_failing_scenario):
        runner = ExperimentRunner(["table1", "failing-demo", "table3"])
        results = runner.run()
        assert results["table1"] == table1_rows()
        assert results["table3"] == table3_rows()
        failure = results["failing-demo"]
        assert isinstance(failure, ScenarioFailure)
        assert "intentional scenario crash" in failure.error
        assert "RuntimeError" in failure.traceback

    def test_parallel_failure_is_captured(self, with_failing_scenario):
        runner = ExperimentRunner(
            ["table1", "failing-demo", "table3"], parallel=True, max_workers=2
        )
        results = runner.run()
        assert list(results) == ["table1", "failing-demo", "table3"]
        assert results["table1"] == table1_rows()
        assert results["table3"] == table3_rows()
        assert isinstance(results["failing-demo"], ScenarioFailure)
        assert "intentional scenario crash" in results["failing-demo"].error

    def test_render_marks_failed_sections(self, with_failing_scenario):
        runner = ExperimentRunner(["table1", "failing-demo"])
        text = runner.render()
        assert "Table 1 — FGNP21 baselines" in text
        assert "FAILED: RuntimeError: intentional scenario crash" in text


class TestSweepSpecs:
    def test_swept_scenarios_declare_their_grids(self):
        for name in (
            "table1",
            "table2",
            "table3",
            "table3-consistency",
            "crossover",
            "crossover-long-path",
            "soundness-scaling",
            "soundness-repetition",
            "soundness-tree",
            "soundness-one-way-tree",
            "topology-soundness",
            "noise-robustness-path",
            "noise-robustness-tree",
            "noise-robustness-relay",
            "noise-channels",
            "topology-noise",
        ):
            scenario = get_scenario(name)
            assert scenario.sweep is not None, f"{name} should declare a sweep"
            points = scenario.grid_points()
            assert points, f"{name} grid should be non-empty"

    def test_point_scenarios_stay_unswept(self):
        for name in ("table1-measured", "table2-verify", "crossover-points"):
            assert get_scenario(name).sweep is None
            assert get_scenario(name).grid_points() is None

    def test_grid_points_honours_explicit_override(self):
        scenario = get_scenario("table1")
        assert scenario.grid_points() == table1_default_grid()
        assert scenario.grid_points(parameter_grid=[(8, 2, 2)]) == [(8, 2, 2)]

    def test_partition_points_is_contiguous_and_ordered(self):
        assert partition_points(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert partition_points([], 3) == []
        with pytest.raises(ProtocolError):
            partition_points([1], 0)

    def test_resolve_chunk_size_priorities(self):
        spec = SweepSpec("grid", list, chunk_size=5)
        assert resolve_chunk_size(spec, 100, 4, override=7) == 7
        assert resolve_chunk_size(spec, 100, 4) == 5
        open_spec = SweepSpec("grid", list)
        # 4 workers x CHUNKS_PER_WORKER chunks -> ceil(256 / 16) points per chunk
        assert resolve_chunk_size(open_spec, 256, 4) == 16
        # Tiny sweeps are floored at MIN_POINTS_PER_CHUNK so planned chunks
        # never degenerate to single points across many workers.
        assert resolve_chunk_size(open_spec, 3, 4) == 2


class TestShardedParity:
    """Sharded execution must be invisible in the rows and in the report."""

    def test_every_registered_scenario_sharded_matches_serial(self, monkeypatch):
        from repro.experiments.report import (
            NOISE_SCENARIOS,
            REPORT_SCENARIOS,
            SOUNDNESS_SCENARIOS,
        )

        for name in ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_DEVICE"):
            monkeypatch.delenv(name, raising=False)
        names = REPORT_SCENARIOS + SOUNDNESS_SCENARIOS + NOISE_SCENARIOS
        assert sorted(names) == sorted(available_scenarios())
        serial = ExperimentRunner(names).run()
        runner = ExperimentRunner(names, parallel=True, max_workers=2)
        sharded = runner.run()
        assert list(serial) == list(sharded) == names
        for name in serial:
            assert serial[name] == sharded[name], f"{name} rows differ under sharding"
        assert runner.render(sharded).encode("utf-8") == GOLDEN_REPORT.read_bytes(), (
            "the pooled report drifted from tests/golden/report.txt"
        )
        # Pool-wide merged per-worker cache stats are recorded and internally
        # consistent: every cache entry was inserted on a miss.
        stats = runner.cache_stats
        assert stats["workers"] >= 1
        assert stats["hits"] + stats["misses"] >= stats["entries"]
        assert stats["hits"] >= 0 and stats["misses"] >= 0

    def test_run_sweep_sharded_matches_serial_rows(self):
        strengths = tuple(0.1 * i for i in range(6))
        result = run_sweep_sharded(
            "noise-robustness-path", max_workers=2, chunk_size=2, strengths=strengths
        )
        assert result.num_points == 6
        assert result.num_chunks == 3
        assert result.rows == run_scenario("noise-robustness-path", strengths=strengths)
        stats = result.worker_stats
        assert stats["workers"] >= 1
        assert stats["hits"] + stats["misses"] >= stats["entries"]

    def test_run_sweep_sharded_rejects_unswept_scenarios(self):
        with pytest.raises(ProtocolError, match="declares no sweep grid"):
            run_sweep_sharded("table1-measured")


class TestUpFrontValidation:
    """Bad sizes and override keywords fail the call before any dispatch."""

    @pytest.mark.parametrize(
        "entry, kwargs",
        [
            ("runner", {"chunk_size": 0}),
            ("runner", {"max_workers": 0}),
            ("sharded", {"chunk_size": 0}),
            ("sharded", {"chunk_size": -3}),
            ("sharded", {"max_workers": 0}),
            ("spec", {"chunk_size": 0}),
            ("service", {"max_workers": 0}),
        ],
        ids=[
            "runner-chunk-size-0",
            "runner-max-workers-0",
            "sharded-chunk-size-0",
            "sharded-chunk-size-neg3",
            "sharded-max-workers-0",
            "spec-chunk-size-0",
            "service-max-workers-0",
        ],
    )
    def test_sizes_below_one_are_rejected(self, entry, kwargs):
        with pytest.raises(ProtocolError, match="must be at least 1"):
            if entry == "runner":
                ExperimentRunner(["table1"], parallel=True, **kwargs)
            elif entry == "sharded":
                run_sweep_sharded("table1", launcher="serial", **kwargs)
            elif entry == "spec":
                SweepSpec("grid", list, **kwargs)
            else:
                SweepService(**kwargs)

    @pytest.mark.parametrize("entry", ["runner", "sharded"])
    def test_unknown_override_keywords_are_rejected(self, entry):
        with pytest.raises(ProtocolError, match="bogus"):
            if entry == "runner":
                ExperimentRunner(["table1"], overrides={"table1": {"bogus": 1}})
            else:
                run_sweep_sharded("table1", launcher="serial", bogus=1)


def test_report_import_loads_no_process_machinery(tmp_path):
    """A serial import and run of the report load no pooled stack, linter or graph stack.

    Checked in one fresh interpreter after ``import repro.experiments.report``
    and again after a serial report of two swept scenarios and an unswept one.
    """
    import repro

    source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    env.pop("REPRO_SANITIZE", None)
    code = (
        "import sys\n"
        "FORBIDDEN = ('asyncio', 'multiprocessing', 'subprocess', 'concurrent.futures',\n"
        "    'repro.experiments.launchers', 'repro.experiments.sweep',\n"
        "    'repro.experiments.costmodel', 'repro.experiments.streaming',\n"
        "    'repro.lint', 'networkx', 'scipy')\n"
        "def loaded():\n"
        "    return [m for m in FORBIDDEN if m in sys.modules]\n"
        "from repro.experiments import report\n"
        "print(loaded())\n"
        "text, failed = report.generate_report_status(\n"
        "    scenarios=['table1', 'noise-robustness-path', 'crossover-points'])\n"
        "assert not failed and 'Noise' in text, failed\n"
        "print(loaded())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines() == ["[]", "[]"]


class TestReportRoutesThroughRunner:
    def test_report_sections_are_registered_scenarios(self):
        from repro.experiments.report import (
            NOISE_SCENARIOS,
            REPORT_SCENARIOS,
            SOUNDNESS_SCENARIOS,
        )

        for name in REPORT_SCENARIOS + SOUNDNESS_SCENARIOS + NOISE_SCENARIOS:
            assert name in available_scenarios()

    def test_generate_report_has_crossover_points(self):
        from repro.experiments.report import generate_report

        report = generate_report(include_soundness=False, include_noise=False)
        assert "Theorem 2 — crossover points" in report
        assert "crossover_n" in report


class TestNoiseScenarios:
    def test_noise_scenarios_registered(self):
        names = available_scenarios()
        for expected in (
            "noise-robustness-path",
            "noise-robustness-tree",
            "noise-robustness-relay",
            "noise-channels",
        ):
            assert expected in names

    def test_path_sweep_rows_are_physical(self):
        rows = run_scenario("noise-robustness-path", strengths=(0.0, 0.2, 0.4))
        assert len(rows) == 3
        assert rows[0].value("completeness") == pytest.approx(1.0, abs=1e-9)
        gaps = [row.value("gap") for row in rows]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0  # noise shrinks the margin

    def test_channel_comparison_covers_every_family(self):
        rows = run_scenario("noise-channels", strength=0.3)
        labels = {row.label for row in rows}
        assert labels == {
            "depolarizing",
            "dephasing",
            "amplitude-damping",
            "bit-flip",
            "phase-flip",
        }
        for row in rows:
            assert 0.0 < row.value("completeness") < 1.0


class TestTopologyScenarios:
    def test_topology_scenarios_registered(self):
        names = available_scenarios()
        assert "topology-soundness" in names
        assert "topology-noise" in names

    def test_topology_soundness_respects_paper_bound(self):
        rows = run_scenario(
            "topology-soundness", topologies=[("grid", 2, 3), ("ring", 6)]
        )
        assert [row.label for row in rows] == ["grid-2x3", "ring-6"]
        for row in rows:
            assert row.value("respects_bound") is True
            assert 0.0 <= row.value("best_found_acceptance") <= 1.0

    def test_topology_noise_rows_keep_a_positive_gap(self):
        rows = run_scenario(
            "topology-noise",
            topologies=[("grid", 2, 2), ("random-graph", 6, 3)],
            strength=0.1,
        )
        assert [row.label for row in rows] == ["grid-2x2", "random-graph-6-s3"]
        for row in rows:
            assert 0.0 < row.value("completeness") < 1.0
            assert row.value("gap") > 0.0


class TestScenarioCatalog:
    def test_catalog_lists_every_scenario(self):
        from repro.experiments.catalog import scenario_catalog_markdown

        table = scenario_catalog_markdown()
        for name in available_scenarios():
            assert f"`{name}`" in table

    def test_readme_catalog_in_sync_with_registry(self):
        """The README embeds the generated table verbatim — names, titles,
        descriptions; any registry edit (including deletions) fails here."""
        import pathlib

        from repro.experiments.catalog import scenario_catalog_markdown

        readme = (
            pathlib.Path(__file__).resolve().parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        assert scenario_catalog_markdown() in readme, (
            "README scenario catalog is out of sync with the registry — "
            "regenerate it with `python -m repro.experiments.catalog`"
        )
        # Exactly one catalog table lives in the README (no stale copies).
        from repro.experiments.catalog import CATALOG_HEADER

        assert readme.count(CATALOG_HEADER) == 1
