"""Smoke tests: every example script runs end to end, and the report generator works."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))

#: The default (complex128 transfer-matrix) report.  Regenerate it with
#: ``repro-report tests/golden/report.txt`` only for a change that is meant
#: to alter the report's numbers or layout.
GOLDEN_REPORT = pathlib.Path(__file__).resolve().parent / "golden" / "report.txt"


def _load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_has_at_least_five_scenarios(self):
        assert len(EXAMPLE_FILES) >= 5

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_runs_to_completion(self, path, capsys):
        module = _load_module(path)
        assert hasattr(module, "main"), f"{path.name} must expose a main() function"
        module.main()
        captured = capsys.readouterr()
        assert captured.out.strip(), f"{path.name} should print its results"


class TestReport:
    def test_report_contains_every_section(self):
        from repro.experiments.report import generate_report

        report = generate_report(include_soundness=False)
        for marker in (
            "Table 1 — FGNP21 baselines",
            "Table 2 — upper bounds",
            "Table 2 — small-instance protocol verification",
            "Table 3 — lower bounds",
            "Theorem 2 — crossover points",
        ):
            assert marker in report

    def test_report_cli_writes_file(self, tmp_path, monkeypatch):
        from repro.experiments.report import main

        for name in ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_DEVICE"):
            monkeypatch.delenv(name, raising=False)
        target = tmp_path / "report.txt"
        exit_code = main([str(target)])
        assert exit_code == 0
        assert "Table 3" in target.read_text(encoding="utf-8")
        assert target.read_bytes() == GOLDEN_REPORT.read_bytes(), (
            f"the report no longer matches {GOLDEN_REPORT.name} byte for byte"
        )

    def test_report_runs_without_networkx(self, tmp_path):
        """The whole report, in a fresh interpreter that cannot import networkx.

        The path, tree, relay, ranking, topology and noise sections all build
        their networks through the graph layer, so a byte-identical report
        proves no networkx import is left on any of those paths.
        """
        import repro

        source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = {
            name: value
            for name, value in os.environ.items()
            if name not in ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_DEVICE")
        }
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
        target = tmp_path / "report.txt"
        code = (
            "import sys; sys.modules['networkx'] = None; "
            "from repro.experiments.report import main; "
            f"sys.exit(main([{str(target)!r}]))"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert target.read_bytes() == GOLDEN_REPORT.read_bytes(), (
            f"the report without networkx no longer matches {GOLDEN_REPORT.name} byte for byte"
        )

    def test_complex64_report_matches_complex128(self):
        """The 22 report sections agree across contraction dtypes.

        Numeric cells agree within the complex64 parity tolerance; boolean
        and text cells are equal, except ``best_strategy``: it is an argmax
        over strategies whose acceptances tie in exact arithmetic, so the
        complex64 rounding may pick another member of the tied set (seven
        labels do).
        """
        import numbers

        from repro.engine import Engine, TransferMatrixBackend, parity_tolerance
        from repro.engine.core import set_default_engine
        from repro.experiments.report import (
            NOISE_SCENARIOS,
            REPORT_SCENARIOS,
            SOUNDNESS_SCENARIOS,
        )
        from repro.experiments.runner import run_scenario

        names = REPORT_SCENARIOS + SOUNDNESS_SCENARIOS + NOISE_SCENARIOS
        assert len(names) == 22

        def report_rows(dtype):
            set_default_engine(Engine(backend=TransferMatrixBackend(dtype=dtype)))
            try:
                return [row for name in names for row in run_scenario(name)]
            finally:
                set_default_engine(None)

        tolerance = parity_tolerance("complex64")
        worst = 0.0
        for exact, fast in zip(
            report_rows("complex128"), report_rows("complex64"), strict=True
        ):
            assert (fast.experiment, fast.label) == (exact.experiment, exact.label)
            assert fast.values.keys() == exact.values.keys()
            for column, value in exact.values.items():
                where = f"{exact.experiment} / {exact.label} / {column}"
                if column == "best_strategy":
                    continue
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    assert fast.values[column] == value, where
                    continue
                difference = abs(float(fast.values[column]) - float(value))
                assert difference <= tolerance, f"{where}: off by {difference:.2e}"
                worst = max(worst, difference)
        assert worst > 0.0, "the complex64 engine never ran"

    def test_report_cli_scenario_subset(self, tmp_path):
        from repro.experiments.report import main

        target = tmp_path / "subset.txt"
        exit_code = main(["--scenarios", "table1,crossover", str(target)])
        assert exit_code == 0
        text = target.read_text(encoding="utf-8")
        assert "Table 1 — FGNP21 baselines" in text
        assert "Theorem 2 — fixed-path crossover sweep" in text
        assert "Table 3" not in text

    @pytest.mark.parametrize(
        "value", [None, "bogus,table1", ","], ids=["missing", "unknown", "empty"]
    )
    def test_report_cli_scenarios_flag_needs_a_value(self, value, capsys):
        from repro.experiments.report import main

        assert main(["--scenarios"] + ([] if value is None else [value])) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, "expected a one-line usage message"
        if value is not None:
            problem, available = err.split("available:")
            assert "'table1'" in available
            assert ("'bogus'" in problem) == (value == "bogus,table1")
            assert "'table1'" not in problem

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_report_cli_rejects_unwritable_output(self, kind, tmp_path, capsys, monkeypatch):
        from repro.experiments import report as report_module

        target = tmp_path / "no" / "such" / "out.txt" if kind == "missing-dir" else tmp_path
        runs = []
        monkeypatch.setattr(
            report_module,
            "generate_report_status",
            lambda **kwargs: runs.append(kwargs) or ("", []),
        )
        assert report_module.main(["--scenarios", "table1", str(target)]) == 2
        assert runs == [], "no scenario may run before the output path is checked"
        err = capsys.readouterr().err
        assert err.count("\n") == 1, "expected a one-line usage message"
        assert str(target) in err

    def test_report_cli_exits_nonzero_on_failed_section(self, tmp_path, capsys):
        from repro.experiments.report import main
        from repro.experiments.runner import register_scenario

        register_scenario(
            "report-failing-demo", _failing_report_builder, title="Failing report demo"
        )
        try:
            target = tmp_path / "failed.txt"
            exit_code = main(["--scenarios", "report-failing-demo,table1", str(target)])
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("report-failing-demo", None)
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "report-failing-demo" in err
        assert "FAILED" in err
        text = target.read_text(encoding="utf-8")
        # The report itself is still written in full, failed section included.
        assert "FAILED: RuntimeError: intentional report crash" in text
        assert "Table 1 — FGNP21 baselines" in text

    def test_report_cli_progress_streams_chunk_lines(self, tmp_path, capsys):
        from repro.experiments.report import main

        target = tmp_path / "progress.txt"
        exit_code = main(["--progress", "--scenarios", "table1", str(target)])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "table1 chunk" in err
        assert "Table 1 — FGNP21 baselines" in target.read_text(encoding="utf-8")

    def test_report_cli_chunk_size_pins_the_static_plan(self, tmp_path, capsys):
        from repro.experiments.report import main

        target = tmp_path / "pinned.txt"
        exit_code = main(
            ["--progress", "--chunk-size", "3", "--scenarios", "table1", str(target)]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        # 4 grid points pinned to 3-point chunks: exactly 2 chunks streamed.
        assert "table1 chunk 1/2" in err and "table1 chunk 2/2" in err
        assert "Table 1 — FGNP21 baselines" in target.read_text(encoding="utf-8")

    def test_report_cli_chunk_size_rejects_bad_values(self, capsys):
        from repro.experiments.report import main

        assert main(["--chunk-size"]) == 2
        assert main(["--chunk-size", "0"]) == 2
        assert main(["--chunk-size", "banana"]) == 2
        assert "--chunk-size needs a positive integer" in capsys.readouterr().err

    def test_report_cli_no_adaptive_skips_the_cost_book(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.costmodel import COST_BOOK_ENV_VAR
        from repro.experiments.report import main

        book = tmp_path / "cli-book.json"
        monkeypatch.setenv(COST_BOOK_ENV_VAR, str(book))
        target = tmp_path / "no-adaptive.txt"
        exit_code = main(
            ["--parallel", "--no-adaptive", "--scenarios", "table1", str(target)]
        )
        assert exit_code == 0
        assert not book.exists()
        # With adaptive on (the default) the same run records measurements.
        exit_code = main(["--parallel", "--scenarios", "table1", str(target)])
        assert exit_code == 0
        assert book.exists()

    def test_report_cli_rejects_unknown_flags(self, capsys):
        from repro.experiments.report import main

        assert main(["--bogus"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_cli_launcher_selects_backend_and_exports_env(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.experiments.report import main

        monkeypatch.setenv("REPRO_LAUNCHER", "process-pool")
        target = tmp_path / "launcher.txt"
        exit_code = main(
            ["--launcher", "serial", "--scenarios", "table1", str(target)]
        )
        assert exit_code == 0
        # The flag wins over REPRO_LAUNCHER by exporting the chosen backend
        # (the --backend/--dtype precedence idiom).
        assert os.environ["REPRO_LAUNCHER"] == "serial"
        assert "Table 1 — FGNP21 baselines" in target.read_text(encoding="utf-8")

    def test_report_cli_launcher_implies_parallel(self, tmp_path, monkeypatch):
        import repro.experiments.report as report_module

        seen = {}
        original = report_module.generate_report_status

        def spy(**kwargs):
            seen.update(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(report_module, "generate_report_status", spy)
        # setenv (not delenv) so monkeypatch restores the pre-test state even
        # though main() exports the flag's value into the environment.
        monkeypatch.setenv("REPRO_LAUNCHER", "process-pool")
        target = tmp_path / "implied.txt"
        exit_code = report_module.main(
            ["--launcher", "serial", "--scenarios", "table1-measured", str(target)]
        )
        assert exit_code == 0
        assert seen["parallel"] is True
        assert seen["launcher"] == "serial"

    def test_report_cli_launcher_rejects_bad_usage(self, capsys, monkeypatch):
        from repro.experiments.report import main

        monkeypatch.delenv("REPRO_LAUNCHER", raising=False)
        assert main(["--launcher", "bogus"]) == 2
        assert "unknown launcher" in capsys.readouterr().err
        assert main(["--launcher"]) == 2
        assert "--launcher needs a launcher name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "dense", "--bogus"],
            ["--dtype", "complex64", "{missing}"],
            ["--backend", "dense", "--launcher", "nope"],
            ["--launcher", "threads", "a.txt", "b.txt"],
        ],
        ids=["unknown-flag", "unwritable-output", "bad-launcher", "two-outputs"],
    )
    def test_report_cli_usage_error_exports_nothing(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.report import main

        names = ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_LAUNCHER")
        for name in names:
            # setenv before delenv so monkeypatch restores the pre-test state
            # even if main() exports a value.
            monkeypatch.setenv(name, "")
            monkeypatch.delenv(name)
        missing = str(tmp_path / "no" / "such" / "out.txt")
        assert main([arg.format(missing=missing) for arg in argv]) == 2
        assert capsys.readouterr().err.count("\n") == 1, "expected a one-line usage message"
        assert [name for name in names if name in os.environ] == []

    def test_generate_report_status_reports_failed_names(self):
        from repro.experiments.report import generate_report_status
        from repro.experiments.runner import register_scenario

        register_scenario(
            "report-failing-demo", _failing_report_builder, title="Failing report demo"
        )
        try:
            report, failed = generate_report_status(
                scenarios=["table1", "report-failing-demo"]
            )
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("report-failing-demo", None)
        assert failed == ["report-failing-demo"]
        assert "FAILED:" in report


def _failing_report_builder():
    raise RuntimeError("intentional report crash")
