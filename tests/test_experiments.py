"""Tests for the experiment harness that regenerates the paper's tables."""

import pytest

from repro.analysis.soundness import repetition_soundness
from repro.exceptions import ReproError
from repro.experiments.crossover import crossover_sweep, find_crossover, long_path_sweep, quantum_total_plain
from repro.experiments.records import ExperimentRow, format_rows
from repro.experiments.soundness_scaling import repetition_curve, soundness_scaling_sweep
from repro.experiments.table1 import measured_fgnp21_costs, table1_rows
from repro.experiments.table2 import table2_rows, table2_verification_rows
from repro.experiments.table3 import table3_rows, upper_vs_lower_consistency


class TestRecords:
    def test_format_rows_contains_labels_and_columns(self):
        rows = [
            ExperimentRow("demo", "row-one", {"alpha": 1.5, "beta": True}),
            ExperimentRow("demo", "row-two", {"alpha": 2.0, "beta": False}),
        ]
        rendered = format_rows(rows)
        assert "row-one" in rendered
        assert "alpha" in rendered
        assert "yes" in rendered and "no" in rendered

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_value_lookup(self):
        row = ExperimentRow("demo", "r", {"x": 3})
        assert row.value("x") == 3
        assert row.value("missing") is None


class TestTable1:
    def test_rows_cover_all_protocol_kinds(self):
        rows = table1_rows([(64, 3, 2), (256, 4, 4)])
        assert len(rows) == 6
        protocols = {row.value("protocol") for row in rows}
        assert protocols == {"dQMA", "dMA"}

    def test_quantum_rows_have_positive_costs(self):
        for row in table1_rows([(64, 3, 2)]):
            cost = row.value("local_proof_qubits") or row.value("total_proof_bits_lower")
            assert cost > 0

    def test_measured_costs_row(self):
        row = measured_fgnp21_costs(3, 3)
        assert row.value("local_proof_qubits") > 0
        assert row.value("total_proof_qubits") >= row.value("local_proof_qubits")


class TestTable2:
    def test_all_nine_rows_present(self):
        rows = table2_rows(n=256, r=3, t=3, d=1)
        assert len(rows) == 9
        sections = {row.value("section") for row in rows}
        assert {"3", "4.1", "4.2", "5.1", "5.2", "6", "6.1", "7"} <= sections

    def test_formulas_recorded(self):
        rows = table2_rows()
        assert all(row.value("formula") for row in rows)

    def test_verification_rows_completeness(self):
        rows = table2_verification_rows()
        for row in rows:
            completeness = row.value("completeness")
            assert completeness is not None
            assert completeness > 0.9, row.label

    def test_verification_rows_soundness_gap(self):
        rows = table2_verification_rows()
        for row in rows:
            no_instance = row.value("no_instance_honest")
            if no_instance is not None:
                assert no_instance < row.value("completeness"), row.label


class TestTable3:
    def test_all_seven_rows_present(self):
        rows = table3_rows(n=256, r=3)
        assert len(rows) == 7
        assert all(row.value("lower_bound_qubits") is not None for row in rows)

    def test_consistency_rows(self):
        rows = upper_vs_lower_consistency([(256, 3), (2**16, 8)])
        for row in rows:
            assert row.value("upper_respects_sepsep_lower")
            assert row.value("upper_respects_entangled_lower")

    def test_quantum_advantage_appears_for_large_n(self):
        rows = upper_vs_lower_consistency([(2**24, 6)])
        assert rows[0].value("quantum_beats_classical")


class TestCrossover:
    def test_sweep_columns(self):
        rows = crossover_sweep([2**8, 2**16], path_length=5)
        assert len(rows) == 2
        for row in rows:
            assert row.value("quantum_plain_total") > 0
            assert row.value("classical_lower_bound") > 0

    def test_plain_crossover_exists_and_is_consistent(self):
        crossover = find_crossover(path_length=6, strategy="plain")
        assert crossover is not None
        from repro.bounds.lower import classical_dma_total_proof_lower_bound

        assert quantum_total_plain(crossover, 6) < classical_dma_total_proof_lower_bound(crossover, 6)
        assert quantum_total_plain(crossover // 2, 6) >= classical_dma_total_proof_lower_bound(crossover // 2, 6)

    def test_relay_crossover_exists_in_long_path_regime(self):
        assert find_crossover(strategy="relay") is not None

    def test_long_path_sweep_has_per_node_columns(self):
        rows = long_path_sweep([2**12])
        assert rows[0].value("relay_per_node") > 0
        assert rows[0].value("classical_per_node") > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            find_crossover(path_length=4, strategy="bogus")


class TestSoundnessScaling:
    def test_all_rows_respect_lemma_17(self):
        rows = soundness_scaling_sweep([2, 3])
        for row in rows:
            assert row.value("respects_bound")
            assert row.value("optimal_entangled_acceptance") <= row.value("paper_bound") + 1e-9

    def test_gap_achieved_exceeds_gap_required(self):
        rows = soundness_scaling_sweep([2, 3])
        for row in rows:
            assert row.value("gap_achieved") >= row.value("gap_required") - 1e-9

    def test_optimal_cheating_grows_with_path_length(self):
        rows = soundness_scaling_sweep([2, 3, 4])
        values = [row.value("optimal_entangled_acceptance") for row in rows]
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9

    def test_repetition_curve_crosses_one_third(self):
        rows = repetition_curve(path_length=3, repetition_counts=[1, 400])
        assert not rows[0].value("below_one_third")
        assert rows[-1].value("below_one_third")

    def test_matrix_free_rows_past_the_dense_guard(self):
        rows = soundness_scaling_sweep([7, 8])
        values = [row.value("optimal_entangled_acceptance") for row in rows]
        assert values[0] < values[1] < 1.0
        for row in rows:
            assert row.value("respects_bound")
            assert row.value("gap_achieved") >= row.value("gap_required")

    @pytest.mark.parametrize("path_length", [True, 0, 2.5])
    def test_path_length_grid_is_validated(self, path_length):
        with pytest.raises(ReproError):
            soundness_scaling_sweep([path_length])

    @pytest.mark.parametrize("count", [-1, 0, 2.5, True])
    def test_repetition_grid_is_validated(self, count):
        with pytest.raises(ReproError):
            repetition_curve(3, [count])

    def test_repetition_curve_uses_repetition_soundness(self):
        counts = [1, 10, 400]
        rows = repetition_curve(3, counts)
        for row, k in zip(rows, counts):
            expected = repetition_soundness(row.value("single_shot_optimal"), k)
            assert row.value("repeated_acceptance") == expected
            assert 0.0 <= expected <= 1.0
