"""Tests for the cost-model scheduling layer and operator packs.

Covers the three tentpole pieces end to end: the EWMA cost model and its
JSON cost book (:mod:`repro.experiments.costmodel`), the cost-driven
variable-width chunk planner (:func:`repro.experiments.sweep.plan_chunks`),
and the :class:`~repro.engine.cache.OperatorPack` warm-start path — plus
the sharded integration (history, probe and static planning modes must all
return rows byte-identical to serial runs).

Builders live at module level so forked pool workers can resolve their
registered scenarios; fixtures register/unregister them around each test.
"""

import pickle

import numpy as np
import pytest

from repro.engine import Engine, OperatorPack
from repro.engine.cache import OperatorCache, _pack_digest
from repro.exceptions import ProtocolError
from repro.experiments.costmodel import (
    COST_BOOK_ENV_VAR,
    CostEntry,
    CostModel,
    cost_book_path,
    point_signature,
)
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import ExperimentRunner, register_scenario, run_scenario
from repro.experiments.sweep import (
    MIN_POINTS_PER_CHUNK,
    PROBE_CHUNK_POINTS,
    SweepSpec,
    partition_points,
    plan_chunks,
    run_sweep_sharded,
)


class TestPointSignature:
    def test_integers_keep_their_value(self):
        assert point_signature(4) == "i4"
        assert point_signature(np.int64(4)) == "i4"
        assert point_signature(4) != point_signature(5)

    def test_bools_are_not_integers(self):
        assert point_signature(True) == "b1"
        assert point_signature(True) != point_signature(1)

    def test_floats_collapse_to_one_bucket(self):
        assert point_signature(0.1) == point_signature(0.9) == "f"
        assert point_signature(np.float64(0.5)) == "f"

    def test_strings_keep_their_value(self):
        assert point_signature("depolarizing") != point_signature("dephasing")

    def test_tuples_recurse_elementwise(self):
        assert point_signature((8, 2, 0.1)) == "(i8,i2,f)"
        assert point_signature([8, 2]) == point_signature((8, 2))
        assert point_signature(("grid", 2, 3)) != point_signature(("grid", 4, 4))

    def test_objects_use_type_and_size(self):
        class Sized:
            def __len__(self):
                return 5

        class Opaque:
            pass

        assert point_signature(Sized()) == "o:Sized[5]"
        assert point_signature(Opaque()) == "o:Opaque"


class TestCostModel:
    def test_observe_attributes_seconds_evenly(self):
        model = CostModel()
        model.observe("s", [2, 2, 4, 4], 8.0)
        assert model.predict("s", 2) == pytest.approx(2.0)
        assert model.predict("s", 4) == pytest.approx(2.0)

    def test_ewma_blends_new_observations(self):
        model = CostModel(alpha=0.5)
        model.observe("s", [3], 1.0)
        model.observe("s", [3], 3.0)
        assert model.predict("s", 3) == pytest.approx(2.0)
        entry = model.scenarios["s"][point_signature(3)]
        assert isinstance(entry, CostEntry) and entry.samples == 2

    def test_unseen_signature_falls_back_to_scenario_mean(self):
        model = CostModel()
        model.observe("s", [2], 1.0)
        model.observe("s", [4], 3.0)
        assert model.predict("s", 8) == pytest.approx(2.0)
        assert model.mean_rate("s") == pytest.approx(2.0)

    def test_no_history_predicts_none(self):
        model = CostModel()
        assert not model.has_history("s")
        assert model.predict("s", 1) is None
        assert model.predict_points("s", [1, 2]) is None
        assert model.mean_rate("s") is None

    def test_predict_points_mixes_entries_and_fallback(self):
        model = CostModel()
        model.observe("s", [2, 2], 4.0)
        costs = model.predict_points("s", [2, 9, 2])
        assert costs == pytest.approx([2.0, 2.0, 2.0])

    def test_empty_or_negative_observations_are_ignored(self):
        model = CostModel()
        model.observe("s", [], 5.0)
        model.observe("s", [1], -1.0)
        assert not model.has_history("s")


class TestCostBookPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        book = tmp_path / "book.json"
        model = CostModel(alpha=0.4)
        model.observe("alpha", [2, 4], 6.0)
        model.observe("beta", ["x"], 1.5)
        saved = model.save(str(book))
        assert saved == str(book)
        loaded = CostModel.load(str(book))
        assert loaded.alpha == pytest.approx(0.4)
        assert loaded.predict("alpha", 2) == pytest.approx(3.0)
        assert loaded.predict("beta", "x") == pytest.approx(1.5)

    def test_env_var_resolves_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(COST_BOOK_ENV_VAR, str(tmp_path / "env-book.json"))
        assert cost_book_path() == str(tmp_path / "env-book.json")
        assert cost_book_path(str(tmp_path / "explicit.json")) == str(
            tmp_path / "explicit.json"
        )

    def test_missing_or_corrupt_book_starts_fresh(self, tmp_path):
        assert not CostModel.load(str(tmp_path / "absent.json")).scenarios
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json", encoding="utf-8")
        assert not CostModel.load(str(corrupt)).scenarios

    def test_wrong_version_starts_fresh(self, tmp_path):
        book = tmp_path / "old.json"
        book.write_text(
            '{"version": 999, "scenarios": {"s": {"i1": {"ewma": 1.0}}}}',
            encoding="utf-8",
        )
        assert not CostModel.load(str(book)).scenarios

    def test_from_dict_tolerates_junk_entries(self):
        model = CostModel.from_dict(
            {
                "alpha": 0.3,
                "scenarios": {
                    "good": {"i1": {"ewma": 2.0, "samples": 3}, "bad": {"oops": 1}},
                    "junk": "not-a-mapping",
                },
            }
        )
        assert model.predict("good", 1) == pytest.approx(2.0)
        assert "junk" not in model.scenarios

    def test_save_failure_is_swallowed(self):
        model = CostModel()
        model.observe("s", [1], 1.0)
        model.save("/nonexistent-dir-zzz/book.json")  # must not raise


class TestPlanChunks:
    def test_empty_grid(self):
        assert plan_chunks([], [], target_chunks=4) == []
        assert plan_chunks([], None, target_chunks=4) == []

    def test_single_point(self):
        assert plan_chunks([7], [1.0], target_chunks=4) == [[7]]

    def test_no_costs_degenerates_to_equal_count(self):
        points = list(range(8))
        assert plan_chunks(points, None, target_chunks=4) == partition_points(points, 2)

    def test_uniform_costs_match_equal_count(self):
        points = list(range(8))
        chunks = plan_chunks(points, [1.0] * 8, target_chunks=4)
        assert chunks == partition_points(points, 2)

    def test_skewed_costs_narrow_the_expensive_region(self):
        points = list(range(10))
        costs = [9.0] + [1.0] * 9
        chunks = plan_chunks(points, costs, target_chunks=2)
        assert chunks == [[0], [1, 2, 3, 4, 5, 6, 7, 8, 9]]

    def test_chunks_are_contiguous_and_cover_the_grid(self):
        points = list(range(17))
        costs = [float(1 + (i % 5)) for i in points]
        chunks = plan_chunks(points, costs, target_chunks=5, min_points=2)
        assert [p for chunk in chunks for p in chunk] == points
        assert all(len(chunk) >= 2 for chunk in chunks[:-1])

    def test_min_points_floor_caps_chunk_count(self):
        chunks = plan_chunks(list(range(5)), [1.0] * 5, target_chunks=10, min_points=2)
        assert len(chunks) <= 3  # ceil(5 / 2)
        assert [p for chunk in chunks for p in chunk] == list(range(5))

    def test_zero_costs_cannot_swallow_the_tail(self):
        chunks = plan_chunks(list(range(8)), [0.0] * 8, target_chunks=4)
        assert len(chunks) == 4

    def test_cost_length_mismatch_raises(self):
        with pytest.raises(ProtocolError):
            plan_chunks([1, 2, 3], [1.0, 2.0], target_chunks=2)


class TestOperatorPack:
    def _warm_cache(self):
        cache = OperatorCache()
        cache.get_or_build(("op", "a"), lambda: np.eye(2))
        cache.get_or_build(("op", "b"), lambda: np.arange(4.0))
        cache.get_or_build(("scalar",), lambda: 3.5)  # non-array: not packed
        return cache

    def test_export_packs_only_arrays(self):
        pack = self._warm_cache().export_pack(source="tester")
        assert len(pack) == 2
        assert pack.source == "tester"
        assert pack.nbytes == np.eye(2).nbytes + np.arange(4.0).nbytes
        assert {key for key, _ in pack.entries} == {("op", "a"), ("op", "b")}

    def test_unpicklable_keys_are_skipped(self):
        cache = OperatorCache()
        cache.get_or_build(("fn", min), lambda: np.eye(2))  # builtin: picklable
        cache.get_or_build(("gen", (i for i in range(3))), lambda: np.eye(2))
        pack = cache.export_pack()
        assert {key[0] for key, _ in pack.entries} == {"fn"}

    def test_preload_roundtrip_counts_preloaded_and_pack_hits(self):
        pack = pickle.loads(pickle.dumps(self._warm_cache().export_pack()))
        fresh = OperatorCache()
        adopted = fresh.preload(pack)
        assert adopted == 2
        stats = fresh.stats()
        assert stats.preloaded == 2
        assert stats.misses == 0  # preloading never charges misses
        value = fresh.get(("op", "a"))
        assert np.array_equal(value, np.eye(2))
        assert not value.flags.writeable  # re-frozen after pickling
        assert fresh.stats().pack_hits == 1
        assert fresh.stats().hits == 1

    def test_digest_mismatch_is_rejected(self):
        pack = self._warm_cache().export_pack()
        tampered_entries = tuple(
            (key, np.asarray(value) + 1.0) for key, value in pack.entries
        )
        tampered = OperatorPack(
            entries=tampered_entries, digest=pack.digest, source=pack.source
        )
        fresh = OperatorCache()
        with pytest.raises(ValueError, match="digest mismatch"):
            fresh.preload(tampered)
        assert len(fresh) == 0  # nothing adopted from a corrupt pack
        assert _pack_digest(tampered_entries) != pack.digest

    def test_preload_skips_present_keys_and_respects_capacity(self):
        pack = self._warm_cache().export_pack()
        target = OperatorCache(max_entries=2)
        local = target.put(("op", "a"), np.zeros((2, 2)))
        adopted = target.preload(pack)
        assert adopted == 1  # ("op", "a") kept local, capacity then full
        assert target.get(("op", "a")) is local  # local work wins

    def test_local_put_clears_pack_attribution(self):
        pack = self._warm_cache().export_pack()
        fresh = OperatorCache()
        fresh.preload(pack)
        fresh.put(("op", "a"), np.ones((2, 2)))
        fresh.get(("op", "a"))
        assert fresh.stats().pack_hits == 0  # rebuilt locally: not a pack hit

    def test_engine_facade_roundtrip(self):
        engine = Engine(backend="dense")
        engine.cached_operator(("k",), lambda: np.eye(3))
        pack = engine.export_operator_pack(source="parent")
        other = Engine(backend="dense")
        assert other.preload_operator_pack(pack) == 1
        assert np.array_equal(other.cached_operator(("k",), lambda: None), np.eye(3))
        assert other.cache.stats().pack_hits == 1


# -- sharded integration ------------------------------------------------------


def _hetero_grid():
    # Heterogeneous by signature: size-2 and size-3 path lengths cost
    # differently, and the signatures distinguish them.
    return [2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3]


def _hetero_sweep(path_lengths=None):
    # Rows must be a pure per-point function (as real builders are), so any
    # chunking reassembles to exactly the serial rows.
    values = list(path_lengths) if path_lengths is not None else _hetero_grid()
    return [
        ExperimentRow("hetero", f"L={value}", {"value": value, "square": value**2})
        for value in values
    ]


@pytest.fixture()
def hetero_scenario():
    register_scenario(
        "costmodel-hetero",
        _hetero_sweep,
        title="Heterogeneous sweep",
        sweep=SweepSpec("path_lengths", _hetero_grid),
    )
    try:
        yield "costmodel-hetero"
    finally:
        from repro.experiments import runner as runner_module

        runner_module._REGISTRY.pop("costmodel-hetero", None)


class TestShardedAdaptive:
    def test_cold_run_probes_then_matches_serial(self, hetero_scenario, tmp_path):
        book = str(tmp_path / "book.json")
        # 12 points > 2 * workers * PROBE_CHUNK_POINTS with 2 workers.
        assert len(_hetero_grid()) > 2 * 2 * PROBE_CHUNK_POINTS
        result = run_sweep_sharded(hetero_scenario, max_workers=2, cost_book=book)
        assert result.ok
        assert result.rows == run_scenario(hetero_scenario)
        # The probe phase measured the grid: the book now has history.
        assert CostModel.load(book).has_history(hetero_scenario)

    @pytest.mark.parametrize(
        "launcher, workers, probes, num_chunks", [("threads", 2, 2, 6), ("serial", 1, 1, 4)]
    )
    def test_cold_run_probe_wave_settles_before_the_rest(
        self, hetero_scenario, tmp_path, launcher, workers, probes, num_chunks
    ):
        events = []
        result = run_sweep_sharded(
            hetero_scenario,
            launcher=launcher,
            max_workers=workers,
            cost_book=str(tmp_path / "book.json"),
            progress=events.append,
        )
        assert result.ok
        assert result.rows == run_scenario(hetero_scenario)
        # One probe chunk per worker, drained before the rest is planned...
        wave = sorted((e.chunk_index, e.num_chunks, e.num_rows) for e in events[:probes])
        assert wave == [(index, probes, PROBE_CHUNK_POINTS) for index in range(probes)]
        assert all(event.chunk_index >= probes for event in events[probes:])
        # ...into max(workers, workers * CHUNKS_PER_WORKER - probes) chunks:
        # 8 remaining points in 4 chunks, or 10 in 3 (not 4) on one worker.
        assert len(events) == result.num_chunks == num_chunks

    def test_warm_run_plans_from_history_and_matches_serial(
        self, hetero_scenario, tmp_path
    ):
        book = str(tmp_path / "book.json")
        run_sweep_sharded(hetero_scenario, max_workers=2, cost_book=book)
        events = []
        result = run_sweep_sharded(
            hetero_scenario, max_workers=2, cost_book=book, progress=events.append
        )
        assert result.ok
        assert result.rows == run_scenario(hetero_scenario)
        # History-planned chunks carry wall-time predictions on their events,
        # and every planned chunk respects the points floor (one row per
        # point for this builder).
        assert any(event.predicted_seconds is not None for event in events)
        assert all(event.num_rows >= MIN_POINTS_PER_CHUNK for event in events)

    def test_adaptive_off_writes_no_cost_book(self, hetero_scenario, tmp_path):
        book = tmp_path / "book.json"
        result = run_sweep_sharded(
            hetero_scenario, max_workers=2, adaptive=False, cost_book=str(book)
        )
        assert result.ok
        assert result.rows == run_scenario(hetero_scenario)
        assert not book.exists()

    def test_pinned_chunk_size_still_records_history(self, hetero_scenario, tmp_path):
        book = str(tmp_path / "book.json")
        result = run_sweep_sharded(
            hetero_scenario, max_workers=2, chunk_size=3, cost_book=book
        )
        assert result.ok
        assert result.num_chunks == 4  # 12 points / pinned size 3
        assert CostModel.load(book).has_history(hetero_scenario)

    def test_operator_pack_seeds_pool_workers(self, tmp_path):
        # Warm the parent engine on the same grid the pool will sweep; the
        # chain acceptance operators cache under value-stable tokens, so the
        # exported pack's keys match the keys fresh workers derive.
        from repro.engine.core import default_engine, set_default_engine

        set_default_engine(None)
        path_lengths = (2, 3, 4, 5)
        serial = run_scenario("soundness-scaling", path_lengths=path_lengths)
        pack = default_engine().export_operator_pack(source="parent")
        assert len(pack) > 0
        result = run_sweep_sharded(
            "soundness-scaling",
            max_workers=2,
            operator_pack=pack,
            cost_book=str(tmp_path / "book.json"),
            path_lengths=path_lengths,
        )
        assert result.ok
        assert result.rows == serial
        assert result.worker_stats["preloaded"] > 0
        assert result.worker_stats["pack_hits"] > 0

    @pytest.mark.parametrize("path_lengths", [(2, 3), (2, 3, 4, 5)], ids=["one-task", "two-chunks"])
    @pytest.mark.parametrize("owned", [False, True], ids=["registry-launcher", "caller-launcher"])
    @pytest.mark.parametrize("entry", ["runner", "sharded"])
    def test_operator_pack_reaches_workers_on_every_path(self, entry, owned, path_lengths):
        # A launcher built from a registry name gets the pack at construction;
        # a caller-owned one must receive it with every task, whether the
        # runner submits a whole scenario (r = 2, 3) or chunks (r = 2..5).
        from repro.engine.core import default_engine, set_default_engine
        from repro.experiments.launchers import SerialLauncher

        set_default_engine(None)
        serial = run_scenario("soundness-scaling", path_lengths=path_lengths)
        pack = default_engine().export_operator_pack(source="parent")
        set_default_engine(None)  # the serial launcher evaluates on this engine
        launcher = SerialLauncher() if owned else "serial"
        if entry == "runner":
            runner = ExperimentRunner(
                ["soundness-scaling"],
                parallel=True,
                launcher=launcher,
                operator_pack=pack,
                overrides={"soundness-scaling": {"path_lengths": path_lengths}},
            )
            rows, stats = runner.run()["soundness-scaling"], runner.cache_stats
        else:
            result = run_sweep_sharded(
                "soundness-scaling",
                launcher=launcher,
                operator_pack=pack,
                path_lengths=path_lengths,
            )
            rows, stats = result.rows, result.worker_stats
        assert rows == serial
        assert stats["preloaded"] > 0
        assert stats["pack_hits"] > 0
