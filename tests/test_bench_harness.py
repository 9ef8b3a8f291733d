"""Tests for the experiment registry, runner and CLI."""

import pytest

from repro.bench.cli import main
from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentOutput,
    load_experiment,
    run_experiment,
)
from repro.util import Table


class TestRegistry:
    def test_all_experiments_importable(self):
        for name in EXPERIMENTS:
            mod = load_experiment(name)
            assert callable(mod.run)
            assert callable(mod.check)

    def test_every_paper_artifact_covered(self):
        for key in ("fig3", "fig5", "fig6", "table1", "table2", "table3",
                    "table4", "table5", "secva"):
            assert key in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            load_experiment("table99")


class TestQuickRuns:
    """Quick-mode runs of the cheap experiments, with their checks."""

    @pytest.mark.parametrize("name", ["fig3", "secva", "table4",
                                      "ablation-network"])
    def test_quick_run_and_render(self, name):
        out = run_experiment(name, quick=True)
        assert isinstance(out, ExperimentOutput)
        assert out.tables and all(isinstance(t, Table) for t in out.tables)
        text = out.render()
        assert name in text
        assert len(text.splitlines()) > 3

    def test_fig3_quick_check_passes(self):
        out = run_experiment("fig3", quick=True)
        load_experiment("fig3").check(out)

    def test_fig3_check_failure_names_the_claim(self):
        mod = load_experiment("fig3")
        out = run_experiment("fig3", quick=True)
        for ppn in mod.PPNS:
            out.values[(mod.MID_SIZE, ppn)] = 0.8 * mod.PEAK
        with pytest.raises(AssertionError, match="PPN=1 reaches 9600 MB/s"):
            mod.check(out)

    def test_fig6_quick_check_passes(self):
        out = run_experiment("fig6", quick=True)
        load_experiment("fig6").check(out)

    def test_table1_quick(self):
        out = run_experiment("table1", quick=True)
        # Quick mode restricts to 1hsg_70; the speedup band still holds.
        t3, t4, t5 = out.values["1hsg_70"]
        assert t5 > 1.1 * t4 >= 1.1 * 0.98 * t3


class TestExperimentOutput:
    def test_render_includes_notes(self):
        t = Table(["a"])
        t.add_row([1])
        out = ExperimentOutput(name="x", tables=[t], notes="important note")
        assert "important note" in out.render()

    def test_values_dict_roundtrip(self):
        out = ExperimentOutput(name="x", values={"k": 1})
        assert out.values["k"] == 1


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in captured

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_unknown_experiment_error(self, capsys):
        assert main(["not-a-thing"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_quick_with_check(self, capsys):
        rc = main(["secva", "--quick", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "qualitative checks PASSED" in out

    def test_csv_export(self, tmp_path, capsys):
        rc = main(["secva", "--quick", "--csv", str(tmp_path)])
        assert rc == 0
        files = list(tmp_path.glob("secva_*.csv"))
        assert files
        assert "Quantity" in files[0].read_text()


class TestExtensionExperiments:
    """Quick-mode runs of the extension/ablation experiments."""

    @pytest.mark.parametrize("name", ["alg12", "ext-cg", "ext-md",
                                      "ablation-multithread",
                                      "ablation-verify"])
    def test_quick_run_and_check(self, name):
        out = run_experiment(name, quick=True)
        load_experiment(name).check(out)
        assert out.tables

    def test_registry_complete(self):
        for key in ("alg12", "ext-cg", "ext-md", "ablation-collectives",
                    "ablation-multithread", "ablation-placement",
                    "ablation-network", "ablation-verify"):
            assert key in EXPERIMENTS


class TestPerfSimCore:
    """Non-timing properties of the perf microbenchmark (the timing gate
    itself runs in the CI perf job, not in unit tests)."""

    def test_storms_are_deterministic(self):
        from repro.bench.experiments.perf_sim_core import run_storm

        runs = [run_storm(8, 2, 16, 3, 100_000, 2) for _ in range(2)]
        assert runs[0].events_processed == runs[1].events_processed
        assert runs[0].events_cancelled == runs[1].events_cancelled
        assert runs[0].peak_heap_size == runs[1].peak_heap_size
        assert runs[0].now == runs[1].now
        assert runs[0].events_processed > 0

    def test_committed_baseline_schema(self):
        from repro.bench.experiments.perf_sim_core import WORKLOADS, load_baseline

        baseline = load_baseline()
        assert baseline is not None, "BENCH_sim_core.json missing from repo"
        assert baseline["ref_eps"] > 0
        for mode in ("quick", "full"):
            for side in ("pre", "post"):
                for name in WORKLOADS:
                    m = baseline[mode][side][name]
                    assert m["wall"] > 0 and m["events"] > 0

    def test_profile_flag(self, capsys):
        rc = main(["secva", "--quick", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile top-20" in out
        assert "cumulative" in out

    def test_sim_stats_attached_and_rendered(self):
        out = run_experiment("secva", quick=True)
        assert out.sim_stats["events_processed"] > 0
        assert "simulator cost:" in out.render()


class TestGridProtocol:
    """The sweep machinery behind ``run_experiment(..., jobs=N)``."""

    def test_protocol_detection(self):
        from repro.bench.harness import has_grid_protocol

        assert has_grid_protocol(load_experiment("table2"))
        assert has_grid_protocol(load_experiment("table1"))
        assert not has_grid_protocol(load_experiment("secva"))

    def test_point_seed_stable_and_distinct(self):
        from repro.bench.harness import point_seed

        assert point_seed("table2", 0) == point_seed("table2", 0)
        seeds = {point_seed("table2", i) for i in range(16)}
        assert len(seeds) == 16

    def test_merge_point_stats_semantics(self):
        from repro.bench.harness import _merge_point_stats

        eng = [
            {"events_processed": 10, "events_cancelled": 1,
             "peak_heap_size": 5, "heap_compactions": 2},
            {"events_processed": 20, "events_cancelled": 3,
             "peak_heap_size": 9, "heap_compactions": 0},
        ]
        pc = [
            {"hits": 6, "misses": 2, "evictions": 1, "entries": 2},
            {"hits": 3, "misses": 1, "evictions": 0, "entries": 1},
        ]
        merged = _merge_point_stats(eng, pc)
        assert merged["events_processed"] == 30
        assert merged["events_cancelled"] == 4
        assert merged["peak_heap_size"] == 9  # max, not sum
        assert merged["heap_compactions"] == 2
        assert merged["plan_cache"]["hits"] == 9
        assert merged["plan_cache"]["misses"] == 3
        assert merged["plan_cache"]["hit_rate"] == pytest.approx(0.75)

    def test_run_grid_point_is_isolated_and_ordered(self):
        from repro.bench.harness import _run_grid_point

        mod = load_experiment("table2")
        points = mod.grid(quick=True)
        idx, result, eng_stats, pc_stats, fab_stats = _run_grid_point(
            ("table2", 1, points[1], True)
        )
        assert idx == 1
        assert result > 0
        assert eng_stats["events_processed"] > 0
        # Per-point isolation: the cache was cleared before the point ran,
        # so every miss in the stats belongs to this point alone.
        assert pc_stats["misses"] > 0
        assert pc_stats["hits"] + pc_stats["misses"] > 0
        # Single-channel workload: all fabric traffic on lane 0.
        assert fab_stats["channel_messages"][0] > 0
        assert not any(fab_stats["channel_messages"][1:])

    def test_grid_order_matches_table_order(self):
        mod = load_experiment("table2")
        points = mod.grid(quick=True)
        assert points == sorted(points, key=lambda pt: points.index(pt))
        out = mod.assemble([float(i) for i in range(len(points))], quick=True)
        assert [out.values[pt] for pt in points] == [
            float(i) for i in range(len(points))
        ]


class TestAsciiRendering:
    def test_fig5_ascii(self, capsys):
        rc = main(["fig5", "--quick", "--ascii"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#" in out and "blocking" in out

    def test_non_bandwidth_experiment_no_chart(self, capsys):
        rc = main(["secva", "--quick", "--ascii"])
        assert rc == 0
