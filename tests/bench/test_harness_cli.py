"""Harness scenario registry + ``python -m repro.bench`` exit codes."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import (QUICK_ROUNDS, available_scenarios,
                                 calibration_score, get_scenario,
                                 measure_scenario)
from repro.bench.results import bench_path, load_bench, write_bench
from repro.errors import ConfigurationError
from tests.bench.test_compare import record_with


class TestRegistry:
    def test_quick_subset(self):
        assert available_scenarios(quick=True) == ["hier", "hier_wide",
                                                   "incast", "fabric"]
        full = available_scenarios(quick=False)
        assert set(full) >= {"hier", "incast", "fabric", "backend",
                             "analyze"}

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            get_scenario("warp-drive")

    def test_calibration_score_positive(self):
        assert calibration_score(10_000) > 0


class TestMeasureScenario:
    def test_hier_record_is_schema_valid(self):
        record = measure_scenario("hier", quick=True, rounds=1,
                                  run_date="2026-08-08")
        assert record["scenario"] == "hier"
        assert record["metrics"]["normalized"]["gated"] is True
        assert record["metrics"]["raw_rate"]["gated"] is False
        assert record["counts"]["packets"] > 0
        attribution = record["attribution"]
        assert attribution is not None
        assert 0.0 <= attribution["attributed_fraction"] <= 1.0
        assert record["provenance"]["run_date"] == "2026-08-08"

    def test_no_profile_skips_attribution(self):
        record = measure_scenario("hier", quick=True, rounds=1,
                                  profile=False,
                                  run_date="2026-08-08")
        assert record["attribution"] is None

    def test_default_rounds_follow_quick(self):
        record = measure_scenario("hier", quick=True, profile=False,
                                  run_date="2026-08-08")
        assert record["provenance"]["rounds"] == QUICK_ROUNDS
        assert len(record["metrics"]["normalized"]["samples"]) \
            == QUICK_ROUNDS

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            measure_scenario("hier", rounds=0)

    @pytest.mark.parametrize("name,count_key",
                             [("backend", "ops"), ("analyze", "events")])
    def test_full_scenarios_measure(self, name, count_key):
        record = measure_scenario(name, rounds=1, profile=False,
                                  run_date="2026-08-08")
        assert record["scenario"] == name
        assert record["metrics"]["normalized"]["gated"] is True
        assert record["counts"][count_key] > 0

    def test_fabric_scenario_measures_multi_switch_work(self):
        record = measure_scenario("fabric", rounds=1, profile=False,
                                  run_date="2026-08-08")
        assert record["scenario"] == "fabric"
        assert record["metrics"]["normalized"]["gated"] is True
        assert record["counts"]["hop_arrivals"] > 0
        assert record["counts"]["completed"] > 0

    def test_hier_wide_scenario_runs_4000_flows(self):
        rate, counts = get_scenario("hier_wide").run(True)
        assert rate > 0
        # Every one of the 4,000 flows starts with two queued packets;
        # a run that served only the start-up backlog measures set-up,
        # not the per-packet scheduler cost the scenario is for.
        assert counts["packets"] > 2 * 4_000


class TestCli:
    def test_run_writes_bench_files(self, tmp_path, capsys):
        code = main(["bench", "run", "--quick", "--rounds", "1",
                     "--scenario", "hier", "--no-profile",
                     "--out-dir", str(tmp_path),
                     "--run-date", "2026-08-08"])
        assert code == 0
        record = load_bench(bench_path(tmp_path, "hier"))
        assert record["provenance"]["quick"] is True
        assert "hier: normalized" in capsys.readouterr().out

    def test_compare_ok(self, tmp_path, capsys):
        for directory in ("base", "cur"):
            (tmp_path / directory).mkdir()
            write_bench(bench_path(tmp_path / directory, "hier"),
                        record_with(100.0))
        code = main(["bench", "compare",
                     "--baseline-dir", str(tmp_path / "base"),
                     "--current-dir", str(tmp_path / "cur"),
                     "--scenario", "hier"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_regression_exit_one(self, tmp_path, capsys):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        write_bench(bench_path(tmp_path / "base", "hier"),
                    record_with(100.0))
        write_bench(bench_path(tmp_path / "cur", "hier"),
                    record_with(10.0))
        code = main(["bench", "compare",
                     "--baseline-dir", str(tmp_path / "base"),
                     "--current-dir", str(tmp_path / "cur"),
                     "--scenario", "hier"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_compare_missing_baseline_exit_two(self, tmp_path, capsys):
        (tmp_path / "cur").mkdir()
        write_bench(bench_path(tmp_path / "cur", "hier"),
                    record_with(100.0))
        code = main(["bench", "compare",
                     "--baseline-dir", str(tmp_path / "nowhere"),
                     "--current-dir", str(tmp_path / "cur"),
                     "--scenario", "hier"])
        assert code == 2
        assert "no such BENCH" in capsys.readouterr().err

    def test_report_pretty_prints(self, tmp_path, capsys):
        write_bench(bench_path(tmp_path, "hier"), record_with(100.0))
        code = main(["bench", "report", "--dir", str(tmp_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "== hier" in output
        assert "[gated]" in output

    def test_report_prints_attribution_block(self, tmp_path, capsys):
        record = record_with(100.0)
        record["attribution"] = {
            "interval_s": 0.002, "samples": 50,
            "components": {"sim.events": 0.06, "core.pieo": 0.04},
            "attributed_fraction": 1.0, "overhead_s": 0.001,
        }
        write_bench(bench_path(tmp_path, "hier"), record)
        code = main(["bench", "report", "--dir", str(tmp_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "attribution (50 samples" in output
        assert "sim.events" in output

    def test_report_empty_dir_errors(self, tmp_path, capsys):
        code = main(["bench", "report", "--dir", str(tmp_path)])
        assert code == 2
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_report_malformed_file_errors(self, tmp_path, capsys):
        bench_path(tmp_path, "hier").write_text("{broken")
        code = main(["bench", "report", "--dir", str(tmp_path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_list_names_scenarios(self, capsys):
        assert main(["bench", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("hier", "incast", "backend", "analyze"):
            assert name in output

    def test_unknown_scenario_exit_two(self, tmp_path, capsys):
        code = main(["bench", "run", "--scenario", "warp-drive",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown bench" in capsys.readouterr().err

    def test_bad_rounds_exit_two(self, tmp_path, capsys):
        code = main(["bench", "run", "--rounds", "0",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--rounds" in capsys.readouterr().err

    def test_bench_json_is_sorted_and_stable(self, tmp_path):
        write_bench(bench_path(tmp_path, "hier"), record_with(100.0))
        text = bench_path(tmp_path, "hier").read_text()
        record = json.loads(text)
        assert list(record) == sorted(record)
