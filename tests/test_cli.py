"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("storage", "energy", "pruned", "ablation", "train",
                        "serve-bench", "serve", "all"):
            args = parser.parse_args([command] if command != "train" else [command, "--fast"])
            assert args.command == command
        assert parser.parse_args(["export", "--store", "s"]).command == "export"

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_storage_max_tasks_argument(self):
        args = build_parser().parse_args(["storage", "--max-tasks", "4"])
        assert args.max_tasks == 4

    def test_serve_arguments(self):
        args = build_parser().parse_args([
            "serve", "--policy", "weighted-fair", "--workers", "4",
            "--rate", "250", "--max-wait", "0.02", "--scenario", "skewed",
        ])
        assert args.policy == "weighted-fair"
        assert args.workers == 4
        assert args.rate == 250.0
        assert args.max_wait == 0.02
        assert args.scenario == "skewed"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])


class TestCommands:
    def test_storage_command_prints_table(self, capsys):
        assert main(["storage", "--max-tasks", "3"]) == 0
        output = capsys.readouterr().out
        assert "DRAM storage" in output
        assert "saving" in output

    def test_pruned_command_prints_crossover(self, capsys):
        assert main(["pruned"]) == 0
        output = capsys.readouterr().out
        assert "conv13" in output
        assert "MIME wins" in output

    def test_ablation_command_prints_ratios(self, capsys):
        assert main(["ablation"]) == 0
        output = capsys.readouterr().out
        assert "PE 256" in output
        assert "middle-layer mean" in output

    def test_energy_command_prints_all_three_figures(self, capsys):
        assert main(["energy"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 5" in output and "Fig. 6" in output and "Fig. 7" in output

    def test_serve_command_prints_report_and_hardware_estimate(self, capsys):
        assert main([
            "serve", "--requests", "12", "--rate", "2000", "--workers", "2",
            "--micro-batch", "4", "--tasks", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "policy=fifo-deadline backend=thread workers=2" in output
        assert "images/sec" in output
        assert "p50/p95/p99" in output
        assert "systolic-array estimate" in output


class TestBackendFlags:
    def test_parser_accepts_backend_arguments(self):
        args = build_parser().parse_args(["serve", "--backend", "process", "--workers", "4"])
        assert args.backend == "process" and args.workers == 4
        args = build_parser().parse_args(["serve-bench", "--backend", "thread"])
        assert args.backend == "thread" and args.workers == 2
        assert build_parser().parse_args(["serve"]).backend == "thread"
        assert build_parser().parse_args(["serve-bench"]).backend == "engine"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "engine"])  # serve is online-only
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--backend", "bogus"])

    def test_serve_bench_thread_backend_prints_serving_report(self, capsys):
        assert main([
            "serve-bench", "--backend", "thread", "--workers", "2",
            "--requests", "16", "--micro-batch", "4", "--tasks", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "backend=thread workers=2" in output
        assert "images/sec" in output

    def test_serve_bench_process_latency_excludes_worker_boot(self, tmp_path):
        """Requests are submitted after the workers are up: every latency,
        hence the median, fits inside the measured drain window."""
        import json

        out = tmp_path / "BENCH_serving.json"
        assert main([
            "serve-bench", "--backend", "process", "--workers", "1",
            "--requests", "16", "--micro-batch", "4", "--tasks", "2",
            "--json", str(out),
        ]) == 0
        report = json.loads(out.read_text())["entries"][0]["report"]
        assert report["completed"] == 16
        assert 0 < report["latency"]["p50"] <= report["duration"]


class TestSpecializationFlags:
    def test_parser_accepts_specialization_arguments(self):
        args = build_parser().parse_args([
            "serve-bench", "--dead-fraction", "0.5", "--specialize",
            "--dead-threshold", "0.1",
        ])
        assert args.dead_fraction == 0.5
        assert args.specialize
        assert args.dead_threshold == 0.1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--specialize", "--exact-specialize"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--specialize", "--dynamic"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--dead-fraction", "1.5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dead-threshold", "-0.1"])

    def test_serve_bench_with_specialization(self, capsys):
        assert main([
            "serve-bench", "--requests", "12", "--micro-batch", "4",
            "--tasks", "2", "--dead-fraction", "0.5", "--specialize",
        ]) == 0
        output = capsys.readouterr().out
        assert "specialized plan for task0" in output
        assert "engine (pipelined+specialized)" in output
        assert "effective MACs" in output
        assert "% avoided in software" in output

    def test_serve_with_specialization(self, capsys):
        assert main([
            "serve", "--requests", "12", "--rate", "2000", "--workers", "2",
            "--micro-batch", "4", "--tasks", "2", "--dead-fraction", "0.5",
            "--specialize",
        ]) == 0
        output = capsys.readouterr().out
        assert "specialized plan for task0" in output
        assert "% avoided in software" in output


class TestLifecycleCommands:
    def test_export_publishes_a_verifiable_version(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main([
            "export", "--store", str(store_dir), "--tasks", "2",
            "--dead-fraction", "0.5", "--specialize", "--name", "demo",
        ]) == 0
        output = capsys.readouterr().out
        assert "published 'demo' as version v001" in output
        from repro.artifacts import ModelStore

        store = ModelStore(store_dir)
        assert store.versions() == ["v001"]
        manifest = store.verify("v001")
        assert manifest["specialized_tasks"] == ["task0", "task1"]

    def test_serve_from_artifact_with_recalibration(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main(["export", "--store", str(store_dir), "--tasks", "2",
                     "--dead-fraction", "0.5", "--specialize"]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--artifact", str(store_dir), "--requests", "12",
            "--rate", "2000", "--workers", "2", "--micro-batch", "4",
            "--recalibrate", "--recalibrate-min-images", "512", "--specialize",
        ]) == 0
        output = capsys.readouterr().out
        assert "artifact 'mime'" in output
        assert "--specialize/--kernels/--int8) are ignored" in output
        assert "recalibration events" in output
        assert "insufficient traffic" in output  # min-images far above the run

    def test_serve_bench_json_appends_trajectory_entry(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_serving.json"
        assert main([
            "serve-bench", "--backend", "thread", "--workers", "2",
            "--requests", "16", "--micro-batch", "4", "--tasks", "2",
            "--json", str(out),
        ]) == 0
        assert main([
            "serve-bench", "--requests", "12", "--micro-batch", "4",
            "--tasks", "2", "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["entries"]) == 2
        runtime_entry, engine_entry = payload["entries"]
        assert runtime_entry["backend"] == "thread"
        assert runtime_entry["report"]["completed"] == 16
        assert runtime_entry["report"]["throughput"] > 0
        assert engine_entry["backend"] == "engine"
        assert any(row["path"] == "training forward" for row in engine_entry["paths"])
