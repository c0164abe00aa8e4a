"""Tests for the command-line interface."""

import pytest

from repro.cli import CONFIGS, EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self, monkeypatch):
        from repro.harness.runner import default_scale

        args = build_parser().parse_args(["run", "gups"])
        assert args.config == "baseline"
        # Scale and seed defer to REPRO_SCALE (then 1.0) and the catalog.
        assert args.scale is None and args.seed is None
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() == 1.0

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_figure_names_cover_all_eval_figures(self):
        for name in ["fig5", "fig16", "fig24", "table4", "sec5.2"]:
            assert name in EXPERIMENTS

    def test_config_names(self):
        assert {"baseline", "softwalker", "hybrid", "ideal"} <= set(CONFIGS)


class TestCommands:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spmv" in out and "gemm" in out

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "gemm", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "MSHR failures" in out

    def test_run_softwalker_config(self, capsys):
        assert main(["run", "gups", "--config", "softwalker", "--scale", "0.1"]) == 0
        assert "gups" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "gups", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "softwalker" in out and "speedup" in out

    def test_figure_static_table(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_figure_with_save(self, tmp_path, capsys):
        assert main(["figure", "sec5.2", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "sec52_hw_overhead.txt").exists()


def printed_cycles(out: str) -> int:
    """The cycle count from `repro run`'s metric table."""
    line = next(line for line in out.splitlines() if line.startswith("cycles "))
    return int(line.split()[1])


class TestObservabilityCommands:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["run", "gups"])
        assert args.trace is None and args.jsonl is None
        assert args.metrics is None and args.profile is None
        args = build_parser().parse_args(["run", "gups", "--trace", "t.json"])
        assert args.trace == "t.json"

    def test_metrics_parser_defaults(self):
        args = build_parser().parse_args(["run", "gups", "--metrics", "m.json"])
        assert args.metrics == "m.json"
        assert args.interval == 1000
        assert args.top == 15

    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        argv = ["run", "gups", "--scale", "0.02", "--trace", str(out)]
        assert main([*argv, "--jsonl", str(jsonl)]) == 0
        printed = capsys.readouterr().out
        assert "walk component" in printed
        assert "queueing" in printed
        validate_chrome_trace(json.loads(out.read_text()))
        assert jsonl.read_text().strip()

    def test_jsonl_needs_trace(self, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        assert main(["run", "gups", "--jsonl", str(jsonl)]) == 2
        assert "--jsonl needs --trace" in capsys.readouterr().err
        assert not jsonl.exists()

    def test_metrics_writes_series_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run",
                    "gups",
                    "--config",
                    "softwalker",
                    "--scale",
                    "0.02",
                    "--metrics",
                    str(out),
                    "--interval",
                    "500",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "distributor.in_flight" in printed
        loaded = json.loads(out.read_text())
        assert loaded["samples_taken"] > 0
        assert "l2tlb.hit_rate" in loaded["series"]

    def test_profile_prints_package_table_and_writes_pstats(
        self, tmp_path, capsys
    ):
        import pstats

        out = tmp_path / "gups.prof"
        assert main(["run", "gups", "--scale", "0.02", "--profile", str(out)]) == 0
        printed = capsys.readouterr().out
        table = printed.split("self time under cProfile")[1]
        table = table.split("top 15 functions")[0]
        package_rows = {line.split()[0] for line in table.splitlines()[1:] if line}
        assert {"memory", "tlb"} <= package_rows
        assert pstats.Stats(str(out)).total_calls > 0

    @pytest.mark.parametrize("flag", ["--interval", "--top"])
    def test_instrument_knobs_below_one_rejected(self, flag, capsys):
        assert main(["run", "gups", flag, "0"]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    def test_every_instrument_on_one_run(self, tmp_path, capsys):
        """Trace, metrics and profile ride the same simulation, which
        runs the cycles of an uninstrumented one."""
        import json
        import pstats

        from repro.obs import validate_chrome_trace

        assert main(["run", "gups", "--scale", "0.02"]) == 0
        plain = printed_cycles(capsys.readouterr().out)
        trace, jsonl = tmp_path / "t.json", tmp_path / "e.jsonl"
        metrics, profile = tmp_path / "m.json", tmp_path / "p.prof"
        argv = [
            "run", "gups", "--scale", "0.02",
            "--trace", str(trace), "--jsonl", str(jsonl),
            "--metrics", str(metrics), "--profile", str(profile),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed_cycles(printed) == plain
        for heading in ("walk component", "gauge", "self time under cProfile"):
            assert heading in printed
        validate_chrome_trace(json.loads(trace.read_text()))
        assert jsonl.read_text().strip()
        assert json.loads(metrics.read_text())["samples_taken"] > 0
        assert pstats.Stats(str(profile)).total_calls > 0

    def test_inline_config_file_can_be_traced(self, tmp_path, capsys):
        import json

        from repro.config import softwalker_config
        from repro.obs import validate_chrome_trace

        config = tmp_path / "sw.json"
        config.write_text(json.dumps(softwalker_config().to_dict()))
        trace = tmp_path / "t.json"
        argv = ["run", "gups", "--scale", "0.02", "--trace", str(trace)]
        assert main([*argv, "--config", f"@{config}"]) == 0
        by_file = capsys.readouterr().out
        assert "walk component" in by_file
        validate_chrome_trace(json.loads(trace.read_text()))
        assert main([*argv, "--config", "softwalker"]) == 0
        assert printed_cycles(by_file) == printed_cycles(capsys.readouterr().out)


class TestResilienceCommands:
    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["run", "gups"])
        assert args.config == "baseline"
        assert args.chaos is None
        assert args.audit_every == 2000
        # A bare --chaos is the default plan under fault-plan seed 0.
        args = build_parser().parse_args(["run", "gups", "--chaos"])
        assert args.chaos == "0"
        args = build_parser().parse_args(["run", "gups", "--chaos", "7"])
        assert args.chaos == "7"

    def test_chaos_runs_clean(self, capsys):
        assert main(["run", "gups", "--scale", "0.05", "--chaos"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "invariant violations" in out
        assert "replay seed" in out
        assert "plan seed 0" in out

    def test_chaos_with_explicit_plan_file(self, tmp_path, capsys):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(
            seed=9, faults=(FaultSpec(kind="dram_spike", time=100, duration=200),)
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        argv = ["run", "gups", "--scale", "0.05", "--chaos", f"@{path}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan seed 9" in out
        assert "dram_spike" in out

    @pytest.mark.parametrize(
        "token", ["@missing.json", "@bad.json", "@list.json", "seven"]
    )
    def test_bad_chaos_plan_rejected(self, token, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text('{"faults": [{"kind": "meteor"}]}')
        (tmp_path / "list.json").write_text("[]")
        assert main(["run", "gups", "--chaos", token]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_rejects_bad_audit_interval(self, capsys):
        assert main(["run", "gups", "--chaos", "--audit-every", "0"]) == 2

    def test_invariant_violation_exits_one(self, monkeypatch, capsys):
        import repro.harness.runner as runner
        from repro.resilience import InvariantViolation

        def violated(*_args, **_kwargs):
            raise InvariantViolation(["planted"], {"engine": {"now": 5}})

        # cmd_run imports simulate when it runs, from its module.
        monkeypatch.setattr(runner, "simulate", violated)
        assert main(["run", "gups", "--chaos"]) == 1
        assert "INVARIANT VIOLATION" in capsys.readouterr().err


class TestSweepAndConfigsEntryPoints:
    """Exit codes, progress output, and cache telemetry for the batch
    entry points (`repro sweep`, `repro configs`)."""

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.configs == "baseline,softwalker"
        assert args.jobs is None and args.store is None

    def test_configs_lists_registry(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "softwalker" in out
        assert "description" in out

    def test_sweep_prints_progress_and_cache_telemetry(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--configs",
                    "baseline,softwalker",
                    "--benchmarks",
                    "gups",
                    "--scale",
                    "0.05",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out  # progress lines
        assert "speedup" in out and "fingerprint" in out
        assert "cache: 2 simulations" in out
        assert "2 entries" in out and "bytes" in out  # store telemetry

    def test_sweep_second_run_hits_disk(self, tmp_path, capsys):
        argv = [
            "sweep", "--configs", "baseline", "--benchmarks", "gups",
            "--scale", "0.05", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0 simulations" in out
        assert "1 disk hits" in out

    def test_sweep_rejects_unknown_config(self, capsys):
        assert main(["sweep", "--configs", "warp-drive"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_sweep_rejects_unknown_benchmark(self, capsys):
        assert main(["sweep", "--benchmarks", "doom"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_console_entry_points_exit_codes(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(
                    None,
                    [os.path.abspath("src"), os.environ.get("PYTHONPATH")],
                )
            ),
        )
        ok = subprocess.run(
            [sys.executable, "-m", "repro", "configs"],
            env=env, capture_output=True, text=True,
        )
        assert ok.returncode == 0 and "baseline" in ok.stdout
        bad = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--configs", "nope"],
            env=env, capture_output=True, text=True,
        )
        assert bad.returncode == 2 and "unknown configuration" in bad.stderr
        usage = subprocess.run(
            [sys.executable, "-m", "repro"],
            env=env, capture_output=True, text=True,
        )
        assert usage.returncode == 2 and "usage" in usage.stderr


class TestServiceParsers:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.socket is None and args.max_inflight is None

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "gups"])
        assert args.config == "baseline"
        assert args.priority == "normal"
        assert not args.wait and not args.stream

    def test_submit_rejects_bad_priority(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "gups", "--priority", "asap"])

    def test_jobs_parser(self):
        args = build_parser().parse_args(["jobs", "--stats"])
        assert args.stats is True

    def test_submit_against_dead_socket_fails_cleanly(self, tmp_path, capsys):
        assert (
            main(["submit", "gups", "--socket", str(tmp_path / "none.sock")])
            == 1
        )
        assert "error" in capsys.readouterr().err

    def test_jobs_against_dead_socket_fails_cleanly(self, tmp_path, capsys):
        assert main(["jobs", "--socket", str(tmp_path / "none.sock")]) == 1
        assert "error" in capsys.readouterr().err


class TestSweepSample:
    def test_parser_accepts_sample(self):
        args = build_parser().parse_args(["sweep", "--sample", "3", "--seed", "7"])
        assert args.sample == 3 and args.seed == 7

    def test_sampled_sweep_runs_subset(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--configs", "baseline,softwalker",
                    "--benchmarks", "gups,bfs",
                    "--scale", "0.03",
                    "--sample", "2",
                    "--seed", "1",
                    "--store", str(tmp_path / "store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sampled 2/4 points" in out

    def test_sample_is_seed_deterministic(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--configs", "baseline,softwalker",
            "--benchmarks", "gups,bfs",
            "--scale", "0.03",
            "--sample", "2",
            "--seed", "1",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out

        def rows(text):
            return [
                line for line in text.splitlines()
                if "|" in line and ("baseline" in line or "softwalker" in line)
            ]

        assert rows(first) == rows(second)

    def test_oversample_rejected(self, capsys):
        assert main(["sweep", "--sample", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestExploreCommand:
    def space_file(self, tmp_path):
        import json

        path = tmp_path / "space.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "base": "baseline",
                    "dimensions": [
                        {
                            "kind": "categorical",
                            "path": "ptw.num_walkers",
                            "values": [8, 32],
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["explore", "--space", "s.json"])
        assert args.rungs == "0.25:0.34,0.5:0.5,1"
        assert args.out == "explore.json"
        assert not args.fresh

    def test_explore_end_to_end_with_reports(self, tmp_path, capsys):
        import json

        out = tmp_path / "explore.json"
        assert (
            main(
                [
                    "explore",
                    "--space", self.space_file(tmp_path),
                    "--benchmarks", "gups",
                    "--scale", "0.03",
                    "--rungs", "0.5:0.5:4000,1",
                    "--store", str(tmp_path / "store"),
                    "--out", str(out),
                    "--report", str(tmp_path / "explore.md"),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "Pareto front" in printed
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["version"] == 1
        assert (tmp_path / "explore.md").exists()
        assert (tmp_path / "explore.html").exists()
        assert (tmp_path / "explore.json.state.json").exists()

    def test_unknown_benchmark_rejected(self, tmp_path, capsys):
        assert (
            main(
                ["explore", "--space", self.space_file(tmp_path),
                 "--benchmarks", "nope"]
            )
            == 2
        )
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bad_space_file_rejected(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"version": 1, "base": "baseline", "dimensionss": []}),
            encoding="utf-8",
        )
        assert main(["explore", "--space", str(path)]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_bad_rungs_rejected(self, tmp_path, capsys):
        assert (
            main(
                ["explore", "--space", self.space_file(tmp_path),
                 "--rungs", "0.5:0.5"]
            )
            == 2
        )
        assert "final rung" in capsys.readouterr().err
