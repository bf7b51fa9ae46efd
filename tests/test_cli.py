"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, render_cli_markdown


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.sequence == 0
        assert args.variant == "fp32"
        assert args.particles == 4096

    def test_run_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--variant", "fp64"])

    def test_run_accepts_config_spec(self):
        args = build_parser().parse_args(
            ["run", "--variant", "fp16qm+sigma=0.15+r_max=2.0"]
        )
        assert args.variant == "fp16qm+r_max=2.0+sigma_obs=0.15"

    def test_variants_accept_config_specs(self):
        args = build_parser().parse_args(
            ["sweep", "--variants", "fp32,fp32+sigma=0.5"]
        )
        assert args.variants == ["fp32", "fp32+sigma_obs=0.5"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--variants", "fp32+warp=9"])

    def test_sweep_ablate_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--ablate", "sigma=1.0,2.0", "--ablate", "r_max=1.5"]
        )
        # Values stay raw strings; ConfigSpec coerces when the axes are
        # crossed into specs, so tuple-valued overrides parse too.
        assert args.ablate == [("sigma", ["1.0", "2.0"]), ("r_max", ["1.5"])]
        rows = build_parser().parse_args(
            ["sweep", "--ablate", "beam_rows=2/3,2/3/4/5"]
        )
        assert rows.ablate == [("beam_rows", ["2/3", "2/3/4/5"])]
        for bad in ("sigma", "warp=9", "sigma=fast", "sigma=", "beam_rows=9"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--ablate", bad])

    def test_campaign_shard_parses(self):
        args = build_parser().parse_args(
            ["campaign", "shard", "study", "--scenarios", "office:3",
             "--shards", "4", "--index", "2"]
        )
        assert args.shards == 4
        assert args.index == 2
        with pytest.raises(SystemExit):  # --shards is required
            build_parser().parse_args(
                ["campaign", "shard", "study", "--scenarios", "office:3"]
            )

    def test_sweep_parses_scenario_specs(self):
        args = build_parser().parse_args(
            ["sweep", "--scenarios", "office:3,maze:1:cells=7"]
        )
        assert [spec.id for spec in args.scenarios] == [
            "office:3",
            "maze:1:cells=7",
        ]

    def test_sweep_rejects_unknown_scenario_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--scenarios", "warehouse:1"])

    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_requires_scenarios(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "study"])

    def test_campaign_run_parses_grid(self):
        args = build_parser().parse_args(
            ["campaign", "run", "study", "--scenarios", "office:3",
             "--variants", "fp32", "--particles", "64,256", "--seeds", "0,1",
             "--jobs", "2", "--resume"]
        )
        assert args.name == "study"
        assert [spec.id for spec in args.scenarios] == ["office:3"]
        assert args.particles == [64, 256]
        assert args.seeds == (0, 1)
        assert args.jobs == 2
        assert args.resume is True

    def test_campaign_run_rejects_bad_seeds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "study", "--scenarios", "office:3",
                 "--seeds", "zero"]
            )


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "31.1" in out  # structured area
        assert "GAP9" in out

    def test_show_map(self, capsys):
        assert main(["show-map"]) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "." in out

    def test_perf(self, capsys):
        assert main(["perf"]) == 0
        out = capsys.readouterr().out
        assert "observation" in out
        assert "Table II" in out
        assert "61 mW" in out

    def test_run_small(self, capsys):
        # A tiny run on the cached sequence: exercises the full path.
        assert main(["run", "--sequence", "0", "--particles", "256", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "seq0" in out

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("maze", "office", "corridor", "hall", "degraded"):
            assert family in out

    def test_campaign_run_status_report(self, capsys):
        spec = "corridor:2:flight_s=6.0"
        base = ["campaign", "run", "cli-study", "--scenarios", spec,
                "--variants", "fp32", "--particles", "16", "--seeds", "0"]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "1 cells executed" in out

        # Second invocation with --resume skips the stored cell.
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 cells executed" in out
        assert "1 skipped" in out

        assert main(["campaign", "status", "cli-study"]) == 0
        out = capsys.readouterr().out
        assert "1/1 cells completed" in out

        assert main(["campaign", "report", "cli-study"]) == 0
        out = capsys.readouterr().out
        assert "success rate" in out
        assert spec in out

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "cli-study" in out

        # Merging a completed store into a fresh name copies it.
        assert main(["campaign", "merge", "cli-study-copy", "cli-study"]) == 0
        out = capsys.readouterr().out
        assert "1 cells copied" in out
        # Re-merging collides on byte-identical cells: verified, not copied.
        assert main(["campaign", "merge", "cli-study-copy", "cli-study"]) == 0
        out = capsys.readouterr().out
        assert "0 cells copied" in out
        assert "1 byte-verified" in out

    def test_campaign_shard_prints_split_and_round_trips(self, capsys):
        base = ["campaign", "shard", "cli-shard", "--scenarios",
                "corridor:2:flight_s=6.0", "--variants", "fp32",
                "--ablate", "sigma=1.0,4.0", "--particles", "16",
                "--seeds", "0", "--shards", "2"]
        # Without --index: print the deterministic assignment only.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 cells over 2 shards" in out
        # Execute both shards, then merge them back into the main name.
        for index in ("0", "1"):
            assert main(base + ["--index", index]) == 0
            out = capsys.readouterr().out
            assert "1 cells executed" in out
            assert f"cli-shard-shard{index}" in out
        for index in ("0", "1"):
            assert main(["campaign", "merge", "cli-shard",
                         f"cli-shard-shard{index}"]) == 0
        assert main(["campaign", "status", "cli-shard"]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells completed" in out

    def test_campaign_report_pivot_sigma(self, capsys):
        assert main(["campaign", "run", "cli-pivot", "--scenarios",
                     "corridor:2:flight_s=6.0", "--variants", "fp32",
                     "--ablate", "sigma=1.0,4.0", "--particles", "16",
                     "--seeds", "0"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "cli-pivot", "--pivot", "sigma"]) == 0
        lines = capsys.readouterr().out.splitlines()
        scenario = "corridor:2:flight_s=6.0"
        assert f"ATE (m) vs sigma — {scenario}" in lines
        assert f"success rate vs sigma — {scenario}" in lines
        # One base row, both ablated values as columns, in each table.
        table = [
            [cell.strip() for cell in line.split("|")]
            for line in lines
            if line.startswith(("config", "fp32"))
        ]
        header = ["config", "1.0", "4.0"]
        assert [row[0] for row in table] == ["config", "fp32 N=16"] * 2
        assert table[0] == table[2] == header
        assert all(cell.endswith("%") for cell in table[3][1:])

    def test_campaign_shard_rejects_bad_index(self, capsys):
        assert main(["campaign", "shard", "x", "--scenarios", "office:3",
                     "--shards", "2", "--index", "5"]) == 2
        assert "--index must be in [0, 2)" in capsys.readouterr().err

    def test_campaign_run_refuses_a_store_with_a_live_writer(self, capsys):
        from repro.common.errors import EvaluationError
        from repro.eval.store import CampaignStore

        base = ["campaign", "run", "cli-locked", "--scenarios",
                "corridor:2:flight_s=6.0", "--variants", "fp32",
                "--particles", "16", "--seeds", "0"]
        with CampaignStore("cli-locked") as live:
            live.recover()  # takes the writer lock
            with pytest.raises(EvaluationError, match="single-writer"):
                main(base)
        assert main(base) == 0
        assert "1 cells executed" in capsys.readouterr().out

    def test_campaign_list_and_compact_on_a_legacy_store(self, capsys):
        import shutil

        from repro.common.errors import EvaluationError
        from repro.eval.store import campaigns_root

        legacy = Path(__file__).parent / "eval" / "data" / "legacy_store"
        for name in ("cli-legacy", "cli-legacy-folded"):
            shutil.copytree(legacy, campaigns_root() / name)
        assert main(["campaign", "compact", "cli-legacy-folded"]) == 0
        cells = sorted(path.name for path in (legacy / "cells").glob("*.json"))
        assert capsys.readouterr().out.strip() == (
            "compacted campaign 'cli-legacy-folded': 4 files folded into "
            "segments, removed or repaired: " + ", ".join(cells)
        )
        assert main(["campaign", "compact", "cli-legacy-folded"]) == 0
        assert capsys.readouterr().out.strip() == (
            "compacted campaign 'cli-legacy-folded': 0 files folded into "
            "segments, removed or repaired"
        )
        # One store that was never recovered does not stop the listing:
        # its row names the command that folds it.
        assert main(["campaign", "list"]) == 0
        rows = {
            line.split("|")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
        }
        assert "repro campaign compact cli-legacy" in rows["cli-legacy"]
        assert "4/4" in rows["cli-legacy-folded"]
        with pytest.raises(EvaluationError, match="campaign compact cli-legacy"):
            main(["campaign", "status", "cli-legacy"])

    def test_campaign_run_folds_a_legacy_store(self, capsys):
        import shutil

        from repro.eval.store import campaigns_root

        legacy = Path(__file__).parent / "eval" / "data" / "legacy_store"
        root = campaigns_root() / "legacy"  # the name its manifest holds
        shutil.copytree(legacy, root)
        for index in range(10):  # torn writes are removed, and named too
            (root / "cells" / f"maze-s1-fp32-n16-{index:012x}.json").write_text('{"v": ')
        assert main(["campaign", "run", "legacy", "--scenarios",
                     "corridor:2:flight_s=6.0,office:1:flight_s=6.0",
                     "--variants", "fp32", "--particles", "16,32",
                     "--seeds", "0,1", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 cells executed, 4 skipped" in out
        (line,) = [line for line in out.splitlines() if "folded" in line]
        label = "recovered partial files and folded legacy cell files: "
        assert line.startswith(label) and line.endswith(" and 6 more")
        assert len(line[len(label) :].split(", ")) == 8
        assert not (root / "cells").exists()

    def test_serve_sim(self, capsys):
        fleet = "corridor:2:flight_s=6.0@fp32@32*2,office:2:flight_s=6.0@fp16qm@32*2~2"
        assert main(["serve-sim", "--fleet", fleet]) == 0
        out = capsys.readouterr().out
        assert "4 sessions" in out
        assert "sessions/s" in out
        assert "000.corridor:2:flight_s=6.0.fp32.n32.s0" in out

    def test_serve_sim_rejects_bad_fleet(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--fleet", "office@nope"])

    def test_serve_online_replay(self, capsys):
        fleet = "corridor:2:flight_s=6.0@fp32@32*2,office:2:flight_s=6.0@fp16qm@32*2~2"
        assert main(["serve-online", "--replay", fleet, "--connections", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 sessions" in out
        assert "000.corridor:2:flight_s=6.0.fp32.n32.s0" in out
        assert "step latency p50" in out

    def test_serve_online_rejects_bad_fleet(self):
        with pytest.raises(SystemExit):
            main(["serve-online", "--replay", "office@nope"])

    def test_scenarios_generate_and_sweep(self, capsys):
        # Generate once (cached by tests/conftest.py's tmp data dir),
        # then sweep the same spec — the sweep must reuse the cache.
        spec = "corridor:2:flight_s=8.0"
        assert main(["scenarios", "generate", spec]) == 0
        out = capsys.readouterr().out
        assert "corridor:2" in out
        assert "frames=" in out
        assert (
            main(["sweep", "--scenarios", spec, "--variants", "fp32",
                  "--particles", "32"])
            == 0
        )
        out = capsys.readouterr().out
        assert spec in out
        assert "success rate" in out


class TestObsCli:
    @pytest.fixture(autouse=True)
    def _clean_obs(self, monkeypatch):
        from repro import obs

        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        obs.reset()
        yield
        obs.reset()

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_report_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "report", "--format", "xml"])

    def test_obs_report_without_telemetry_is_empty(self, capsys):
        assert main(["obs", "report"]) == 0
        assert "(empty snapshot)" in capsys.readouterr().out

    def test_obs_report_renders_snapshot_file(self, tmp_path, capsys):
        from repro import obs

        registry = obs.Registry()
        registry.counter("engine.steps").inc(42)
        registry.histogram("serve.verb.submit").observe(0.002)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(registry.snapshot()))

        assert main(["obs", "report", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.steps" in out and "42" in out

        assert main(
            ["obs", "report", "--snapshot", str(path), "--format", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_steps counter" in out
        assert "repro_serve_verb_submit_count 1" in out

        assert main(
            ["obs", "report", "--snapshot", str(path), "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["counters"] == {
            "engine.steps": 42
        }

    def test_global_obs_flag_instruments_a_command(self, tmp_path, capsys):
        from repro import obs

        fleet = "corridor:2:flight_s=6.0@fp32@32*2"
        assert (
            main(["--obs-dir", str(tmp_path), "serve-sim", "--fleet", fleet])
            == 0
        )
        capsys.readouterr()
        # Same process: the registry is still live for `obs report`.
        assert main(["obs", "report", "--events", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "engine.steps" in out
        assert "serve.sched.tick" in out
        assert "cli.serve_sim" in out
        assert obs.enabled()


class TestCliReference:
    """docs/cli.md is generated; these tests are the local drift check."""

    def test_docs_cli_command_emits_markdown(self, capsys):
        assert main(["docs-cli"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# `repro` command-line reference")
        # every subcommand gets a section
        for command in ("run", "sweep", "campaign", "scenarios", "perf"):
            assert f"## `repro {command}`" in out

    def test_committed_reference_matches_parser(self):
        committed = (
            Path(__file__).resolve().parent.parent / "docs" / "cli.md"
        ).read_text()
        assert render_cli_markdown() == committed, (
            "docs/cli.md drifted from cli.py — regenerate with "
            "`PYTHONPATH=src python -m repro docs-cli > docs/cli.md`"
        )
