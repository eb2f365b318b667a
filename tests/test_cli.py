"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from repro.cli import _serve_flag_argv, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for experiment in ("table1", "figure1", "figure2", "sweep"):
            args = parser.parse_args(["campaign", experiment])
            assert args.command == "campaign"
            assert args.experiment == experiment
        assert parser.parse_args(["demo"]).command == "demo"

    @pytest.mark.parametrize("alias", ["table1", "figure1", "figure2"])
    def test_removed_experiment_aliases_exit_2(self, alias, capsys):
        # `repro campaign <experiment>` is the one way to run an experiment
        with pytest.raises(SystemExit) as excinfo:
            main([alias])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["serve"], ["campaign", "figure1"]], ids=["serve", "campaign"]
    )
    def test_parser_rejects_the_removed_engine_backend_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--engine-backend", "array"])
        assert excinfo.value.code == 2
        assert "--engine-backend" in capsys.readouterr().err

    def test_figure1_options(self):
        args = build_parser().parse_args(
            ["campaign", "figure1", "--platforms", "3", "--tasks", "50",
             "--panels", "1a", "1d", "--cluster"]
        )
        assert args.platforms == 3
        assert args.tasks == 50
        assert args.panels == ["1a", "1d"]
        assert args.cluster is True

    def test_demo_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--scheduler", "NOPE"])

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "figure1", "--workers", "4", "--cache-dir", "/tmp/c",
             "--platforms", "2", "--tasks", "50", "--panels", "1a"]
        )
        assert args.command == "campaign"
        assert args.experiment == "figure1"
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"

    def test_campaign_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "figure9"])


class TestMain:
    def test_table1_command(self, capsys):
        assert main(["campaign", "table1"]) == 0
        out = capsys.readouterr().out
        assert "communication-homogeneous" in out
        assert "1.2500" in out

    def test_figure1_command_small(self, capsys):
        code = main(
            ["campaign", "figure1", "--platforms", "1", "--tasks", "30", "--panels", "1a"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1 panel" in out
        assert "SLJFWC" in out

    def test_figure2_command_small(self, capsys):
        code = main(["campaign", "figure2", "--platforms", "1", "--tasks", "30"])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        code = main(["demo", "--scheduler", "LS", "--tasks", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "master" in out  # the Gantt chart

    def test_demo_mismatched_platform_lists(self, capsys):
        code = main(["demo", "--comm", "1.0", "--comp", "1.0", "2.0"])
        assert code == 2

    def test_campaign_figure1_parallel_matches_serial_and_caches(self, tmp_path, capsys):
        base = [
            "campaign", "figure1", "--platforms", "1", "--tasks", "30",
            "--panels", "1a", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(base + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        # Same grid with 2 workers: the cache now serves every cell, and the
        # report is byte-identical to the serial run.
        assert main(base + ["--workers", "2"]) == 0
        cached_out = capsys.readouterr().out
        assert cached_out == serial_out
        assert "Figure 1 panel" in serial_out

    def test_campaign_table1(self, capsys):
        assert main(["campaign", "table1"]) == 0
        assert "communication-homogeneous" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_is_single_sourced_from_the_package(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-scheduling {__version__}"


class TestServeCommand:
    def test_parser_accepts_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--batch-size", "8",
             "--cache-size", "100", "--ttl", "30", "--max-cost", "5000", "--quiet"]
        )
        assert args.command == "serve"
        assert args.batch_size == 8
        assert args.cache_size == 100
        assert args.ttl == 30.0
        assert args.max_cost == 5000
        assert args.quiet is True

    def test_parser_rejects_the_removed_workers_flag(self, capsys):
        # serve-side parallelism is --shards; only `campaign` keeps --workers
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err
        args = build_parser().parse_args(["serve", "--shards", "2"])
        assert args.shards == 2

    def test_parser_rejects_bad_bounds(self):
        for argv in (["serve", "--batch-size", "0"], ["serve", "--ttl", "-1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_parser_rejects_the_removed_max_queue_flag(self, capsys):
        # the dispatcher's queue has no length bound; --max-cost sheds
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-queue", "64"])
        assert "--max-queue" in capsys.readouterr().err

    def test_every_serve_option_reaches_the_shard_processes(self):
        # A shard child runs `serve --listen HOST:PORT --shards 1` plus
        # `_serve_flag_argv(args)`; every other option (the supervisor's
        # own --restart-* aside) must survive that re-encoding, or a
        # sharded server silently drops it.
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        serve = subparsers.choices["serve"]
        argv = ["serve"]
        for action in serve._actions:
            if action.dest in ("help", "listen", "shards") or action.dest.startswith(
                "restart_"
            ):
                continue
            argv.append(action.option_strings[-1])
            if action.nargs == 0:
                continue
            if action.default is not None:
                argv.append(str(action.default + 7))
            else:
                argv.append("7" if action.type is not None else "value")
        args = build_parser().parse_args(argv)
        child = build_parser().parse_args(
            ["serve", "--listen", "127.0.0.1:7000", "--shards", "1"]
            + _serve_flag_argv(args)
        )

        def forwarded(namespace):
            return {
                dest: value
                for dest, value in vars(namespace).items()
                if dest not in ("listen", "shards") and not dest.startswith("restart_")
            }

        defaults = forwarded(build_parser().parse_args(["serve"]))
        assert all(
            value != defaults[dest]
            for dest, value in forwarded(args).items()
            if dest != "command"
        )
        assert forwarded(child) == forwarded(args)

    def _request_line(self, seed=0, **extra):
        payload = {
            "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
            "tasks": 10,
            "scheduler": "LS",
            "seed": seed,
        }
        payload.update(extra)
        return json.dumps(payload)

    def test_serve_round_trip_on_stdin_stdout(self, capsys, monkeypatch):
        stream = "\n".join(
            [self._request_line(seed=0, id="a"), "not json",
             self._request_line(seed=0, id="b")]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["status"] for r in responses] == ["ok", "error", "ok"]
        assert responses[0]["metrics"] == responses[2]["metrics"]
        assert captured.err.splitlines() == [
            "service: 3 request(s) -> 2 ok, 1 invalid, 0 rejected, 0 failed; "
            "1 simulation(s), 1 coalesced, 0 cache hit(s), 2 miss(es)",
            "cache: 0 hit(s), 2 miss(es), 0 eviction(s), 0 expiration(s), "
            "1 resident, 0 warm hit(s)",
        ]

    def test_serve_summary_without_a_cache_counts_compute_misses(
        self, capsys, monkeypatch
    ):
        stream = "\n".join(self._request_line(seed=s % 2) for s in range(4))
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        assert main(["serve", "--cache-size", "0", "--batch-size", "1"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "service: 4 request(s) -> 4 ok, 0 invalid, 0 rejected, 0 failed; "
            "4 simulation(s), 0 coalesced, 0 cache hit(s), 4 miss(es)",
        ]

    def test_serve_summary_goes_to_stderr_not_stdout(self, capsys, monkeypatch):
        line = self._request_line(id="a")
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n" + line + "\n"))
        assert main(["serve", "--batch-size", "2"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert "service:" not in captured.out
        assert "service: 2 request(s)" in captured.err
        assert "cache:" in captured.err

    def test_serve_quiet_suppresses_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self._request_line() + "\n"))
        assert main(["serve", "--quiet"]) == 0
        assert capsys.readouterr().err == ""


class TestRequestCommand:
    def test_parser_rejects_the_removed_stats_flag(self, capsys):
        # shard health is part of the metrics payload: request --metrics
        with pytest.raises(SystemExit):
            build_parser().parse_args(["request", "--connect", "h:1", "--stats"])
        assert "--stats" in capsys.readouterr().err

    def test_metrics_query_requires_connect(self, capsys):
        assert main(["request", "--metrics"]) == 2
        assert "--metrics requires --connect" in capsys.readouterr().err

    def test_parser_accepts_request_options(self):
        args = build_parser().parse_args(
            ["request", "--scheduler", "srpt", "--tasks", "40", "--process",
             "poisson", "--rate", "2.0", "--seed", "9", "--id", "r1"]
        )
        assert args.command == "request"
        assert args.scheduler == "SRPT"  # case-folded by the parser
        assert args.process == "poisson"
        assert args.rate == 2.0

    def test_request_executes_and_prints_one_response(self, capsys):
        assert main(["request", "--tasks", "12", "--id", "r1"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["status"] == "ok"
        assert response["id"] == "r1"
        assert response["metrics"]["n_tasks"] == 12.0

    def test_request_emit_produces_a_servable_line(self, capsys, monkeypatch):
        assert main(["request", "--emit", "--tasks", "12", "--id", "r1"]) == 0
        line = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["serve", "--quiet"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["status"] == "ok"
        assert response["id"] == "r1"

    def test_request_emit_validates_before_emitting(self, capsys):
        # poisson without --rate must fail at emit time, not downstream.
        assert main(["request", "--emit", "--process", "poisson"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires field 'rate'" in captured.err

    def test_request_invalid_parameters_fail_cleanly(self, capsys):
        # poisson without --rate: schema validation rejects the request.
        assert main(["request", "--process", "poisson"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "error"
        assert "requires field 'rate'" in captured.err


class TestScenarioCommand:
    def test_parser_accepts_scenario_options(self):
        args = build_parser().parse_args(
            ["scenario", "node-failure", "--scheduler", "LS", "--tasks", "40",
             "--seed", "7", "--comm", "0.2", "0.5", "--comp", "1.0", "2.0"]
        )
        assert args.command == "scenario"
        assert args.name == "node-failure"
        assert args.scheduler == "LS"

    def test_list_shows_every_registered_scenario(self, capsys):
        from repro.scenarios import available_scenarios

        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out

    def test_bare_scenario_command_lists(self, capsys):
        assert main(["scenario"]) == 0
        assert "degrading-worker" in capsys.readouterr().out

    def test_run_one_scenario_all_heuristics(self, capsys):
        code = main(["scenario", "node-failure", "--tasks", "30", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worker 0 down" in out
        assert "worker 0 up" in out
        for heuristic in ("SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"):
            assert heuristic in out

    def test_run_is_deterministic(self, capsys):
        argv = ["scenario", "diurnal-load", "--tasks", "25", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["scenario", "no-such-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_mismatched_platform_lists_fail_cleanly(self, capsys):
        code = main(["scenario", "static", "--comm", "1.0", "--comp", "1.0", "2.0"])
        assert code == 2

    def test_figure1_scenario_flag(self, capsys):
        code = main(
            ["campaign", "figure1", "--platforms", "1", "--tasks", "30",
             "--panels", "1a", "--scenario", "degrading-worker"]
        )
        assert code == 0
        assert "scenario degrading-worker" in capsys.readouterr().out

    def test_figure1_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "figure1", "--scenario", "nope"])
