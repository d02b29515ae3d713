"""CLI tests: simulate / report / replay / inspect / bench."""

import os
import re
import time

import pytest

from repro.cli import main
from repro.errors import TracError


@pytest.fixture
def grid_db(tmp_path):
    db = str(tmp_path / "grid.sqlite")
    logs = str(tmp_path / "logs")
    code = main(
        [
            "simulate",
            "--db",
            db,
            "--machines",
            "6",
            "--duration",
            "200",
            "--seed",
            "4",
            "--archive",
            logs,
        ]
    )
    assert code == 0
    return db, logs


@pytest.fixture
def deployments(monkeypatch):
    """Every ``Deployment`` a CLI run starts, so a test can ``stop()`` one the
    way SIGTERM would (an in-process ``main`` cannot be signalled)."""
    from repro.deploy import Deployment

    started = []
    real_init = Deployment.__init__
    monkeypatch.setattr(
        Deployment,
        "__init__",
        lambda self, *args, **kwargs: (real_init(self, *args, **kwargs), started.append(self))[0],
    )
    return started


def serve_in_thread(argv, capsys):
    """Run ``main(argv)`` on a thread; returns ``(thread, result, url)`` once the
    run has announced the URL it serves on."""
    import threading
    import time

    result = {}
    thread = threading.Thread(target=lambda: result.update(code=main(argv)), daemon=True)
    thread.start()
    url, deadline = None, time.monotonic() + 60.0
    while url is None and time.monotonic() < deadline and thread.is_alive():
        for line in capsys.readouterr().out.splitlines():
            if " on http://" in line:
                url = line.split(" on ", 1)[1].split()[0]
        time.sleep(0.02)
    assert url, f"{argv[0]} never announced its URL"
    return thread, result, url


def post_query(url, sql):
    import json
    import urllib.request

    request = urllib.request.Request(url + "/v1/query", data=json.dumps({"sql": sql}).encode())
    with urllib.request.urlopen(request, timeout=10.0) as response:
        assert response.status == 200
        return json.loads(response.read())


class TestSimulate:
    def test_creates_database_and_archive(self, grid_db, capsys):
        db, logs = grid_db
        assert os.path.exists(db)
        assert len(os.listdir(logs)) == 6

    def test_output_mentions_tables(self, tmp_path, capsys):
        db = str(tmp_path / "g.sqlite")
        main(["simulate", "--db", db, "--machines", "3", "--duration", "50"])
        out = capsys.readouterr().out
        assert "activity" in out
        assert "heartbeat" in out

    def test_faults_plan_prints_supervision_summary(self, tmp_path, capsys):
        plan = tmp_path / "faults.json"
        plan.write_text(
            '{"seed": 11, "faults": ['
            '{"kind": "silence", "source": "m3", "start": 100},'
            '{"kind": "poll_error", "source": "m2", "probability": 0.2}]}'
        )
        db = str(tmp_path / "g.sqlite")
        code = main(
            [
                "simulate",
                "--db",
                db,
                "--machines",
                "6",
                "--duration",
                "400",
                "--seed",
                "4",
                "--faults",
                str(plan),
                "--silence-timeout",
                "90",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supervision:" in out
        assert "faults injected:" in out
        assert "degraded sources: m3" in out

    #: The durability kinds: what only the WAL and the checkpoint writer ask for.
    DURABILITY_PLAN = (
        '{"faults": ['
        '{"kind": "checkpoint_write", "source": "*", "probability": 1.0},'
        '{"kind": "wal_append", "source": "m2", "probability": 0.5}]}'
    )

    def test_faults_reach_the_wal_and_the_checkpoint_writer(self, tmp_path, capsys):
        plan = tmp_path / "faults.json"
        plan.write_text(self.DURABILITY_PLAN)
        code = main(
            [
                "simulate", "--db", str(tmp_path / "g.sqlite"), "--machines", "4",
                "--seed", "3", "--duration", "200", "--data-dir", str(tmp_path / "d"),
                "--checkpoint-interval", "50", "--faults", str(plan),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        failed = re.search(r"(\d+) checkpoint\(s\) \((\d+) failed\)", out)
        assert failed and int(failed.group(2)) >= 1
        assert int(re.search(r"m2 +\S+ +retries=(\d+)", out).group(1)) > 0
        injected = re.search(r"faults injected: (.*)", out).group(1)
        assert "wal_append=" in injected and "checkpoint_write=" in injected

    def test_shard_serve_faults_reach_the_wal_and_the_checkpoint_writer(self, tmp_path):
        from repro.federation.process import launch_shard
        from repro.federation.rpc import call

        plan = tmp_path / "faults.json"
        plan.write_text(self.DURABILITY_PLAN)
        shard = launch_shard(
            "s0", machines=4, seed=3, data_dir=str(tmp_path / "d"), fsync="never",
            faults=str(plan),
            extra_args=["--checkpoint-interval", "20", "--step-interval", "0.001"],
        )
        try:
            deadline = time.monotonic() + 20.0
            while True:
                status = call(shard.host, shard.port, {"op": "status"})
                injected = status["faults_injected"]
                if "wal_append" in injected and "checkpoint_write" in injected:
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.05)
            assert status["durability"]["checkpoint_failures"] >= 1
            assert status["durability"]["checkpoints_written"] == 0
        finally:
            assert shard.terminate() == 0

    @pytest.mark.parametrize("timeout", ["0", "-5"])
    def test_a_non_positive_silence_timeout_is_one_error_line(self, tmp_path, capsys, timeout):
        db = str(tmp_path / "g.sqlite")
        with pytest.raises(SystemExit) as exited:  # argparse's usage error
            main(["simulate", "--db", db, "--duration", "10", "--silence-timeout", timeout])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "trac simulate: error: argument --silence-timeout: "
            f"must be positive and finite, got {timeout!r}"
        )
        assert not os.path.exists(db)

    def test_missing_faults_file_reports_error(self, tmp_path, capsys):
        db = str(tmp_path / "g.sqlite")
        # simulate and shard-serve read the plan through one loader.
        for command in (
            ["simulate", "--db", db, "--duration", "10"],
            ["shard-serve", "--shard-id", "s0", "--duration", "0"],
        ):
            code = main(command + ["--faults", "/nonexistent.json"])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: cannot read fault plan")


class TestSimulateSharded:
    """``--shards`` forwards a flag to the shards or refuses it — checked
    before any shard is launched — and never drops one on the floor."""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--top"], ["--schedulers", "2"], ["--job-probability", "0.5"],
            ["--failure-probability", "0.1"], ["--silence-timeout", "30"],
            ["--slo-target", "10"], ["--slo-budget", "0.5"], ["--flight-dir", "f"],
            ["--archive", "a"], ["--resume"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_a_flag_with_no_shard_side_meaning_is_refused_by_name(self, tmp_path, capsys, flag):
        code = main(["simulate", "--db", str(tmp_path / "g.sqlite"), "--shards", "2", *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("--data-dir" if flag == ["--resume"] else flag[0]) in err

    def test_durability_flags_reach_the_shards(self, tmp_path, capsys, monkeypatch):
        from repro.federation import process

        launched = []

        def refuse(shard_id, **options):
            launched.append(options)
            raise TracError("launch refused")

        monkeypatch.setattr(process, "launch_shard", refuse)
        code = main(
            [
                "simulate", "--db", str(tmp_path / "g.sqlite"), "--shards", "2",
                "--data-dir", str(tmp_path / "d"), "--fsync", "never",
                "--fsync-interval", "0.25", "--checkpoint-interval", "7",
            ]
        )
        assert code == 1 and "launch refused" in capsys.readouterr().err
        assert launched[0]["fsync"] == "never"
        assert launched[0]["extra_args"] == [
            "--fsync-interval", "0.25", "--checkpoint-interval", "7.0",
        ]


    def test_shards_serve_answers_with_the_federated_report(self, tmp_path, capsys, deployments):
        """``simulate --shards N --serve``: ``POST /v1/query`` is a 200 carrying
        the five completeness keys and no user-query rows."""
        thread, result, url = serve_in_thread(
            [
                "simulate", "--db", str(tmp_path / "g.sqlite"), "--shards", "2",
                "--machines", "4", "--duration", "60", "--serve", "0",
            ],
            capsys,
        )
        try:
            doc = post_query(url, "SELECT mach_id FROM activity")
        finally:
            deployments[0].stop()
            thread.join(timeout=60.0)
        assert result.get("code") == 0
        assert (doc["shards_total"], doc["shards_ok"], doc["complete"]) == (2, 2, True)
        assert doc["missing_shards"] == [] and doc["stale_shards"] == {} and doc["rows"] == []
        # Freshly launched shards: whichever machines have reported in so far.
        assert set(doc["relevant_sources"]) <= {"m1", "m2", "m3", "m4"}


class TestReport:
    def test_report_prints_notices_and_rows(self, grid_db, capsys):
        db, _ = grid_db
        code = main(
            ["report", "--db", db, "SELECT mach_id FROM activity WHERE value = 'idle'"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NOTICE:" in out
        assert "relevant sources" in out
        assert "provably minimal : True" in out

    def test_show_plan(self, grid_db, capsys):
        db, _ = grid_db
        main(
            [
                "report",
                "--db",
                db,
                "SELECT mach_id FROM activity WHERE mach_id = 'm1'",
                "--show-plan",
            ]
        )
        out = capsys.readouterr().out
        assert "via activity" in out
        assert "trac_h.source_id = 'm1'" in out

    def test_naive_method(self, grid_db, capsys):
        db, _ = grid_db
        main(
            [
                "report",
                "--db",
                db,
                "SELECT mach_id FROM activity WHERE mach_id = 'm1'",
                "--method",
                "naive",
            ]
        )
        out = capsys.readouterr().out
        assert "relevant sources : 6" in out
        assert "provably minimal : False" in out

    def test_bad_sql_reports_error(self, grid_db, capsys):
        db, _ = grid_db
        code = main(["report", "--db", db, "SELECT FROM nothing"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestReplay:
    def test_replay_roundtrip(self, grid_db, tmp_path, capsys):
        db, logs = grid_db
        out_db = str(tmp_path / "replayed.sqlite")
        code = main(["replay", "--logs", logs, "--db", out_db])
        assert code == 0
        assert os.path.exists(out_db)
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_replay_empty_directory_fails(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        code = main(["replay", "--logs", empty, "--db", str(tmp_path / "x.sqlite")])
        assert code == 1


class TestInspect:
    def test_inspect_summarizes(self, grid_db, capsys):
        db, _ = grid_db
        code = main(["inspect", "--db", db])
        assert code == 0
        out = capsys.readouterr().out
        assert "heartbeats: 6 sources" in out
        assert "spread" in out


class TestWatch:
    def test_missing_rules_file_is_an_error_line_not_a_traceback(self, grid_db, tmp_path, capsys):
        db, _ = grid_db
        capsys.readouterr()
        missing = str(tmp_path / "no-such-rules.json")
        code = main(["watch", "--db", db, "--rules", missing])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read watch rules")
        assert missing in captured.err


class TestStats:
    def test_stats_prints_summary(self, grid_db, capsys):
        db, _ = grid_db
        code = main(["stats", "--db", db, "SELECT mach_id FROM activity"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters and gauges:" in out
        assert "trac_reports_total" in out
        assert "trac_backend_queries_total" in out
        assert "spans (by name):" in out
        assert "trac.report" in out
        assert "most recent spans" in out

    def test_stats_repeat_and_multiple_queries(self, grid_db, capsys):
        db, _ = grid_db
        code = main(
            [
                "stats",
                "--db",
                db,
                "--repeat",
                "3",
                "SELECT mach_id FROM activity",
                "SELECT mach_id FROM routing",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "routing" in out
        # 2 queries x 3 repeats = 6 reports in the aggregates table.
        report_line = next(
            line for line in out.splitlines() if line.strip().startswith("trac.report")
        )
        assert " 6 " in report_line

    def test_stats_incremental_reads_through_the_serving_mirror(self, grid_db, capsys):
        db, _ = grid_db
        sql = "SELECT mach_id FROM activity WHERE value = 'idle'"
        assert main(["stats", "--db", db, "--incremental", "--repeat", "3", sql]) == 0
        out = capsys.readouterr().out
        assert "incremental: 2 hit(s), 1 miss(es)" in out

    def test_stats_dump_files(self, grid_db, tmp_path, capsys):
        from repro.obs import from_jsonl, parse_prometheus_text

        db, _ = grid_db
        spans_path = str(tmp_path / "spans.jsonl")
        prom_path = str(tmp_path / "metrics.prom")
        code = main(
            [
                "stats",
                "--db",
                db,
                "--spans-jsonl",
                spans_path,
                "--prometheus",
                prom_path,
                "SELECT mach_id FROM activity",
            ]
        )
        assert code == 0
        with open(spans_path) as handle:
            spans = from_jsonl(handle.read(), "span")
        assert any(s["name"] == "trac.report" for s in spans)
        with open(prom_path) as handle:
            samples = parse_prometheus_text(handle.read())
        assert samples[("trac_reports_total", (("method", "focused"),))] == 1

    def test_stats_disables_telemetry_afterwards(self, grid_db, capsys):
        from repro import obs

        db, _ = grid_db
        main(["stats", "--db", db, "SELECT mach_id FROM activity"])
        assert not obs.get_default().enabled

    def test_stats_naive_method(self, grid_db, capsys):
        db, _ = grid_db
        code = main(
            ["stats", "--db", db, "--method", "naive", "SELECT mach_id FROM activity"]
        )
        assert code == 0
        assert "method=naive" in capsys.readouterr().out


class TestObservatory:
    def test_simulate_with_serve_and_flight_dir(self, tmp_path, capsys):
        plan = tmp_path / "faults.json"
        plan.write_text(
            '{"seed": 7, "faults": [{"kind": "silence", "source": "m2", "start": 5}]}'
        )
        flights = tmp_path / "flights"
        code = main(
            [
                "simulate",
                "--db", str(tmp_path / "g.sqlite"),
                "--machines", "4",
                "--duration", "400",
                "--faults", str(plan),
                "--silence-timeout", "30",
                "--serve", "0",
                "--flight-dir", str(flights),
                "--slo-target", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "observatory serving on http://127.0.0.1:" in out
        assert "staleness SLO" in out
        assert "BREACHED" in out
        assert "flight recorder:" in out
        assert list(flights.glob("flight-*.json"))

    def test_simulate_serve_disables_telemetry_afterwards(self, tmp_path, capsys):
        from repro import obs

        main(
            [
                "simulate",
                "--db", str(tmp_path / "g.sqlite"),
                "--machines", "3",
                "--duration", "50",
                "--serve", "0",
            ]
        )
        assert not obs.get_default().enabled

    def test_an_error_mid_run_still_tears_the_whole_deployment_down(
        self, tmp_path, capsys, monkeypatch
    ):
        """A ``TracError`` out of ``sim.step()`` exits 1 through the one
        ``Deployment.close()``: telemetry off, no observatory thread, the port
        refusing, the WAL closed — and no half-written ``--db``."""
        import re
        import socket
        import threading

        from repro import obs
        from repro.errors import SimulationError
        from repro.grid.simulator import GridSimulator

        real_step = GridSimulator.step

        def failing_step(sim):
            if sim.now >= 5:
                raise SimulationError("injected: step 5 failed")
            real_step(sim)

        monkeypatch.setattr(GridSimulator, "step", failing_step)
        db, data = tmp_path / "g.sqlite", tmp_path / "data"
        code = main(
            [
                "simulate", "--db", str(db), "--machines", "3", "--duration", "50",
                "--serve", "0", "--data-dir", str(data),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1 and "injected: step 5 failed" in captured.err
        assert not obs.get_default().enabled
        port = int(re.search(r"serving on http://127\.0\.0\.1:(\d+)", captured.out).group(1))
        # This run's server only: another test's may still be in its grace join.
        name = f"trac-observatory-{port}"
        assert not [t for t in threading.enumerate() if t.name in (name, f"{name}-conn")]
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0).close()
        assert not db.exists()  # --db is written at a clean exit only
        monkeypatch.undo()
        assert main(["recover", "--data-dir", str(data)]) == 0
        assert "torn segments       : 0" in capsys.readouterr().out

    def test_simulate_serve_answers_queries_while_it_ingests(self, tmp_path, capsys, deployments):
        """``simulate --serve`` is a live front door: ``POST /v1/query`` is a
        200 whose recency advances between two calls, and a stopped run (what
        SIGTERM does) still exports ``--db``."""
        import time

        db = str(tmp_path / "live.sqlite")
        thread, result, url = serve_in_thread(
            ["simulate", "--db", db, "--machines", "4", "--duration", "100000000", "--serve", "0"],
            capsys,
        )

        def newest_recency():
            doc = post_query(url, "SELECT mach_id FROM activity")
            assert sorted(row[0] for row in doc["rows"]) == ["m1", "m2", "m3", "m4"]
            return max(recency for _sid, recency in doc["normal"] + doc["exceptional"])

        try:
            first, deadline = newest_recency(), time.monotonic() + 30.0
            while newest_recency() <= first:
                assert time.monotonic() < deadline, "recency never advanced: the door is not live"
        finally:
            deployments[0].stop()
            thread.join(timeout=60.0)
        assert result.get("code") == 0
        assert main(["inspect", "--db", db]) == 0

    def test_a_resumed_run_counts_its_recovery_on_metrics(self, tmp_path, capsys, deployments):
        """``simulate --resume --serve``: the recovery runs before the front
        door exists, and ``/metrics`` still carries it and its replay counts."""
        import urllib.request

        from repro.durable import DurabilityManager, DurabilityPolicy, recover
        from repro.grid.simulator import GridSimulator, SimulationConfig
        from repro.obs import parse_prometheus_text

        data = str(tmp_path / "data")
        manager = DurabilityManager(data, DurabilityPolicy(checkpoint_interval=20))
        sim = GridSimulator(SimulationConfig(num_machines=3, seed=4), durability=manager)
        for _ in range(50):
            sim.step()
        manager.close(sim.now, final_checkpoint=False)  # a crash after the last checkpoint
        sim.backend.close()
        expected = recover(data)  # a dry scan, telemetry off: what the resume replays
        assert expected.replayed_events > 0 and expected.replayed_heartbeats > 0
        thread, result, url = serve_in_thread(
            [
                "simulate", "--db", str(tmp_path / "r.sqlite"), "--duration", "100000000",
                "--serve", "0", "--data-dir", data, "--resume",
            ],
            capsys,
        )
        try:
            with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
                samples = parse_prometheus_text(response.read().decode("utf-8"))
        finally:
            deployments[0].stop()
            thread.join(timeout=60.0)
        assert result.get("code") == 0
        replayed = "trac_recovery_replayed_total"
        assert samples[("trac_recovery_runs_total", ())] == 1
        assert samples[(replayed, (("kind", "event"),))] == expected.replayed_events
        assert samples[(replayed, (("kind", "heartbeat"),))] == expected.replayed_heartbeats

    def test_simulate_top_renders_frames(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--db", str(tmp_path / "g.sqlite"),
                "--machines", "3",
                "--duration", "120",
                "--top",
                "--top-interval", "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trac top" in out
        assert "m1" in out

    def test_serve_exposes_database_status(self, grid_db, capsys):
        import json
        import urllib.request

        db, _ = grid_db
        thread, result, url = serve_in_thread(
            ["serve", "--db", db, "--port", "0", "--duration", "3"], capsys
        )
        with urllib.request.urlopen(url + "/status", timeout=5.0) as response:
            doc = json.loads(response.read().decode("utf-8"))
        assert doc["sources"], "status document must list the DB's sources"
        assert {"id", "state", "recency", "age"} <= set(doc["sources"][0])
        thread.join(timeout=10.0)
        assert result["code"] == 0

    def test_top_polls_a_live_server(self, capsys):
        from repro.obs import Telemetry
        from repro.obs.server import ObservatoryServer

        status = {"now": 9.0, "sources": [{"id": "m1", "state": "healthy"}]}
        with ObservatoryServer(Telemetry(), status_provider=lambda: status) as server:
            code = main(
                [
                    "top",
                    "--url", server.url,
                    "--iterations", "2",
                    "--interval", "0.01",
                    "--no-clear",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("trac top") == 2
        assert "m1" in out

    def test_top_unreachable_server_fails(self, capsys):
        code = main(["top", "--url", "http://127.0.0.1:9", "--iterations", "1"])
        assert code == 1
        assert "trac top:" in capsys.readouterr().out


class TestDurability:
    def simulate(self, tmp_path, *extra, duration="120"):
        db = str(tmp_path / "durable.sqlite")
        data = str(tmp_path / "data")
        code = main(
            [
                "simulate", "--db", db, "--machines", "4", "--seed", "9",
                "--duration", duration, "--data-dir", data, *extra,
            ]
        )
        return code, db, data

    def test_data_dir_writes_wal_and_checkpoint(self, tmp_path, capsys):
        code, _, data = self.simulate(tmp_path)
        assert code == 0
        names = os.listdir(data)
        assert any(n.startswith("wal-") for n in names)
        assert any(n.startswith("checkpoint-") for n in names)
        assert "durability:" in capsys.readouterr().out

    def test_resume_continues_a_previous_run(self, tmp_path, capsys):
        code, _, data = self.simulate(tmp_path, duration="100")
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "simulate", "--db", str(tmp_path / "resumed.sqlite"),
                "--duration", "200", "--data-dir", data, "--resume",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "recovered epoch" in out

    def test_resumed_supervision_block_still_says_why_a_source_is_degraded(
        self, tmp_path, capsys
    ):
        plan = tmp_path / "faults.json"
        plan.write_text(
            '{"seed": 11, "faults": ['
            '{"kind": "silence", "source": "m3", "start": 60},'
            '{"kind": "poll_error", "source": "m2", "probability": 0.4}]}'
        )
        chaos = ("--faults", str(plan), "--silence-timeout", "40")
        code, _, data = self.simulate(tmp_path, *chaos, duration="300")
        assert code == 0

        def supervision_lines():
            lines = capsys.readouterr().out.splitlines()
            return {
                line.split()[0]: line
                for line in lines[lines.index("supervision:") + 1 :]
                if line.startswith("  m")
            }

        first = supervision_lines()
        assert "(silent source: no progress for 40s (limit 40s))" in first["m3"]
        code = main(
            [
                "simulate", "--db", str(tmp_path / "resumed.sqlite"),
                "--duration", "300", "--data-dir", data, "--resume", *chaos,
            ]
        )
        assert code == 0
        # Nothing ran after the resume (the duration was already reached): the
        # block is the checkpointed records', reason and counters included.
        assert supervision_lines() == first

    def test_resume_requires_data_dir(self, tmp_path, capsys):
        code = main(
            ["simulate", "--db", str(tmp_path / "g.sqlite"), "--resume"]
        )
        assert code == 1
        assert "--data-dir" in capsys.readouterr().err

    def test_recover_rebuilds_a_database(self, tmp_path, capsys):
        code, _, data = self.simulate(tmp_path)
        assert code == 0
        capsys.readouterr()
        rebuilt = str(tmp_path / "rebuilt.sqlite")
        code = main(["recover", "--data-dir", data, "--db", rebuilt])
        assert code == 0
        assert os.path.exists(rebuilt)
        out = capsys.readouterr().out
        assert "epoch" in out and "activity" in out

    def test_recover_counts_a_torn_segment_with_and_without_db(self, tmp_path, capsys):
        import shutil

        from repro.durable.wal import list_wal_segments

        code, _, data = self.simulate(tmp_path, "--machines", "3")
        assert code == 0
        _, last_segment = list_wal_segments(data)[-1]
        with open(last_segment, "ab") as handle:
            handle.write(b"\xff" * 11)  # a tail no frame can parse
        # Recovery cuts a torn tail in place: each form reads its own copy.
        scan_only, with_db = str(tmp_path / "scan"), str(tmp_path / "with_db")
        shutil.copytree(data, scan_only)
        shutil.copytree(data, with_db)
        capsys.readouterr()
        for argv in (
            ["recover", "--data-dir", scan_only],
            ["recover", "--data-dir", with_db, "--db", str(tmp_path / "r.sqlite")],
        ):
            assert main(argv) == 0
            assert "  torn segments       : 1\n" in capsys.readouterr().out

    def test_recover_missing_directory_errors(self, tmp_path, capsys):
        code = main(["recover", "--data-dir", str(tmp_path / "absent")])
        assert code == 1
        assert "no durability directory" in capsys.readouterr().err
