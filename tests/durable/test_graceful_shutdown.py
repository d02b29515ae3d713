"""SIGTERM is a clean shutdown, not a crash.

``trac simulate`` (and the shard server, covered in tests/federation)
installs a SIGTERM handler that stops the step loop at a tick boundary,
flushes the WAL and writes a final checkpoint before exiting 0. The proof:
kill a durable run mid-flight with SIGTERM, then show (a) exit code 0 with
the shutdown banner, (b) ``trac recover`` sees zero torn segments, and
(c) a ``--resume`` run picks up from the stopping point without replaying
garbage.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def run_cli(argv, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        **kwargs,
    )


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def test_sigterm_drains_flushes_and_resumes(tmp_path):
    env = cli_env()
    data_dir = str(tmp_path / "wal")
    db = str(tmp_path / "sim.sqlite")

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "simulate",
            "--db", db,
            "--machines", "3",
            "--duration", "1000000",
            "--data-dir", data_dir,
            "--fsync", "always",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        time.sleep(2.0)
        assert process.poll() is None, process.stdout.read()
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    assert process.returncode == 0, stdout
    assert "SIGTERM: stopping early" in stdout
    assert "done at t=" in stdout  # the normal teardown still ran

    # The WAL it left behind is clean: no torn tail.
    recover = run_cli(["recover", "--data-dir", data_dir], env)
    assert recover.returncode == 0, recover.stdout + recover.stderr
    assert "torn segments       : 0" in recover.stdout

    # And a resumed run continues from the stopping point.
    resume = run_cli(
        [
            "simulate",
            "--db", str(tmp_path / "resumed.sqlite"),
            "--machines", "3",
            "--duration", "30",
            "--data-dir", data_dir,
            "--resume",
            "--fsync", "always",
        ],
        env,
    )
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert "0 torn" in resume.stdout


def serve_until_sigterm(tmp_path, before_signal=None):
    """Start ``trac serve``, wait for its banner, run ``before_signal(port)``,
    SIGTERM it; returns (returncode, output, seconds from signal to exit)."""
    env = cli_env()
    db = str(tmp_path / "serve.sqlite")
    seed = run_cli(
        ["simulate", "--db", db, "--machines", "3", "--duration", "30"], env
    )
    assert seed.returncode == 0, seed.stdout + seed.stderr

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--db", db,
            "--port", "0",
            "--duration", "120",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        deadline = time.monotonic() + 30.0
        banner = []
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            banner.append(line)
            if "serving" in line:
                break
        else:
            raise AssertionError(f"server never came up: {''.join(banner)}")
        if before_signal is not None:
            before_signal(int(re.search(r"http://[^:]+:(\d+)", line).group(1)))
        signalled = time.monotonic()
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
        took = time.monotonic() - signalled
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return process.returncode, "".join(banner) + stdout, took


def test_sigterm_stops_trac_serve_cleanly(tmp_path):
    returncode, output, _ = serve_until_sigterm(tmp_path)
    assert returncode == 0, output
    assert "SIGTERM: draining" in output


def test_sigterm_with_an_idle_keepalive_client_still_exits_cleanly(tmp_path):
    """A client parked on a kept-alive connection must not hold the server
    up: stop() closes idle connections instead of waiting them out."""
    clients = []

    def park_a_client(port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        clients.append(conn)
        conn.request(
            "POST", "/v1/query", body=json.dumps({"sql": "SELECT mach_id FROM activity"})
        )
        response = conn.getresponse()
        assert response.status == 200, response.read()
        response.read()
        assert conn.sock is not None  # kept alive, now idle

    try:
        returncode, output, took = serve_until_sigterm(tmp_path, park_a_client)
        assert returncode == 0, output
        assert "SIGTERM: draining" in output
        # Well inside the server's idle timeout (10 s): the connection was
        # closed by stop(), not waited out.
        assert took < 8.0, output
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            clients[0].request("GET", "/healthz")
            clients[0].getresponse()
    finally:
        for conn in clients:
            conn.close()
