"""Launch shard servers as real OS processes (the chaos harness's lever).

In-process :class:`~repro.federation.shard.ShardServer` threads are enough
for most tests, but partial-failure proofs need processes you can SIGKILL
and SIGSTOP. :func:`launch_shard` spawns ``trac shard-serve`` as a
subprocess and parses its announce line::

    SHARD READY id=<shard_id> host=<host> port=<port> machines=<m1,m2,...>

which the CLI prints (and flushes) once the RPC socket is bound.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.errors import TracError

#: The announce-line prefix ``trac shard-serve`` prints once it is serving.
READY_PREFIX = "SHARD READY "

#: Seconds :func:`launch_shard` waits for the announce line.
READY_TIMEOUT = 30.0


def format_ready_line(shard_id: str, host: str, port: int, machines: List[str]) -> str:
    """The announce line the shard CLI prints (kept next to its parser)."""
    return (
        f"{READY_PREFIX}id={shard_id} host={host} port={port} "
        f"machines={','.join(machines)}"
    )


def parse_ready_line(line: str) -> dict:
    """Parse an announce line into ``{shard_id, host, port, machines}``."""
    stripped = line.strip()
    if not stripped.startswith(READY_PREFIX):
        raise TracError(f"not a shard announce line: {line!r}")
    fields = {}
    for token in stripped[len(READY_PREFIX):].split():
        if "=" not in token:
            raise TracError(f"malformed announce token {token!r} in {line!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        return {
            "shard_id": fields["id"],
            "host": fields["host"],
            "port": int(fields["port"]),
            "machines": [m for m in fields["machines"].split(",") if m],
        }
    except (KeyError, ValueError) as exc:
        raise TracError(f"malformed announce line {line!r}: {exc}") from exc


class ShardProcess:
    """A ``trac shard-serve`` subprocess plus its parsed announce fields."""

    def __init__(self, process: subprocess.Popen, announce: dict, argv: List[str]) -> None:
        self.process = process
        self.shard_id: str = announce["shard_id"]
        self.host: str = announce["host"]
        self.port: int = announce["port"]
        self.machines: List[str] = list(announce["machines"])
        self.argv = list(argv)

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL: the crash the WAL exists for."""
        if self.alive():
            self.process.kill()
            self.process.wait(timeout=10.0)

    def freeze(self) -> None:
        """SIGSTOP: the process is alive but will never answer. The signal is
        asynchronous, so wait until every thread of the shard has stopped."""
        os.kill(self.process.pid, signal.SIGSTOP)
        os.waitid(os.P_PID, self.process.pid, os.WSTOPPED | os.WNOWAIT)

    def thaw(self) -> None:
        os.kill(self.process.pid, signal.SIGCONT)

    def terminate(self) -> int:
        """SIGTERM and wait: exercises the graceful-shutdown path."""
        if self.alive():
            self.process.terminate()
        try:
            return self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait(timeout=10.0)

    def __repr__(self) -> str:
        state = "alive" if self.alive() else f"exit={self.process.poll()}"
        return f"ShardProcess({self.shard_id!r}, pid={self.pid}, {state})"


def launch_shard(
    shard_id: str,
    machines: int,
    machine_id_start: int = 1,
    seed: int = 0,
    data_dir: Optional[str] = None,
    resume: bool = False,
    fsync: str = "always",
    faults: Optional[str] = None,
    extra_args: Optional[List[str]] = None,
) -> ShardProcess:
    """Spawn ``trac shard-serve`` and wait for its announce line.

    Runs ``sys.executable -m repro.cli shard-serve ...`` with ``PYTHONPATH``
    pointing at this checkout's ``src``, so it works from a source tree
    without installation. The shard binds an ephemeral loopback port (the
    CLI's defaults). Raises :class:`TracError` if the shard exits or stays
    silent past :data:`READY_TIMEOUT`.
    """
    repo_src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "shard-serve",
        "--shard-id",
        shard_id,
        "--machines",
        str(machines),
        "--machine-id-start",
        str(machine_id_start),
        "--seed",
        str(seed),
        "--fsync",
        fsync,
    ]
    if data_dir is not None:
        argv += ["--data-dir", data_dir]
    if resume:
        argv.append("--resume")
    if faults is not None:
        argv += ["--faults", faults]
    if extra_args:
        argv += list(extra_args)

    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + READY_TIMEOUT
    lines: List[str] = []
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise TracError(
                f"shard {shard_id} produced no announce line within "
                f"{READY_TIMEOUT:g}s; output so far: {lines!r}"
            )
        line = process.stdout.readline()
        if line == "" and process.poll() is not None:
            raise TracError(
                f"shard {shard_id} exited with {process.returncode} before "
                f"announcing; output: {lines!r}"
            )
        lines.append(line.rstrip("\n"))
        if line.startswith(READY_PREFIX):
            return ShardProcess(process, parse_ready_line(line), argv)
