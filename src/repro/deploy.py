"""One deployment: the process that ingests is the process that answers.

:class:`Deployment` is the one place in ``src/`` where what loads the
database and what answers from it are put together — the serving ``trac``
subcommands, every shard, the examples and the serving guard start through
it and end through its one :meth:`Deployment.close`. It takes *what reports
come from*:

* a :class:`~repro.backends.base.Backend` — nothing ingests (``trac serve``);
* a :class:`~repro.grid.simulator.GridSimulator` — this process ingests
  (``trac simulate``, a shard): reports snapshot the live memory engine the
  sniffers are loading and name the registry's degraded sources, and the
  deployment owns the step loop;
* a :class:`~repro.federation.FederationCoordinator` — shards ingest
  (``trac simulate --shards``): reports are federated, recency side only.

Not on the served path, on purpose: the
:class:`~repro.incremental.IncrementalMaintainer` — its ``fetch`` extends
its entries, so one reporter thread uses it at a time (docs/SERVING.md).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Optional, Sequence

from repro.errors import check_number
from repro.grid.simulator import GridSimulator
from repro.obs import instrument as obs


class Deployment:
    """A started deployment over ``source`` (which :meth:`close` closes).

    ``port`` mounts the front door: one :class:`~repro.serve.QueryService`
    (``config``) reporting from ``source`` on each connection's own thread,
    at most ``config.workers`` at once, behind one
    :class:`~repro.obs.server.ObservatoryServer` on ``host:port`` (0 =
    ephemeral; read ``deployment.server.url``). ``None`` starts no HTTP
    server and no query service: a shard answers over its own RPC door, passed
    in ``doors`` (anything with ``stop()``) to be stopped where the front
    door stops. ``flight_dir`` arms the anomaly flight recorder.
    ``telemetry=None`` follows the process-wide default, which a deployment
    with something to read it (front door, recorder) enables here and
    disables in :meth:`close`.

    ``lock`` is held around every simulator tick and the final flush; a
    reader that needs ``sim.now``, the registry and a snapshot to agree (a
    shard's fragment) takes it. ``POST /v1/query`` does not: a snapshot is
    all the isolation a report needs.
    """

    def __init__(
        self,
        source,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        config=None,
        telemetry=None,
        flight_dir: Optional[str] = None,
        doors: Sequence = (),
    ) -> None:
        self.source = source
        self.sim = source if isinstance(source, GridSimulator) else None
        self.lock = threading.Lock()
        self.stopping = threading.Event()
        self.service = self.server = self.recorder = None
        self._stepper: Optional[threading.Thread] = None
        # Built in the reverse of the teardown order, so unwinding the stack
        # *is* the order — also when construction fails half way.
        with contextlib.ExitStack() as stack:
            if telemetry is None and (port is not None or flight_dir is not None):
                telemetry = obs.enable()
                stack.callback(obs.disable)
            self.telemetry = telemetry
            stack.callback((self.sim.backend if self.sim is not None else source).close)
            if flight_dir is not None:
                from repro.obs.flight import FlightRecorder

                sources = getattr(source, "sources", None)
                self.recorder = FlightRecorder(telemetry, flight_dir, sources=sources).install()
                stack.callback(self.recorder.uninstall)
            stack.callback(self._flush)
            if port is not None:
                from repro.obs.server import ObservatoryServer
                from repro.serve import QueryService

                self.service = QueryService(source, config, telemetry=telemetry)
                stack.callback(self.service.close)  # waits for the reports in flight
                # A simulator's and a coordinator's /status are their own.
                status = getattr(source, "status", self.service.status)
                self.server = ObservatoryServer(
                    telemetry, host, port, status, query_service=self.service
                ).start()
                stack.callback(self.server.stop)
            for door in doors:
                stack.callback(door.stop)
            self._teardown = stack.pop_all()

    def step(self, until: Optional[float] = None) -> bool:
        """One simulator tick under :attr:`lock`; ``False``, and no tick,
        once the simulated clock has reached ``until``."""
        if until is not None and self.sim.now >= until:
            return False
        with self.lock:
            self.sim.step()
        return True

    def run(
        self,
        tick: Optional[Callable[[], object]] = None,
        interval: Optional[float] = None,
        duration: Optional[float] = None,
    ) -> None:
        """Block until :meth:`stop`, ``duration`` wall seconds, or ``tick()``
        returning ``False``. ``tick`` runs every ``interval`` seconds (0:
        back to back; ``None``: just wait)."""
        if interval is not None:
            check_number("interval", interval, 0)
        if duration is not None:
            check_number("duration", duration, 0)
        deadline = None if duration is None else time.monotonic() + duration
        while not self.stopping.is_set():
            wait = interval
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    break
                wait = wait if interval is None else min(interval, wait)
            if wait != 0 and self.stopping.wait(wait):
                break
            if tick is not None and tick() is False:
                break

    def start_stepping(self, interval: float) -> None:
        """Tick the simulator every ``interval`` wall seconds (0: flat out)
        on a background thread until :meth:`stop` / :meth:`close`."""
        check_number("interval", interval, 0)  # here, not on the thread
        self._stepper = threading.Thread(
            target=self.run, args=(self.step, interval), name="trac-step", daemon=True
        )
        self._stepper.start()

    def stop(self) -> None:
        """Ask :meth:`run` to return (safe from a signal handler)."""
        self.stopping.set()

    def _flush(self) -> None:
        """Final checkpoint + WAL close of a durable simulator, once."""
        durability = self.sim.durability if self.sim is not None else None
        if durability is not None:
            with self.lock:  # drains a reader still inside its fragment
                self.sim.durability = None
                durability.close(self.sim.now)

    def close(self) -> None:
        """The one teardown, on every exit path: stop stepping → stop
        accepting → finish the reports in flight → final checkpoint and WAL close →
        flight recorder → backend (or coordinator) → telemetry. Safe to
        call twice."""
        self.stop()
        if self._stepper is not None:
            self._stepper.join(timeout=5.0)
            self._stepper = None
        self._teardown.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
