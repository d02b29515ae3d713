"""Grid monitoring simulator.

The paper's data path (Sections 1 and 3.1): application processes on grid
machines write status records to per-machine log files; *sniffer* processes
tail those logs and load their transformed content into a central DBMS,
updating a per-source recency timestamp as they go. The database is always
somewhat stale, per-source, because every machine logs at its own rate and
every sniffer lags by its own amount — and failed machines stop reporting
entirely.

This package simulates exactly that pipeline with a deterministic seeded
clock:

* :class:`~repro.grid.machine.Machine` — a grid node with an activity state
  and an append-only :class:`~repro.grid.logfile.LogFile`;
* :class:`~repro.grid.scheduler.Scheduler` — a job scheduler process running
  on a machine, matching jobs to idle neighbors (the ``S`` side of
  Section 4.2);
* :class:`~repro.grid.sniffer.Sniffer` — tails one machine's log with a
  configurable propagation lag and poll interval, loading rows into the
  monitoring database and advancing the Heartbeat table;
* :class:`~repro.grid.simulator.GridSimulator` — the tick-based driver
  wiring machines, scheduler, sniffers and failure injection together.
"""

from repro.grid.simulator import GridSimulator, SimulationConfig

__all__ = ["GridSimulator", "SimulationConfig"]
