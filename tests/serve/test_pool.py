"""The slot gate: a ceiling on concurrent runs, a bounded wait line,
deadlines and per-slot state — all on the caller's thread."""

import sys
import threading
import time

import pytest

from repro.errors import TracError
from repro.serve.pool import DeadlineExceeded, QueueFull, WorkerPool


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class Held:
    """Runs ``pool.run`` on a thread of its own; the run holds its slot
    until :meth:`release`. ``outcome`` is the run's result or exception."""

    def __init__(self, pool, deadline=None):
        self.started = threading.Event()
        self._release = threading.Event()
        self.outcome = None
        self.thread = threading.Thread(target=self._main, args=(pool, deadline))
        self.thread.start()

    def _hold(self, state):
        self.started.set()
        assert self._release.wait(timeout=10.0)
        return "held"

    def _main(self, pool, deadline):
        try:
            self.outcome = pool.run(self._hold, deadline=deadline)
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            self.outcome = exc

    def release(self):
        self._release.set()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


class State:
    """Slot state that records every close."""

    def __init__(self):
        self.closes = 0

    def close(self):
        self.closes += 1


class TestExecution:
    def test_submit_runs_and_returns_result(self):
        with WorkerPool(workers=2, queue_depth=4) as pool:
            future = pool.submit(lambda state: 21 * 2)
            assert future.done()  # resolved before submit returned
            assert future.result() == 42
            assert pool.run(lambda state: 6 * 7) == 42

    def test_exceptions_travel_on_the_future(self):
        def boom(state):
            raise ValueError("kaput")

        with WorkerPool(workers=1, queue_depth=4) as pool:
            future = pool.submit(boom)
            assert future.done()
            with pytest.raises(ValueError, match="kaput"):
                future.result()
            with pytest.raises(ValueError, match="kaput"):
                pool.run(boom)
            assert pool.run(lambda s: "slot freed") == "slot freed"

    def test_work_runs_on_the_callers_thread(self):
        with WorkerPool(workers=1, queue_depth=1) as pool:
            assert pool.run(lambda s: threading.get_ident()) == threading.get_ident()

    def test_worker_state_factory_runs_at_most_once_per_slot(self):
        built = []
        lock = threading.Lock()

        def factory():
            state = State()
            with lock:
                built.append(state)
            return state

        seen = []
        pool = WorkerPool(workers=3, queue_depth=64, worker_state_factory=factory)
        with pool:
            holders = [Held(pool) for _ in range(3)]
            for holder in holders:
                assert holder.started.wait(timeout=5.0)
            for holder in holders:
                holder.release()
            for _ in range(30):
                seen.append(pool.run(lambda s: s))
        assert len(built) == 3  # three slots held at once: three states, no more
        assert {id(s) for s in seen} <= {id(s) for s in built}
        assert [s.closes for s in built] == [1, 1, 1]  # stop() closes each once

    def test_states_are_built_lazily(self):
        built = []
        pool = WorkerPool(workers=4, queue_depth=4, worker_state_factory=lambda: built.append(1))
        assert built == []
        with pool:
            for _ in range(10):
                pool.run(lambda s: None)
        assert built == [1]  # sequential runs share one slot's state

    def test_stats_count_executed_jobs(self):
        with WorkerPool(workers=1, queue_depth=4) as pool:
            for _ in range(5):
                pool.submit(lambda s: None).result()
            stats = pool.stats()
        assert stats["executed"] == 5
        assert stats["queue_capacity"] == 4
        assert stats["queue_depth"] == stats["running"] == 0
        assert stats["mean_service_seconds"] > 0


class TestAdmission:
    def test_at_most_workers_run_at_once(self):
        pool = WorkerPool(workers=2, queue_depth=4)
        holders = [Held(pool) for _ in range(2)]
        try:
            for holder in holders:
                assert holder.started.wait(timeout=5.0)
            assert pool.stats()["running"] == 2
            third = Held(pool)
            wait_until(lambda: pool.queued() == 1)
            assert not third.started.is_set()  # waiting, not running
            holders[0].release()
            assert third.started.wait(timeout=5.0)  # the freed slot goes to it
            assert pool.stats()["running"] == 2
            holders.append(third)
        finally:
            for holder in holders:
                holder.release()
            pool.stop()
        assert [holder.outcome for holder in holders] == ["held"] * 3

    def test_full_queue_raises_queue_full_with_retry_hint(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        holder = Held(pool)
        waiters = []
        try:
            assert holder.started.wait(timeout=5.0)
            waiters = [Held(pool) for _ in range(2)]
            wait_until(lambda: pool.queued() == 2)
            ran = []
            with pytest.raises(QueueFull) as exc_info:
                pool.run(lambda s: ran.append(1))
            assert not ran
            assert exc_info.value.retry_after > 0
            assert exc_info.value.kind == "queue"
        finally:
            holder.release()
            for waiter in waiters:
                waiter.release()
            pool.stop()
        assert [w.outcome for w in waiters] == ["held", "held"]  # the line was served

    def test_expired_deadline_cancels_queued_work(self):
        ran = []
        pool = WorkerPool(workers=1, queue_depth=8)
        holder = Held(pool)
        try:
            assert holder.started.wait(timeout=5.0)
            # Behind the held slot with an already-tight deadline.
            with pytest.raises(DeadlineExceeded, match="in queue"):
                pool.run(lambda s: ran.append(1), deadline=time.monotonic() + 0.05)
            assert not ran  # the body never executed
            assert pool.stats()["expired"] == 1
            assert pool.queued() == 0  # it left the line
        finally:
            holder.release()
            pool.stop()
        assert pool.stats()["executed"] == 1  # the holder only

    def test_cancelled_while_queued_never_runs(self):
        """A caller still waiting when the gate stops is refused: its work
        never runs, and the run in flight finishes."""
        pool = WorkerPool(workers=1, queue_depth=8)
        holder = Held(pool)
        assert holder.started.wait(timeout=5.0)
        waiter = Held(pool)
        wait_until(lambda: pool.queued() == 1)
        stopper = threading.Thread(target=pool.stop)
        stopper.start()
        waiter.thread.join(timeout=5.0)
        assert isinstance(waiter.outcome, TracError) and "stopped" in str(waiter.outcome)
        assert not waiter.started.is_set()
        holder.release()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert holder.outcome == "held"


class TestLifecycle:
    def test_submit_after_stop_raises(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        pool.stop()
        with pytest.raises(TracError, match="stopped"):
            pool.run(lambda s: None)
        with pytest.raises(TracError, match="stopped"):
            pool.submit(lambda s: None).result()

    def test_stop_without_start_is_fine(self):
        WorkerPool(workers=1, queue_depth=1).stop()

    def test_stop_waits_for_runs_in_flight_and_closes_each_state_once(self):
        states = []

        def factory():
            states.append(State())
            return states[-1]

        def refused():
            try:
                pool.run(lambda s: None)
            except TracError:
                return True
            return False

        pool = WorkerPool(workers=2, queue_depth=2, worker_state_factory=factory)
        holder = Held(pool)
        assert holder.started.wait(timeout=5.0)
        pool.run(lambda s: None)  # a second state, now idle
        assert len(states) == 2
        stopper = threading.Thread(target=pool.stop)
        stopper.start()
        wait_until(refused)  # new work is refused while the stop waits
        time.sleep(0.05)
        assert stopper.is_alive()  # still waiting for the held run
        holder.release()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert holder.outcome == "held"
        assert [s.closes for s in states] == [1, 1]
        pool.stop()  # twice is fine, and closes nothing again
        assert [s.closes for s in states] == [1, 1]

    def test_validation(self):
        with pytest.raises(TracError):
            WorkerPool(workers=0)
        with pytest.raises(TracError):
            WorkerPool(queue_depth=0)


class TestStress:
    WORKERS = 3
    ATTEMPTS = 40

    def test_the_gate_keeps_its_invariants_under_a_hammer(self):
        """4 x workers threads, a tiny switch interval: never more than
        ``workers`` runs, never one state on two threads, and every attempt
        ends exactly one way."""
        lock = threading.Lock()
        running = [0]
        peak = [0]
        holders = {}  # id(state) -> thread ident running with it
        violations = []
        tally = {"executed": 0, "rejected": 0, "expired": 0}

        def body(state):
            me = threading.get_ident()
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                if holders.get(id(state)) is not None:
                    violations.append(id(state))
                holders[id(state)] = me
            time.sleep(0.001)
            with lock:
                holders[id(state)] = None
                running[0] -= 1

        pool = WorkerPool(
            workers=self.WORKERS, queue_depth=2 * self.WORKERS, worker_state_factory=State
        )
        threads_n = 4 * self.WORKERS
        barrier = threading.Barrier(threads_n)

        def hammer(index):
            barrier.wait(timeout=10.0)
            for attempt in range(self.ATTEMPTS):
                # Every third attempt may wait only a moment.
                budget = 0.0005 if (index + attempt) % 3 == 0 else 5.0
                try:
                    pool.run(body, deadline=time.monotonic() + budget)
                    outcome = "executed"
                except QueueFull:
                    outcome = "rejected"
                except DeadlineExceeded:
                    outcome = "expired"
                with lock:
                    tally[outcome] += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads), "a hammer thread hung"
        pool.stop()

        assert peak[0] <= self.WORKERS
        assert violations == []
        assert sum(tally.values()) == threads_n * self.ATTEMPTS
        stats = pool.stats()
        assert stats["executed"] == tally["executed"] > 0
        assert stats["expired"] == tally["expired"]
        assert stats["queue_depth"] == stats["running"] == 0
        assert len(holders) <= self.WORKERS  # states built
