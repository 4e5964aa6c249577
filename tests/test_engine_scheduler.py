"""Tests for the multiprocess worker pool and ``solve_suite``.

The parity tests use generous per-goal budgets so that no status sits near the
failed-vs-timeout wall-clock boundary (CPU contention inflates search times;
only goals with a wide margin have load-independent statuses).
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import asdict
from multiprocessing.connection import wait as wait_for_events

import pytest

from repro.benchmarks_data import isaplanner_problems
from repro.engine import Task, load_spec, solve_suite, solve_task
from repro.engine.scheduler import WorkerPool
from repro.harness import run_suite, worker_utilisation_table
from repro.search import ProverConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

SUBSET = ("prop_01", "prop_05", "prop_06", "prop_11", "prop_40", "prop_46")


@pytest.fixture(scope="module")
def subset_problems():
    wanted = set(SUBSET)
    return [p for p in isaplanner_problems() if p.name in wanted]


@pytest.fixture(scope="module")
def serial_result(subset_problems):
    return run_suite(subset_problems, ProverConfig(timeout=5.0), suite_name="subset")


class TestLoadSpec:
    def test_resolves_module_attribute(self):
        resolver = load_spec("repro.benchmarks_data.registry:all_problems")
        assert callable(resolver)

    def test_passes_callables_and_none_through(self):
        fn = lambda: ()  # noqa: E731
        assert load_spec(fn) is fn
        assert load_spec(None) is None

    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            load_spec("no-colon")


class TestSolveTask:
    """solve_task is the worker's core, exercised here in-process."""

    def task_for(self, problem, **config_changes):
        from dataclasses import asdict

        config = ProverConfig(timeout=5.0).with_(**config_changes)
        return Task(
            uid=0, index=0, suite=problem.suite, name=problem.name,
            variant="v", config=asdict(config),
        ).to_wire()

    def test_proves_an_easy_goal(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_01")
        outcome = solve_task(problem, self.task_for(problem))
        assert outcome["status"] == "proved"
        assert outcome["nodes"] > 0

    def test_conditional_goal_is_out_of_scope(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_05")
        outcome = solve_task(problem, self.task_for(problem))
        assert outcome["status"] == "out-of-scope"

    def test_unknown_problem_fails_gracefully(self):
        outcome = solve_task(None, {"key": "isaplanner/prop_99"})
        assert outcome["status"] == "failed"
        assert "unknown problem" in outcome["reason"]

    def test_timeout_is_a_distinct_status(self):
        problem = next(p for p in isaplanner_problems() if p.name == "prop_54")
        outcome = solve_task(problem, self.task_for(problem, timeout=0.2))
        assert outcome["status"] == "timeout"

    def test_unparsable_hint_fails(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_01")
        task = self.task_for(problem)
        task["hints"] = ("this is === not a term %%%",)
        outcome = solve_task(problem, task)
        assert outcome["status"] == "failed"
        assert "hint" in outcome["reason"]


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestRunSuiteParallel:
    def test_statuses_and_order_match_serial(self, subset_problems, serial_result):
        parallel = solve_suite(
            subset_problems, ProverConfig(timeout=5.0), suite_name="subset", jobs=2
        )
        assert [r.name for r in parallel.records] == [r.name for r in serial_result.records]
        assert [(r.name, r.status) for r in parallel.records] == [
            (r.name, r.status) for r in serial_result.records
        ]

    def test_summary_counts_match_serial(self, subset_problems, serial_result):
        parallel = solve_suite(
            subset_problems, ProverConfig(timeout=5.0), suite_name="subset", jobs=3
        )
        serial_summary = serial_result.summary()
        parallel_summary = parallel.summary()
        for key in ("suite", "total", "solved", "out_of_scope", "failed", "timeout"):
            assert parallel_summary[key] == serial_summary[key]

    def test_records_carry_worker_provenance(self, subset_problems):
        parallel = solve_suite(subset_problems, ProverConfig(timeout=5.0), jobs=2)
        attempted = [r for r in parallel.records if r.status != "out-of-scope"]
        assert attempted and all(r.worker >= 0 for r in attempted)
        assert all(r.variant == "paper-default" for r in attempted)
        out_of_scope = [r for r in parallel.records if r.status == "out-of-scope"]
        assert all(r.worker == -1 for r in out_of_scope)

    def test_utilisation_lists_every_private_slot(self, subset_problems):
        """A batch reports one row per worker of its pool, idle ones included."""
        parallel = solve_suite(subset_problems, ProverConfig(timeout=5.0), jobs=3)
        assert sorted(parallel.engine.worker_stats) == [0, 1, 2]
        assert sum(s["tasks"] for s in parallel.engine.worker_stats.values()) == 5
        table = worker_utilisation_table(parallel)
        assert all(f"worker {slot}" in table for slot in range(3))

    def test_progress_callback_sees_every_problem(self, subset_problems):
        seen = []
        solve_suite(
            subset_problems, ProverConfig(timeout=5.0), jobs=2, progress=seen.append
        )
        assert sorted(r.name for r in seen) == sorted(p.name for p in subset_problems)

    def test_hints_cross_the_process_boundary(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_54"]
        program = problems[0].program
        hints = {"prop_54": [program.parse_equation("add a b === add b a")]}
        result = solve_suite(
            problems, ProverConfig(timeout=10.0), jobs=1, hypotheses=hints
        )
        assert result.record("prop_54").proved

    def test_empty_suite(self):
        result = solve_suite([], ProverConfig(timeout=1.0), suite_name="empty", jobs=2)
        assert result.total == 0
        assert result.summary()["solved"] == 0


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestCrashIsolation:
    def test_worker_crash_loses_only_its_goal(self, subset_problems):
        result = solve_suite(
            subset_problems,
            ProverConfig(timeout=5.0),
            jobs=2,
            worker_hook="engine_hooks:crash_on_prop_11",
        )
        crashed = result.record("prop_11")
        assert crashed.status == "failed"
        assert "crashed" in crashed.reason and "23" in crashed.reason
        # every other goal still got its normal outcome
        for name in ("prop_01", "prop_06", "prop_40", "prop_46"):
            assert result.record(name).proved
        assert result.record("prop_05").status == "out-of-scope"
        # the pool respawned the dead worker
        assert sum(s["respawns"] for s in result.engine.worker_stats.values()) >= 1

    def test_hung_worker_is_hard_killed(self):
        problems = [p for p in isaplanner_problems() if p.name in ("prop_01", "prop_11")]
        result = solve_suite(
            problems,
            ProverConfig(timeout=0.3),
            jobs=2,
            worker_hook="engine_hooks:hang_on_prop_11",
            hard_kill_grace=0.5,
        )
        hung = result.record("prop_11")
        assert hung.status == "timeout"
        assert "hard deadline" in hung.reason
        assert result.record("prop_01").proved


def _run_on_private_pool(tasks, **pool_options) -> dict:
    """Run ``tasks`` as one session on a fresh pool, closed afterwards."""
    pool = WorkerPool(**pool_options)
    try:
        return pool.session(None).run(tasks)
    finally:
        pool.close()


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestSchedulerDirectly:
    def test_custom_resolver_restricts_the_problem_set(self):
        from dataclasses import asdict

        config = asdict(ProverConfig(timeout=5.0))
        tasks = [
            Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                 variant="v", config=config),
            Task(uid=1, index=1, suite="isaplanner", name="prop_40",
                 variant="v", config=config),
        ]
        results = _run_on_private_pool(tasks, jobs=1, resolver="engine_hooks:tiny_resolver")
        assert results[0]["status"] == "proved"
        # prop_40 is not produced by the tiny resolver
        assert results[1]["status"] == "failed"
        assert "unknown problem" in results[1]["reason"]

    def test_zero_tasks(self):
        pool = WorkerPool(jobs=2)
        try:
            session = pool.session(None)
            assert session.run([]) == {}
            assert session.worker_stats == {}
        finally:
            pool.close()
        # the batch API reports an empty run the same way
        assert solve_suite([], jobs=2).engine.worker_stats == {}

    def test_program_fingerprint_mismatch_fails_the_task(self):
        """A resolver rebuilding a *different* program must not silently solve."""
        from dataclasses import asdict

        task = Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                    variant="v", config=asdict(ProverConfig(timeout=2.0)),
                    program="not-the-real-fingerprint")
        results = _run_on_private_pool([task], jobs=1, resolver="engine_hooks:tiny_resolver")
        assert results[0]["status"] == "failed"
        assert "fingerprint mismatch" in results[0]["reason"]

    def test_broken_resolver_fails_tasks_not_the_run(self):
        from dataclasses import asdict

        task = Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                    variant="v", config=asdict(ProverConfig(timeout=2.0)))
        results = _run_on_private_pool([task], jobs=1, resolver="engine_hooks:does_not_exist")
        assert results[0]["status"] == "failed"
        assert "initialisation" in results[0]["reason"]


def _prop_01_task(uid: int = 0) -> Task:
    return Task(uid=uid, index=uid, suite="isaplanner", name="prop_01",
                variant="v", config=asdict(ProverConfig(timeout=5.0)))


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestEventDrivenPool:
    def test_idle_worker_death_costs_no_goal(self):
        """A worker killed between goals is respawned, not handed the next goal."""
        pool = WorkerPool(jobs=1)
        try:
            first = pool.session("engine_hooks:tiny_resolver").run([_prop_01_task()])
            assert first[0]["status"] == "proved"
            process = pool._slots[0].process
            os.kill(process.pid, signal.SIGKILL)
            # The dispatcher thread reaps the worker too.  `Popen.poll` is not
            # thread-safe: the loser of the `waitpid` race reads ECHILD as
            # "still running" until the winner records the exit code, so
            # wait for the sentinel and then for that record, under a deadline.
            assert wait_for_events([process.sentinel], timeout=5.0)
            deadline = time.monotonic() + 5.0
            while process.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert process.exitcode is not None, "the killed worker is still alive"
            second = pool.session("engine_hooks:tiny_resolver").run([_prop_01_task()])
            assert second[0]["status"] == "proved", second[0].get("reason")
            assert pool.snapshot()["spawns"] == 2
        finally:
            pool.close()

    def test_idle_dispatcher_blocks_instead_of_spinning(self, monkeypatch):
        turns = []
        dispatch_once = WorkerPool._dispatch_once

        def counting(self, *args, **kwargs):
            turns.append(time.monotonic())
            return dispatch_once(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "_dispatch_once", counting)
        pool = WorkerPool(jobs=1)
        try:
            pool.ensure_started()
            time.sleep(0.5)
            assert len(turns) < 20, f"{len(turns)} dispatcher turns on an idle pool"
            results = pool.session("engine_hooks:tiny_resolver").run([_prop_01_task()])
            assert results[0]["status"] == "proved"
        finally:
            pool.close()

    def test_close_wakes_a_blocked_dispatcher(self):
        pool = WorkerPool(jobs=1)
        pool.ensure_started()
        pool.request_shutdown()
        time.sleep(0.2)  # the dispatcher has drained nothing and is back in its wait
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 2.0
        assert pool.snapshot()["pool_size"] == 0

    def test_concurrent_sessions_are_all_woken_and_served(self):
        """Sessions joining from many threads at once: no wake-up may be lost."""
        pool = WorkerPool(jobs=3)
        results, errors = [], []

        def client():
            try:
                outcome = pool.session("engine_hooks:tiny_resolver").run(
                    [_prop_01_task(uid) for uid in range(5)]
                )
                results.append(outcome)
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not errors, errors
        assert sorted(len(outcome) for outcome in results) == [5, 5, 5, 5]
        assert all(o["status"] == "proved" for outcome in results for o in outcome.values())
        assert pool.snapshot()["dispatched"] == 20
