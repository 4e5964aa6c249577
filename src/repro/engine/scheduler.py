"""Multiprocess job engine: shard proof attempts across a worker pool.

The paper's evaluation is embarrassingly parallel — every goal is attempted
independently under a wall-clock budget — so the engine's job is purely
throughput and robustness.  There is one engine, :class:`WorkerPool`, and
every run is one :class:`PoolSession` on it: the proof service keeps one pool
resident, and a batch (:func:`repro.engine.suite.solve_suite`) opens a private
pool sized to the batch.

* **Sharding.**  Each worker process holds one task at a time; the parent
  dispatches demand-driven (a task leaves its session's queue only when a
  worker is idle), so cancellation and deadlines stay entirely in the parent.
* **Event-driven dispatch.**  One dispatcher thread blocks on
  :func:`multiprocessing.connection.wait` over a wake pipe, every slot's
  result pipe and every worker's process sentinel, with a timeout that is the
  nearest hard deadline.  It never sleep-polls: a result, a crash, a new
  session or a shutdown request is an event.
* **Crash isolation.**  A worker dying on one goal (segfault, ``os._exit``,
  OOM kill) shows up as its sentinel (or a torn read on its result pipe); the
  goal in flight is recorded as failed with the exit code in the reason, the
  worker is respawned, and the rest of the batch proceeds.  A worker that dies
  while idle is respawned before it is handed a goal.
* **Per-goal deadlines.**  The prover enforces its own monotonic deadline
  in-process (``ProverConfig.timeout``); the parent backs it with a *hard*
  deadline (timeout + grace) after which a hung worker is killed and the goal
  recorded as a timeout.

Tasks carry only primitives (strings, numbers, dicts) across process
boundaries: a worker never unpickles a term.  Problems are re-resolved inside
each worker by a *resolver* — by default the benchmark registry
(:data:`DEFAULT_RESOLVER`) — so hash-consed terms stay within the bank of the
process that built them.  Lemma hints travel as equation *source text* and are
re-parsed against the worker's own program.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_events
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs.trace import event_record, get_tracer, mint_span_id, span_record
from ..search.config import ProverConfig
from ..search.phases import phase_intervals

__all__ = [
    "Task",
    "WorkerPool",
    "PoolSession",
    "DEFAULT_RESOLVER",
    "load_spec",
    "solve_task",
    "STATUS_CANCELLED",
    "STATUS_REJECTED",
]

DEFAULT_RESOLVER = "repro.benchmarks_data.registry:all_problems"
"""The default problem resolver: every problem of every built-in suite."""

STATUS_CANCELLED = "cancelled"
"""Internal status of a task skipped because a portfolio sibling already won."""

STATUS_REJECTED = "rejected"
"""Status of a goal refused before dispatch (e.g. a per-client budget)."""

Spec = Union[str, Callable]
"""A callable, or a ``"module:attribute"`` string importable in a worker."""


def load_spec(spec: Optional[Spec]):
    """Resolve a :data:`Spec` to a callable (``None`` passes through)."""
    if spec is None or callable(spec):
        return spec
    module_name, _, attribute = str(spec).partition(":")
    if not module_name or not attribute:
        raise ValueError(f"spec must look like 'module:attribute', got {spec!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


@dataclass(frozen=True)
class Task:
    """One unit of work: attempt one goal under one configuration."""

    uid: int
    """Unique id of the task within one session run."""

    index: int
    """Position of the goal in the input problem sequence."""

    suite: str
    name: str

    variant: str
    """Name of the portfolio variant this attempt belongs to."""

    config: Dict[str, object]
    """``dataclasses.asdict`` of the :class:`ProverConfig` to run under."""

    hints: Tuple[str, ...] = ()
    """Lemma hints as equation source text, parsed inside the worker."""

    program: str = ""
    """Fingerprint of the program the caller expects the resolver to rebuild.

    Empty disables the check (direct pool users without a program in
    hand); when set, a worker whose resolver produced a *different* program
    for ``suite/name`` fails the task instead of silently solving — and
    persisting — an outcome for the wrong program.
    """

    trace: str = ""
    """Trace id of the service request this task belongs to ("" untraced).

    Travels across the worker boundary as a plain string so the worker's own
    spans (``worker-solve`` and its phase children) join the request's trace.
    """

    span: str = ""
    """Parent span id (the request span) for spans derived from this task."""

    @property
    def key(self) -> str:
        """The goal identity ``suite/name``."""
        return f"{self.suite}/{self.name}"

    def to_wire(self) -> dict:
        """The primitive payload sent over a worker's task pipe."""
        return {
            "uid": self.uid,
            "index": self.index,
            "suite": self.suite,
            "name": self.name,
            "key": self.key,
            "variant": self.variant,
            "config": dict(self.config),
            "hints": tuple(self.hints),
            "program": self.program,
            "trace": self.trace,
            "span": self.span,
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def solve_task(problem, task: dict, hook: Optional[Callable] = None) -> dict:
    """Attempt one task in the current process; returns a primitive outcome.

    Used by the worker loop, and directly by the serial fallback paths (it is
    deliberately free of any multiprocessing machinery).
    """
    from ..harness.runner import attempt  # deferred: keep worker import cost low
    from ..search.prover import Prover

    if problem is None:
        return {
            "status": "failed",
            "reason": f"unknown problem {task['key']}: not produced by the resolver",
        }
    expected_program = task.get("program", "")
    if expected_program and problem.program.fingerprint() != expected_program:
        return {
            "status": "failed",
            "reason": (
                f"resolver produced a different program for {task['key']} "
                "(fingerprint mismatch); pass a resolver matching the input problems"
            ),
        }
    if hook is not None:
        hook(task)  # test seam: may raise, hang, or kill the process
    hints = []
    for source in task.get("hints", ()):
        try:
            hints.append(problem.program.parse_equation(source))
        except Exception as error:
            return {"status": "failed", "reason": f"unparsable hint {source!r}: {error}"}
    record = attempt(Prover(problem.program, ProverConfig(**task["config"])), problem, hints)
    wire = record.to_wire()
    trace_id = str(task.get("trace") or "")
    if trace_id:
        # Spans cross the process boundary the same way everything else does:
        # as primitive dicts inside the outcome wire.  The parent side pops
        # ``spans`` and forwards them to its tracer; ``store.put`` copies only
        # ``OUTCOME_FIELDS``, so spans can never leak into the result store.
        wall_end = time.time()
        wall_start = wall_end - record.seconds
        solve_span = mint_span_id()
        spans = [
            span_record(
                "worker-solve",
                trace_id,
                span=solve_span,
                parent=str(task.get("dispatch_span") or task.get("span") or ""),
                start=wall_start,
                end=wall_end,
                attrs={
                    "goal": task["key"],
                    "variant": task.get("variant", ""),
                    "status": record.status,
                },
            )
        ]
        for phase, phase_start, phase_end in phase_intervals(
            record.phase_seconds, wall_start
        ):
            spans.append(
                span_record(
                    f"phase:{phase}",
                    trace_id,
                    parent=solve_span,
                    start=phase_start,
                    end=phase_end,
                    attrs={"aggregate": True},
                )
            )
        wire["spans"] = spans
    return wire


_POOL_THEORY_CAPACITY = 8
"""How many elaborated theories a pool worker keeps warm (LRU beyond that)."""


class _WorkerTheories:
    """Worker-side LRU of elaborated theories, one :class:`TermBank` each.

    A pool worker outlives any single request, so it cannot elaborate one
    theory at spawn and keep it.  Instead each task names its resolver spec
    (or falls back to the pool's) and the worker elaborates on first use, caching the
    resulting bank + program + problems under the spec's *base key* (theory
    identity without per-request conjectures).  Keeping each theory in a
    private bank means eviction actually frees its terms, and solving under
    ``use_bank(entry bank)`` preserves the invariant that all terms of one
    attempt come from one bank.
    """

    def __init__(self, capacity: int = _POOL_THEORY_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def entry_for(self, spec) -> dict:
        from ..core.interning import TermBank, use_bank  # deferred: worker import cost

        key = getattr(spec, "base_key", None)
        if key is None:
            key = spec if isinstance(spec, str) else repr(spec)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        bank = TermBank(f"pool:{key[:16]}")
        elaborate = getattr(spec, "elaborate", None)
        with use_bank(bank):
            if elaborate is not None:
                program, problems = elaborate()
            else:
                resolver = load_spec(spec)
                problems = {f"{p.suite}/{p.name}": p for p in resolver()}
                program = None
        entry = {"bank": bank, "program": program, "problems": dict(problems), "extra": {}}
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def problem_for(self, spec, entry: dict, task: dict):
        """The problem for ``task``, with per-request conjectures parsed on demand.

        Conjectures are *not* part of the cached theory (their equations vary
        per request), so a resolver that carries ``extra_goals`` gets them
        parsed against the cached program here — re-parsed only when the
        equation source for that name actually changed.  A conjecture shadows
        a declared goal of the same name, matching the resolver's own
        precedence.
        """
        from ..core.interning import use_bank

        for name, equation_source in getattr(spec, "extra_goals", ()) or ():
            if name != task["name"]:
                continue
            cached = entry["extra"].get(name)
            if cached is not None and cached[0] == equation_source:
                return cached[1]
            with use_bank(entry["bank"]):
                problem = spec.problem_for(entry["program"], name, equation_source)
            entry["extra"][name] = (equation_source, problem)
            return problem
        return entry["problems"].get(task["key"])


def _pool_worker_main(slot: int, resolver_spec: Spec, hook_spec: Optional[Spec], task_reader, result_writer) -> None:
    """The worker loop: resolve theories on demand, reuse them across tasks.

    Tasks arrive on ``task_reader`` (``None`` ends the loop) and each outcome
    goes back on ``result_writer`` as ``(slot, uid, outcome)``.  The theory is
    not fixed at spawn: each task names its resolver (``task["resolver"]``,
    falling back to ``resolver_spec``), and elaborated theories persist in a
    :class:`_WorkerTheories` cache across tasks — and across *requests*, which
    is where the warm pool's latency win comes from.
    """
    theories = _WorkerTheories()
    hook: Optional[Callable] = None
    init_error = ""
    try:
        hook = load_spec(hook_spec)
    except Exception as error:  # noqa: BLE001 - reported per task below
        init_error = f"worker initialisation failed: {error!r}"
    from ..core.interning import use_bank

    while True:
        try:
            task = task_reader.recv()
        except EOFError:  # the parent is gone
            break
        if task is None:
            break
        outcome = {"status": "failed", "reason": init_error}
        if not init_error:
            spec = task.get("resolver") or resolver_spec or DEFAULT_RESOLVER
            try:
                entry = theories.entry_for(spec)
            except Exception as error:  # noqa: BLE001 - a bad resolver fails its tasks
                outcome["reason"] = f"worker initialisation failed: {error!r}"
            else:
                try:
                    problem = theories.problem_for(spec, entry, task)
                    with use_bank(entry["bank"]):
                        outcome = solve_task(problem, task, hook)
                except Exception as error:  # noqa: BLE001 - a bad goal must not kill the worker
                    outcome["reason"] = f"worker error: {error!r}"
        result_writer.send((slot, task["uid"], outcome))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


_SPAWN_LOCK = threading.Lock()
"""Serialises worker spawns across every pool of this process."""


class _WorkerSlot:
    """One slot of the pool: a live process, its pipes, and bookkeeping.

    Each slot owns a *private* pair of one-way pipes.  A shared result channel
    would let a crashing worker corrupt it for everyone — a process dying
    mid-write leaves half a message in front of every other worker's results.
    With per-slot pipes a dying worker can only break its own channel, which
    is thrown away when the slot respawns.  The parent closes the child's pipe
    ends right after the fork, so a dead worker's result pipe reads as end of
    file instead of blocking the dispatcher.
    """

    def __init__(self, slot: int, context, resolver_spec: Spec, hook_spec: Optional[Spec]):
        self.slot = slot
        self.context = context
        self.resolver_spec = resolver_spec
        self.hook_spec = hook_spec
        self.current: Optional[dict] = None
        self.started_at = 0.0
        self.process = None
        self.task_writer = None
        self.result_reader = None
        self._start()

    def _start(self) -> None:
        task_reader, self.task_writer = self.context.Pipe(duplex=False)
        self.result_reader, result_writer = self.context.Pipe(duplex=False)
        self.process = self.context.Process(
            target=_pool_worker_main,
            args=(self.slot, self.resolver_spec, self.hook_spec, task_reader, result_writer),
            daemon=True,
            name=f"repro-engine-worker-{self.slot}",
        )
        # Under fork, a sibling spawned before the child's ends are closed here
        # would inherit this worker's result writer and keep its pipe open
        # after it dies; spawning one worker at a time rules that out.
        with _SPAWN_LOCK:
            self.process.start()
            task_reader.close()
            result_writer.close()

    @property
    def idle(self) -> bool:
        return self.current is None

    @property
    def retired(self) -> bool:
        """Killed without a replacement (shutdown): nothing left to watch."""
        return self.process is None

    def receive(self) -> Optional[Tuple[int, int, dict]]:
        """The result waiting on this slot's pipe, or ``None``.

        A torn read — end of file, or half a message from a worker that died
        mid-write — also yields ``None``: the caller treats it as the death
        it is.
        """
        try:
            if self.result_reader.poll():
                return self.result_reader.recv()
        except Exception:  # noqa: BLE001 - EOFError, OSError or an unpicklable fragment
            pass
        return None

    def submit(self, task: dict) -> None:
        assert self.current is None
        self.task_writer.send(task)
        self.current = task
        self.started_at = time.monotonic()

    def respawn(self) -> None:
        """Replace a dead or hung process with a fresh one (fresh pipes too)."""
        self._terminate(timeout=5.0)
        self.current = None
        self._start()

    def kill(self) -> None:
        """Terminate the process *without* a replacement (the shutdown path)."""
        self._terminate(timeout=2.0)
        self.current = None
        self.process = None

    def stop(self) -> None:
        """Ask the worker to exit; terminate it if it does not."""
        if self.process is None:
            return
        try:
            self.task_writer.send(None)
        except OSError:  # already dead
            pass
        self.process.join(timeout=2.0)
        self._terminate(timeout=2.0)
        self.process = None

    def _terminate(self, timeout: float) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=timeout)
        # The old pipes may hold a torn message (often why we are here): drop them.
        self.task_writer.close()
        self.result_reader.close()


# ---------------------------------------------------------------------------
# The shared resident pool
# ---------------------------------------------------------------------------


class _PoolTask:
    """One goal task of one session, with its pool-global identity.

    ``wire`` is the caller's task dict (session-local uid, as ``solve_suite``
    assigned it); ``worker_wire`` is what actually crosses the process
    boundary — the same payload under the pool-global uid, plus the session's
    resolver so the worker knows which theory to (re)use.
    """

    __slots__ = (
        "uid",
        "session",
        "wire",
        "worker_wire",
        "enqueued_mono",
        "enqueued_wall",
        "dispatched_mono",
        "dispatched_wall",
    )

    def __init__(self, uid: int, session: "PoolSession", wire: dict):
        self.uid = uid
        self.session = session
        self.wire = wire
        worker_wire = dict(wire)
        worker_wire["uid"] = uid
        worker_wire["resolver"] = session.resolver
        if wire.get("trace"):
            # Minted up front so the worker-solve span can parent onto the
            # pool-dispatch span without waiting for the parent to see it.
            worker_wire["dispatch_span"] = mint_span_id()
        self.worker_wire = worker_wire
        # Queue-wait attribution: enqueue is construction time; dispatch is
        # stamped by the dispatcher when a slot accepts the task.
        self.enqueued_mono = time.monotonic()
        self.enqueued_wall = time.time()
        self.dispatched_mono: Optional[float] = None
        self.dispatched_wall = 0.0


class PoolSession:
    """One request's window onto a shared :class:`WorkerPool`.

    :func:`repro.engine.suite.solve_suite` drives it through ``run`` and
    reports its ``worker_stats``, ``worker_spawns`` and ``wall_seconds``,
    whether the pool is shared or private.  Everything is scoped to the session:
    ``cancel`` from this session's ``on_result`` withholds only this session's
    tasks, ``worker_stats`` reports only work done for this session, and
    ``worker_spawns`` counts only processes whose creation this session
    triggered (pool start or a respawn after one of *its* tasks crashed) — a
    warm pool serves a session with ``worker_spawns == 0``.
    """

    def __init__(self, pool: "WorkerPool", resolver: Spec, client: str = "default"):
        self.pool = pool
        self.resolver = resolver
        self.client = client
        self.sid = next(pool._session_ids)
        self.worker_spawns = 0
        self.worker_stats: Dict[int, Dict[str, float]] = {}
        self.wall_seconds = 0.0
        # Guarded by pool._lock (mutated by the dispatcher and by cancel()):
        self._pending: deque = deque()
        self._cancelled: set = set()
        self._deficit = 0.0
        self._inflight = 0
        self._busy: Dict[int, float] = {}
        self._tasks: Dict[int, int] = {}
        self._respawns: Dict[int, int] = {}
        # Dispatcher-thread only:
        self._outstanding = 0
        self._results: Dict[int, dict] = {}
        self._on_result: Optional[Callable] = None
        self._callback_error: Optional[BaseException] = None
        self._done = threading.Event()

    @property
    def busy_seconds(self) -> float:
        """CPU-attributable worker seconds this session consumed so far."""
        with self.pool._lock:
            return sum(self._busy.values())

    def cancel(self, uids: Iterable[int]) -> None:
        """Withhold this session's still-pending tasks (portfolio siblings)."""
        with self.pool._lock:
            self._cancelled.update(uids)

    def run(
        self,
        tasks: Iterable[Union[Task, dict]],
        on_result: Optional[Callable[[dict, dict, Callable[[Iterable[int]], None]], None]] = None,
    ) -> Dict[int, dict]:
        """Execute every task through the shared pool; returns ``{uid: outcome}``."""
        started_run = time.monotonic()
        wire: List[dict] = [t.to_wire() if isinstance(t, Task) else dict(t) for t in tasks]
        self._results = {}
        if wire:
            self._on_result = on_result
            self.pool._run_session(self, wire)
        self.wall_seconds = time.monotonic() - started_run
        with self.pool._lock:
            slots = sorted(set(self._tasks) | set(self._busy) | set(self._respawns))
            self.worker_stats = {
                slot: {
                    "tasks": self._tasks.get(slot, 0),
                    "busy_seconds": round(self._busy.get(slot, 0.0), 6),
                    "respawns": self._respawns.get(slot, 0),
                }
                for slot in slots
            }
        if self._callback_error is not None:
            raise self._callback_error
        return self._results

    def _finish(self, ptask: _PoolTask, outcome: dict, worker: int) -> None:
        """Settle one task (dispatcher thread; runs outside the pool lock)."""
        outcome = dict(outcome)
        outcome["worker"] = worker
        spans = outcome.pop("spans", None)
        dispatched = ptask.dispatched_mono is not None
        outcome.setdefault(
            "queued_seconds",
            round(
                (ptask.dispatched_mono if dispatched else time.monotonic())
                - ptask.enqueued_mono,
                6,
            ),
        )
        trace_id = str(ptask.wire.get("trace") or "")
        if trace_id:
            tracer = self.pool.tracer
            now_wall = time.time()
            # queue and pool-dispatch are consecutive siblings under the
            # request span: dispatch starts where the queue wait ends.
            request_span = str(ptask.wire.get("span") or "")
            tracer.emit(
                span_record(
                    "queue",
                    trace_id,
                    span=mint_span_id(),
                    parent=request_span,
                    start=ptask.enqueued_wall,
                    end=ptask.dispatched_wall if dispatched else now_wall,
                    attrs={
                        "goal": ptask.wire["key"],
                        "session": self.sid,
                        "client": self.client,
                        "dispatched": dispatched,
                    },
                )
            )
            if dispatched:
                tracer.emit(
                    span_record(
                        "pool-dispatch",
                        trace_id,
                        span=str(ptask.worker_wire.get("dispatch_span") or ""),
                        parent=request_span,
                        start=ptask.dispatched_wall,
                        end=now_wall,
                        attrs={
                            "goal": ptask.wire["key"],
                            "worker": worker,
                            "status": str(outcome.get("status") or ""),
                        },
                    )
                )
            if spans:
                tracer.emit_all(spans)
        self._results[ptask.wire["uid"]] = outcome
        if worker >= 0:
            with self.pool._lock:
                self._tasks[worker] = self._tasks.get(worker, 0) + 1
        if self._on_result is not None and self._callback_error is None:
            try:
                self._on_result(ptask.wire, outcome, self.cancel)
            except BaseException as error:  # noqa: BLE001 - re-raised in run()
                # A raising callback must not kill the dispatcher (it serves
                # other sessions too); the session re-raises after its run.
                self._callback_error = error
        self._outstanding -= 1
        if self._outstanding <= 0:
            self._done.set()


class WorkerPool:
    """A pool of solver processes, shared fairly across sessions.

    Requests join as :class:`PoolSession`\\ s, their goal tasks interleave
    deficit-round-robin across sessions (quantum: one goal per visit, so a
    100-goal batch cannot starve a 1-goal request), and a single dispatcher
    thread owns all slot state — feeding idle workers, collecting results,
    respawning crashes and enforcing hard deadlines.  The dispatcher is
    event-driven (see :meth:`_dispatch_once`): it sleeps in one ``wait`` call
    until something happens.  Workers cache elaborated theories across tasks
    (:func:`_pool_worker_main`), which is the latency win of a resident pool:
    a known theory is served with zero spawns and zero re-elaboration.
    ``resolver`` is the theory of sessions that name none (a batch's private
    pool); it travels to the workers at spawn.

    Concurrency contract: ``_lock`` guards session registration, per-session
    queues/counters, the fairness ring and the slot list; slot state is touched
    by the dispatcher thread only; ``on_result`` callbacks run on the
    dispatcher thread *outside* the lock (they may call ``cancel``, which
    re-acquires it).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        worker_hook: Optional[Spec] = None,
        hard_kill_grace: float = 5.0,
        start_method: Optional[str] = None,
        tracer=None,
        resolver: Optional[Spec] = None,
    ):
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 1))
        self.worker_hook = worker_hook
        self.resolver = resolver
        self.hard_kill_grace = max(0.5, float(hard_kill_grace))
        #: Where queue/dispatch spans and crash events of traced tasks go; the
        #: proof service injects its per-daemon tracer.
        self.tracer = tracer if tracer is not None else get_tracer()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.context = multiprocessing.get_context(start_method)
        self._lock = threading.RLock()
        #: Notified when the last session unregisters (:meth:`wait_idle`).
        self._idle = threading.Condition(self._lock)
        # The self-pipe: one byte written here wakes the dispatcher's wait.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._wake_lock = threading.Lock()
        self._slots: List[_WorkerSlot] = []
        self._thread: Optional[threading.Thread] = None
        self._session_ids = itertools.count(1)
        self._uids = itertools.count(1)
        self._sessions: "OrderedDict[int, PoolSession]" = OrderedDict()
        self._ring: deque = deque()
        self._inflight: Dict[int, Tuple[_PoolTask, _WorkerSlot]] = {}
        self._spawns = 0
        self._dispatched = 0
        self._interleaves = 0
        self._last_sid: Optional[int] = None
        self._max_sessions = 0
        self._shutdown = False
        self._shutdown_at = 0.0
        self._shutdown_grace = 0.0
        self._closing = False
        self._broken: Optional[str] = None

    # -- session API -----------------------------------------------------------

    def session(self, resolver: Optional[Spec], client: str = "default") -> PoolSession:
        """A fresh session bound to ``resolver`` (``None``: the pool's own)."""
        return PoolSession(self, resolver, client=client)

    def ensure_started(self) -> int:
        """Bring the pool up to ``jobs`` workers; returns how many spawned now."""
        with self._lock:
            if self._closing or self._broken:
                raise RuntimeError(self._broken or "worker pool is closed")
            started = 0
            while len(self._slots) < self.jobs and not self._shutdown:
                self._slots.append(
                    _WorkerSlot(len(self._slots), self.context, self.resolver, self.worker_hook)
                )
                self._spawns += 1
                started += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_forever, name="repro-pool-dispatch", daemon=True
                )
                self._thread.start()
            return started

    def _run_session(self, session: PoolSession, wire: List[dict]) -> None:
        session.worker_spawns += self.ensure_started()
        with self._lock:
            session._outstanding = len(wire)
            session._done.clear()
            self._sessions[session.sid] = session
            self._ring.append(session.sid)
            self._max_sessions = max(self._max_sessions, len(self._sessions))
            for task in wire:
                session._pending.append(_PoolTask(next(self._uids), session, task))
        self._wake()
        try:
            session._done.wait()
        finally:
            with self._lock:
                self._sessions.pop(session.sid, None)
                try:
                    self._ring.remove(session.sid)
                except ValueError:  # pragma: no cover - already gone
                    pass
                if not self._sessions:
                    self._idle.notify_all()

    def _wake(self) -> None:
        """Interrupt the dispatcher's wait (any thread; a no-op once closed)."""
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:  # the pipe is full of wakes already
                pass

    # -- graceful shutdown -----------------------------------------------------

    def request_shutdown(self, grace: Optional[float] = None) -> None:
        """Drain: finish what is in flight (within ``grace``), start nothing new.

        Sticky: pending tasks of every session fail fast with a "shutting
        down" reason (which :mod:`repro.engine.suite` treats as unstorable),
        goals already on a worker get ``grace`` seconds (default:
        ``hard_kill_grace``) before the worker is killed — killed, not
        respawned, so shutdown never spawns a process — and later sessions
        drain immediately too.  Safe to call from any thread.
        """
        self._shutdown_grace = self.hard_kill_grace if grace is None else max(0.0, float(grace))
        self._shutdown_at = time.monotonic()
        self._shutdown = True
        self._wake()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown

    def wait_idle(self, timeout: float) -> bool:
        """Block until no session is registered; ``False`` on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._sessions, timeout=max(0.0, timeout))

    def close(self, timeout: float = 10.0) -> None:
        """Terminate the dispatcher and every worker (idempotent).

        Active sessions are drained first via :meth:`request_shutdown`; if the
        dispatcher cannot settle them within ``timeout`` their remaining tasks
        are failed here so no caller is left blocked on a dead pool.
        """
        if not self._shutdown:
            self.request_shutdown(grace=0.0)
        self.wait_idle(timeout)
        with self._lock:
            self._closing = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        for slot in self._slots:
            slot.stop()
        self._slots = []
        self._fail_outstanding("worker pool closed")
        with self._wake_lock:
            if self._wake_w is not None:
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = None

    # -- observability ----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time pool state for the ``metrics`` op."""
        with self._lock:
            return {
                "pool_size": sum(
                    1 for slot in self._slots if slot.process is not None and slot.process.is_alive()
                ),
                "queue_depth": sum(len(s._pending) for s in self._sessions.values()),
                "inflight": sum(s._inflight for s in self._sessions.values()),
                "active_sessions": len(self._sessions),
                "max_concurrent_sessions": self._max_sessions,
                "dispatched": self._dispatched,
                "interleaves": self._interleaves,
                "spawns": self._spawns,
            }

    def client_load(self, client: str) -> int:
        """Goals of ``client`` currently queued or on a worker (budget input)."""
        with self._lock:
            return sum(
                len(s._pending) + s._inflight
                for s in self._sessions.values()
                if s.client == client
            )

    # -- the dispatcher thread ---------------------------------------------------

    def _next_task(self, finishes: List[Tuple[_PoolTask, dict, int]]) -> Optional[_PoolTask]:
        """Pick the next dispatchable task, deficit-round-robin over sessions.

        Called under ``_lock``.  Each visit credits a session one quantum (one
        goal) and debits it on dispatch, so sessions with work alternate
        strictly regardless of batch size.  Cancelled tasks settle here for
        free (appended to ``finishes``) without consuming the quantum.
        """
        ring = self._ring
        for _ in range(len(ring)):
            session = self._sessions[ring[0]]
            if not session._pending:
                session._deficit = 0.0
                ring.rotate(-1)
                continue
            session._deficit += 1.0
            while session._pending and session._deficit >= 1.0:
                ptask = session._pending.popleft()
                if ptask.wire["uid"] in session._cancelled:
                    finishes.append(
                        (
                            ptask,
                            {
                                "status": STATUS_CANCELLED,
                                "reason": "a portfolio sibling already proved the goal",
                            },
                            -1,
                        )
                    )
                    continue
                session._deficit -= 1.0
                ring.rotate(-1)
                return ptask
            ring.rotate(-1)
        return None

    def _account(self, ptask: _PoolTask, slot: _WorkerSlot) -> None:
        """Attribute a finished (or killed) dispatch to its session's counters."""
        session = ptask.session
        with self._lock:
            session._busy[slot.slot] = session._busy.get(slot.slot, 0.0) + (
                time.monotonic() - slot.started_at
            )
            session._inflight = max(0, session._inflight - 1)

    def _replace(self, slot: _WorkerSlot, ptask: Optional[_PoolTask]) -> None:
        """Respawn a dead or hung worker — or just kill it during shutdown."""
        if self._shutdown or self._closing:
            slot.kill()
            return
        slot.respawn()
        with self._lock:
            self._spawns += 1
            if ptask is not None:
                session = ptask.session
                session.worker_spawns += 1
                session._respawns[slot.slot] = session._respawns.get(slot.slot, 0) + 1

    def _hard_deadline(self, slot: _WorkerSlot) -> Optional[float]:
        timeout = slot.current.get("config", {}).get("timeout")
        if timeout is None:
            return None
        return slot.started_at + float(timeout) + self.hard_kill_grace

    def _wait_timeout(self, slots: List[_WorkerSlot]) -> Optional[float]:
        """Seconds to the nearest hard deadline or grace expiry (``None``: none)."""
        deadlines = []
        for slot in slots:
            if slot.idle:
                continue
            if self._shutdown:
                deadlines.append(self._shutdown_at + self._shutdown_grace)
            deadline = self._hard_deadline(slot)
            if deadline is not None:
                deadlines.append(deadline)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _dispatch_once(self) -> None:
        """One turn of the dispatcher: block until an event, then act on it.

        The events are a byte on the wake pipe (a new session, a shutdown
        request, :meth:`close`), a result on a slot's pipe, and a worker's
        process sentinel — idle workers included, so one that dies between
        goals is respawned before it is handed the next.  The wait times out
        at the nearest hard deadline or shutdown-grace expiry.  Results and
        deaths are delivered before idle slots are fed, so a ``cancel`` from
        an ``on_result`` callback withholds a sibling before it dispatches.
        """
        with self._lock:
            slots = [slot for slot in self._slots if not slot.retired]
        waitables: list = [self._wake_r]
        for slot in slots:
            waitables += (slot.result_reader, slot.process.sentinel)
        ready = set(wait_for_events(waitables, self._wait_timeout(slots)))
        if self._wake_r in ready:
            try:
                while os.read(self._wake_r, 4096):
                    pass
            except BlockingIOError:
                pass
        finishes: List[Tuple[_PoolTask, dict, int]] = []
        now = time.monotonic()
        for slot in slots:
            died = slot.process.sentinel in ready
            if died or slot.result_reader in ready:
                self._settle(slot, died, finishes)
            elif not slot.idle:
                self._enforce_deadlines(slot, now, finishes)
        self._deliver(finishes)
        self._deliver(self._feed())

    def _settle(self, slot: _WorkerSlot, died: bool, finishes: List) -> None:
        """Act on a slot's pipe or sentinel event: a result, a crash, or both."""
        entry = self._inflight.get(slot.current["uid"]) if slot.current else None
        owner = entry[0] if entry else None
        message = slot.receive()
        if message is not None:
            settled = self._inflight.pop(message[1], None)
            if settled is not None:  # else a late echo of a task settled by a kill
                self._account(settled[0], slot)
                finishes.append((settled[0], message[2], slot.slot))
                slot.current = None
            if not died:
                return
        # The worker is exiting (its sentinel or its pipe's end of file says
        # so): reap it, so its exit code is known.
        slot.process.join(timeout=1.0)
        if owner is not None and not slot.idle:
            exit_code = slot.process.exitcode
            self._inflight.pop(owner.uid, None)
            self._account(owner, slot)
            if owner.wire.get("trace"):
                self.tracer.emit(
                    event_record(
                        "worker-crash",
                        str(owner.wire["trace"]),
                        parent=str(owner.worker_wire.get("dispatch_span") or ""),
                        attrs={"goal": owner.wire["key"], "slot": slot.slot, "exit_code": exit_code},
                    )
                )
            finishes.append(
                (
                    owner,
                    {
                        "status": "failed",
                        "reason": f"worker crashed (exit code {exit_code}) while solving",
                    },
                    slot.slot,
                )
            )
        self._replace(slot, owner)

    def _enforce_deadlines(self, slot: _WorkerSlot, now: float, finishes: List) -> None:
        """Kill a busy worker past the shutdown grace or its hard deadline."""
        task = slot.current
        if self._shutdown and now >= self._shutdown_at + self._shutdown_grace:
            status = "failed"
            reason = f"service shutting down: worker killed {now - slot.started_at:.1f}s into the goal"
        else:
            deadline = self._hard_deadline(slot)
            if deadline is None or now < deadline:
                return
            status = "timeout"
            reason = (
                f"hard deadline: worker killed {now - slot.started_at:.1f}s into a "
                f"{task['config'].get('timeout')}s budget"
            )
        entry = self._inflight.pop(task["uid"], None)
        ptask = entry[0] if entry else None
        if ptask is not None:
            self._account(ptask, slot)
            finishes.append((ptask, {"status": status, "reason": reason}, slot.slot))
        self._replace(slot, ptask)  # during shutdown: killed, not respawned

    def _feed(self) -> List[Tuple[_PoolTask, dict, int]]:
        """Hand idle workers their next goals; once draining, fail the queue."""
        finishes: List[Tuple[_PoolTask, dict, int]] = []
        with self._lock:
            if self._shutdown:
                for session in self._sessions.values():
                    while session._pending:
                        finishes.append(
                            (
                                session._pending.popleft(),
                                {
                                    "status": "failed",
                                    "reason": "service shutting down: task abandoned before dispatch",
                                },
                                -1,
                            )
                        )
                return finishes
            for slot in self._slots:
                if slot.retired or not slot.idle:
                    continue
                ptask = self._next_task(finishes)
                if ptask is None:
                    break
                try:
                    slot.submit(ptask.worker_wire)
                except OSError:
                    # The worker died after this turn's wait: keep the goal
                    # queued; the sentinel respawns the worker next turn.
                    ptask.session._pending.appendleft(ptask)
                    continue
                except Exception as error:  # noqa: BLE001 - e.g. an unpicklable task
                    finishes.append(
                        (ptask, {"status": "failed", "reason": f"task not sendable: {error!r}"}, -1)
                    )
                    continue
                ptask.dispatched_mono = time.monotonic()
                ptask.dispatched_wall = time.time()
                self._inflight[ptask.uid] = (ptask, slot)
                ptask.session._inflight += 1
                self._dispatched += 1
                sid = ptask.session.sid
                if (
                    self._last_sid is not None
                    and self._last_sid != sid
                    and self._last_sid in self._sessions
                ):
                    # A dispatch alternating between two *live* sessions:
                    # the observable trace of fair interleaving.
                    self._interleaves += 1
                self._last_sid = sid
        return finishes

    @staticmethod
    def _deliver(finishes: List[Tuple[_PoolTask, dict, int]]) -> None:
        """Settle outcomes outside the lock: callbacks may store results or cancel."""
        for ptask, outcome, worker in finishes:
            ptask.session._finish(ptask, outcome, worker)

    def _dispatch_forever(self) -> None:
        try:
            while not self._closing:
                self._dispatch_once()
        except Exception as error:  # pragma: no cover - defensive backstop
            # A dispatcher that dies silently would strand every waiting
            # session forever; mark the pool and fail all outstanding work.
            self._broken = f"pool dispatcher crashed: {error!r}"
            self._fail_outstanding(self._broken)

    def _fail_outstanding(self, reason: str) -> None:
        """Fail every queued and in-flight task and release every waiting session."""
        failure = {"status": "failed", "reason": reason}
        leftovers: List[Tuple[_PoolTask, dict, int]] = []
        with self._lock:
            for ptask, slot in self._inflight.values():
                leftovers.append((ptask, failure, slot.slot))
            self._inflight.clear()
            sessions = list(self._sessions.values())
            for session in sessions:
                while session._pending:
                    leftovers.append((session._pending.popleft(), failure, -1))
        self._deliver(leftovers)
        for session in sessions:
            session._done.set()
