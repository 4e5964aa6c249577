"""Persistent result store: memoise proof outcomes across engine runs.

The store maps ``(program fingerprint, goal, configuration fingerprint)`` to
the outcome of one proof attempt, persisted as append-only JSON-lines.  A
re-run of a suite against a warm store replays every already-attempted goal
from disk instead of re-solving it — the suite-level speedup analogue of the
normal-form cache inside one attempt.

Keys are *content-addressed*: the program side is
:meth:`repro.program.Program.fingerprint` (signature + rules, goals excluded),
the goal side is ``suite/name`` plus the rendered equation (so a renamed or
edited conjecture never aliases a stale entry), and the configuration side is
:func:`config_fingerprint` over every field of
:class:`~repro.search.config.ProverConfig` (so raising the timeout or the node
budget correctly invalidates previous failures).

The file format is one JSON object per line.  Corrupt or truncated lines
(e.g. from a run killed mid-write) are skipped on load; later entries for the
same key win, so the file can simply be appended to forever and compacted with
:meth:`ResultStore.compact` when it grows.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from dataclasses import asdict
from typing import Dict, Iterator, Optional, Tuple

try:  # POSIX only; on platforms without fcntl the lock degrades to a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..search.config import ProverConfig

__all__ = [
    "ResultStore",
    "StoreLockError",
    "acquire_path_lock",
    "release_path_lock",
    "config_fingerprint",
    "STORE_SCHEMA_VERSION",
]


class StoreLockError(RuntimeError):
    """Another process holds the advisory lock on a store/library file."""


# Process-local registry of held path locks.  Within one process many
# ResultStore instances may share a path (warm re-runs keep the cold run's
# store object alive on its SuiteResult); ``fcntl`` locks are per-process
# anyway, so we refcount here and only the *first* open takes the flock.
_PATH_LOCKS: Dict[str, Tuple[int, int]] = {}  # realpath -> (fd, refcount)
_PATH_LOCKS_GUARD = threading.Lock()


def acquire_path_lock(path: str, what: str = "store") -> Optional[str]:
    """Take the advisory single-writer lock guarding ``path``.

    Creates ``path + ".lock"`` and holds an exclusive non-blocking ``flock``
    on it for the lifetime of the process (refcounted across instances, so
    the same process may open the path repeatedly).  A *second process*
    hitting the lock raises :class:`StoreLockError` with a one-line message —
    two writers interleaving appends into one JSONL file would corrupt it, so
    contention must fail loudly, not silently.

    Returns the registry key to pass to :func:`release_path_lock`, or ``None``
    when locking is unavailable on this platform.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        return None
    key = os.path.realpath(os.path.abspath(os.fspath(path)))
    with _PATH_LOCKS_GUARD:
        held = _PATH_LOCKS.get(key)
        if held is not None:
            _PATH_LOCKS[key] = (held[0], held[1] + 1)
            return key
        lock_path = key + ".lock"
        directory = os.path.dirname(lock_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            try:
                holder = os.read(fd, 64).decode("ascii", "replace").strip()
            except OSError:  # pragma: no cover - lock file unreadable
                holder = ""
            os.close(fd)
            owner = f" (held by pid {holder})" if holder else ""
            raise StoreLockError(
                f"{path}: {what} is locked by another process{owner}; "
                "a second daemon/CLI writing the same file would interleave "
                "JSONL lines — point it at its own path"
            ) from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        _PATH_LOCKS[key] = (fd, 1)
        return key


def release_path_lock(key: Optional[str]) -> None:
    """Drop one reference to a held path lock (freeing it at zero)."""
    if key is None or fcntl is None:
        return
    with _PATH_LOCKS_GUARD:
        held = _PATH_LOCKS.get(key)
        if held is None:
            return
        fd, count = held
        if count > 1:
            _PATH_LOCKS[key] = (fd, count - 1)
            return
        del _PATH_LOCKS[key]
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - already gone
            pass
        os.close(fd)

StoreKey = Tuple[str, str, str, str]
"""``(program fingerprint, suite/name, equation, config fingerprint)``."""

STORE_SCHEMA_VERSION = 3
"""Schema of the JSONL lines this build reads and writes.

Bumped whenever the meaning of a line changes — new outcome fields whose
absence is significant (e.g. proof certificates), or configuration-fingerprint
semantics changes that would make old lines replay incorrectly.  Lines with a
different (or missing — the pre-versioning era is schema 1) value are skipped
*loudly* on load: a store full of stale lines should look like a warning and a
cold run, never like silent data loss.  ``store compact`` drops them for good.

Schema history: 1 — pre-versioning; 2 — proof certificates; 3 — the
``disproved`` status with its ``counterexample``/``falsify_seconds`` payload
(a v2 line could mask a refutation as a plain failure, so v2 is not read).

The compiled-dispatch counters (``compile_seconds``/``compiled_steps``/
``fallback_steps``/``hot_symbols``) did *not* bump the schema: their absence
is benign (they default to zero/empty and describe performance, not the
verdict), and adding ``ProverConfig.compile_rules`` changed the configuration
fingerprint anyway, so pre-existing lines no longer match any current run.
"""

#: Fields of an outcome payload persisted per entry (everything else in a line
#: is key material or provenance): the :class:`~repro.harness.runner.SolveRecord`
#: fields its wire codec carries, minus ``name``/``suite`` (key material), the
#: per-run ``worker`` and ``cached``, and the exclusions noted at the end.
OUTCOME_FIELDS = (
    "status",
    "seconds",
    "nodes",
    "subst_attempts",
    "soundness_violations",
    "normalizer_hits",
    "normalizer_misses",
    "reason",
    "variant",
    "strategy",
    "max_agenda_size",
    "choice_points",
    "certificate",
    "certificate_seconds",
    "counterexample",
    "falsify_seconds",
    "compile_seconds",
    "compiled_steps",
    "fallback_steps",
    "hot_symbols",
    # Hint accounting (absence-benign, like the compile counters: they
    # describe provenance, not the verdict, so they did not bump the schema;
    # adding ProverConfig.max_hints changed the config fingerprint anyway).
    "hints_offered",
    "hint_steps",
    # Phase-profile accounting (absence-benign for the same reason: pure
    # performance observability — lines written before the profiler replay
    # with empty dicts and the report tables render "-" for them).
    "phase_seconds",
    "phase_counts",
    # Deliberately absent: "queued_seconds" and "spans".  Queue wait is a
    # property of one *run*'s scheduling (a replayed goal waited 0 in the
    # replaying request — persisting the historical wait would poison the
    # client-latency decomposition), and spans belong to the trace sink, never
    # the result store.
)


def config_fingerprint(config: ProverConfig) -> str:
    """A short stable digest of every field of a prover configuration."""
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ResultStore:
    """A JSON-lines memo of proof outcomes, keyed by :data:`StoreKey`."""

    def __init__(self, path: str, lock: bool = True):
        self.path = os.fspath(path)
        self._entries: Dict[StoreKey, dict] = {}
        self.hits = 0
        self.misses = 0
        #: Lines skipped on load because their schema differs from this build's.
        self.schema_skipped = 0
        # In-process guard: the concurrent proof service reads and appends
        # from several request threads at once; the advisory file lock below
        # only protects against other *processes*.
        self._guard = threading.RLock()
        # Advisory single-writer guard: a second *process* opening the same
        # store fails loudly (StoreLockError) instead of interleaving JSONL
        # appends.  ``lock=False`` is for read-only consumers (report/check)
        # that must keep working while a daemon owns the file.
        self._lock_key = acquire_path_lock(self.path, what="result store") if lock else None
        self._load()

    def close(self) -> None:
        """Release the advisory file lock (idempotent; entries stay readable)."""
        release_path_lock(self._lock_key)
        self._lock_key = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- key construction -------------------------------------------------------

    @staticmethod
    def make_key(program_fingerprint: str, goal_key: str, equation: str, config_fp: str) -> StoreKey:
        return (program_fingerprint, goal_key, equation, config_fp)

    @staticmethod
    def _key_of(entry: dict) -> StoreKey:
        return (
            str(entry.get("program", "")),
            str(entry.get("goal", "")),
            str(entry.get("equation", "")),
            str(entry.get("config", "")),
        )

    # -- persistence ------------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        foreign_schemas: set = set()
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn write from a killed run; ignore
                if not isinstance(entry, dict) or "status" not in entry:
                    continue
                schema = entry.get("schema", 1)
                if schema != STORE_SCHEMA_VERSION:
                    self.schema_skipped += 1
                    # str(): the value is arbitrary JSON and may be unhashable.
                    foreign_schemas.add(str(schema))
                    continue
                self._entries[self._key_of(entry)] = entry
        if self.schema_skipped:
            rendered = ", ".join(sorted(foreign_schemas))
            warnings.warn(
                f"{self.path}: skipped {self.schema_skipped} line(s) with store "
                f"schema {rendered} (this build reads schema {STORE_SCHEMA_VERSION}); "
                "affected goals will be re-solved — run `python -m repro store "
                "compact` to drop the stale lines",
                RuntimeWarning,
                stacklevel=3,
            )

    def _append(self, entry: dict) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def compact(self) -> None:
        """Rewrite the file with one (latest) line per key, atomically.

        Superseded lines (older outcomes for a key), torn writes, and lines
        whose schema this build does not read are all dropped — the rewritten
        file contains exactly the entries this store currently serves.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".jsonl")
        try:
            with self._guard, os.fdopen(fd, "w", encoding="utf-8") as handle:
                for entry in self._entries.values():
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    # -- lookup / insert ----------------------------------------------------------

    def get(self, key: StoreKey) -> Optional[dict]:
        """The stored outcome payload for ``key``, or ``None`` (counts hit/miss)."""
        with self._guard:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return {field: entry.get(field) for field in OUTCOME_FIELDS if field in entry}

    def contains(self, key: StoreKey) -> bool:
        with self._guard:
            return key in self._entries

    def peek(self, key: StoreKey) -> Optional[dict]:
        """Like :meth:`get` but without touching the hit/miss counters.

        For planning passes (the proof service deciding whether a goal needs
        hints) that inspect the store *before* the replay phase does the
        counted lookup.
        """
        with self._guard:
            entry = self._entries.get(key)
            if entry is None:
                return None
            return {field: entry.get(field) for field in OUTCOME_FIELDS if field in entry}

    def put(self, key: StoreKey, outcome: dict) -> None:
        """Persist one outcome (overwriting any previous entry for the key)."""
        program_fp, goal_key, equation, config_fp = key
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "program": program_fp,
            "goal": goal_key,
            "equation": equation,
            "config": config_fp,
        }
        for field in OUTCOME_FIELDS:
            if field in outcome:
                entry[field] = outcome[field]
        with self._guard:
            previous = self._entries.get(key)
            if previous is not None and all(
                previous.get(field) == entry.get(field) for field in OUTCOME_FIELDS
            ):
                return  # identical re-run: keep the file append-free
            self._entries[key] = entry
            self._append(entry)

    # -- views ----------------------------------------------------------------------

    def entries(self) -> Iterator[dict]:
        """All current (deduplicated) entries (a stable point-in-time list)."""
        with self._guard:
            return iter(list(self._entries.values()))

    def __len__(self) -> int:
        with self._guard:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({self.path!r}: {len(self)} entries)"
