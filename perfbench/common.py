"""Shared pieces of the benchmark: paths, percentiles, memory, result lines, spans.

Nothing here imports :mod:`repro`; :func:`use_repo_sources` puts the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
PINNED_CERTIFICATES = BENCH_DIR / "pinned" / "certificates.json"
#: Scratch space (daemon socket, store, trace sink, span dumps) inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce an honest result (exit without a result line)."""


def use_repo_sources() -> None:
    """Import :mod:`repro` from the checkout, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float, what: str) -> float:
    """The ``q``-quantile of ``values``, refused when too few samples lie beyond it.

    A p90 of 40 samples is set by the four slowest goals; reporting it would
    make one goal's luck a regression.  The guard raises instead.
    """
    beyond = math.floor(len(values) * (1.0 - q))
    if beyond < MIN_SAMPLES_BEYOND:
        raise BenchmarkError(
            f"percentile guard: {what} needs {MIN_SAMPLES_BEYOND} samples beyond "
            f"p{round(q * 100)}, the run has {len(values)} sample(s) ({beyond} beyond)"
        )
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def median_setup(build: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Run ``build`` ``repeats`` times; returns (median seconds, last result).

    Each repeat starts from a collected heap, so a garbage collection left
    over from the previous repeat is not charged to the next one.
    """
    times: List[float] = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        started = perf_counter()
        result = build()
        times.append(perf_counter() - started)
    return statistics.median(times), result


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(k) for k in handle.read().split())
    except OSError:
        pass
    return kids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over a process and its descendants."""
    total_kib = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
        stack.extend(_children(current))
    return total_kib / 1024.0


def load_json(path: Path) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class RunResult:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    """name -> (value, unit)."""

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def result_line(self, names: Sequence[str]) -> str:
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchmarkError(f"workload did not measure {', '.join(missing)}")
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        })


# -- spans recorded from the benchmark's own files -------------------------------------


class SpanRecorder:
    """Time calls into a layer's public functions by wrapping them in place.

    Spans are kept in memory as ``(layer, name, start, end, self)``; a span's
    self time is its duration minus the time its child spans cover.  All
    wrapped calls must come from one thread.  :meth:`restore` (or leaving the
    ``with`` block) puts every original function back.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, float, float, float]] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, layer: str) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((layer, name, start, end, end - start - children[0]))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def durations(self, name: str) -> List[float]:
        return [end - start for _, span_name, start, end, _ in self.spans if span_name == name]

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for layer, _, _, _, own in self.spans:
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans out (JSON lines), once the measured region is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for layer, name, start, end, own in self.spans:
                handle.write(json.dumps(
                    {"layer": layer, "name": name, "start": start, "end": end, "self": own}
                ) + "\n")


#: The layers the traced run reports a self time for.
LAYERS = ("lang", "core", "rewriting", "search", "sizechange", "proofs", "semantics",
          "engine", "service")


def put_self_times(result: RunResult, self_times: Dict[str, float], wall: float) -> None:
    """Per-layer self time plus the part of ``wall`` no span covers."""
    for layer in LAYERS:
        result.put(f"{layer}.self_s", self_times.get(layer, 0.0), "s")
    accounted = sum(self_times.values())
    result.put("obs.unaccounted_s", wall - accounted, "s")
    result.put("obs.accounted_share", accounted / wall if wall > 0 else 0.0, "share")
