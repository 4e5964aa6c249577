"""The correctness gate: independent re-checks run after the timed region.

Every ``proved`` verdict's certificate is re-checked from the theory's source
text, elaborated into a fresh term bank (one :class:`CertificateChecker` per
distinct source — the same independence as ``check_certificate``, without
re-elaborating per certificate), against the equation the benchmark
submitted.  Every counterexample is replayed through the generic normaliser.
Each mismatch is a failure of the run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from common import RunResult


def recheck_certificates(
    result: RunResult, items: Iterable[Tuple[str, Optional[dict], str]]
) -> List[float]:
    """Re-check ``(source, certificate, goal equation)`` triples; returns check seconds.

    Identical triples (the same goal proved again in a later pass) are
    checked once.
    """
    from repro.proofs import checker
    from repro.proofs.certificate import canonical_json

    checkers: Dict[str, object] = {}
    seen = set()
    seconds: List[float] = []
    for source, cert, equation in items:
        if cert is None:
            result.fail(f"proved without a certificate: {equation}")
            continue
        key = (source, canonical_json(cert), equation)
        if key in seen:
            continue
        seen.add(key)
        instance = checkers.get(source)
        if instance is None:
            instance = checkers[source] = checker.CertificateChecker(source, name="gate")
        started = perf_counter()
        report = instance.check(cert, goal_equation=equation)
        seconds.append(perf_counter() - started)
        if not report.ok:
            result.fail(f"certificate for {equation} rejected: {report.issues[:1]}")
    return seconds


def replay_counterexample(program, counterexample: Optional[dict], equation) -> bool:
    """Does the counterexample refute ``equation`` under the generic normaliser?"""
    from repro.semantics.falsify import Counterexample

    if counterexample is None:
        return False
    return Counterexample.from_dict(counterexample).replay(program, equation)
