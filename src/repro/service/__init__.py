"""The proof service: a long-lived daemon with warm state and a lemma library.

``python -m repro serve`` turns the one-shot CLI into a resident process:

* :mod:`repro.service.server` — the service core and its asyncio JSON-lines
  front-end over a local unix socket.
* :mod:`repro.service.state` — the per-``Program.fingerprint()`` warm-state
  cache (elaborated programs, term banks, compiled evaluators) so repeat
  theories never re-elaborate or recompile.
* :mod:`repro.service.library` — the content-addressed lemma library: proved
  equations plus certificates, keyed by program fingerprint, verified with
  :func:`repro.proofs.checker.check_certificate` before they may be offered
  as hints to later goals on the same theory.
* :mod:`repro.service.client` — the blocking JSON-lines client used by
  ``python -m repro submit``, the tests, and the benchmarks.

The engine's hard invariant holds throughout: terms never cross process (or
even request) boundaries — programs travel as source text, hints as equation
source text, proofs as certificates, refutations as counterexample dicts.
"""

from .client import ServiceClient, ServiceProtocolError, SubmitOutcome
from .library import LemmaLibrary
from .server import ProofService, ServiceConfig, ServiceError, ServiceMetrics, serve
from .state import WarmState, WarmStateCache

__all__ = [
    "LemmaLibrary",
    "ProofService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceProtocolError",
    "SubmitOutcome",
    "WarmState",
    "WarmStateCache",
    "serve",
]
