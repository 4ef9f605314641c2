"""Pluggable execution backends for differential campaigns.

Every scalar way of *running* a routing scenario lives behind one
two-call contract — ``backend.prepare(scenario, seed=...)`` returns an
:class:`ExecutionSession` with the scenario's events already scheduled,
and ``session.run(until, max_events)`` returns an
:class:`ExecutionOutcome` — so the campaign oracle can execute a scenario
on N independent implementations and cross-check their route tables:

* ``gpv`` (:class:`GPVBackend`) — the native Python path-vector engine;
* ``ndlog`` (:class:`NDlogBackend`) — the algebra compiled to NDlog and
  on to generated Python (the paper's generated-implementation path);
* ``hlp`` (:class:`HLPBackend`) — the hierarchical link-state / FPV
  protocol of the paper's Sec. VI-D case study, comparable on HLP-cost
  scenarios (it declares per-scenario applicability via
  :meth:`ExecutionBackend.supports`);
* ``batch`` (:class:`BatchBackend`) — the vectorized fixpoint engine:
  strictly monotonic algebras tabulated to integer preference ranks and
  relaxed over numpy, thousands of scenarios per call.  Not an
  :class:`ExecutionBackend`: its contract is ``supports`` →
  ``prepare_batch`` → ``run``, producing the same
  :class:`ExecutionOutcome`; the scalar engines stay the differential
  ground truth.

See ``src/repro/exec/README.md`` for the backend contract and the
checklist for adding further backends.
"""

from .base import (
    ExecutionBackend,
    ExecutionOutcome,
    ExecutionSession,
    route_mismatches,
    route_set_mismatches,
)
from .batch import BatchBackend
from .gpv import GPVBackend, GPVSession
from .hlp import HLPBackend, HLPSession
from .ndlog import NDlogBackend, NDlogSession

#: Registry of backend name → singleton instance (backends are stateless).
BACKENDS: dict[str, "ExecutionBackend | BatchBackend"] = {
    GPVBackend.name: GPVBackend(),
    NDlogBackend.name: NDlogBackend(),
    HLPBackend.name: HLPBackend(),
    BatchBackend.name: BatchBackend(),
}

#: The default single-backend configuration (fast path).
DEFAULT_BACKENDS = (GPVBackend.name,)


def get_backend(name: str) -> "ExecutionBackend | BatchBackend":
    """Look up a backend by registry name (``KeyError`` with choices)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown execution backend {name!r}; "
                       f"choose from {sorted(BACKENDS)}") from None


def resolve_backends(names) -> tuple[str, ...]:
    """Normalize/validate a backend list (``ValueError`` on bad input)."""
    resolved = tuple(names)
    if not resolved:
        raise ValueError("at least one execution backend is required")
    unknown = [n for n in resolved if n not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown execution backends {unknown}; "
                         f"choose from {sorted(BACKENDS)}")
    if len(set(resolved)) != len(resolved):
        raise ValueError(f"duplicate execution backends in {list(resolved)}")
    return resolved


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKENDS",
    "BatchBackend",
    "ExecutionBackend",
    "ExecutionOutcome",
    "ExecutionSession",
    "GPVBackend",
    "GPVSession",
    "HLPBackend",
    "HLPSession",
    "NDlogBackend",
    "NDlogSession",
    "get_backend",
    "resolve_backends",
    "route_mismatches",
    "route_set_mismatches",
]
