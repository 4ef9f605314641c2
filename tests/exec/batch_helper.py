"""The one way the conformance suites drive the batch backend.

``batch`` has no scalar ``prepare → run`` lifecycle:
admission (``supports``) returns the compiled problem and
``prepare_batch`` takes it.  Every suite under ``tests/exec`` that needs
a single batch outcome goes through :func:`run_batch`.
"""

from repro.campaigns import materialize
from repro.exec import get_backend

BATCH = get_backend("batch")


def run_batch(spec):
    """``(scenario, outcome)`` of a batch of one; the spec must be
    admitted, and the outcome is ``None`` if its kernel group declines."""
    scenario = materialize(spec)
    problem = BATCH.supports(scenario)
    assert problem, f"not batch-admitted: {spec.describe()}"
    return scenario, BATCH.prepare_batch([problem]).run()[0]
