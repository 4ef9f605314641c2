"""Process state shared by the whole suite.

A campaign attaches its verdict store, kernel store and trace sink to
the process once, and nothing detaches them until the next campaign
does.  So every test ends with all three detached: a test that attached
one (directly or through a campaign) cannot leak it into the next.
"""

import pytest

from repro.campaigns import configure_verdict_store
from repro.exec.batch import configure_kernel_store
from repro.obs.trace import configure_tracing


@pytest.fixture(autouse=True)
def detached_process():
    yield
    configure_verdict_store(None)
    configure_kernel_store(None)
    configure_tracing(None)
