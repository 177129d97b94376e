import sys
import tracemalloc

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the test summary."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "VERDICTS", None):
            terminalreporter.section("acceptance checks")
            for line in module.VERDICTS:
                terminalreporter.write_line(line)
            break


@pytest.fixture
def peak_bytes():
    """Run ``fn()`` under tracemalloc; return (its result, peak bytes allocated meanwhile)."""

    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def refuse_cheaply(peak_bytes):
    """Assert that ``fn()`` raises ``exc_type`` while allocating under 1 MB.

    Size guards must refuse before they allocate; an oversize request that
    slips past its guard shows up here as a large tracemalloc peak.
    """

    def check(fn, exc_type, match=None):
        def refuse():
            with pytest.raises(exc_type, match=match) as info:
                fn()
            return info.value

        exc, peak = peak_bytes(refuse)
        assert peak < 2**20, f"peak {peak} bytes while refusing: {exc}"
        return exc

    return check
