"""The suite's hang watchdog (``conftest.fail_a_hang``) ends a hung process with a traceback."""

from pathlib import Path

from helpers import run_fresh_python

HUNG = (
    "import sys, time\n"
    "sys.path.insert(0, {tests!r})\n"
    "from helpers import hang_watchdog\n"
    "with hang_watchdog(1):\n"
    "    time.sleep(60)\n"
)


def test_the_watchdog_ends_a_hung_process_with_its_traceback():
    # armed at 1 s around a 60 s sleep; a watchdog that never fires fails here by TimeoutExpired
    proc = run_fresh_python("-c", HUNG.format(tests=str(Path(__file__).resolve().parent)), timeout=30)
    assert proc.returncode != 0
    assert proc.stderr.startswith("Timeout (0:00:01)!\n"), proc.stderr
    assert "(most recent call first)" in proc.stderr and 'File "<string>", line 5' in proc.stderr, proc.stderr
