import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="session")
def rotation_cases():
    """Named 3x3 blocks around both rotation tolerances: 1e-9 (accept or repair) and 1e-4 (KITTI refusal).

    Drift ||R^T R - I||_F or |det R - 1| at 0.4 to 2 times 1e-9, at 1e-4
    give or take a few ulps of every entry, reflections and non-finite blocks.
    """
    rng = np.random.default_rng(20)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(r)) * np.sign(np.linalg.det(q * np.sign(np.diag(r))))
    eps = np.finfo(float).eps
    cases = {"exact": rot}
    for k in (0.4, 0.5, 0.9, 1.0, 1.1, 2.0):
        cases[f"drift-{k}e-9"] = rot * math.sqrt(1.0 + k * 1e-9 / math.sqrt(3.0))
        cases[f"det-up-{k}e-9"] = rot * (1.0 + k * 1e-9) ** (1.0 / 3.0)
        cases[f"det-down-{k}e-9"] = rot * (1.0 - k * 1e-9) ** (1.0 / 3.0)
        cases[f"axis-{k}e-9"] = rot @ np.diag([1.0 + k * 0.5e-9, 1.0, 1.0])
    for j in range(-4, 5):
        cases[f"drift-1e-4{j:+d}ulp"] = rot * (math.sqrt(1.0 + 1e-4 / math.sqrt(3.0)) * (1.0 + j * eps))
        cases[f"det-1e-4{j:+d}ulp"] = rot * ((1.0 + 1e-4) ** (1.0 / 3.0) * (1.0 + j * eps))
    cases["reflection"] = rot @ np.diag([1.0, 1.0, -1.0])
    cases["drifted-reflection"] = -rot * math.sqrt(1.0 + 0.9e-9 / math.sqrt(3.0))
    for name, value in (("nan", math.nan), ("inf", math.inf)):
        cases[name] = rot.copy()
        cases[name][1, 2] = value
    return cases


@pytest.fixture(scope="session")
def bench_drive():
    """``drive(seed)``: the ``drive_eval`` benchmark's drive at ``seed``, (ground truth, noisy estimate).

    4541 frames, built from ``bench/workloads.py`` itself so the tests see
    the drive the benchmark digests; each seed is synthesized once.
    """
    from bevkit.io import synth_trajectory

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    drives = {}

    def drive(seed):
        if seed not in drives:
            drives[seed] = synth_trajectory(workloads.DriveEval(seed, "paper", None, None).spec(0))
        return drives[seed]

    return drive
